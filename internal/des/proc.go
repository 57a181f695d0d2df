//go:build go1.23

// The build line lets this one file import iter while go.mod, and with it
// benchmark/go.mod, stays at go 1.22 (DESIGN.md §13).

package des

import (
	"fmt"
	"iter"
)

// procKilled is the sentinel panic value used to unwind a killed process.
type procKilled struct{}

// Proc is a simulated process: a coroutine whose execution is interleaved
// deterministically with the event loop. At most one Proc (or event
// callback) runs at a time; a Proc gives up control only inside blocking
// primitives such as Sleep, Park, or Signal.Wait.
type Proc struct {
	eng  *Engine
	name string
	// The two ends of one iter.Pull, made when the start event fires:
	// resume switches into the body until it parks or returns, yield
	// switches back out (false once killed), stop resumes it with that false.
	resume func() (struct{}, bool)
	yield  func(struct{}) bool
	stop   func()
	// prev/next link the engine's list of live processes in spawn order.
	prev, next *Proc
	done       bool
	parked     bool
	killed     bool
	started    bool
}

// Name reports the diagnostic name given at spawn time.
func (p *Proc) Name() string { return p.name }

// Engine returns the engine this process runs on.
func (p *Proc) Engine() *Engine { return p.eng }

// Done reports whether the process body has returned or been killed.
func (p *Proc) Done() bool { return p.done }

// Spawn creates a simulated process and schedules its body to start at the
// current simulated time. The body runs as a coroutine of whoever resumes it
// (the event loop or another process), strictly interleaved with the event
// loop, so no locking is needed between processes. A panic in the body marks
// the process done and surfaces from Step/RunUntil in the engine's caller.
func (e *Engine) Spawn(name string, body func(p *Proc)) *Proc {
	p := &Proc{eng: e, name: name, prev: e.liveTail}
	if p.prev != nil {
		p.prev.next = p
	} else {
		e.liveHead = p
	}
	e.liveTail = p
	e.procs++
	e.Schedule(0, func() {
		if p.done {
			return // killed by Shutdown before it ever started
		}
		p.started = true
		p.resume, p.stop = iter.Pull(func(yield func(struct{}) bool) {
			p.yield = yield
			defer func() {
				p.retire()
				if r := recover(); r != nil {
					if _, ok := r.(procKilled); !ok {
						panic(r) // iter.Pull re-raises it in whoever resumed p
					}
				}
			}()
			body(p)
		})
		p.dispatch()
	})
	return p
}

// retire marks the process finished and unlinks it from the live list.
func (p *Proc) retire() {
	e := p.eng
	p.done = true
	e.procs--
	if p.prev != nil {
		p.prev.next = p.next
	} else {
		e.liveHead = p.next
	}
	if p.next != nil {
		p.next.prev = p.prev
	} else {
		e.liveTail = p.prev
	}
	p.prev, p.next = nil, nil
}

// dispatch transfers control to the process and returns when it parks again
// or exits. It must only be called from engine context (an event callback,
// or another process, which stays suspended inside this call meanwhile).
func (p *Proc) dispatch() {
	if p.done {
		panic(fmt.Sprintf("des: dispatch to finished proc %q", p.name))
	}
	p.resume()
}

// Park blocks the process until another event calls Unpark. It is the
// low-level primitive beneath Sleep and Signal.
func (p *Proc) Park() {
	p.parked = true
	if !p.yield(struct{}{}) {
		panic(procKilled{})
	}
}

// Unpark makes a parked process runnable and runs it immediately (still
// within the current simulated instant). It must be called from engine
// context — an event callback or another process that is about to park.
// Unparking a process that is not parked panics: it indicates a lost-wakeup
// bug in the caller.
func (p *Proc) Unpark() {
	if p.done {
		return // killed while an unpark event was already queued
	}
	if !p.parked {
		panic(fmt.Sprintf("des: Unpark of non-parked proc %q", p.name))
	}
	p.parked = false
	p.dispatch()
}

func unparkProc(a any) { a.(*Proc).Unpark() }

// UnparkLater schedules an Unpark after delay without running it inline.
func (p *Proc) UnparkLater(delay Time) *Event {
	return p.eng.ScheduleArg(delay, unparkProc, p)
}

// Sleep suspends the process for the given simulated duration (clamped to a
// minimum of zero; a zero-length sleep still yields to equal-time events).
func (p *Proc) Sleep(d Time) {
	p.UnparkLater(d)
	p.Park()
}

// Kill terminates a parked process: its stack unwinds (running deferred
// functions) and it never runs again. Killing a finished process is a no-op.
// Kill must be called from engine context and only on parked processes.
func (p *Proc) Kill() {
	if p.done || p.killed {
		return
	}
	p.killed = true
	if !p.parked {
		panic(fmt.Sprintf("des: Kill of running proc %q", p.name))
	}
	p.parked = false
	p.stop()
}

// Now reports the current simulated time.
func (p *Proc) Now() Time { return p.eng.Now() }

// Shutdown kills every live process, oldest first, so their deferred
// functions run in the same order on every run. Call it after RunUntil when a
// simulation ends with daemons still sleeping, so their coroutines do not
// leak. Processes holding pending wake-up events are killed too (the stale
// events become no-ops); one that never started is retired without unwinding.
func (e *Engine) Shutdown() {
	for p := e.liveHead; p != nil; p = e.liveHead {
		switch {
		case !p.started:
			p.retire()
		case p.parked:
			p.Kill()
		default:
			panic("des: Shutdown with live unparked processes")
		}
	}
}

// Live reports the number of processes that have been spawned and not yet
// finished.
func (e *Engine) Live() int { return e.procs }

// Signal is a waiting place for simulated processes: a condition-variable
// analogue. The zero value is ready to use.
type Signal struct {
	waiters []*Proc // waiters[head:] are parked, oldest first
	head    int
}

// Wait parks the calling process until Wake or Broadcast releases it.
func (s *Signal) Wait(p *Proc) {
	s.waiters = append(s.waiters, p)
	p.Park()
}

// Waiting reports how many processes are parked on the signal.
func (s *Signal) Waiting() int { return len(s.waiters) - s.head }

// Wake releases the longest-waiting live process, if any, and reports
// whether a process was released. Processes killed while waiting are
// discarded silently.
func (s *Signal) Wake() bool {
	for s.head < len(s.waiters) {
		p := s.waiters[s.head]
		s.head++
		if 2*s.head >= len(s.waiters) {
			// Drop the released prefix once it is half the slice: a wake
			// stays O(1) amortised and the slice bounded by live waiters.
			n := copy(s.waiters, s.waiters[s.head:])
			clear(s.waiters[n:])
			s.waiters, s.head = s.waiters[:n], 0
		}
		if p.done {
			continue
		}
		p.Unpark()
		return true
	}
	return false
}

// Broadcast releases all waiting processes in FIFO order.
func (s *Signal) Broadcast() {
	for s.Wake() {
	}
}
