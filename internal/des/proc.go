//go:build go1.23

// The build line lets this one file import iter while go.mod, and with it
// benchmark/go.mod, stays at go 1.22 (DESIGN.md §13).

package des

import (
	"fmt"
	"iter"
	"sync"
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
	body func(p *Proc)
	// co runs the body, from the start event until the body returns or
	// unwinds; then it moves on to other processes and co is nil. A live
	// process without one has not started.
	co *coro
	// prev/next link the engine's list of live processes in spawn order.
	prev, next *Proc
	done       bool
	parked     bool
	killed     bool
}

// coro is one iter.Pull coroutine that runs process bodies one after
// another: a body that returns leaves it parked at the top of its loop, with
// the stack the body grew, for the next start event to take.
type coro struct {
	resume func() (struct{}, bool) // switch in until the body parks or returns
	yield  func(struct{}) bool     // switch out; false once stopped
	stop   func()                  // unwind the body parked in yield
	p      *Proc                   // the process it runs; nil while idle
}

// maxIdleCoros caps the idle coroutines kept for reuse. An idle coroutine
// is a parked goroutine holding the stack its last body grew, ~4 kB, and
// ~0.4 kB of heap (goroutine, iter.Pull closures, coro), so a full list
// holds ~4 MB of stack and ~0.4 MB of heap: the ranks of four 256-rank
// worlds. Past the cap a coroutine whose body returned is stopped.
const maxIdleCoros = 1024

// idle is the process-wide free list of coroutines. Engines on different
// goroutines share it (parfor runs trials in parallel), hence the mutex.
var idle struct {
	sync.Mutex
	coros   []*coro
	created int // coroutines ever made
}

// getCoro hands out an idle coroutine, or makes one.
func getCoro() *coro {
	idle.Lock()
	if n := len(idle.coros); n > 0 {
		c := idle.coros[n-1]
		idle.coros[n-1] = nil
		idle.coros = idle.coros[:n-1]
		idle.Unlock()
		return c
	}
	idle.created++
	idle.Unlock()
	c := &coro{}
	c.resume, c.stop = iter.Pull(c.loop)
	return c
}

// putCoro takes back a coroutine whose body returned. Only the side that
// resumed it may call this, after resume has returned: until the coroutine
// has switched out, another engine's goroutine must not be able to resume it.
func putCoro(c *coro) {
	idle.Lock()
	if len(idle.coros) < maxIdleCoros {
		idle.coros = append(idle.coros, c)
		idle.Unlock()
		return
	}
	idle.Unlock()
	c.stop()
}

// loop is the coroutine's function: it runs bodies until one is killed or
// panics, which ends the coroutine, or until it is stopped while idle.
func (c *coro) loop(yield func(struct{}) bool) {
	c.yield = yield
	for c.run() {
		c.p = nil
		if !yield(struct{}{}) {
			return
		}
	}
}

// run runs the body of c.p and retires the process however the body ends.
// It reports whether the body returned: a killed body unwinds to here and
// reports false, and any other panic goes on to whoever resumed c, where
// iter.Pull re-raises it.
func (c *coro) run() (returned bool) {
	p := c.p
	defer func() {
		p.retire()
		if !returned {
			if r := recover(); r != nil {
				if _, ok := r.(procKilled); !ok {
					panic(r)
				}
			}
		}
	}()
	p.body(p)
	return true
}

// Done reports whether the process body has returned or been killed.
func (p *Proc) Done() bool { return p.done }

// Spawn creates a simulated process and schedules its body to start at the
// current simulated time. The body runs as a coroutine of whoever resumes it
// (the event loop or another process), strictly interleaved with the event
// loop, so no locking is needed between processes. A panic in the body marks
// the process done and surfaces from Step/RunUntil in the engine's caller.
func (e *Engine) Spawn(name string, body func(p *Proc)) *Proc {
	p := &Proc{eng: e, name: name, body: body, prev: e.liveTail}
	if p.prev != nil {
		p.prev.next = p
	} else {
		e.liveHead = p
	}
	e.liveTail = p
	e.procs++
	e.ScheduleArg(0, startProc, p)
	return p
}

// startProc is a process's start event: it gives the process a coroutine
// and switches into its body.
func startProc(a any) {
	p := a.(*Proc)
	if p.done {
		return // killed by Shutdown before it ever started
	}
	p.co = getCoro()
	p.co.p = p
	p.dispatch()
}

// retire marks the process finished and unlinks it from the live list.
func (p *Proc) retire() {
	e := p.eng
	p.done = true
	p.body, p.co = nil, nil
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
	c := p.co
	c.resume()
	if c.p == nil {
		putCoro(c) // the body returned and c has switched out
	}
}

// Park blocks the process until another event calls Unpark. It is the
// low-level primitive beneath Sleep and Signal.
func (p *Proc) Park() {
	p.parked = true
	if !p.co.yield(struct{}{}) {
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
	p.co.stop()
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
		case p.co == nil:
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
