package des

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"testing"
)

// orderGolden is the SHA-256 of the (now, proc, action) log orderProgram
// writes. It was computed on the commit whose Proc was a goroutine handed
// control over two unbuffered channels and whose queue was container/heap,
// so it pins the coroutine switch and the typed queue against that
// implementation and not against themselves. It changes only when the
// program below changes.
const orderGolden = "67bac7041e754c40059060956bd3680220d60dd9b5ecbdfaf82af7dc6a964450"

type orderState uint8

const (
	orderUnstarted orderState = iota
	orderRunning
	orderSleeping // parked with a wake-up event pending
	orderWaiting  // parked on a Signal
	orderIdle     // parked bare, listed in orderProgram.idle
	orderDone
)

// orderProgram is a seeded random process program. Every decision is drawn
// from one shared rng by whichever process or callback is running, so one
// event executed out of order changes every draw after it.
type orderProgram struct {
	e       *Engine
	rng     *rand.Rand
	h       hash.Hash
	lines   int
	sigs    [3]Signal
	procs   []*Proc
	state   []orderState
	idle    []int
	timers  []orderTimer
	nextTmr int
	closing bool // Shutdown has begun: unwinds are counted, not ordered
	unwound int
}

type orderTimer struct {
	id int
	ev *Event
}

func (w *orderProgram) log(id int, format string, args ...any) {
	fmt.Fprintf(w.h, "%d %d ", w.e.Now(), id)
	fmt.Fprintf(w.h, format, args...)
	w.h.Write([]byte{'\n'})
	w.lines++
}

func (w *orderProgram) spawn(steps int) int {
	id := len(w.procs)
	w.state = append(w.state, orderUnstarted)
	w.procs = append(w.procs, nil)
	w.procs[id] = w.e.Spawn(fmt.Sprintf("p%d", id), func(p *Proc) {
		w.state[id] = orderRunning
		w.log(id, "start")
		defer func() {
			w.state[id] = orderDone
			if w.closing {
				w.unwound++
				return
			}
			w.log(id, "exit")
		}()
		for s := 0; s < steps; s++ {
			w.step(p, id)
		}
	})
	return id
}

// takeIdle removes and returns a random bare-parked process, or -1.
func (w *orderProgram) takeIdle() int {
	if len(w.idle) == 0 {
		return -1
	}
	i := w.rng.Intn(len(w.idle))
	v := w.idle[i]
	w.idle = append(w.idle[:i], w.idle[i+1:]...)
	return v
}

// victim picks a random parked process other than self, or -1.
func (w *orderProgram) victim(self int) int {
	var parked []int
	for id, s := range w.state {
		if id != self && (s == orderSleeping || s == orderWaiting || s == orderIdle) {
			parked = append(parked, id)
		}
	}
	if len(parked) == 0 {
		return -1
	}
	return parked[w.rng.Intn(len(parked))]
}

func (w *orderProgram) kill(by int) {
	v := w.victim(by)
	if v < 0 {
		w.log(by, "kill none")
		return
	}
	if w.state[v] == orderIdle {
		for i, id := range w.idle {
			if id == v {
				w.idle = append(w.idle[:i], w.idle[i+1:]...)
				break
			}
		}
	}
	w.log(by, "kill %d", v)
	w.procs[v].Kill()
	w.log(by, "killed %d done=%v live=%d", v, w.procs[v].Done(), w.e.Live())
}

// release unparks a bare-parked process, inline or through an event.
func (w *orderProgram) release(by int) {
	v := w.takeIdle()
	if v < 0 {
		w.log(by, "release none")
		return
	}
	if w.rng.Intn(2) == 0 {
		w.log(by, "unpark %d", v)
		w.procs[v].Unpark()
		w.log(by, "unparked %d", v)
		return
	}
	d := Time(w.rng.Intn(3)) * Microsecond
	w.log(by, "unparklater %d %d", v, d)
	w.state[v] = orderSleeping
	w.procs[v].UnparkLater(d)
}

func (w *orderProgram) wake(by int) {
	k := w.rng.Intn(len(w.sigs))
	if w.rng.Intn(3) == 0 {
		w.log(by, "broadcast %d waiting=%d", k, w.sigs[k].Waiting())
		w.sigs[k].Broadcast()
		w.log(by, "broadcast %d done", k)
		return
	}
	w.log(by, "wake %d waiting=%d", k, w.sigs[k].Waiting())
	ok := w.sigs[k].Wake()
	w.log(by, "wake %d -> %v", k, ok)
}

func orderTimerFired(a any) { a.(func())() }

func (w *orderProgram) timer(by int) {
	id := w.nextTmr
	w.nextTmr++
	fire := func() {
		for i, t := range w.timers {
			if t.id == id {
				w.timers = append(w.timers[:i], w.timers[i+1:]...)
				break
			}
		}
		w.log(-2, "timer %d", id)
		if !w.closing && id%2 == 0 {
			w.wake(-2)
		}
	}
	d := Time(w.rng.Intn(6)) * Microsecond
	w.log(by, "timer %d in %d", id, d)
	var ev *Event
	if id%3 == 0 {
		ev = w.e.ScheduleArg(d, orderTimerFired, fire)
	} else {
		ev = w.e.Schedule(d, fire)
	}
	w.timers = append(w.timers, orderTimer{id, ev})
}

func (w *orderProgram) cancel(by int) {
	if len(w.timers) == 0 {
		w.log(by, "cancel none")
		return
	}
	i := w.rng.Intn(len(w.timers))
	t := w.timers[i]
	w.timers = append(w.timers[:i], w.timers[i+1:]...)
	w.log(by, "cancel %d at=%d scheduled=%v", t.id, t.ev.At(), t.ev.Scheduled())
	w.e.Cancel(t.ev)
	w.log(by, "cancelled %d scheduled=%v pending=%d", t.id, t.ev.Scheduled(), w.e.Pending())
}

func (w *orderProgram) step(p *Proc, id int) {
	switch r := w.rng.Intn(100); {
	case r < 30:
		d := Time(w.rng.Intn(4)) * Microsecond // zero one time in four
		w.log(id, "sleep %d", d)
		w.state[id] = orderSleeping
		p.Sleep(d)
		w.state[id] = orderRunning
		w.log(id, "slept")
	case r < 45:
		k := w.rng.Intn(len(w.sigs))
		w.log(id, "wait %d", k)
		w.state[id] = orderWaiting
		w.sigs[k].Wait(p)
		w.state[id] = orderRunning
		w.log(id, "released %d", k)
	case r < 58:
		w.wake(id)
	case r < 68:
		w.log(id, "park")
		w.idle = append(w.idle, id)
		w.state[id] = orderIdle
		p.Park()
		w.state[id] = orderRunning
		w.log(id, "resumed")
	case r < 80:
		w.release(id)
	case r < 87:
		w.timer(id)
	case r < 91:
		w.cancel(id)
	case r < 92:
		w.kill(id)
	default:
		if len(w.procs) < 48 {
			c := w.spawn(40 + w.rng.Intn(40))
			w.log(id, "spawn %d", c)
		}
	}
}

// tick is the engine-context actor: it keeps parked processes moving and
// does from a callback what step does from a process.
func (w *orderProgram) tick(n int) {
	if w.closing {
		return
	}
	w.log(-1, "tick %d pending=%d live=%d", n, w.e.Pending(), w.e.Live())
	switch r := w.rng.Intn(20); {
	case r < 10:
		w.wake(-1)
	case r < 16:
		w.release(-1)
	case r < 17:
		w.kill(-1)
	default:
		w.cancel(-1)
	}
	if n > 0 {
		w.e.Schedule(Microsecond, func() { w.tick(n - 1) })
	}
}

// run executes one seeded round on e and leaves it shut down.
func (w *orderProgram) run(seed int64, limit Time) {
	w.rng = rand.New(rand.NewSource(seed))
	w.sigs = [3]Signal{}
	w.procs, w.state, w.idle, w.timers = nil, nil, nil, nil
	w.closing, w.unwound = false, 0
	for i := 0; i < 16; i++ {
		w.spawn(150 + w.rng.Intn(100))
	}
	w.e.Schedule(0, func() { w.tick(100) })
	w.e.RunUntil(limit)
	// Two processes spawned now never start: Shutdown retires them
	// without running a line of their bodies.
	w.spawn(5)
	w.spawn(5)
	sleepers := 0
	for _, s := range w.state {
		if s == orderSleeping {
			sleepers++
		}
	}
	w.log(-1, "shutdown live=%d sleepers=%d pending=%d", w.e.Live(), sleepers, w.e.Pending())
	w.closing = true
	w.e.Shutdown()
	w.log(-1, "shut unwound=%d live=%d", w.unwound, w.e.Live())
	w.e.Run() // stale wake-ups and late timers must be harmless
	w.log(-1, "drained processed=%d", w.e.Processed())
}

// TestEventOrderGolden runs the random process program over three seeds on
// one engine (Reset between rounds) and compares the log's hash with the one
// the channel-switched engine produced.
func TestEventOrderGolden(t *testing.T) {
	w := &orderProgram{e: NewEngine(), h: sha256.New()}
	for round, seed := range []int64{1, 20051, 777} {
		if round > 0 {
			w.e.Reset()
		}
		w.run(seed, 40*Microsecond)
	}
	got := hex.EncodeToString(w.h.Sum(nil))
	t.Logf("%d log lines, digest %s", w.lines, got)
	if w.lines < 5000 {
		t.Errorf("program logged only %d lines; it no longer exercises the engine", w.lines)
	}
	if got != orderGolden {
		t.Errorf("event order diverged from the channel-switched engine:\n got %s\nwant %s", got, orderGolden)
	}
}
