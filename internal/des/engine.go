// Package des implements a deterministic discrete-event simulation engine
// with coroutine-style simulated processes.
//
// The engine is the foundation of the virtual-cluster substrate that stands
// in for the paper's physical Centurion and Orange Grove clusters: network
// transfers, CPU bursts, monitoring daemons, and background-load changes are
// all events on a single totally-ordered timeline.
//
// Determinism: events at equal timestamps fire in scheduling order (a strict
// FIFO tie-break), and at most one simulated process executes at any moment,
// so a run with a fixed seed is exactly reproducible.
package des

import (
	"fmt"
	"math"
	"time"
)

// Time is a simulated timestamp in nanoseconds since the start of the run.
type Time int64

// Common durations in simulated time.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// MaxTime is the largest representable simulated timestamp.
const MaxTime Time = math.MaxInt64

// Seconds converts a simulated timestamp to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Duration converts a simulated timestamp to a time.Duration.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// FromSeconds converts floating-point seconds to a simulated duration,
// saturating at MaxTime. Negative inputs are clamped to zero.
func FromSeconds(s float64) Time {
	if s <= 0 {
		return 0
	}
	f := s * float64(Second)
	if f >= float64(math.MaxInt64) {
		return MaxTime
	}
	return Time(f)
}

// String formats the timestamp as seconds with microsecond precision.
func (t Time) String() string { return fmt.Sprintf("%.6fs", t.Seconds()) }

// Event is a scheduled callback. The zero value is invalid; obtain events
// through Engine.Schedule or Engine.ScheduleAt.
//
// Fired and cancelled events are recycled through the engine's free list,
// so a retained *Event handle is only meaningful while the caller knows the
// event has not yet fired: once it fires (or is cancelled) the same Event
// may be handed out again by a later Schedule call. Every in-tree caller
// that retains a handle (e.g. vcluster's CPU completion event) clears it
// before or at fire time, which is the pattern new callers must follow.
type Event struct {
	at    Time
	seq   uint64
	index int // heap index; -1 when not queued
	fn    func()
	// afn/arg is the allocation-lean callback form: a package-level (or
	// otherwise pre-existing) function plus one argument, avoiding the
	// closure allocation of fn on hot paths.
	afn func(any)
	arg any
}

// At reports the simulated time at which the event will fire.
func (e *Event) At() Time { return e.at }

// Scheduled reports whether the event is still pending in the queue.
func (e *Event) Scheduled() bool { return e != nil && e.index >= 0 }

// before is the queue order: time, then scheduling sequence. Sequence numbers
// are unique, so the order is total and independent of the heap's layout.
func (e *Event) before(o *Event) bool {
	return e.at < o.at || (e.at == o.at && e.seq < o.seq)
}

// eventQueue is a binary min-heap on Event.before. Sifting moves a hole
// instead of swapping, and every move stamps the event's index in place.
type eventQueue []*Event

// up places ev at or above the hole i.
func (q eventQueue) up(ev *Event, i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !ev.before(q[parent]) {
			break
		}
		q[i] = q[parent]
		q[i].index = i
		i = parent
	}
	q[i] = ev
	ev.index = i
}

// down places ev at or below the hole i.
func (q eventQueue) down(ev *Event, i int) {
	for {
		child := 2*i + 1
		if child >= len(q) {
			break
		}
		if r := child + 1; r < len(q) && q[r].before(q[child]) {
			child = r
		}
		if !q[child].before(ev) {
			break
		}
		q[i] = q[child]
		q[i].index = i
		i = child
	}
	q[i] = ev
	ev.index = i
}

// remove takes the event at index i out of the queue; the last event fills
// the hole and sinks or rises to its place.
func (q *eventQueue) remove(i int) {
	old := *q
	n := len(old) - 1
	old[i].index = -1
	last := old[n]
	old[n] = nil
	*q = old[:n]
	if i < n {
		q.down(last, i)
		if last.index == i {
			q.up(last, i)
		}
	}
}

// Engine is a discrete-event simulation kernel. It is not safe for
// concurrent use from multiple goroutines; simulated processes appear
// concurrent but are interleaved one at a time by the engine.
type Engine struct {
	now     Time
	queue   eventQueue
	seq     uint64
	running bool
	procs   int // live simulated processes (diagnostics)
	events  uint64
	// Live processes in spawn order (Proc.prev/next); Shutdown's kill order.
	liveHead, liveTail *Proc
	// free is the event free list: fired and cancelled events are recycled
	// here instead of being released to the garbage collector. The list is
	// bounded by the maximum number of simultaneously pending events, and
	// Reset keeps it warm across runs.
	free   []*Event
	reused uint64
}

// NewEngine returns an engine positioned at time zero with an empty queue.
func NewEngine() *Engine { return &Engine{} }

// Now reports the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Pending reports the number of events currently queued.
func (e *Engine) Pending() int { return len(e.queue) }

// Processed reports the total number of events executed so far.
func (e *Engine) Processed() uint64 { return e.events }

// FreeEvents reports the current size of the event free list (diagnostics
// and pooling tests).
func (e *Engine) FreeEvents() int { return len(e.free) }

// ReusedEvents reports how many Schedule calls were satisfied from the
// free list instead of allocating.
func (e *Engine) ReusedEvents() uint64 { return e.reused }

// alloc hands out an event, recycled when possible.
func (e *Engine) alloc() *Event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		e.reused++
		return ev
	}
	return &Event{}
}

// recycle clears an event that will never fire again and returns it to the
// free list.
func (e *Engine) recycle(ev *Event) {
	ev.fn = nil
	ev.afn = nil
	ev.arg = nil
	ev.index = -1
	e.free = append(e.free, ev)
}

// Reset returns the engine to its initial state — time zero, empty queue,
// zero sequence counter — while keeping the event free list warm, so one
// engine can be reused across independent simulation runs without
// re-allocating its event population. All simulated processes must have
// finished (call Shutdown first); pending events are discarded without
// firing. A reset engine behaves identically to a freshly constructed one.
func (e *Engine) Reset() {
	if e.running {
		panic("des: Reset of a running engine")
	}
	if e.procs > 0 {
		panic("des: Reset with live processes; call Shutdown first")
	}
	for _, ev := range e.queue {
		e.recycle(ev)
	}
	e.queue = e.queue[:0]
	e.now = 0
	e.seq = 0
	e.events = 0
}

// Schedule queues fn to run after the given delay (clamped to >= 0) and
// returns a handle that can be cancelled.
func (e *Engine) Schedule(delay Time, fn func()) *Event {
	if delay < 0 {
		delay = 0
	}
	return e.ScheduleAt(e.now+delay, fn)
}

// ScheduleAt queues fn to run at the absolute simulated time at. Times in
// the past are clamped to the current time.
func (e *Engine) ScheduleAt(at Time, fn func()) *Event {
	if fn == nil {
		panic("des: ScheduleAt with nil callback")
	}
	ev := e.alloc()
	ev.fn = fn
	e.push(ev, at)
	return ev
}

// ScheduleArg queues fn(arg) to run after the given delay. It is the
// allocation-lean form of Schedule: when fn is a package-level function the
// call allocates nothing beyond the (recycled) event, where a closure
// capturing the same state would allocate on every call.
func (e *Engine) ScheduleArg(delay Time, fn func(any), arg any) *Event {
	if delay < 0 {
		delay = 0
	}
	return e.ScheduleArgAt(e.now+delay, fn, arg)
}

// ScheduleArgAt queues fn(arg) to run at the absolute simulated time at.
func (e *Engine) ScheduleArgAt(at Time, fn func(any), arg any) *Event {
	if fn == nil {
		panic("des: ScheduleArgAt with nil callback")
	}
	ev := e.alloc()
	ev.afn = fn
	ev.arg = arg
	e.push(ev, at)
	return ev
}

// push stamps the event's time and sequence number and inserts it.
func (e *Engine) push(ev *Event, at Time) {
	if at < e.now {
		at = e.now
	}
	e.seq++
	ev.at = at
	ev.seq = e.seq
	e.queue = append(e.queue, ev)
	e.queue.up(ev, len(e.queue)-1)
}

// Cancel removes a pending event from the queue. Cancelling an event that
// already fired (or was already cancelled) is a no-op.
func (e *Engine) Cancel(ev *Event) {
	if ev == nil || ev.index < 0 {
		return
	}
	e.queue.remove(ev.index)
	e.recycle(ev)
}

// Step executes the earliest pending event if its timestamp is <= limit.
// It reports false when the queue is empty or the next event lies beyond
// limit. It allows callers to run the simulation until an external
// condition (e.g. "all application ranks finished") becomes true while
// daemon processes keep the queue non-empty.
func (e *Engine) Step(limit Time) bool { return e.step(limit) }

// step executes the earliest pending event. It reports false when the queue
// is empty or the next event lies beyond limit.
func (e *Engine) step(limit Time) bool {
	if len(e.queue) == 0 {
		return false
	}
	next := e.queue[0]
	if next.at > limit {
		return false
	}
	e.queue.remove(0)
	if next.at > e.now {
		e.now = next.at
	}
	// Capture the callback, then recycle the event *before* invoking it so
	// any events the callback schedules can reuse this one immediately.
	fn, afn, arg := next.fn, next.afn, next.arg
	e.recycle(next)
	e.events++
	if fn != nil {
		fn()
	} else {
		afn(arg)
	}
	return true
}

// Run executes events until the queue drains.
func (e *Engine) Run() { e.RunUntil(MaxTime) }

// RunUntil executes events with timestamps <= limit and then advances the
// clock to limit (if the clock has not already passed it).
func (e *Engine) RunUntil(limit Time) {
	if e.running {
		panic("des: Engine.Run called reentrantly")
	}
	e.running = true
	defer func() { e.running = false }()
	for e.step(limit) {
	}
	if limit < MaxTime && e.now < limit {
		e.now = limit
	}
}
