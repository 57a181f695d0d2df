// Package vcluster animates a static cluster.Topology into a virtual
// cluster: per-node processor-sharing CPUs with background load, the
// substrate on which MPI-like applications execute and against which the
// CBES monitoring infrastructure takes measurements.
//
// This package (together with internal/simnet) is the substitution for the
// paper's physical Centurion and Orange Grove machines: it is deliberately
// richer than the CBES analytic model (timesharing, multi-core sharing,
// time-varying background load), so that CBES predictions carry genuine
// error, as they do against real hardware.
package vcluster

import (
	"fmt"
	"math"

	"cbes/internal/des"
)

// minAvailability is the floor on CPU availability: even a thrashing node
// makes some progress, and the CBES formula divides by ACPU.
const minAvailability = 0.02

// workEpsilon is the residual work below which a task counts as finished
// (guards against floating-point dust when several tasks end together).
const workEpsilon = 1e-9

// cpuTask is one process burst executing on a CPU. Finished tasks are
// recycled through the CPU's free list, so a *cpuTask is only valid while it
// sits in CPU.tasks.
type cpuTask struct {
	remaining float64 // reference-seconds of work left
	rate      float64 // reference-seconds executed per dedicated-core second
	proc      *des.Proc
	cpu       *CPU   // owner, for the pooled completion callback
	seq       uint64 // admission order; deterministic tie-break
}

// completeTask is the package-level completion callback: together with
// des.ScheduleArg it replaces the per-reschedule closure allocation.
func completeTask(a any) {
	t := a.(*cpuTask)
	t.cpu.complete(t)
}

// CPU models one node's processors as an egalitarian processor-sharing
// queue: n concurrent tasks on c cores each progress at
// rate · availability · min(1, c/n).
//
// Background (non-application) load is expressed as reduced availability:
// availability a means every core has only fraction a left for application
// tasks, exactly the quantity the paper's ACPU monitoring reports.
type CPU struct {
	eng   *des.Engine
	node  int // node ID
	cores int // the node's processor count
	avail float64
	// down marks a crashed node: tasks freeze (no progress, no completion
	// events) and sensors read zero availability until Recover.
	down bool
	// tasks is kept in admission order: a slice (not a map) so that
	// advance()'s floating-point accumulation visits tasks in a
	// deterministic order and per-burst bookkeeping stays allocation-free.
	tasks      []*cpuTask
	freeTasks  []*cpuTask // recycled bursts
	taskSeq    uint64
	completion *des.Event
	lastTouch  des.Time
	// busyRefSeconds accumulates executed work for utilization metrics.
	busyRefSeconds float64
}

// Availability reports the fraction of each core not consumed by background
// load (the ground truth the monitoring sensors sample). A crashed node
// reports zero.
func (c *CPU) Availability() float64 {
	if c.down {
		return 0
	}
	return c.avail
}

// Down reports whether the node is crashed.
func (c *CPU) Down() bool { return c.down }

// Crash takes the node down: running tasks freeze in place (they resume
// from their residual work on Recover, modelling processes hung on a dead
// node rather than killed), and no new completions fire. Must be called
// from engine context.
func (c *CPU) Crash() {
	if c.down {
		return
	}
	c.advance()
	c.down = true
	c.reschedule()
}

// Recover brings a crashed node back at its configured availability;
// frozen tasks resume. Must be called from engine context.
func (c *CPU) Recover() {
	if !c.down {
		return
	}
	c.advance() // zero progress accrues while down; stamps lastTouch
	c.down = false
	c.reschedule()
}

// AvailableToNewTask reports the CPU share a newly arriving task would
// receive, accounting for both background load and tasks already running —
// the quantity an NWS-style CPU sensor measures and the ACPU_j term of
// eq. 5.
func (c *CPU) AvailableToNewTask() float64 {
	if c.down {
		return 0
	}
	n := len(c.tasks) + 1
	return c.avail * math.Min(1, float64(c.cores)/float64(n))
}

// BusyRefSeconds reports the cumulative reference-seconds of application
// work this CPU has executed.
func (c *CPU) BusyRefSeconds() float64 {
	c.advance()
	return c.busyRefSeconds
}

// SetAvailability changes the background-load level. It must be called from
// engine context (an event callback or a simulated process).
func (c *CPU) SetAvailability(a float64) {
	if a < minAvailability {
		a = minAvailability
	}
	if a > 1 {
		a = 1
	}
	c.advance()
	c.avail = a
	c.reschedule()
}

// share is the per-task fraction of a dedicated core. Zero while the node
// is down: tasks make no progress and reschedule() arms no completion.
func (c *CPU) share() float64 {
	n := len(c.tasks)
	if n == 0 || c.down {
		return 0
	}
	return c.avail * math.Min(1, float64(c.cores)/float64(n))
}

// advance applies progress accrued since the last state change.
func (c *CPU) advance() {
	now := c.eng.Now()
	dt := (now - c.lastTouch).Seconds()
	c.lastTouch = now
	if dt <= 0 || len(c.tasks) == 0 {
		return
	}
	sh := c.share()
	for _, t := range c.tasks {
		done := t.rate * sh * dt
		if done > t.remaining {
			done = t.remaining
		}
		t.remaining -= done
		c.busyRefSeconds += done
	}
}

// reschedule recomputes the earliest task completion and (re)schedules the
// completion event.
func (c *CPU) reschedule() {
	if c.completion != nil {
		c.eng.Cancel(c.completion)
		c.completion = nil
	}
	if len(c.tasks) == 0 {
		return
	}
	sh := c.share()
	if sh == 0 {
		// Down node: tasks are frozen, no completion to arm until Recover.
		return
	}
	var next *cpuTask
	eta := math.Inf(1)
	for _, t := range c.tasks {
		e := t.remaining / (t.rate * sh)
		if e < eta || (e == eta && (next == nil || t.seq < next.seq)) {
			eta = e
			next = t
		}
	}
	// Round the wake-up up by one tick: FromSeconds truncates, and an event
	// that fires a hair early would make no progress and reschedule itself
	// forever. advance() clamps the 1 ns overshoot to the remaining work.
	c.completion = c.eng.ScheduleArg(des.FromSeconds(eta)+1, completeTask, next)
}

func (c *CPU) complete(t *cpuTask) {
	c.completion = nil
	c.advance()
	if t.remaining > workEpsilon {
		// Rounding left a sliver (or state changed at the same instant);
		// keep executing.
		c.reschedule()
		return
	}
	for i, x := range c.tasks {
		if x == t {
			copy(c.tasks[i:], c.tasks[i+1:])
			c.tasks[len(c.tasks)-1] = nil
			c.tasks = c.tasks[:len(c.tasks)-1]
			break
		}
	}
	c.reschedule()
	p := t.proc
	t.proc = nil
	t.cpu = nil
	c.freeTasks = append(c.freeTasks, t)
	p.Unpark()
}

// Compute blocks the calling process while it executes `work`
// reference-seconds at the given rate (reference-seconds of work retired
// per second of dedicated core). The elapsed simulated time depends on
// sharing and availability; the caller measures it with proc timestamps.
func (c *CPU) Compute(p *des.Proc, work, rate float64) {
	if work <= 0 {
		return
	}
	if rate <= 0 {
		panic(fmt.Sprintf("vcluster: Compute with rate %v on node %d", rate, c.node))
	}
	c.advance()
	c.taskSeq++
	var t *cpuTask
	if n := len(c.freeTasks); n > 0 {
		t = c.freeTasks[n-1]
		c.freeTasks[n-1] = nil
		c.freeTasks = c.freeTasks[:n-1]
	} else {
		t = &cpuTask{}
	}
	t.remaining, t.rate, t.proc, t.cpu, t.seq = work, rate, p, c, c.taskSeq
	c.tasks = append(c.tasks, t)
	c.reschedule()
	p.Park()
}
