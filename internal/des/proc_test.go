package des

import (
	"container/heap"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// TestProcPanicSurfacesFromStep: a panic in a process body is re-raised on
// the goroutine driving the engine, with its value intact, and leaves an
// engine that can still be run, shut down and reset.
func TestProcPanicSurfacesFromStep(t *testing.T) {
	e := NewEngine()
	unwound := false
	sleeper := e.Spawn("sleeper", func(p *Proc) {
		defer func() { unwound = true }()
		p.Sleep(10 * Second)
	})
	boom := fmt.Errorf("boom")
	bad := e.Spawn("bad", func(p *Proc) {
		p.Sleep(Second)
		panic(boom)
	})

	var got any
	func() {
		defer func() { got = recover() }()
		e.RunUntil(5 * Second)
	}()
	if got != boom {
		t.Fatalf("RunUntil panicked with %v, want the process's own value %v", got, boom)
	}
	if !bad.Done() || e.Live() != 1 {
		t.Fatalf("panicked proc done=%v, Live=%d; want done and only the sleeper live", bad.Done(), e.Live())
	}
	if e.Now() != Second {
		t.Fatalf("Now = %v, want the instant of the panic", e.Now())
	}
	e.RunUntil(2 * Second) // running is cleared: no "called reentrantly"
	if sleeper.Done() {
		t.Fatal("sleeper finished early")
	}
	e.Shutdown()
	if !unwound || !sleeper.Done() || e.Live() != 0 {
		t.Fatalf("after Shutdown: unwound=%v done=%v Live=%d", unwound, sleeper.Done(), e.Live())
	}
	e.Reset()
	ran := false
	e.Spawn("after", func(p *Proc) { ran = true })
	e.Run()
	if !ran {
		t.Fatal("engine unusable after a process panic")
	}
}

// TestProcPanicCrossesNestedUnpark: the panic of a process resumed inline by
// another arrives in the resumer's body, where it can be recovered.
func TestProcPanicCrossesNestedUnpark(t *testing.T) {
	e := NewEngine()
	inner := e.Spawn("inner", func(p *Proc) {
		p.Park()
		panic("inner failed")
	})
	var got any
	e.Spawn("outer", func(p *Proc) {
		defer func() { got = recover() }()
		inner.Unpark()
	})
	e.Run()
	if got != "inner failed" || !inner.Done() || e.Live() != 0 {
		t.Fatalf("outer recovered %v, inner done=%v, Live=%d", got, inner.Done(), e.Live())
	}
}

// TestShutdownUnwindsInSpawnOrder: killed bodies run their deferred
// functions oldest first, identically on every run (the live set was once a
// map, and the order changed run to run).
func TestShutdownUnwindsInSpawnOrder(t *testing.T) {
	run := func() string {
		e := NewEngine()
		var log strings.Builder
		for i := 0; i < 40; i++ {
			i := i
			e.Spawn("p", func(p *Proc) {
				defer func() { fmt.Fprintf(&log, "%d ", i) }()
				if i%3 == 0 {
					return // leaves the live list from the middle
				}
				p.Sleep(Time(40-i) * Second)
			})
		}
		e.RunUntil(20 * Second) // the sleepers spawned last have woken and exited
		e.Spawn("late", func(p *Proc) { log.WriteString("late ran") })
		e.Shutdown()
		if e.Live() != 0 {
			t.Fatalf("Live = %d after Shutdown", e.Live())
		}
		return log.String()
	}
	first := run()
	var want strings.Builder
	for i := 0; i < 40; i += 3 {
		fmt.Fprintf(&want, "%d ", i) // returned at once, at time zero
	}
	for i := 38; i >= 20; i-- {
		if i%3 != 0 {
			fmt.Fprintf(&want, "%d ", i) // slept 40-i <= 20 s
		}
	}
	for i := 1; i < 20; i++ {
		if i%3 != 0 {
			fmt.Fprintf(&want, "%d ", i) // killed by Shutdown, oldest first
		}
	}
	if first != want.String() {
		t.Fatalf("unwind log\n got %s\nwant %s", first, want.String())
	}
	for i := 1; i < 20; i++ {
		if again := run(); again != first {
			t.Fatalf("run %d unwound in a different order:\n%s\n%s", i, again, first)
		}
	}
}

// TestBroadcastManyWaiters releases 10 000 waiters in arrival order. With a
// wake that shifted the whole slice this was 50 M pointer moves.
func TestBroadcastManyWaiters(t *testing.T) {
	const n = 10000
	e := NewEngine()
	var sig Signal
	order := make([]int, 0, n)
	for i := 0; i < n; i++ {
		i := i
		e.Spawn("w", func(p *Proc) {
			sig.Wait(p)
			order = append(order, i)
		})
	}
	e.Run()
	if sig.Waiting() != n {
		t.Fatalf("Waiting = %d, want %d", sig.Waiting(), n)
	}
	sig.Broadcast()
	if sig.Waiting() != 0 || e.Live() != 0 {
		t.Fatalf("after Broadcast: Waiting=%d Live=%d", sig.Waiting(), e.Live())
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("waiter %d released at position %d", got, i)
		}
	}
	if len(order) != n {
		t.Fatalf("released %d waiters, want %d", len(order), n)
	}
}

// oracleHeap is the queue the engine used to have: container/heap over the
// same (at, seq) order, keeping Event.index the same way.
type oracleHeap []*Event

func (h oracleHeap) Len() int           { return len(h) }
func (h oracleHeap) Less(i, j int) bool { return h[i].before(h[j]) }
func (h oracleHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *oracleHeap) Push(x any) {
	e := x.(*Event)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *oracleHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*h = old[:n-1]
	return e
}

// TestQuickQueueMatchesContainerHeap drives the typed queue and the oracle
// with the same random pushes, cancels by handle and pops: same pop order,
// same index on every handle after every operation, Scheduled agreeing.
func TestQuickQueueMatchesContainerHeap(t *testing.T) {
	prop := func(seed int64, opsHint uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		var q eventQueue
		var o oracleHeap
		var mine, theirs []*Event // handles, pairwise the same (at, seq)
		var seq uint64
		agree := func() bool {
			if len(q) != len(o) {
				return false
			}
			for i := range mine {
				if mine[i].index != theirs[i].index || mine[i].Scheduled() != theirs[i].Scheduled() {
					return false
				}
				if mine[i].index >= 0 && q[mine[i].index] != mine[i] {
					return false
				}
			}
			return true
		}
		for op := 0; op < 50+int(opsHint)%400; op++ {
			switch r := rng.Intn(10); {
			case r < 5 || len(q) == 0:
				seq++
				at := Time(rng.Intn(20)) // few distinct times: seq breaks most ties
				a, b := &Event{at: at, seq: seq}, &Event{at: at, seq: seq}
				q = append(q, a)
				q.up(a, len(q)-1)
				heap.Push(&o, b)
				mine, theirs = append(mine, a), append(theirs, b)
			case r < 7:
				i := rng.Intn(len(mine))
				if mine[i].index < 0 {
					continue // already popped or cancelled: Cancel's no-op
				}
				q.remove(mine[i].index)
				heap.Remove(&o, theirs[i].index)
			default:
				a, b := q[0], o[0]
				if a.at != b.at || a.seq != b.seq {
					return false
				}
				q.remove(0)
				heap.Pop(&o)
			}
			if !agree() {
				return false
			}
		}
		var popped []uint64
		for len(q) > 0 {
			popped = append(popped, q[0].seq)
			q.remove(0)
		}
		var want []uint64
		for len(o) > 0 {
			want = append(want, heap.Pop(&o).(*Event).seq)
		}
		return reflect.DeepEqual(popped, want) && agree()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
