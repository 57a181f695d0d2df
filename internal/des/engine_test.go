package des

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.Schedule(3*Second, func() { got = append(got, 3) })
	e.Schedule(1*Second, func() { got = append(got, 1) })
	e.Schedule(2*Second, func() { got = append(got, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 3*Second {
		t.Fatalf("Now = %v, want 3s", e.Now())
	}
}

func TestEqualTimeFIFO(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		e.Schedule(Second, func() { got = append(got, i) })
	}
	e.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("equal-time events fired out of order: %v", got[:i+1])
		}
	}
}

func TestCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.Schedule(Second, func() { fired = true })
	if !ev.Scheduled() {
		t.Fatal("event not scheduled")
	}
	e.Cancel(ev)
	if ev.Scheduled() {
		t.Fatal("event still scheduled after cancel")
	}
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	e.Cancel(ev) // double cancel is a no-op
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	var fired []Time
	for _, d := range []Time{Second, 2 * Second, 3 * Second} {
		d := d
		e.Schedule(d, func() { fired = append(fired, d) })
	}
	e.RunUntil(2 * Second)
	if len(fired) != 2 {
		t.Fatalf("fired %d events, want 2", len(fired))
	}
	if e.Now() != 2*Second {
		t.Fatalf("Now = %v, want 2s", e.Now())
	}
	e.RunUntil(10 * Second)
	if len(fired) != 3 {
		t.Fatalf("fired %d events, want 3", len(fired))
	}
	if e.Now() != 10*Second {
		t.Fatalf("Now = %v, want 10s", e.Now())
	}
}

func TestNestedScheduling(t *testing.T) {
	e := NewEngine()
	depth := 0
	var schedule func()
	schedule = func() {
		depth++
		if depth < 50 {
			e.Schedule(Millisecond, schedule)
		}
	}
	e.Schedule(0, schedule)
	e.Run()
	if depth != 50 {
		t.Fatalf("depth = %d, want 50", depth)
	}
	if e.Now() != 49*Millisecond {
		t.Fatalf("Now = %v, want 49ms", e.Now())
	}
}

func TestSleepAndInterleave(t *testing.T) {
	e := NewEngine()
	var log []string
	e.Spawn("a", func(p *Proc) {
		p.Sleep(1 * Second)
		log = append(log, "a1")
		p.Sleep(2 * Second)
		log = append(log, "a3")
	})
	e.Spawn("b", func(p *Proc) {
		p.Sleep(2 * Second)
		log = append(log, "b2")
		p.Sleep(2 * Second)
		log = append(log, "b4")
	})
	e.Run()
	want := []string{"a1", "b2", "a3", "b4"}
	if len(log) != len(want) {
		t.Fatalf("log = %v", log)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("log = %v, want %v", log, want)
		}
	}
	if e.Live() != 0 {
		t.Fatalf("Live = %d after Run", e.Live())
	}
}

func TestSignalWakeOrder(t *testing.T) {
	e := NewEngine()
	var sig Signal
	var log []int
	for i := 0; i < 5; i++ {
		i := i
		e.Spawn("w", func(p *Proc) {
			p.Sleep(Time(i) * Millisecond) // deterministic arrival order
			sig.Wait(p)
			log = append(log, i)
		})
	}
	e.Schedule(Second, func() { sig.Broadcast() })
	e.Run()
	for i := range log {
		if log[i] != i {
			t.Fatalf("wake order = %v, want FIFO", log)
		}
	}
}

func TestSignalWakeOne(t *testing.T) {
	e := NewEngine()
	var sig Signal
	woken := 0
	for i := 0; i < 3; i++ {
		e.Spawn("w", func(p *Proc) {
			sig.Wait(p)
			woken++
		})
	}
	e.Schedule(Second, func() {
		if !sig.Wake() {
			t.Error("Wake found no waiter")
		}
	})
	e.RunUntil(2 * Second)
	if woken != 1 {
		t.Fatalf("woken = %d, want 1", woken)
	}
	if sig.Waiting() != 2 {
		t.Fatalf("Waiting = %d, want 2", sig.Waiting())
	}
	e.Shutdown()
	if e.Live() != 0 {
		t.Fatalf("Live = %d after Shutdown", e.Live())
	}
}

func TestKillRunsDefers(t *testing.T) {
	e := NewEngine()
	cleaned := false
	p := e.Spawn("victim", func(p *Proc) {
		defer func() { cleaned = true }()
		for {
			p.Sleep(Second)
		}
	})
	e.RunUntil(10 * Second)
	if p.Done() {
		t.Fatal("proc finished prematurely")
	}
	e.Shutdown()
	if !cleaned {
		t.Fatal("deferred cleanup did not run on Kill")
	}
	if !p.Done() {
		t.Fatal("proc not done after Kill")
	}
	// Stale wake-up event for the killed proc must be harmless.
	e.RunUntil(20 * Second)
}

func TestSpawnDeterminism(t *testing.T) {
	run := func(seed int64) []int {
		e := NewEngine()
		rng := rand.New(rand.NewSource(seed))
		var log []int
		for i := 0; i < 20; i++ {
			i := i
			d := Time(rng.Intn(1000)) * Millisecond
			e.Spawn("p", func(p *Proc) {
				p.Sleep(d)
				log = append(log, i)
			})
		}
		e.Run()
		return log
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %v vs %v", i, a, b)
		}
	}
}

// Property: events always fire in nondecreasing time order regardless of the
// insertion order of their delays.
func TestQuickEventOrdering(t *testing.T) {
	prop := func(delays []uint32) bool {
		if len(delays) > 200 {
			delays = delays[:200]
		}
		e := NewEngine()
		var fired []Time
		for _, d := range delays {
			dd := Time(d % 1e6)
			e.Schedule(dd*Microsecond, func() { fired = append(fired, e.Now()) })
		}
		e.Run()
		if len(fired) != len(delays) {
			return false
		}
		return sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] })
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: FromSeconds and Seconds round-trip within float tolerance.
func TestQuickTimeRoundTrip(t *testing.T) {
	prop := func(ms uint32) bool {
		s := float64(ms) / 1000.0
		got := FromSeconds(s).Seconds()
		diff := got - s
		if diff < 0 {
			diff = -diff
		}
		return diff < 1e-9*(1+s)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFromSecondsClamps(t *testing.T) {
	if FromSeconds(-5) != 0 {
		t.Fatal("negative seconds must clamp to 0")
	}
	if FromSeconds(1e30) != MaxTime {
		t.Fatal("huge seconds must clamp to MaxTime")
	}
}

func BenchmarkScheduleRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		for j := 0; j < 1000; j++ {
			e.Schedule(Time(j)*Microsecond, func() {})
		}
		e.Run()
	}
}

func BenchmarkProcContextSwitch(b *testing.B) {
	e := NewEngine()
	e.Spawn("switcher", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(Microsecond)
		}
	})
	b.ResetTimer()
	e.Run()
}

// BenchmarkProcToProcSwitch measures the nested case: one process unparks
// another inline and gets control back when it parks again — two switches
// per iteration, neither through the event loop.
func BenchmarkProcToProcSwitch(b *testing.B) {
	e := NewEngine()
	pong := e.Spawn("pong", func(p *Proc) {
		for {
			p.Park()
		}
	})
	e.Spawn("ping", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			pong.Unpark()
		}
	})
	b.ResetTimer()
	e.Run()
	b.StopTimer()
	e.Shutdown()
}

// BenchmarkEventQueueHold is the hold model: with a fixed number of events
// pending, pop the earliest and schedule one more at a random distance.
func BenchmarkEventQueueHold(b *testing.B) {
	for _, pending := range []int{1 << 10, 1 << 16} {
		b.Run(fmt.Sprintf("pending=%d", pending), func(b *testing.B) {
			e := NewEngine()
			rng := rand.New(rand.NewSource(1))
			delays := make([]Time, 1<<12)
			for i := range delays {
				delays[i] = Time(1+rng.Intn(1000)) * Microsecond
			}
			k := 0
			var hold func()
			hold = func() {
				k++
				e.Schedule(delays[k%len(delays)], hold)
			}
			for i := 0; i < pending; i++ {
				e.Schedule(delays[i%len(delays)], hold)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Step(MaxTime)
			}
		})
	}
}
