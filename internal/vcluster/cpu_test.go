package vcluster

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"cbes/internal/cluster"
	"cbes/internal/des"
)

func newTestCluster() (*des.Engine, *Cluster) {
	eng := des.NewEngine()
	return eng, New(eng, cluster.NewTestTopology())
}

func TestComputeSingleTask(t *testing.T) {
	eng, vc := newTestCluster()
	var elapsed des.Time
	eng.Spawn("w", func(p *des.Proc) {
		start := p.Now()
		vc.CPU(0).Compute(p, 2.0, 1.0) // 2 ref-seconds at rate 1
		elapsed = p.Now() - start
	})
	eng.Run()
	if got := elapsed.Seconds(); math.Abs(got-2.0) > 1e-6 {
		t.Fatalf("elapsed = %v, want 2s", got)
	}
}

func TestComputeRateScaling(t *testing.T) {
	eng, vc := newTestCluster()
	var elapsed des.Time
	eng.Spawn("w", func(p *des.Proc) {
		start := p.Now()
		vc.CPU(0).Compute(p, 1.0, 0.5) // half-speed node: 2s wall
		elapsed = p.Now() - start
	})
	eng.Run()
	if got := elapsed.Seconds(); math.Abs(got-2.0) > 1e-6 {
		t.Fatalf("elapsed = %v, want 2s", got)
	}
}

func TestProcessorSharingSingleCore(t *testing.T) {
	// Two equal tasks on a single-core node take twice as long each.
	eng, vc := newTestCluster()
	var e1, e2 des.Time
	eng.Spawn("w1", func(p *des.Proc) {
		start := p.Now()
		vc.CPU(0).Compute(p, 1.0, 1.0)
		e1 = p.Now() - start
	})
	eng.Spawn("w2", func(p *des.Proc) {
		start := p.Now()
		vc.CPU(0).Compute(p, 1.0, 1.0)
		e2 = p.Now() - start
	})
	eng.Run()
	for _, e := range []des.Time{e1, e2} {
		if got := e.Seconds(); math.Abs(got-2.0) > 1e-6 {
			t.Fatalf("shared elapsed = %v, want 2s", got)
		}
	}
}

func TestDualCoreNoSharingPenalty(t *testing.T) {
	// Node 4 of the test topology is Intel (2 CPUs): two tasks fit without
	// slowdown.
	eng, vc := newTestCluster()
	if vc.Topo.Node(4).CPUs != 2 {
		t.Skip("test topology changed")
	}
	var e1 des.Time
	eng.Spawn("w1", func(p *des.Proc) {
		start := p.Now()
		vc.CPU(4).Compute(p, 1.0, 1.0)
		e1 = p.Now() - start
	})
	eng.Spawn("w2", func(p *des.Proc) { vc.CPU(4).Compute(p, 1.0, 1.0) })
	eng.Run()
	if got := e1.Seconds(); math.Abs(got-1.0) > 1e-6 {
		t.Fatalf("dual-core elapsed = %v, want 1s", got)
	}
}

func TestUnequalTasksFinishInOrder(t *testing.T) {
	eng, vc := newTestCluster()
	var order []string
	eng.Spawn("short", func(p *des.Proc) {
		vc.CPU(0).Compute(p, 0.5, 1.0)
		order = append(order, "short")
	})
	eng.Spawn("long", func(p *des.Proc) {
		vc.CPU(0).Compute(p, 2.0, 1.0)
		order = append(order, "long")
	})
	eng.Run()
	if len(order) != 2 || order[0] != "short" || order[1] != "long" {
		t.Fatalf("order = %v", order)
	}
	// short: both share until short has done 0.5 at rate 1/2 -> t=1s.
	// long: 0.5 done at t=1, then full speed: +1.5s -> t=2.5s.
	if got := eng.Now().Seconds(); math.Abs(got-2.5) > 1e-6 {
		t.Fatalf("makespan = %v, want 2.5s", got)
	}
}

func TestBackgroundLoadSlowsCompute(t *testing.T) {
	eng, vc := newTestCluster()
	vc.Eng.Schedule(0, func() { vc.SetAvailability(0, 0.5) })
	var elapsed des.Time
	eng.Spawn("w", func(p *des.Proc) {
		start := p.Now()
		vc.CPU(0).Compute(p, 1.0, 1.0)
		elapsed = p.Now() - start
	})
	eng.Run()
	if got := elapsed.Seconds(); math.Abs(got-2.0) > 1e-6 {
		t.Fatalf("elapsed = %v, want 2s at 50%% availability", got)
	}
}

func TestLoadChangeMidCompute(t *testing.T) {
	eng, vc := newTestCluster()
	// 2 ref-seconds; availability drops to 0.5 at t=1s.
	eng.Schedule(des.Second, func() { vc.SetAvailability(0, 0.5) })
	var elapsed des.Time
	eng.Spawn("w", func(p *des.Proc) {
		start := p.Now()
		vc.CPU(0).Compute(p, 2.0, 1.0)
		elapsed = p.Now() - start
	})
	eng.Run()
	// 1s at full speed does 1.0; remaining 1.0 at half speed takes 2s: 3s.
	if got := elapsed.Seconds(); math.Abs(got-3.0) > 1e-6 {
		t.Fatalf("elapsed = %v, want 3s", got)
	}
}

func TestAvailabilityClamping(t *testing.T) {
	eng, vc := newTestCluster()
	eng.Schedule(0, func() {
		vc.SetAvailability(0, -3)
		if a := vc.Availability(0); a != minAvailability {
			t.Errorf("availability = %v, want clamp to %v", a, minAvailability)
		}
		vc.SetAvailability(0, 17)
		if a := vc.Availability(0); a != 1.0 {
			t.Errorf("availability = %v, want clamp to 1", a)
		}
	})
	eng.Run()
}

func TestAvailableToNewTask(t *testing.T) {
	eng, vc := newTestCluster()
	eng.Spawn("w", func(p *des.Proc) {
		cpu := vc.CPU(0) // single core
		if got := cpu.AvailableToNewTask(); math.Abs(got-1.0) > 1e-9 {
			t.Errorf("idle AvailableToNewTask = %v, want 1", got)
		}
	})
	eng.Spawn("bg", func(p *des.Proc) { vc.CPU(0).Compute(p, 5, 1) })
	eng.Spawn("probe", func(p *des.Proc) {
		p.Sleep(des.Second)
		// One task running on one core: a new task would get 1/2.
		if got := vc.CPU(0).AvailableToNewTask(); math.Abs(got-0.5) > 1e-9 {
			t.Errorf("AvailableToNewTask = %v, want 0.5", got)
		}
	})
	eng.Run()
}

// TestScheduledAvailabilitySteps: availability changes scheduled on the
// engine hold from their instant onwards — the piecewise-constant load the
// monitor and mpisim tests script the same way.
func TestScheduledAvailabilitySteps(t *testing.T) {
	eng, vc := newTestCluster()
	eng.ScheduleAt(des.Second, func() { vc.SetAvailability(0, 0.7) })
	eng.ScheduleAt(2*des.Second, func() { vc.SetAvailability(0, 0.3) })
	var at1, at2 float64
	eng.Schedule(des.Second+des.Millisecond, func() { at1 = vc.Availability(0) })
	eng.Schedule(2*des.Second+des.Millisecond, func() { at2 = vc.Availability(0) })
	eng.Run()
	if at1 != 0.7 || at2 != 0.3 {
		t.Fatalf("script: got %v, %v; want 0.7, 0.3", at1, at2)
	}
}

func TestRandomWalkLoadBoundsAndDeterminism(t *testing.T) {
	sample := func() []float64 {
		eng, vc := newTestCluster()
		vc.RandomWalkLoad(0, 0.8, 0.1, des.Second, 99)
		var samples []float64
		eng.Spawn("probe", func(p *des.Proc) {
			for i := 0; i < 50; i++ {
				p.Sleep(des.Second)
				samples = append(samples, vc.Availability(0))
			}
		})
		eng.RunUntil(60 * des.Second)
		eng.Shutdown()
		return samples
	}
	a, b := sample(), sample()
	for i := range a {
		if a[i] < minAvailability || a[i] > 1 {
			t.Fatalf("walk escaped bounds: %v", a[i])
		}
		if a[i] != b[i] {
			t.Fatalf("walk not deterministic at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// Property: work conservation. Whatever the task mix, total busy
// reference-seconds equals the total work submitted once everything
// completes.
func TestQuickWorkConservation(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		eng, vc := newTestCluster()
		total := 0.0
		n := 1 + rng.Intn(6)
		node := rng.Intn(8)
		for i := 0; i < n; i++ {
			w := 0.1 + rng.Float64()*3
			total += w
			start := des.Time(rng.Intn(3)) * des.Second
			eng.Spawn("w", func(p *des.Proc) {
				p.Sleep(start)
				vc.CPU(node).Compute(p, w, 1.0)
			})
		}
		eng.Run()
		return math.Abs(vc.CPU(node).BusyRefSeconds()-total) < 1e-6
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: elapsed time for a lone task is never shorter than work/rate
// (availability can only slow it down).
func TestQuickElapsedLowerBound(t *testing.T) {
	prop := func(w8, r8, a8 uint8) bool {
		w := 0.1 + float64(w8%50)/10
		r := 0.2 + float64(r8%20)/10
		a := 0.1 + 0.9*float64(a8%10)/10
		eng, vc := newTestCluster()
		eng.Schedule(0, func() { vc.SetAvailability(0, a) })
		var elapsed float64
		eng.Spawn("w", func(p *des.Proc) {
			start := p.Now()
			vc.CPU(0).Compute(p, w, r)
			elapsed = (p.Now() - start).Seconds()
		})
		eng.Run()
		return elapsed >= w/r-1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkProcessorSharing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		eng, vc := newTestCluster()
		for j := 0; j < 16; j++ {
			eng.Spawn("w", func(p *des.Proc) {
				for k := 0; k < 10; k++ {
					vc.CPU(0).Compute(p, 0.01, 1.0)
				}
			})
		}
		eng.Run()
	}
}

// TestCPUsOnFirstTouch: the read methods answer untouched nodes from the
// idle defaults without creating them, and a CPU first touched at time t
// behaves exactly like one that existed from time 0.
func TestCPUsOnFirstTouch(t *testing.T) {
	eng, vc := newTestCluster()
	for id := 0; id < vc.Topo.NumNodes(); id++ {
		if vc.Down(id) || vc.Availability(id) != 1 || vc.AvailableToNewTask(id) != 1 {
			t.Fatalf("untouched node %d does not read idle", id)
		}
	}
	if vc.Touched() != 0 {
		t.Fatalf("reads created %d CPUs", vc.Touched())
	}
	early := vc.CPU(4)
	if vc.CPU(4) != early || vc.Touched() != 1 {
		t.Fatal("CPU(4) is not created exactly once")
	}
	// Node 5 first touched at t = 3 s, node 4 created at 0: same work,
	// same finish, same accounting.
	var end4, end5 des.Time
	eng.Schedule(3*des.Second, func() {
		eng.Spawn("w4", func(p *des.Proc) { vc.CPU(4).Compute(p, 1.5, 1.0); end4 = p.Now() })
		eng.Spawn("w5", func(p *des.Proc) { vc.CPU(5).Compute(p, 1.5, 1.0); end5 = p.Now() })
	})
	eng.Run()
	if end4 != end5 || vc.CPU(4).BusyRefSeconds() != vc.CPU(5).BusyRefSeconds() {
		t.Fatalf("late CPU finished at %v with %v busy, early one at %v with %v",
			end5, vc.CPU(5).BusyRefSeconds(), end4, vc.CPU(4).BusyRefSeconds())
	}
}
