package monitor

import (
	"math"
	"testing"
	"testing/quick"

	"cbes/internal/cluster"
	"cbes/internal/des"
	"cbes/internal/simnet"
	"cbes/internal/vcluster"
)

func TestLastValue(t *testing.T) {
	f := NewLastValue()
	if f.Forecast() != 1.0 {
		t.Fatal("prior should be 1.0")
	}
	f.Update(0.4)
	f.Update(0.7)
	if f.Forecast() != 0.7 {
		t.Fatalf("forecast = %v", f.Forecast())
	}
	if f.Name() != "last" {
		t.Fatal("name")
	}
}

func TestSlidingMean(t *testing.T) {
	f := NewSlidingMean(3)
	for _, v := range []float64{1, 2, 3, 4} { // window keeps 2,3,4
		f.Update(v)
	}
	if got := f.Forecast(); math.Abs(got-3) > 1e-12 {
		t.Fatalf("forecast = %v, want 3", got)
	}
}

func TestSlidingMedian(t *testing.T) {
	f := NewSlidingMedian(5)
	for _, v := range []float64{1, 100, 2, 3, 2.5} {
		f.Update(v)
	}
	if got := f.Forecast(); got != 2.5 {
		t.Fatalf("median = %v, want 2.5", got)
	}
	f2 := NewSlidingMedian(4)
	f2.Update(1)
	f2.Update(3)
	if got := f2.Forecast(); got != 2 {
		t.Fatalf("even median = %v, want 2", got)
	}
}

func TestEWMA(t *testing.T) {
	f := NewEWMA(0.5)
	f.Update(1.0)
	f.Update(0.0)
	if got := f.Forecast(); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("ewma = %v, want 0.5", got)
	}
}

func TestForecasterConstructorsPanic(t *testing.T) {
	for _, fn := range []func(){
		func() { NewSlidingMean(0) },
		func() { NewSlidingMedian(-1) },
		func() { NewEWMA(0) },
		func() { NewEWMA(1.5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestAdaptivePicksGoodPredictor(t *testing.T) {
	// A constant series: every candidate converges, forecast must match.
	a := NewAdaptive()
	for i := 0; i < 50; i++ {
		a.Update(0.6)
	}
	if got := a.Forecast(); math.Abs(got-0.6) > 1e-9 {
		t.Fatalf("adaptive on constant series = %v", got)
	}
	// An alternating series: the mean-family must beat last-value.
	b := NewAdaptive()
	for i := 0; i < 100; i++ {
		v := 0.2
		if i%2 == 0 {
			v = 0.8
		}
		b.Update(v)
	}
	if got := b.Forecast(); math.Abs(got-0.5) > 0.15 {
		t.Fatalf("adaptive on alternating series = %v, want ≈0.5 (%s)", got, b.Name())
	}
}

// Property: forecasts of availability series stay within the convex hull of
// observations (for these predictor families).
func TestQuickForecastWithinHull(t *testing.T) {
	prop := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		lo, hi := 2.0, -1.0
		fs := []Forecaster{NewLastValue(), NewSlidingMean(7), NewSlidingMedian(7), NewEWMA(0.3), NewAdaptive()}
		for _, r := range raw {
			v := float64(r) / 255
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
			for _, f := range fs {
				f.Update(v)
			}
		}
		for _, f := range fs {
			got := f.Forecast()
			if got < lo-1e-9 || got > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func newMonEnv(cfg Config) (*des.Engine, *vcluster.Cluster, *simnet.Network, *SystemMonitor) {
	eng := des.NewEngine()
	topo := cluster.NewTestTopology()
	vc := vcluster.New(eng, topo)
	net := simnet.New(eng, topo)
	return eng, vc, net, NewSystemMonitor(vc, net, cfg)
}

func TestSystemMonitorTracksCPULoad(t *testing.T) {
	eng, vc, _, mon := newMonEnv(Config{Noise: 1e-9})
	eng.ScheduleAt(5*des.Second, func() { vc.SetAvailability(3, 0.4) })
	eng.RunUntil(20 * des.Second)
	snap := mon.Snapshot()
	eng.Shutdown()
	if math.Abs(snap.AvailCPU[3]-0.4) > 0.01 {
		t.Fatalf("monitored avail = %v, want ≈0.4", snap.AvailCPU[3])
	}
	if math.Abs(snap.AvailCPU[0]-1.0) > 0.01 {
		t.Fatalf("idle node avail = %v, want ≈1", snap.AvailCPU[0])
	}
	if snap.At != 20*des.Second {
		t.Fatalf("snapshot at %v", snap.At)
	}
	if mon.Samples() < 19 {
		t.Fatalf("samples = %d", mon.Samples())
	}
}

func TestSystemMonitorTracksNICUtil(t *testing.T) {
	eng, _, net, mon := newMonEnv(Config{Noise: 1e-9})
	// Saturate node 0's edge link with periodic traffic.
	eng.Spawn("traffic", func(p *des.Proc) {
		for {
			net.Deliver(0, 1, 1<<20, func() {})
			p.Sleep(200 * des.Millisecond)
		}
	})
	eng.RunUntil(10 * des.Second)
	snap := mon.Snapshot()
	eng.Shutdown()
	if snap.NICUtil[0] < 0.1 {
		t.Fatalf("NIC utilization %v too low for saturating traffic", snap.NICUtil[0])
	}
	if snap.NICUtil[3] > 0.01 {
		t.Fatalf("idle node NIC utilization = %v", snap.NICUtil[3])
	}
}

func TestSnapshotCloneIndependent(t *testing.T) {
	s := IdleSnapshot(4)
	c := s.Clone()
	c.AvailCPU[0] = 0.1
	if s.AvailCPU[0] != 1.0 {
		t.Fatal("clone aliases parent")
	}
}

// TestSamplingCreatesNoCPUs: sampling an idle 1 024-node fat tree reads
// every sensor without creating a single node's CPU.
func TestSamplingCreatesNoCPUs(t *testing.T) {
	eng := des.NewEngine()
	topo, err := cluster.FromSpec("fattree:16")
	if err != nil {
		t.Fatal(err)
	}
	vc := vcluster.New(eng, topo)
	net := simnet.New(eng, topo)
	mon := NewSystemMonitor(vc, net, Config{Seed: 3})
	eng.RunUntil(9*des.Second + des.Millisecond)
	snap := mon.Snapshot()
	eng.Shutdown()
	if got := mon.Samples(); got != 10 {
		t.Fatalf("%d sampling rounds, want 10", got)
	}
	if got := vc.Touched(); got != 0 {
		t.Fatalf("sampling created %d CPUs", got)
	}
	for i := 0; i < topo.NumNodes(); i++ {
		if snap.HealthOf(i) != HealthOK || snap.NICUtil[i] != 0 || snap.AvailCPU[i] < 0.9 {
			t.Fatalf("idle node %d reads avail %v NIC %v health %v", i, snap.AvailCPU[i], snap.NICUtil[i], snap.HealthOf(i))
		}
	}
}
