package bench

import (
	"bytes"
	"math"
	"testing"

	"cbes/internal/cluster"
	"cbes/internal/netmodel"
)

func TestMeasurePairLatencyBasics(t *testing.T) {
	topo := cluster.NewTestTopology()
	same := MeasurePairLatency(topo, 0, 1, 1024, 5, 1.0)
	cross := MeasurePairLatency(topo, 0, 4, 1024, 5, 1.0)
	if same <= 0 {
		t.Fatalf("latency %v must be positive", same)
	}
	if cross <= same {
		t.Fatalf("cross-switch %v must exceed same-switch %v", cross, same)
	}
	// Latency grows with size.
	big := MeasurePairLatency(topo, 0, 1, 256<<10, 5, 1.0)
	if big <= same {
		t.Fatalf("large-message latency %v must exceed small %v", big, same)
	}
	// Load inflates latency.
	loaded := MeasurePairLatency(topo, 0, 1, 1024, 5, 0.5)
	if loaded <= same {
		t.Fatalf("loaded latency %v must exceed idle %v", loaded, same)
	}
}

func TestLoopbackMeasurement(t *testing.T) {
	topo := cluster.NewTestTopology()
	loop := MeasurePairLatency(topo, 4, 4, 1024, 5, 1.0) // dual-CPU node
	net := MeasurePairLatency(topo, 4, 5, 1024, 5, 1.0)
	if loop <= 0 || loop >= net {
		t.Fatalf("loopback %v should be positive and below network %v", loop, net)
	}
}

func TestCalibrateBuildsAllClasses(t *testing.T) {
	topo := cluster.NewTestTopology()
	m := Calibrate(topo, Options{Reps: 3, Sizes: []int64{64, 8 << 10}})
	n := topo.NumNodes()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if _, err := m.ClassFor(i, j); err != nil {
				t.Fatalf("pair (%d,%d) uncovered: %v", i, j, err)
			}
		}
	}
	// Load coefficients must be positive after fitting.
	c, _ := m.ClassFor(0, 1)
	if c.CSend <= 0 || c.CRecv <= 0 {
		t.Fatalf("load coefficients not fitted: %+v", c)
	}
	// And in the right ballpark: tens of microseconds (arch overheads).
	if c.CSend < 5e-6 || c.CSend > 500e-6 {
		t.Fatalf("CSend = %v out of plausible range", c.CSend)
	}
}

// TestCalibratedModelsLoad: a model calibrated for any testbed survives
// the checks netmodel.Decode and Attach apply to a stored model.
func TestCalibratedModelsLoad(t *testing.T) {
	for _, topo := range []*cluster.Topology{cluster.NewTestTopology(), cluster.NewOrangeGrove(), cluster.NewCenturion()} {
		var buf bytes.Buffer
		if err := Calibrate(topo, Options{}).Encode(&buf); err != nil {
			t.Fatal(err)
		}
		m, err := netmodel.Decode(&buf)
		if err == nil {
			err = m.Attach(topo)
		}
		if err != nil {
			t.Fatalf("%s: %v", topo.Name, err)
		}
	}
}

func TestCalibrationPredictsMeasurement(t *testing.T) {
	// The calibrated class curve must reproduce a direct measurement of
	// another pair in the same class within a small tolerance.
	topo := cluster.NewTestTopology()
	m := Calibrate(topo, Options{Reps: 5, SkipLoadFit: true})
	direct := MeasurePairLatency(topo, 2, 3, 8<<10, 5, 1.0)
	modeled := m.NoLoad(2, 3, 8<<10)
	if rel := math.Abs(modeled-direct) / direct; rel > 0.05 {
		t.Fatalf("class model off by %.1f%% (direct %v, model %v)", rel*100, direct, modeled)
	}
}

func TestAllPairsMatchesClassCalibration(t *testing.T) {
	topo := cluster.NewTestTopology()
	byClass := Calibrate(topo, Options{Reps: 3, Sizes: []int64{64, 8 << 10}, SkipLoadFit: true})
	allPairs := Calibrate(topo, Options{Reps: 3, Sizes: []int64{64, 8 << 10}, SkipLoadFit: true, AllPairs: true})
	for _, size := range []int64{64, 8 << 10} {
		a := byClass.NoLoad(0, 5, size)
		b := allPairs.NoLoad(0, 5, size)
		if rel := math.Abs(a-b) / b; rel > 0.02 {
			t.Fatalf("class vs all-pairs disagree by %.1f%% at %d bytes", rel*100, size)
		}
	}
}

func TestMeasureArchSpeeds(t *testing.T) {
	topo := cluster.NewTestTopology()
	speeds := MeasureArchSpeeds(topo, nil, 0.5)
	if math.Abs(speeds[cluster.ArchAlpha]-1.0) > 1e-6 {
		t.Fatalf("alpha speed = %v, want 1.0", speeds[cluster.ArchAlpha])
	}
	if math.Abs(speeds[cluster.ArchIntel]-0.78) > 1e-6 {
		t.Fatalf("intel speed = %v, want 0.78", speeds[cluster.ArchIntel])
	}
	// App-specific efficiency shifts the measured ratio.
	eff := map[cluster.Arch]float64{cluster.ArchIntel: 0.9}
	speeds2 := MeasureArchSpeeds(topo, eff, 0.5)
	if math.Abs(speeds2[cluster.ArchIntel]-0.78*0.9) > 1e-6 {
		t.Fatalf("intel speed with eff = %v, want %v", speeds2[cluster.ArchIntel], 0.78*0.9)
	}
}

func BenchmarkCalibrateTestTopo(b *testing.B) {
	topo := cluster.NewTestTopology()
	for i := 0; i < b.N; i++ {
		Calibrate(topo, Options{Reps: 3, Sizes: []int64{64, 8 << 10}, SkipLoadFit: true})
	}
}
