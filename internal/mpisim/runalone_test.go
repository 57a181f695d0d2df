package mpisim

import (
	"math"
	"testing"

	"cbes/internal/cluster"
	"cbes/internal/vcluster"
)

// pairBody computes for secs on each of two ranks, exchanging a message
// every quarter second of work.
func pairBody(secs float64) func(*Rank) {
	return func(r *Rank) {
		for k := 0; k < int(secs*4); k++ {
			r.Compute(0.25)
			r.SendRecv(1-r.ID(), 1<<10, 1<<10)
		}
	}
}

func TestRunAloneRejectsBadInput(t *testing.T) {
	topo := cluster.NewTestTopology() // 8 nodes
	cases := []struct {
		name    string
		bg      vcluster.Background
		mapping []int
	}{
		{"background node past the end", vcluster.Background{Avail: map[int]float64{999: 0.5}}, []int{0, 1}},
		{"negative background node", vcluster.Background{Avail: map[int]float64{-1: 0.5}}, []int{0, 1}},
		{"NaN availability", vcluster.Background{Avail: map[int]float64{0: math.NaN()}}, []int{0, 1}},
		{"infinite availability", vcluster.Background{Avail: map[int]float64{0: math.Inf(1)}, Noise: true}, []int{0, 1}},
		{"mapped node past the end", vcluster.Background{}, []int{0, 999}},
		{"negative mapped node", vcluster.Background{}, []int{-3, 1}},
		{"empty mapping", vcluster.Background{}, nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			res, err := RunAlone(topo, c.bg, c.mapping, pairBody(1), Options{})
			if err == nil {
				t.Fatalf("RunAlone = %v, want an error", res)
			}
		})
	}
	// A rejected call leaves the pooled engine fit for the next run.
	if _, err := RunAlone(topo, vcluster.Background{}, []int{0, 1}, pairBody(1), Options{}); err != nil {
		t.Fatal(err)
	}
}

func TestRunAloneNoiseSeed(t *testing.T) {
	topo := cluster.NewTestTopology()
	run := func(bg vcluster.Background) float64 {
		res, err := RunAlone(topo, bg, []int{0, 4}, pairBody(5), Options{})
		if err != nil {
			t.Fatal(err)
		}
		return res.Elapsed.Seconds()
	}
	noisy := func(seed int64) float64 { return run(vcluster.Background{Noise: true, Seed: seed}) }
	a, b, c := noisy(1), noisy(1), noisy(2)
	if a != b {
		t.Fatalf("same seed: %v vs %v", a, b)
	}
	if a == c {
		t.Fatalf("seeds 1 and 2 both took %v", a)
	}
	// The walk wanders around 0.985, so noise costs a few percent.
	if quiet := run(vcluster.Background{}); a/quiet < 1 || a/quiet > 1.05 {
		t.Fatalf("noise stretched the run %vx, want 1-1.05x", a/quiet)
	}
}

func TestRunAloneStaticOverride(t *testing.T) {
	topo := cluster.NewTestTopology()
	solo := func(bg vcluster.Background) float64 {
		res, err := RunAlone(topo, bg, []int{2}, func(r *Rank) { r.Compute(2) }, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return res.Elapsed.Seconds()
	}
	idle := solo(vcluster.Background{})
	for _, c := range []struct{ avail, factor float64 }{
		{0.5, 2},
		{0.25, 4},
		{7, 1},     // clamped to 1
		{-1, 50},   // clamped to the 0.02 floor
		{0.5, 2.0}, // again, on a recycled engine
	} {
		got := solo(vcluster.Background{Avail: map[int]float64{2: c.avail}}) / idle
		if math.Abs(got-c.factor) > 1e-9*c.factor {
			t.Errorf("availability %v slowed the rank %vx, want %vx", c.avail, got, c.factor)
		}
	}
	// An override on another node leaves the rank alone.
	if got := solo(vcluster.Background{Avail: map[int]float64{3: 0.5}}); got != idle {
		t.Errorf("load on node 3 moved node 2's run from %v to %v", idle, got)
	}
}
