package bench

import (
	"math"
	"testing"
	"testing/quick"

	"cbes/internal/cluster"
	"cbes/internal/core"
	"cbes/internal/des"
	"cbes/internal/monitor"
	"cbes/internal/mpisim"
	"cbes/internal/profile"
	"cbes/internal/simnet"
	"cbes/internal/vcluster"
)

// Property: calibration on arbitrary random topologies covers every node
// pair and produces positive, size-monotone latency curves.
func TestQuickCalibrateRandomTopologies(t *testing.T) {
	prop := func(seed int64) bool {
		topo := cluster.NewRandom(seed, cluster.RandomSpec{MaxSwitches: 3, MaxNodesPerSwitch: 3})
		m := Calibrate(topo, Options{Reps: 2, Sizes: []int64{64, 8 << 10}, SkipLoadFit: true})
		n := topo.NumNodes()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if _, err := m.ClassFor(i, j); err != nil {
					return false
				}
				lSmall := m.NoLoad(i, j, 64)
				lBig := m.NoLoad(i, j, 8<<10)
				if lSmall <= 0 || lBig < lSmall {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// Property: the full pipeline — calibrate, run, profile, predict — holds on
// random topologies: the same-mapping idle prediction lands close to the
// simulated truth.
func TestQuickPipelineRandomTopologies(t *testing.T) {
	prop := func(seed int64) bool {
		topo := cluster.NewRandom(seed, cluster.RandomSpec{MaxSwitches: 3, MaxNodesPerSwitch: 4})
		if topo.NumNodes() < 2 {
			return true
		}
		return pipelineHoldsOn(topo)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

// pipelineHoldsOn exercises calibrate → run → profile → predict on topo and
// checks the same-mapping idle prediction against the simulation.
func pipelineHoldsOn(topo *cluster.Topology) bool {
	model := Calibrate(topo, Options{Reps: 3, Sizes: []int64{64, 8 << 10, 64 << 10}, SkipLoadFit: true})
	mapping := []int{0, 1}
	body := func(r *mpisim.Rank) {
		for i := 0; i < 15; i++ {
			r.Compute(0.02)
			if r.ID() == 0 {
				r.Send(1, 8<<10)
				r.Recv(1)
			} else {
				r.Recv(0)
				r.Send(0, 8<<10)
			}
		}
	}
	eng := des.NewEngine()
	vc := vcluster.New(eng, topo)
	net := simnet.New(eng, topo)
	res := mpisim.Run(vc, net, mapping, body, mpisim.Options{AppName: "fuzzapp"})

	speeds := MeasureArchSpeeds(topo, nil, 0.2)
	prof, err := profile.FromTrace(res.Trace, topo, speeds)
	if err != nil {
		return false
	}
	eval, err := core.NewEvaluator(topo, model, prof)
	if err != nil {
		return false
	}
	pred, err := eval.Predict(core.Mapping(mapping), monitor.IdleSnapshot(topo.NumNodes()))
	if err != nil {
		return false
	}
	actual := res.Elapsed.Seconds()
	return math.Abs(pred.Seconds-actual)/actual < 0.10
}
