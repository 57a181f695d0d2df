package remap

import (
	"testing"

	"cbes/internal/bench"
	"cbes/internal/cluster"
	"cbes/internal/core"
	"cbes/internal/des"
	"cbes/internal/monitor"
	"cbes/internal/mpisim"
	"cbes/internal/profile"
	"cbes/internal/simnet"
	"cbes/internal/vcluster"
)

// iterApp is a segmentable iterative application: a ring exchange plus
// compute per iteration, executed on a fresh cluster instance per segment
// with a configurable node-load map (checkpoint/restart semantics).
type iterApp struct {
	topo  *cluster.Topology
	iters int
	load  map[int]float64 // node -> availability during execution
}

func (a *iterApp) Iterations() int { return a.iters }

func (a *iterApp) body(from, to int) func(*mpisim.Rank) {
	return func(r *mpisim.Rank) {
		n := r.Size()
		right := (r.ID() + 1) % n
		left := (r.ID() - 1 + n) % n
		for i := from; i < to; i++ {
			r.Compute(0.05)
			if r.ID()%2 == 0 {
				r.Send(right, 32<<10)
				r.Recv(left)
			} else {
				r.Recv(left)
				r.Send(right, 32<<10)
			}
		}
	}
}

func (a *iterApp) RunSegment(mapping core.Mapping, from, to int) float64 {
	eng := des.NewEngine()
	vc := vcluster.New(eng, a.topo)
	net := simnet.New(eng, a.topo)
	for node, avail := range a.load {
		node, avail := node, avail
		eng.Schedule(0, func() { vc.SetAvailability(node, avail) })
	}
	res := mpisim.Run(vc, net, mapping, a.body(from, to), mpisim.Options{AppName: "iter"})
	return res.Elapsed.Seconds()
}

// fixture builds an evaluator for the iterApp on the test topology.
type fixture struct {
	topo *cluster.Topology
	eval *core.Evaluator
	app  *iterApp
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	topo := cluster.NewTestTopology()
	model := bench.Calibrate(topo, bench.Options{Reps: 3})
	app := &iterApp{topo: topo, iters: 40, load: map[int]float64{}}

	eng := des.NewEngine()
	vc := vcluster.New(eng, topo)
	net := simnet.New(eng, topo)
	res := mpisim.Run(vc, net, []int{0, 1, 2, 3}, app.body(0, app.iters), mpisim.Options{AppName: "iter"})
	speeds := bench.MeasureArchSpeeds(topo, nil, 0.2)
	prof, err := profile.FromTrace(res.Trace, topo, speeds)
	if err != nil {
		t.Fatal(err)
	}
	eval, err := core.NewEvaluator(topo, model, prof)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{topo: topo, eval: eval, app: app}
}

func pool8() []int { return []int{0, 1, 2, 3, 4, 5, 6, 7} }

func TestAdvisorStaysOnIdleCluster(t *testing.T) {
	f := newFixture(t)
	adv := &Advisor{Eval: f.eval, Pool: pool8(), MigrationCost: 2}
	snap := monitor.IdleSnapshot(f.topo.NumNodes())
	advice, err := adv.Evaluate(core.Mapping{0, 1, 2, 3}, 0.5, snap, 1)
	if err != nil {
		t.Fatal(err)
	}
	if advice.Remap {
		t.Fatalf("no load, good mapping: should stay (gain %v)", advice.Gain)
	}
	if !advice.Mapping.Equal(core.Mapping{0, 1, 2, 3}) {
		t.Fatal("stay advice must keep the mapping")
	}
}

func TestAdvisorMovesOffLoadedNodes(t *testing.T) {
	f := newFixture(t)
	adv := &Advisor{Eval: f.eval, Pool: pool8(), MigrationCost: 0.1}
	snap := monitor.IdleSnapshot(f.topo.NumNodes())
	snap.AvailCPU[0] = 0.3
	snap.AvailCPU[1] = 0.3
	advice, err := adv.Evaluate(core.Mapping{0, 1, 2, 3}, 0.9, snap, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !advice.Remap {
		t.Fatalf("heavy load on half the mapping: should remap (cur %v alt %v)",
			advice.Current, advice.Alternative)
	}
	for _, n := range advice.Mapping {
		if n == 0 || n == 1 {
			t.Fatalf("new mapping %v still uses loaded nodes", advice.Mapping)
		}
	}
	if advice.Gain <= 0 {
		t.Fatalf("gain = %v", advice.Gain)
	}
}

func TestAdvisorMigrationCostBlocksMarginalMoves(t *testing.T) {
	f := newFixture(t)
	snap := monitor.IdleSnapshot(f.topo.NumNodes())
	snap.AvailCPU[0] = 0.8 // mild load
	cheap := &Advisor{Eval: f.eval, Pool: pool8(), MigrationCost: 0}
	dear := &Advisor{Eval: f.eval, Pool: pool8(), MigrationCost: 1e6}
	a1, err := cheap.Evaluate(core.Mapping{0, 1, 2, 3}, 1.0, snap, 1)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := dear.Evaluate(core.Mapping{0, 1, 2, 3}, 1.0, snap, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a2.Remap {
		t.Fatal("astronomic migration cost must block the move")
	}
	_ = a1 // cheap advisor may or may not move on mild load; both valid
}

func TestAdvisorRejectsBadRemaining(t *testing.T) {
	f := newFixture(t)
	adv := &Advisor{Eval: f.eval, Pool: pool8(), MigrationCost: 1}
	snap := monitor.IdleSnapshot(f.topo.NumNodes())
	for _, r := range []float64{0, -0.5, 1.5} {
		if _, err := adv.Evaluate(core.Mapping{0, 1, 2, 3}, r, snap, 1); err == nil {
			t.Fatalf("remaining %v should error", r)
		}
	}
}

func TestExecuteWithoutLoadNeverRemaps(t *testing.T) {
	f := newFixture(t)
	adv := &Advisor{Eval: f.eval, Pool: pool8(), MigrationCost: 1}
	snap := func() *monitor.Snapshot { return monitor.IdleSnapshot(f.topo.NumNodes()) }
	logRec, err := Execute(f.app, core.Mapping{0, 1, 2, 3}, adv, 4, snap, 7)
	if err != nil {
		t.Fatal(err)
	}
	if logRec.Remaps != 0 {
		t.Fatalf("remapped %d times on an idle cluster", logRec.Remaps)
	}
	if len(logRec.Segments) != 4 {
		t.Fatalf("segments = %d", len(logRec.Segments))
	}
	covered := 0
	for _, s := range logRec.Segments {
		covered += s.To - s.From
	}
	if covered != f.app.Iterations() {
		t.Fatalf("covered %d of %d iterations", covered, f.app.Iterations())
	}
}

func TestExecuteRemapsUnderLoadAndWins(t *testing.T) {
	f := newFixture(t)
	// Nodes 0 and 1 become heavily loaded (visible to the snapshot and
	// applied to segment execution).
	f.app.load = map[int]float64{0: 0.3, 1: 0.3}
	snap := func() *monitor.Snapshot {
		s := monitor.IdleSnapshot(f.topo.NumNodes())
		s.AvailCPU[0] = 0.3
		s.AvailCPU[1] = 0.3
		return s
	}
	adv := &Advisor{Eval: f.eval, Pool: pool8(), MigrationCost: 0.2}

	withRemap, err := Execute(f.app, core.Mapping{0, 1, 2, 3}, adv, 4, snap, 7)
	if err != nil {
		t.Fatal(err)
	}
	noAdv := &Advisor{Eval: f.eval, Pool: pool8(), MigrationCost: 1e9} // never moves
	stay, err := Execute(f.app, core.Mapping{0, 1, 2, 3}, noAdv, 4, snap, 7)
	if err != nil {
		t.Fatal(err)
	}
	if withRemap.Remaps == 0 {
		t.Fatal("expected at least one remap under load")
	}
	if withRemap.TotalTime >= stay.TotalTime {
		t.Fatalf("remapping (%v) did not beat staying (%v)", withRemap.TotalTime, stay.TotalTime)
	}
	// After the move, no segment runs on the loaded nodes.
	last := withRemap.Segments[len(withRemap.Segments)-1]
	for _, n := range last.Mapping {
		if n == 0 || n == 1 {
			t.Fatalf("final mapping %v still on loaded nodes", last.Mapping)
		}
	}
}
