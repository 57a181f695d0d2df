package schedule

import (
	"math"
	"runtime"
	"strings"
	"testing"

	"cbes/internal/bench"
	"cbes/internal/cluster"
	"cbes/internal/core"
	"cbes/internal/des"
	"cbes/internal/monitor"
	"cbes/internal/mpisim"
	"cbes/internal/netmodel"
	"cbes/internal/obs"
	"cbes/internal/profile"
	"cbes/internal/simnet"
	"cbes/internal/vcluster"
)

// ringApp is a 4-rank ring exchange with some compute: communication
// matters, so mapping quality matters.
func ringApp(r *mpisim.Rank) {
	n := r.Size()
	for i := 0; i < 15; i++ {
		r.Compute(0.02)
		right := (r.ID() + 1) % n
		left := (r.ID() - 1 + n) % n
		if r.ID()%2 == 0 {
			r.Send(right, 32<<10)
			r.Recv(left)
		} else {
			r.Recv(left)
			r.Send(right, 32<<10)
		}
	}
}

type fixture struct {
	topo *cluster.Topology
	eval *core.Evaluator
	snap *monitor.Snapshot
}

func newFixture(t *testing.T) *fixture {
	return newFixtureOn(t, cluster.NewTestTopology())
}

// homogeneousTwoSwitch builds 8 Alpha nodes split over two switches: all
// nodes are computationally equivalent, so only communication
// (same-switch vs. cross-switch placement) separates mappings. This is the
// setting where NCS degenerates to random selection (§6).
func homogeneousTwoSwitch(t *testing.T) *cluster.Topology {
	t.Helper()
	b := cluster.NewBuilder("homo2sw")
	swA := b.Switch("swA", "3com-100", 24)
	swB := b.Switch("swB", "3com-100", 24)
	b.Uplink(swA, swB, cluster.BandwidthFast100, 5*des.Microsecond)
	for i := 0; i < 4; i++ {
		b.Node("a", cluster.ArchAlpha, swA, cluster.BandwidthFast100, 5*des.Microsecond)
	}
	for i := 0; i < 4; i++ {
		b.Node("b", cluster.ArchAlpha, swB, cluster.BandwidthFast100, 5*des.Microsecond)
	}
	return b.Build()
}

func newFixtureOn(t *testing.T, topo *cluster.Topology) *fixture {
	t.Helper()
	model := bench.Calibrate(topo, bench.Options{Reps: 4})
	eng := des.NewEngine()
	vc := vcluster.New(eng, topo)
	net := simnet.New(eng, topo)
	res := mpisim.Run(vc, net, []int{0, 1, 2, 3}, ringApp, mpisim.Options{AppName: "ring"})
	speeds := bench.MeasureArchSpeeds(topo, nil, 0.2)
	prof, err := profile.FromTrace(res.Trace, topo, speeds)
	if err != nil {
		t.Fatal(err)
	}
	eval, err := core.NewEvaluator(topo, model, prof)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{topo: topo, eval: eval, snap: monitor.IdleSnapshot(topo.NumNodes())}
}

func (f *fixture) request(pool []int, seed int64) *Request {
	return &Request{Eval: f.eval, Snap: f.snap, Pool: pool, Seed: seed}
}

func allNodes(f *fixture) []int {
	var pool []int
	for i := 0; i < f.topo.NumNodes(); i++ {
		pool = append(pool, i)
	}
	return pool
}

func TestRandomValidMapping(t *testing.T) {
	f := newFixture(t)
	d, err := Random(f.request(allNodes(f), 7))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Mapping.Validate(f.topo); err != nil {
		t.Fatal(err)
	}
	// One rank per node by default.
	for _, c := range d.Mapping.Multiplicity() {
		if c > 1 {
			t.Fatalf("default slots violated: %v", d.Mapping)
		}
	}
	if d.Predicted <= 0 {
		t.Fatal("RS decision must still carry a full prediction")
	}
	if !math.IsNaN(d.Score) {
		t.Fatal("RS has no cost function score")
	}
}

func TestCSBeatsRandomOnAverage(t *testing.T) {
	f := newFixture(t)
	pool := allNodes(f)
	var csSum, rsSum float64
	const n = 10
	for s := int64(0); s < n; s++ {
		cs, err := SimulatedAnnealing(f.request(pool, s))
		if err != nil {
			t.Fatal(err)
		}
		rs, err := Random(f.request(pool, s+100))
		if err != nil {
			t.Fatal(err)
		}
		csSum += cs.Predicted
		rsSum += rs.Predicted
	}
	if csSum >= rsSum {
		t.Fatalf("CS average %v not better than RS average %v", csSum/n, rsSum/n)
	}
}

func TestCSFindsKnownOptimum(t *testing.T) {
	// Pool restricted to the four Alphas: the optimum keeps all ranks on
	// one switch; every Alpha permutation is equivalent, so CS must land at
	// the exhaustive optimum value.
	f := newFixture(t)
	pool := []int{0, 1, 2, 3}
	ex, err := Exhaustive(f.request(pool, 1))
	if err != nil {
		t.Fatal(err)
	}
	cs, err := SimulatedAnnealing(f.request(pool, 2))
	if err != nil {
		t.Fatal(err)
	}
	if rel := (cs.Predicted - ex.Predicted) / ex.Predicted; rel > 1e-9 {
		t.Fatalf("CS %v vs exhaustive optimum %v", cs.Predicted, ex.Predicted)
	}
}

func TestNCSBlindToCommunication(t *testing.T) {
	// Mixed pool: NCS should find Alpha nodes (fast) but cannot prefer
	// same-switch placements among equal-speed nodes; CS can. Over several
	// seeds CS must never be worse and typically better.
	f := newFixtureOn(t, homogeneousTwoSwitch(t))
	pool := allNodes(f)
	csBetter := 0
	var csSum, ncsSum float64
	for s := int64(0); s < 8; s++ {
		cs, err := SimulatedAnnealing(f.request(pool, s))
		if err != nil {
			t.Fatal(err)
		}
		ncs, err := SimulatedAnnealingNoComm(f.request(pool, s))
		if err != nil {
			t.Fatal(err)
		}
		csSum += cs.Predicted
		ncsSum += ncs.Predicted
		if cs.Predicted < ncs.Predicted*0.999 {
			csBetter++
		}
		// A single anneal can get trapped (the paper's CS hits ~90%), but
		// CS must never be drastically worse than NCS.
		if cs.Predicted > ncs.Predicted*1.25 {
			t.Fatalf("seed %d: CS %v far worse than NCS %v", s, cs.Predicted, ncs.Predicted)
		}
		// NCS score must ignore communication: it is below the full
		// prediction of its own mapping.
		if ncs.Score >= ncs.Predicted {
			t.Fatalf("NCS score %v not communication-blind (full %v)", ncs.Score, ncs.Predicted)
		}
	}
	if csBetter == 0 {
		t.Fatal("CS never beat NCS — communication term had no effect")
	}
	if csSum >= ncsSum {
		t.Fatalf("CS average %v not better than NCS average %v", csSum/8, ncsSum/8)
	}
}

func TestMaximizeFindsWorseMappingThanMinimize(t *testing.T) {
	f := newFixture(t)
	pool := allNodes(f)
	best, err := SimulatedAnnealing(f.request(pool, 3))
	if err != nil {
		t.Fatal(err)
	}
	reqW := f.request(pool, 3)
	reqW.Maximize = true
	worst, err := SimulatedAnnealing(reqW)
	if err != nil {
		t.Fatal(err)
	}
	if worst.Predicted <= best.Predicted {
		t.Fatalf("worst %v <= best %v", worst.Predicted, best.Predicted)
	}
}

func TestGeneticSchedulerWorks(t *testing.T) {
	f := newFixture(t)
	pool := allNodes(f)
	ga, err := Genetic(f.request(pool, 5))
	if err != nil {
		t.Fatal(err)
	}
	if err := ga.Mapping.Validate(f.topo); err != nil {
		t.Fatal(err)
	}
	rs, _ := Random(f.request(pool, 6))
	if ga.Predicted > rs.Predicted*1.2 {
		t.Fatalf("GA (%v) much worse than random (%v)", ga.Predicted, rs.Predicted)
	}
	for _, c := range ga.Mapping.Multiplicity() {
		if c > 1 {
			t.Fatalf("GA placed two ranks on one node: %v", ga.Mapping)
		}
	}
}

func TestExhaustiveMatchesBruteForceDirection(t *testing.T) {
	f := newFixture(t)
	pool := []int{0, 1, 4, 5}
	min, err := Exhaustive(f.request(pool, 1))
	if err != nil {
		t.Fatal(err)
	}
	reqMax := f.request(pool, 1)
	reqMax.Maximize = true
	max, err := Exhaustive(reqMax)
	if err != nil {
		t.Fatal(err)
	}
	if !(min.Predicted < max.Predicted) {
		t.Fatalf("exhaustive min %v !< max %v", min.Predicted, max.Predicted)
	}
	if min.Evaluations != max.Evaluations || min.Evaluations != 24 {
		// 4 nodes, 4 ranks, 1 slot each: 4! = 24 mappings.
		t.Fatalf("evaluations = %d, want 24", min.Evaluations)
	}
}

func TestSchedulerDeterminism(t *testing.T) {
	f := newFixture(t)
	pool := allNodes(f)
	a, _ := SimulatedAnnealing(f.request(pool, 42))
	b, _ := SimulatedAnnealing(f.request(pool, 42))
	if !a.Mapping.Equal(b.Mapping) || a.Predicted != b.Predicted {
		t.Fatal("CS nondeterministic for fixed seed")
	}
}

func TestSAEvaluationsWithinEffort(t *testing.T) {
	// Regression: the old budget split (Effort/restarts clamped to ≥100)
	// could overrun small budgets and silently drop remainders of large
	// ones. The budget must now be a hard cap for any Effort/Restarts combo.
	f := newFixture(t)
	pool := allNodes(f)
	for _, tc := range []struct{ effort, restarts int }{
		{50, 4}, {101, 4}, {4000, 4}, {7, 3}, {3, 8}, {1, 1}, {250, 7},
	} {
		req := f.request(pool, 11)
		req.Effort = tc.effort
		req.Restarts = tc.restarts
		d, err := SimulatedAnnealing(req)
		if err != nil {
			t.Fatalf("effort=%d restarts=%d: %v", tc.effort, tc.restarts, err)
		}
		if d.Evaluations > tc.effort {
			t.Fatalf("effort=%d restarts=%d: used %d evaluations",
				tc.effort, tc.restarts, d.Evaluations)
		}
		if d.Evaluations == 0 {
			t.Fatalf("effort=%d restarts=%d: no evaluations at all", tc.effort, tc.restarts)
		}
	}
}

func TestConstraintSatisfiedHasNoPenalty(t *testing.T) {
	// A satisfiable constraint must steer the search without leaking the
	// 1e9 penalty into Decision.Predicted.
	f := newFixture(t)
	pool := allNodes(f)
	req := f.request(pool, 9)
	req.Constraint = func(m core.Mapping) bool {
		for _, n := range m {
			if n == 4 || n == 5 { // must use a SPARC node
				return true
			}
		}
		return false
	}
	d, err := SimulatedAnnealing(req)
	if err != nil {
		t.Fatal(err)
	}
	if !req.Constraint(d.Mapping) {
		t.Fatalf("constraint not satisfied: %v", d.Mapping)
	}
	if d.Predicted >= constraintPenalty/2 {
		t.Fatalf("penalty leaked into prediction: %v", d.Predicted)
	}
	want, err := f.eval.Predict(d.Mapping, f.snap)
	if err != nil {
		t.Fatal(err)
	}
	if d.Predicted != want.Seconds {
		t.Fatalf("Predicted %v != full prediction %v", d.Predicted, want.Seconds)
	}
}

func TestConstraintUnsatisfiableReturnsError(t *testing.T) {
	// Regression: CS used to return a Decision whose Predicted contained
	// the constraint penalty; it must return an explicit error like RS.
	f := newFixture(t)
	pool := allNodes(f)
	never := func(core.Mapping) bool { return false }
	for name, run := range map[string]func(*Request) (*Decision, error){
		"CS":  SimulatedAnnealing,
		"NCS": SimulatedAnnealingNoComm,
		"GA":  Genetic,
		"RS":  Random,
	} {
		req := f.request(pool, 13)
		req.Effort = 400
		req.Constraint = never
		d, err := run(req)
		if err == nil {
			t.Fatalf("%s: unsatisfiable constraint returned %+v instead of error", name, d)
		}
	}
	// Exhaustive reports infeasibility too.
	reqEx := f.request([]int{0, 1, 2, 3}, 13)
	reqEx.Constraint = never
	if d, err := Exhaustive(reqEx); err == nil {
		t.Fatalf("Exhaustive: unsatisfiable constraint returned %+v instead of error", d)
	}
}

func TestSADeterministicAcrossParallelism(t *testing.T) {
	// Restarts run concurrently; the outcome must not depend on worker
	// scheduling. Compare a parallel run against a serialized one.
	f := newFixture(t)
	pool := allNodes(f)
	req := f.request(pool, 21)
	req.Restarts = 6
	a, err := SimulatedAnnealing(req)
	if err != nil {
		t.Fatal(err)
	}
	req2 := f.request(pool, 21)
	req2.Restarts = 6
	prev := runtime.GOMAXPROCS(1)
	b, err := SimulatedAnnealing(req2)
	runtime.GOMAXPROCS(prev)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Mapping.Equal(b.Mapping) || a.Predicted != b.Predicted {
		t.Fatalf("parallel %v (%v) != serial %v (%v)",
			a.Mapping, a.Predicted, b.Mapping, b.Predicted)
	}
}

// A restart that panics must not take the process down: the panic reaches
// the caller's goroutine, value intact, where a server's recovery sees it.
// The evaluator's model lacks the cross-switch class, so the first
// cross-switch message a restart scores panics inside the scorer.
func TestSARestartPanicReachesCaller(t *testing.T) {
	f := newFixture(t)
	missing := f.topo.PathSignature(0, 4)
	model := netmodel.New(f.topo)
	for sig, c := range f.eval.Model.Classes {
		if sig != missing {
			model.SetClass(sig, c)
		}
	}
	eval, err := core.NewEvaluator(f.topo, model, f.eval.Prof)
	if err != nil {
		t.Fatal(err)
	}
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	req := &Request{Eval: eval, Snap: f.snap, Pool: allNodes(f), Seed: 1, Restarts: 4}
	defer func() {
		msg, _ := recover().(string)
		if !strings.HasPrefix(msg, "netmodel: no calibration for pair") {
			t.Fatalf("recovered %q, want the scorer's netmodel panic", msg)
		}
	}()
	d, err := SimulatedAnnealing(req)
	t.Fatalf("no panic: decision %+v, err %v", d, err)
}

func TestSAPredictedMatchesFullEvaluation(t *testing.T) {
	// The incremental fast path must hand back exactly the energy a full
	// evaluation of the chosen mapping produces.
	f := newFixture(t)
	for s := int64(0); s < 4; s++ {
		d, err := SimulatedAnnealing(f.request(allNodes(f), s))
		if err != nil {
			t.Fatal(err)
		}
		p, err := f.eval.Predict(d.Mapping, f.snap)
		if err != nil {
			t.Fatal(err)
		}
		if d.Predicted != p.Seconds {
			t.Fatalf("seed %d: Predicted %v != Predict %v", s, d.Predicted, p.Seconds)
		}
	}
}

// kernelCounts reads the scorer series: full evaluations, Apply, Undo and
// rescored terms.
func kernelCounts() [4]uint64 {
	var c [4]uint64
	for i, name := range []string{"cbes_core_energy_evals_total", "cbes_core_delta_evals_total",
		"cbes_core_undo_total", "cbes_core_delta_terms_rescored_total"} {
		c[i] = obs.Default().Counter(name, "").Value()
	}
	return c
}

// countsOf is what run added to the scorer series.
func countsOf(run func()) [4]uint64 {
	before := kernelCounts()
	run()
	after := kernelCounts()
	for i := range after {
		after[i] -= before[i]
	}
	return after
}

// TestSearchCountersExact: scorers count Apply, Undo and rescored terms
// locally and publish when a search ends, so once a decision returns the
// series hold every call — none lost to an unpublished scorer.
func TestSearchCountersExact(t *testing.T) {
	f := newFixture(t)
	pool := []int{0, 1, 2, 3}

	// Exhaustive over 4 ranks on 4 one-slot nodes: one Apply and one Undo
	// per tree node below the root, 4 + 4·3 + 4·3·2 + 4! = 64 of each.
	var ex *Decision
	got := countsOf(func() {
		var err error
		if ex, err = Exhaustive(f.request(pool, 1)); err != nil {
			t.Fatal(err)
		}
	})
	if got[0] != 1 || got[1] != 64 || got[2] != 64 || ex.Evaluations != 24 {
		t.Fatalf("exhaustive: counts %v (full, apply, undo, terms), %d evaluations", got, ex.Evaluations)
	}
	// The same walk driven by hand on a fresh scorer rescores the same terms.
	replay := countsOf(func() {
		sc := f.eval.Scorer()
		if _, err := sc.Energy(core.Mapping{0, 0, 0, 0}, f.snap); err != nil {
			t.Fatal(err)
		}
		used := map[int]bool{}
		var walk func(rank int)
		walk = func(rank int) {
			for _, n := range pool {
				if rank == 4 || used[n] {
					continue
				}
				used[n] = true
				sc.Apply(core.Move{Rank: rank, To: n})
				walk(rank + 1)
				sc.Undo()
				used[n] = false
			}
		}
		walk(0)
		sc.Publish()
	})
	if replay != got {
		t.Fatalf("exhaustive counts %v, hand-driven walk %v", got, replay)
	}

	// SA: every evaluation after a restart's initial one is an Apply, and
	// the parallel restarts lose nothing against a serial run.
	for name, run := range map[string]func(*Request) (*Decision, error){
		"cs": SimulatedAnnealing, "ncs": SimulatedAnnealingNoComm,
	} {
		req := f.request(allNodes(f), 5)
		req.Effort, req.Restarts = 600, 4
		var d *Decision
		par := countsOf(func() {
			var err error
			if d, err = run(req); err != nil {
				t.Fatal(err)
			}
		})
		prev := runtime.GOMAXPROCS(1)
		ser := countsOf(func() { _, _ = run(req) })
		runtime.GOMAXPROCS(prev)
		if par != ser {
			t.Fatalf("%s: parallel counts %v, serial %v", name, par, ser)
		}
		if par[1] != uint64(d.Evaluations-req.Restarts) || par[2] == 0 || par[2] >= par[1] || par[3] == 0 {
			t.Fatalf("%s: counts %v (full, apply, undo, terms) for %d evaluations", name, par, d.Evaluations)
		}
	}
}

func TestRequestValidation(t *testing.T) {
	f := newFixture(t)
	if _, err := Random(&Request{Eval: f.eval, Snap: f.snap}); err == nil {
		t.Fatal("empty pool should error")
	}
	if _, err := Random(&Request{Snap: f.snap, Pool: []int{0}}); err == nil {
		t.Fatal("missing eval should error")
	}
	if _, err := Random(f.request([]int{0, 1}, 1)); err == nil {
		t.Fatal("insufficient capacity should error")
	}
	// Nodes outside the topology used to panic RS and GA; a duplicated
	// node counted twice towards capacity, and RS then drew forever for a
	// free slot on a pool that had none.
	for _, pool := range [][]int{{0, 1, 2, -1}, {0, 1, 2, f.topo.NumNodes()}, {0, 1, 2, 2}} {
		for name, run := range map[string]func(*Request) (*Decision, error){
			"rs": Random, "cs": SimulatedAnnealing, "ga": Genetic, "exhaustive": Exhaustive,
		} {
			if _, err := run(f.request(pool, 1)); err == nil {
				t.Fatalf("%s: pool %v accepted", name, pool)
			}
		}
	}
	// An effort past MaxEffort is refused before any search state is
	// sized from it: at 1<<42, SA's restart fan alone would ask for ~49 GB.
	for _, effort := range []int{MaxEffort + 1, 1 << 42} {
		for name, run := range map[string]func(*Request) (*Decision, error){
			"rs": Random, "cs": SimulatedAnnealing, "ncs": SimulatedAnnealingNoComm, "ga": Genetic, "exhaustive": Exhaustive,
		} {
			req := f.request(allNodes(f), 1)
			req.Effort = effort
			if _, err := run(req); err == nil || !strings.Contains(err.Error(), "effort") {
				t.Fatalf("%s: effort %d: err = %v, want the effort cap", name, effort, err)
			}
		}
	}
	req := f.request(allNodes(f), 1)
	req.Effort = MaxEffort
	if err := req.validate(); err != nil {
		t.Fatalf("effort at the cap refused: %v", err)
	}
}

func BenchmarkCS(b *testing.B) {
	f := newFixture(&testing.T{})
	pool := allNodes(f)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SimulatedAnnealing(f.request(pool, int64(i))); err != nil {
			b.Fatal(err)
		}
	}
}
