package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"cbes/internal/bench"
	"cbes/internal/cluster"
	"cbes/internal/monitor"
	"cbes/internal/netmodel"
	"cbes/internal/obs"
	"cbes/internal/profile"
	"cbes/internal/raceflag"
	"cbes/internal/trace"
	"cbes/internal/workloads"
)

// syntheticEvaluator builds an evaluator over a random topology with a
// hand-made profile (random segments, compute terms, and message groups),
// so the fast path is exercised on shapes far beyond the paper testbeds.
func syntheticEvaluator(t testing.TB, seed int64) (*Evaluator, *rand.Rand) {
	t.Helper()
	topo := cluster.NewRandom(seed, cluster.RandomSpec{MaxSwitches: 3, MaxNodesPerSwitch: 4})
	return syntheticEvaluatorOn(t, topo, seed)
}

// syntheticEvaluatorOn is syntheticEvaluator over a given topology.
func syntheticEvaluatorOn(t testing.TB, topo *cluster.Topology, seed int64) (*Evaluator, *rand.Rand) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	model := bench.Calibrate(topo, bench.Options{Reps: 2, Sizes: []int64{64, 4 << 10}, SkipLoadFit: rng.Intn(2) == 0})
	// Calibration fits one load coefficient for both ends of a path; make
	// the receive side differ so a send/receive mix-up cannot hide.
	for sig, c := range model.Classes {
		c.CRecv = 2*c.CSend + 1e-6
		model.SetClass(sig, c)
	}

	n := topo.NumNodes()
	ranks := 2 + rng.Intn(6)
	if ranks > n {
		ranks = n
	}
	profMap := make([]int, ranks)
	for r := range profMap {
		profMap[r] = rng.Intn(n)
	}
	prof := &profile.Profile{
		App:       fmt.Sprintf("syn-%d", seed),
		Cluster:   topo.Name,
		Mapping:   profMap,
		ArchSpeed: map[cluster.Arch]float64{},
	}
	for i := 0; i < n; i++ {
		a := topo.Node(i).Arch
		if _, ok := prof.ArchSpeed[a]; !ok {
			prof.ArchSpeed[a] = 0.5 + rng.Float64()
		}
	}
	segs := 1 + rng.Intn(3)
	for s := 0; s < segs; s++ {
		sp := profile.SegmentProfile{Name: fmt.Sprintf("seg%d", s)}
		// With probability ½ a later segment repeats an earlier one's
		// message groups with fresh compute terms, as a phased profile
		// repeats its exchange every iteration, so entries of different
		// segments share Θ rows.
		var repeat []profile.ProcProfile
		if s > 0 && rng.Intn(2) == 0 {
			repeat = prof.Segments[rng.Intn(s)].Procs
		}
		for r := 0; r < ranks; r++ {
			pp := profile.ProcProfile{
				Rank: r,
				X:    rng.Float64() * 2,
				O:    rng.Float64() * 0.2,
				B:    rng.Float64() * 0.5,
			}
			if repeat != nil {
				pp.Sends, pp.Recvs = repeat[r].Sends, repeat[r].Recvs
				sp.Procs = append(sp.Procs, pp)
				continue
			}
			for g := rng.Intn(3); g > 0; g-- {
				pp.Sends = append(pp.Sends, trace.MsgGroup{
					Peer: rng.Intn(ranks), Size: randomMsgSize(rng), Count: 1 + rng.Intn(20),
				})
			}
			for g := rng.Intn(3); g > 0; g-- {
				pp.Recvs = append(pp.Recvs, trace.MsgGroup{
					Peer: rng.Intn(ranks), Size: randomMsgSize(rng), Count: 1 + rng.Intn(20),
				})
			}
			sp.Procs = append(sp.Procs, pp)
		}
		prof.Segments = append(prof.Segments, sp)
	}
	eval, err := NewEvaluator(topo, model, prof)
	if err != nil {
		t.Fatal(err)
	}
	return eval, rng
}

// sharedRows counts the entries of e whose Θ row an earlier entry already
// uses: the Θ sums a full evaluation saves by sharing rows.
func sharedRows(e *Evaluator) int {
	n := 0
	for _, row := range e.fastIx.rowOf {
		if row >= 0 {
			n++
		}
	}
	return n - (len(e.fastIx.rowOff) - 1)
}

// randomMsgSize draws a message size from 1 B to 32 kB: below the first
// (64 B) and above the last (4 kB) point of the synthetic calibration, so
// the Lc tables see the curve's clamp and its extrapolation too.
func randomMsgSize(rng *rand.Rand) int64 { return 1 << rng.Intn(16) }

// randomSnapshot draws per-node forecasts, with the edges of the latency
// model's branches mixed in: CPU availability of 0, exactly 1 and above 1
// (no load term), NIC utilization of 0 and above the 0.9 queueing cap.
func randomSnapshot(n int, rng *rand.Rand) *monitor.Snapshot {
	s := monitor.IdleSnapshot(n)
	for i := 0; i < n; i++ {
		switch rng.Intn(8) {
		case 0:
			s.AvailCPU[i] = 0
		case 1:
			s.AvailCPU[i] = 1
		case 2:
			s.AvailCPU[i] = 1 + rng.Float64()
		default:
			s.AvailCPU[i] = 0.05 + 0.95*rng.Float64()
		}
		switch rng.Intn(6) {
		case 0:
			s.NICUtil[i] = 0
		case 1:
			s.NICUtil[i] = 0.9 + 0.5*rng.Float64()
		default:
			s.NICUtil[i] = 0.95 * rng.Float64()
		}
	}
	return s
}

func randomValidMapping(ranks, nodes int, rng *rand.Rand) Mapping {
	m := make(Mapping, ranks)
	for r := range m {
		m[r] = rng.Intn(nodes)
	}
	return m
}

// randomHealth marks roughly a fifth of snap's nodes suspect and, when
// withDown is set, a tenth down.
func randomHealth(snap *monitor.Snapshot, rng *rand.Rand, withDown bool) *monitor.Snapshot {
	snap.Health = make([]monitor.Health, len(snap.AvailCPU))
	for i := range snap.Health {
		switch p := rng.Float64(); {
		case p < 0.2:
			snap.Health[i] = monitor.HealthSuspect
		case p < 0.3 && withDown:
			snap.Health[i] = monitor.HealthDown
			snap.AvailCPU[i] = 0
		}
	}
	return snap
}

// same is bit-for-bit float equality, NaN matching NaN.
func same(a, b float64) bool { return a == b || (math.IsNaN(a) && math.IsNaN(b)) }

// nearlyEqual reports whether a and b agree to within rel of the larger.
func nearlyEqual(a, b, rel float64) bool {
	return math.Abs(a-b) <= rel*math.Max(math.Abs(a), math.Abs(b))
}

// assertBrownoutMatchesOracle checks PredictBrownout for one valid mapping:
// labeled Brownout with Critical -1, equal to oracleBrownout at relative
// 1e-12 (the kernel sums a rank's segments before multiplying out, the
// oracle after), and no greater than Estimate on the idle snapshot beyond
// that rounding.
func assertBrownoutMatchesOracle(t testing.TB, e *Evaluator, m Mapping, what string) {
	t.Helper()
	got, err := e.PredictBrownout(m)
	if err != nil {
		t.Fatalf("%s: PredictBrownout: %v", what, err)
	}
	if !got.Brownout || got.Critical != -1 || got.Degraded || got.StaleNodes != nil {
		t.Fatalf("%s: brownout estimate %+v, want labeled Brownout with Critical -1", what, got)
	}
	want, err := oracleBrownout(e, m)
	if err != nil {
		t.Fatal(err)
	}
	if !nearlyEqual(got.Seconds, want, 1e-12) {
		t.Fatalf("%s: brownout %v != oracle %v", what, got.Seconds, want)
	}
	est, err := e.Estimate(m, monitor.IdleSnapshot(e.Topo.NumNodes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Seconds > est.Seconds*(1+1e-12) {
		t.Fatalf("%s: brownout %v exceeds Estimate %v on the idle snapshot", what, got.Seconds, est.Seconds)
	}
}

// assertMatchesOracle checks the production entry points — Energy on sc
// and pooled, Estimate, and Predict — against oraclePredict for one mapping:
// every field exactly, or the same error.
func assertMatchesOracle(t testing.TB, e *Evaluator, sc *Scorer, m Mapping, snap *monitor.Snapshot, what string) {
	t.Helper()
	want, werr := oraclePredict(e, m, snap)
	en, nerr := sc.Energy(m, snap)
	pen, pnerr := e.Energy(m, snap)
	est, eerr := e.Estimate(m, snap)
	pred, perr := e.Predict(m, snap)
	if werr != nil {
		for name, err := range map[string]error{"Energy": nerr, "pooled Energy": pnerr, "Estimate": eerr, "Predict": perr} {
			if err == nil || err.Error() != werr.Error() {
				t.Fatalf("%s: %s error %v, oracle error %v", what, name, err, werr)
			}
		}
		return
	}
	if nerr != nil || pnerr != nil || eerr != nil || perr != nil {
		t.Fatalf("%s: errors %v / %v / %v / %v, oracle succeeded", what, nerr, pnerr, eerr, perr)
	}
	if !same(en, want.Seconds) || !same(pen, want.Seconds) {
		t.Fatalf("%s: Energy %v, pooled %v != oracle %v", what, en, pen, want.Seconds)
	}
	wantEst := Estimate{Seconds: want.Seconds, Critical: -1, Degraded: want.Degraded, StaleNodes: want.StaleNodes}
	if len(want.Segments) > 0 {
		wantEst.Critical = want.Segments[0].Critical
	}
	if !same(est.Seconds, wantEst.Seconds) || est.Critical != wantEst.Critical || est.Degraded != wantEst.Degraded ||
		!reflect.DeepEqual(est.StaleNodes, wantEst.StaleNodes) || est.Brownout {
		t.Fatalf("%s: Estimate %+v != oracle %+v", what, est, wantEst)
	}
	if !pred.Mapping.Equal(want.Mapping) || !same(pred.Seconds, want.Seconds) || pred.Degraded != want.Degraded ||
		!reflect.DeepEqual(pred.StaleNodes, want.StaleNodes) || len(pred.Segments) != len(want.Segments) {
		t.Fatalf("%s: Predict %+v != oracle %+v", what, pred, want)
	}
	for si, ws := range want.Segments {
		gs := pred.Segments[si]
		if gs.Name != ws.Name || !same(gs.Seconds, ws.Seconds) || gs.Critical != ws.Critical || len(gs.Procs) != len(ws.Procs) {
			t.Fatalf("%s segment %d: Predict %+v != oracle %+v", what, si, gs, ws)
		}
		for pi, wp := range ws.Procs {
			if gp := gs.Procs[pi]; gp.Rank != wp.Rank || !same(gp.R, wp.R) || !same(gp.C, wp.C) || !same(gp.Lambda, wp.Lambda) {
				t.Fatalf("%s segment %d proc %d: Predict %+v != oracle %+v", what, si, pi, gp, wp)
			}
		}
	}
}

// TestFastPathEquivalence: Energy, Estimate, and Predict ≡ the oracle over
// randomized topologies (and one structured, algebraically routed one),
// profiles, mappings, and healthy / suspect-node / down-node snapshots, with
// and without the communication term (run under -race in CI).
func TestFastPathEquivalence(t *testing.T) {
	fat, err := cluster.FromSpec("fattree:4")
	if err != nil {
		t.Fatal(err)
	}
	shared := 0
	for seed := int64(0); seed < 13; seed++ {
		eval, rng := syntheticEvaluator(t, seed)
		if seed == 12 {
			eval, rng = syntheticEvaluatorOn(t, fat, seed)
		}
		shared += sharedRows(eval)
		n := eval.Topo.NumNodes()
		snaps := []struct {
			kind string
			snap *monitor.Snapshot
		}{
			{"healthy", randomSnapshot(n, rng)},
			{"suspect", randomHealth(randomSnapshot(n, rng), rng, false)},
			{"down", randomHealth(randomSnapshot(n, rng), rng, true)},
		}
		for _, e := range []*Evaluator{eval, eval.CommBlind()} {
			sc := e.Scorer()
			for _, sn := range snaps {
				snap := sn.snap
				for trial := 0; trial < 25; trial++ {
					m := randomValidMapping(len(e.Prof.Mapping), n, rng)
					what := fmt.Sprintf("seed %d %s blind=%v trial %d", seed, sn.kind, e.ignoreComm, trial)
					assertMatchesOracle(t, e, sc, m, snap, what)
				}
			}
		}
	}
	if shared == 0 {
		t.Fatal("no fixture shares a Θ row across segments")
	}
}

// TestEstimateDoesNotAllocate: the service's miss path pays no allocation
// for an evaluation on a healthy snapshot, on a synthetic profile and on a
// segmented one whose segments repeat one exchange.
func TestEstimateDoesNotAllocate(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	syn, rng := syntheticEvaluator(t, 5)
	phased := newFixtureWith(t, cluster.NewTestTopology(), []int{0, 1, 2, 3}, workloads.Phased(12, 4).Body).eval
	if sharedRows(phased) == 0 {
		t.Fatal("Phased(12,4) shares no Θ row")
	}
	for _, eval := range []*Evaluator{syn, phased} {
		n := eval.Topo.NumNodes()
		snap := randomSnapshot(n, rng)
		m := randomValidMapping(len(eval.Prof.Mapping), n, rng)
		if avg := testing.AllocsPerRun(200, func() {
			if _, err := eval.Estimate(m, snap); err != nil {
				t.Fatal(err)
			}
		}); avg != 0 {
			t.Fatalf("%s: Estimate allocates %v times per call on a healthy snapshot, want 0", eval.Prof.App, avg)
		}
		if avg := testing.AllocsPerRun(200, func() {
			if _, err := eval.PredictBrownout(m); err != nil {
				t.Fatal(err)
			}
		}); avg != 0 {
			t.Fatalf("%s: PredictBrownout allocates %v times per call, want 0", eval.Prof.App, avg)
		}
	}
}

// TestEstimateMatchesOracleOnPhased: on a recorded Phased(12,4) profile,
// whose thirteen segments repeat one ring exchange and so share their Θ
// rows, Estimate and Predict equal the oracle on healthy and suspect-node
// snapshots, and so does the running energy of 200 random Apply/Undo
// steps.
func TestEstimateMatchesOracleOnPhased(t *testing.T) {
	eval := newFixtureWith(t, cluster.NewTestTopology(), []int{0, 1, 2, 3}, workloads.Phased(12, 4).Body).eval
	if sharedRows(eval) == 0 {
		t.Fatal("Phased(12,4) shares no Θ row")
	}
	rng := rand.New(rand.NewSource(12))
	n, ranks := eval.Topo.NumNodes(), len(eval.Prof.Mapping)
	for _, snap := range []*monitor.Snapshot{randomSnapshot(n, rng), randomHealth(randomSnapshot(n, rng), rng, false)} {
		sc := eval.Scorer()
		for trial := 0; trial < 10; trial++ {
			assertMatchesOracle(t, eval, sc, randomValidMapping(ranks, n, rng), snap, fmt.Sprintf("trial %d", trial))
		}
		for step := 0; step < 200; step++ {
			got := sc.Apply(randomMove(rng, ranks, n))
			if rng.Intn(3) == 0 {
				sc.Undo()
				got = sc.EnergyNow()
			}
			want, err := oraclePredict(eval, sc.Current(), snap)
			if err != nil {
				t.Fatal(err)
			}
			if !same(got, want.Seconds) {
				t.Fatalf("step %d: delta %v != oracle %v", step, got, want.Seconds)
			}
		}
		assertMatchesOracle(t, eval, eval.Scorer(), sc.Current().Clone(), snap, "after the walk")
	}
}

// TestEnergyDeltaNoDrift walks long random move/swap sequences (the classic
// incremental-evaluator failure mode) and checks after every Apply that the
// running energy matches the oracle's prediction of the moved mapping, that
// Undo restores the previous energy exactly, and that unwinding the whole
// journal returns to the initial state.
func TestEnergyDeltaNoDrift(t *testing.T) {
	shared := 0
	for seed := int64(0); seed < 8; seed++ {
		eval, rng := syntheticEvaluator(t, 100+seed)
		shared += sharedRows(eval)
		n := eval.Topo.NumNodes()
		ranks := len(eval.Prof.Mapping)
		snap := randomSnapshot(n, rng)
		sc := eval.Scorer()
		m := randomValidMapping(ranks, n, rng)
		e0, err := sc.Energy(m, snap)
		if err != nil {
			t.Fatal(err)
		}
		var applied int
		for step := 0; step < 120; step++ {
			before := sc.EnergyNow()
			got := sc.Apply(randomMove(rng, ranks, n))
			applied++
			want, err := oraclePredict(eval, sc.Current(), snap)
			if err != nil {
				t.Fatal(err)
			}
			if !same(got, want.Seconds) {
				t.Fatalf("seed %d step %d apply: delta %v != oracle %v", seed, step, got, want.Seconds)
			}
			if got != sc.EnergyNow() {
				t.Fatal("Apply return disagrees with EnergyNow")
			}
			// Occasionally reject the move, like the annealer does.
			if rng.Intn(3) == 0 {
				sc.Undo()
				applied--
				if !same(sc.EnergyNow(), before) {
					t.Fatalf("seed %d step %d undo: %v != %v", seed, step, sc.EnergyNow(), before)
				}
			}
		}
		for ; applied > 0; applied-- {
			sc.Undo()
		}
		if !same(sc.EnergyNow(), e0) {
			t.Fatalf("seed %d full unwind: %v != %v", seed, sc.EnergyNow(), e0)
		}
		if !sc.Current().Equal(m) {
			t.Fatalf("seed %d: unwound mapping %v != initial %v", seed, sc.Current(), m)
		}
	}
	if shared == 0 {
		t.Fatal("no fixture shares a Θ row across segments")
	}
}

// TestCommBlindFastPath: the NCS evaluator derived with CommBlind matches
// the comm-blind oracle, stays below the full prediction, and shares the
// index.
func TestCommBlindFastPath(t *testing.T) {
	eval, rng := syntheticEvaluator(t, 7)
	blind := eval.CommBlind()
	if !blind.ignoreComm || eval.ignoreComm || blind.fastIx != eval.fastIx {
		t.Fatal("CommBlind flags or index sharing wrong")
	}
	n := eval.Topo.NumNodes()
	snap := randomSnapshot(n, rng)
	sc := blind.Scorer()
	for trial := 0; trial < 20; trial++ {
		m := randomValidMapping(len(eval.Prof.Mapping), n, rng)
		assertMatchesOracle(t, blind, sc, m, snap, "comm-blind")
		got := sc.EnergyNow()
		full, err := eval.Energy(m, snap)
		if err != nil {
			t.Fatal(err)
		}
		if got > full {
			t.Fatalf("comm-blind energy %v above full %v", got, full)
		}
	}
}

// randomMove draws a swap or a single-rank move, degenerate ones included.
func randomMove(rng *rand.Rand, ranks, nodes int) Move {
	if rng.Intn(2) == 0 && ranks >= 2 {
		return Move{Swap: true, A: rng.Intn(ranks), B: rng.Intn(ranks)}
	}
	return Move{Rank: rng.Intn(ranks), To: rng.Intn(nodes)}
}

// TestCommBlindDeltaMatchesFresh: under ignoreComm, Apply re-scores only
// the moved ranks' and the co-located entries, so after any random
// Apply/Undo/Commit sequence the running NCS energy must still equal a
// fresh CommBlind evaluation of the current mapping, exactly.
func TestCommBlindDeltaMatchesFresh(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		eval, rng := syntheticEvaluator(t, 200+seed)
		blind := eval.CommBlind()
		n, ranks := eval.Topo.NumNodes(), len(eval.Prof.Mapping)
		snap := randomSnapshot(n, rng)
		sc := blind.Scorer()
		if _, err := sc.Energy(randomValidMapping(ranks, n, rng), snap); err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 200; step++ {
			sc.Apply(randomMove(rng, ranks, n))
			switch rng.Intn(3) {
			case 0:
				sc.Undo()
			case 1:
				sc.Commit()
			}
			want, err := blind.Energy(sc.Current(), snap)
			if err != nil {
				t.Fatal(err)
			}
			if !same(sc.EnergyNow(), want) {
				t.Fatalf("seed %d step %d: NCS delta %v != fresh %v", seed, step, sc.EnergyNow(), want)
			}
		}
	}
}

// uncalibratedFixture returns an evaluator of a synthetic profile, with
// every rank profiled on node 0, under a model missing the path class of
// nodes (0, 1), and a mapping that puts one peer of a communicating (λ ≠ 0)
// entry on node 1 and every other rank on node 0, so that entry's C term
// reads the missing class. The profiling mapping crosses only node 0's
// loopback class, so the evaluator still derives every λ.
func uncalibratedFixture(t *testing.T) (*Evaluator, Mapping) {
	t.Helper()
	full, _ := syntheticEvaluator(t, 9)
	prof := *full.Prof
	prof.Mapping = make([]int, len(prof.Mapping))
	missing := full.Topo.PathSignature(0, 1)
	model := netmodel.New(full.Topo)
	for sig, c := range full.Model.Classes {
		if sig != missing {
			model.SetClass(sig, c)
		}
	}
	eval, err := NewEvaluator(full.Topo, model, &prof)
	if err != nil {
		t.Fatal(err)
	}
	var src *profile.ProcProfile
	var peer, f int
	for si := range eval.Prof.Segments {
		for pi := range eval.Prof.Segments[si].Procs {
			pp := &eval.Prof.Segments[si].Procs[pi]
			for _, g := range pp.Sends {
				if eval.fastIx.lambda[f] != 0 && g.Peer != pp.Rank {
					src, peer = pp, g.Peer
				}
			}
			f++
		}
	}
	if src == nil {
		t.Fatal("fixture has no communicating entry")
	}
	m := make(Mapping, len(prof.Mapping))
	m[peer] = 1 // every other rank, src.Rank included, on node 0
	return eval, m
}

// TestUncalibratedClassPanics: a mapping that sends across a path class the
// model never calibrated fails the way Model.Latency does — a panic naming
// the pair — even though the kernel reads Lc from its tables.
func TestUncalibratedClassPanics(t *testing.T) {
	e, m := uncalibratedFixture(t)
	defer func() {
		msg, _ := recover().(string)
		if !strings.HasPrefix(msg, "netmodel: no calibration for pair") {
			t.Fatalf("panic %q, want netmodel: no calibration for pair ...", msg)
		}
	}()
	e.Energy(m, monitor.IdleSnapshot(e.Topo.NumNodes()))
	t.Fatal("Energy over an uncalibrated class did not panic")
}

// TestZeroLambdaSkipsUncalibratedPair: an entry with λ = 0 (here B = 0)
// contributes no C term, so its message groups are no links and a mapping
// where only such entries cross an uncalibrated class evaluates, and
// matches the oracle, instead of panicking.
func TestZeroLambdaSkipsUncalibratedPair(t *testing.T) {
	eval, m := uncalibratedFixture(t)
	prof := *eval.Prof
	prof.Segments = make([]profile.SegmentProfile, len(eval.Prof.Segments))
	zeroed := 0
	for si, seg := range eval.Prof.Segments {
		prof.Segments[si] = seg
		prof.Segments[si].Procs = append([]profile.ProcProfile(nil), seg.Procs...)
		for pi := range prof.Segments[si].Procs {
			pp := &prof.Segments[si].Procs[pi]
			for _, gs := range [][]trace.MsgGroup{pp.Sends, pp.Recvs} {
				for _, g := range gs {
					if m[g.Peer] != m[pp.Rank] && pp.B != 0 {
						pp.B = 0
						zeroed++
					}
				}
			}
		}
	}
	if zeroed == 0 {
		t.Fatal("no entry crosses the uncalibrated pair")
	}
	e, err := NewEvaluator(eval.Topo, eval.Model, &prof)
	if err != nil {
		t.Fatal(err)
	}
	snap := monitor.IdleSnapshot(eval.Topo.NumNodes())
	assertMatchesOracle(t, e, e.Scorer(), m, snap, "λ = 0 across an uncalibrated pair")
}

// TestSwapUndoRestoresSharedLink: swapping two ranks that message each
// other recomputes and journals their shared link once per endpoint; Undo
// must still restore every link, term and maximum bit for bit, as a freshly
// primed scorer of the original mapping has them.
func TestSwapUndoRestoresSharedLink(t *testing.T) {
	eval, rng := syntheticEvaluator(t, 9)
	ix := eval.fastIx
	shared := -1
	for l, ln := range ix.links {
		if ln.src != ln.dst {
			shared = l
			break
		}
	}
	if shared < 0 {
		t.Fatal("fixture has no link between two ranks")
	}
	a, b := int(ix.links[shared].src), int(ix.links[shared].dst)
	n := eval.Topo.NumNodes()
	snap := randomSnapshot(n, rng)
	m := randomValidMapping(len(eval.Prof.Mapping), n, rng)
	m[a], m[b] = 0, 1
	sc := eval.Scorer()
	if _, err := sc.Energy(m, snap); err != nil {
		t.Fatal(err)
	}
	sc.Apply(Move{Swap: true, A: a, B: b})
	if fr := sc.frames[sc.depth-1]; fr.noop || len(fr.links) != len(ix.rankLinks[a])+len(ix.rankLinks[b]) {
		t.Fatalf("swap journaled %d links, want %d", len(fr.links), len(ix.rankLinks[a])+len(ix.rankLinks[b]))
	}
	swapped := eval.Scorer()
	if _, err := swapped.Energy(sc.Current().Clone(), snap); err != nil {
		t.Fatal(err)
	}
	assertSameScorerState(t, sc, swapped, "after the swap")
	sc.Undo()
	fresh := eval.Scorer()
	if _, err := fresh.Energy(m, snap); err != nil {
		t.Fatal(err)
	}
	assertSameScorerState(t, sc, fresh, "after Undo")
}

// assertSameScorerState checks two primed scorers hold the same mapping,
// multiplicities, links, terms, maxima and total, bit for bit.
func assertSameScorerState(t *testing.T, got, want *Scorer, what string) {
	t.Helper()
	floats := func(name string, g, w []float64) {
		for i := range w {
			if !same(g[i], w[i]) {
				t.Fatalf("%s: %s[%d] = %v, want %v", what, name, i, g[i], w[i])
			}
		}
	}
	if !got.m.Equal(want.m) || !reflect.DeepEqual(got.mult, want.mult) {
		t.Fatalf("%s: mapping %v, want %v", what, got.m, want.m)
	}
	floats("linkLat", got.linkLat, want.linkLat)
	floats("r", got.r, want.r)
	floats("c", got.c, want.c)
	floats("segMax", got.segMax, want.segMax)
	if !same(got.total, want.total) {
		t.Fatalf("%s: total %v, want %v", what, got.total, want.total)
	}
}

// TestScorerCountsPublishedExactly: Apply, Undo and rescored-term counts
// kept in each scorer reach the process-wide series exactly — through the
// next full evaluation or an explicit Publish — with several scorers
// counting concurrently, as parallel SA restarts do.
func TestScorerCountsPublishedExactly(t *testing.T) {
	eval, rng := syntheticEvaluator(t, 21)
	n, ranks := eval.Topo.NumNodes(), len(eval.Prof.Mapping)
	snap := randomSnapshot(n, rng)
	series := []*obs.Counter{metricEnergyDelta, metricUndos, metricDeltaTouched}
	var before [3]uint64
	for i, c := range series {
		before[i] = c.Value()
	}
	want := make([][3]uint64, 4)
	var wg sync.WaitGroup
	for w := range want {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			sc := eval.Scorer()
			if _, err := sc.Energy(randomValidMapping(ranks, n, rng), snap); err != nil {
				t.Error(err)
				return
			}
			for step := 0; step < 400; step++ {
				sc.Apply(randomMove(rng, ranks, n))
				want[w][0]++
				if !sc.frames[sc.depth-1].noop {
					want[w][2] += uint64(len(sc.touched))
				}
				switch rng.Intn(3) {
				case 0:
					sc.Undo()
					want[w][1]++
				case 1:
					sc.Commit()
				}
				if step == 200 { // a re-prime publishes what is pending
					if _, err := sc.Energy(sc.Current().Clone(), snap); err != nil {
						t.Error(err)
						return
					}
				}
			}
			sc.Publish()
		}(w)
	}
	wg.Wait()
	for i, c := range series {
		total := uint64(0)
		for w := range want {
			total += want[w][i]
		}
		if got := c.Value() - before[i]; got != total {
			t.Errorf("series %d: published %d, scorers counted %d", i, got, total)
		}
	}
}

// TestScorerRejectsInvalid mirrors Predict's validation.
func TestScorerRejectsInvalid(t *testing.T) {
	eval, rng := syntheticEvaluator(t, 3)
	_ = rng
	sc := eval.Scorer()
	snap := monitor.IdleSnapshot(eval.Topo.NumNodes())
	if _, err := sc.Energy(make(Mapping, len(eval.Prof.Mapping)+1), snap); err == nil {
		t.Fatal("rank mismatch accepted")
	}
	bad := make(Mapping, len(eval.Prof.Mapping))
	bad[0] = 9999
	if _, err := sc.Energy(bad, snap); err == nil {
		t.Fatal("invalid node accepted")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Apply before Energy did not panic")
		}
	}()
	eval.Scorer().Apply(Move{})
}

// TestEvaluatorConcurrentUse hammers a shared evaluator from several
// goroutines mixing Predict, Estimate, pooled Energy, and per-goroutine scorers — the
// shareability contract the parallel schedulers rely on (meaningful under
// -race) — and PredictBrownout, whose index the first caller builds.
func TestEvaluatorConcurrentUse(t *testing.T) {
	eval, rng := syntheticEvaluator(t, 11)
	n := eval.Topo.NumNodes()
	snap := randomSnapshot(n, rng)
	ms := make([]Mapping, 64)
	want, brown := make([]float64, len(ms)), make([]float64, len(ms))
	for i := range ms {
		ms[i] = randomValidMapping(len(eval.Prof.Mapping), n, rng)
		p, err := oraclePredict(eval, ms[i], snap)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = p.Seconds
		if brown[i], err = oracleBrownout(eval, ms[i]); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sc := eval.Scorer()
			for i, m := range ms {
				var got float64
				var err error
				switch (i + w) % 4 {
				case 0:
					var p *Prediction
					p, err = eval.Predict(m, snap)
					if p != nil {
						got = p.Seconds
					}
				case 1:
					var est Estimate
					est, err = eval.Estimate(m, snap)
					got = est.Seconds
				case 2:
					got, err = eval.Energy(m, snap)
				default:
					got, err = sc.Energy(m, snap)
				}
				if err != nil || got != want[i] {
					t.Errorf("worker %d mapping %d: got %v err %v, want %v", w, i, got, err, want[i])
					return
				}
				if b, err := eval.PredictBrownout(m); err != nil || !nearlyEqual(b.Seconds, brown[i], 1e-12) {
					t.Errorf("worker %d mapping %d: brownout %v err %v, want %v", w, i, b.Seconds, err, brown[i])
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// FuzzEnergyDelta drives the evaluator with fuzz-derived mappings and move
// sequences on a fixed synthetic fixture: seven ranks over three segments,
// one repeating another's message groups, so Θ rows are shared. mapSeed also picks the snapshot
// (healthy, suspect-node, down-node) and whether the communication term is
// on; the starting and final mappings are checked field by field against
// the oracle through all three entry points, and every step's running
// energy against the oracle's total. A byte of 0xf0 or above undoes the
// latest Apply while the journal holds one; any other byte and the next
// one encode a move or a swap.
func FuzzEnergyDelta(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 2, 3, 4, 5})
	f.Add(int64(2), []byte{0xff, 0x80, 0x01, 0x40, 0x7f})
	f.Add(int64(3), []byte{})
	f.Add(int64(4), []byte{9, 200, 31, 7})
	f.Add(int64(5), []byte{1, 1})
	f.Add(int64(6), []byte{2, 3, 77, 5, 128, 64})
	f.Add(int64(7), []byte{0, 1, 0xf3, 6, 9, 3, 4, 0xff, 0xfe, 0xf0, 2, 3})
	eval, rng := syntheticEvaluator(f, 3)
	if sharedRows(eval) == 0 {
		f.Fatal("fixture shares no Θ row")
	}
	n := eval.Topo.NumNodes()
	ranks := len(eval.Prof.Mapping)
	snaps := []*monitor.Snapshot{
		randomSnapshot(n, rng),
		randomHealth(randomSnapshot(n, rng), rng, false),
		randomHealth(randomSnapshot(n, rng), rng, true),
	}
	evals := []*Evaluator{eval, eval.CommBlind()}
	f.Fuzz(func(t *testing.T, mapSeed int64, moves []byte) {
		pick := uint64(mapSeed)
		e, snap := evals[pick%2], snaps[pick/2%3]
		sc := e.Scorer()
		m := randomValidMapping(ranks, n, rand.New(rand.NewSource(mapSeed)))
		assertMatchesOracle(t, e, sc, m, snap, "start")
		if _, _, down := snap.HealthCounts(); down > 0 {
			return // Apply does not re-check health: schedulers filter down nodes from the pool
		}
		assertBrownoutMatchesOracle(t, e, m, "start")
		if len(moves) > 64 {
			moves = moves[:64]
		}
		for i := 0; i < len(moves); {
			if moves[i] >= 0xf0 && sc.depth > 0 {
				sc.Undo()
				i++
				want, err := oraclePredict(e, sc.Current(), snap)
				if err != nil {
					t.Fatal(err)
				}
				if !same(sc.EnergyNow(), want.Seconds) {
					t.Fatalf("undo at byte %d: energy %v != oracle %v", i-1, sc.EnergyNow(), want.Seconds)
				}
				continue
			}
			if i+1 == len(moves) {
				break
			}
			a, b := int(moves[i]), int(moves[i+1])
			i += 2
			var mv Move
			if a&1 == 0 {
				mv = Move{Swap: true, A: (a >> 1) % ranks, B: b % ranks}
			} else {
				mv = Move{Rank: (a >> 1) % ranks, To: b % n}
			}
			got := sc.Apply(mv)
			want, err := oraclePredict(e, sc.Current(), snap)
			if err != nil {
				t.Fatal(err)
			}
			if !same(got, want.Seconds) {
				t.Fatalf("move at byte %d: delta %v != oracle %v", i-2, got, want.Seconds)
			}
		}
		assertMatchesOracle(t, e, e.Scorer(), sc.Current(), snap, "end")
	})
}

// BenchmarkScorerEnergyFatTree5k guards prime at 5k nodes: a full Energy on
// fattree:28 (5 488 nodes, algebraic routing) pays the O(nodes) snapshot
// load and multiplicity reset around scoring a handful of ranks, so any
// per-node work added to prime shows here first.
func BenchmarkScorerEnergyFatTree5k(b *testing.B) {
	topo, err := cluster.FromSpec("fattree:28")
	if err != nil {
		b.Fatal(err)
	}
	eval, rng := syntheticEvaluatorOn(b, topo, 1)
	n := topo.NumNodes()
	snap := randomSnapshot(n, rng)
	m := randomValidMapping(len(eval.Prof.Mapping), n, rng)
	sc := eval.Scorer()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sc.Energy(m, snap); err != nil {
			b.Fatal(err)
		}
	}
}
