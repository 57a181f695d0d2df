package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"cbes/internal/bench"
	"cbes/internal/cluster"
	"cbes/internal/monitor"
	"cbes/internal/profile"
	"cbes/internal/raceflag"
	"cbes/internal/trace"
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
		Ranks:     ranks,
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
		for r := 0; r < ranks; r++ {
			pp := profile.ProcProfile{
				Rank:      r,
				X:         rng.Float64() * 2,
				O:         rng.Float64() * 0.2,
				B:         rng.Float64() * 0.5,
				ProfNode:  profMap[r],
				ProfSpeed: prof.ArchSpeed[topo.Node(profMap[r]).Arch],
			}
			for g := rng.Intn(3); g > 0; g-- {
				pp.Sends = append(pp.Sends, trace.MsgGroup{
					Peer: rng.Intn(ranks), Size: 64 << rng.Intn(7), Count: 1 + rng.Intn(20),
				})
			}
			for g := rng.Intn(3); g > 0; g-- {
				pp.Recvs = append(pp.Recvs, trace.MsgGroup{
					Peer: rng.Intn(ranks), Size: 64 << rng.Intn(7), Count: 1 + rng.Intn(20),
				})
			}
			sp.Procs = append(sp.Procs, pp)
		}
		prof.Segments = append(prof.Segments, sp)
	}
	if err := prof.ComputeLambdas(model); err != nil {
		t.Fatal(err)
	}
	eval, err := NewEvaluator(topo, model, prof)
	if err != nil {
		t.Fatal(err)
	}
	return eval, rng
}

func randomSnapshot(n int, rng *rand.Rand) *monitor.Snapshot {
	s := monitor.IdleSnapshot(n)
	for i := 0; i < n; i++ {
		s.AvailCPU[i] = 0.05 + 0.95*rng.Float64()
		s.NICUtil[i] = 0.95 * rng.Float64()
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
		!reflect.DeepEqual(pred.StaleNodes, want.StaleNodes) || pred.Brownout || len(pred.Segments) != len(want.Segments) {
		t.Fatalf("%s: Predict %+v != oracle %+v", what, pred, want)
	}
	for si, ws := range want.Segments {
		gs := pred.Segments[si]
		if gs.Name != ws.Name || !same(gs.Seconds, ws.Seconds) || gs.Critical != ws.Critical || len(gs.Procs) != len(ws.Procs) {
			t.Fatalf("%s segment %d: Predict %+v != oracle %+v", what, si, gs, ws)
		}
		for pi, wp := range ws.Procs {
			if gp := gs.Procs[pi]; gp.Rank != wp.Rank || !same(gp.R, wp.R) || !same(gp.C, wp.C) {
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
	for seed := int64(0); seed < 13; seed++ {
		eval, rng := syntheticEvaluator(t, seed)
		if seed == 12 {
			eval, rng = syntheticEvaluatorOn(t, fat, seed)
		}
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
					m := randomValidMapping(e.Prof.Ranks, n, rng)
					what := fmt.Sprintf("seed %d %s blind=%v trial %d", seed, sn.kind, e.IgnoreComm, trial)
					assertMatchesOracle(t, e, sc, m, snap, what)
				}
			}
		}
	}
}

// TestEstimateDoesNotAllocate: the service's miss path pays no allocation
// for an evaluation on a healthy snapshot.
func TestEstimateDoesNotAllocate(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	eval, rng := syntheticEvaluator(t, 5)
	n := eval.Topo.NumNodes()
	snap := randomSnapshot(n, rng)
	m := randomValidMapping(eval.Prof.Ranks, n, rng)
	if avg := testing.AllocsPerRun(200, func() {
		if _, err := eval.Estimate(m, snap); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("Estimate allocates %v times per call on a healthy snapshot, want 0", avg)
	}
}

// TestEnergyDeltaNoDrift walks long random move/swap sequences (the classic
// incremental-evaluator failure mode) and checks after every Apply that the
// running energy matches the oracle's prediction of the moved mapping, that
// Undo restores the previous energy exactly, and that unwinding the whole
// journal returns to the initial state.
func TestEnergyDeltaNoDrift(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		eval, rng := syntheticEvaluator(t, 100+seed)
		n := eval.Topo.NumNodes()
		ranks := eval.Prof.Ranks
		snap := randomSnapshot(n, rng)
		sc := eval.Scorer()
		m := randomValidMapping(ranks, n, rng)
		e0, err := sc.Energy(m, snap)
		if err != nil {
			t.Fatal(err)
		}
		var applied int
		for step := 0; step < 120; step++ {
			var mv Move
			if rng.Intn(2) == 0 && ranks >= 2 {
				mv = Move{Swap: true, A: rng.Intn(ranks), B: rng.Intn(ranks)}
			} else {
				mv = Move{Rank: rng.Intn(ranks), To: rng.Intn(n)}
			}
			before := sc.EnergyNow()
			got := sc.Apply(mv)
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
}

// TestCommBlindFastPath: the NCS evaluator derived with CommBlind matches
// the comm-blind oracle, stays below the full prediction, and shares the
// index.
func TestCommBlindFastPath(t *testing.T) {
	eval, rng := syntheticEvaluator(t, 7)
	blind := eval.CommBlind()
	if !blind.IgnoreComm || eval.IgnoreComm || blind.fastIx != eval.fastIx {
		t.Fatal("CommBlind flags or index sharing wrong")
	}
	n := eval.Topo.NumNodes()
	snap := randomSnapshot(n, rng)
	sc := blind.Scorer()
	for trial := 0; trial < 20; trial++ {
		m := randomValidMapping(eval.Prof.Ranks, n, rng)
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

// TestScorerRejectsInvalid mirrors Predict's validation.
func TestScorerRejectsInvalid(t *testing.T) {
	eval, rng := syntheticEvaluator(t, 3)
	_ = rng
	sc := eval.Scorer()
	snap := monitor.IdleSnapshot(eval.Topo.NumNodes())
	if _, err := sc.Energy(make(Mapping, eval.Prof.Ranks+1), snap); err == nil {
		t.Fatal("rank mismatch accepted")
	}
	bad := make(Mapping, eval.Prof.Ranks)
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
// -race).
func TestEvaluatorConcurrentUse(t *testing.T) {
	eval, rng := syntheticEvaluator(t, 11)
	n := eval.Topo.NumNodes()
	snap := randomSnapshot(n, rng)
	ms := make([]Mapping, 64)
	want := make([]float64, len(ms))
	for i := range ms {
		ms[i] = randomValidMapping(eval.Prof.Ranks, n, rng)
		p, err := oraclePredict(eval, ms[i], snap)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = p.Seconds
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
			}
		}(w)
	}
	wg.Wait()
}

// FuzzEnergyDelta drives the evaluator with fuzz-derived mappings and move
// sequences on a fixed synthetic fixture. mapSeed also picks the snapshot
// (healthy, suspect-node, down-node) and whether the communication term is
// on; the starting and final mappings are checked field by field against
// the oracle through all three entry points, and every step's running
// energy against the oracle's total.
func FuzzEnergyDelta(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 2, 3, 4, 5})
	f.Add(int64(2), []byte{0xff, 0x80, 0x01, 0x40, 0x7f})
	f.Add(int64(3), []byte{})
	f.Add(int64(4), []byte{9, 200, 31, 7})
	f.Add(int64(5), []byte{1, 1})
	f.Add(int64(6), []byte{2, 3, 77, 5, 128, 64})
	eval, rng := syntheticEvaluator(f, 42)
	n := eval.Topo.NumNodes()
	ranks := eval.Prof.Ranks
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
		if len(moves) > 64 {
			moves = moves[:64]
		}
		for i := 0; i+1 < len(moves); i += 2 {
			a, b := int(moves[i]), int(moves[i+1])
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
				t.Fatalf("move %d: delta %v != oracle %v", i/2, got, want.Seconds)
			}
		}
		assertMatchesOracle(t, e, e.Scorer(), sc.Current(), snap, "end")
	})
}
