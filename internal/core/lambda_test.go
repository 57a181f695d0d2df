package core

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"cbes/internal/bench"
	"cbes/internal/cluster"
	"cbes/internal/des"
	"cbes/internal/monitor"
	"cbes/internal/mpisim"
	"cbes/internal/profile"
	"cbes/internal/simnet"
	"cbes/internal/vcluster"
)

// TestDerivedLambda: the evaluator derives λ (eq. 7) from the profile and
// its own model. For a ping-pong every process blocks on communication,
// so every λ is positive, and blocking dominates, so λ lies near 1
// (receives wait for the full latency; some overlaps with overhead).
func TestDerivedLambda(t *testing.T) {
	f := newFixture(t, []int{0, 1})
	pred, err := f.eval.Predict(Mapping{0, 1}, monitor.IdleSnapshot(f.topo.NumNodes()))
	if err != nil {
		t.Fatal(err)
	}
	for _, pe := range pred.Segments[0].Procs {
		if pe.Lambda <= 0 {
			t.Fatalf("rank %d lambda = %v, want > 0 for a communicating app", pe.Rank, pe.Lambda)
		}
		if pe.Lambda < 0.3 || pe.Lambda > 3 {
			t.Fatalf("rank %d lambda = %v, implausible for ping-pong", pe.Rank, pe.Lambda)
		}
	}
}

// TestDerivedLambdaZeroForNoComm: a process that never communicates has
// Θ = 0, so its λ and its C term are 0.
func TestDerivedLambdaZeroForNoComm(t *testing.T) {
	topo := cluster.NewTestTopology()
	model := bench.Calibrate(topo, bench.Options{Reps: 3, Sizes: []int64{64}, SkipLoadFit: true})
	eng := des.NewEngine()
	res := mpisim.Run(vcluster.New(eng, topo), simnet.New(eng, topo), []int{0, 1}, func(r *mpisim.Rank) { r.Compute(0.1) }, mpisim.Options{})
	eng.Shutdown()
	prof, err := profile.FromTrace(res.Trace, topo, bench.MeasureArchSpeeds(topo, nil, 0.1))
	if err != nil {
		t.Fatal(err)
	}
	eval, err := NewEvaluator(topo, model, prof)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := eval.Predict(Mapping{0, 1}, monitor.IdleSnapshot(topo.NumNodes()))
	if err != nil {
		t.Fatal(err)
	}
	for _, pe := range pred.Segments[0].Procs {
		if pe.Lambda != 0 || pe.C != 0 {
			t.Fatalf("rank %d: lambda = %v, C = %v for a non-communicating process", pe.Rank, pe.Lambda, pe.C)
		}
	}
}

// withOldKeys re-encodes a profile's JSON with the keys a profile stored
// before core derived λ and Speed_profile carries: "lambdas_ready" and
// "ranks" at the top, and per process "lambda", "prof_node" and
// "prof_speed". ranks and prof_node hold what such a profile held;
// every λ is set to lambda and every profiling speed to speed.
func withOldKeys(t *testing.T, p *profile.Profile, lambda, speed float64) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := p.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	doc["lambdas_ready"] = true
	doc["ranks"] = len(p.Mapping)
	for _, seg := range doc["segments"].([]any) {
		for _, proc := range seg.(map[string]any)["procs"].([]any) {
			pp := proc.(map[string]any)
			pp["lambda"] = lambda
			pp["prof_node"] = p.Mapping[int(pp["rank"].(float64))]
			pp["prof_speed"] = speed
		}
	}
	data, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestStoredProfileWithLambdasDecodes: a profile stored with λ, rank-count
// and profiling-node keys still decodes, and its λ and Speed_profile are
// derived afresh rather than read: even a stored λ and profiling speed
// that no measurement would give leave Estimate and Predict bit-identical
// to those of the profile it was stored from.
func TestStoredProfileWithLambdasDecodes(t *testing.T) {
	f := newFixture(t, []int{0, 1})
	data := withOldKeys(t, f.prof, 1e6, 1e6)
	for _, key := range []string{`"lambdas_ready":true`, `"lambda":1000000`, `"ranks":2`, `"prof_node":1`, `"prof_speed":1000000`} {
		if !bytes.Contains(data, []byte(key)) {
			t.Fatalf("fixture lacks the stored key %s: %s", key, data)
		}
	}
	stored, err := profile.Decode(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	eval, err := NewEvaluator(f.topo, f.model, stored)
	if err != nil {
		t.Fatal(err)
	}
	snap := monitor.IdleSnapshot(f.topo.NumNodes())
	snap.AvailCPU[4], snap.NICUtil[5] = 0.6, 0.3
	for _, m := range []Mapping{{0, 1}, {4, 5}, {2, 2}} {
		wantEst, err := f.eval.Estimate(m, snap)
		if err != nil {
			t.Fatal(err)
		}
		gotEst, err := eval.Estimate(m, snap)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotEst, wantEst) {
			t.Fatalf("mapping %v: stored profile's Estimate %+v, fresh %+v", m, gotEst, wantEst)
		}
		want, _ := f.eval.Predict(m, snap)
		got, err := eval.Predict(m, snap)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("mapping %v: stored profile's Predict %+v, fresh %+v", m, got, want)
		}
	}
}

// TestLambdaFollowsModel: a stored profile evaluated under a second,
// differently calibrated model takes its λ from that model, as the oracle
// derives it from Θ^profile under that model's no-load latencies, and not
// from the model current when the profile was taken.
func TestLambdaFollowsModel(t *testing.T) {
	f := newFixture(t, []int{0, 1})
	var buf bytes.Buffer
	if err := f.prof.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	stored, err := profile.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Calibrated up to 4 kB only, this model extrapolates the app's 16 kB
	// latency, so its Θ^profile, and with it λ, differs from f.model's.
	other := bench.Calibrate(f.topo, bench.Options{Reps: 2, Sizes: []int64{64, 4 << 10}})
	eval, err := NewEvaluator(f.topo, other, stored)
	if err != nil {
		t.Fatal(err)
	}
	moved := false
	for fl, lam := range eval.fastIx.lambda {
		if lam != f.eval.fastIx.lambda[fl] {
			moved = true
		}
	}
	if !moved {
		t.Fatal("the second model left every λ unchanged; the test shows nothing")
	}
	snap := monitor.IdleSnapshot(f.topo.NumNodes())
	snap.AvailCPU[4], snap.NICUtil[5] = 0.6, 0.3
	sc := eval.Scorer()
	for _, m := range []Mapping{{0, 1}, {4, 5}, {2, 6}, {3, 3}} {
		assertMatchesOracle(t, eval, sc, m, snap, "second model")
	}
}
