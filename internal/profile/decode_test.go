package profile_test

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"cbes/internal/bench"
	"cbes/internal/cluster"
	"cbes/internal/core"
	"cbes/internal/des"
	"cbes/internal/monitor"
	"cbes/internal/mpisim"
	"cbes/internal/netmodel"
	"cbes/internal/profile"
	"cbes/internal/simnet"
	"cbes/internal/vcluster"
	"cbes/internal/workloads"
)

// profiled returns the test topology, its calibrated model and the
// profile of a 4-rank ring application: what cbesd stores.
func profiled(tb testing.TB) (*cluster.Topology, *netmodel.Model, *profile.Profile) {
	tb.Helper()
	topo := cluster.NewTestTopology()
	model := bench.Calibrate(topo, bench.Options{Reps: 2, Sizes: []int64{64, 16 << 10}, SkipLoadFit: true})
	prog := workloads.Synthetic(workloads.SyntheticConfig{
		Ranks: 4, Iterations: 5, ComputePerIter: 0.02, MsgSize: 8 << 10, MsgsPerIter: 2,
	})
	eng := des.NewEngine()
	res := mpisim.Run(vcluster.New(eng, topo), simnet.New(eng, topo), []int{0, 1, 4, 5}, prog.Body, prog.Options())
	eng.Shutdown()
	p, err := profile.FromTrace(res.Trace, topo, bench.MeasureArchSpeeds(topo, prog.ArchEff, 0.1))
	if err != nil {
		tb.Fatal(err)
	}
	return topo, model, p
}

// encodeWith encodes a deep copy of p after mutate has edited it.
func encodeWith(tb testing.TB, p *profile.Profile, mutate func(*profile.Profile)) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := p.Encode(&buf); err != nil {
		tb.Fatal(err)
	}
	q, err := profile.Decode(&buf)
	if err != nil {
		tb.Fatal(err)
	}
	mutate(q)
	buf.Reset()
	if err := q.Encode(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// hostile edits a stored profile the way a corrupt or hand-edited file
// would. Each one used to decode; most then panicked an evaluation (peer
// and rank out of range, an empty mapping) or made its estimate infinite
// (huge values, a denormal speed).
var hostile = []struct {
	name   string
	mutate func(*profile.Profile)
}{
	{"peer 99", func(p *profile.Profile) { p.Segments[0].Procs[0].Sends[0].Peer = 99 }},
	{"peer -1", func(p *profile.Profile) { p.Segments[0].Procs[0].Recvs[0].Peer = -1 }},
	{"rank 17 of 4", func(p *profile.Profile) { p.Segments[0].Procs[1].Rank = 17 }},
	{"rank -1", func(p *profile.Profile) { p.Segments[0].Procs[1].Rank = -1 }},
	{"mapping empty", func(p *profile.Profile) { p.Mapping = nil }},
	{"mapping short", func(p *profile.Profile) { p.Mapping = p.Mapping[:3] }},
	{"negative count", func(p *profile.Profile) { p.Segments[0].Procs[0].Sends[0].Count = -3 }},
	{"negative size", func(p *profile.Profile) { p.Segments[0].Procs[0].Recvs[0].Size = -8 }},
	{"negative X", func(p *profile.Profile) { p.Segments[0].Procs[0].X = -1 }},
	{"huge times", func(p *profile.Profile) { p.Segments[0].Procs[0].X, p.Segments[0].Procs[0].O = 1e308, 1e308 }},
	{"zero arch speed", func(p *profile.Profile) { p.ArchSpeed[cluster.ArchAlpha] = 0 }},
	{"denormal arch speed", func(p *profile.Profile) { p.ArchSpeed[cluster.ArchAlpha] = 1e-320 }},
}

func TestDecodeRejectsHostileProfile(t *testing.T) {
	_, _, p := profiled(t)
	for _, tc := range hostile {
		t.Run(tc.name, func(t *testing.T) {
			data := encodeWith(t, p, tc.mutate)
			if q, err := profile.Decode(bytes.NewReader(data)); err == nil {
				t.Fatalf("decoded a hostile profile: mapping %v", q.Mapping)
			}
		})
	}
	// The untouched profile still round-trips.
	if _, err := profile.Decode(bytes.NewReader(encodeWith(t, p, func(*profile.Profile) {}))); err != nil {
		t.Fatal(err)
	}
}

// hugeCount sends 2^40 messages from one process: a count that decodes
// and enters the Θ that eq. 7 divides by when the evaluator derives λ.
func hugeCount(p *profile.Profile) { p.Segments[0].Procs[0].Sends[0].Count = 1 << 40 }

// loadedSnapshot is a snapshot with uneven CPU and NIC load on n nodes.
func loadedSnapshot(n int) *monitor.Snapshot {
	snap := &monitor.Snapshot{AvailCPU: make([]float64, n), NICUtil: make([]float64, n)}
	for i := range snap.AvailCPU {
		snap.AvailCPU[i] = 1 - 0.2*float64(i%4)
		snap.NICUtil[i] = 0.1 * float64(i%3)
	}
	return snap
}

// checkFinite decodes data and, if both Decode and NewEvaluator accept it,
// fails t unless the estimate and the brownout estimate of a round-robin
// mapping are finite. It reports whether the profile was evaluated.
func checkFinite(t *testing.T, topo *cluster.Topology, model *netmodel.Model, data []byte) bool {
	t.Helper()
	q, err := profile.Decode(bytes.NewReader(data))
	if err != nil {
		return false
	}
	e, err := core.NewEvaluator(topo, model, q)
	if err != nil {
		return false
	}
	n := topo.NumNodes()
	m := make(core.Mapping, len(q.Mapping))
	for r := range m {
		m[r] = r % n
	}
	if est, err := e.Estimate(m, loadedSnapshot(n)); err == nil && (math.IsNaN(est.Seconds) || math.IsInf(est.Seconds, 0)) {
		t.Fatalf("estimate %v for a decoded profile", est.Seconds)
	}
	if est, err := e.PredictBrownout(m); err == nil && (math.IsNaN(est.Seconds) || math.IsInf(est.Seconds, 0)) {
		t.Fatalf("brownout estimate %v for a decoded profile", est.Seconds)
	}
	return true
}

// TestHugeCountEstimatesFinite: a stored profile whose process sends 2^40
// messages decodes, and the λ derived from it gives a finite estimate.
func TestHugeCountEstimatesFinite(t *testing.T) {
	topo, model, p := profiled(t)
	if !checkFinite(t, topo, model, encodeWith(t, p, hugeCount)) {
		t.Fatal("a profile with a huge message count was refused")
	}
}

// forgedRanks is a stored profile in the format written before core
// derived the rank count and Speed_profile: a "ranks" key, here forged to
// 2^40, and per process "prof_node" and "prof_speed" keys naming a node
// outside the topology and a zero speed. Decode ignores all three.
func forgedRanks(tb testing.TB, p *profile.Profile) []byte {
	tb.Helper()
	var doc map[string]any
	if err := json.Unmarshal(encodeWith(tb, p, func(*profile.Profile) {}), &doc); err != nil {
		tb.Fatal(err)
	}
	doc["ranks"] = 1 << 40
	for _, seg := range doc["segments"].([]any) {
		for _, proc := range seg.(map[string]any)["procs"].([]any) {
			proc.(map[string]any)["prof_node"], proc.(map[string]any)["prof_speed"] = 99, 0
		}
	}
	data, err := json.Marshal(doc)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// TestOldFormatKeysIgnored: a profile stored with a forged rank count and
// per-process profiling nodes and speeds decodes and evaluates, because
// the rank count is len(Mapping) and core derives Speed_profile.
func TestOldFormatKeysIgnored(t *testing.T) {
	topo, model, p := profiled(t)
	data := forgedRanks(t, p)
	if !bytes.Contains(data, []byte(`"ranks":1099511627776`)) || !bytes.Contains(data, []byte(`"prof_node":99`)) {
		t.Fatalf("fixture lacks the forged keys: %s", data)
	}
	if !checkFinite(t, topo, model, data) {
		t.Fatal("an old-format profile was refused")
	}
}

// FuzzDecodeProfile: any byte string gives a Decode error, an evaluator
// error, or a finite estimate — never a panic. Seeds are a profile as
// cbesd stores it, the hostile edits above, the huge message count and
// an old-format profile with forged keys.
func FuzzDecodeProfile(f *testing.F) {
	topo, model, p := profiled(f)
	f.Add(encodeWith(f, p, func(*profile.Profile) {}))
	for _, tc := range hostile {
		f.Add(encodeWith(f, p, tc.mutate))
	}
	f.Add(encodeWith(f, p, hugeCount))
	f.Add(forgedRanks(f, p))
	f.Fuzz(func(t *testing.T, data []byte) { checkFinite(t, topo, model, data) })
}
