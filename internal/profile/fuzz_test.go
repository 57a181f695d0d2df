package profile_test

import (
	"bytes"
	"math"
	"testing"

	"cbes/internal/bench"
	"cbes/internal/cluster"
	"cbes/internal/core"
	"cbes/internal/des"
	"cbes/internal/mpisim"
	"cbes/internal/profile"
	"cbes/internal/simnet"
	"cbes/internal/trace"
	"cbes/internal/vcluster"
	"cbes/internal/workloads"
)

// FuzzFromTrace: any byte string that decodes as a trace yields an error
// from FromTrace or a profile that builds an evaluator (which derives its
// λs and Speed_profiles) with a finite estimate — never a panic. The seeds
// are the encoded trace of LU.A.8 on the test topology and hostile traces:
// a node outside the topology or the mapping, a peer outside the ranks, a
// negative size, a short mapping, and a process off its mapped node.
func FuzzFromTrace(f *testing.F) {
	topo := cluster.NewTestTopology()
	model := bench.Calibrate(topo, bench.Options{Reps: 2, Sizes: []int64{64, 16 << 10}, SkipLoadFit: true})
	speeds := bench.MeasureArchSpeeds(topo, nil, 0.1)
	lu := workloads.LU(workloads.ClassA, 8)
	eng := des.NewEngine()
	res := mpisim.Run(vcluster.New(eng, topo), simnet.New(eng, topo), []int{0, 1, 2, 3, 4, 5, 6, 7}, lu.Body, lu.Options())
	eng.Shutdown()
	var enc bytes.Buffer
	if err := res.Trace.Encode(&enc); err != nil {
		f.Fatal(err)
	}
	f.Add(enc.Bytes())
	for _, hostile := range []string{
		`{"cluster":"testnet","ranks":1,"mapping":[0],"segments":[{"procs":[{"rank":0,"node":99}]}]}`,
		`{"cluster":"testnet","ranks":1,"mapping":[-1],"segments":[]}`,
		`{"cluster":"testnet","ranks":2,"mapping":[0,1],"segments":[{"procs":[{"rank":0,"node":0,"sends":[{"peer":2,"size":8,"count":1}]}]}]}`,
		`{"cluster":"testnet","ranks":2,"mapping":[0,1],"segments":[{"procs":[{"rank":0,"node":0,"recvs":[{"peer":1,"size":-8,"count":1}]}]}]}`,
		`{"cluster":"testnet","ranks":3,"mapping":[0,1],"segments":[]}`,
		`{"cluster":"testnet","ranks":2,"mapping":[0,1],"segments":[{"procs":[{"rank":0,"node":4}]}]}`,
	} {
		f.Add([]byte(hostile))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := trace.Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		p, err := profile.FromTrace(tr, topo, speeds)
		if err != nil {
			return
		}
		e, err := core.NewEvaluator(topo, model, p)
		if err != nil {
			t.Fatalf("NewEvaluator on an accepted trace: %v", err)
		}
		m := make(core.Mapping, len(p.Mapping))
		for r := range m {
			m[r] = r % topo.NumNodes()
		}
		est, err := e.Estimate(m, loadedSnapshot(topo.NumNodes()))
		if err != nil {
			t.Fatalf("Estimate on an accepted trace: %v", err)
		}
		if math.IsNaN(est.Seconds) || math.IsInf(est.Seconds, 0) {
			t.Fatalf("estimate %v for an accepted trace", est.Seconds)
		}
	})
}
