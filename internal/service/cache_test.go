package service

import (
	"errors"
	"math"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"cbes"
	"cbes/internal/bench"
	"cbes/internal/cluster"
	"cbes/internal/core"
	"cbes/internal/monitor"
	"cbes/internal/workloads"
)

// withSnapshot republishes srv's view with a copy of its snapshot that
// mutate has edited — a fresh view, so the immutability contract holds.
func withSnapshot(srv *Server, mutate func(snap *monitor.Snapshot)) {
	v := *srv.view.Load()
	v.snap = v.snap.Clone()
	if v.snap.Health == nil {
		v.snap.Health = make([]monitor.Health, len(v.snap.AvailCPU))
	}
	mutate(v.snap)
	srv.view.Store(&v)
}

// A full cache costs what its entries' scalar estimates cost, not a
// per-process breakdown per key: 4 096 distinct mappings of a 60-segment,
// 8-rank application (a *core.Prediction of which is ~15 kB) must leave
// the live heap within 2 MB of where it started.
func TestCacheFootprint(t *testing.T) {
	sys := cbes.NewSystem(cluster.NewTestTopology(), cbes.Config{})
	sys.Calibrate(bench.Options{Reps: 3})
	prog := workloads.Phased(60, 8)
	sys.MustProfile(prog, []int{0, 1, 2, 3, 4, 5, 6, 7})
	t.Cleanup(sys.Close)
	srv := NewServer(sys)

	// Distinct mappings: the base-8 digits of i place the first four ranks.
	mappings := make([][]int, cacheSize)
	for i := range mappings {
		mappings[i] = []int{i & 7, i >> 3 & 7, i >> 6 & 7, i >> 9 & 7, 4, 5, 6, 7}
	}
	evaluateAll := func() {
		for _, m := range mappings {
			var reply EvaluateReply
			if err := srv.Evaluate(&EvaluateArgs{App: prog.Name, Mapping: m}, &reply); err != nil {
				t.Fatal(err)
			}
		}
	}
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	// One pass into a throwaway cache fills everything else a request
	// feeds — the decision ring, the accuracy ledger's pending set — to
	// its bound.
	srv.cache = newPredCache()
	evaluateAll()
	srv.cache = newPredCache()
	before := heap()
	evaluateAll()
	after := heap()
	if n := srv.cache.len(); n != cacheSize {
		t.Fatalf("cache holds %d entries, want %d", n, cacheSize)
	}
	grown := int64(after) - int64(before)
	t.Logf("live heap grew %.2f MB over %d cached estimates", float64(grown)/(1<<20), cacheSize)
	if grown > 2<<20 {
		t.Fatalf("a full cache grew the live heap by %.2f MB, want <= 2 MB", float64(grown)/(1<<20))
	}
}

// Explain recomputes the breakdown the cache no longer holds; its answer
// must be the one a direct Predict gives, and its total the very number a
// cached Evaluate of the same mapping serves.
func TestExplainMatchesCachedEvaluate(t *testing.T) {
	srv, prog, sys := newLocalServer(t)
	m := []int{4, 1, 6, 3}
	var ev EvaluateReply
	for i := 0; i < 2; i++ { // the second reply is served from the cache
		if err := srv.Evaluate(&EvaluateArgs{App: prog.Name, Mapping: m}, &ev); err != nil {
			t.Fatal(err)
		}
	}
	var ex ExplainReply
	if err := srv.Explain(&ExplainArgs{App: prog.Name, Mapping: m}, &ex); err != nil {
		t.Fatal(err)
	}
	v := srv.view.Load()
	pred, err := v.evals[prog.Name].Predict(core.Mapping(m), v.snap)
	if err != nil {
		t.Fatal(err)
	}
	if want := pred.Explain(sys.Topo); ex.Text != want {
		t.Fatalf("Explain text differs from a direct Predict:\n%s\nwant:\n%s", ex.Text, want)
	}
	if ex.Seconds != ev.Seconds || ev.Critical != pred.Segments[0].Critical {
		t.Fatalf("Explain %v vs cached Evaluate %v (critical %d vs %d)",
			ex.Seconds, ev.Seconds, pred.Segments[0].Critical, ev.Critical)
	}
}

// Degraded replies served from the cache must each own their StaleNodes:
// the cached estimate's backing array is shared, and a client (or net/rpc
// encoding one reply while another is filled) must not see or cause
// writes through it. Meaningful under -race.
func TestCachedStaleNodesArePrivate(t *testing.T) {
	srv, prog, _ := newLocalServer(t)
	withSnapshot(srv, func(snap *monitor.Snapshot) {
		snap.Health[1] = monitor.HealthSuspect
		snap.Health[2] = monitor.HealthSuspect
	})
	m, want := []int{0, 1, 2, 3}, []int{1, 2}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				var stale []int
				if w%2 == 0 {
					var r EvaluateReply
					if err := srv.Evaluate(&EvaluateArgs{App: prog.Name, Mapping: m}, &r); err != nil {
						t.Error(err)
						return
					}
					stale = r.StaleNodes
				} else {
					var r CompareReply
					if err := srv.Compare(&CompareArgs{App: prog.Name, Mappings: [][]int{m, {4, 5, 6, 7}}}, &r); err != nil {
						t.Error(err)
						return
					}
					if r.Degraded[1] || r.StaleNodes[1] != nil {
						t.Errorf("healthy candidate marked degraded: %v", r.StaleNodes[1])
					}
					stale = r.StaleNodes[0]
				}
				if !reflect.DeepEqual(stale, want) {
					t.Errorf("StaleNodes = %v, want %v", stale, want)
					return
				}
				stale[0], stale[1] = -1, -1 // scribble on the reply's copy
			}
		}(w)
	}
	wg.Wait()
	if n := srv.cache.len(); n != 2 {
		t.Fatalf("cache holds %d entries, want the 2 distinct mappings", n)
	}
}

// Regression, re-homed from core with Evaluator.Compare: best-mapping
// selection used "candidate < best", which a NaN prediction (e.g. a
// corrupt availability reading) never satisfies, so a NaN candidate in
// slot 0 won the whole comparison.
func TestCompareSkipsNaNPredictions(t *testing.T) {
	srv, prog, _ := newLocalServer(t)
	withSnapshot(srv, func(snap *monitor.Snapshot) { snap.AvailCPU[2] = math.NaN() })
	var r CompareReply
	mappings := [][]int{{2, 3, 4, 5}, {0, 1, 4, 5}, {2, 1, 0, 3}} // rank 0 on node 2: first in every segment
	if err := srv.Compare(&CompareArgs{App: prog.Name, Mappings: mappings}, &r); err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(r.Seconds[0]) || !math.IsNaN(r.Seconds[2]) {
		t.Fatalf("expected NaN predictions for node-2 mappings: %v", r.Seconds)
	}
	if r.Best != 1 {
		t.Fatalf("best = %d (%.6g), want the only finite candidate 1", r.Best, r.Seconds[r.Best])
	}
}

// A batch with one candidate on a down node fails as a whole, with the
// typed error intact for in-process callers.
func TestCompareSurfacesNodeDown(t *testing.T) {
	srv, prog, _ := newLocalServer(t)
	withSnapshot(srv, func(snap *monitor.Snapshot) {
		snap.Health[3] = monitor.HealthDown
		snap.AvailCPU[3] = 0
	})
	var r CompareReply
	err := srv.Compare(&CompareArgs{App: prog.Name, Mappings: [][]int{{0, 1, 2, 4}, {0, 1, 2, 3}}}, &r)
	if !errors.Is(err, core.ErrNodeDown) {
		t.Fatalf("Compare with a down-node candidate: err = %v, want ErrNodeDown", err)
	}
}
