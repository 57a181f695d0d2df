package service

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"cbes"
	"cbes/internal/admission"
	"cbes/internal/bench"
	"cbes/internal/cluster"
	"cbes/internal/des"
	"cbes/internal/faults"
	"cbes/internal/obs"
	"cbes/internal/workloads"
)

// newLocalServer builds a calibrated system with one profiled app and
// wraps it in a Server, without the RPC transport — for tests that
// exercise handler concurrency directly.
func newLocalServer(t *testing.T) (*Server, workloads.Program, *cbes.System) {
	t.Helper()
	sys := cbes.NewSystem(cluster.NewTestTopology(), cbes.Config{})
	sys.Calibrate(bench.Options{Reps: 3})
	prog := workloads.Synthetic(workloads.SyntheticConfig{
		Ranks: 4, Iterations: 8, ComputePerIter: 0.04, MsgSize: 8 << 10, MsgsPerIter: 1,
	})
	sys.MustProfile(prog, []int{0, 1, 2, 3})
	t.Cleanup(sys.Close)
	return NewServer(sys), prog, sys
}

// Readers must run lock-free against the published view while a writer
// advances the simulation and republishes it. Run under -race this pins
// the single-writer/many-reader contract: no reader ever touches engine
// state, and every reader sees either the old or the new view, never a
// torn one.
func TestConcurrentReadsWithRacingAdvance(t *testing.T) {
	c, prog, _ := startServer(t)

	mappings := [][]int{{0, 1, 2, 3}, {4, 5, 6, 7}, {0, 2, 4, 6}, {1, 3, 5, 7}}
	var wg sync.WaitGroup
	errc := make(chan error, 64)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				if i%2 == 0 {
					if _, err := c.Evaluate(prog.Name, mappings[(r+i)%len(mappings)]); err != nil {
						errc <- fmt.Errorf("reader %d evaluate: %w", r, err)
						return
					}
				} else {
					if _, err := c.Compare(prog.Name, mappings); err != nil {
						errc <- fmt.Errorf("reader %d compare: %w", r, err)
						return
					}
				}
			}
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			if _, err := c.Advance(0.3); err != nil {
				errc <- fmt.Errorf("advance: %w", err)
				return
			}
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// An epoch bump must make cached predictions unreachable: after an
// Advance that crosses a sampling round, the same request re-evaluates
// against the new snapshot instead of returning the stale entry.
func TestCacheInvalidationOnEpochBump(t *testing.T) {
	s, prog, sys := newLocalServer(t)
	mapping := []int{0, 1, 2, 3}

	var st0 StatusReply
	if err := s.Status(&StatusArgs{}, &st0); err != nil {
		t.Fatal(err)
	}
	var e0 EvaluateReply
	if err := s.Evaluate(&EvaluateArgs{App: prog.Name, Mapping: mapping}, &e0); err != nil {
		t.Fatal(err)
	}
	if got := s.cache.len(); got != 1 {
		t.Fatalf("cache entries after first evaluate = %d, want 1", got)
	}

	// Cross two sampling rounds so the monitor resamples and bumps.
	var adv AdvanceReply
	if err := s.Advance(&AdvanceArgs{Seconds: 2.5}, &adv); err != nil {
		t.Fatal(err)
	}
	if adv.Epoch <= st0.Epoch {
		t.Fatalf("epoch after resampling advance = %d, want > %d", adv.Epoch, st0.Epoch)
	}

	var e1 EvaluateReply
	if err := s.Evaluate(&EvaluateArgs{App: prog.Name, Mapping: mapping}, &e1); err != nil {
		t.Fatal(err)
	}
	// The re-evaluation keyed under the new epoch joins the old entry in
	// the LRU rather than replacing it.
	if got := s.cache.len(); got != 2 {
		t.Fatalf("cache entries after epoch bump = %d, want 2", got)
	}
	// And its value matches a fresh computation against the live
	// snapshot — deterministic, so any divergence means a stale entry
	// leaked through.
	eval, err := sys.Evaluator(prog.Name)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := eval.Predict(mapping, sys.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if e1.Seconds != fresh.Seconds {
		t.Fatalf("post-bump evaluate = %v, fresh prediction = %v", e1.Seconds, fresh.Seconds)
	}
}

// An advance too small to cross a sampling round (and triggering no
// fault or health transition) leaves the snapshot content — and so the
// epoch and the cache — untouched: the repeated request is a hit.
func TestNoOpAdvanceKeepsCacheWarm(t *testing.T) {
	s, prog, _ := newLocalServer(t)
	mapping := []int{0, 1, 2, 3}
	hits := obs.Default().Counter("cbes_predcache_hits_total", "")

	var e0 EvaluateReply
	if err := s.Evaluate(&EvaluateArgs{App: prog.Name, Mapping: mapping}, &e0); err != nil {
		t.Fatal(err)
	}
	var st0 StatusReply
	if err := s.Status(&StatusArgs{}, &st0); err != nil {
		t.Fatal(err)
	}

	var adv AdvanceReply
	if err := s.Advance(&AdvanceArgs{Seconds: 0.01}, &adv); err != nil {
		t.Fatal(err)
	}
	if adv.Epoch != st0.Epoch {
		t.Fatalf("no-op advance moved the epoch %d -> %d", st0.Epoch, adv.Epoch)
	}

	before := hits.Value()
	var e1 EvaluateReply
	if err := s.Evaluate(&EvaluateArgs{App: prog.Name, Mapping: mapping}, &e1); err != nil {
		t.Fatal(err)
	}
	if hits.Value() != before+1 {
		t.Fatalf("evaluate after no-op advance was not a cache hit (hits %d -> %d)", before, hits.Value())
	}
	if e1.Seconds != e0.Seconds {
		t.Fatalf("cached prediction changed: %v -> %v", e0.Seconds, e1.Seconds)
	}
}

// Identical concurrent Schedule requests each run their own search and
// still receive bit-identical decisions: scheduling is deterministic in
// (app, algorithm, pool, seed, effort, epoch). Each keeps its own
// prediction ID, decision record and schedule.decision span, so every
// reply is explained by its own trace.
func TestIdenticalSchedulesDeterministic(t *testing.T) {
	s, prog, _ := newLocalServer(t)

	const n = 6
	args := ScheduleArgs{App: prog.Name, Algorithm: "cs", Pool: []int{0, 1, 2, 3, 4, 5, 6, 7}, Seed: 42}
	replies := make([]ScheduleReply, n)
	errs := make([]error, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			a := args // per-goroutine copy
			errs[i] = s.Schedule(&a, &replies[i])
		}(i)
	}
	close(start)
	wg.Wait()
	ids := map[string]bool{}
	for i, r := range replies {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !reflect.DeepEqual(r.Mapping, replies[0].Mapping) || math.Float64bits(r.Predicted) != math.Float64bits(replies[0].Predicted) {
			t.Fatalf("decision %d diverged: %v (%v) vs %v (%v)",
				i, r.Mapping, r.Predicted, replies[0].Mapping, replies[0].Predicted)
		}
		if r.PredictionID == "" || ids[r.PredictionID] {
			t.Fatalf("reply %d prediction ID %q is empty or shared", i, r.PredictionID)
		}
		ids[r.PredictionID] = true
		recs := s.rec.Decisions(obs.DecisionQuery{TraceID: r.TraceID})
		if len(recs) != 1 {
			t.Fatalf("trace %s left %d decision records, want 1", r.TraceID, len(recs))
		}
		if d := recs[0]; d.PredictionID != r.PredictionID || !reflect.DeepEqual(d.Mapping, r.Mapping) || d.Evaluations != r.Evaluations {
			t.Fatalf("trace %s record %+v does not match its reply %+v", r.TraceID, d, r)
		}
		id, err := obs.ParseID(r.TraceID)
		if err != nil {
			t.Fatal(err)
		}
		searches := 0
		for _, sp := range obs.DefaultTracer().TraceSpans(id) {
			if sp.Name == "schedule.decision" {
				searches++
			}
		}
		if searches != 1 {
			t.Fatalf("trace %s holds %d schedule.decision spans, want its own one", r.TraceID, searches)
		}
	}
}

// A Schedule runs under its own deadline, even beside an identical
// request: while one search with a 20ms deadline is under way, an
// identical request with a 2min deadline must return its mapping rather
// than the first request's deadline error.
func TestScheduleKeepsOwnDeadline(t *testing.T) {
	s, prog, _ := newLocalServer(t)
	lim := admission.New(admission.Config{Initial: 2, Min: 2, Max: 2, MaxQueue: -1})
	s.SetAdmission(lim)
	// 500k evaluations take ~50ms on a 2-vCPU Xeon VM, ~1.6s under the
	// race detector.
	args := func(deadline time.Duration) *ScheduleArgs {
		a := &ScheduleArgs{App: prog.Name, Algorithm: "cs", Pool: []int{0, 1, 2, 3, 4, 5, 6, 7}, Seed: 5, Effort: 500_000}
		a.setDeadline(time.Now().Add(deadline))
		return a
	}
	shortDone := make(chan error, 1)
	go func() { shortDone <- s.Schedule(args(20*time.Millisecond), &ScheduleReply{}) }()
	// Wait until the short search holds its slot (or has already ended:
	// its deadline bounds this loop).
	for lim.Inflight() < 1 && len(shortDone) == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	var reply ScheduleReply
	if err := s.Schedule(args(2*time.Minute), &reply); err != nil {
		t.Fatalf("long-deadline Schedule: %v", err)
	}
	if len(reply.Mapping) != 4 || reply.Evaluations != 500_000 {
		t.Fatalf("long-deadline reply = %+v, want a 4-rank mapping from 500000 evaluations", reply)
	}
	if err := <-shortDone; err == nil {
		t.Log("the short request finished inside its 20ms deadline: no overlap exercised")
	} else if !IsDeadlineExceeded(err) {
		t.Fatalf("short-deadline Schedule: err = %v, want deadline exceeded", err)
	}
}

// SetRetryPolicy must be safe against concurrent in-flight calls (it
// used to write c.retry unsynchronized while call read it — a data race
// flagged under -race).
func TestSetRetryPolicyConcurrent(t *testing.T) {
	c, _, _ := startServer(t)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			c.SetRetryPolicy(RetryPolicy{Max: 1 + i%3})
		}
	}()
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				if _, err := c.Status(); err != nil {
					t.Errorf("status: %v", err)
					return
				}
			}
		}()
	}
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
}

// A busy rejection must be observed in both the method latency histogram
// and the dedicated busy-queue-time histogram (it used to skip latency
// recording entirely, making p99 under saturation look better than
// reality).
func TestBusyRejectionObservesLatency(t *testing.T) {
	s, _, _ := newLocalServer(t)
	s.timeout = 20 * time.Millisecond

	busySeconds := obs.Default().Histogram("cbes_rpc_busy_seconds", "", nil)
	advSeconds := obs.Default().HistogramVec("cbes_rpc_seconds", "", nil, "method").With("Advance")
	busyBefore, advBefore := busySeconds.Count(), advSeconds.Count()

	s.lock <- struct{}{} // wedge the writer lock
	defer func() { <-s.lock }()

	var reply AdvanceReply
	err := s.Advance(&AdvanceArgs{Seconds: 1}, &reply)
	if !IsBusy(err) {
		t.Fatalf("error = %v, want busy", err)
	}
	if got := busySeconds.Count(); got != busyBefore+1 {
		t.Fatalf("cbes_rpc_busy_seconds count %d -> %d, want +1", busyBefore, got)
	}
	if got := advSeconds.Count(); got != advBefore+1 {
		t.Fatalf("cbes_rpc_seconds{Advance} count %d -> %d, want +1 (busy rejection skipped)", advBefore, got)
	}
}

// End to end over RPC: a stalled monitor ages every node past the
// staleness TTL, and the client must see Degraded=true with the mapped
// nodes listed — the fields the old reply types silently dropped.
func TestDegradedPredictionRoundTrip(t *testing.T) {
	c, prog, sys := startServer(t)

	// Wedge the monitoring daemon at t=1s for 60s: samples freeze, data
	// ages past the 3s staleness TTL, every node flips to suspect.
	if err := sys.Faults().Install(faults.Schedule{
		{At: des.Second, Kind: faults.MonitorStall, Duration: 60 * des.Second},
	}); err != nil {
		t.Fatal(err)
	}
	st0, err := c.Status()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Advance(10); err != nil {
		t.Fatal(err)
	}
	st1, err := c.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st1.Epoch <= st0.Epoch {
		t.Fatalf("epoch did not advance across the health flip: %d -> %d", st0.Epoch, st1.Epoch)
	}

	mapping := []int{0, 1, 2, 3}
	ev, err := c.Evaluate(prog.Name, mapping)
	if err != nil {
		t.Fatal(err)
	}
	if !ev.Degraded {
		t.Fatal("Evaluate over RPC lost Degraded=true")
	}
	if !reflect.DeepEqual(ev.StaleNodes, mapping) {
		t.Fatalf("StaleNodes = %v, want %v", ev.StaleNodes, mapping)
	}

	cmp, err := c.Compare(prog.Name, [][]int{{0, 1, 2, 3}, {4, 5, 6, 7}})
	if err != nil {
		t.Fatal(err)
	}
	for i := range cmp.Seconds {
		if !cmp.Degraded[i] {
			t.Fatalf("Compare mapping %d lost Degraded=true", i)
		}
		if len(cmp.StaleNodes[i]) == 0 {
			t.Fatalf("Compare mapping %d lost StaleNodes", i)
		}
	}

	sched, err := c.Schedule(prog.Name, "rs", []int{0, 1, 2, 3, 4, 5, 6, 7}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !sched.Degraded || len(sched.StaleNodes) == 0 {
		t.Fatalf("Schedule over RPC lost degraded markers: degraded=%v stale=%v",
			sched.Degraded, sched.StaleNodes)
	}
}
