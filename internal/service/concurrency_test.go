package service

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"cbes"
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

// flightGroup: followers arriving while a call is in flight must block
// and share the leader's result; the key is released once it completes.
func TestFlightGroupCoalesces(t *testing.T) {
	var g flightGroup
	release := make(chan struct{})
	leaderIn := make(chan struct{})

	type res struct {
		val    any
		joined bool
	}
	results := make(chan res, 5)
	go func() {
		val, joined, _ := g.do(nil, "k", func() (any, error) {
			close(leaderIn)
			<-release
			return 42, nil
		})
		results <- res{val, joined}
	}()
	<-leaderIn
	for i := 0; i < 4; i++ {
		go func() {
			val, joined, _ := g.do(nil, "k", func() (any, error) { return -1, nil })
			results <- res{val, joined}
		}()
	}
	// Wait for all four followers to register on the flight before
	// releasing the leader.
	deadline := time.Now().Add(5 * time.Second)
	for {
		g.mu.Lock()
		n := 0
		if c, ok := g.m["k"]; ok {
			n = c.shared
		}
		g.mu.Unlock()
		if n == 4 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("followers joined = %d, want 4", n)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)

	joins := 0
	for i := 0; i < 5; i++ {
		r := <-results
		if r.val != 42 {
			t.Fatalf("result = %v, want the leader's 42", r.val)
		}
		if r.joined {
			joins++
		}
	}
	if joins != 4 {
		t.Fatalf("joined count = %d, want 4", joins)
	}
	// The key must be free again: a fresh call runs its own fn.
	val, joined, _ := g.do(nil, "k", func() (any, error) { return 7, nil })
	if joined || val != 7 {
		t.Fatalf("post-flight call: val=%v joined=%v, want fresh 7", val, joined)
	}
}

// Identical concurrent Schedule requests must coalesce into one search
// and all receive the same decision — scheduling is deterministic in
// (app, algorithm, pool, seed, epoch), so sharing is sound.
func TestScheduleCoalescing(t *testing.T) {
	s, prog, _ := newLocalServer(t)
	coalesced := obs.Default().Counter("cbes_schedule_coalesced_total", "")
	before := coalesced.Value()

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
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !reflect.DeepEqual(replies[i].Mapping, replies[0].Mapping) || replies[i].Predicted != replies[0].Predicted {
			t.Fatalf("decision %d diverged: %v (%.6f) vs %v (%.6f)",
				i, replies[i].Mapping, replies[i].Predicted, replies[0].Mapping, replies[0].Predicted)
		}
	}
	if coalesced.Value() == before {
		t.Fatal("no Schedule request coalesced despite simultaneous identical requests")
	}
	// Every coalesced follower must leave a flight-recorder record that
	// owns its trace but names the leader's — the forensic link between
	// "what this client was told" and "which search actually ran".
	joins := int(coalesced.Value() - before)
	var followers int
	for _, d := range obs.DefaultRecorder().Decisions(obs.DecisionQuery{Kind: "schedule", App: prog.Name}) {
		if !d.Coalesced || d.Seed != 42 {
			continue
		}
		followers++
		if d.LeaderTraceID == "" || d.LeaderTraceID == d.TraceID {
			t.Fatalf("coalesced record does not name a distinct leader trace: %+v", d)
		}
		if !reflect.DeepEqual(d.Mapping, replies[0].Mapping) {
			t.Fatalf("coalesced record mapping %v diverged from decision %v", d.Mapping, replies[0].Mapping)
		}
	}
	if followers < joins {
		t.Fatalf("flight recorder has %d coalesced records, counter says %d joins", followers, joins)
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
