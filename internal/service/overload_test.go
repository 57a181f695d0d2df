package service

import (
	"context"
	"errors"
	"net"
	"net/rpc"
	"strings"
	"testing"
	"time"

	"cbes/internal/admission"
	"cbes/internal/obs"
	"cbes/internal/raceflag"
)

// The stable "cbes:" error-code convention must survive net/rpc's
// flattening of server errors into bare strings (rpc.ServerError): the
// Is* matchers accept both the local sentinel and the flattened form,
// and no code matches another class's error.
func TestErrorCodesSurviveWireFlatteningRetr(t *testing.T) {
	flatten := func(err error) error { return rpc.ServerError(err.Error()) }

	cases := []struct {
		name  string
		err   error
		match func(error) bool
		other []func(error) bool
	}{
		{"busy", ErrBusy, IsBusy, []func(error) bool{IsShed, IsDeadlineExceeded}},
		{"shed", ErrShed, IsShed, []func(error) bool{IsBusy, IsDeadlineExceeded}},
		{"deadline", ErrDeadlineExceeded, IsDeadlineExceeded, []func(error) bool{IsBusy, IsShed}},
	}
	for _, tc := range cases {
		// Local wrapped form (errors.Is path).
		wrapped := wrap(tc.err)
		if !tc.match(wrapped) {
			t.Errorf("%s: matcher missed local wrapped error %v", tc.name, wrapped)
		}
		// Wire form: net/rpc keeps only the string.
		wire := flatten(wrapped)
		if !tc.match(wire) {
			t.Errorf("%s: matcher missed wire-flattened error %q", tc.name, wire)
		}
		for _, o := range tc.other {
			if o(wire) {
				t.Errorf("%s: cross-matched another class on %q", tc.name, wire)
			}
		}
	}
	if IsBusy(nil) || IsShed(nil) || IsDeadlineExceeded(nil) {
		t.Error("nil error matched a code")
	}
	// Shed must be transient (retry may find a freed slot); deadline must
	// not (the budget that expired covers retries too).
	if !isTransient(flatten(wrap(ErrShed))) {
		t.Error("wire shed error not classified transient")
	}
	if isTransient(flatten(wrap(ErrDeadlineExceeded))) {
		t.Error("wire deadline error classified transient")
	}
}

func wrap(err error) error {
	return errors.Join(errors.New("service: Evaluate: lost in the mail"), err)
}

// tinyLimiter pins the concurrency limit to one slot with no queue, so a
// single held ticket makes admission outcomes deterministic.
func tinyLimiter() *admission.Limiter {
	return admission.New(admission.Config{Initial: 1, Min: 1, Max: 1, MaxQueue: -1})
}

// A shed Evaluate must brown out — answer from the profile-only fast
// path, labeled, without a prediction ID — rather than reject; and when
// even the brownout lane is saturated, it finally sheds with ErrShed.
func TestEvaluateBrownoutUnderShed(t *testing.T) {
	srv, prog, _ := newLocalServer(t)
	lim := tinyLimiter()
	srv.SetAdmission(lim)

	// Occupy the only expensive slot: every cold prediction now sheds.
	tk, err := lim.Acquire(context.Background(), admission.Expensive)
	if err != nil {
		t.Fatal(err)
	}
	defer lim.Release(tk)

	var reply EvaluateReply
	if err := srv.Evaluate(&EvaluateArgs{App: prog.Name, Mapping: []int{4, 5, 6, 7}}, &reply); err != nil {
		t.Fatalf("shed Evaluate should brown out, got error: %v", err)
	}
	if !reply.Brownout {
		t.Fatal("reply not labeled Brownout")
	}
	if reply.Seconds <= 0 {
		t.Fatalf("brownout prediction = %v", reply.Seconds)
	}
	if reply.PredictionID != "" {
		t.Fatalf("brownout reply carries PredictionID %q — its bias would feed calibration", reply.PredictionID)
	}
	recs := srv.rec.Decisions(obs.DecisionQuery{Kind: "evaluate", App: prog.Name, N: 1})
	if len(recs) != 1 || !recs[0].Shed || !recs[0].Brownout {
		t.Fatalf("decision record = %+v, want Shed && Brownout", recs)
	}

	// Saturate the brownout lane too (cheap bar = limit+1): a novel
	// mapping now has nowhere to go and sheds for real.
	tk2, err := lim.Acquire(context.Background(), admission.Cheap)
	if err != nil {
		t.Fatal(err)
	}
	var r2 EvaluateReply
	err = srv.Evaluate(&EvaluateArgs{App: prog.Name, Mapping: []int{0, 2, 4, 6}}, &r2)
	if !IsShed(err) {
		t.Fatalf("err = %v, want shed with both lanes full", err)
	}
	// But the brownout answer already computed stays servable from its
	// epoch-less cache even with every lane full.
	var r3 EvaluateReply
	if err := srv.Evaluate(&EvaluateArgs{App: prog.Name, Mapping: []int{4, 5, 6, 7}}, &r3); err != nil {
		t.Fatalf("cached brownout answer unavailable: %v", err)
	}
	if !r3.Brownout || r3.Seconds != reply.Seconds {
		t.Fatalf("cached brownout = %+v, want repeat of %v", r3, reply.Seconds)
	}
	lim.Release(tk2)
}

// A shed Compare browns out as a batch: every candidate answered from
// the profile-only path, labeled, with no prediction ID.
func TestCompareBrownoutUnderShed(t *testing.T) {
	srv, prog, _ := newLocalServer(t)
	lim := tinyLimiter()
	srv.SetAdmission(lim)
	tk, err := lim.Acquire(context.Background(), admission.Expensive)
	if err != nil {
		t.Fatal(err)
	}
	defer lim.Release(tk)

	var reply CompareReply
	mappings := [][]int{{0, 1, 2, 3}, {4, 5, 6, 7}}
	if err := srv.Compare(&CompareArgs{App: prog.Name, Mappings: mappings}, &reply); err != nil {
		t.Fatalf("shed Compare should brown out, got error: %v", err)
	}
	if !reply.Brownout {
		t.Fatal("reply not labeled Brownout")
	}
	if len(reply.Seconds) != 2 || reply.Seconds[0] <= 0 || reply.Seconds[1] <= 0 {
		t.Fatalf("brownout seconds = %v", reply.Seconds)
	}
	// Under nominal conditions the Alpha nodes are the faster half.
	if reply.Best != 0 {
		t.Fatalf("best = %d, want 0 (Alpha mapping)", reply.Best)
	}
	if reply.PredictionID != "" {
		t.Fatalf("brownout compare carries PredictionID %q", reply.PredictionID)
	}
	recs := srv.rec.Decisions(obs.DecisionQuery{Kind: "compare", App: prog.Name, N: 1})
	if len(recs) != 1 || !recs[0].Shed || !recs[0].Brownout {
		t.Fatalf("decision record = %+v, want Shed && Brownout", recs)
	}
}

// Cached answers are full answers: with the only expensive slot held, a
// Compare whose candidates are all in the epoch cache is served in full,
// not browned out, and registers its best candidate with the ledger.
func TestCachedCompareServedWhileShed(t *testing.T) {
	srv, prog, _ := newLocalServer(t)
	lim := tinyLimiter()
	srv.SetAdmission(lim)
	args := &CompareArgs{App: prog.Name, Mappings: [][]int{{4, 5, 6, 7}, {0, 1, 2, 3}}}
	var warm CompareReply
	if err := srv.Compare(args, &warm); err != nil {
		t.Fatal(err)
	}
	tk, err := lim.Acquire(context.Background(), admission.Expensive)
	if err != nil {
		t.Fatal(err)
	}
	defer lim.Release(tk)

	var reply CompareReply
	if err := srv.Compare(args, &reply); err != nil {
		t.Fatalf("cached Compare under shed: %v", err)
	}
	if reply.Brownout {
		t.Fatal("an all-hit Compare browned out")
	}
	if reply.Best != warm.Best || reply.Seconds[0] != warm.Seconds[0] || reply.Seconds[1] != warm.Seconds[1] {
		t.Fatalf("cached reply %v best %d, want the full answer %v best %d", reply.Seconds, reply.Best, warm.Seconds, warm.Best)
	}
	recs := srv.rec.Decisions(obs.DecisionQuery{Kind: "compare", App: prog.Name, N: 1})
	if len(recs) != 1 || recs[0].Shed || recs[0].CacheHits != 2 || recs[0].PredictionID != reply.PredictionID {
		t.Fatalf("decision record = %+v, want two hits, no shed, PredictionID %q", recs, reply.PredictionID)
	}
	var out ReportOutcomeReply
	if err := srv.ReportOutcome(&ReportOutcomeArgs{PredictionID: reply.PredictionID, ActualSeconds: reply.Seconds[reply.Best]}, &out); err != nil {
		t.Fatalf("ReportOutcome(%q): %v", reply.PredictionID, err)
	}
}

// Schedule has no brownout — an unsearched mapping is wrong, not
// cheaper — so a shed Schedule returns ErrShed and leaves a Shed
// decision record explaining the refusal.
func TestScheduleShedRecordsDecision(t *testing.T) {
	srv, prog, _ := newLocalServer(t)
	lim := tinyLimiter()
	srv.SetAdmission(lim)
	tk, err := lim.Acquire(context.Background(), admission.Expensive)
	if err != nil {
		t.Fatal(err)
	}
	defer lim.Release(tk)

	var reply ScheduleReply
	err = srv.Schedule(&ScheduleArgs{App: prog.Name, Algorithm: "rs", Pool: []int{0, 1, 2, 3}, Seed: 1}, &reply)
	if !IsShed(err) {
		t.Fatalf("err = %v, want shed", err)
	}
	recs := srv.rec.Decisions(obs.DecisionQuery{Kind: "schedule", App: prog.Name, N: 1})
	if len(recs) != 1 || !recs[0].Shed {
		t.Fatalf("decision record = %+v, want Shed", recs)
	}
	if !strings.Contains(recs[0].Err, "cbes:shed") {
		t.Fatalf("decision error = %q, want the wire shed code", recs[0].Err)
	}
}

// The acceptance-criterion test: a deadline expiring mid-anneal must
// return promptly (abandoning the remaining budget) and leave a
// deadline-exceeded decision record.
func TestScheduleDeadlineExpiresMidAnneal(t *testing.T) {
	srv, prog, _ := newLocalServer(t)
	args := &ScheduleArgs{
		App: prog.Name, Algorithm: "cs", Pool: []int{0, 1, 2, 3, 4, 5, 6, 7},
		Seed: 1, Effort: 50_000_000, // far beyond what 50ms of evaluations can spend
	}
	args.setDeadline(time.Now().Add(50 * time.Millisecond))
	start := time.Now()
	var reply ScheduleReply
	err := srv.Schedule(args, &reply)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatalf("50M-effort search under a 50ms deadline returned a decision in %v", elapsed)
	}
	if !IsDeadlineExceeded(err) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("search took %v after a 50ms deadline — cancellation not prompt", elapsed)
	}
	recs := srv.rec.Decisions(obs.DecisionQuery{Kind: "schedule", App: prog.Name, N: 1})
	if len(recs) != 1 || recs[0].Err == "" || !strings.Contains(recs[0].Err, "deadline") {
		t.Fatalf("decision record = %+v, want a deadline-exceeded error", recs)
	}
}

// A request whose deadline is already spent fails fast before touching
// the engine lock — even (especially) while the engine is wedged — so a
// stalled Advance cannot pile doomed writers behind it.
func TestAdvanceDeadlineWhileEngineBusy(t *testing.T) {
	srv, _, _ := newLocalServer(t)
	srv.timeout = 30 * time.Second // busy timeout must not win this race
	srv.lock <- struct{}{}         // wedge the engine (a stuck long request)
	defer func() { <-srv.lock }()

	args := &AdvanceArgs{Seconds: 0.1}
	args.setDeadline(time.Now().Add(50 * time.Millisecond))
	start := time.Now()
	var reply AdvanceReply
	err := srv.Advance(args, &reply)
	if !IsDeadlineExceeded(err) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("Advance blocked %v past its 50ms deadline", elapsed)
	}
}

// ReportOutcome with a spent deadline fails fast too: the ledger feed
// must not wedge behind a stalled engine or burn time on answers nobody
// waits for.
func TestReportOutcomeDeadlineFastFail(t *testing.T) {
	srv, _, _ := newLocalServer(t)
	args := &ReportOutcomeArgs{PredictionID: "p-1", ActualSeconds: 1}
	args.setDeadline(time.Now().Add(-time.Second)) // already expired
	var reply ReportOutcomeReply
	err := srv.ReportOutcome(args, &reply)
	if !IsDeadlineExceeded(err) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
}

// Over a real connection: a client call timeout is stamped as an
// absolute wire deadline, the server's refusal flattens through net/rpc,
// and the client-side matcher still recognizes it. A generous timeout
// must not disturb normal operation.
func TestClientDeadlinePropagatesOverWire(t *testing.T) {
	c, prog, _ := startServer(t)
	c.SetCallTimeout(30 * time.Second)
	if _, err := c.Evaluate(prog.Name, []int{0, 1, 2, 3}); err != nil {
		t.Fatalf("generous deadline broke a healthy call: %v", err)
	}
	c.SetCallTimeout(time.Nanosecond) // expired before it leaves the machine
	_, err := c.Evaluate(prog.Name, []int{4, 5, 6, 7})
	if !IsDeadlineExceeded(err) {
		t.Fatalf("err = %v, want deadline exceeded across the wire", err)
	}
}

// Drain under overload: while the limiter sheds, closing the listener
// must let the in-flight search finish and return its decision, the shed
// requests must fail fast with ErrShed (not hang on the accept
// semaphore), and ServeWith must return. Run under -race.
func TestDrainUnderOverloadSheds(t *testing.T) {
	sys, prog := newSys(t)
	lim := tinyLimiter()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() {
		serveDone <- ServeWith(sys, l, ServeOptions{Limiter: lim, DrainTimeout: 30 * time.Second})
	}()

	// A long search that holds the only expensive slot, sized to outlast
	// the shed phase below by far and still finish well inside the drain
	// budget: on a 2-vCPU Xeon VM 500k evaluations take ~0.12 s unraced
	// and ~1.8 s under -race, so the unraced search runs 8M (~1.6 s).
	effort := 8_000_000
	if raceflag.Enabled {
		effort = 500_000
	}
	longC, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer longC.Close()
	type longRes struct {
		reply *ScheduleReply
		err   error
	}
	longDone := make(chan longRes, 1)
	go func() {
		r, err := longC.ScheduleEffort(prog.Name, "cs", []int{0, 1, 2, 3}, 1, effort)
		longDone <- longRes{r, err}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for lim.Inflight() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("the long search never acquired the expensive slot")
		}
		time.Sleep(time.Millisecond)
	}
	// Park a ticket in the brownout lane: even after the long search ends,
	// every further expensive acquire sheds deterministically.
	tkCheap, err := lim.Acquire(context.Background(), admission.Cheap)
	if err != nil {
		t.Fatal(err)
	}
	defer lim.Release(tkCheap)

	// Later searches: each must be refused with ErrShed promptly, not
	// hang on a queue or the accept semaphore.
	shedErrs := make(chan error, 4)
	for i := 0; i < 4; i++ {
		go func(seed int64) {
			c, err := Dial(l.Addr().String())
			if err != nil {
				shedErrs <- err
				return
			}
			defer c.Close()
			c.SetRetryPolicy(RetryPolicy{Max: -1}) // observe the raw shed
			_, err = c.Schedule(prog.Name, "rs", []int{0, 1, 2, 3}, seed)
			shedErrs <- err
		}(int64(i + 100))
	}
	for i := 0; i < 4; i++ {
		select {
		case err := <-shedErrs:
			if !IsShed(err) {
				t.Fatalf("later search err = %v, want shed", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("shed search hung")
		}
	}

	// Begin draining while the long search is still under way: it must
	// not have answered yet, and its slot plus the parked cheap ticket
	// must still be held.
	select {
	case r := <-longDone:
		t.Fatalf("the long search ended before the drain began (err %v): size it up", r.err)
	default:
	}
	if n := lim.Inflight(); n < 2 {
		t.Fatalf("%d admission slots held at the drain, want the long search's and the cheap ticket", n)
	}
	l.Close()
	select {
	case r := <-longDone:
		if r.err != nil {
			t.Fatalf("in-flight search lost to the drain: %v", r.err)
		}
		if len(r.reply.Mapping) == 0 {
			t.Fatalf("long search reply = %+v, want a mapping", r.reply)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("long search never completed under drain")
	}
	select {
	case err := <-serveDone:
		if err != nil {
			t.Fatalf("ServeWith = %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("ServeWith hung in drain")
	}
}
