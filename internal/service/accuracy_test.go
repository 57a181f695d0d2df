package service

import (
	"strings"
	"testing"
)

// TestAccuracyLoopOverRPC drives the full predicted-vs-actual loop through
// the wire: Evaluate hands out a PredictionID, ReportOutcome joins the
// measured runtime, and the Accuracy RPC surfaces the joined pair with
// calibration statistics. The ledger behind the server is the process-wide
// default, so every assertion on counters is a before/after delta.
func TestAccuracyLoopOverRPC(t *testing.T) {
	c, prog, _ := startServer(t)
	mapping := []int{0, 1, 2, 3}

	before, err := c.Accuracy("", "", 0)
	if err != nil {
		t.Fatalf("Accuracy: %v", err)
	}

	ev, err := c.Evaluate(prog.Name, mapping)
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	if ev.PredictionID == "" {
		t.Fatal("Evaluate reply has no PredictionID")
	}
	if ev.Seconds <= 0 {
		t.Fatalf("Evaluate predicted %v", ev.Seconds)
	}

	// Report a measured runtime 5% above the estimate: signed error
	// (pred-actual)/actual is then about -4.76%.
	actual := ev.Seconds * 1.05
	out, err := c.ReportOutcome(ev.PredictionID, actual)
	if err != nil {
		t.Fatalf("ReportOutcome: %v", err)
	}
	if out.App != prog.Name {
		t.Errorf("outcome app = %q, want %q", out.App, prog.Name)
	}
	if out.Predicted != ev.Seconds || out.Actual != actual {
		t.Errorf("outcome pair = (%v, %v), want (%v, %v)", out.Predicted, out.Actual, ev.Seconds, actual)
	}
	if out.SignedErrPct >= 0 || out.AbsErrPct < 4 || out.AbsErrPct > 6 {
		t.Errorf("outcome err = %+.2f%% / %.2f%%, want about -4.8%% / 4.8%%", out.SignedErrPct, out.AbsErrPct)
	}

	after, err := c.Accuracy(prog.Name, "", 10)
	if err != nil {
		t.Fatalf("Accuracy: %v", err)
	}
	if got := after.Status.Joined - before.Status.Joined; got < 1 {
		t.Errorf("joined delta = %d, want >= 1", got)
	}
	foundSample := false
	for _, s := range after.Samples {
		if s.ID == ev.PredictionID {
			foundSample = true
			if s.Actual != actual {
				t.Errorf("sample actual = %v, want %v", s.Actual, actual)
			}
		}
	}
	if !foundSample {
		t.Errorf("joined sample %s not in Accuracy reply (%d samples)", ev.PredictionID, len(after.Samples))
	}

	// A second report against the same ID must fail: joins are one-shot.
	if _, err := c.ReportOutcome(ev.PredictionID, actual); err == nil {
		t.Error("second ReportOutcome on same ID succeeded, want error")
	} else if !strings.Contains(err.Error(), "unknown") {
		t.Errorf("second ReportOutcome error = %v, want unknown-ID", err)
	}
}

// TestWideCompareKeepsPendingPredictions: a Compare wider than
// maxCompareMappings is refused before it registers a prediction, so it
// cannot push another client's pending prediction out of the ledger.
func TestWideCompareKeepsPendingPredictions(t *testing.T) {
	c, prog, _ := startServer(t)
	mapping := []int{0, 1, 2, 3}
	ev, err := c.Evaluate(prog.Name, mapping)
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	wide := make([][]int, 4096)
	for i := range wide {
		wide[i] = mapping
	}
	if _, err := c.Compare(prog.Name, wide); err == nil {
		t.Error("4096-wide Compare succeeded, want error")
	}
	if _, err := c.Compare(prog.Name, wide[:maxCompareMappings]); err != nil {
		t.Errorf("%d-wide Compare: %v", maxCompareMappings, err)
	}
	if _, err := c.ReportOutcome(ev.PredictionID, ev.Seconds); err != nil {
		t.Fatalf("ReportOutcome after wide Compare: %v", err)
	}
}

// TestComparesKeepPendingEvaluate: a Compare registers one prediction,
// its best candidate's, so sixteen 256-wide Compares (4 096 candidates,
// the size of the ledger's pending ring) leave an earlier Evaluate's
// prediction joinable.
func TestComparesKeepPendingEvaluate(t *testing.T) {
	c, prog, _ := startServer(t)
	mapping := []int{0, 1, 2, 3}
	ev, err := c.Evaluate(prog.Name, mapping)
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	wide := make([][]int, maxCompareMappings)
	for i := range wide {
		wide[i] = []int{i % 4, (i + 1) % 4, (i + 2) % 4, (i + 3) % 4}
	}
	for i := 0; i < 16; i++ {
		r, err := c.Compare(prog.Name, wide)
		if err != nil {
			t.Fatalf("Compare %d: %v", i, err)
		}
		if r.PredictionID == "" || r.PredictionID == ev.PredictionID {
			t.Fatalf("Compare %d: PredictionID %q, want a fresh ledger key", i, r.PredictionID)
		}
	}
	if _, err := c.ReportOutcome(ev.PredictionID, ev.Seconds); err != nil {
		t.Fatalf("ReportOutcome after sixteen wide Compares: %v", err)
	}
}

// TestSchedulePredictionIDAndOutcome checks the Schedule path hands out its
// own ledger entry, distinct from Evaluate's.
func TestSchedulePredictionIDAndOutcome(t *testing.T) {
	c, prog, _ := startServer(t)

	sched, err := c.Schedule(prog.Name, "cs", []int{0, 1, 2, 3}, 42)
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	if sched.PredictionID == "" {
		t.Fatal("Schedule reply has no PredictionID")
	}
	ev, err := c.Evaluate(prog.Name, sched.Mapping)
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	if ev.PredictionID == sched.PredictionID {
		t.Error("Evaluate and Schedule share a PredictionID; every prediction must get its own")
	}
	out, err := c.ReportOutcome(sched.PredictionID, sched.Predicted*0.97)
	if err != nil {
		t.Fatalf("ReportOutcome: %v", err)
	}
	if out.Scheduler != "cs" {
		t.Errorf("outcome scheduler = %q, want \"cs\"", out.Scheduler)
	}
	if out.SignedErrPct <= 0 {
		t.Errorf("signed err = %+.2f%%, want positive (over-prediction)", out.SignedErrPct)
	}
}

// TestDriftAlarmFlipsAndRecoversOverRPC pushes a run of badly-biased
// outcomes through the wire until the drift detector trips, checks all the
// client-visible surfaces (ReportOutcome reply, Accuracy status), then feeds
// accurate outcomes until the sliding window recovers — leaving the shared
// default ledger calibrated for whatever test runs next.
func TestDriftAlarmFlipsAndRecoversOverRPC(t *testing.T) {
	c, prog, _ := startServer(t)
	mapping := []int{0, 1, 2, 3}

	report := func(factor float64) *ReportOutcomeReply {
		t.Helper()
		ev, err := c.Evaluate(prog.Name, mapping)
		if err != nil {
			t.Fatalf("Evaluate: %v", err)
		}
		out, err := c.ReportOutcome(ev.PredictionID, ev.Seconds*factor)
		if err != nil {
			t.Fatalf("ReportOutcome: %v", err)
		}
		return out
	}

	// 20 outcomes at half the predicted time: |signed err| = 100%, far
	// beyond the 25% drift floor once the 16-sample minimum is met.
	var out *ReportOutcomeReply
	for i := 0; i < 20; i++ {
		out = report(0.5)
	}
	if out.CalibrationOK {
		t.Fatal("calibration still OK after 20 outcomes at 100% error")
	}
	st, err := c.Accuracy("", "", 0)
	if err != nil {
		t.Fatalf("Accuracy: %v", err)
	}
	if st.Status.CalibrationOK {
		t.Error("Accuracy status reports calibration OK while drifted")
	}
	if st.Status.WindowMAPEPct < 25 {
		t.Errorf("window MAPE = %.1f%%, want >= 25%%", st.Status.WindowMAPEPct)
	}

	// The error band for this bucket is now well-populated and should ride
	// on subsequent Evaluate replies.
	ev, err := c.Evaluate(prog.Name, mapping)
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	if ev.ErrBandSamples < 8 {
		t.Errorf("ErrBandSamples = %d, want >= 8 after 20 joins", ev.ErrBandSamples)
	}
	if ev.ErrBandHighPct < 50 {
		t.Errorf("ErrBandHighPct = %+.1f%%, want large positive band after +100%% errors", ev.ErrBandHighPct)
	}

	// Recovery: enough near-perfect outcomes to flush the sliding window.
	for i := 0; i < 70; i++ {
		out = report(1.001)
	}
	if !out.CalibrationOK {
		st, _ := c.Accuracy("", "", 0)
		t.Fatalf("calibration did not recover: window MAPE %.1f%% over %d", st.Status.WindowMAPEPct, st.Status.WindowN)
	}
}
