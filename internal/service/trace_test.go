package service

import (
	"strings"
	"testing"
	"time"

	"cbes/internal/obs"
)

// Client and server share this test process's default tracer, so one
// round trip over real TCP must leave both halves of the trace — the
// client's rpc.client.* span and the server's rpc.* span — linked by
// the wire-carried TraceMeta: same trace ID, server parented under the
// client span, and the reply echoing the ID.
func TestTraceIDCrossesWire(t *testing.T) {
	c, prog, _ := startServer(t)
	r, err := c.Evaluate(prog.Name, []int{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if r.TraceID == "" {
		t.Fatal("reply did not echo a trace ID")
	}
	id, err := obs.ParseID(r.TraceID)
	if err != nil {
		t.Fatalf("reply trace ID %q unparseable: %v", r.TraceID, err)
	}

	var clientSpan, serverSpan *obs.Span
	for _, sp := range obs.DefaultTracer().TraceSpans(id) {
		sp := sp
		switch sp.Name {
		case "rpc.client.Evaluate":
			clientSpan = &sp
		case "rpc.Evaluate":
			serverSpan = &sp
		}
	}
	if clientSpan == nil || serverSpan == nil {
		t.Fatalf("trace %s missing client (%v) or server (%v) span", r.TraceID, clientSpan, serverSpan)
	}
	if clientSpan.Parent != "" {
		t.Fatalf("client span should be the root, has parent %q", clientSpan.Parent)
	}
	if serverSpan.Parent != clientSpan.ID {
		t.Fatalf("server span parent = %q, want client span %q", serverSpan.Parent, clientSpan.ID)
	}
}

// A Schedule round trip must produce the full causal tree — client →
// server interceptor → scheduling decision → anneal restarts → cache
// lookup — all under the reply's trace ID, plus a matching flight-
// recorder record.
func TestScheduleTraceTreeAndDecisionRecord(t *testing.T) {
	c, prog, _ := startServer(t)
	r, err := c.Schedule(prog.Name, "cs", []int{0, 1, 2, 3, 4, 5, 6, 7}, 3)
	if err != nil {
		t.Fatal(err)
	}
	id, err := obs.ParseID(r.TraceID)
	if err != nil {
		t.Fatalf("schedule reply trace ID %q: %v", r.TraceID, err)
	}

	counts := map[string]int{}
	for _, sp := range obs.DefaultTracer().TraceSpans(id) {
		counts[sp.Name]++
	}
	for _, want := range []string{"rpc.client.Schedule", "rpc.Schedule", "schedule.decision", "anneal.run", "cache.lookup"} {
		if counts[want] == 0 {
			t.Fatalf("trace %s missing %q span; have %v", r.TraceID, want, counts)
		}
	}
	if counts["anneal.run"] < 2 {
		t.Fatalf("expected parallel restarts to contribute multiple anneal.run spans, got %d", counts["anneal.run"])
	}

	recs := obs.DefaultRecorder().Decisions(obs.DecisionQuery{TraceID: r.TraceID})
	if len(recs) != 1 {
		t.Fatalf("flight recorder has %d records for trace %s, want 1", len(recs), r.TraceID)
	}
	d := recs[0]
	if d.Kind != "schedule" || d.App != prog.Name || d.Algorithm != "cs" || d.Seed != 3 {
		t.Fatalf("decision record mismatch: %+v", d)
	}
	if len(d.Mapping) != len(r.Mapping) || d.Predicted != r.Predicted || d.Evaluations != r.Evaluations {
		t.Fatalf("decision record does not match reply: %+v vs %+v", d, r)
	}

	// The Decisions RPC must surface the same record.
	dr, err := c.Decisions(0, "", "", r.TraceID)
	if err != nil {
		t.Fatal(err)
	}
	if len(dr.Decisions) != 1 || dr.Decisions[0].TraceID != r.TraceID {
		t.Fatalf("Decisions RPC returned %+v, want the schedule record of trace %s", dr.Decisions, r.TraceID)
	}
	if dr.Total == 0 {
		t.Fatal("Decisions RPC reported zero lifetime total")
	}
}

// Decision records capture failures too (forensics wants the denials),
// and the Decisions RPC filters by kind and app. Two identical Schedules
// whose deadlines expire mid-search each fail on their own deadline and
// each leave exactly one record of it.
func TestDecisionRecordsFailures(t *testing.T) {
	c, prog, sys := startServer(t)
	if _, err := c.Evaluate("no-such-app", []int{0}); err == nil {
		t.Fatal("unknown app should error")
	}
	dr, err := c.Decisions(1, "evaluate", "no-such-app", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(dr.Decisions) != 1 {
		t.Fatalf("no decision record for the failed evaluate: %+v", dr)
	}
	if !strings.Contains(dr.Decisions[0].Err, "no-such-app") {
		t.Fatalf("record error = %q, want the unknown-app complaint", dr.Decisions[0].Err)
	}

	// Each search far outlasts its deadline, so it fails with a deadline
	// error, not a shed.
	s := NewServer(sys)
	schedule := func(deadline time.Duration) (uint64, chan error) {
		args := &ScheduleArgs{
			TraceMeta: freshTrace(),
			App:       prog.Name, Algorithm: "cs", Pool: []int{0, 1, 2, 3, 4, 5, 6, 7}, Seed: 9, Effort: 50_000_000,
		}
		args.setDeadline(time.Now().Add(deadline))
		done := make(chan error, 1)
		go func() { done <- s.Schedule(args, &ScheduleReply{}) }()
		return args.TraceID, done
	}
	patient, patientDone := schedule(time.Second)
	impatient, impatientDone := schedule(200 * time.Millisecond)
	for _, done := range []chan error{patientDone, impatientDone} {
		if err := <-done; !IsDeadlineExceeded(err) {
			t.Fatalf("err = %v, want deadline exceeded", err)
		}
	}
	for _, trace := range []uint64{patient, impatient} {
		recs := s.rec.Decisions(obs.DecisionQuery{TraceID: obs.FormatID(trace)})
		if len(recs) != 1 {
			t.Fatalf("trace %x left %d decision records, want 1", trace, len(recs))
		}
		if d := recs[0]; d.Kind != "schedule" || d.Shed || !strings.Contains(d.Err, "deadline") {
			t.Fatalf("trace %x: record %+v, want a deadline failure", trace, d)
		}
	}
}

// An old-style client that never stamps TraceMeta (the zero value on
// the wire) must still get a server-minted trace echoed back.
func TestServerMintsWhenClientSilent(t *testing.T) {
	s, prog, _ := newLocalServer(t)
	var reply EvaluateReply
	if err := s.Evaluate(&EvaluateArgs{App: prog.Name, Mapping: []int{0, 1, 2, 3}}, &reply); err != nil {
		t.Fatal(err)
	}
	if reply.TraceID == "" {
		t.Fatal("server did not mint a trace for an unstamped request")
	}
	id, err := obs.ParseID(reply.TraceID)
	if err != nil {
		t.Fatal(err)
	}
	spans := obs.DefaultTracer().TraceSpans(id)
	if len(spans) == 0 {
		t.Fatal("minted trace has no recorded spans")
	}
	for _, sp := range spans {
		if sp.Name == "rpc.Evaluate" && sp.Parent != "" {
			t.Fatalf("minted rpc span should be a root, has parent %q", sp.Parent)
		}
	}
}

// The Decisions RPC's trace filter takes any hex spelling of a trace ID —
// upper case, or without its leading zeros — and refuses a string that is
// not a trace ID rather than let it match nothing. The evaluate runs under
// a caller trace whose ID has leading zero digits and hex letters, so both
// alternative spellings differ from the one records carry.
func TestDecisionsTraceFilterNormalises(t *testing.T) {
	c, prog, _ := startServer(t)
	meta := freshTrace()
	meta.TraceID = meta.TraceID>>16 | 0xab<<40
	var ev EvaluateReply
	if err := c.conn().Call(RPCName+".Evaluate", &EvaluateArgs{TraceMeta: meta, App: prog.Name, Mapping: []int{0, 1, 2, 3}}, &ev); err != nil {
		t.Fatal(err)
	}
	if ev.TraceID != obs.FormatID(meta.TraceID) {
		t.Fatalf("reply trace %q, want the caller's %s", ev.TraceID, obs.FormatID(meta.TraceID))
	}
	for _, spelling := range []string{strings.ToUpper(ev.TraceID), strings.TrimLeft(ev.TraceID, "0")} {
		dr, err := c.Decisions(0, "", "", spelling)
		if err != nil {
			t.Fatalf("trace filter %q: %v", spelling, err)
		}
		if len(dr.Decisions) != 1 || dr.Decisions[0].TraceID != ev.TraceID {
			t.Fatalf("trace filter %q matched %+v, want the evaluate record of %s", spelling, dr.Decisions, ev.TraceID)
		}
	}
	for _, bad := range []string{"zz", "0"} {
		if dr, err := c.Decisions(0, "", "", bad); err == nil || !strings.Contains(err.Error(), "bad trace id") {
			t.Fatalf("trace filter %q: %d records, err %v; want a bad trace id error", bad, len(dr.Decisions), err)
		}
	}
}
