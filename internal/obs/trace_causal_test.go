package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http/httptest"
	"testing"
	"time"
)

func TestIDFormatParse(t *testing.T) {
	if FormatID(0) != "" {
		t.Fatalf("FormatID(0) = %q, want empty", FormatID(0))
	}
	id := newID()
	if id == 0 {
		t.Fatal("newID minted the zero sentinel")
	}
	s := FormatID(id)
	if len(s) != 16 {
		t.Fatalf("FormatID(%d) = %q, want 16 hex digits", id, s)
	}
	back, err := ParseID(s)
	if err != nil || back != id {
		t.Fatalf("ParseID(%q) = %d, %v; want %d", s, back, err, id)
	}
	// Every nonzero ID spells as fmt's %016x: the edges, then random IDs
	// of every magnitude (the shift gives short ones leading zeros).
	ids := []uint64{1, 0xf, 1 << 60, math.MaxUint64}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		ids = append(ids, 1|rng.Uint64()>>rng.Intn(64))
	}
	for _, id := range ids {
		if got, want := FormatID(id), fmt.Sprintf("%016x", id); got != want {
			t.Fatalf("FormatID(%#x) = %q, want %q", id, got, want)
		}
	}
	if _, err := ParseID("not-hex"); err == nil {
		t.Fatal("ParseID accepted garbage")
	}
}

func TestCausalPropagation(t *testing.T) {
	tr := NewTracer(16)
	root := tr.Start("root")
	ctx := ContextWithSpan(context.Background(), root)
	if TraceIDFromContext(ctx) != root.TraceID() {
		t.Fatal("context does not carry the root's trace")
	}
	child, ctx := StartSpan(ctx, "child")
	grand, _ := StartSpan(ctx, "grand")
	if child.TraceID() != root.TraceID() || grand.TraceID() != root.TraceID() {
		t.Fatal("descendants did not inherit the trace ID")
	}
	grand.End()
	child.End()
	root.Attr("k", 1).End()

	spans := tr.TraceSpans(root.TraceID())
	if len(spans) != 3 {
		t.Fatalf("TraceSpans returned %d spans, want 3", len(spans))
	}
	byName := map[string]Span{}
	for _, sp := range spans {
		byName[sp.Name] = sp
	}
	if byName["root"].Parent != "" {
		t.Fatalf("root has parent %q", byName["root"].Parent)
	}
	if byName["child"].Parent != byName["root"].ID {
		t.Fatalf("child parent = %q, want root %q", byName["child"].Parent, byName["root"].ID)
	}
	if byName["grand"].Parent != byName["child"].ID {
		t.Fatalf("grand parent = %q, want child %q", byName["grand"].Parent, byName["child"].ID)
	}
}

func TestStartRemoteAdoptsOrMints(t *testing.T) {
	tr := NewTracer(16)
	parent := SpanContext{TraceID: 0xabcd, SpanID: 0x1234}
	s := tr.StartRemote("rpc.X", parent)
	if s.TraceID() != parent.TraceID {
		t.Fatalf("adopted trace = %x, want %x", s.TraceID(), parent.TraceID)
	}
	s.End()
	got := tr.TraceSpans(parent.TraceID)
	if len(got) != 1 || got[0].Parent != FormatID(parent.SpanID) {
		t.Fatalf("remote span = %+v, want parent %s", got, FormatID(parent.SpanID))
	}

	minted := tr.StartRemote("rpc.Y", SpanContext{})
	if minted.TraceID() == 0 {
		t.Fatal("zero parent should mint a fresh trace")
	}
	minted.End()
	if n := len(tr.TraceSpans(minted.TraceID())); n != 1 {
		t.Fatalf("minted trace has %d spans, want 1", n)
	}
}

func TestHeadSamplingAndTailKeep(t *testing.T) {
	tr := NewTracer(64)
	// headEveryN so large that a random trace ID essentially never lands
	// on a multiple: every trace loses the head draw.
	tr.SetSampling(1<<62, time.Hour)

	fast := tr.Start("fast-clean")
	child := fast.StartChild("fast-child")
	child.End()
	fast.End()
	if got := len(tr.Spans()); got != 0 {
		t.Fatalf("unsampled fast clean spans recorded: %d", got)
	}

	failed := tr.Start("failed")
	failed.Error(errors.New("boom")).End()
	if got := tr.TraceSpans(failed.TraceID()); len(got) != 1 {
		t.Fatalf("errored span not tail-kept: %v", got)
	}

	tr.SetSampling(1<<62, time.Millisecond)
	slow := tr.StartAt("slow", time.Now().Add(-time.Second))
	slow.End()
	if got := tr.TraceSpans(slow.TraceID()); len(got) != 1 {
		t.Fatalf("slow span not tail-kept: %v", got)
	}

	// Back to keep-everything: clean fast spans record again.
	tr.SetSampling(1, 0)
	kept := tr.Start("kept")
	kept.End()
	if got := tr.TraceSpans(kept.TraceID()); len(got) != 1 {
		t.Fatalf("keep-all span dropped: %v", got)
	}
}

func TestNilTracerAndNilSpanAreNoOps(t *testing.T) {
	var tr *Tracer
	s := tr.Start("x")
	s.Attr("k", 1).Error(errors.New("e")).End() // must not panic
	if s.TraceID() != 0 || s.Context().Valid() {
		t.Fatal("nil span has an identity")
	}
	if tr.Spans() != nil || tr.TraceSpans(1) != nil {
		t.Fatal("nil tracer returned spans")
	}
	child := s.StartChild("y")
	if child != nil {
		t.Fatal("nil span spawned a child")
	}
	_, ctx := StartSpan(context.Background(), "root-fallback")
	if TraceIDFromContext(ctx) == 0 {
		t.Fatal("StartSpan without a parent did not root on the default tracer")
	}
}

func TestRecorderRingAndQuery(t *testing.T) {
	r := NewRecorder(4)
	kinds := []string{"schedule", "evaluate", "schedule", "evaluate", "schedule", "compare"}
	for i, k := range kinds {
		r.Record(Decision{Kind: k, App: "app", TraceID: FormatID(uint64(i + 1)), Epoch: uint64(i)})
	}
	if r.Total() != 6 {
		t.Fatalf("Total = %d, want 6", r.Total())
	}
	all := r.Decisions(DecisionQuery{})
	if len(all) != 4 {
		t.Fatalf("resident = %d, want capacity 4", len(all))
	}
	if all[0].Kind != "compare" || all[0].Epoch != 5 {
		t.Fatalf("newest-first order violated: %+v", all[0])
	}
	sched := r.Decisions(DecisionQuery{Kind: "schedule"})
	if len(sched) != 2 { // oldest two schedules were overwritten
		t.Fatalf("kind filter returned %d, want 2", len(sched))
	}
	if got := r.Decisions(DecisionQuery{Kind: "schedule", N: 1}); len(got) != 1 || got[0].Epoch != 4 {
		t.Fatalf("N bound broken: %+v", got)
	}
	if got := r.Decisions(DecisionQuery{TraceID: FormatID(6)}); len(got) != 1 || got[0].Kind != "compare" {
		t.Fatalf("trace filter broken: %+v", got)
	}
	if got := r.Decisions(DecisionQuery{App: "other"}); len(got) != 0 {
		t.Fatalf("app filter matched %d, want 0", len(got))
	}
	if r.Decisions(DecisionQuery{})[0].Time.IsZero() {
		t.Fatal("Record did not stamp the time")
	}

	var nilRec *Recorder
	nilRec.Record(Decision{}) // must not panic
	if nilRec.Total() != 0 || nilRec.Decisions(DecisionQuery{}) != nil {
		t.Fatal("nil recorder is not a no-op")
	}
}

func TestChromeTraceTracks(t *testing.T) {
	base := time.Unix(1000, 0)
	spans := []Span{
		{Name: "parent", ID: "01", Start: base, Seconds: 0.100},
		{Name: "c1", ID: "02", Parent: "01", Start: base.Add(10 * time.Millisecond), Seconds: 0.050},
		{Name: "c2", ID: "03", Parent: "01", Start: base.Add(40 * time.Millisecond), Seconds: 0.050,
			Attrs: []Attr{{Key: "restart", Val: 1}}},
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, spans); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   int64          `json:"ts"`
			Dur  int64          `json:"dur"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(out.TraceEvents) != 3 {
		t.Fatalf("events = %d, want 3", len(out.TraceEvents))
	}
	tid := map[string]int{}
	for _, ev := range out.TraceEvents {
		if ev.Ph != "X" {
			t.Fatalf("event %s has phase %q, want X", ev.Name, ev.Ph)
		}
		tid[ev.Name] = ev.Tid
	}
	// c1 nests inside parent (same track legal); c2 overlaps c1 without
	// containment, so it must move to another track to render sanely.
	if tid["c1"] != tid["parent"] {
		t.Fatalf("contained child on track %d, parent on %d", tid["c1"], tid["parent"])
	}
	if tid["c2"] == tid["c1"] {
		t.Fatal("overlapping siblings share a track")
	}
	for _, ev := range out.TraceEvents {
		if ev.Name == "c2" {
			if ev.Args["restart"] != float64(1) || ev.Args["parent"] != "01" {
				t.Fatalf("attrs not exported: %+v", ev.Args)
			}
		}
	}
}

func TestSpanHandlerFilters(t *testing.T) {
	tr := NewTracer(16)
	a := tr.Start("alpha.one")
	a.End()
	b := tr.Start("beta.two")
	b.End()
	c := tr.Start("alpha.three")
	c.End()

	get := func(url string) (int, []Span) {
		rec := httptest.NewRecorder()
		SpanHandler(tr).ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
		var spans []Span
		if rec.Code == 200 {
			if err := json.Unmarshal(rec.Body.Bytes(), &spans); err != nil {
				t.Fatalf("%s: bad JSON: %v", url, err)
			}
		}
		return rec.Code, spans
	}

	if code, spans := get("/debug/spans"); code != 200 || len(spans) != 3 {
		t.Fatalf("unfiltered: code=%d spans=%d", code, len(spans))
	}
	if _, spans := get("/debug/spans?name=alpha"); len(spans) != 2 {
		t.Fatalf("name filter: %d spans, want 2", len(spans))
	}
	if _, spans := get("/debug/spans?name=alpha&n=1"); len(spans) != 1 || spans[0].Name != "alpha.three" {
		t.Fatalf("n keeps most recent: %+v", spans)
	}
	if _, spans := get("/debug/spans?trace=" + FormatID(b.TraceID())); len(spans) != 1 || spans[0].Name != "beta.two" {
		t.Fatalf("trace filter: %+v", spans)
	}
	if code, _ := get("/debug/spans?n=bogus"); code != 400 {
		t.Fatalf("bad n: code=%d, want 400", code)
	}
	if code, _ := get("/debug/spans?trace=zz"); code != 400 {
		t.Fatalf("bad trace: code=%d, want 400", code)
	}
}

func TestTraceHandler(t *testing.T) {
	tr := NewTracer(16)
	root := tr.Start("root")
	root.StartChild("child").End()
	root.End()

	get := func(url string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		TraceHandler(tr).ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
		return rec
	}
	if rec := get("/debug/trace"); rec.Code != 400 {
		t.Fatalf("missing id: code=%d", rec.Code)
	}
	if rec := get("/debug/trace?id=nothex"); rec.Code != 400 {
		t.Fatalf("bad id: code=%d", rec.Code)
	}
	if rec := get("/debug/trace?id=" + FormatID(newID())); rec.Code != 404 {
		t.Fatalf("unknown trace: code=%d", rec.Code)
	}
	rec := get("/debug/trace?id=" + FormatID(root.TraceID()))
	if rec.Code != 200 {
		t.Fatalf("known trace: code=%d body=%s", rec.Code, rec.Body.String())
	}
	var out struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil || len(out.TraceEvents) != 2 {
		t.Fatalf("export: err=%v events=%d, want 2", err, len(out.TraceEvents))
	}
}

// TestDecisionQueryFilters pins the flight recorder's query: kind, app
// and trace filters match exactly, and N bounds the newest-first result.
func TestDecisionQueryFilters(t *testing.T) {
	r := NewRecorder(8)
	r.Record(Decision{Kind: "schedule", App: "a", TraceID: FormatID(11)})
	r.Record(Decision{Kind: "evaluate", App: "b", TraceID: FormatID(12)})

	if ds := r.Decisions(DecisionQuery{}); len(ds) != 2 {
		t.Fatalf("unfiltered: n=%d", len(ds))
	}
	if ds := r.Decisions(DecisionQuery{Kind: "schedule"}); len(ds) != 1 || ds[0].App != "a" {
		t.Fatalf("kind filter: %+v", ds)
	}
	if ds := r.Decisions(DecisionQuery{App: "b"}); len(ds) != 1 || ds[0].Kind != "evaluate" {
		t.Fatalf("app filter: %+v", ds)
	}
	if ds := r.Decisions(DecisionQuery{TraceID: FormatID(12)}); len(ds) != 1 || ds[0].Kind != "evaluate" {
		t.Fatalf("trace filter: %+v", ds)
	}
	if ds := r.Decisions(DecisionQuery{N: 1}); len(ds) != 1 || ds[0].Kind != "evaluate" {
		t.Fatalf("n bound (newest first): %+v", ds)
	}
}
