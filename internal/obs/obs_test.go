package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "a counter")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if same := r.Counter("c_total", "a counter"); same != c {
		t.Fatal("re-registration did not return the existing counter")
	}

	g := r.Gauge("g", "a gauge")
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", got)
	}
}

func TestNilMetricsAreNoOps(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	var tr *Tracer
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	tr.Start("x").Attr("k", 1).End()
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || tr.Spans() != nil {
		t.Fatal("nil metrics must read as zero")
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h_seconds", "a histogram", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 2, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if math.Abs(h.Sum()-102.65) > 1e-9 {
		t.Fatalf("sum = %v, want 102.65", h.Sum())
	}
	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	out := buf.String()
	for _, want := range []string{
		`h_seconds_bucket{le="0.1"} 2`, // 0.05 and the boundary value 0.1
		`h_seconds_bucket{le="1"} 3`,
		`h_seconds_bucket{le="10"} 4`,
		`h_seconds_bucket{le="+Inf"} 5`,
		`h_seconds_count 5`,
		"# TYPE h_seconds histogram",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestVecLabels(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("rpc_total", "requests", "method")
	v.With("Evaluate").Add(2)
	v.With("Schedule").Inc()
	if v.With("Evaluate").Value() != 2 {
		t.Fatal("labeled child lost its count")
	}
	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	out := buf.String()
	if !strings.Contains(out, `rpc_total{method="Evaluate"} 2`) ||
		!strings.Contains(out, `rpc_total{method="Schedule"} 1`) {
		t.Fatalf("labeled exposition wrong:\n%s", out)
	}

	hv := r.HistogramVec("lat_seconds", "latency", []float64{1}, "method")
	hv.With("Evaluate").Observe(0.5)
	buf.Reset()
	r.WritePrometheus(&buf)
	if !strings.Contains(buf.String(), `lat_seconds_bucket{method="Evaluate",le="1"} 1`) {
		t.Fatalf("labeled histogram exposition wrong:\n%s", buf.String())
	}

	// Label values escape backslash, quote and newline; help text escapes
	// backslash and newline.
	r.CounterVec("esc_total", "a\\b\nc", "k").With("x\"y\\z\n").Inc()
	buf.Reset()
	r.WritePrometheus(&buf)
	for _, want := range []string{`# HELP esc_total a\\b\nc`, `esc_total{k="x\"y\\z\n"} 1`} {
		if !strings.Contains(buf.String(), want+"\n") {
			t.Fatalf("escaped exposition lacks %s:\n%s", want, buf.String())
		}
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x", "")
	defer func() {
		if recover() == nil {
			t.Fatal("kind mismatch should panic")
		}
	}()
	r.Gauge("x", "")
}

func TestConcurrentIncrements(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("n_total", "")
	h := r.Histogram("h_seconds", "", []float64{1})
	v := r.CounterVec("l_total", "", "k")
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				h.Observe(0.5)
				v.With("a").Inc()
			}
		}()
	}
	wg.Wait()
	if c.Value() != workers*per || h.Count() != workers*per || v.With("a").Value() != workers*per {
		t.Fatalf("lost updates: %d %d %d", c.Value(), h.Count(), v.With("a").Value())
	}
}

func TestLogBuckets(t *testing.T) {
	b := LogBuckets(1e-3, 1)
	want := []float64{1e-3, 2e-3, 5e-3, 1e-2, 2e-2, 5e-2, 0.1, 0.2, 0.5, 1}
	if len(b) != len(want) {
		t.Fatalf("buckets = %v, want %v", b, want)
	}
	for i := range b {
		if math.Abs(b[i]-want[i]) > 1e-12*want[i] {
			t.Fatalf("bucket[%d] = %v, want %v", i, b[i], want[i])
		}
	}
}

func TestTracerRingAndSink(t *testing.T) {
	var sink bytes.Buffer
	tr := NewTracer(4)
	tr.SetSink(&sink)
	for i := 0; i < 6; i++ {
		tr.Start("step").Attr("i", i).End()
	}
	spans := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("ring kept %d spans, want 4", len(spans))
	}
	// Oldest-first: the surviving spans are i = 2..5.
	if got := spans[0].Attrs[0].Val.(int); got != 2 {
		t.Fatalf("oldest surviving span i = %v, want 2", got)
	}
	// The sink saw all six, one JSON object per line.
	lines := strings.Split(strings.TrimSpace(sink.String()), "\n")
	if len(lines) != 6 {
		t.Fatalf("sink got %d lines, want 6", len(lines))
	}
	for _, ln := range lines {
		var sp Span
		if err := json.Unmarshal([]byte(ln), &sp); err != nil {
			t.Fatalf("bad JSONL line %q: %v", ln, err)
		}
		if sp.Name != "step" {
			t.Fatalf("span name = %q", sp.Name)
		}
	}
}

func TestDebugMux(t *testing.T) {
	r := NewRegistry()
	r.Counter("cbes_test_total", "").Inc()
	tr := NewTracer(8)
	tr.Start("boot").End()
	mux := DebugMux(r, tr, nil, nil)

	get := func(path string) (int, string) {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec.Code, rec.Body.String()
	}
	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "cbes_test_total 1") {
		t.Fatalf("/metrics: %d\n%s", code, body)
	}
	if code, body := get("/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Fatalf("/healthz: %d %q", code, body)
	}
	if code, body := get("/readyz"); code != 200 || !strings.Contains(body, "ok") {
		t.Fatalf("/readyz: %d %q", code, body)
	}
	if code, body := get("/debug/spans"); code != 200 || !strings.Contains(body, "boot") {
		t.Fatalf("/debug/spans: %d\n%s", code, body)
	}
	// Metrics are Prometheus text only, and decision records are read
	// over the RPC only: neither has a second route here.
	for _, gone := range []string{"/debug/vars", "/debug/decisions"} {
		if code, _ := get(gone); code != 404 {
			t.Fatalf("%s: %d, want 404", gone, code)
		}
	}
}

func TestDebugMuxUnhealthy(t *testing.T) {
	mux := DebugMux(NewRegistry(), nil, func() error { return errTest }, nil)
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 503 {
		t.Fatalf("/healthz on unhealthy service: %d, want 503", rec.Code)
	}
	// nil ready falls back to live: unready too.
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/readyz", nil))
	if rec.Code != 503 {
		t.Fatalf("/readyz fallback: %d, want 503", rec.Code)
	}
}

// TestDebugMuxSplitProbes pins the liveness/readiness split: a live-but-
// degraded daemon answers 200 on /healthz and 503 on /readyz.
func TestDebugMuxSplitProbes(t *testing.T) {
	degraded := true
	mux := DebugMux(NewRegistry(), nil,
		func() error { return nil },
		func() error {
			if degraded {
				return errTest
			}
			return nil
		})
	get := func(path string) int {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec.Code
	}
	if code := get("/healthz"); code != 200 {
		t.Fatalf("/healthz while degraded: %d, want 200 (still live)", code)
	}
	if code := get("/readyz"); code != 503 {
		t.Fatalf("/readyz while degraded: %d, want 503", code)
	}
	degraded = false
	if code := get("/readyz"); code != 200 {
		t.Fatalf("/readyz recovered: %d, want 200", code)
	}
}

var errTest = errTestType{}

type errTestType struct{}

func (errTestType) Error() string { return "not ready" }
