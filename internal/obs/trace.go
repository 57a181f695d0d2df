// Causal span tracing: timed, attributed events linked into per-request
// trace trees (TraceID/SpanID/ParentID), recorded to a fixed-size
// in-memory ring buffer (overwrite-oldest) and optionally streamed to a
// JSONL sink. Spans are coarse-grained by design — one per RPC, per
// annealing restart, per scheduling decision — never one per energy
// evaluation, so the tracer stays off the fast path entirely.
//
// Causality crosses both goroutines and the net/rpc wire: the active
// span rides a context.Context inside a process, and its SpanContext
// (two uint64 IDs) rides request args between processes — the client
// stamps, the server adopts or mints, and the reply echoes the trace ID
// so the caller can query the trace afterwards.
//
// Cost policy: a nil *Tracer (and the nil *ActiveSpan it returns) is a
// complete no-op. An enabled tracer applies a head sampler at root-span
// creation (keep one trace in N, decided deterministically from the
// trace ID so every process keeps the *same* traces) plus a tail-keep
// override at End: spans that errored or ran slower than the cutoff are
// recorded even when their trace was not head-sampled, so the ring
// always holds the interesting evidence.
package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Attr is one key/value annotation on a span.
type Attr struct {
	Key string `json:"k"`
	Val any    `json:"v"`
}

// Span is one completed timed event. Trace, ID, and Parent are
// fixed-width lowercase-hex IDs (see FormatID); Parent is empty for
// root spans, and all three are empty for spans recorded by pre-causal
// call sites (none remain in-tree, but the JSONL shape admits them).
type Span struct {
	Name    string    `json:"name"`
	Trace   string    `json:"trace,omitempty"`
	ID      string    `json:"span,omitempty"`
	Parent  string    `json:"parent,omitempty"`
	Start   time.Time `json:"start"`
	Seconds float64   `json:"seconds"`
	Attrs   []Attr    `json:"attrs,omitempty"`
}

// SpanContext is the wire-portable identity of a span: enough for a
// remote callee (or a child goroutine) to parent new spans under it.
// The zero value is "no span".
type SpanContext struct {
	TraceID uint64
	SpanID  uint64
}

// Valid reports whether the context identifies a trace.
func (c SpanContext) Valid() bool { return c.TraceID != 0 }

// ID generation: splitmix64 over an atomic counter seeded once from the
// wall clock and PID. Fast (one atomic add plus shifts), collision-safe
// enough for a debugging facility, and allocation-free.
var idState atomic.Uint64

func init() {
	idState.Store(uint64(time.Now().UnixNano())*0x9e3779b97f4a7c15 ^ uint64(os.Getpid())<<32)
}

func newID() uint64 {
	x := idState.Add(0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	if x == 0 {
		x = 1 // 0 is the "no trace" sentinel
	}
	return x
}

// FormatID renders a trace or span ID the way spans, decision records,
// and the /debug/trace endpoint spell it: 16 lowercase hex digits, the
// same bytes as fmt.Sprintf("%016x", id) without fmt's interface boxing,
// since every span renders three IDs.
func FormatID(id uint64) string {
	if id == 0 {
		return ""
	}
	const digits = "0123456789abcdef"
	var b [16]byte
	for i := len(b) - 1; i >= 0; i-- {
		b[i] = digits[id&0xf]
		id >>= 4
	}
	return string(b[:])
}

// ParseID parses a FormatID-rendered (or any hex) ID.
func ParseID(s string) (uint64, error) {
	id, err := strconv.ParseUint(strings.TrimSpace(s), 16, 64)
	if err != nil {
		return 0, fmt.Errorf("obs: bad trace id %q", s)
	}
	return id, nil
}

// Tracer records spans. The zero value is unusable; build one with
// NewTracer. A nil Tracer is a disabled no-op (all Start variants
// return a nil ActiveSpan whose methods are also no-ops).
type Tracer struct {
	mu   sync.Mutex
	size int
	ring []Span // size spans, allocated by the first record
	next int
	n    int
	sink io.Writer

	// Sampling policy (atomics: read on every root Start / span End).
	headEveryN atomic.Int64 // keep 1 trace in N; <=1 keeps all
	slowKeepNs atomic.Int64 // tail-keep cutoff; <=0 uses DefaultSlowKeep
}

// DefaultRingSize is the span capacity of the default tracer.
const DefaultRingSize = 1024

// DefaultSlowKeep is the tail-keep latency cutoff when SetSampling does
// not override it: any span at least this slow is recorded regardless
// of the head-sampling decision.
const DefaultSlowKeep = 100 * time.Millisecond

// NewTracer returns a tracer holding the most recent size spans. The ring
// is allocated when the first span is recorded, so a process that imports
// the package and never traces does not carry it.
func NewTracer(size int) *Tracer {
	if size <= 0 {
		size = DefaultRingSize
	}
	return &Tracer{size: size}
}

var defaultTracer = NewTracer(DefaultRingSize)

// Default-tracer observability: sink drops, ring occupancy and spans the
// sampler discarded. Only the process-wide default tracer feeds these
// series; ad-hoc tracers in tests stay out of the registry.
var (
	traceSinkDropped = Default().Counter(
		"cbes_trace_sink_drops_total", "Spans that failed to reach the JSONL span sink.")
	traceRingSpans = Default().Gauge(
		"cbes_trace_ring_spans", "Spans currently resident in the default tracer's ring buffer.")
	traceUnsampled = Default().Counter(
		"cbes_trace_spans_sampled_out_total",
		"Finished spans discarded by the head sampler (trace unsampled, span neither slow nor errored).")
)

// DefaultTracer returns the process-wide tracer the CBES packages record
// into.
func DefaultTracer() *Tracer { return defaultTracer }

// SetSink attaches (or with nil, detaches) a JSONL sink: every finished
// span is appended to w as one JSON object per line. The tracer
// serializes writes; w need not be concurrency-safe.
func (t *Tracer) SetSink(w io.Writer) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.sink = w
	t.mu.Unlock()
}

// SetSampling installs the head-sampling policy: keep one trace in
// headEveryN (<=1 keeps every trace), with any span slower than slowKeep
// — or carrying an error — recorded regardless (tail keep). slowKeep
// <= 0 selects DefaultSlowKeep. The head decision is a pure function of
// the trace ID, so a multi-process trace is kept or dropped coherently
// on every node.
func (t *Tracer) SetSampling(headEveryN int, slowKeep time.Duration) {
	if t == nil {
		return
	}
	t.headEveryN.Store(int64(headEveryN))
	t.slowKeepNs.Store(int64(slowKeep))
}

// headSampled applies the head-sampling policy to a trace ID.
func (t *Tracer) headSampled(traceID uint64) bool {
	n := t.headEveryN.Load()
	return n <= 1 || traceID%uint64(n) == 0
}

func (t *Tracer) slowKeep() time.Duration {
	if ns := t.slowKeepNs.Load(); ns > 0 {
		return time.Duration(ns)
	}
	return DefaultSlowKeep
}

// ActiveSpan is an in-progress span; call End to record it.
type ActiveSpan struct {
	t       *Tracer
	span    Span
	start   time.Time
	sc      SpanContext
	sampled bool
	failed  bool
}

// Start opens a root span: a fresh trace ID, no parent. Safe on a nil
// tracer.
func (t *Tracer) Start(name string) *ActiveSpan {
	return t.StartAt(name, time.Now())
}

// StartAt opens a root span that began at an earlier wall-clock time —
// for call sites that only learn a span is worth recording after the
// fact. Safe on a nil tracer.
func (t *Tracer) StartAt(name string, start time.Time) *ActiveSpan {
	if t == nil {
		return nil
	}
	return t.startSpan(name, start, SpanContext{TraceID: newID()}, 0)
}

// StartRemote opens a span adopting a caller-supplied parent — the
// server half of wire propagation. An invalid (zero) parent degenerates
// to a root span; a parent with a trace but no span ID (a caller whose
// own tracer was disabled but who still minted a trace ID) joins the
// trace as a root-like span.
func (t *Tracer) StartRemote(name string, parent SpanContext) *ActiveSpan {
	if t == nil {
		return nil
	}
	if !parent.Valid() {
		return t.startSpan(name, time.Now(), SpanContext{TraceID: newID()}, 0)
	}
	return t.startSpan(name, time.Now(), SpanContext{TraceID: parent.TraceID}, parent.SpanID)
}

// StartChild opens a child span in the receiver's trace. Safe on a nil
// span (returns nil). Safe to call from multiple goroutines on the same
// parent — the parent's identity is immutable after creation.
func (s *ActiveSpan) StartChild(name string) *ActiveSpan {
	if s == nil {
		return nil
	}
	child := s.t.startSpan(name, time.Now(), SpanContext{TraceID: s.sc.TraceID}, s.sc.SpanID)
	child.sampled = s.sampled // inherit: one head decision per trace
	return child
}

// startSpan builds the span shell; sc carries the trace (and, for the
// new span, a freshly minted span ID), parentID the causal parent.
func (t *Tracer) startSpan(name string, start time.Time, sc SpanContext, parentID uint64) *ActiveSpan {
	sc.SpanID = newID()
	return &ActiveSpan{
		t:       t,
		start:   start,
		sc:      sc,
		sampled: t.headSampled(sc.TraceID),
		span: Span{
			Name:   name,
			Trace:  FormatID(sc.TraceID),
			ID:     FormatID(sc.SpanID),
			Parent: FormatID(parentID),
			Start:  start,
		},
	}
}

// Context returns the span's wire-portable identity (zero on nil).
func (s *ActiveSpan) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return s.sc
}

// TraceID returns the span's trace ID (0 on nil).
func (s *ActiveSpan) TraceID() uint64 {
	if s == nil {
		return 0
	}
	return s.sc.TraceID
}

// Attr annotates the span; returns the span for chaining.
func (s *ActiveSpan) Attr(key string, val any) *ActiveSpan {
	if s != nil {
		s.span.Attrs = append(s.span.Attrs, Attr{Key: key, Val: val})
	}
	return s
}

// Error annotates the span with err and marks it tail-kept: an errored
// span is recorded even when its trace lost the head-sampling draw.
// A nil err is a no-op; returns the span for chaining.
func (s *ActiveSpan) Error(err error) *ActiveSpan {
	if s != nil && err != nil {
		s.failed = true
		s.span.Attrs = append(s.span.Attrs, Attr{Key: "error", Val: err.Error()})
	}
	return s
}

// End finishes the span and records it, subject to the sampling policy:
// head-sampled traces always record; others record only spans that
// errored or exceeded the slow cutoff.
func (s *ActiveSpan) End() {
	if s == nil {
		return
	}
	d := time.Since(s.start)
	s.span.Seconds = d.Seconds()
	if !s.sampled && !s.failed && d < s.t.slowKeep() {
		if s.t == defaultTracer {
			traceUnsampled.Inc()
		}
		return
	}
	s.t.record(s.span)
}

func (t *Tracer) record(sp Span) {
	t.mu.Lock()
	if t.ring == nil {
		t.ring = make([]Span, t.size)
	}
	t.ring[t.next] = sp
	t.next = (t.next + 1) % len(t.ring)
	if t.n < len(t.ring) {
		t.n++
	}
	sink := t.sink
	var sinkErr error
	if sink != nil {
		line, err := json.Marshal(sp)
		if err == nil {
			line = append(line, '\n')
			_, err = sink.Write(line)
		}
		if err != nil {
			sinkErr = err
		}
	}
	occupancy := t.n
	t.mu.Unlock()
	if t == defaultTracer {
		traceRingSpans.Set(float64(occupancy))
		if sinkErr != nil {
			traceSinkDropped.Inc()
		}
	}
}

// Spans returns the recorded spans, oldest first.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, 0, t.n)
	if t.n == len(t.ring) {
		out = append(out, t.ring[t.next:]...)
		out = append(out, t.ring[:t.next]...)
	} else {
		out = append(out, t.ring[:t.n]...)
	}
	return out
}

// TraceSpans returns every recorded span of one trace, oldest first.
func (t *Tracer) TraceSpans(traceID uint64) []Span {
	if t == nil || traceID == 0 {
		return nil
	}
	want := FormatID(traceID)
	var out []Span
	for _, sp := range t.Spans() {
		if sp.Trace == want {
			out = append(out, sp)
		}
	}
	return out
}

// Context propagation: the active span rides a context.Context so a
// request's causal chain survives function boundaries without threading
// *ActiveSpan through every signature.

type spanCtxKey struct{}

// ContextWithSpan returns a context carrying s as the active span.
func ContextWithSpan(ctx context.Context, s *ActiveSpan) context.Context {
	if ctx == nil {
		ctx = context.Background()
	}
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, spanCtxKey{}, s)
}

// SpanFromContext returns the context's active span, or nil.
func SpanFromContext(ctx context.Context) *ActiveSpan {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(spanCtxKey{}).(*ActiveSpan)
	return s
}

// TraceIDFromContext returns the active trace ID, or 0.
func TraceIDFromContext(ctx context.Context) uint64 {
	return SpanFromContext(ctx).TraceID()
}

// StartSpan opens a span as a child of the context's active span — or,
// with no active span, as a root span on the default tracer — and
// returns it along with a context carrying it as the new active span.
// This is the one call most instrumented code paths need.
func StartSpan(ctx context.Context, name string) (*ActiveSpan, context.Context) {
	if parent := SpanFromContext(ctx); parent != nil {
		child := parent.StartChild(name)
		return child, ContextWithSpan(ctx, child)
	}
	s := DefaultTracer().Start(name)
	return s, ContextWithSpan(ctx, s)
}

// SpanHandler serves the tracer's ring buffer as a JSON array (newest
// last) — the /debug/spans endpoint. Optional query filters:
//
//	?n=K         keep only the K most recent matching spans
//	?name=S      keep only spans whose name contains S
//	?trace=ID    keep only spans of one trace (hex ID)
//
// The element shape is identical to the unfiltered dump (and to the
// JSONL sink lines), so scrapers parse both the same way.
func SpanHandler(t *Tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		spans := t.Spans()
		q := req.URL.Query()
		if name := q.Get("name"); name != "" {
			kept := spans[:0]
			for _, sp := range spans {
				if strings.Contains(sp.Name, name) {
					kept = append(kept, sp)
				}
			}
			spans = kept
		}
		if tid := q.Get("trace"); tid != "" {
			want, err := ParseID(tid)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			hex := FormatID(want)
			kept := spans[:0]
			for _, sp := range spans {
				if sp.Trace == hex {
					kept = append(kept, sp)
				}
			}
			spans = kept
		}
		if ns := q.Get("n"); ns != "" {
			n, err := strconv.Atoi(ns)
			if err != nil || n < 0 {
				http.Error(w, fmt.Sprintf("obs: bad n %q", ns), http.StatusBadRequest)
				return
			}
			if n < len(spans) {
				spans = spans[len(spans)-n:]
			}
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(spans) //nolint:errcheck // best-effort debug endpoint
	})
}
