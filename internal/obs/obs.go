// Package obs is the CBES observability layer: a dependency-free metrics
// registry (atomic counters, gauges, and fixed log-scale-bucket
// histograms, optionally split by labels) with Prometheus text
// exposition, plus a lightweight span tracer
// (see trace.go) that records timed, attributed events to an in-memory
// ring buffer and an optional JSONL sink.
//
// Design constraints, in order:
//
//  1. The hot path must stay hot. A counter increment is a single
//     uncontended atomic add (single-digit ns); a nil metric is a no-op,
//     so instrumentation can be disabled per call site without branches
//     at the caller. The schedulers evaluate millions of energies per
//     second (DESIGN.md §6) and must not notice they are being watched.
//  2. Stdlib only. No client_golang, no OpenTelemetry: the container
//     bakes in nothing beyond the go toolchain, and the paper's service
//     has no external dependencies either.
//  3. One global registry by default. CBES packages register their
//     metrics at init against Default(); a test that wants isolation
//     builds its own Registry.
//
// Naming follows the Prometheus conventions: `cbes_<subsystem>_<what>_
// <unit|total>`, snake_case, base units (seconds), counters suffixed
// `_total`. Label cardinality is kept tiny and fixed (RPC method names,
// scheduler algorithm names) — never node IDs or application names drawn
// from user input.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind discriminates the metric families a Registry can hold.
type Kind int

// The supported metric kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "unknown"
}

// Counter is a monotonically increasing event count. The zero value is
// ready to use; a nil Counter is a disabled no-op.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n events.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value reads the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous float64 value (stored as atomic bits). The
// zero value is ready to use; a nil Gauge is a disabled no-op.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add adjusts the gauge by d (CAS loop; safe for concurrent use).
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Value reads the gauge.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket cumulative histogram. Bucket upper bounds
// are set at registration (LatencyBuckets by default) and never change,
// so observation is lock-free: a linear scan over ~25 bounds plus two
// atomic adds. A nil Histogram is a disabled no-op.
type Histogram struct {
	bounds []float64 // sorted upper bounds; +Inf is implicit
	counts []atomic.Uint64
	count  atomic.Uint64
	sum    Gauge // float64 sum via the gauge's CAS add
}

// NewHistogram builds a standalone histogram that is not attached to any
// registry. A nil buckets slice selects LatencyBuckets. Use this for
// local aggregation whose key space is too wide for Prometheus labels
// (per-application calibration buckets, say) while reusing the same
// lock-free observation path and quantile math.
func NewHistogram(buckets []float64) *Histogram {
	if buckets == nil {
		buckets = LatencyBuckets
	}
	return &Histogram{bounds: buckets, counts: make([]atomic.Uint64, len(buckets)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count reports the total number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum reports the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum.Value()
}

// Buckets snapshots the histogram: the sorted upper bounds and the
// per-bucket (non-cumulative) counts. counts has one extra trailing entry
// for the implicit +Inf overflow bucket, so len(counts) == len(bounds)+1.
// A nil histogram returns (nil, nil).
func (h *Histogram) Buckets() (bounds []float64, counts []uint64) {
	if h == nil {
		return nil, nil
	}
	counts = make([]uint64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	return h.bounds, counts
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) of the observed samples
// by linear interpolation inside the bucket holding the target rank.
// Samples in the +Inf overflow bucket clamp to the last finite bound. An
// empty (or nil) histogram reports 0.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil || len(h.bounds) == 0 {
		return 0
	}
	_, counts := h.Buckets()
	total := uint64(0)
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	if rank < 1 {
		rank = 1
	}
	cum := uint64(0)
	for i, c := range counts {
		cum += c
		if float64(cum) < rank {
			continue
		}
		if i >= len(h.bounds) { // overflow bucket: clamp
			return h.bounds[len(h.bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = h.bounds[i-1]
		}
		within := (rank - float64(cum-c)) / float64(c)
		return lo + (h.bounds[i]-lo)*within
	}
	return h.bounds[len(h.bounds)-1]
}

// LatencyBuckets is the default histogram bucket set: a 1-2-5 log series
// from 1µs to 100s, suitable for both sub-millisecond fast-path
// evaluations and multi-second scheduler runs.
var LatencyBuckets = LogBuckets(1e-6, 100)

// LogBuckets builds a 1-2-5 log-scale bucket series covering [min, max].
// min must be a positive power-of-ten multiple of 1, 2, or 5 to land on
// the series exactly; any positive min is rounded down to the series.
func LogBuckets(min, max float64) []float64 {
	if min <= 0 || max < min {
		panic("obs: LogBuckets needs 0 < min <= max")
	}
	// Round min down onto the 1-2-5 grid.
	exp := math.Floor(math.Log10(min))
	base := math.Pow(10, exp)
	var start float64
	switch {
	case min >= 5*base:
		start = 5 * base
	case min >= 2*base:
		start = 2 * base
	default:
		start = base
	}
	var out []float64
	for v := start; v <= max*(1+1e-9); {
		out = append(out, v)
		switch lead(v) {
		case 1:
			v *= 2
		case 2:
			v *= 2.5
		default:
			v *= 2
		}
	}
	return out
}

// lead returns the leading 1-2-5 digit of a series value.
func lead(v float64) int {
	m := v / math.Pow(10, math.Floor(math.Log10(v)*(1+1e-12)))
	switch {
	case m < 1.5:
		return 1
	case m < 3.5:
		return 2
	default:
		return 5
	}
}

// family is one named metric with its children (one per label-value
// combination; the empty combination for unlabeled metrics).
type family struct {
	name   string
	help   string
	kind   Kind
	labels []string
	bounds []float64 // histograms only

	mu       sync.RWMutex
	children map[string]*child // keyed by joined label values
}

type child struct {
	labelValues []string
	counter     *Counter
	gauge       *Gauge
	hist        *Histogram
}

// labelKey joins label values with a separator no sane label contains.
func labelKey(values []string) string { return strings.Join(values, "\x1f") }

func (f *family) child(values ...string) *child {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %s has %d labels, got %d values", f.name, len(f.labels), len(values)))
	}
	key := labelKey(values)
	f.mu.RLock()
	c := f.children[key]
	f.mu.RUnlock()
	if c != nil {
		return c
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if c = f.children[key]; c != nil {
		return c
	}
	c = &child{labelValues: append([]string(nil), values...)}
	switch f.kind {
	case KindCounter:
		c.counter = &Counter{}
	case KindGauge:
		c.gauge = &Gauge{}
	case KindHistogram:
		c.hist = &Histogram{bounds: f.bounds, counts: make([]atomic.Uint64, len(f.bounds)+1)}
	}
	f.children[key] = c
	return c
}

// sortedChildren returns the children in deterministic label order.
func (f *family) sortedChildren() []*child {
	f.mu.RLock()
	defer f.mu.RUnlock()
	keys := make([]string, 0, len(f.children))
	for k := range f.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*child, len(keys))
	for i, k := range keys {
		out[i] = f.children[k]
	}
	return out
}

// CounterVec is a counter family split by labels.
type CounterVec struct{ f *family }

// With resolves (creating on first use) the child for the label values.
// Hot call sites should resolve once and keep the *Counter.
func (v *CounterVec) With(values ...string) *Counter { return v.f.child(values...).counter }

// HistogramVec is a histogram family split by labels.
type HistogramVec struct{ f *family }

// With resolves the child histogram for the label values.
func (v *HistogramVec) With(values ...string) *Histogram { return v.f.child(values...).hist }

// Registry holds metric families. Registration is idempotent: asking for
// an already-registered name returns the existing metric, so independent
// packages (and repeated test runs) can share families safely;
// re-registering under a different kind or label set panics, since that
// is always a programming error.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{families: map[string]*family{}} }

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry all CBES packages register
// against.
func Default() *Registry { return defaultRegistry }

func (r *Registry) family(name, help string, kind Kind, labels []string, bounds []float64) *family {
	if name == "" {
		panic("obs: empty metric name")
	}
	r.mu.RLock()
	f := r.families[name]
	r.mu.RUnlock()
	if f == nil {
		r.mu.Lock()
		if f = r.families[name]; f == nil {
			f = &family{
				name: name, help: help, kind: kind,
				labels:   append([]string(nil), labels...),
				bounds:   bounds,
				children: map[string]*child{},
			}
			r.families[name] = f
		}
		r.mu.Unlock()
	}
	if f.kind != kind || len(f.labels) != len(labels) {
		panic(fmt.Sprintf("obs: metric %s re-registered as %v(%d labels), was %v(%d labels)",
			name, kind, len(labels), f.kind, len(f.labels)))
	}
	return f
}

// Counter registers (or fetches) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.family(name, help, KindCounter, nil, nil).child().counter
}

// CounterVec registers (or fetches) a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.family(name, help, KindCounter, labels, nil)}
}

// Gauge registers (or fetches) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.family(name, help, KindGauge, nil, nil).child().gauge
}

// Histogram registers (or fetches) an unlabeled histogram. A nil buckets
// slice selects LatencyBuckets.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if buckets == nil {
		buckets = LatencyBuckets
	}
	return r.family(name, help, KindHistogram, nil, buckets).child().hist
}

// HistogramVec registers (or fetches) a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if buckets == nil {
		buckets = LatencyBuckets
	}
	return &HistogramVec{r.family(name, help, KindHistogram, labels, buckets)}
}

// sortedFamilies snapshots the families in name order for exposition.
func (r *Registry) sortedFamilies() []*family {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}
