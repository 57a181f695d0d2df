// Decision flight recorder: a bounded ring of structured records, one
// per prediction or scheduling decision the service makes. Spans answer
// "where did the time go"; a decision record answers "why did the
// service say that" — which epoch of monitored state it saw, whether
// the answer came from the cache, which nodes were degraded, what the
// request's own search chose and for how much.
// Records are queryable over the Decisions RPC and `cbesctl decisions`,
// and every record carries its trace ID so the full causal tree is one
// /debug/trace?id=... away.
package obs

import (
	"sync"
	"time"
)

// Decision is one recorded prediction/scheduling decision. Fields are
// exported for gob (the Decisions RPC) and tagged for JSON; zero-valued
// optionals are elided.
type Decision struct {
	Time    time.Time `json:"time"`
	TraceID string    `json:"trace,omitempty"`
	// Kind is the decision class: "schedule", "evaluate", "explain",
	// "compare", or "outcome" (a measured runtime joined back to a served
	// prediction).
	Kind string `json:"kind"`
	App  string `json:"app"`
	// Algorithm and Seed describe schedule decisions ("cs", "ncs", ...).
	Algorithm string `json:"alg,omitempty"`
	Seed      int64  `json:"seed,omitempty"`
	// Epoch is the snapshot epoch of the view the decision ran against.
	Epoch uint64 `json:"epoch"`
	// CacheHits / CacheLookups record the prediction-cache outcome
	// (1/1 = hit, 0/1 = miss; compare decisions aggregate per-candidate
	// lookups).
	CacheHits    int `json:"cache_hits"`
	CacheLookups int `json:"cache_lookups"`
	// Degraded/StaleNodes mirror the prediction's degraded-mode markers.
	Degraded   bool  `json:"degraded,omitempty"`
	StaleNodes []int `json:"stale_nodes,omitempty"`
	// Shed marks a request the admission limiter refused full service to;
	// Brownout marks the subset that was answered anyway from the cheaper
	// profile-only fast path instead of being rejected (DESIGN.md §15).
	Shed     bool `json:"shed,omitempty"`
	Brownout bool `json:"brownout,omitempty"`
	// Mapping and Predicted are the decision itself (for compare, the
	// winning candidate).
	Mapping   []int   `json:"mapping,omitempty"`
	Predicted float64 `json:"predicted_seconds,omitempty"`
	// Search statistics (schedule decisions).
	Evaluations     int   `json:"evaluations,omitempty"`
	SchedulerMicros int64 `json:"scheduler_micros,omitempty"`
	// PredictionID keys the decision into the accuracy ledger: the served
	// prediction this record describes, or — for kind "outcome" — the
	// prediction the reported runtime was joined against.
	PredictionID string `json:"prediction_id,omitempty"`
	// Actual is the measured runtime of an "outcome" record (seconds).
	Actual float64 `json:"actual_seconds,omitempty"`
	// Err records failed decisions — forensics wants the denials too.
	Err string `json:"error,omitempty"`
}

// Recorder is a bounded overwrite-oldest ring of decisions. A nil
// Recorder is a disabled no-op.
type Recorder struct {
	mu    sync.Mutex
	size  int
	ring  []Decision // size decisions, allocated by the first record
	next  int
	n     int
	total uint64
}

// DefaultRecorderSize is the decision capacity of the default recorder.
const DefaultRecorderSize = 512

// NewRecorder returns a recorder holding the most recent size decisions.
// The ring is allocated when the first decision is recorded.
func NewRecorder(size int) *Recorder {
	if size <= 0 {
		size = DefaultRecorderSize
	}
	return &Recorder{size: size}
}

var defaultRecorder = NewRecorder(DefaultRecorderSize)

// Default-recorder observability, mirroring the tracer's ring gauges.
var (
	decisionsRecorded = Default().Counter(
		"cbes_decisions_recorded_total", "Decision records captured by the flight recorder.")
	decisionRecords = Default().Gauge(
		"cbes_decision_records", "Decision records currently resident in the default flight recorder.")
)

// DefaultRecorder returns the process-wide flight recorder the service
// records into.
func DefaultRecorder() *Recorder { return defaultRecorder }

// Record captures one decision. Safe on a nil recorder.
func (r *Recorder) Record(d Decision) {
	if r == nil {
		return
	}
	if d.Time.IsZero() {
		d.Time = time.Now()
	}
	r.mu.Lock()
	if r.ring == nil {
		r.ring = make([]Decision, r.size)
	}
	r.ring[r.next] = d
	r.next = (r.next + 1) % len(r.ring)
	if r.n < len(r.ring) {
		r.n++
	}
	r.total++
	occupancy := r.n
	r.mu.Unlock()
	if r == defaultRecorder {
		decisionsRecorded.Inc()
		decisionRecords.Set(float64(occupancy))
	}
}

// Total reports how many decisions have ever been recorded (including
// those since overwritten).
func (r *Recorder) Total() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// DecisionQuery filters and bounds a flight-recorder read. The zero
// value returns every resident record.
type DecisionQuery struct {
	// N bounds the result to the N most recent matches; <=0 is unbounded.
	N int
	// Kind/App/TraceID, when non-empty, require an exact match.
	Kind    string
	App     string
	TraceID string
}

func (q *DecisionQuery) match(d *Decision) bool {
	return (q.Kind == "" || d.Kind == q.Kind) &&
		(q.App == "" || d.App == q.App) &&
		(q.TraceID == "" || d.TraceID == q.TraceID)
}

// Decisions returns matching records, newest first.
func (r *Recorder) Decisions(q DecisionQuery) []Decision {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Decision, 0, r.n)
	for i := 1; i <= r.n; i++ {
		d := &r.ring[(r.next-i+len(r.ring))%len(r.ring)]
		if !q.match(d) {
			continue
		}
		out = append(out, *d)
		if q.N > 0 && len(out) >= q.N {
			break
		}
	}
	return out
}
