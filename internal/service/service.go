// Package service exposes CBES as a network service: external clients
// (such as schedulers or workload managers) submit mapping-comparison and
// scheduling requests over TCP using Go's net/rpc, matching the paper's
// design of a core module that "accepts mapping comparison requests from
// external clients".
package service

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/rpc"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cbes"
	"cbes/internal/accuracy"
	"cbes/internal/admission"
	"cbes/internal/core"
	"cbes/internal/des"
	"cbes/internal/obs"
)

// RPC observability: every exported method runs through intercept,
// which maintains per-method request/error counters and latency
// histograms plus a cluster-wide in-flight gauge. Method names
// are a fixed set, so label cardinality is bounded.
var (
	rpcRequests = obs.Default().CounterVec(
		"cbes_rpc_requests_total", "RPC requests served, by method.", "method")
	rpcErrors = obs.Default().CounterVec(
		"cbes_rpc_errors_total", "RPC requests that returned an error, by method.", "method")
	rpcSeconds = obs.Default().HistogramVec(
		"cbes_rpc_seconds", "RPC handler latency, by method.", nil, "method")
	rpcInflight = obs.Default().Gauge(
		"cbes_rpc_inflight", "RPC requests currently being handled (or waiting on the engine lock).")
	rpcConnections = obs.Default().Counter(
		"cbes_rpc_connections_total", "Client connections accepted.")
	rpcActiveConns = obs.Default().Gauge(
		"cbes_rpc_active_connections", "Client connections currently open.")
	rpcPanics = obs.Default().Counter(
		"cbes_rpc_panics_recovered_total", "Handler panics recovered and returned as errors.")
	rpcBusy = obs.Default().Counter(
		"cbes_rpc_busy_total", "Requests rejected because the engine lock was not acquired in time.")
	// rpcBusySeconds records how long rejected requests queued before the
	// ErrBusy cutoff. Busy rejections are ALSO observed in cbes_rpc_seconds
	// (they are part of the latency a client experienced); this series
	// isolates them so saturation is visible on its own.
	rpcBusySeconds = obs.Default().Histogram(
		"cbes_rpc_busy_seconds", "Queue time of requests rejected with the busy error.", nil)
	rpcDeadlineExceeded = obs.Default().Counter(
		"cbes_rpc_deadline_exceeded_total",
		"Requests abandoned because the caller's propagated deadline expired server-side.")
	brownoutServed = obs.Default().Counter(
		"cbes_brownout_served_total",
		"Shed requests answered from the profile-only brownout fast path instead of being rejected.")
)

// Stable error codes (DESIGN.md §15). net/rpc flattens server errors to
// bare strings, so remote callers cannot errors.Is against the sentinel
// values — instead every overload-class error carries a "cbes:" code
// prefix in its message, and the Is* helpers match either the sentinel
// (local callers) or the code substring (flattened rpc.ServerError).
// The codes are wire contract: never change them.
const (
	codeBusy     = "cbes:busy"
	codeShed     = "cbes:shed"
	codeDeadline = "cbes:deadline"
)

// ErrBusy is returned (wrapped) when a request could not acquire the
// engine serialization lock within the server's request timeout — e.g. a
// long-running Advance is hogging the engine. The condition is transient;
// the retrying client backs off and retries it.
var ErrBusy = errors.New(codeBusy + ": server busy (engine lock timeout)")

// ErrShed is returned when the admission limiter refused the request and
// no brownout answer was possible. Transient but load-driven: clients
// retry it with backoff. Aliased from internal/admission so both packages
// flatten to the same wire code.
var ErrShed = admission.ErrShed

// ErrDeadlineExceeded is returned (wrapped) when the caller's propagated
// deadline expired before or while the server worked on the request.
// Retrying is pointless — the caller is out of time by definition.
var ErrDeadlineExceeded = errors.New(codeDeadline + ": request deadline exceeded")

// hasCode matches err against a sentinel (local callers) or its stable
// wire code (errors flattened to strings by net/rpc).
func hasCode(err, sentinel error, code string) bool {
	return err != nil && (errors.Is(err, sentinel) || strings.Contains(err.Error(), code))
}

// IsBusy reports whether err is ErrBusy, either locally (errors.Is) or
// flattened to a string by net/rpc transport.
func IsBusy(err error) bool { return hasCode(err, ErrBusy, codeBusy) }

// IsShed reports whether err is ErrShed across the same two spellings.
func IsShed(err error) bool { return hasCode(err, ErrShed, codeShed) }

// IsDeadlineExceeded reports whether err is ErrDeadlineExceeded (wire or
// local) or a raw context.DeadlineExceeded that escaped unwrapped.
func IsDeadlineExceeded(err error) bool {
	return hasCode(err, ErrDeadlineExceeded, codeDeadline) || errors.Is(err, context.DeadlineExceeded)
}

// TraceMeta carries the caller's span context across the net/rpc wire.
// Embedded in every args struct but MetricsArgs (see there) so gob moves
// it transparently — older clients simply send the zero value, and the
// server mints a fresh trace instead of adopting one. The typed Client stamps it from its
// own rpc.client.* span, so one trace tree covers client retry loop →
// server interceptor → cache → search.
type TraceMeta struct {
	TraceID uint64
	SpanID  uint64
	// DeadlineUnixNano is the caller's absolute deadline (UnixNano), or 0
	// for none. Absolute rather than a duration so time spent queued —
	// client-side, on the wire, on the accept backlog — counts against
	// the budget; it assumes loosely synchronized clocks (DESIGN.md §15).
	// Gob moves added fields compatibly in both directions: older peers
	// simply see (or send) zero.
	DeadlineUnixNano int64
}

func (m *TraceMeta) setTrace(sc obs.SpanContext) { m.TraceID, m.SpanID = sc.TraceID, sc.SpanID }

func (m TraceMeta) spanContext() obs.SpanContext {
	return obs.SpanContext{TraceID: m.TraceID, SpanID: m.SpanID}
}

func (m *TraceMeta) setDeadline(t time.Time) { m.DeadlineUnixNano = t.UnixNano() }

// deadline decodes the wire deadline, reporting whether one was set.
func (m TraceMeta) deadline() (time.Time, bool) {
	if m.DeadlineUnixNano == 0 {
		return time.Time{}, false
	}
	return time.Unix(0, m.DeadlineUnixNano), true
}

// intercept runs one RPC method body: it is the service's one request
// pipeline. It counts the request in flight from arrival, opens the
// server-side span (adopting the caller's wire-carried trace, or minting
// one), and derives a context bounded by the caller's propagated
// deadline; a request arriving with that deadline already spent fails
// fast instead of computing an answer nobody will read. Readers then run
// lock-free against the immutable published view, so any number of them
// proceed concurrently with each other and with a writer assembling the
// next view. A writer — Advance, the only method that drives the
// single-threaded simulation engine — first takes the engine lock, and
// that wait is bounded twice: by the caller's deadline (a wedged Advance
// must not pile doomed writers up behind it) and by the server's request
// timeout, past which it fails fast with ErrBusy. Once a body runs it is
// not preempted (Go offers no safe preemption), so the timeout bounds
// queueing, not execution.
//
// A panicking body becomes an error — net/rpc would otherwise crash the
// daemon — and the engine lock is still released. One deferred observe
// books every exit (ok, error, panic, busy, deadline before or while
// queued) into cbes_rpc_* exactly once, busy rejections included:
// skipping them made p99 under saturation look better than reality.
func (s *Server) intercept(method string, meta TraceMeta, writer bool, fn func(ctx context.Context) error) (err error) {
	rpcInflight.Add(1)
	s.inflight.Add(1)
	start := time.Now()
	span := obs.DefaultTracer().StartRemote("rpc."+method, meta.spanContext())
	defer func() {
		if p := recover(); p != nil {
			rpcPanics.Inc()
			err = fmt.Errorf("service: %s: internal error (recovered panic): %v", method, p)
		}
		err = wireDeadline(err)
		rpcRequests.With(method).Inc()
		rpcSeconds.With(method).Observe(time.Since(start).Seconds())
		if err != nil {
			rpcErrors.With(method).Inc()
		}
		span.Error(err).End()
		s.inflight.Add(-1)
		rpcInflight.Add(-1)
	}()
	ctx := obs.ContextWithSpan(context.Background(), span)
	if dl, ok := meta.deadline(); ok {
		span.Attr("deadline_ms", time.Until(dl).Milliseconds())
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, dl)
		defer cancel()
	}
	if ctx.Err() != nil {
		return deadlineError(method, ctx.Err())
	}
	if writer {
		timer := time.NewTimer(s.timeout)
		defer timer.Stop()
		select {
		case s.lock <- struct{}{}:
			defer func() { <-s.lock }()
		case <-ctx.Done():
			return deadlineError(method, ctx.Err())
		case <-timer.C:
			rpcBusy.Inc()
			rpcBusySeconds.Observe(time.Since(start).Seconds())
			return fmt.Errorf("service: %s queued %v on the engine lock: %w", method, s.timeout, ErrBusy)
		}
	}
	return fn(ctx)
}

// deadlineError wraps a context expiry into the stable wire-coded
// deadline error.
func deadlineError(method string, cause error) error {
	rpcDeadlineExceeded.Inc()
	return fmt.Errorf("service: %s: %v: %w", method, cause, ErrDeadlineExceeded)
}

// wireDeadline rewrites raw context errors escaping a handler into the
// stable wire-coded ErrDeadlineExceeded so remote callers can match them
// after net/rpc flattening. Other errors pass through untouched.
func wireDeadline(err error) error {
	if err == nil || hasCode(err, ErrDeadlineExceeded, codeDeadline) {
		return err
	}
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		rpcDeadlineExceeded.Inc()
		return fmt.Errorf("service: %v: %w", err, ErrDeadlineExceeded)
	}
	return err
}

// RPCName is the registered net/rpc service name.
const RPCName = "CBES"

// EvaluateArgs asks for an execution-time prediction of one mapping.
type EvaluateArgs struct {
	TraceMeta
	App     string
	Mapping []int
}

// EvaluateReply carries the prediction. Degraded and StaleNodes mirror
// core.Prediction: they used to be computed server-side and silently
// dropped at the RPC boundary, leaving clients unable to tell a
// profile-only fallback prediction from a fully monitored one.
type EvaluateReply struct {
	// TraceID echoes the server-side trace of this request (hex), so the
	// caller can pull /debug/trace?id=... or filter decision records.
	TraceID  string
	Seconds  float64
	Critical int // rank attaining the per-segment max in the first segment
	// Degraded reports that at least one mapped node's monitoring data was
	// stale, so the prediction used profile-only fallback values.
	Degraded bool
	// StaleNodes lists the mapped nodes that triggered the fallback.
	StaleNodes []int
	// Brownout reports that the server was shedding load and answered
	// from the profile-only fast path (nominal resource conditions,
	// monitoring ignored) instead of rejecting — a cheaper, explicitly
	// labeled answer (DESIGN.md §15). Brownout replies carry no
	// PredictionID: their systematic bias must not feed calibration.
	Brownout bool
	// PredictionID keys this prediction in the accuracy ledger; reporting
	// the measured runtime back via ReportOutcome joins the pair and feeds
	// the calibration statistics (DESIGN.md §12).
	PredictionID string
	// ErrBand* annotate the prediction with the empirical signed
	// relative-error band (percent, roughly p10..p90) of its calibration
	// bucket — (app, scheduler, degraded, snapshot-age) — measured from
	// previously joined outcomes. ErrBandSamples == 0 means no band yet.
	ErrBandLowPct  float64
	ErrBandHighPct float64
	ErrBandSamples int
}

// ExplainArgs asks for a human-readable prediction breakdown.
type ExplainArgs struct {
	TraceMeta
	App     string
	Mapping []int
}

// ExplainReply carries the rendered breakdown.
type ExplainReply struct {
	TraceID string // hex server-side trace ID (see EvaluateReply)
	Seconds float64
	Text    string
}

// CompareArgs asks for predictions of several candidate mappings.
type CompareArgs struct {
	TraceMeta
	App      string
	Mappings [][]int
}

// CompareReply carries per-candidate predictions and the fastest index.
// Degraded and StaleNodes are per-mapping, aligned with Seconds.
type CompareReply struct {
	TraceID string // hex server-side trace ID (see EvaluateReply)
	Seconds []float64
	Best    int
	// Degraded[i] reports whether mapping i's prediction fell back to
	// profile-only values for stale nodes.
	Degraded []bool
	// StaleNodes[i] lists mapping i's stale nodes (nil when none).
	StaleNodes [][]int
	// Brownout reports that the whole batch was answered from the
	// profile-only fast path because the server was shedding load
	// (see EvaluateReply.Brownout); PredictionID stays empty.
	Brownout bool
	// PredictionID is the Best candidate's accuracy-ledger key — the one
	// prediction of the batch the caller is expected to run and report.
	PredictionID string
	// ErrBand* describe the winning candidate's calibration bucket (see
	// EvaluateReply).
	ErrBandLowPct  float64
	ErrBandHighPct float64
	ErrBandSamples int
}

// ScheduleArgs asks the service to find a mapping.
type ScheduleArgs struct {
	TraceMeta
	App       string
	Algorithm string // "cs", "ncs", "rs", "ga"
	Pool      []int
	Seed      int64
	// Effort caps the search's energy evaluations; 0 selects the server
	// default, and one above schedule.MaxEffort is refused. The
	// cost/benefit knob: a caller in a hurry (or paying for estimating
	// service by the evaluation) bounds the search it buys. Older
	// clients send 0 via gob and keep the default.
	Effort int
}

// ScheduleReply carries the chosen mapping.
type ScheduleReply struct {
	// TraceID is the hex trace ID of the server-side causal tree for this
	// request, the one its search ran under.
	TraceID     string
	Mapping     []int
	Predicted   float64
	Evaluations int
	// SchedulerMicros is the search wall time in microseconds.
	SchedulerMicros int64
	// Degraded reports that the chosen mapping's prediction rests on
	// profile-only fallback values for the listed StaleNodes — the client
	// may want a second opinion once monitoring recovers.
	Degraded   bool
	StaleNodes []int
	// PredictionID and the ErrBand* fields mirror EvaluateReply: the
	// ledger key to report the measured runtime against, and the bucket's
	// empirical signed-error band.
	PredictionID   string
	ErrBandLowPct  float64
	ErrBandHighPct float64
	ErrBandSamples int
}

// DecisionsArgs queries the decision flight recorder (DESIGN.md §11).
// Zero-valued filters match everything; N bounds the result to the N
// most recent matches.
type DecisionsArgs struct {
	TraceMeta
	N       int
	Kind    string // "schedule", "evaluate", "explain", "compare"
	App     string
	TraceID string // hex trace ID as echoed in replies; any case, padding optional
}

// DecisionsReply carries matching records (newest first) and the
// recorder's lifetime total (so a caller can tell "no matches" from
// "recorder empty").
type DecisionsReply struct {
	Decisions []obs.Decision
	Total     uint64
}

// ReportOutcomeArgs joins a measured runtime back to a served prediction
// by its PredictionID, closing the predicted-vs-actual feedback loop
// (DESIGN.md §12). The join is one-shot: a second report for the same ID
// fails.
type ReportOutcomeArgs struct {
	TraceMeta
	PredictionID  string
	ActualSeconds float64
}

// ReportOutcomeReply echoes the joined pair and the resulting error.
type ReportOutcomeReply struct {
	App          string
	Scheduler    string
	Predicted    float64
	Actual       float64
	SignedErrPct float64 // (predicted−actual)/actual×100; positive = over-prediction
	AbsErrPct    float64
	// CalibrationOK is the drift detector's verdict after folding this
	// outcome in.
	CalibrationOK bool
}

// AccuracyArgs queries the accuracy ledger. Empty filters match every
// calibration bucket; Samples bounds the joined-pair list (<= 0 returns
// all resident pairs).
type AccuracyArgs struct {
	TraceMeta
	App       string
	Scheduler string
	Samples   int
}

// AccuracyReply carries the ledger status, the per-bucket calibration
// statistics, and recent joined predicted-vs-actual pairs.
type AccuracyReply struct {
	Status  accuracy.Status
	Buckets []accuracy.BucketStats
	Samples []accuracy.Sample
}

// MetricsArgs asks for a metrics scrape. It carries no TraceMeta, so the
// server mints each scrape's trace. It stays an empty struct for the wire:
// gob decodes an older client's struct{ Format string } into it, but not
// into a struct whose only field is TraceMeta ("no fields matched").
type MetricsArgs struct{}

// MetricsReply carries the metrics in the Prometheus text format.
type MetricsReply struct {
	Text string
}

// StatusArgs requests service status.
type StatusArgs struct{ TraceMeta }

// StatusReply describes the service state.
type StatusReply struct {
	Cluster    string
	Nodes      int
	Apps       []string
	SimSeconds float64
	AvailCPU   []float64
	NICUtil    []float64
	// Epoch is the snapshot epoch of the published read-path view; it
	// advances whenever the monitored state changes (DESIGN.md §10).
	Epoch uint64
}

// AdvanceArgs moves simulated time forward (demo control).
type AdvanceArgs struct {
	TraceMeta
	Seconds float64
}

// AdvanceReply reports the new simulated time and the snapshot epoch of
// the view republished by the advance.
type AdvanceReply struct {
	SimSeconds float64
	Epoch      uint64
}

// DefaultRequestTimeout bounds how long a request may queue on the engine
// lock before failing fast with ErrBusy.
const DefaultRequestTimeout = 30 * time.Second

// Server serves CBES requests for one System under a single-writer /
// many-reader regime (DESIGN.md §10). Reads — Evaluate, Explain,
// Compare, Schedule, Status — run lock-free against the immutable
// published view; only Advance (and view republication) holds the
// engine lock, because only it drives the single-threaded simulation
// engine.
type Server struct {
	sys *cbes.System
	// lock is the engine serialization lock (writers only). A 1-slot
	// channel rather than a sync.Mutex so acquisition can race a deadline
	// (see intercept).
	lock    chan struct{}
	timeout time.Duration
	// inflight counts requests (not connections) for shutdown draining.
	// A counter polled by the drain rather than a WaitGroup: connections
	// stay open while draining, so a request may start after the count
	// has reached zero, which WaitGroup's reuse rule turns into a panic.
	inflight atomic.Int64
	// view is the epoch-stamped immutable state the read path runs
	// against; the writer republishes it after every mutation.
	view atomic.Pointer[view]
	// cache memoizes predictions by (app, mapping, epoch).
	cache *predCache
	// rec is the decision flight recorder (DESIGN.md §11).
	rec *obs.Recorder
	// led is the prediction-accuracy ledger every served prediction
	// registers with (DESIGN.md §12).
	led *accuracy.Ledger
	// lim is the adaptive admission limiter (DESIGN.md §15); nil disables
	// admission control and brownout entirely.
	lim *admission.Limiter
	// brown caches profile-only brownout predictions keyed without an
	// epoch (they depend only on profile + topology, so they stay valid
	// for the process lifetime). Metric-silent: its hits and misses must
	// not pollute the epoch cache's hit-rate series.
	brown *predCache
}

// NewServer wraps a System with the default request timeout and cache
// size, and publishes the initial read-path view. The System's profiles
// must be registered before NewServer (RPC cannot add apps, so the view
// never needs to learn new evaluators).
func NewServer(sys *cbes.System) *Server {
	s := &Server{
		sys:     sys,
		lock:    make(chan struct{}, 1),
		timeout: DefaultRequestTimeout,
		cache:   newPredCache(),
		rec:     obs.DefaultRecorder(),
		led:     accuracy.Default(),
		brown:   newBrownCache(),
	}
	s.refreshView()
	return s
}

// SetAdmission installs the adaptive admission limiter; nil (the
// NewServer default) disables admission control and brownout — every
// request is admitted for full service. Must be called before the
// server starts handling requests.
func (s *Server) SetAdmission(l *admission.Limiter) { s.lim = l }

// fillDegraded copies an estimate's degraded-mode markers into reply
// fields. The StaleNodes copy matters: a cached estimate's backing array
// is shared read-only across requests and net/rpc encodes replies
// concurrently.
func fillDegraded(est core.Estimate, degraded *bool, stale *[]int) {
	*degraded = est.Degraded
	if len(est.StaleNodes) > 0 {
		*stale = append([]int(nil), est.StaleNodes...)
	}
}

// beginPrediction registers one served prediction with the accuracy
// ledger under the request's trace and returns its ID plus its
// calibration-bucket key (for the reply's error-band annotation).
// Invalid predictions (non-positive seconds) are not registered. Cheap
// enough for the hot path: one short ledger mutex section, comparable to
// a prediction-cache probe.
func (s *Server) beginPrediction(ctx context.Context, v *view, traceID, app, scheduler string, mapping []int, predicted float64, degraded bool) (string, accuracy.Key) {
	k := accuracy.Key{
		App:       app,
		Scheduler: scheduler,
		Degraded:  degraded,
		AgeBucket: accuracy.AgeBucket(v.snap.MaxAge(mapping)),
	}
	if !(predicted > 0) {
		return "", k
	}
	id := s.led.Begin(accuracy.Prediction{
		App: app, Scheduler: scheduler, Degraded: degraded,
		AgeBucket: k.AgeBucket, Epoch: v.epoch, Predicted: predicted,
		TraceID: traceID,
	})
	obs.SpanFromContext(ctx).Attr("prediction_id", id)
	return id, k
}

// fillBand copies a calibration band onto reply fields.
func fillBand(b accuracy.Band, lo, hi *float64, n *int) {
	*lo, *hi, *n = b.LowPct, b.HighPct, b.Samples
}

// record finalizes one decision record: stamps the error (forensics
// wants the denials too) and hands it to the flight recorder.
func (s *Server) record(d *obs.Decision, err error) {
	if err != nil {
		d.Err = err.Error()
	}
	s.rec.Record(*d)
}

// decide runs one decision-serving read — Evaluate, Explain, Compare or
// Schedule — through intercept with the prologue they share: load the
// published view, open the request's decision record (trace, kind, app,
// epoch), and resolve the application's evaluator. The record reaches
// the flight recorder on every exit, failures included. body supplies
// only what differs: it fills the reply and the rest of the record.
func (s *Server) decide(method, kind, app string, meta TraceMeta, body func(ctx context.Context, v *view, eval *core.Evaluator, d *obs.Decision) error) error {
	return s.intercept(method, meta, false, func(ctx context.Context) (err error) {
		v := s.view.Load()
		d := obs.Decision{
			TraceID: obs.FormatID(obs.TraceIDFromContext(ctx)),
			Kind:    kind, App: app, Epoch: v.epoch,
		}
		defer func() { s.record(&d, err) }()
		eval, err := v.evaluator(app)
		if err != nil {
			return err
		}
		return body(ctx, v, eval, &d)
	})
}

// serve answers one decision over its candidate mappings — Compare's
// batch, or Evaluate's one mapping — under the service's one admission
// and brownout rule (fill). ests[i] receives candidate i's estimate, and
// best indexes the fastest. That one prediction, the one the caller acts
// on, registers with the accuracy ledger (id, with its bucket's band),
// unless the batch browned out. serve fills the decision record but for
// its degraded markers, which the caller copies from its reply.
func (s *Server) serve(ctx context.Context, v *view, eval *core.Evaluator, app string, ms [][]int, ests []core.Estimate, d *obs.Decision) (best int, id string, band accuracy.Band, err error) {
	if err := s.fill(ctx, v, eval, app, ms, ests, d); err != nil {
		return 0, "", accuracy.Band{}, err
	}
	best = fastest(ests)
	d.Mapping, d.Predicted = ms[best], ests[best].Seconds
	if d.Brownout {
		return best, "", accuracy.Band{}, nil // never registered: its bias would feed calibration
	}
	id, k := s.beginPrediction(ctx, v, d.TraceID, app, "", ms[best], ests[best].Seconds, ests[best].Degraded)
	d.PredictionID = id
	return best, id, s.led.BandFor(k), nil
}

// fill is the service's one admission and brownout rule (DESIGN.md §15).
// Every candidate is looked up in the epoch cache, and a batch that hits
// throughout takes no admission slot: a cached answer is the full answer.
// The first miss takes one expensive-class slot, which covers computing
// every miss of the batch (per-candidate slots would let a wide Compare
// starve everyone else). When the limiter sheds that slot the whole batch
// browns out instead, cached candidates included, so every candidate is
// ranked by the same profile-only sketch: a labeled, cheaper answer
// instead of a rejection.
func (s *Server) fill(ctx context.Context, v *view, eval *core.Evaluator, app string, ms [][]int, ests []core.Estimate, d *obs.Decision) error {
	admitted := s.lim == nil
	for i, m := range ms {
		est, key, hit := s.lookup(ctx, v, app, m)
		d.CacheLookups++
		if hit {
			ests[i] = est
			d.CacheHits++
			continue
		}
		if !admitted {
			tk, err := s.lim.Acquire(ctx, admission.Expensive)
			if errors.Is(err, admission.ErrShed) {
				return s.brownout(ctx, eval, app, ms, ests, d)
			}
			if err != nil {
				return err
			}
			defer s.lim.Release(tk) // once: the batch's one slot
			admitted = true
		}
		est, err := s.compute(ctx, v, eval, m, key)
		if err != nil {
			return err
		}
		ests[i] = est
	}
	return nil
}

// brownout answers a shed batch from the profile-only fast path.
func (s *Server) brownout(ctx context.Context, eval *core.Evaluator, app string, ms [][]int, ests []core.Estimate, d *obs.Decision) error {
	d.Shed = true
	obs.SpanFromContext(ctx).Attr("shed", true)
	for i, m := range ms {
		est, err := s.brownoutEstimate(ctx, eval, app, m)
		if err != nil {
			return err
		}
		ests[i] = est
	}
	d.Brownout = true
	brownoutServed.Inc()
	return nil
}

// Evaluate predicts the execution time of one mapping: a one-candidate
// serve. Lock-free: served from the published view through the
// prediction cache.
func (s *Server) Evaluate(args *EvaluateArgs, reply *EvaluateReply) error {
	return s.decide("Evaluate", "evaluate", args.App, args.TraceMeta, func(ctx context.Context, v *view, eval *core.Evaluator, d *obs.Decision) error {
		var est [1]core.Estimate
		_, id, band, err := s.serve(ctx, v, eval, args.App, [][]int{args.Mapping}, est[:], d)
		if err != nil {
			return err
		}
		e := est[0]
		reply.TraceID = d.TraceID
		reply.Seconds = e.Seconds
		reply.Critical = max(e.Critical, 0) // the brownout sketch names no critical rank (-1)
		reply.Brownout = d.Brownout
		reply.PredictionID = id
		fillDegraded(e, &reply.Degraded, &reply.StaleNodes)
		fillBand(band, &reply.ErrBandLowPct, &reply.ErrBandHighPct, &reply.ErrBandSamples)
		d.Degraded, d.StaleNodes = reply.Degraded, reply.StaleNodes
		return nil
	})
}

// Explain predicts one mapping and returns the per-process breakdown. It
// is the only consumer of that detail, so it evaluates afresh rather than
// have the cache hold a breakdown per entry; its Seconds equals what
// Evaluate serves for the same mapping and epoch, cached or not.
func (s *Server) Explain(args *ExplainArgs, reply *ExplainReply) error {
	return s.decide("Explain", "explain", args.App, args.TraceMeta, func(_ context.Context, v *view, eval *core.Evaluator, d *obs.Decision) error {
		pred, err := eval.Predict(core.Mapping(args.Mapping), v.snap)
		if err != nil {
			return err
		}
		reply.TraceID = d.TraceID
		reply.Seconds = pred.Seconds
		reply.Text = pred.Explain(s.sys.Topo)
		d.Mapping = args.Mapping
		d.Predicted = pred.Seconds
		d.Degraded, d.StaleNodes = pred.Degraded, pred.StaleNodes
		return nil
	})
}

// maxCompareMappings caps one Compare's width. A batch's misses are
// computed under one admission slot, so the cap bounds the compute one
// request holds a slot for.
const maxCompareMappings = 256

// Compare predicts several mappings and selects the fastest, through the
// same serve as Evaluate: a batch repeated across clients costs one
// evaluation per novel mapping per epoch, and a shed batch browns out as a
// whole. The brownout ranking is still useful but coarser than a degraded
// prediction's: core's PredictBrownout scores each candidate on an idle
// cluster with the evaluation kernel over one whole-run entry per rank,
// so it fixes the critical rank for the whole run instead of finding it
// per segment. A batch wider than
// maxCompareMappings is refused before any lookup.
func (s *Server) Compare(args *CompareArgs, reply *CompareReply) error {
	return s.decide("Compare", "compare", args.App, args.TraceMeta, func(ctx context.Context, v *view, eval *core.Evaluator, d *obs.Decision) error {
		n := len(args.Mappings)
		if n == 0 {
			return fmt.Errorf("service: no mappings")
		}
		if n > maxCompareMappings {
			return fmt.Errorf("service: %d mappings, at most %d per Compare", n, maxCompareMappings)
		}
		ests := make([]core.Estimate, n)
		best, id, band, err := s.serve(ctx, v, eval, args.App, args.Mappings, ests, d)
		if err != nil {
			return err
		}
		reply.TraceID = d.TraceID
		reply.Seconds = make([]float64, n)
		reply.Degraded = make([]bool, n)
		reply.StaleNodes = make([][]int, n)
		for i, e := range ests {
			reply.Seconds[i] = e.Seconds
			fillDegraded(e, &reply.Degraded[i], &reply.StaleNodes[i])
		}
		reply.Best = best
		reply.Brownout = d.Brownout
		reply.PredictionID = id
		fillBand(band, &reply.ErrBandLowPct, &reply.ErrBandHighPct, &reply.ErrBandSamples)
		d.Degraded, d.StaleNodes = reply.Degraded[best], reply.StaleNodes[best]
		return nil
	})
}

// fastest returns the index of the smallest prediction. It skips NaNs: a
// NaN prediction (corrupt profile or model) must never win by making
// every comparison false. When every candidate is NaN it falls back to 0.
func fastest(ests []core.Estimate) int {
	best := -1
	for i, e := range ests {
		if !math.IsNaN(e.Seconds) && (best < 0 || e.Seconds < ests[best].Seconds) {
			best = i
		}
	}
	return max(best, 0)
}

// Schedule finds a mapping with the requested algorithm. Lock-free, and
// one request is one search: it runs under this request's own deadline,
// admission slot, span and decision record, so its reply quotes only the
// search it paid for. The search is deterministic in (app, algorithm,
// pool, seed, effort, epoch), so identical requests receive identical
// mappings. It scores through its own Scorers and never fills the cache,
// so the closing lookup of the chosen mapping's degraded markers misses
// unless an earlier request evaluated the same mapping in this epoch; the
// miss costs one allocation-free Estimate, computed under the slot the
// search holds.
func (s *Server) Schedule(args *ScheduleArgs, reply *ScheduleReply) error {
	return s.decide("Schedule", "schedule", args.App, args.TraceMeta, func(ctx context.Context, v *view, eval *core.Evaluator, d *obs.Decision) error {
		d.Algorithm, d.Seed = args.Algorithm, args.Seed
		if s.lim != nil {
			tk, err := s.lim.Acquire(ctx, admission.Expensive)
			if err != nil {
				// Schedule has no brownout: a mapping nobody searched for
				// is not a cheaper answer, it is a wrong one. The record
				// says why this request got no mapping.
				d.Shed = IsShed(err)
				return err
			}
			defer s.lim.Release(tk)
		}
		dec, err := cbes.ScheduleOnCtxEffort(ctx, eval, v.snap, cbes.Algorithm(args.Algorithm), args.Pool, args.Seed, args.Effort)
		if err != nil {
			return err
		}
		est, key, hit := s.lookup(ctx, v, args.App, dec.Mapping)
		d.CacheLookups = 1
		if hit {
			d.CacheHits = 1
		} else {
			est, err = s.compute(ctx, v, eval, dec.Mapping, key)
		}
		if err == nil {
			fillDegraded(est, &reply.Degraded, &reply.StaleNodes)
		}
		id, k := s.beginPrediction(ctx, v, d.TraceID, args.App, args.Algorithm, dec.Mapping, dec.Predicted, reply.Degraded)
		reply.TraceID = d.TraceID
		reply.Mapping = dec.Mapping
		reply.Predicted = dec.Predicted
		reply.Evaluations = dec.Evaluations
		reply.SchedulerMicros = dec.SchedulerTime.Microseconds()
		reply.PredictionID = id
		fillBand(s.led.BandFor(k), &reply.ErrBandLowPct, &reply.ErrBandHighPct, &reply.ErrBandSamples)
		d.Mapping, d.Predicted = reply.Mapping, reply.Predicted
		d.Evaluations, d.SchedulerMicros = reply.Evaluations, reply.SchedulerMicros
		d.PredictionID = id
		d.Degraded, d.StaleNodes = reply.Degraded, reply.StaleNodes
		return nil
	})
}

// Status reports the service and cluster state from the published view.
func (s *Server) Status(args *StatusArgs, reply *StatusReply) error {
	return s.intercept("Status", args.TraceMeta, false, func(_ context.Context) error {
		v := s.view.Load()
		reply.Cluster = v.cluster
		reply.Nodes = v.nodes
		reply.Apps = v.apps
		reply.SimSeconds = v.simSeconds
		reply.AvailCPU = v.snap.AvailCPU
		reply.NICUtil = v.snap.NICUtil
		reply.Epoch = v.epoch
		return nil
	})
}

// Advance moves simulated time forward so monitors resample. The only
// writer: it holds the engine lock for the simulation run and
// republishes the read-path view (snapshot, epoch, sim time) before
// releasing it, so a read issued after an Advance returns always sees
// the post-advance state. A step the engine cannot run is rejected
// before the engine is touched: NaN would convert to a huge negative
// step, and a step ending at or past des.MaxTime saturates or wraps the
// clock — either would report success having simulated nothing.
func (s *Server) Advance(args *AdvanceArgs, reply *AdvanceReply) error {
	return s.intercept("Advance", args.TraceMeta, true, func(_ context.Context) error {
		if !(args.Seconds >= 0) {
			return fmt.Errorf("service: advance of %v s: want a non-negative number of seconds", args.Seconds)
		}
		step := des.FromSeconds(args.Seconds)
		if step >= des.MaxTime-s.sys.Eng.Now() {
			return fmt.Errorf("service: advance of %v s runs past the end of simulated time", args.Seconds)
		}
		s.sys.Advance(step)
		s.refreshView()
		v := s.view.Load()
		reply.SimSeconds = v.simSeconds
		reply.Epoch = v.epoch
		return nil
	})
}

// Decisions queries the decision flight recorder: the most recent
// matching records, newest first (DESIGN.md §11). Lock-free like the
// other reads — the recorder has its own short-held mutex. A trace
// filter is any hex spelling of a trace ID (upper case, unpadded), which
// is normalised to the 16-digit form replies and records carry; one that
// is not a trace ID is refused rather than left to match nothing.
func (s *Server) Decisions(args *DecisionsArgs, reply *DecisionsReply) error {
	return s.intercept("Decisions", args.TraceMeta, false, func(_ context.Context) error {
		q := obs.DecisionQuery{N: args.N, Kind: args.Kind, App: args.App}
		if args.TraceID != "" {
			id, err := obs.ParseID(args.TraceID)
			if err != nil || id == 0 {
				return fmt.Errorf("service: Decisions: bad trace id %q", args.TraceID)
			}
			q.TraceID = obs.FormatID(id)
		}
		reply.Decisions = s.rec.Decisions(q)
		reply.Total = s.rec.Total()
		return nil
	})
}

// ReportOutcome joins a measured runtime back to a served prediction,
// folding the error into the calibration statistics (DESIGN.md §12).
// Lock-free: the ledger has its own short-held mutex. The join is
// recorded in the decision flight recorder as kind "outcome", so the
// forensic trail covers both halves of the predicted-vs-actual pair.
func (s *Server) ReportOutcome(args *ReportOutcomeArgs, reply *ReportOutcomeReply) error {
	return s.intercept("ReportOutcome", args.TraceMeta, false, func(ctx context.Context) (err error) {
		span, _ := obs.StartSpan(ctx, "accuracy.join")
		defer func() { span.Error(err).End() }()
		span.Attr("prediction_id", args.PredictionID)
		d := obs.Decision{
			TraceID:      obs.FormatID(obs.TraceIDFromContext(ctx)),
			Kind:         "outcome",
			PredictionID: args.PredictionID, Actual: args.ActualSeconds,
		}
		defer func() { s.record(&d, err) }()
		sample, err := s.led.Report(args.PredictionID, args.ActualSeconds)
		if err != nil {
			return err
		}
		d.App = sample.App
		d.Predicted = sample.Predicted
		span.Attr("abs_err_pct", sample.AbsErrPct)
		reply.App = sample.App
		reply.Scheduler = sample.Scheduler
		reply.Predicted = sample.Predicted
		reply.Actual = sample.Actual
		reply.SignedErrPct = sample.SignedErrPct
		reply.AbsErrPct = sample.AbsErrPct
		reply.CalibrationOK = s.led.CalibrationOK()
		return nil
	})
}

// Accuracy reports the ledger's calibration statistics: overall status
// (counters + drift state), per-bucket stats, and recent joined pairs.
func (s *Server) Accuracy(args *AccuracyArgs, reply *AccuracyReply) error {
	return s.intercept("Accuracy", args.TraceMeta, false, func(_ context.Context) error {
		reply.Status = s.led.Status()
		reply.Buckets = s.led.Stats(accuracy.StatsQuery{App: args.App, Scheduler: args.Scheduler})
		reply.Samples = s.led.Samples(args.Samples)
		return nil
	})
}

// Metrics renders the process metrics registry in the Prometheus text
// format. The registry is atomic, so a scrape takes no lock.
func (s *Server) Metrics(_ *MetricsArgs, reply *MetricsReply) error {
	return s.intercept("Metrics", TraceMeta{}, false, func(_ context.Context) error {
		var b strings.Builder
		obs.Default().WritePrometheus(&b)
		reply.Text = b.String()
		return nil
	})
}

// ServeOptions tunes ServeWith. The zero value selects sane defaults.
type ServeOptions struct {
	// MaxClients bounds concurrently served connections; further accepts
	// wait (TCP backlog backpressure) until a slot frees. Default 64.
	MaxClients int
	// DrainTimeout bounds how long shutdown waits for in-flight requests
	// to finish before force-closing connections. Default 5s.
	DrainTimeout time.Duration
	// RequestTimeout bounds engine-lock queueing per request (ErrBusy on
	// expiry). Default DefaultRequestTimeout.
	RequestTimeout time.Duration
	// DisableAdmission turns off the limiter and brownout mode — every
	// request is admitted for full service. The unprotected control for
	// overload experiments.
	DisableAdmission bool
	// Limiter, when non-nil, is installed instead of a limiter with the
	// adaptive defaults — so a caller can tune it (admission.Config) and
	// keep the handle for readiness reporting (cbesd's /readyz shed-rate
	// warning).
	Limiter *admission.Limiter
}

func (o ServeOptions) withDefaults() ServeOptions {
	if o.MaxClients <= 0 {
		o.MaxClients = 64
	}
	if o.DrainTimeout <= 0 {
		o.DrainTimeout = 5 * time.Second
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = DefaultRequestTimeout
	}
	return o
}

// Serve accepts connections on l until the listener closes. It blocks.
// A deliberate close of the listener (the daemon's shutdown path) is a
// clean exit and returns nil; any other accept failure is returned.
// Equivalent to ServeWith with default options.
func Serve(sys *cbes.System, l net.Listener) error {
	return ServeWith(sys, l, ServeOptions{})
}

// ServeWith is Serve with explicit limits. Unlike the naive accept loop it
// (a) bounds the number of concurrently served connections, (b) tracks
// every open connection, and (c) drains on shutdown: once the listener
// closes, it waits up to DrainTimeout for in-flight requests to complete,
// lets replies flush, then force-closes whatever connections remain (idle
// keep-alive clients would otherwise pin their handler goroutines, and the
// old code leaked them outright). It returns only after every connection
// goroutine has exited or the drain budget is exhausted.
func ServeWith(sys *cbes.System, l net.Listener, opts ServeOptions) error {
	opts = opts.withDefaults()
	impl := NewServer(sys)
	impl.timeout = opts.RequestTimeout
	if !opts.DisableAdmission {
		lim := opts.Limiter
		if lim == nil {
			lim = admission.New(admission.Config{})
		}
		impl.SetAdmission(lim)
	}
	srv := rpc.NewServer()
	if err := srv.RegisterName(RPCName, impl); err != nil {
		return err
	}

	var (
		sem    = make(chan struct{}, opts.MaxClients)
		connMu sync.Mutex
		conns  = map[net.Conn]struct{}{}
		wg     sync.WaitGroup
	)
	var acceptErr error
	for {
		conn, err := l.Accept()
		if err != nil {
			if !errors.Is(err, net.ErrClosed) {
				acceptErr = err
			}
			break
		}
		sem <- struct{}{} // client-concurrency bound: backpressure on accept
		rpcConnections.Inc()
		rpcActiveConns.Add(1)
		connMu.Lock()
		conns[conn] = struct{}{}
		connMu.Unlock()
		wg.Add(1)
		go func(c net.Conn) {
			defer func() {
				connMu.Lock()
				delete(conns, c)
				connMu.Unlock()
				c.Close()
				rpcActiveConns.Add(-1)
				<-sem
				wg.Done()
			}()
			srv.ServeConn(c)
		}(conn)
	}

	// Drain: in-flight requests get DrainTimeout to finish...
	deadline := time.Now().Add(opts.DrainTimeout)
	for impl.inflight.Load() > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if impl.inflight.Load() == 0 {
		// ...and their replies a moment to flush before we cut the wire. A
		// reply racing the close is retried by the client (methods retried
		// are idempotent), so this grace is a latency nicety, not a
		// correctness requirement.
		time.Sleep(20 * time.Millisecond)
	}
	connMu.Lock()
	for c := range conns {
		c.Close() // unblocks ServeConn's read; handler goroutine exits
	}
	connMu.Unlock()
	wgDone := make(chan struct{})
	go func() { wg.Wait(); close(wgDone) }()
	select {
	case <-wgDone:
	case <-time.After(opts.DrainTimeout):
		// A handler is stuck mid-request past every budget; give up rather
		// than hang shutdown. The goroutine dies with the process.
	}
	return acceptErr
}
