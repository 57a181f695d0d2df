// Package accuracy closes the predicted-vs-actual feedback loop: every
// prediction the service serves can be registered here under a stable
// PredictionID, and every measured runtime — reported over the
// ReportOutcome RPC or directly by the in-process executors (batch,
// remap, experiments) — is joined back to its prediction in a bounded
// ledger. From the joined pairs the ledger maintains online calibration
// statistics (signed bias, MAPE, error quantiles over log-bucket
// histograms) keyed by (app, scheduler, degraded flag, snapshot-age
// bucket), plus a drift detector that compares a sliding window of
// recent errors against the long-run baseline. Consumers: the Accuracy
// RPC / `cbesctl accuracy`, the cbes_calibration_ok gauge and /readyz
// warning, and the empirical error band annotated onto Prediction
// replies. ROADMAP item 12 (ENB / loss probability) reads its
// measured error distribution from here instead of assuming one.
//
// The paper's premise is that the service's estimates are trustworthy;
// this package is where that premise is checked against ground truth.
package accuracy

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"sync"
	"time"

	"cbes/internal/obs"
)

// Prediction is one served estimate awaiting its measured outcome.
type Prediction struct {
	// ID is the stable join key carried on the RPC reply and in the
	// decision record: "p" and the ledger's sequence number in lower-case
	// hex. Begin and ReportPair assign it; a caller's value is ignored.
	ID string
	// App names the profiled application the estimate was for.
	App string
	// Scheduler is the decision context: a scheduling algorithm name
	// ("cs", "sa", ...), "batch/<policy>", "remap", an experiment tag, or
	// "" for plain evaluations.
	Scheduler string
	// Degraded marks profile-only fallback predictions — they get their
	// own calibration bucket, quantifying what degraded mode costs.
	Degraded bool
	// AgeBucket coarsely bins the age of the monitor snapshot the
	// prediction was computed from (see AgeBucket).
	AgeBucket string
	// Epoch is the snapshot epoch the prediction ran against.
	Epoch uint64
	// Predicted is the estimated execution time in seconds.
	Predicted float64
	// TraceID links back to the request's trace tree, spelled as
	// obs.FormatID spells it. The ledger keeps the number, so a spelling
	// obs.ParseID refuses reads back as "".
	TraceID string
	// At is when the prediction was served (Begin stamps time.Now if
	// zero). The ledger keeps it as Unix nanoseconds.
	At time.Time
}

// Sample is one joined predicted-vs-actual pair. SignedErrPct is
// (predicted−actual)/actual×100: positive means the service
// over-predicted (conservative), negative under-predicted.
type Sample struct {
	Prediction
	Actual       float64
	SignedErrPct float64
	AbsErrPct    float64
	JoinedAt     time.Time
}

// Key identifies one calibration bucket.
type Key struct {
	App       string
	Scheduler string
	Degraded  bool
	AgeBucket string
}

func (k Key) String() string {
	deg := "ok"
	if k.Degraded {
		deg = "degraded"
	}
	sched := k.Scheduler
	if sched == "" {
		sched = "-"
	}
	return fmt.Sprintf("%s/%s/%s/%s", k.App, sched, deg, k.AgeBucket)
}

// BucketStats is the exported calibration summary of one Key.
type BucketStats struct {
	Key
	// Count is the number of joined samples in the bucket.
	Count int
	// BiasPct is the mean signed relative error (percent); MAPEPct the
	// mean absolute relative error.
	BiasPct float64
	MAPEPct float64
	// P50/P90/P99 are absolute-relative-error quantiles (percent),
	// estimated from the bucket's log-scale histogram.
	P50Pct float64
	P90Pct float64
	P99Pct float64
	// Band is the empirical signed-error band [low, high] (percent):
	// roughly the p10..p90 range of signed errors, the interval annotated
	// onto Prediction replies.
	BandLowPct  float64
	BandHighPct float64
}

// Band is the empirical error band attached to served predictions once a
// calibration bucket has enough joined outcomes. Samples == 0 means "no
// band yet".
type Band struct {
	LowPct  float64
	HighPct float64
	Samples int
}

// Status is a snapshot of the ledger and its drift detector.
type Status struct {
	Predictions uint64
	Outcomes    uint64
	Joined      uint64
	Unmatched   uint64
	Expired     uint64
	Pending     int
	// Overall calibration across every bucket.
	BiasPct float64
	MAPEPct float64
	// Drift detector state: the sliding recent-error window vs the
	// long-run baseline (all joined samples before the window).
	WindowN         int
	WindowMAPEPct   float64
	BaselineN       uint64
	BaselineMAPEPct float64
	CalibrationOK   bool
}

// Config is empty: every ledger size is one of the constants below. It
// stays so New keeps its signature, which the benchmark harness under
// benchmark/ calls with Config{}.
type Config struct{}

const (
	// pendingCap bounds predictions awaiting an outcome; the oldest is
	// expired (counted, dropped) when a new one would exceed it.
	pendingCap = 4096
	// sampleCap bounds the joined-sample ring kept for the CSV export.
	sampleCap = 1024
	// driftWindow is the sliding-window length of the drift detector;
	// driftMinSamples gates alarming until the window holds at least that
	// many errors.
	driftWindow     = 64
	driftMinSamples = 16
	// The window is drifted when its MAPE exceeds driftFloorPct, or
	// exceeds driftFactor× the baseline MAPE once a baseline of
	// driftMinSamples exists. The absolute floor catches ledgers that
	// were biased from the very first join, where a ratio-only test can
	// never fire because window and baseline drift together.
	driftFactor   = 2.0
	driftFloorPct = 25
	// minBandSamples is how many joined outcomes a bucket needs before
	// its error band annotates replies.
	minBandSamples = 8
)

// ErrBuckets is the relative-error histogram bucket series: |err| as a
// ratio from 0.01% up to 1000%.
var ErrBuckets = obs.LogBuckets(1e-4, 10)

// driftNoiseFloorPct keeps the ratio test from alarming on sub-percent
// jitter: a window MAPE below this never trips the factor rule.
const driftNoiseFloorPct = 1.0

// bucket is one interned calibration Key and its statistics. Begin
// interns the key; the histograms come with the key's first join, so a
// key that only ever had predictions served carries none.
type bucket struct {
	Key
	n         int
	sumSigned float64 // Σ signed relative error (ratio)
	sumAbs    float64 // Σ |relative error|
	absH      *obs.Histogram
	overH     *obs.Histogram // signed ≥ 0 magnitudes (over-prediction)
	underH    *obs.Histogram // signed < 0 magnitudes (under-prediction)
	overN     int
	underN    int
}

// band computes the bucket's signed-error band: the p10 of
// under-prediction magnitudes (negated) to the p90 of over-prediction
// magnitudes, weighted by which side the mass actually sits on. With all
// samples on one side the band collapses onto that side.
func (b *bucket) band() (loPct, hiPct float64) {
	// Quantiles of signed error: under-predictions are the negative tail.
	// Take roughly the 10th and 90th percentile of the signed
	// distribution by splitting the rank across the two magnitude
	// histograms (under sorted descending-negative, over ascending).
	total := b.overN + b.underN
	if total == 0 {
		return 0, 0
	}
	// Low edge: 10th percentile of signed errors. If ≥10% of mass is
	// under-predicted, it lies in the under histogram at magnitude
	// quantile 1 - 0.1*total/underN; otherwise in the over side.
	lo := signedQuantile(0.10, b)
	hi := signedQuantile(0.90, b)
	return lo * 100, hi * 100
}

// signedQuantile estimates the q-quantile of the signed relative-error
// distribution from the two magnitude histograms.
func signedQuantile(q float64, b *bucket) float64 {
	total := float64(b.overN + b.underN)
	if total == 0 {
		return 0
	}
	rank := q * total // 0..total, ascending over signed values
	if float64(b.underN) >= rank && b.underN > 0 {
		// Inside the negative tail. Ascending signed order visits under
		// magnitudes from largest to smallest, so the signed q-quantile is
		// the (1 - rank/underN) magnitude quantile, negated.
		mq := 1 - rank/float64(b.underN)
		return -b.underH.Quantile(clamp01(mq))
	}
	if b.overN == 0 {
		return 0
	}
	mq := (rank - float64(b.underN)) / float64(b.overN)
	return b.overH.Quantile(clamp01(mq))
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// record is one prediction as the ledger keeps it: a pending entry in
// the eviction ring, or the prediction half of a joined sample. It holds
// no pointers — its strings live once each in the key table — so
// neither ring costs the garbage collector a scan.
type record struct {
	seq       uint64 // the ID's number (the ID reads p<hex seq>); 0 in a free slot
	trace     uint64 // trace ID; 0 for none
	epoch     uint64
	at        int64   // served at, Unix nanoseconds
	predicted float64 // seconds
	key       uint32  // index into Ledger.buckets
}

// joined is a record with its measured outcome.
type joined struct {
	record
	actual   float64 // seconds
	joinedAt int64   // Unix nanoseconds
}

// newRecord converts p to a record, all but its sequence number and key.
func newRecord(p Prediction) record {
	at := p.At
	if at.IsZero() {
		at = time.Now()
	}
	var trace uint64
	if p.TraceID != "" {
		trace, _ = obs.ParseID(p.TraceID) // an unparsable spelling is kept as none
	}
	return record{trace: trace, epoch: p.Epoch, at: at.UnixNano(), predicted: p.Predicted}
}

// sample builds the exported Sample of j, whose calibration key is k.
func (j joined) sample(k Key) Sample {
	signed := (j.predicted - j.actual) / j.actual
	return Sample{
		Prediction: Prediction{
			ID: formatID(j.seq), App: k.App, Scheduler: k.Scheduler, Degraded: k.Degraded,
			AgeBucket: k.AgeBucket, Epoch: j.epoch, Predicted: j.predicted,
			TraceID: obs.FormatID(j.trace), At: time.Unix(0, j.at),
		},
		Actual:       j.actual,
		SignedErrPct: signed * 100,
		AbsErrPct:    math.Abs(signed) * 100,
		JoinedAt:     time.Unix(0, j.joinedAt),
	}
}

// formatID spells a sequence number as a prediction ID: "p" and the
// number in lower-case hex without leading zeros.
func formatID(seq uint64) string {
	var b [17]byte
	b[0] = 'p'
	return string(strconv.AppendUint(b[:1], seq, 16))
}

// parseID reverses formatID, and accepts only its exact spelling: no
// upper case, sign, leading zero or seventeenth digit, so an ID joins
// only as Begin returned it.
func parseID(id string) (seq uint64, ok bool) {
	if len(id) < 2 || len(id) > 17 || id[0] != 'p' || id[1] == '0' {
		return 0, false
	}
	for i := 1; i < len(id); i++ {
		switch c := id[i]; {
		case '0' <= c && c <= '9':
			seq = seq<<4 | uint64(c-'0')
		case 'a' <= c && c <= 'f':
			seq = seq<<4 | uint64(c-'a'+10)
		default:
			return 0, false
		}
	}
	return seq, true
}

// Ledger joins predictions with outcomes and maintains the calibration
// statistics. All methods are safe for concurrent use; the critical
// sections are small (a key-table lookup, one ring slot and a handful of
// float updates) so Begin on the service hot path costs about as much
// as a prediction-cache probe.
type Ledger struct {
	mu sync.Mutex
	// seq is the last sequence number taken, by Begin or ReportPair, and
	// lastBegin the last one Begin took. ring holds the pending
	// predictions, each in slot seq mod pendingCap. Begin takes the first
	// number past seq that lands on the slot after lastBegin's, so the
	// ring fills and evicts in Begin order however many numbers ReportPair
	// took in between, and Report finds an ID's slot from its number
	// alone. pending counts the live slots. ring is allocated by the first
	// Begin, and samples by the first join, so a process that never
	// records a prediction carries neither.
	seq, lastBegin uint64
	ring           []record
	pending        int

	samples  []joined // joined-pair ring for the CSV export
	sampNext int
	sampN    int

	// keys interns every calibration Key a prediction carried to its
	// index in buckets. Keys are few: registered apps × schedulers ×
	// degraded or not × age buckets.
	keys    map[Key]uint32
	buckets []bucket

	// Drift detector: sliding window of recent |relative errors| vs the
	// cumulative baseline of everything before the window.
	window  []float64
	winNext int
	winN    int
	winSum  float64

	totalAbs    float64 // Σ |relative error| over all joined samples
	totalSigned float64 // Σ signed relative error over all joined samples

	predictions uint64
	outcomes    uint64
	joined      uint64
	unmatched   uint64
	expired     uint64
	ok          bool
}

// New builds a ledger.
func New(Config) *Ledger {
	return &Ledger{
		keys:   map[Key]uint32{},
		window: make([]float64, driftWindow),
		ok:     true,
	}
}

// Default-ledger Prometheus metrics. Per-bucket stats stay in the ledger
// (app names are unbounded, and the obs convention forbids them as
// labels); the registry carries only the global aggregates.
var (
	mPredictions = obs.Default().Counter(
		"cbes_accuracy_predictions_total", "Predictions registered with the accuracy ledger.")
	mOutcomes = obs.Default().Counter(
		"cbes_accuracy_outcomes_total", "Measured outcomes reported to the accuracy ledger.")
	mJoined = obs.Default().Counter(
		"cbes_accuracy_joined_total", "Outcome reports successfully joined to a pending prediction.")
	mUnmatched = obs.Default().Counter(
		"cbes_accuracy_unmatched_total", "Outcome reports with no matching pending prediction (unknown, expired, or invalid).")
	mExpired = obs.Default().Counter(
		"cbes_accuracy_expired_total", "Pending predictions evicted before any outcome arrived.")
	mPending = obs.Default().Gauge(
		"cbes_accuracy_pending", "Predictions currently awaiting a reported outcome.")
	mAbsErr = obs.Default().Histogram(
		"cbes_accuracy_abs_err_ratio", "Absolute relative error |pred-actual|/actual of joined predictions.", ErrBuckets)
	mCalibrationOK = obs.Default().Gauge(
		"cbes_calibration_ok", "1 while recent prediction error is consistent with the long-run baseline, 0 under drift.")
)

var defaultLedger = func() *Ledger {
	l := New(Config{})
	mCalibrationOK.Set(1)
	return l
}()

// Default returns the process-wide ledger the service, batch runner,
// remap executor, and experiments all feed.
func Default() *Ledger { return defaultLedger }

// internLocked returns p's calibration key's index in l.buckets, adding
// the key on first sight. Caller holds l.mu.
func (l *Ledger) internLocked(p Prediction) uint32 {
	k := Key{App: p.App, Scheduler: p.Scheduler, Degraded: p.Degraded, AgeBucket: p.AgeBucket}
	i, ok := l.keys[k]
	if !ok {
		i = uint32(len(l.buckets))
		l.buckets = append(l.buckets, bucket{Key: k})
		l.keys[k] = i
	}
	return i
}

// Begin registers a served prediction and returns the ID it assigns
// (p.ID is ignored). The prediction waits in the bounded pending store
// until an outcome is reported for it or it is evicted by newer entries.
func (l *Ledger) Begin(p Prediction) string {
	r := newRecord(p)
	l.mu.Lock()
	if l.ring == nil {
		l.ring = make([]record, pendingCap)
	}
	r.key = l.internLocked(p)
	r.seq = l.seq + 1
	r.seq += (l.lastBegin + 1 - r.seq) % pendingCap
	l.seq, l.lastBegin = r.seq, r.seq
	slot := &l.ring[r.seq%pendingCap]
	if slot.seq != 0 {
		l.expired++
		if l == defaultLedger {
			mExpired.Inc()
		}
	} else {
		l.pending++
	}
	*slot = r
	l.predictions++
	pendingN := l.pending
	l.mu.Unlock()
	if l == defaultLedger {
		mPredictions.Inc()
		mPending.Set(float64(pendingN))
	}
	return formatID(r.seq)
}

// ErrUnknownID reports an outcome that matched no pending prediction —
// the ID was never issued, was already joined, or was evicted.
var ErrUnknownID = errors.New("accuracy: unknown or expired prediction id")

// Report joins a measured runtime (seconds) to the pending prediction
// with the given ID and folds the error into the calibration statistics.
func (l *Ledger) Report(id string, actualSeconds float64) (Sample, error) {
	if !(actualSeconds > 0) || math.IsInf(actualSeconds, 0) {
		l.miss()
		return Sample{}, fmt.Errorf("accuracy: actual seconds must be positive and finite, got %v", actualSeconds)
	}
	seq, ok := parseID(id)
	l.mu.Lock()
	var slot *record
	if ok && l.ring != nil {
		slot = &l.ring[seq%pendingCap]
	}
	if slot == nil || slot.seq != seq {
		l.mu.Unlock()
		l.miss()
		return Sample{}, fmt.Errorf("%w: %q", ErrUnknownID, id)
	}
	r := *slot
	*slot = record{}
	l.pending--
	l.outcomes++
	j := l.joinLocked(r, actualSeconds)
	k := l.buckets[r.key].Key
	pendingN := l.pending
	okNow := l.ok
	l.mu.Unlock()
	s := j.sample(k)
	if l == defaultLedger {
		mOutcomes.Inc()
		mJoined.Inc()
		mPending.Set(float64(pendingN))
		mAbsErr.Observe(s.AbsErrPct / 100)
		setCalibrationGauge(okNow)
	}
	return s, nil
}

// miss counts an outcome that joined nothing.
func (l *Ledger) miss() {
	l.mu.Lock()
	l.outcomes++
	l.unmatched++
	l.mu.Unlock()
	if l == defaultLedger {
		mOutcomes.Inc()
		mUnmatched.Inc()
	}
}

// ReportPair registers a prediction and its outcome in one call — the
// in-process hook for executors (batch, remap, experiments) that hold
// both sides already. It assigns the ID as Begin does (p.ID is ignored).
// Invalid inputs (non-positive predicted or actual) are dropped with a
// zero Sample.
func (l *Ledger) ReportPair(p Prediction, actualSeconds float64) Sample {
	if !(actualSeconds > 0) || !(p.Predicted > 0) ||
		math.IsInf(actualSeconds, 0) || math.IsInf(p.Predicted, 0) {
		return Sample{}
	}
	r := newRecord(p)
	l.mu.Lock()
	r.key = l.internLocked(p)
	l.seq++
	r.seq = l.seq
	l.predictions++
	l.outcomes++
	j := l.joinLocked(r, actualSeconds)
	k := l.buckets[r.key].Key
	okNow := l.ok
	l.mu.Unlock()
	s := j.sample(k)
	if l == defaultLedger {
		mPredictions.Inc()
		mOutcomes.Inc()
		mJoined.Inc()
		mAbsErr.Observe(s.AbsErrPct / 100)
		setCalibrationGauge(okNow)
	}
	return s
}

func setCalibrationGauge(ok bool) {
	if ok {
		mCalibrationOK.Set(1)
	} else {
		mCalibrationOK.Set(0)
	}
}

// joinLocked folds one joined pair into the sample ring, its bucket's
// statistics and the drift detector. Caller holds l.mu.
func (l *Ledger) joinLocked(r record, actual float64) joined {
	signed := (r.predicted - actual) / actual
	abs := math.Abs(signed)
	j := joined{record: r, actual: actual, joinedAt: time.Now().UnixNano()}

	// Sample ring (CSV export), overwrite-oldest.
	if l.samples == nil {
		l.samples = make([]joined, sampleCap)
	}
	l.samples[l.sampNext] = j
	l.sampNext = (l.sampNext + 1) % len(l.samples)
	if l.sampN < len(l.samples) {
		l.sampN++
	}

	// Per-bucket calibration stats.
	b := &l.buckets[r.key]
	if b.absH == nil {
		b.absH = obs.NewHistogram(ErrBuckets)
		b.overH = obs.NewHistogram(ErrBuckets)
		b.underH = obs.NewHistogram(ErrBuckets)
	}
	b.n++
	b.sumSigned += signed
	b.sumAbs += abs
	b.absH.Observe(abs)
	if signed >= 0 {
		b.overH.Observe(abs)
		b.overN++
	} else {
		b.underH.Observe(abs)
		b.underN++
	}

	// Drift detector: slide the window, keep the cumulative baseline.
	if l.winN == len(l.window) {
		l.winSum -= l.window[l.winNext]
	}
	l.window[l.winNext] = abs
	l.winNext = (l.winNext + 1) % len(l.window)
	if l.winN < len(l.window) {
		l.winN++
	}
	l.winSum += abs
	l.totalAbs += abs
	l.totalSigned += signed
	l.joined++
	l.ok = !l.driftedLocked()
	return j
}

// driftedLocked evaluates the drift rule. Caller holds l.mu.
func (l *Ledger) driftedLocked() bool {
	if l.winN < driftMinSamples {
		return false
	}
	winMAPE := l.winSum / float64(l.winN) * 100
	if winMAPE >= driftFloorPct {
		return true
	}
	baseN := l.joined - uint64(l.winN)
	if baseN < driftMinSamples || winMAPE < driftNoiseFloorPct {
		return false
	}
	baseMAPE := (l.totalAbs - l.winSum) / float64(baseN) * 100
	return baseMAPE > 0 && winMAPE >= baseMAPE*driftFactor
}

// CalibrationOK reports whether the drift detector currently considers
// recent prediction error consistent with the baseline.
func (l *Ledger) CalibrationOK() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ok
}

// Status snapshots the ledger counters and drift state.
func (l *Ledger) Status() Status {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := Status{
		Predictions:   l.predictions,
		Outcomes:      l.outcomes,
		Joined:        l.joined,
		Unmatched:     l.unmatched,
		Expired:       l.expired,
		Pending:       l.pending,
		WindowN:       l.winN,
		CalibrationOK: l.ok,
	}
	if l.joined > 0 {
		st.BiasPct = l.totalSigned / float64(l.joined) * 100
		st.MAPEPct = l.totalAbs / float64(l.joined) * 100
	}
	if l.winN > 0 {
		st.WindowMAPEPct = l.winSum / float64(l.winN) * 100
	}
	if base := l.joined - uint64(l.winN); base > 0 {
		st.BaselineN = base
		st.BaselineMAPEPct = (l.totalAbs - l.winSum) / float64(base) * 100
	}
	return st
}

// StatsQuery filters a Stats read; empty fields match everything.
type StatsQuery struct {
	App       string
	Scheduler string
}

// Stats returns the per-bucket calibration summaries matching q, in
// deterministic key order.
func (l *Ledger) Stats(q StatsQuery) []BucketStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]BucketStats, 0, len(l.buckets))
	for i := range l.buckets {
		b := &l.buckets[i]
		if b.n == 0 {
			continue
		}
		if q.App != "" && b.App != q.App {
			continue
		}
		if q.Scheduler != "" && b.Scheduler != q.Scheduler {
			continue
		}
		bs := BucketStats{
			Key:     b.Key,
			Count:   b.n,
			BiasPct: b.sumSigned / float64(b.n) * 100,
			MAPEPct: b.sumAbs / float64(b.n) * 100,
			P50Pct:  b.absH.Quantile(0.50) * 100,
			P90Pct:  b.absH.Quantile(0.90) * 100,
			P99Pct:  b.absH.Quantile(0.99) * 100,
		}
		bs.BandLowPct, bs.BandHighPct = b.band()
		out = append(out, bs)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Key, out[j].Key
		if a.App != b.App {
			return a.App < b.App
		}
		if a.Scheduler != b.Scheduler {
			return a.Scheduler < b.Scheduler
		}
		if a.Degraded != b.Degraded {
			return !a.Degraded
		}
		return a.AgeBucket < b.AgeBucket
	})
	return out
}

// BandFor returns the empirical signed-error band for a calibration
// bucket, or a zero Band (Samples == 0) while the bucket has fewer than
// minBandSamples joined outcomes. This is the hot-path reply annotation:
// one mutex acquisition plus two histogram quantile scans.
func (l *Ledger) BandFor(k Key) Band {
	l.mu.Lock()
	defer l.mu.Unlock()
	i, ok := l.keys[k]
	if !ok {
		return Band{}
	}
	b := &l.buckets[i]
	if b.n < minBandSamples {
		return Band{}
	}
	lo, hi := b.band()
	return Band{LowPct: lo, HighPct: hi, Samples: b.n}
}

// Samples returns up to n joined pairs, newest first (n <= 0 returns all
// resident pairs).
func (l *Ledger) Samples(n int) []Sample {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n <= 0 || n > l.sampN {
		n = l.sampN
	}
	out := make([]Sample, 0, n)
	for i := 1; i <= n; i++ {
		j := l.samples[(l.sampNext-i+len(l.samples))%len(l.samples)]
		out = append(out, j.sample(l.buckets[j.key].Key))
	}
	return out
}

// AgeBucket coarsely bins a snapshot age (seconds) for calibration
// keying: fresh data should predict better than stale data, and the
// bucketed key makes that measurable without unbounded cardinality.
func AgeBucket(ageSeconds float64) string {
	switch {
	case ageSeconds < 1:
		return "<1s"
	case ageSeconds < 5:
		return "1-5s"
	case ageSeconds < 30:
		return "5-30s"
	default:
		return "30s+"
	}
}
