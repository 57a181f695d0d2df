// Package admission implements adaptive overload protection for the
// service tier (DESIGN.md §15): a gradient/AIMD concurrency limiter fed
// by observed request latency, with two cost classes and priority
// shedding.
//
// The limiter's contract is deliberately small: Acquire reserves one
// concurrency slot for a request (or refuses it), Release returns the
// slot and feeds the request's latency into the limit controller. The
// limit itself adapts: every Window completions the controller compares
// the window's p99 latency against TargetP99 and applies
// additive-increase / multiplicative-decrease — the classic AIMD
// gradient that converges on the highest concurrency the backend
// sustains without blowing the latency target.
//
// Cost classes implement priority shedding ("shed cheap-to-recompute
// before expensive-in-flight"):
//
//   - Expensive requests (searches, cold predictions, batches) queue
//     FIFO up to MaxQueue when the limit is reached and are handed
//     released slots first; past MaxQueue they shed with ErrShed.
//     Queueing is deadline-aware: a request whose context deadline
//     cannot fit the projected queue wait plus one expected service
//     time sheds immediately instead of waiting to die — the queue
//     holds only work that can still meet its deadline, so a short
//     deadline never turns the queue into bufferbloat.
//   - Cheap requests (brownout fallbacks, cheap-to-recompute reads)
//     never queue: they admit immediately or shed immediately. They may
//     borrow a single slot past the limit — a serial "brownout lane"
//     that keeps the degraded fast path live while full-service work is
//     saturated — but a second concurrent cheap request sheds.
//
// Under saturation released slots drain the expensive queue before any
// cheap request admits, so in-flight expensive work always completes
// and the cheap class is shed first, by construction.
package admission

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"time"

	"cbes/internal/obs"
)

// Limiter observability. The gauges expose the controller's live state;
// the shed counter is split by class so priority shedding is visible
// (cheap sheds should dominate under overload). The shed-ratio gauge is
// the /readyz warning feed: the shed fraction of the last completed
// adjustment window (it holds its value between windows, so a quiet
// limiter reports the last busy window until traffic resumes).
var (
	gaugeLimit = obs.Default().Gauge(
		"cbes_admission_limit", "Current adaptive concurrency limit (AIMD-controlled).")
	gaugeInflight = obs.Default().Gauge(
		"cbes_admission_inflight", "Requests currently holding an admission slot.")
	gaugeQueue = obs.Default().Gauge(
		"cbes_admission_queue", "Expensive-class requests queued waiting for a slot.")
	gaugeShedRatio = obs.Default().Gauge(
		"cbes_admission_shed_ratio", "Shed fraction of the last completed adjustment window [0,1].")
	shedTotal = obs.Default().CounterVec(
		"cbes_admission_shed_total", "Requests refused by the admission limiter, by cost class.", "class")
	limitDecreases = obs.Default().Counter(
		"cbes_admission_limit_decreases_total", "AIMD multiplicative decreases (window p99 above target).")
)

// ErrShed is returned when the limiter refuses a request: the limit is
// reached and the request's class does not queue (or its queue is
// full). The condition is transient but load-driven — clients should
// back off hard before retrying. The "cbes:" code prefix survives
// net/rpc error flattening (DESIGN.md §15).
var ErrShed = errors.New("cbes:shed: admission limiter shed this request (server overloaded)")

// Class is a request cost class.
type Class int

const (
	// Cheap marks requests that are cheap to serve and cheap for the
	// caller to recompute later: they are shed first (no queue).
	Cheap Class = iota
	// Expensive marks requests carrying real work (searches, cold
	// predictions): they queue for a slot up to the queue bound.
	Expensive
)

// String returns the metric label for the class.
func (c Class) String() string {
	if c == Cheap {
		return "cheap"
	}
	return "expensive"
}

// Config tunes a Limiter. The zero value selects the defaults noted on
// each field.
type Config struct {
	// Initial is the starting concurrency limit. Default
	// max(8, 4×GOMAXPROCS) — generous enough that lightly loaded
	// servers rarely queue, but scaled to the machine: a limit far
	// above what the cores can run concurrently is just latent
	// bufferbloat the controller has to burn windows walking back.
	Initial int
	// Min and Max clamp the adaptive limit (defaults 2 and
	// max(256, Initial)).
	Min, Max int
	// TargetP99 is the latency the controller steers the window p99
	// toward (default 500ms). Above it the limit shrinks
	// multiplicatively; at or below it grows additively.
	TargetP99 time.Duration
	// Window is the number of completions per adjustment round
	// (default 64).
	Window int
	// MaxQueue bounds the expensive-class FIFO queue; requests past it
	// shed (default 256). Negative disables queueing entirely.
	MaxQueue int
}

func (c Config) withDefaults() Config {
	if c.Initial <= 0 {
		c.Initial = 4 * runtime.GOMAXPROCS(0)
		if c.Initial < 8 {
			c.Initial = 8
		}
	}
	if c.Min <= 0 {
		c.Min = 2
	}
	if c.Max <= 0 {
		c.Max = 256
		if c.Max < c.Initial {
			c.Max = c.Initial
		}
	}
	if c.Initial > c.Max {
		c.Initial = c.Max
	}
	if c.Min > c.Max {
		c.Min = c.Max
	}
	if c.TargetP99 <= 0 {
		c.TargetP99 = 500 * time.Millisecond
	}
	if c.Window <= 0 {
		c.Window = 64
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = 256
	} else if c.MaxQueue < 0 {
		c.MaxQueue = 0
	}
	return c
}

// Ticket is one granted admission slot. Return it with Limiter.Release.
type Ticket struct {
	l     *Limiter
	class Class
	start time.Time
}

// Limiter is an adaptive concurrency limiter. A nil *Limiter is a
// disabled no-op: Acquire admits everything (returning a nil Ticket)
// and Release ignores nil tickets, so callers need no branching.
type Limiter struct {
	cfg Config

	mu       sync.Mutex
	limit    float64
	inflight int
	queue    []chan struct{} // expensive waiters, FIFO; closed chan = slot handed over

	// Latency window feeding the AIMD controller. Only expensive-class
	// completions are observed: mixing in microsecond cheap completions
	// would drag the window p99 below target and inflate the limit.
	win      *obs.Histogram
	winObs   int // expensive completions observed in the window
	winDone  int // all completions in the window (shed-ratio denominator)
	winShed  int // sheds in the window (shed-ratio numerator)
	winStart time.Time

	// svcEWMA tracks the expected expensive-class service time and
	// gapEWMA the inter-completion gap (both seconds, exponentially
	// weighted) — together the projection model behind the
	// deadline-aware queue admission check. The gap measures *observed*
	// drain rate directly, which stays honest even when service time
	// inflates with concurrency (CPU-bound backends: limit slots do not
	// actually run in parallel). Zero until enough completions arrive,
	// which disables the check (nothing to project from).
	svcEWMA float64
	gapEWMA float64
	lastRel time.Time
}

// latencyBuckets spans the request latencies the controller cares
// about: 100µs .. 100s, log-spaced.
func latencyBuckets() []float64 { return obs.LogBuckets(1e-4, 100) }

// New builds a limiter. The exported gauges reflect the most recently
// constructed limiter (last-writer-wins, the repo's gauge idiom).
func New(cfg Config) *Limiter {
	cfg = cfg.withDefaults()
	l := &Limiter{cfg: cfg, limit: float64(cfg.Initial), win: obs.NewHistogram(latencyBuckets()), winStart: time.Now()}
	gaugeLimit.Set(l.limit)
	gaugeInflight.Set(0)
	gaugeQueue.Set(0)
	return l
}

// Limit reports the current concurrency limit.
func (l *Limiter) Limit() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return int(l.limit)
}

// Inflight reports the slots currently held.
func (l *Limiter) Inflight() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.inflight
}

// ShedRatio reports the shed fraction of the last completed adjustment
// window [0,1] — the /readyz warning feed. It holds between windows.
func (l *Limiter) ShedRatio() float64 {
	if l == nil {
		return 0
	}
	return gaugeShedRatio.Value()
}

// Acquire reserves a slot for a request of the given class, blocking an
// expensive request on the queue until a slot frees or ctx expires. It
// returns ErrShed when the limiter refuses the request outright and
// ctx.Err() when the deadline fires while queued. A nil limiter admits
// with a nil ticket.
func (l *Limiter) Acquire(ctx context.Context, class Class) (*Ticket, error) {
	if l == nil {
		return nil, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	dl, hasDL := ctx.Deadline()
	l.mu.Lock()
	bar := int(l.limit)
	if class == Cheap {
		bar++ // the serial brownout lane (see package doc)
	}
	if l.inflight < bar && (class == Cheap || len(l.queue) == 0) {
		// Even with a slot free, an expensive request whose expected
		// service time cannot fit its deadline is doomed on arrival —
		// admitting it burns a slot on work nobody will use. This also
		// drains congestion fast: when in-service times have inflated
		// past the deadline budget, arrivals shed until completions pull
		// the EWMA back under it.
		if class == Expensive && hasDL && l.svcEWMA > 0 &&
			0.7*time.Until(dl).Seconds() < l.svcEWMA {
			l.winShed++
			l.winDone++
			l.mu.Unlock()
			shedTotal.With(class.String()).Inc()
			return nil, ErrShed
		}
		// Expensive requests respect FIFO: they may not jump a non-empty
		// queue even when a slot is momentarily free.
		l.inflight++
		gaugeInflight.Set(float64(l.inflight))
		l.mu.Unlock()
		return &Ticket{l: l, class: class, start: time.Now()}, nil
	}
	if class == Cheap || len(l.queue) >= l.cfg.MaxQueue {
		l.winShed++
		l.winDone++
		l.mu.Unlock()
		shedTotal.With(class.String()).Inc()
		return nil, ErrShed
	}
	if hasDL && l.svcEWMA > 0 && l.gapEWMA > 0 {
		// Deadline-aware admission: shed now when the projected queue
		// wait plus one service time cannot fit comfortably inside the
		// request's remaining deadline. One completion frees a slot
		// every gapEWMA on average, so a request entering at position
		// len(queue)+1 waits about (len(queue)+1)·gapEWMA before it
		// even starts. The 0.7 margin absorbs model error and the
		// reply's way back out — admitting work projected to finish at
		// the exact deadline just manufactures deadline misses.
		if wait := (float64(len(l.queue)) + 1) * l.gapEWMA; 0.7*time.Until(dl).Seconds() < wait+l.svcEWMA {
			l.winShed++
			l.winDone++
			l.mu.Unlock()
			shedTotal.With(class.String()).Inc()
			return nil, ErrShed
		}
	}
	w := make(chan struct{})
	l.queue = append(l.queue, w)
	gaugeQueue.Set(float64(len(l.queue)))
	l.mu.Unlock()

	select {
	case <-w:
		// Slot handed over by a releaser; inflight already counts us.
		// If the deadline fired while the hand-off raced ctx.Done, give
		// the slot straight back rather than compute doomed work.
		if err := ctx.Err(); err != nil {
			l.mu.Lock()
			l.releaseSlotLocked()
			l.winShed++
			l.winDone++
			l.mu.Unlock()
			shedTotal.With(class.String()).Inc()
			return nil, err
		}
		return &Ticket{l: l, class: class, start: time.Now()}, nil
	case <-ctx.Done():
		l.mu.Lock()
		removed := false
		for i, q := range l.queue {
			if q == w {
				l.queue = append(l.queue[:i], l.queue[i+1:]...)
				removed = true
				break
			}
		}
		gaugeQueue.Set(float64(len(l.queue)))
		if !removed {
			// A releaser popped us (and closed w) before we could leave the
			// queue: the slot is ours, give it back properly.
			l.releaseSlotLocked()
		} else {
			l.winShed++
			l.winDone++
			shedTotal.With(class.String()).Inc()
		}
		l.mu.Unlock()
		return nil, ctx.Err()
	}
}

// Release returns a ticket's slot, hands it to the head of the
// expensive queue when the limit allows, and feeds the request latency
// into the AIMD controller. Safe on nil limiters and nil tickets.
func (l *Limiter) Release(t *Ticket) {
	if l == nil || t == nil {
		return
	}
	l.mu.Lock()
	if t.class == Expensive {
		now := time.Now()
		s := now.Sub(t.start).Seconds()
		l.win.Observe(s)
		l.winObs++
		if l.svcEWMA == 0 {
			l.svcEWMA = s
		} else {
			l.svcEWMA = 0.9*l.svcEWMA + 0.1*s
		}
		if !l.lastRel.IsZero() {
			gap := now.Sub(l.lastRel).Seconds()
			// An idle stretch is not a drain measurement: a gap longer
			// than the completing request's own service time says "no
			// load", not "slow drain", so clamp it there.
			if gap > s {
				gap = s
			}
			if l.gapEWMA == 0 {
				l.gapEWMA = gap
			} else {
				l.gapEWMA = 0.9*l.gapEWMA + 0.1*gap
			}
		}
		l.lastRel = now
	}
	l.winDone++
	// Adjust on a full window, or early once a second when completions
	// are slow: heavy-request workloads (tens of ms each) would take
	// many seconds to fill a 64-completion window, leaving the limit
	// frozen exactly when overload needs it moving.
	if l.winObs >= l.cfg.Window ||
		(l.winObs >= 8 && time.Since(l.winStart) >= time.Second) {
		l.adjustLocked()
	}
	l.releaseSlotLocked()
	l.mu.Unlock()
}

// releaseSlotLocked frees one slot: hand-off to the queue head when the
// post-hand-off inflight still fits the (possibly just shrunk) limit,
// plain decrement otherwise. Callers hold l.mu.
func (l *Limiter) releaseSlotLocked() {
	if len(l.queue) > 0 && l.inflight <= int(l.limit) {
		w := l.queue[0]
		l.queue = l.queue[1:]
		gaugeQueue.Set(float64(len(l.queue)))
		close(w) // inflight transfers to the waiter
		return
	}
	l.inflight--
	gaugeInflight.Set(float64(l.inflight))
}

// adjustLocked runs one AIMD round: multiplicative decrease when the
// window p99 overshot the target — proportional to the overshoot but
// never more than halving, so a limit stranded far above what the
// backend sustains walks down in a few windows instead of tens —
// additive increase otherwise, then resets the window. Callers hold
// l.mu.
func (l *Limiter) adjustLocked() {
	p99 := l.win.Quantile(0.99)
	if target := l.cfg.TargetP99.Seconds(); p99 > target {
		f := target / p99
		if f < 0.5 {
			f = 0.5
		}
		l.limit *= f
		limitDecreases.Inc()
	} else {
		l.limit++
	}
	if l.limit < float64(l.cfg.Min) {
		l.limit = float64(l.cfg.Min)
	}
	if l.limit > float64(l.cfg.Max) {
		l.limit = float64(l.cfg.Max)
	}
	gaugeLimit.Set(l.limit)
	if l.winDone+l.winShed > 0 {
		gaugeShedRatio.Set(float64(l.winShed) / float64(l.winDone))
	}
	l.win = obs.NewHistogram(latencyBuckets())
	l.winObs, l.winDone, l.winShed = 0, 0, 0
	l.winStart = time.Now()
}
