package service

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/rpc"
	"sync"
	"time"

	"cbes/internal/obs"
)

// clientRetries counts the client's resends of transient failures.
var clientRetries = obs.Default().Counter(
	"cbes_client_retries_total", "Client-side retries of transient RPC failures.")

// traceCarrier is what Client.call stamps: any args struct embedding
// TraceMeta implements it via the promoted pointer method.
type traceCarrier interface{ setTrace(sc obs.SpanContext) }

// deadlineCarrier is the deadline-stamping counterpart of traceCarrier.
type deadlineCarrier interface{ setDeadline(t time.Time) }

// DefaultDialTimeout is the connection timeout of Dial.
const DefaultDialTimeout = 5 * time.Second

// RetryPolicy configures the client's handling of transient failures on
// idempotent methods: up to Max retries with exponential backoff from
// retryBaseDelay (capped at retryMaxDelay) plus jitter.
type RetryPolicy struct {
	Max int // retries after the first attempt (default 3)
}

const (
	retryBaseDelay = 25 * time.Millisecond // first backoff step
	retryMaxDelay  = time.Second           // backoff cap
)

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.Max < 0 {
		p.Max = 0
	} else if p.Max == 0 {
		p.Max = 3
	}
	return p
}

// retryDelay computes the backoff before retry attempt (0-based) with
// full jitter: a uniform draw from (0, cappedExponential], so synchronized
// clients spread out instead of thundering back together.
func retryDelay(attempt int) time.Duration {
	d := retryBaseDelay << uint(attempt)
	if d > retryMaxDelay || d <= 0 {
		d = retryMaxDelay
	}
	return time.Duration(1 + rand.Int63n(int64(d)))
}

// Client is a typed CBES RPC client. Idempotent methods (everything except
// Advance, which mutates simulated time) transparently retry transient
// failures — connection loss, server shutdown mid-flight, ErrBusy — with
// exponential backoff plus jitter, redialing as needed. A Client is safe
// for concurrent use.
type Client struct {
	addr        string
	dialTimeout time.Duration

	mu    sync.Mutex // guards rc across reconnects, and the knobs below
	rc    *rpc.Client
	retry RetryPolicy
	// callTimeout, when > 0, stamps every call with an absolute deadline
	// (now + callTimeout) propagated in TraceMeta; the whole retry loop
	// shares one budget. Zero (the default) propagates no deadline.
	callTimeout time.Duration
}

// Dial connects to a CBES server with the default timeout.
func Dial(addr string) (*Client, error) { return DialTimeout(addr, DefaultDialTimeout) }

// DialTimeout connects to a CBES server, waiting at most timeout for the
// connection to establish.
func DialTimeout(addr string, timeout time.Duration) (*Client, error) {
	if timeout <= 0 {
		timeout = DefaultDialTimeout
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	return DialContext(ctx, addr)
}

// DialContext connects to a CBES server under the given context (deadline
// and cancellation apply to connection establishment only, not to calls).
func DialContext(ctx context.Context, addr string) (*Client, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("service: dial %s: %w", addr, err)
	}
	timeout := DefaultDialTimeout
	if dl, ok := ctx.Deadline(); ok {
		if remain := time.Until(dl); remain > 0 {
			timeout = remain
		}
	}
	return &Client{
		addr:        addr,
		dialTimeout: timeout,
		retry:       RetryPolicy{}.withDefaults(),
		rc:          rpc.NewClient(conn),
	}, nil
}

// SetRetryPolicy overrides the transient-failure retry behaviour.
// RetryPolicy{Max: -1} disables retries entirely. Safe to call
// concurrently with in-flight calls; those already started keep the
// policy they read at entry.
func (c *Client) SetRetryPolicy(p RetryPolicy) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.retry = p.withDefaults()
}

// SetCallTimeout sets the per-call deadline budget: every subsequent
// call stamps now+d as an absolute deadline into its TraceMeta (the
// server abandons work past it) and the client's own retry loop stops
// at the same instant. Zero disables deadline propagation (the
// default).
func (c *Client) SetCallTimeout(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.callTimeout = d
}

// settings snapshots the retry policy and call timeout for one call, so
// every attempt of it reads one coherent pair.
func (c *Client) settings() (RetryPolicy, time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.retry, c.callTimeout
}

// Close terminates the connection.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rc.Close()
}

func (c *Client) conn() *rpc.Client {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rc
}

// reconnect replaces a broken connection, best-effort: on dial failure the
// old (dead) client stays, and the next call surfaces its error.
func (c *Client) reconnect(old *rpc.Client) {
	conn, err := net.DialTimeout("tcp", c.addr, c.dialTimeout)
	if err != nil {
		return
	}
	c.mu.Lock()
	if c.rc == old { // still the broken client we saw fail: swap in the fresh one
		c.rc.Close()
		c.rc = rpc.NewClient(conn)
		conn = nil
	}
	c.mu.Unlock()
	if conn != nil {
		// Lost a race with another caller's reconnect: keep theirs, drop ours.
		conn.Close()
	}
}

// isTransient classifies errors worth retrying: the connection died (the
// request outcome is unknown — safe to resend only idempotent methods), or
// the server reported ErrBusy/ErrShed (definitely not executed). Deadline
// errors are NOT transient: the budget that expired covers retries too.
// net/rpc flattens a reply body cut off mid-read into the plain string
// "reading body " + the decoder's error, so a truncated body is matched by
// text; any other body error (a malformed reply) is not transport loss.
func isTransient(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, rpc.ErrShutdown) || errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return true
	}
	var nerr net.Error
	if errors.As(err, &nerr) {
		return true
	}
	if _, ok := err.(rpc.ServerError); ok {
		return IsBusy(err) || IsShed(err)
	}
	switch err.Error() {
	case "reading body " + io.EOF.Error(), "reading body " + io.ErrUnexpectedEOF.Error():
		return true
	}
	return IsBusy(err) || IsShed(err) || errors.Is(err, net.ErrClosed)
}

// connError reports whether err indicates the underlying connection is
// unusable (vs. a server-side transient like ErrBusy).
func connError(err error) bool {
	if _, ok := err.(rpc.ServerError); ok {
		return false
	}
	return true
}

// call performs one RPC, retrying transient failures when idempotent is
// true. Non-idempotent methods (Advance, ReportOutcome) never retry: a
// lost reply leaves the outcome unknown and a resend would double-apply
// it. When a call timeout is set the absolute deadline is stamped ONCE
// and shared by every retry — queue time and earlier attempts count
// against it, so retries cannot stretch a caller's latency budget.
func (c *Client) call(method string, args, reply any, idempotent bool) (err error) {
	retry, callTimeout := c.settings()
	// One client-side span covers the whole retry loop; its context rides
	// the wire in the args' TraceMeta, so the server-side rpc.* span (and
	// everything under it — cache, search, anneal restarts) joins THIS
	// trace. Every retry re-sends the same trace: attempts of one logical
	// call are one causal story.
	span := obs.DefaultTracer().Start("rpc.client." + method)
	if tc, ok := args.(traceCarrier); ok {
		tc.setTrace(span.Context())
	}
	var deadline time.Time
	if callTimeout > 0 {
		deadline = time.Now().Add(callTimeout)
		if dc, ok := args.(deadlineCarrier); ok {
			dc.setDeadline(deadline)
		}
	}
	attempts := 0
	defer func() { span.Attr("attempts", attempts).Error(err).End() }()
	for attempt := 0; ; attempt++ {
		attempts = attempt + 1
		rc := c.conn()
		err = rc.Call(RPCName+"."+method, args, reply)
		if err == nil || !idempotent || attempt >= retry.Max || !isTransient(err) {
			return err
		}
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			return err // budget exhausted: surface the last real error
		}
		clientRetries.Inc()
		if connError(err) {
			c.reconnect(rc)
		}
		sleep := retryDelay(attempt)
		if !deadline.IsZero() {
			if until := time.Until(deadline); until < sleep {
				sleep = until
			}
		}
		if sleep > 0 {
			time.Sleep(sleep)
		}
	}
}

// Evaluate predicts one mapping's execution time.
func (c *Client) Evaluate(app string, mapping []int) (*EvaluateReply, error) {
	var reply EvaluateReply
	err := c.call("Evaluate", &EvaluateArgs{App: app, Mapping: mapping}, &reply, true)
	return &reply, err
}

// Explain fetches the per-process breakdown of one mapping's prediction.
func (c *Client) Explain(app string, mapping []int) (*ExplainReply, error) {
	var reply ExplainReply
	err := c.call("Explain", &ExplainArgs{App: app, Mapping: mapping}, &reply, true)
	return &reply, err
}

// Compare predicts several mappings.
func (c *Client) Compare(app string, mappings [][]int) (*CompareReply, error) {
	var reply CompareReply
	err := c.call("Compare", &CompareArgs{App: app, Mappings: mappings}, &reply, true)
	return &reply, err
}

// Schedule requests a mapping from the named algorithm. Retried on
// transient failure: scheduling is deterministic in (app, algorithm, pool,
// seed) and mutates nothing, so a resend is safe.
func (c *Client) Schedule(app, algorithm string, pool []int, seed int64) (*ScheduleReply, error) {
	return c.ScheduleEffort(app, algorithm, pool, seed, 0)
}

// ScheduleEffort is Schedule with an explicit search-effort cap (energy
// evaluations; 0 selects the server default).
func (c *Client) ScheduleEffort(app, algorithm string, pool []int, seed int64, effort int) (*ScheduleReply, error) {
	var reply ScheduleReply
	err := c.call("Schedule", &ScheduleArgs{App: app, Algorithm: algorithm, Pool: pool, Seed: seed, Effort: effort}, &reply, true)
	return &reply, err
}

// Status fetches service status.
func (c *Client) Status() (*StatusReply, error) {
	var reply StatusReply
	err := c.call("Status", &StatusArgs{}, &reply, true)
	return &reply, err
}

// Advance moves simulated time forward on the server. Never retried: the
// call is not idempotent, and resending after a lost reply would advance
// the clock twice.
func (c *Client) Advance(seconds float64) (*AdvanceReply, error) {
	var reply AdvanceReply
	err := c.call("Advance", &AdvanceArgs{Seconds: seconds}, &reply, false)
	return &reply, err
}

// Decisions queries the server's decision flight recorder: up to n most
// recent records (n <= 0 for all resident), optionally filtered by
// decision kind, application, and hex trace ID.
func (c *Client) Decisions(n int, kind, app, traceID string) (*DecisionsReply, error) {
	var reply DecisionsReply
	err := c.call("Decisions", &DecisionsArgs{N: n, Kind: kind, App: app, TraceID: traceID}, &reply, true)
	return &reply, err
}

// ReportOutcome joins a measured runtime (seconds) back to the served
// prediction identified by predictionID. Never retried: the join is
// one-shot on the server, so a resend after a lost reply would surface a
// misleading unknown-ID error for a join that actually landed.
func (c *Client) ReportOutcome(predictionID string, actualSeconds float64) (*ReportOutcomeReply, error) {
	var reply ReportOutcomeReply
	err := c.call("ReportOutcome", &ReportOutcomeArgs{PredictionID: predictionID, ActualSeconds: actualSeconds}, &reply, false)
	return &reply, err
}

// Accuracy fetches the server's prediction-accuracy ledger: status,
// per-bucket calibration stats (optionally filtered by app and
// scheduler), and up to samples recent joined pairs (<= 0 for all).
func (c *Client) Accuracy(app, scheduler string, samples int) (*AccuracyReply, error) {
	var reply AccuracyReply
	err := c.call("Accuracy", &AccuracyArgs{App: app, Scheduler: scheduler, Samples: samples}, &reply, true)
	return &reply, err
}

// Metrics fetches the server's metrics in the Prometheus text format.
func (c *Client) Metrics() (*MetricsReply, error) {
	var reply MetricsReply
	err := c.call("Metrics", &MetricsArgs{}, &reply, true)
	return &reply, err
}
