package service

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"net"
	"net/rpc"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cbes"
	"cbes/internal/bench"
	"cbes/internal/cluster"
	"cbes/internal/des"
	"cbes/internal/obs"
	"cbes/internal/workloads"
)

// newSys builds a calibrated system with one profiled app (no listener).
func newSys(t testing.TB) (*cbes.System, workloads.Program) {
	t.Helper()
	sys := cbes.NewSystem(cluster.NewTestTopology(), cbes.Config{})
	sys.Calibrate(bench.Options{Reps: 3})
	prog := workloads.Synthetic(workloads.SyntheticConfig{
		Ranks: 4, Iterations: 8, ComputePerIter: 0.04, MsgSize: 8 << 10, MsgsPerIter: 1,
	})
	sys.MustProfile(prog, []int{0, 1, 2, 3})
	t.Cleanup(sys.Close)
	return sys, prog
}

func TestInterceptRecoversPanic(t *testing.T) {
	sys, _ := newSys(t)
	s := NewServer(sys)
	err := s.intercept("Boom", TraceMeta{}, true, func(context.Context) error { panic("kaboom") })
	if err == nil {
		t.Fatal("panicking handler returned nil")
	}
	if got := err.Error(); !strings.Contains(got, "recovered panic") || !strings.Contains(got, "kaboom") {
		t.Fatalf("panic error = %q", got)
	}
	// The engine lock must have been released: the next request runs.
	if err := s.intercept("After", TraceMeta{}, true, func(context.Context) error { return nil }); err != nil {
		t.Fatalf("request after recovered panic: %v", err)
	}
}

// TestAdvanceRecoversProcessPanic: a simulated process (a rank, a monitor
// daemon) that panics while Advance steps the engine fails that one request.
// The panic surfaces from RunUntil on the handler's goroutine, where the
// recovery above sees it; raised on a goroutine of the process's own it
// would have ended the daemon.
func TestAdvanceRecoversProcessPanic(t *testing.T) {
	sys, _ := newSys(t)
	s := NewServer(sys)
	start := sys.Eng.Now()
	sys.Eng.Spawn("poisoned", func(p *des.Proc) {
		p.Sleep(des.Second)
		panic("daemon failed")
	})
	err := s.Advance(&AdvanceArgs{Seconds: 2}, &AdvanceReply{})
	if err == nil {
		t.Fatal("Advance over a panicking process returned nil")
	}
	if got := err.Error(); !strings.Contains(got, "recovered panic") || !strings.Contains(got, "daemon failed") {
		t.Fatalf("panic error = %q", got)
	}
	var reply AdvanceReply
	if err := s.Advance(&AdvanceArgs{Seconds: 2}, &reply); err != nil {
		t.Fatalf("Advance after a recovered process panic: %v", err)
	}
	if want := (start + 3*des.Second).Seconds(); reply.SimSeconds != want {
		t.Fatalf("clock at %v s after the panic at +1 s and 2 s more, want %v", reply.SimSeconds, want)
	}
}

func TestInterceptBusyTimeout(t *testing.T) {
	sys, _ := newSys(t)
	s := NewServer(sys)
	s.timeout = 20 * time.Millisecond
	s.lock <- struct{}{} // wedge the engine lock (a stuck long request)
	err := s.intercept("Evaluate", TraceMeta{}, true, func(context.Context) error { return nil })
	if !IsBusy(err) {
		t.Fatalf("err = %v, want busy", err)
	}
	if !errors.Is(err, ErrBusy) {
		t.Fatalf("local busy error should unwrap to ErrBusy: %v", err)
	}
	<-s.lock
	if err := s.intercept("Evaluate", TraceMeta{}, true, func(context.Context) error { return nil }); err != nil {
		t.Fatalf("after lock release: %v", err)
	}
}

// Every exit of the one interceptor is booked exactly once: one request
// and one latency observation, one error iff the request failed, the
// in-flight count back where it was, and one rpc.<method> span that
// carries the error iff the request failed.
func TestInterceptExits(t *testing.T) {
	sys, _ := newSys(t)
	s := NewServer(sys)
	ok := func(context.Context) error { return nil }
	cases := []struct {
		method   string
		writer   bool
		wedged   bool          // the engine lock is held by another request
		timeout  time.Duration // the server's engine-lock queueing bound
		deadline time.Duration // the caller's, relative to the call; 0 = none
		fn       func(context.Context) error
		failed   bool
	}{
		{"ExitOK", false, false, time.Second, 0, ok, false},
		{"ExitError", false, false, time.Second, 0, func(context.Context) error { return errors.New("boom") }, true},
		{"ExitPanic", true, false, time.Second, 0, func(context.Context) error { panic("kaboom") }, true},
		{"ExitBusy", true, true, 20 * time.Millisecond, 0, ok, true},
		{"ExitDeadlineBeforeStart", false, false, time.Second, -time.Second, ok, true},
		{"ExitDeadlineWhileQueued", true, true, 30 * time.Second, 5 * time.Millisecond, ok, true},
	}
	for _, tc := range cases {
		t.Run(tc.method, func(t *testing.T) {
			s.timeout = tc.timeout
			if tc.wedged {
				s.lock <- struct{}{}
				defer func() { <-s.lock }()
			}
			meta := freshTrace()
			if tc.deadline != 0 {
				meta.setDeadline(time.Now().Add(tc.deadline))
			}
			requests, seconds, errs := rpcRequests.With(tc.method), rpcSeconds.With(tc.method), rpcErrors.With(tc.method)
			requests0, seconds0, errs0 := requests.Value(), seconds.Count(), errs.Value()
			inflight := rpcInflight.Value()
			err := s.intercept(tc.method, meta, tc.writer, tc.fn)
			if (err != nil) != tc.failed {
				t.Fatalf("err = %v, want failed=%v", err, tc.failed)
			}
			wantErrs := uint64(0)
			if tc.failed {
				wantErrs = 1
			}
			if n := requests.Value() - requests0; n != 1 {
				t.Errorf("cbes_rpc_requests_total grew by %d, want 1", n)
			}
			if n := seconds.Count() - seconds0; n != 1 {
				t.Errorf("cbes_rpc_seconds took %d observations, want 1", n)
			}
			if n := errs.Value() - errs0; n != wantErrs {
				t.Errorf("cbes_rpc_errors_total grew by %d, want %d", n, wantErrs)
			}
			if s.inflight.Load() != 0 || rpcInflight.Value() != inflight {
				t.Errorf("in flight after the request: server %d, gauge %v (was %v)", s.inflight.Load(), rpcInflight.Value(), inflight)
			}
			var spans []obs.Span
			for _, sp := range obs.DefaultTracer().TraceSpans(meta.TraceID) {
				if sp.Name == "rpc."+tc.method {
					spans = append(spans, sp)
				}
			}
			if len(spans) != 1 {
				t.Fatalf("%d rpc.%s spans ended, want 1", len(spans), tc.method)
			}
			carriesErr := false
			for _, a := range spans[0].Attrs {
				carriesErr = carriesErr || a.Key == "error"
			}
			if carriesErr != tc.failed {
				t.Errorf("span carries an error = %v, want %v", carriesErr, tc.failed)
			}
		})
	}
}

// freshTrace returns wire trace metadata naming a trace no other request
// (nor an earlier run of the same test) has used.
func freshTrace() TraceMeta {
	var m TraceMeta
	m.setTrace(obs.DefaultTracer().Start("test.caller").Context())
	return m
}

func TestDialContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := DialContext(ctx, "127.0.0.1:1"); err == nil {
		t.Fatal("dial under cancelled context should fail")
	}
}

func TestDialTimeoutConnects(t *testing.T) {
	sys, prog := newSys(t)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go ServeWith(sys, l, ServeOptions{}) //nolint:errcheck
	t.Cleanup(func() { l.Close() })
	c, err := DialTimeout(l.Addr().String(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Evaluate(prog.Name, []int{0, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
}

// TestClientRetriesAcrossServerRestart kills the server mid-session and
// restarts it on the same port: the client's next idempotent call must
// ride out the dead connection via reconnect + retry.
func TestClientRetriesAcrossServerRestart(t *testing.T) {
	sys, prog := newSys(t)
	l1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l1.Addr().String()
	done1 := make(chan error, 1)
	go func() { done1 <- ServeWith(sys, l1, ServeOptions{DrainTimeout: time.Second}) }()

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Evaluate(prog.Name, []int{0, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}

	// Take the server down completely (listener + connections).
	l1.Close()
	if err := <-done1; err != nil {
		t.Fatalf("first server exit: %v", err)
	}
	// Restart on the same port, then call again on the same client.
	l2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	go ServeWith(sys, l2, ServeOptions{}) //nolint:errcheck
	t.Cleanup(func() { l2.Close() })

	r, err := c.Evaluate(prog.Name, []int{0, 1, 2, 3})
	if err != nil {
		t.Fatalf("post-restart call did not recover: %v", err)
	}
	if r.Seconds <= 0 {
		t.Fatalf("post-restart prediction = %v", r.Seconds)
	}
}

func TestAdvanceIsNeverRetried(t *testing.T) {
	sys, _ := newSys(t)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- ServeWith(sys, l, ServeOptions{}) }()
	c, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	l.Close()
	<-done
	if _, err := c.Advance(1); err == nil {
		t.Fatal("Advance against a dead server should fail, not retry forever")
	}
}

// TestMaxClientsBackpressure serves 6 sequential-ish clients through a
// 2-slot server: everyone must eventually be served (the bound applies
// backpressure, it does not deadlock or reject).
func TestMaxClientsBackpressure(t *testing.T) {
	sys, prog := newSys(t)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go ServeWith(sys, l, ServeOptions{MaxClients: 2}) //nolint:errcheck
	t.Cleanup(func() { l.Close() })

	var wg sync.WaitGroup
	errs := make(chan error, 6)
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial(l.Addr().String())
			if err != nil {
				errs <- err
				return
			}
			defer c.Close() // frees the slot for the next waiter
			_, err = c.Evaluate(prog.Name, []int{0, 1, 2, 3})
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// replyThenClose serves one raw net/rpc exchange: it reads the request,
// writes a well-formed gob response header, then whatever body(full)
// returns for the complete gob-encoded reply body, and closes.
func replyThenClose(t *testing.T, body func(full []byte) []byte) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		dec := gob.NewDecoder(conn)
		var req rpc.Request
		if dec.Decode(&req) != nil || dec.Decode(new(EvaluateArgs)) != nil {
			return
		}
		var buf bytes.Buffer
		enc := gob.NewEncoder(&buf)
		enc.Encode(rpc.Response{ServiceMethod: req.ServiceMethod, Seq: req.Seq}) //nolint:errcheck // bytes.Buffer
		head := buf.Len()
		enc.Encode(EvaluateReply{TraceID: "0123456789abcdef", Seconds: 1})       //nolint:errcheck // bytes.Buffer
		conn.Write(append(buf.Bytes()[:head:head], body(buf.Bytes()[head:])...)) //nolint:errcheck // the client sees what arrived
	}()
	return l.Addr().String()
}

// TestTruncatedBodyIsTransient: a reply body cut off mid-read is a lost
// connection (retryable), while a malformed body stays corruption.
func TestTruncatedBodyIsTransient(t *testing.T) {
	for _, tc := range []struct {
		name      string
		body      func(full []byte) []byte
		transient bool
	}{
		{"truncated", func(full []byte) []byte { return full[:len(full)/2] }, true},
		{"empty", func([]byte) []byte { return nil }, true},
		{"garbage", func([]byte) []byte { return []byte{0x03, 0xff, 0xff, 0xff} }, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := Dial(replyThenClose(t, tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			c.SetRetryPolicy(RetryPolicy{Max: -1})
			_, err = c.Evaluate("x", []int{0})
			if err == nil || !strings.HasPrefix(err.Error(), "reading body ") {
				t.Fatalf("err = %v, want a body read error", err)
			}
			if got := isTransient(err); got != tc.transient {
				t.Errorf("isTransient(%q) = %v, want %v", err, got, tc.transient)
			}
		})
	}
}

// TestSoakShutdownMidFlight is the robustness soak: a fleet of clients
// hammers Evaluate/Schedule/Metrics while the server shuts down mid-
// traffic. Run under -race, the invariants are: the server drains and
// returns promptly; every request either succeeds or fails with a
// transport/shutdown error; nothing panics, deadlocks, or races.
func TestSoakShutdownMidFlight(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	sys, prog := newSys(t)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() {
		serveDone <- ServeWith(sys, l, ServeOptions{MaxClients: 8, DrainTimeout: 2 * time.Second})
	}()

	const clients = 6
	var ok, failed atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	pool := sys.Pool(cluster.ArchAlpha, cluster.ArchIntel)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := Dial(l.Addr().String())
			if err != nil {
				return // server may already be closing: that's the point
			}
			defer c.Close()
			// No retries: the soak wants to observe raw shutdown errors.
			c.SetRetryPolicy(RetryPolicy{Max: -1})
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				var err error
				switch n % 3 {
				case 0:
					_, err = c.Evaluate(prog.Name, []int{0, 1, 2, 3})
				case 1:
					_, err = c.Schedule(prog.Name, "rs", pool, int64(n))
				default:
					_, err = c.Metrics()
				}
				if err != nil {
					// Mid-shutdown failures must look like transport loss,
					// not corruption: anything else fails the soak.
					if !isTransient(err) {
						t.Errorf("client %d: non-transient error during shutdown: %v", i, err)
					}
					failed.Add(1)
					return
				}
				ok.Add(1)
			}
		}(i)
	}

	time.Sleep(150 * time.Millisecond) // let traffic build up
	l.Close()                          // shutdown mid-flight
	select {
	case err := <-serveDone:
		if err != nil {
			t.Fatalf("ServeWith returned %v on clean close", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("ServeWith did not drain within budget")
	}
	close(stop)
	wg.Wait()
	if ok.Load() == 0 {
		t.Fatal("soak produced no successful requests before shutdown")
	}
	t.Logf("soak: %d ok, %d failed-at-shutdown", ok.Load(), failed.Load())
}
