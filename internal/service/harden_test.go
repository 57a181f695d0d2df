package service

import (
	"context"
	"errors"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cbes"
	"cbes/internal/bench"
	"cbes/internal/cluster"
	"cbes/internal/des"
	"cbes/internal/workloads"
)

// newSys builds a calibrated system with one profiled app (no listener).
func newSys(t *testing.T) (*cbes.System, workloads.Program) {
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
	err := s.intercept("Boom", TraceMeta{}, func(context.Context) error { panic("kaboom") })
	if err == nil {
		t.Fatal("panicking handler returned nil")
	}
	if got := err.Error(); !strings.Contains(got, "recovered panic") || !strings.Contains(got, "kaboom") {
		t.Fatalf("panic error = %q", got)
	}
	// The engine lock must have been released: the next request runs.
	if err := s.intercept("After", TraceMeta{}, func(context.Context) error { return nil }); err != nil {
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
	s.SetRequestTimeout(20 * time.Millisecond)
	s.lock <- struct{}{} // wedge the engine lock (a stuck long request)
	err := s.intercept("Evaluate", TraceMeta{}, func(context.Context) error { return nil })
	if !IsBusy(err) {
		t.Fatalf("err = %v, want busy", err)
	}
	if !errors.Is(err, ErrBusy) {
		t.Fatalf("local busy error should unwrap to ErrBusy: %v", err)
	}
	<-s.lock
	if err := s.intercept("Evaluate", TraceMeta{}, func(context.Context) error { return nil }); err != nil {
		t.Fatalf("after lock release: %v", err)
	}
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
					_, err = c.Metrics("")
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
