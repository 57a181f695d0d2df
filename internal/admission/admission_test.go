package admission

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

func mustAcquire(t *testing.T, l *Limiter, class Class) *Ticket {
	t.Helper()
	tk, err := l.Acquire(context.Background(), class)
	if err != nil {
		t.Fatalf("Acquire(%v): %v", class, err)
	}
	if tk == nil {
		t.Fatalf("Acquire(%v): nil ticket from non-nil limiter", class)
	}
	return tk
}

func TestNilLimiterAdmitsEverything(t *testing.T) {
	var l *Limiter
	tk, err := l.Acquire(context.Background(), Expensive)
	if err != nil || tk != nil {
		t.Fatalf("nil limiter Acquire = (%v, %v), want (nil, nil)", tk, err)
	}
	l.Release(tk) // must not panic
	if l.Limit() != 0 || l.Inflight() != 0 || l.ShedRatio() != 0 {
		t.Fatal("nil limiter accessors should report zero")
	}
}

func TestAdmitUpToLimitThenShed(t *testing.T) {
	l := New(Config{Initial: 2, Min: 1, Max: 4, MaxQueue: -1})
	a := mustAcquire(t, l, Expensive)
	b := mustAcquire(t, l, Expensive)
	if _, err := l.Acquire(context.Background(), Expensive); !errors.Is(err, ErrShed) {
		t.Fatalf("over-limit expensive with no queue: err = %v, want ErrShed", err)
	}
	l.Release(a)
	c := mustAcquire(t, l, Expensive)
	l.Release(b)
	l.Release(c)
	if got := l.Inflight(); got != 0 {
		t.Fatalf("inflight after releases = %d, want 0", got)
	}
}

func TestCheapBrownoutLaneAndPriorityShed(t *testing.T) {
	l := New(Config{Initial: 1, Min: 1, Max: 1, MaxQueue: -1})
	exp := mustAcquire(t, l, Expensive) // fills the limit

	// The cheap class borrows exactly one slot past the limit...
	cheap := mustAcquire(t, l, Cheap)
	// ...but the lane is serial: a second cheap request sheds.
	if _, err := l.Acquire(context.Background(), Cheap); !errors.Is(err, ErrShed) {
		t.Fatalf("second cheap over limit: err = %v, want ErrShed", err)
	}
	l.Release(cheap)
	l.Release(exp)
}

func TestExpensiveQueueHandoffFIFO(t *testing.T) {
	l := New(Config{Initial: 1, Min: 1, Max: 1, MaxQueue: 4})
	first := mustAcquire(t, l, Expensive)

	order := make(chan int, 2)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 1; i <= 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i == 2 {
				<-start // enqueue second waiter strictly after the first
			}
			tk := mustAcquire(t, l, Expensive)
			order <- i
			if i == 1 {
				close(start)
			}
			time.Sleep(5 * time.Millisecond)
			l.Release(tk)
		}(i)
	}
	// Wait until the first waiter is queued before releasing.
	deadline := time.Now().Add(time.Second)
	for l.queueLen() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	l.Release(first)
	wg.Wait()
	if a, b := <-order, <-order; a != 1 || b != 2 {
		t.Fatalf("hand-off order = %d,%d, want 1,2", a, b)
	}
}

func (l *Limiter) queueLen() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.queue)
}

func TestQueueFullSheds(t *testing.T) {
	l := New(Config{Initial: 1, Min: 1, Max: 1, MaxQueue: 1})
	tk := mustAcquire(t, l, Expensive)
	done := make(chan error, 1)
	go func() {
		w, err := l.Acquire(context.Background(), Expensive)
		if err == nil {
			l.Release(w)
		}
		done <- err
	}()
	deadline := time.Now().Add(time.Second)
	for l.queueLen() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if _, err := l.Acquire(context.Background(), Expensive); !errors.Is(err, ErrShed) {
		t.Fatalf("queue-full expensive: err = %v, want ErrShed", err)
	}
	l.Release(tk)
	if err := <-done; err != nil {
		t.Fatalf("queued waiter: %v", err)
	}
}

func TestQueuedWaiterHonorsContext(t *testing.T) {
	l := New(Config{Initial: 1, Min: 1, Max: 1, MaxQueue: 4})
	tk := mustAcquire(t, l, Expensive)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := l.Acquire(ctx, Expensive); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued Acquire after ctx expiry: err = %v, want DeadlineExceeded", err)
	}
	l.Release(tk)
	if got := l.Inflight(); got != 0 {
		t.Fatalf("inflight after abandoned waiter = %d, want 0 (slot leaked)", got)
	}
	// The slot must still be usable.
	l.Release(mustAcquire(t, l, Expensive))
}

func TestExpiredContextFailsFast(t *testing.T) {
	l := New(Config{Initial: 8})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := l.Acquire(ctx, Expensive); !errors.Is(err, context.Canceled) {
		t.Fatalf("Acquire with cancelled ctx: err = %v, want Canceled", err)
	}
	if got := l.Inflight(); got != 0 {
		t.Fatalf("inflight = %d, want 0", got)
	}
}

func TestAIMDDecreaseOnSlowWindow(t *testing.T) {
	l := New(Config{Initial: 100, Min: 2, Max: 200, Window: 4, TargetP99: time.Millisecond})
	// Four slow completions: backdate ticket start times so the window
	// p99 far exceeds the 1ms target. The decrease is proportional to
	// the overshoot but clamped at halving, and an overshoot this large
	// (1s vs 1ms) hits the clamp.
	for i := 0; i < 4; i++ {
		tk := mustAcquire(t, l, Expensive)
		tk.start = time.Now().Add(-time.Second)
		l.Release(tk)
	}
	if got := l.Limit(); got != 50 {
		t.Fatalf("limit after slow window = %d, want 50 (100 × 0.5 clamp)", got)
	}
}

func TestAIMDDecreaseProportional(t *testing.T) {
	// A mild overshoot decreases gently, not by the 0.5 clamp: 180ms
	// observations land in the (100ms, 200ms] bucket, whose 200ms upper
	// bound against a 150ms target scales the limit by 150/200 = 0.75.
	l := New(Config{Initial: 100, Min: 2, Max: 200, Window: 4, TargetP99: 150 * time.Millisecond})
	for i := 0; i < 4; i++ {
		tk := mustAcquire(t, l, Expensive)
		tk.start = time.Now().Add(-180 * time.Millisecond)
		l.Release(tk)
	}
	if got := l.Limit(); got < 70 || got > 80 {
		t.Fatalf("limit after mild overshoot = %d, want ≈ 75 (100 × 150ms/200ms)", got)
	}
}

func TestAIMDIncreaseOnFastWindow(t *testing.T) {
	l := New(Config{Initial: 10, Min: 2, Max: 200, Window: 4, TargetP99: time.Hour})
	for i := 0; i < 4; i++ {
		l.Release(mustAcquire(t, l, Expensive))
	}
	if got := l.Limit(); got != 11 {
		t.Fatalf("limit after fast window = %d, want 11 (10 + 1)", got)
	}
}

func TestAIMDClamps(t *testing.T) {
	l := New(Config{Initial: 2, Min: 2, Max: 3, Window: 1, TargetP99: time.Millisecond})
	tk := mustAcquire(t, l, Expensive)
	tk.start = time.Now().Add(-time.Second)
	l.Release(tk)
	if got := l.Limit(); got != 2 {
		t.Fatalf("limit decreased below Min: %d, want 2", got)
	}
	fast := New(Config{Initial: 3, Min: 2, Max: 3, Window: 1, TargetP99: time.Hour})
	fast.Release(mustAcquire(t, fast, Expensive))
	if got := fast.Limit(); got != 3 {
		t.Fatalf("limit increased above Max: %d, want 3", got)
	}
}

func TestCheapCompletionsDoNotFeedController(t *testing.T) {
	l := New(Config{Initial: 10, Min: 2, Max: 200, Window: 2, TargetP99: time.Hour})
	// Many cheap completions never fill the expensive window.
	for i := 0; i < 10; i++ {
		l.Release(mustAcquire(t, l, Cheap))
	}
	if got := l.Limit(); got != 10 {
		t.Fatalf("limit moved on cheap-only traffic: %d, want 10", got)
	}
}

func TestConcurrentAcquireRelease(t *testing.T) {
	l := New(Config{Initial: 4, Min: 2, Max: 8, Window: 16, MaxQueue: 64})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				class := Expensive
				if (g+i)%3 == 0 {
					class = Cheap
				}
				ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
				tk, err := l.Acquire(ctx, class)
				if err == nil && tk != nil {
					l.Release(tk)
				}
				cancel()
			}
		}(g)
	}
	wg.Wait()
	if got := l.Inflight(); got != 0 {
		t.Fatalf("inflight after churn = %d, want 0", got)
	}
}
