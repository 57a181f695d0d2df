package obs

import (
	"testing"
	"time"

	"cbes/internal/raceflag"
)

// The acceptance bar for instrumenting the fast path (ISSUE 3): an
// enabled counter increment — and a disabled (nil) one — must cost
// < 25 ns/op, so per-Apply accounting cannot measurably dent the ~90×
// evals/s gain of the PR 1 fast path (tracked by
// BenchmarkSASchedulingFast in the root bench_test.go; the gate is
// sched_grove's evals_per_s under benchmark/).

func BenchmarkCounterInc(b *testing.B) {
	c := NewRegistry().Counter("bench_total", "")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkCounterIncDisabled(b *testing.B) {
	var c *Counter // disabled call site: nil metric
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkCounterIncParallel(b *testing.B) {
	c := NewRegistry().Counter("bench_total", "")
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

func BenchmarkGaugeSet(b *testing.B) {
	g := NewRegistry().Gauge("bench", "")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Set(float64(i))
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("bench_seconds", "", nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(1e-4)
	}
}

func BenchmarkVecWithResolved(b *testing.B) {
	// The recommended hot-path pattern: resolve the child once.
	c := NewRegistry().CounterVec("bench_total", "", "method").With("Evaluate")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkVecWithLookup(b *testing.B) {
	// The lazy pattern: map lookup under RLock on every increment —
	// fine for RPC-rate call sites, not for the evaluation loop.
	v := NewRegistry().CounterVec("bench_total", "", "method")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v.With("Evaluate").Inc()
	}
}

func BenchmarkSpanStartEnd(b *testing.B) {
	tr := NewTracer(DefaultRingSize)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Start("bench").End()
	}
}

// TestCounterCostBudget enforces the < 25 ns/op bar in the test suite so
// a regression fails CI rather than only drifting in benchmark logs.
// Skipped under -race (atomic instrumentation inflates every op) and
// -short (timing-sensitive).
func TestCounterCostBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("timing guard skipped under the race detector")
	}
	if testing.Short() {
		t.Skip("timing guard skipped in -short mode")
	}
	const budget = 25 * time.Nanosecond
	for name, run := range map[string]func(b *testing.B){
		"enabled":  BenchmarkCounterInc,
		"disabled": BenchmarkCounterIncDisabled,
	} {
		res := testing.Benchmark(run)
		if got := res.NsPerOp(); got >= int64(budget) {
			t.Errorf("%s counter increment: %d ns/op, budget %v", name, got, budget)
		} else {
			t.Logf("%s counter increment: %d ns/op (budget %v)", name, got, budget)
		}
	}
}
