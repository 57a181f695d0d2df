package accuracy

import "testing"

// BenchmarkLedgerIngest measures the full Begin→Report cycle — the cost
// one served prediction plus its outcome add to the hot path. The
// harness under benchmark/ tracks Begin alone as accuracy.begin_ns.
func BenchmarkLedgerIngest(b *testing.B) {
	l := New(Config{})
	p := Prediction{App: "lu.B.8", Scheduler: "cs", AgeBucket: "<1s", Predicted: 120}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := l.Begin(p)
		if _, err := l.Report(id, 100); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLedgerBegin isolates the hot-path half: what Evaluate/Schedule
// pay per served prediction when outcomes never arrive (worst case for
// the eviction ring).
func BenchmarkLedgerBegin(b *testing.B) {
	l := New(Config{})
	p := Prediction{App: "lu.B.8", Scheduler: "cs", AgeBucket: "<1s", Predicted: 120}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Begin(p)
	}
}
