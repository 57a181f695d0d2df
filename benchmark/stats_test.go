package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	vals := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{0.5, 3}, {0.99, 5}, {0.2, 1}, {0.21, 2}, {1, 5}} {
		if got := percentile(append([]float64(nil), vals...), c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

func TestMedianAndSpread(t *testing.T) {
	odd := []float64{30, 10, 20}
	if got := median(odd); got != 20 {
		t.Errorf("median(odd) = %v, want 20", got)
	}
	if odd[0] != 30 {
		t.Error("median reordered its argument")
	}
	if got := median([]float64{1, 2, 3, 10}); got != 2.5 {
		t.Errorf("median(even) = %v, want 2.5", got)
	}
	// The slice furthest from the median (12k against 21k) sets the spread.
	if got, want := spread([]float64{21000, 21500, 12000, 21200, 21100}), (21100.0-12000)/21100; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

// quartiles must agree with Python's statistics.quantiles(v, n=4), the
// arithmetic the driver accepts the benchmark by.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v, want 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || q3 != 3 {
		t.Errorf("quartiles(1,2,3) = %v, %v, want 1, 3", q1, q3)
	}
}

func TestSliceOf(t *testing.T) {
	ops := []op{{lat: 2 * time.Millisecond, ok: true, a: 1}, {lat: 4 * time.Millisecond, ok: false, a: 2}, {lat: 6 * time.Millisecond, ok: true, a: 3}}
	s := sliceOf(ops, procSample{at: time.Second, cpu: time.Second}, procSample{at: 3 * time.Second, cpu: 2 * time.Second})
	if s.Ops != 3 || s.Failed != 1 || s.Wall != 2 || s.CPU != 1 || s.P50ms != 4 || s.P99ms != 6 || s.A != 6 {
		t.Errorf("sliceOf = %+v", s)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "latency_p50_ms", Better: "lower", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		b    []float64
		want string
	}{
		{[]float64{100, 102, 98, 101, 99}, "same"},
		{[]float64{120, 121, 119, 120, 122}, "worse"},
		{[]float64{80, 81, 79, 80, 82}, "better"},
		{[]float64{80, 125, 95, 104, 100}, "unresolved"},  // medians agree, runs do not
		{[]float64{90, 150, 112, 135, 100}, "unresolved"}, // median 12 % up, but the runs differ by more
	} {
		if got, _ := verdict(lower, steady, c.b); got != c.want {
			t.Errorf("verdict(%v) = %s, want %s", c.b, got, c.want)
		}
	}
	// An exact quantity differs between runs by seed alone: that is not noise.
	higher := metricDef{Name: "pred_within4_pct", Better: "higher", Bound: 1, Abs: true, Exact: true}
	if got, _ := verdict(higher, []float64{70, 80, 90}, []float64{68, 78, 88}); got != "worse" {
		t.Errorf("two points fewer within the band = %s, want worse", got)
	}
}
