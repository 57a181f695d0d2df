package obs

import (
	"math"
	"strings"
	"testing"
)

// goldenRegistry holds one of each kind the exposition renders: unlabelled
// and labelled counters, gauges with non-finite values, a histogram
// without labels and a labelled one with two children, a family without
// help text, and label values and help text that need escaping.
func goldenRegistry() *Registry {
	r := NewRegistry()
	r.Counter("a_total", "plain counter").Add(7)
	v := r.CounterVec("b_total", "labelled counter", "method", "code")
	v.With("Evaluate", "ok").Add(3)
	v.With("Compare", "busy").Inc()
	r.Gauge("c_ratio", "").Set(0.125)
	r.Gauge("d_inf", "infinite gauge").Set(math.Inf(1))
	r.Gauge("e_nan", "not a number").Set(math.NaN())
	h := r.Histogram("f_seconds", "unlabelled histogram", []float64{0.001, 0.25, 2})
	for _, x := range []float64{0.0005, 0.1, 0.3, 5} {
		h.Observe(x)
	}
	hv := r.HistogramVec("g_seconds", "labelled histogram", []float64{1e-6, 1e-3}, "method")
	hv.With("Schedule").Observe(5e-4)
	hv.With("Evaluate").Observe(2e-7)
	hv.With("Evaluate").Observe(1)
	r.CounterVec("h_total", "help with \\ and\nnewline", "k").With("x\"y\\z\n").Inc()
	return r
}

const goldenExposition = `# HELP a_total plain counter
# TYPE a_total counter
a_total 7
# HELP b_total labelled counter
# TYPE b_total counter
b_total{method="Compare",code="busy"} 1
b_total{method="Evaluate",code="ok"} 3
# TYPE c_ratio gauge
c_ratio 0.125
# HELP d_inf infinite gauge
# TYPE d_inf gauge
d_inf +Inf
# HELP e_nan not a number
# TYPE e_nan gauge
e_nan NaN
# HELP f_seconds unlabelled histogram
# TYPE f_seconds histogram
f_seconds_bucket{le="0.001"} 1
f_seconds_bucket{le="0.25"} 2
f_seconds_bucket{le="2"} 3
f_seconds_bucket{le="+Inf"} 4
f_seconds_sum 5.4005
f_seconds_count 4
# HELP g_seconds labelled histogram
# TYPE g_seconds histogram
g_seconds_bucket{method="Evaluate",le="1e-06"} 1
g_seconds_bucket{method="Evaluate",le="0.001"} 1
g_seconds_bucket{method="Evaluate",le="+Inf"} 2
g_seconds_sum{method="Evaluate"} 1.0000002
g_seconds_count{method="Evaluate"} 2
g_seconds_bucket{method="Schedule",le="1e-06"} 0
g_seconds_bucket{method="Schedule",le="0.001"} 1
g_seconds_bucket{method="Schedule",le="+Inf"} 1
g_seconds_sum{method="Schedule"} 0.0005
g_seconds_count{method="Schedule"} 1
# HELP h_total help with \\ and\nnewline
# TYPE h_total counter
h_total{k="x\"y\\z\n"} 1
`

// TestPrometheusGolden pins the exposition byte for byte.
func TestPrometheusGolden(t *testing.T) {
	var b strings.Builder
	goldenRegistry().WritePrometheus(&b)
	if got := b.String(); got != goldenExposition {
		t.Fatalf("exposition differs from the golden text:\n%s\nwant:\n%s", got, goldenExposition)
	}
}
