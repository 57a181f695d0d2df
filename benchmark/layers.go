package main

import (
	"runtime"
	"time"

	"cbes/internal/obs"
)

// The per-layer numbers come from two sources, both outside the
// program: spans around the calls the harness makes itself, and — for
// layers that only call each other inside the engine — the cost of one
// primitive, calibrated in a loop here, times an exact count read from
// a public counter (Mera et al., arXiv cs/0701108).

// meanNs calibrates a nanosecond-scale primitive: n back-to-back calls
// under one clock reading, since a clock read costs as much as the call.
func meanNs(n int, f func(i int)) float64 {
	f(0) // first call pays one-off lazy set-up
	t0 := time.Now()
	for i := 0; i < n; i++ {
		f(i)
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

// medianRunNs calibrates a primitive that only exists in bulk — a
// queue of events, a whole simulated program: f runs the bulk once, and
// the median of five timed runs after a warm-up is reported.
func medianRunNs(f func()) float64 {
	f()
	runs := make([]float64, 5)
	for i := range runs {
		t0 := time.Now()
		f()
		runs[i] = float64(time.Since(t0).Nanoseconds())
	}
	return median(runs)
}

// p50Us calibrates a primitive of microseconds or more: each call is
// timed on its own and the median is reported, in microseconds.
func p50Us(n int, f func(i int)) float64 { return p50sUs(n, f)[0] }

// p50sUs calibrates several primitives side by side — round i calls
// each of fs once — so that a disturbance of the host falls on all of
// them alike and their differences stay meaningful.
func p50sUs(n int, fs ...func(i int)) []float64 {
	lat := make([][]float64, len(fs))
	for i := 0; i < n; i++ {
		for j, f := range fs {
			t0 := time.Now()
			f(i)
			lat[j] = append(lat[j], float64(time.Since(t0).Nanoseconds())/1e3)
		}
	}
	out := make([]float64, len(fs))
	for j := range fs {
		out[j] = percentile(lat[j], 0.5)
	}
	return out
}

// allocsPer reports heap allocations per call of f over n calls. Only
// meaningful while nothing else in the process is running.
func allocsPer(n int, f func(i int)) float64 {
	f(0)
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		f(i)
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n)
}

// counter and gauge read the program's own public series by name; the
// registry hands back the existing series for a registered name.
func counter(name string) float64 { return float64(obs.Default().Counter(name, "").Value()) }

func gauge(name string) float64 { return obs.Default().Gauge(name, "").Value() }

func shedCount() float64 {
	v := obs.Default().CounterVec("cbes_admission_shed_total", "", "class")
	return float64(v.With("cheap").Value() + v.With("expensive").Value())
}

// counters snapshots the program's series a pass is bracketed with.
// limit is a level, not a count: since() keeps its closing value.
type counters struct {
	hits, misses, evictions, coalesced, shed, brownout, epochs, limit float64
}

func readCounters() counters {
	return counters{
		hits:      counter("cbes_predcache_hits_total"),
		misses:    counter("cbes_predcache_misses_total"),
		evictions: counter("cbes_predcache_evictions_total"),
		coalesced: counter("cbes_schedule_coalesced_total"),
		shed:      shedCount(),
		brownout:  counter("cbes_brownout_served_total"),
		epochs:    gauge("cbes_service_view_epoch"),
		limit:     gauge("cbes_admission_limit"),
	}
}

// since returns what moved between the earlier snapshot o and c.
func (c counters) since(o counters) counters {
	return counters{
		hits: c.hits - o.hits, misses: c.misses - o.misses, evictions: c.evictions - o.evictions,
		coalesced: c.coalesced - o.coalesced, shed: c.shed - o.shed, brownout: c.brownout - o.brownout,
		epochs: c.epochs - o.epochs, limit: c.limit,
	}
}

func (c counters) hitShare() float64 {
	if c.hits+c.misses == 0 {
		return 0
	}
	return c.hits / (c.hits + c.misses)
}
