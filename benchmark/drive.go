package main

import (
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// op is one completed operation of the closed loop. lat covers only the
// call into the program; verification happens after the clock stops.
// a and b carry workload-specific sums (evaluations of a decision;
// events and simulated seconds of an application run).
type op struct {
	done time.Duration // completion, since the pass began
	lat  time.Duration
	ok   bool
	a, b float64
}

// procSample is what the process had consumed at a slice boundary.
type procSample struct {
	at      time.Duration
	cpu     time.Duration // user+sys of the whole process (getrusage)
	mallocs uint64
	bytes   uint64
	gcs     uint32
	gcPause time.Duration
}

func takeSample(start time.Time) procSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF with a valid pointer
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSample{
		at:      time.Since(start),
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: ms.Mallocs,
		bytes:   ms.TotalAlloc,
		gcs:     ms.NumGC,
		gcPause: time.Duration(ms.PauseTotalNs),
	}
}

// A timed phase is cut into this many slices: ten of a duration, eight
// of a fixed list. The host disturbs a run in bursts of a second or
// more (README.md, "Reference numbers"); the finer the slices, the more
// of them a burst has to cover before it reaches their median.
// listSlices is a variable so that the tests can run shorter lists.
const timeSlices = 10

var listSlices = 8

// sliceStat is one slice of the timed phase. Every timing metric the
// harness reports is the median of these per-slice values, so a single
// disturbed slice cannot move it.
type sliceStat struct {
	Ops    int     `json:"ops"`
	Failed int     `json:"failed"`
	Wall   float64 `json:"wall_s"`
	CPU    float64 `json:"cpu_s"`
	P50ms  float64 `json:"p50_ms"`
	P99ms  float64 `json:"p99_ms"`
	A      float64 `json:"a,omitempty"`
	B      float64 `json:"b,omitempty"`
}

// pass is one timed phase: its slices and the process counters at its
// first and last boundary.
type pass struct {
	slices      []sliceStat
	first, last procSample
}

func (p *pass) attempted() (n int) {
	for _, s := range p.slices {
		n += s.Ops
	}
	return n
}

func (p *pass) failed() (n int) {
	for _, s := range p.slices {
		n += s.Failed
	}
	return n
}

func (p *pass) wall() float64 { return (p.last.at - p.first.at).Seconds() }

// perSlice maps every slice through f.
func (p *pass) perSlice(f func(s sliceStat) float64) []float64 {
	out := make([]float64, len(p.slices))
	for i, s := range p.slices {
		out[i] = f(s)
	}
	return out
}

func (p *pass) cpuMsPerOp() []float64 {
	return p.perSlice(func(s sliceStat) float64 { return 1e3 * s.CPU / float64(s.Ops) })
}

func (p *pass) throughput() []float64 {
	return p.perSlice(func(s sliceStat) float64 { return float64(s.Ops-s.Failed) / s.Wall })
}

func sliceOf(ops []op, from, to procSample) sliceStat {
	st := sliceStat{Ops: len(ops), Wall: (to.at - from.at).Seconds(), CPU: (to.cpu - from.cpu).Seconds()}
	lat := make([]float64, 0, len(ops))
	for _, o := range ops {
		if !o.ok {
			st.Failed++
		}
		lat = append(lat, float64(o.lat.Nanoseconds())/1e6)
		st.A += o.a
		st.B += o.b
	}
	st.P50ms = percentile(lat, 0.50)
	st.P99ms = percentile(lat, 0.99)
	return st
}

// driveFor runs the closed loop for n×slice of wall time: each of the
// clients issues its k-th operation only after its (k-1)-th returned.
// Operations are binned by completion time against the instants the
// boundary samples were actually taken; what completes after the last
// boundary is not measured.
func driveFor(clients int, slice time.Duration, n int, fn func(c, k int) op) *pass {
	start := time.Now()
	stop := time.Duration(n) * slice
	perClient := make([][]op, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			ops := make([]op, 0, 1<<16)
			for k := 0; time.Since(start) < stop; k++ {
				o := fn(c, k)
				o.done = time.Since(start)
				ops = append(ops, o)
			}
			perClient[c] = ops
		}(c)
	}
	bounds := make([]procSample, 0, n+1)
	for i := 0; i <= n; i++ {
		time.Sleep(time.Until(start.Add(time.Duration(i) * slice)))
		bounds = append(bounds, takeSample(start))
	}
	wg.Wait()

	binned := make([][]op, n)
	for _, ops := range perClient {
		s := 0
		for _, o := range ops { // completion times rise within one client
			for s < n && o.done > bounds[s+1].at {
				s++
			}
			if s == n {
				break
			}
			if o.done > bounds[s].at {
				binned[s] = append(binned[s], o)
			}
		}
	}
	p := &pass{first: bounds[0], last: bounds[n]}
	for s := 0; s < n; s++ {
		p.slices = append(p.slices, sliceOf(binned[s], bounds[s], bounds[s+1]))
	}
	return p
}

// driveList runs a fixed list of total operations cut into n equal
// consecutive slices, so every slice holds the same operation mix and
// an exact quantity (quality, prediction error, a digest) depends on
// the seed alone. Within a slice the clients claim operations from a
// shared counter; a slice ends when its last operation has returned.
func driveList(clients, total, n int, fn func(c, i int) op) *pass {
	start := time.Now()
	per := total / n
	p := &pass{first: takeSample(start)}
	from := p.first
	for s := 0; s < n; s++ {
		ops := make([]op, per)
		var next atomic.Int64
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for {
					j := int(next.Add(1)) - 1
					if j >= per {
						return
					}
					ops[j] = fn(c, s*per+j)
				}
			}(c)
		}
		wg.Wait()
		to := takeSample(start)
		p.slices = append(p.slices, sliceOf(ops, from, to))
		from = to
	}
	p.last = from
	return p
}

// liveHeapMB forces a collection and reports what is still reachable.
// The caller keeps the system under test referenced across the call.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
