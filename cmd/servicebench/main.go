// Command servicebench drives the CBES RPC service open-loop, for
// overload testing (DESIGN.md §15): requests fire on a fixed arrival
// schedule — arrivals do not wait for completions, so offered load stays
// constant no matter how slow the server gets.
//
// Usage:
//
//	servicebench [-addr host:port] [-openloop-rps R | -openloop-mult M]
//	             [-openloop-dur 5s] [-deadline 250ms] [-min-goodput 0]
//	             [-unprotected]
//
// Every request carries an absolute deadline; goodput counts only
// replies that return success within it (brownout replies count: a
// labeled cheaper answer beats an error). -addr targets an external
// daemon (apps discovered via Status); without it a daemon is booted
// in-process on a calibrated test topology, with admission control
// unless -unprotected. -openloop-mult (default 5) first probes the 1x
// closed-loop capacity and offers that multiple of it. With
// -min-goodput > 0 the process exits non-zero below that goodput floor.
// `make overload-smoke` runs it against a real cbesd; the steady-state
// service workloads are measured by the harness under benchmark/.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net"
	"sort"
	"sync"
	"time"

	"cbes"
	"cbes/internal/admission"
	"cbes/internal/bench"
	"cbes/internal/cluster"
	"cbes/internal/service"
	"cbes/internal/workloads"
)

func main() {
	addr := flag.String("addr", "", "target an external daemon instead of booting one in-process")
	openRPS := flag.Float64("openloop-rps", 0, "offered load in requests/sec (0 = derive from -openloop-mult)")
	openMult := flag.Float64("openloop-mult", 0, "offer this multiple of the probed 1x closed-loop capacity (0 = 5)")
	openDur := flag.Duration("openloop-dur", 5*time.Second, "wall time to sustain the offered load")
	reqDeadline := flag.Duration("deadline", 250*time.Millisecond, "per-request deadline; goodput counts completions within it")
	minGoodput := flag.Float64("min-goodput", 0, "fail unless goodput reaches this many requests/sec (0 disables)")
	unprotected := flag.Bool("unprotected", false, "boot the in-process daemon with admission control disabled (the control arm)")
	flag.Parse()
	runOpenLoop(*addr, *openRPS, *openMult, *openDur, *reqDeadline, *minGoodput, *unprotected)
}

// openConns is the connection pool size for the open-loop driver. rpc
// clients multiplex concurrent calls over one connection, so the pool
// only needs to be wide enough to spread encoding contention.
const openConns = 32

// openStats aggregates one open-loop run.
type openStats struct {
	mu        sync.Mutex
	sent      int64
	ok        int64
	good      int64 // ok AND within the deadline
	brownout  int64
	shed      int64
	deadlined int64
	breaker   int64
	budget    int64
	otherErr  int64
	lat       []float64 // successful-request latency, seconds
}

func (st *openStats) record(err error, lat time.Duration, deadline time.Duration, brownout bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.sent++
	if err == nil {
		st.ok++
		st.lat = append(st.lat, lat.Seconds())
		if lat <= deadline {
			st.good++
		}
		if brownout {
			st.brownout++
		}
		return
	}
	switch {
	case errors.Is(err, admission.ErrCircuitOpen):
		st.breaker++
	case service.IsShed(err):
		st.shed++
	case service.IsDeadlineExceeded(err):
		st.deadlined++
	case service.IsBusy(err):
		st.budget++
	default:
		st.otherErr++
	}
}

// runOpenLoop drives the fixed-arrival-schedule overload experiment and
// exits the process on a -min-goodput violation.
func runOpenLoop(addr string, rps, mult float64, dur, deadline time.Duration, minGoodput float64, unprotected bool) {
	target, app, ranks, nodes, cleanup := openTarget(addr, deadline, unprotected)
	defer cleanup()

	// A pool much larger than the 4096-entry prediction cache, so the
	// steady state is real prediction work, not cache hits — overload
	// has to be generated against the expensive path to mean anything.
	mappings := openMappings(ranks, nodes)

	if rps <= 0 {
		if mult <= 0 {
			mult = 5
		}
		r0 := probeCapacity(target, app, mappings)
		rps = r0 * mult
		fmt.Printf("probed 1x capacity %.0f rps; offering %.0fx = %.0f rps\n", r0, mult, rps)
	}
	if rps < 1 {
		rps = 1
	}
	// The single-goroutine arrival scheduler tops out well before this;
	// beyond it the "fixed schedule" would silently degrade to a burst.
	const maxOffered = 20000
	if rps > maxOffered {
		fmt.Printf("clamping offered load %.0f -> %d rps (scheduler resolution)\n", rps, maxOffered)
		rps = maxOffered
	}

	// Deadline-stamping clients with retries disabled: the experiment
	// measures the *server's* overload protection against a constant
	// offered load, so client-side throttling (retries, breakers) would
	// confound the arrival schedule. cbesctl and production callers get
	// the retry budget and breaker; the load generator must not.
	conns := make([]*service.Client, openConns)
	for i := range conns {
		c, err := service.Dial(target)
		if err != nil {
			log.Fatal(err)
		}
		c.SetCallTimeout(deadline)
		c.SetRetryPolicy(service.RetryPolicy{Max: -1})
		conns[i] = c
	}
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()

	var (
		st openStats
		wg sync.WaitGroup
	)
	interval := time.Duration(float64(time.Second) / rps)
	n := int(rps * dur.Seconds())
	start := time.Now()
	for i := 0; i < n; i++ {
		// Fixed schedule: arrival i fires at start + i*interval whether or
		// not earlier requests have completed (open loop, not closed loop).
		if d := time.Until(start.Add(time.Duration(i) * interval)); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := conns[i%len(conns)]
			t0 := time.Now()
			brownout, err := openOp(c, app, i, mappings)
			st.record(err, time.Since(t0), deadline, brownout)
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)

	sort.Float64s(st.lat)
	goodput := float64(st.good) / elapsed.Seconds()
	fmt.Printf("open-loop: offered %.0f rps for %s, deadline %s\n", rps, elapsed.Round(time.Millisecond), deadline)
	fmt.Printf("  sent %d  ok %d  goodput %.0f rps (%.1f%% of offered)  brownout %d\n",
		st.sent, st.ok, goodput, goodput/rps*100, st.brownout)
	fmt.Printf("  errors: shed %d, deadline %d, breaker-open %d, retry-budget %d, other %d\n",
		st.shed, st.deadlined, st.breaker, st.budget, st.otherErr)
	if len(st.lat) > 0 {
		fmt.Printf("  success latency: p50 %.3f ms, p99 %.3f ms\n",
			percentile(st.lat, 0.50)*1e3, percentile(st.lat, 0.99)*1e3)
	}
	if minGoodput > 0 && goodput < minGoodput {
		log.Fatalf("servicebench: goodput %.0f rps, need >= %.0f rps", goodput, minGoodput)
	}
}

// openTarget resolves the open-loop target: an external daemon (apps
// discovered via Status, ranks recovered from the workload registry) or
// a freshly booted in-process one whose admission latency target is
// coupled to the request deadline (a limiter steering p99 toward a
// target above the deadline would admit work doomed to miss it).
func openTarget(addr string, deadline time.Duration, unprotected bool) (target, app string, ranks, nodes int, cleanup func()) {
	if addr != "" {
		c, err := service.Dial(addr)
		if err != nil {
			log.Fatal(err)
		}
		defer c.Close()
		stat, err := c.Status()
		if err != nil {
			log.Fatalf("status %s: %v", addr, err)
		}
		for _, name := range stat.Apps {
			if prog, err := workloads.Lookup(name); err == nil {
				return addr, name, prog.Ranks, stat.Nodes, func() {}
			}
		}
		log.Fatalf("%s: no profiled app with a known workload among %v", addr, stat.Apps)
	}

	sys := cbes.NewSystem(cluster.NewTestTopology(), cbes.Config{})
	sys.Calibrate(bench.Options{Reps: 3})
	// A heavyweight many-phase program: each cache-miss prediction walks
	// phases × ranks proc estimates (tens of milliseconds), so serving
	// dominates RPC plumbing by orders of magnitude and overload is
	// generated against real prediction work rather than codec overhead —
	// the expensive-request regime the admission limiter exists for.
	prog := workloads.Phased(12000, 8)
	sys.MustProfile(prog, []int{0, 1, 2, 3, 4, 5, 6, 7})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	opts := service.ServeOptions{DisableAdmission: unprotected}
	if !unprotected {
		opts.Limiter = admission.New(admission.Config{TargetP99: deadline / 2})
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		service.ServeWith(sys, l, opts) //nolint:errcheck // clean close
	}()
	cleanup = func() {
		l.Close()
		<-served
		sys.Close()
	}
	return l.Addr().String(), prog.Name, 8, 8, cleanup
}

// openCompareWidth pins the open-loop Compare batch to ~2 Evaluates of
// work: wider batches cost more than the whole default deadline on the
// heavyweight open-loop app, making one op class unservable at any load
// (which would corrupt the goodput comparison, not inform it).
const openCompareWidth = 2

// openOp fires request i of the open-loop mix — 80% Evaluate, 20%
// Compare — and reports whether the reply was a brownout answer. The
// capacity probe drives the identical mix, so "1x" means one multiple
// of what this exact workload sustains.
func openOp(c *service.Client, app string, i int, mappings [][]int) (brownout bool, err error) {
	if i%5 == 4 {
		batch := make([][]int, openCompareWidth)
		for j := range batch {
			batch[j] = mappings[(i+j)%len(mappings)]
		}
		var r *service.CompareReply
		if r, err = c.Compare(app, batch); err == nil {
			brownout = r.Brownout
		}
		return brownout, err
	}
	var r *service.EvaluateReply
	if r, err = c.Evaluate(app, mappings[i%len(mappings)]); err == nil {
		brownout = r.Brownout
	}
	return brownout, err
}

// openMappings builds a pool of distinct mappings several times larger
// than the server's prediction cache, so a run cycling through it keeps
// the cache hit rate low and measures the full-prediction path.
func openMappings(ranks, nodes int) [][]int {
	rng := rand.New(rand.NewSource(11))
	mappings := make([][]int, 1<<15)
	for i := range mappings {
		mappings[i] = rng.Perm(nodes)[:ranks]
	}
	return mappings
}

// probeCapacity measures closed-loop throughput of the open-loop op mix
// — the 1x reference point the -openloop-mult overload factor scales
// from.
func probeCapacity(target, app string, mappings [][]int) float64 {
	const probeClients = 8
	probeDur := time.Second
	var (
		wg  sync.WaitGroup
		ops int64
		mu  sync.Mutex
	)
	// One synchronous warmup request first: the very first evaluation
	// against a fresh snapshot pays one-time setup that would otherwise
	// eat the probe window and understate capacity.
	if c, err := service.Dial(target); err == nil {
		c.Evaluate(app, mappings[len(mappings)-1]) //nolint:errcheck // warmup only
		c.Close()
	}
	deadl := time.Now().Add(probeDur)
	start := time.Now()
	for ci := 0; ci < probeClients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c, err := service.Dial(target)
			if err != nil {
				log.Fatal(err)
			}
			defer c.Close()
			var my int64
			// Disjoint per-client slices of the pool keep the probe on the
			// cache-miss path, like the open-loop run it calibrates.
			base := ci * (len(mappings) / probeClients)
			for i := 0; time.Now().Before(deadl); i++ {
				if _, err := openOp(c, app, base+i, mappings); err == nil {
					my++
				}
			}
			mu.Lock()
			ops += my
			mu.Unlock()
		}(ci)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	if elapsed <= 0 || ops == 0 {
		log.Fatal("capacity probe completed no requests")
	}
	return float64(ops) / elapsed
}

// percentile reads the p-quantile from sorted samples (nearest rank).
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)-1))
	return sorted[i]
}
