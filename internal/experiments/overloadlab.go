package experiments

import (
	"fmt"
	"log"
	"math/rand"
	"net"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"cbes"
	"cbes/internal/admission"
	"cbes/internal/bench"
	"cbes/internal/cluster"
	"cbes/internal/service"
	"cbes/internal/workloads"
)

// OverloadLab is not part of the paper reproduction: it characterizes
// the service tier's overload protection (DESIGN.md §15). Two arms run
// back to back — a protected daemon (adaptive admission, deadline-aware
// shedding, brownout degradation) and an unprotected control
// (DisableAdmission) — each driven by an open-loop fixed-arrival
// workload with per-request deadlines at several multiples of the
// probed 1x closed-loop capacity. Goodput counts only replies that
// return success within their deadline; brownout replies count, since a
// labeled cheaper answer beats an error. The protected arm should hold
// goodput near the 1x baseline at 10x offered load, while the
// unprotected arm collapses.

// overloadDeadline is the per-request deadline the lab's clients stamp.
const overloadDeadline = 250 * time.Millisecond

// overloadMults are the offered-load multiples of probed 1x capacity.
var overloadMults = []float64{1, 2, 5, 10}

// OverloadRow is one (arm, multiplier) measurement.
type OverloadRow struct {
	Protected bool
	Mult      float64
	Offered   float64 // offered load, requests/sec
	Sent      int64
	OK        int64 // successful replies (any latency)
	Goodput   float64
	GoodPct   float64 // goodput as % of offered
	Brownout  int64
	Shed      int64
	DeadlineE int64
	P50ms     float64
	P99ms     float64
}

// OverloadResult aggregates both arms.
type OverloadResult struct {
	Rows []OverloadRow
}

// Overload runs the overload-protection experiment. Scale shrinks the
// per-point duration and the synthetic application's phase count;
// multipliers are fixed so the two arms stay comparable at any scale.
func Overload(cfg Config) (*OverloadResult, error) {
	dur := time.Duration(float64(8*time.Second) * cfg.Scale)
	if dur < 2*time.Second {
		dur = 2 * time.Second
	}
	phases := int(12000 * cfg.Scale)
	if phases < 3000 {
		phases = 3000
	}
	res := &OverloadResult{}
	for _, protected := range []bool{true, false} {
		rows, err := overloadArm(protected, phases, dur, cfg)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, rows...)
	}
	return res, nil
}

// overloadArm boots one daemon and sweeps the offered-load multipliers
// against it.
func overloadArm(protected bool, phases int, dur time.Duration, cfg Config) ([]OverloadRow, error) {
	sys := cbes.NewSystem(cluster.NewTestTopology(), cbes.Config{})
	defer sys.Close()
	sys.Calibrate(bench.Options{Reps: 3})
	// A heavyweight multi-phase application: each cache-miss prediction
	// walks phases × ranks proc estimates, so the overload is generated
	// against real prediction work rather than RPC plumbing.
	prog := workloads.Phased(phases, 8)
	if _, err := sys.Profile(prog, []int{0, 1, 2, 3, 4, 5, 6, 7}); err != nil {
		return nil, err
	}

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	opts := service.ServeOptions{DisableAdmission: !protected}
	if protected {
		opts.Limiter = admission.New(admission.Config{TargetP99: overloadDeadline / 2})
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		service.ServeWith(sys, l, opts) //nolint:errcheck // clean close
	}()
	defer func() {
		l.Close()
		<-served
	}()
	addr := l.Addr().String()

	// A mapping pool much larger than the server's prediction cache keeps
	// the steady state on the real prediction path, not cache hits.
	rng := rand.New(rand.NewSource(cfg.Seed))
	mappings := make([][]int, 1<<15)
	for i := range mappings {
		mappings[i] = rng.Perm(8)
	}

	r0, err := overloadProbe(addr, prog.Name, mappings)
	if err != nil {
		return nil, err
	}
	if cfg.Verbose {
		arm := "unprotected"
		if protected {
			arm = "protected"
		}
		log.Printf("overload: %s arm, 1x capacity %.0f rps", arm, r0)
	}

	// off advances across points so each one exercises fresh mappings —
	// otherwise later points replay earlier ones out of the server's
	// prediction cache and measure hit latency instead of overload.
	var rows []OverloadRow
	off := 0
	for _, mult := range overloadMults {
		row, err := overloadPoint(addr, prog.Name, mappings, off, protected, mult, r0*mult, dur)
		if err != nil {
			return nil, err
		}
		off += int(row.Sent)
		rows = append(rows, *row)
		// Let the previous point's queue fully drain before the next one.
		time.Sleep(300 * time.Millisecond)
		if cfg.Verbose {
			log.Printf("overload: %4.0fx offered %.0f rps -> goodput %.0f rps (%.0f%%)",
				mult, row.Offered, row.Goodput, row.GoodPct)
		}
	}
	return rows, nil
}

// overloadOp fires request i of the 80% Evaluate / 20% Compare mix and
// reports whether the reply was a brownout answer.
func overloadOp(c *service.Client, app string, i int, mappings [][]int) (brownout bool, err error) {
	if i%5 == 4 {
		batch := [][]int{mappings[i%len(mappings)], mappings[(i+1)%len(mappings)]}
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

// overloadProbe measures closed-loop throughput of the op mix — the 1x
// reference the multipliers scale from.
func overloadProbe(addr, app string, mappings [][]int) (float64, error) {
	const clients = 8
	// One synchronous warmup pays the first-evaluation setup outside the
	// probe window.
	if c, err := service.Dial(addr); err == nil {
		c.Evaluate(app, mappings[len(mappings)-1]) //nolint:errcheck // warmup only
		c.Close()
	}
	var (
		wg  sync.WaitGroup
		mu  sync.Mutex
		ops int64
	)
	deadl := time.Now().Add(time.Second)
	start := time.Now()
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c, err := service.Dial(addr)
			if err != nil {
				return
			}
			defer c.Close()
			var my int64
			base := ci * (len(mappings) / clients)
			for i := 0; time.Now().Before(deadl); i++ {
				if _, err := overloadOp(c, app, base+i, mappings); err == nil {
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
	if ops == 0 || elapsed <= 0 {
		return 0, fmt.Errorf("experiments: overload capacity probe completed no requests")
	}
	return float64(ops) / elapsed, nil
}

// overloadPoint sustains one offered load on a fixed arrival schedule
// and aggregates the outcome. A side goroutine advances simulated time
// once a second, so the snapshot epoch churns under load like a live
// deployment's monitor would make it.
func overloadPoint(addr, app string, mappings [][]int, off int, protected bool, mult, rps float64, dur time.Duration) (*OverloadRow, error) {
	if rps < 1 {
		rps = 1
	}
	const nConns = 16
	conns := make([]*service.Client, nConns)
	for i := range conns {
		c, err := service.Dial(addr)
		if err != nil {
			return nil, err
		}
		c.SetCallTimeout(overloadDeadline)
		c.SetRetryPolicy(service.RetryPolicy{Max: -1})
		conns[i] = c
	}
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()

	stop := make(chan struct{})
	var advWG sync.WaitGroup
	advWG.Add(1)
	go func() {
		defer advWG.Done()
		c, err := service.Dial(addr)
		if err != nil {
			return
		}
		defer c.Close()
		c.SetCallTimeout(5 * time.Second)
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				c.Advance(0.05) //nolint:errcheck // epoch churn only
			}
		}
	}()

	var (
		mu        sync.Mutex
		wg        sync.WaitGroup
		sent, ok  int64
		good      int64
		brownouts int64
		sheds     int64
		deadlines int64
		lat       []float64
	)
	interval := time.Duration(float64(time.Second) / rps)
	n := int(rps * dur.Seconds())
	start := time.Now()
	for i := 0; i < n; i++ {
		if d := time.Until(start.Add(time.Duration(i) * interval)); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := conns[i%len(conns)]
			t0 := time.Now()
			brownout, err := overloadOp(c, app, off+i, mappings)
			took := time.Since(t0)
			mu.Lock()
			defer mu.Unlock()
			sent++
			switch {
			case err == nil:
				ok++
				lat = append(lat, took.Seconds())
				if took <= overloadDeadline {
					good++
				}
				if brownout {
					brownouts++
				}
			case service.IsShed(err):
				sheds++
			case service.IsDeadlineExceeded(err):
				deadlines++
			}
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(stop)
	advWG.Wait()

	sort.Float64s(lat)
	row := &OverloadRow{
		Protected: protected,
		Mult:      mult,
		Offered:   rps,
		Sent:      sent,
		OK:        ok,
		Goodput:   float64(good) / elapsed.Seconds(),
		Brownout:  brownouts,
		Shed:      sheds,
		DeadlineE: deadlines,
	}
	if rps > 0 {
		row.GoodPct = row.Goodput / rps * 100
	}
	if len(lat) > 0 {
		row.P50ms = quantileSorted(lat, 0.50) * 1e3
		row.P99ms = quantileSorted(lat, 0.99) * 1e3
	}
	return row, nil
}

// quantileSorted reads the p-quantile from sorted samples (nearest rank).
func quantileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(p*float64(len(sorted)-1))]
}

// Render formats both arms as a table plus the acceptance summary.
func (r *OverloadResult) Render() string {
	var sb strings.Builder
	sb.WriteString("Overload protection: open-loop goodput vs offered load (250ms deadlines)\n")
	fmt.Fprintf(&sb, "%-12s %5s %9s %7s %7s %9s %7s %9s %6s %9s %9s %9s\n",
		"arm", "mult", "offered", "sent", "ok", "goodput", "good%", "brownout", "shed", "deadline", "p50_ms", "p99_ms")
	for _, row := range r.Rows {
		arm := "unprotected"
		if row.Protected {
			arm = "protected"
		}
		fmt.Fprintf(&sb, "%-12s %4.0fx %9.0f %7d %7d %9.0f %6.1f%% %9d %6d %9d %9.1f %9.1f\n",
			arm, row.Mult, row.Offered, row.Sent, row.OK, row.Goodput, row.GoodPct,
			row.Brownout, row.Shed, row.DeadlineE, row.P50ms, row.P99ms)
	}
	// Both arms compare against the healthy protected 1x goodput: the
	// unprotected arm's own 1x point sits at the open-loop instability
	// knee (offered == capacity), so it makes a degenerate baseline.
	if base := r.find(true, 1); base != nil && base.Goodput > 0 {
		if at10 := r.find(true, 10); at10 != nil {
			fmt.Fprintf(&sb, "protected goodput at 10x = %.0f%% of the 1x baseline (%.0f vs %.0f rps)\n",
				at10.Goodput/base.Goodput*100, at10.Goodput, base.Goodput)
		}
		if at10 := r.find(false, 10); at10 != nil {
			fmt.Fprintf(&sb, "unprotected goodput at 10x = %.0f%% of that baseline (%.0f vs %.0f rps)\n",
				at10.Goodput/base.Goodput*100, at10.Goodput, base.Goodput)
		}
	}
	return sb.String()
}

// find returns the row for (protected, mult), or nil.
func (r *OverloadResult) find(protected bool, mult float64) *OverloadRow {
	for i := range r.Rows {
		if r.Rows[i].Protected == protected && r.Rows[i].Mult == mult {
			return &r.Rows[i]
		}
	}
	return nil
}

// WriteCSV dumps both arms' rows.
func (r *OverloadResult) WriteCSV(dir string) error {
	var rows [][]string
	for _, row := range r.Rows {
		arm := "unprotected"
		if row.Protected {
			arm = "protected"
		}
		rows = append(rows, []string{arm, f(row.Mult), f(row.Offered),
			strconv.FormatInt(row.Sent, 10), strconv.FormatInt(row.OK, 10),
			f(row.Goodput), f(row.GoodPct), strconv.FormatInt(row.Brownout, 10),
			strconv.FormatInt(row.Shed, 10), strconv.FormatInt(row.DeadlineE, 10),
			f(row.P50ms), f(row.P99ms)})
	}
	return writeCSV(filepath.Join(dir, "overload.csv"),
		[]string{"arm", "mult", "offered_rps", "sent", "ok", "goodput_rps",
			"goodput_pct", "brownout", "shed", "deadline_err", "p50_ms", "p99_ms"}, rows)
}
