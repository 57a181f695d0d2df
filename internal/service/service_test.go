package service

import (
	"math"
	"net"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"cbes"
	"cbes/internal/bench"
	"cbes/internal/cluster"
	"cbes/internal/obs"
	"cbes/internal/schedule"
	"cbes/internal/workloads"
)

// startServer brings up a calibrated system with one profiled app on a
// loopback listener and returns a connected client.
func startServer(t *testing.T) (*Client, workloads.Program, *cbes.System) {
	t.Helper()
	sys := cbes.NewSystem(cluster.NewTestTopology(), cbes.Config{})
	sys.Calibrate(bench.Options{Reps: 3})
	prog := workloads.Synthetic(workloads.SyntheticConfig{
		Ranks: 4, Iterations: 8, ComputePerIter: 0.04, MsgSize: 8 << 10, MsgsPerIter: 1,
	})
	sys.MustProfile(prog, []int{0, 1, 2, 3})

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go Serve(sys, l) //nolint:errcheck // returns when the listener closes
	t.Cleanup(func() { l.Close(); sys.Close() })

	c, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c, prog, sys
}

func TestEvaluateOverRPC(t *testing.T) {
	c, prog, _ := startServer(t)
	good, err := c.Evaluate(prog.Name, []int{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if good.Seconds <= 0 {
		t.Fatalf("prediction = %v", good.Seconds)
	}
	slow, err := c.Evaluate(prog.Name, []int{4, 5, 6, 7}) // Intel nodes
	if err != nil {
		t.Fatal(err)
	}
	if slow.Seconds <= good.Seconds {
		t.Fatalf("Intel mapping %v not predicted slower than Alpha %v", slow.Seconds, good.Seconds)
	}
	if _, err := c.Evaluate("ghost", []int{0, 1, 2, 3}); err == nil {
		t.Fatal("unknown app should error over RPC")
	}
}

func TestExplainOverRPC(t *testing.T) {
	c, prog, _ := startServer(t)
	r, err := c.Explain(prog.Name, []int{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if r.Seconds <= 0 || !strings.Contains(r.Text, "predicted execution time") {
		t.Fatalf("explain reply: %+v", r)
	}
	if !strings.Contains(r.Text, "rank") {
		t.Fatalf("breakdown missing:\n%s", r.Text)
	}
}

func TestConcurrentClients(t *testing.T) {
	c1, prog, sys := startServer(t)
	// Concurrent in-flight RPCs over one connection; net/rpc multiplexes
	// them and the server's mutex serializes access to the engine.
	done := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func(i int) {
			if i%2 == 0 {
				_, err := c1.Evaluate(prog.Name, []int{0, 1, 2, 3})
				done <- err
				return
			}
			_, err := c1.Schedule(prog.Name, "rs", sys.Pool(cluster.ArchAlpha, cluster.ArchIntel), int64(i))
			done <- err
		}(i)
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestCompareOverRPC(t *testing.T) {
	c, prog, _ := startServer(t)
	reply, err := c.Compare(prog.Name, [][]int{
		{4, 5, 6, 7},
		{0, 1, 2, 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if reply.Best != 1 {
		t.Fatalf("best = %d, want 1", reply.Best)
	}
	if len(reply.Seconds) != 2 || reply.Seconds[1] >= reply.Seconds[0] {
		t.Fatalf("seconds = %v", reply.Seconds)
	}
	if _, err := c.Compare(prog.Name, nil); err == nil {
		t.Fatal("empty compare should error")
	}
}

func TestScheduleOverRPC(t *testing.T) {
	c, prog, sys := startServer(t)
	pool := sys.Pool(cluster.ArchAlpha, cluster.ArchIntel)
	reply, err := c.Schedule(prog.Name, "cs", pool, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(reply.Mapping) != prog.Ranks || reply.Predicted <= 0 {
		t.Fatalf("reply = %+v", reply)
	}
	if reply.Evaluations == 0 {
		t.Fatal("no evaluations reported")
	}
	// The fast path routinely finishes in under a millisecond; the
	// microsecond field must still carry the real (non-zero) duration.
	if reply.SchedulerMicros <= 0 {
		t.Fatalf("SchedulerMicros = %d, want > 0", reply.SchedulerMicros)
	}
	if _, err := c.Schedule(prog.Name, "quantum", pool, 3); err == nil {
		t.Fatal("unknown algorithm should error")
	}
}

// An effort past schedule.MaxEffort is refused before the search starts:
// the Schedule fails, and no evaluation is booked for it.
func TestScheduleRefusesEffortPastCap(t *testing.T) {
	c, prog, sys := startServer(t)
	evals := obs.Default().CounterVec("cbes_schedule_evals_total", "", "alg").With("cs")
	before := evals.Value()
	_, err := c.ScheduleEffort(prog.Name, "cs", sys.Pool(cluster.ArchAlpha, cluster.ArchIntel), 3, schedule.MaxEffort+1)
	if err == nil || !strings.Contains(err.Error(), "effort") {
		t.Fatalf("err = %v, want the effort cap", err)
	}
	if got := evals.Value(); got != before {
		t.Fatalf("cbes_schedule_evals_total{alg=cs} moved %d -> %d on a refused request", before, got)
	}
}

// TestErrorPaths exercises the error returns of every method over a real
// RPC round-trip: unknown applications, empty batches, bad arguments.
func TestErrorPaths(t *testing.T) {
	c, prog, sys := startServer(t)
	pool := sys.Pool(cluster.ArchAlpha)
	if _, err := c.Schedule("ghost", "cs", pool, 1); err == nil || !strings.Contains(err.Error(), "ghost") {
		t.Fatalf("schedule of unknown app: err = %v", err)
	}
	if _, err := c.Compare("ghost", [][]int{{0, 1, 2, 3}}); err == nil {
		t.Fatal("compare of unknown app should error")
	}
	if _, err := c.Compare(prog.Name, nil); err == nil || !strings.Contains(err.Error(), "no mappings") {
		t.Fatalf("empty compare: err = %v", err)
	}
	if _, err := c.Explain("ghost", []int{0, 1, 2, 3}); err == nil {
		t.Fatal("explain of unknown app should error")
	}
	if _, err := c.Advance(-0.5); err == nil || !strings.Contains(err.Error(), "negative") {
		t.Fatalf("negative advance: err = %v", err)
	}
	if _, err := c.Evaluate(prog.Name, []int{0, 1}); err == nil {
		t.Fatal("wrong-arity mapping should error")
	}
}

// TestMetricsOverRPC drives traffic through the service and then checks
// the Metrics RPC reports it in the Prometheus text format. A scrape runs
// through intercept like every other method: the first one is booked in
// the second's request counter, and each mints a root trace of its own.
func TestMetricsOverRPC(t *testing.T) {
	c, prog, sys := startServer(t)
	if _, err := c.Evaluate(prog.Name, []int{0, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Schedule(prog.Name, "cs", sys.Pool(cluster.ArchAlpha, cluster.ArchIntel), 1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Metrics(); err != nil {
		t.Fatal(err)
	}
	r, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`cbes_rpc_seconds_bucket{method="Schedule",le="+Inf"}`,
		`cbes_rpc_seconds_bucket{method="Metrics",le="+Inf"}`,
		"cbes_core_energy_evals_total",
		"cbes_sa_acceptance_rate",
		"cbes_monitor_snapshot_age_seconds",
		"cbes_schedule_requests_total",
	} {
		if !strings.Contains(r.Text, want) {
			t.Fatalf("prometheus exposition missing %q", want)
		}
	}
	for _, series := range []string{
		`cbes_rpc_requests_total{method="Evaluate"}`,
		`cbes_rpc_requests_total{method="Metrics"}`,
		"cbes_core_delta_evals_total",
	} {
		if v := sampleValue(t, r.Text, series); v < 1 {
			t.Fatalf("%s = %v, want >= 1", series, v)
		}
	}
	roots := 0
	for _, sp := range obs.DefaultTracer().Spans() {
		if sp.Name == "rpc.Metrics" && sp.Trace != "" && sp.Parent == "" {
			roots++
		}
	}
	if roots < 2 {
		t.Fatalf("%d root rpc.Metrics spans, want one per scrape", roots)
	}
}

// sampleValue returns the value of one exposition sample line.
func sampleValue(t *testing.T, text, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("%s: %v", line, err)
			}
			return f
		}
	}
	t.Fatalf("no %s sample in the exposition", series)
	return 0
}

// An older client sends Metrics args of the shape struct{ Format string },
// here asking for the JSON format that no longer exists. Gob still decodes
// them, and the answer is the Prometheus text.
func TestMetricsOldClientArgs(t *testing.T) {
	c, _, _ := startServer(t)
	var reply MetricsReply
	if err := c.conn().Call(RPCName+".Metrics", &struct{ Format string }{"json"}, &reply); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(reply.Text, "# TYPE cbes_rpc_requests_total counter") {
		t.Fatalf("old-shape Metrics args got no Prometheus text:\n%s", reply.Text)
	}
}

// TestConcurrentMetricsScrape hammers Metrics from several goroutines
// while scheduling runs — the -race guard for the scrape path.
func TestConcurrentMetricsScrape(t *testing.T) {
	c, prog, sys := startServer(t)
	pool := sys.Pool(cluster.ArchAlpha, cluster.ArchIntel)
	var wg sync.WaitGroup
	errs := make(chan error, 12)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			_, err := c.Schedule(prog.Name, "cs", pool, seed)
			errs <- err
		}(int64(i))
	}
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := c.Metrics()
			if err == nil && r.Text == "" {
				err = errEmptyScrape
			}
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

var errEmptyScrape = errEmpty{}

type errEmpty struct{}

func (errEmpty) Error() string { return "empty metrics scrape" }

// TestServeCleanClose asserts the shutdown-path contract: closing the
// listener makes Serve return nil, not the accept error.
func TestServeCleanClose(t *testing.T) {
	sys := cbes.NewSystem(cluster.NewTestTopology(), cbes.Config{})
	t.Cleanup(sys.Close)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- Serve(sys, l) }()
	time.Sleep(10 * time.Millisecond) // let Serve reach Accept
	l.Close()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve returned %v on deliberate close, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after listener close")
	}
}

func TestStatusAndAdvance(t *testing.T) {
	c, prog, _ := startServer(t)
	st, err := c.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.Cluster != "testnet" || st.Nodes != 8 {
		t.Fatalf("status = %+v", st)
	}
	found := false
	for _, a := range st.Apps {
		if a == prog.Name {
			found = true
		}
	}
	if !found {
		t.Fatalf("app %q not in %v", prog.Name, st.Apps)
	}
	adv, err := c.Advance(5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(adv.SimSeconds-st.SimSeconds-5) > 1e-9 {
		t.Fatalf("advance: %v -> %v", st.SimSeconds, adv.SimSeconds)
	}
	if _, err := c.Advance(-1); err == nil {
		t.Fatal("negative advance should error")
	}
}

// Advance rejects every step the engine cannot run, without touching the
// engine: NaN used to convert to a huge negative step, and +Inf or a huge
// finite step saturated to des.MaxTime and wrapped the clock once it had
// moved — each returned success having simulated nothing.
func TestAdvanceRejectsUnrunnableSteps(t *testing.T) {
	s, _, _ := newLocalServer(t)
	var moved AdvanceReply
	if err := s.Advance(&AdvanceArgs{Seconds: 0.5}, &moved); err != nil { // now > 0: the wrap case
		t.Fatal(err)
	}
	for _, x := range rejectedAdvances {
		var reply AdvanceReply
		if err := s.Advance(&AdvanceArgs{Seconds: x}, &reply); err == nil {
			t.Errorf("Advance(%v) = %+v, want an error", x, reply)
		}
		var st StatusReply
		if err := s.Status(&StatusArgs{}, &st); err != nil {
			t.Fatal(err)
		}
		if st.SimSeconds != moved.SimSeconds || st.Epoch != moved.Epoch {
			t.Errorf("Advance(%v) moved the clock %v -> %v (epoch %d -> %d)", x, moved.SimSeconds, st.SimSeconds, moved.Epoch, st.Epoch)
		}
	}
}

// rejectedAdvances are steps Advance must refuse: not a number, negative,
// infinite, or ending at or past the end of simulated time.
var rejectedAdvances = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), -1, -math.SmallestNonzeroFloat64,
	float64(math.MaxInt64) / 1e9, 1e10, 1e300, math.MaxFloat64,
}
