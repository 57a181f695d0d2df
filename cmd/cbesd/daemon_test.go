package main

import (
	"bufio"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"cbes/internal/cluster"
	"cbes/internal/db"
	"cbes/internal/experiments"
	"cbes/internal/netmodel"
)

// TestDaemon is the end-to-end check of cbesd and cbesctl. It builds
// both binaries, boots one daemon on the small test topology with every
// listener on an ephemeral port, and drives two legs against it:
//
//   - obs: a schedule request through cbesctl whose trace ID resolves
//     through /debug/trace, /debug/spans and `cbesctl decisions`; the
//     predicted-vs-actual loop (report → `cbesctl accuracy`, whose
//     -samples 0 listing holds the joined pair) and a run of biased
//     outcomes that flips the drift alarm; the core /metrics series,
//     non-zero, with every family's help text; and no route left for
//     the read-outs that are RPC-only.
//   - overload: the overload lab's open-loop load generator offers 8x
//     the probed capacity of a many-phase app for 3s with 250ms
//     deadlines; goodput must hold a floor, and /metrics must show the
//     limiter live and brownout engaged.
//
// The daemon boots on a store holding a corrupt model, which it must
// discard and recalibrate over. One daemon serves both legs: the obs leg's drift alarm only adds a warning
// line to /readyz, and the overload leg reads counters that the obs leg
// leaves at zero. The test ends with SIGTERM, which must stop the daemon
// cleanly within ten seconds.
func TestDaemon(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots cbesd; skipped in -short mode")
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "cbes/cmd/cbesd", "cbes/cmd/cbesctl")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	dir := t.TempDir()
	seedCorruptModel(t, dir)
	// phased.3000.8 records one segment per iteration, so each cache-miss
	// prediction walks 3000 segments × 8 ranks: heavy enough that 8x
	// offered load saturates the compute path rather than the transport.
	d := startDaemon(t, bin, "-cluster", "test", "-db", dir,
		"-apps", "lu.A.8,phased.3000.8", "-admission-target", "100ms")
	if got := d.get(t, "/healthz"); !strings.Contains(got, "ok") {
		t.Fatalf("/healthz = %q, want ok", got)
	}
	if !strings.Contains(d.logText(), "discarding stored model") {
		t.Fatal("cbesd did not discard the corrupt stored model")
	}
	t.Run("obs", d.obsLeg)
	t.Run("overload", d.overloadLeg)

	d.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // the wait below judges
	select {
	case err := <-d.exited:
		if err != nil {
			t.Errorf("cbesd exited with %v after SIGTERM", err)
		}
		if !strings.Contains(d.logText(), "shutting down") {
			t.Error("cbesd did not log its shutdown")
		}
	case <-time.After(10 * time.Second):
		t.Error("cbesd ignored SIGTERM")
	}
}

// seedCorruptModel stores a test-topology model whose curves have more
// sizes than latencies: it covers every class, but Curve.At would index
// past the latencies on the first prediction.
func seedCorruptModel(t *testing.T, dir string) {
	t.Helper()
	store, err := db.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	topo := cluster.NewTestTopology()
	m := netmodel.New(topo)
	for id := 0; id < topo.NumClasses(); id++ {
		m.SetClass(topo.ClassSignature(id), netmodel.Class{
			Curve: netmodel.Curve{Sizes: []int64{64, 1 << 10}, Lat: []float64{1e-4}},
		})
	}
	if err := store.SaveModel(m); err != nil {
		t.Fatal(err)
	}
}

func (d *daemon) obsLeg(t *testing.T) {
	// Advance past one sampling interval so the snapshot-age gauge has
	// something to report, then schedule so the scorer, SA and RPC
	// series accumulate.
	d.ctl(t, "advance", "-seconds", "1.5")
	sched := d.ctl(t, "schedule", "-app", "lu.A.8", "-alg", "cs", "-pool", "0-7")
	traceID := field(t, sched, "trace", 2)
	predID := field(t, sched, "predid", 2)
	predicted := seconds(t, field(t, sched, "predicted", 2))

	// Causal tracing: the reply's trace ID resolves to the span tree.
	tr := d.get(t, "/debug/trace?id="+traceID)
	for _, span := range []string{"rpc.Schedule", "schedule.decision", "anneal.run", "cache.lookup"} {
		if !strings.Contains(tr, `"`+span+`"`) {
			t.Errorf("/debug/trace?id=%s has no %s span", traceID, span)
		}
	}
	if !strings.Contains(tr, `"traceEvents"`) {
		t.Error("/debug/trace is not Chrome trace-event JSON")
	}
	if !strings.Contains(d.get(t, "/debug/spans?name=schedule.decision&n=5"), `"schedule.decision"`) {
		t.Error("/debug/spans?name=schedule.decision returned no schedule.decision span")
	}

	// Decision flight recorder, over RPC. The trace filter takes any hex
	// spelling of the ID.
	for _, spelling := range []string{traceID, strings.ToUpper(traceID)} {
		dec := d.ctl(t, "decisions", "-trace", spelling)
		for _, want := range []string{"trace=" + traceID, "alg=cs", "epoch=", "mapping="} {
			if !strings.Contains(dec, want) {
				t.Errorf("cbesctl decisions -trace %s lacks %q:\n%s", spelling, want, dec)
			}
		}
	}

	// Accuracy ledger: schedule → report outcome → stats.
	actual := strconv.FormatFloat(predicted*1.1, 'f', 6, 64)
	if rep := d.ctl(t, "report", "-id", predID, "-actual", actual); !strings.Contains(rep, "joined "+predID) {
		t.Errorf("report did not join prediction %s:\n%s", predID, rep)
	}
	acc := d.ctl(t, "accuracy")
	if n, err := strconv.Atoi(field(t, acc, "joined", 2)); err != nil || n < 1 {
		t.Errorf("accuracy joined = %d (%v), want >= 1:\n%s", n, err, acc)
	}
	if !strings.Contains(acc, "calibration : OK") {
		t.Errorf("accuracy not calibrated after one accurate outcome:\n%s", acc)
	}
	// Every resident pair is listed with its predicted and actual seconds.
	all := d.ctl(t, "accuracy", "-samples", "0")
	wantActual := "actual=" + strconv.FormatFloat(seconds(t, actual), 'f', 3, 64) + "s"
	for i, want := range map[int]string{3: "predicted=" + field(t, sched, "predicted", 2), 4: wantActual} {
		if got := field(t, all, predID, i); got != want {
			t.Errorf("accuracy -samples 0 lists %s with %s, want %s", predID, got, want)
		}
	}
	accMetrics := d.ctl(t, "metrics", "-prefix", "cbes_accuracy")
	if !strings.Contains(accMetrics, "cbes_accuracy_joined_total") {
		t.Error("metrics -prefix cbes_accuracy lacks cbes_accuracy_joined_total")
	}
	if strings.Contains(accMetrics, "cbes_rpc_requests_total") {
		t.Error("metrics -prefix cbes_accuracy leaked other families")
	}

	// Drift alarm: a run of badly biased outcomes flips calibration.
	for i := 0; i < 20; i++ {
		ev := d.ctl(t, "evaluate", "-app", "lu.A.8", "-mapping", "0-7")
		p := seconds(t, field(t, ev, "predicted", 3))
		d.ctl(t, "report", "-id", field(t, ev, "predid", 2), "-actual", strconv.FormatFloat(p*1.8, 'f', 6, 64))
	}
	if acc := d.ctl(t, "accuracy"); !strings.Contains(acc, "calibration : DRIFT") {
		t.Errorf("drift alarm did not flip after 20 biased outcomes:\n%s", acc)
	}
	if !strings.Contains(d.get(t, "/readyz"), "warning") {
		t.Error("/readyz carries no drift warning")
	}
	metrics := d.get(t, "/metrics")
	if !regexp.MustCompile(`(?m)^cbes_calibration_ok 0`).MatchString(metrics) {
		t.Error("cbes_calibration_ok is not 0 while drifted")
	}
	requireNonzero(t, metrics,
		`cbes_rpc_requests_total\{method="Schedule"\}`,
		`cbes_rpc_seconds_bucket\{method="Schedule",le="\+Inf"\}`,
		`cbes_core_energy_evals_total`,
		`cbes_core_delta_evals_total`,
		`cbes_sa_acceptance_rate`,
		`cbes_monitor_snapshot_age_seconds`,
		`cbes_schedule_requests_total\{alg="cs"\}`,
		`cbes_trace_ring_spans`,
		`cbes_decisions_recorded_total`,
		`cbes_decision_records`,
		`cbes_accuracy_predictions_total`,
		`cbes_accuracy_joined_total`,
		`cbes_accuracy_abs_err_ratio_bucket`,
	)
	if !strings.Contains(d.ctl(t, "metrics"), `cbes_rpc_requests_total{method="Metrics"}`) {
		t.Error("cbesctl metrics lacks the RPC counters of its own method")
	}
	requireHelp(t, metrics)
	for _, path := range []string{"/debug/vars", "/debug/decisions", "/debug/accuracy"} {
		if code := d.status(t, path); code != http.StatusNotFound {
			t.Errorf("GET %s: %d, want 404", path, code)
		}
	}
}

func (d *daemon) overloadLeg(t *testing.T) {
	const app = "phased.3000.8"
	mappings := experiments.OverloadMappings(8, 1)
	r0, err := experiments.OverloadProbe(d.rpc, app, mappings)
	if err != nil {
		t.Fatal(err)
	}
	row, err := experiments.OverloadPoint(d.rpc, app, mappings, 0, 8*r0, 3*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("1x %.0f rps; offered %.0f rps: sent %d ok %d goodput %.0f rps brownout %d shed %d deadline %d p50 %.1fms p99 %.1fms",
		r0, row.Offered, row.Sent, row.OK, row.Goodput, row.Brownout, row.Shed, row.DeadlineE, row.P50ms, row.P99ms)
	if row.Sent == 0 {
		t.Fatal("the open-loop load generator sent no requests")
	}
	if row.Goodput < 20 {
		t.Errorf("goodput %.0f rps at 8x offered load, want >= 20", row.Goodput)
	}
	metrics := d.get(t, "/metrics")
	requireNonzero(t, metrics,
		`cbes_admission_limit`,
		`cbes_brownout_served_total`,
		`cbes_core_predict_brownout_total`,
	)
	// A protected daemon turns would-be sheds into brownout answers, so
	// the shed counter may stay 0; the family must still be exported.
	if !regexp.MustCompile(`(?m)^cbes_admission_shed_total`).MatchString(metrics) {
		t.Error("cbes_admission_shed_total missing from /metrics")
	}
	d.get(t, "/readyz") // still answering 200 after the storm
}

// daemon is one running cbesd and the addresses it printed.
type daemon struct {
	bin      string
	cmd      *exec.Cmd
	rpc      string // host:port of the RPC listener
	debugURL string // http://host:port of the debug endpoint
	exited   chan error

	mu  sync.Mutex
	log strings.Builder
}

var (
	servingRe = regexp.MustCompile(`cbesd: serving .* on (\S+), apps`)
	debugRe   = regexp.MustCompile(`debug endpoint on (http://\S+)`)
)

// startDaemon boots cbesd with both listeners on ephemeral loopback
// ports and waits for it to print their addresses. The daemon's output
// is kept and logged if the test fails; cleanup kills it if still alive.
func startDaemon(t *testing.T, bin string, args ...string) *daemon {
	t.Helper()
	d := &daemon{bin: bin, exited: make(chan error, 1)}
	d.cmd = exec.Command(filepath.Join(bin, "cbesd"),
		append([]string{"-listen", "127.0.0.1:0", "-debug-listen", "127.0.0.1:0"}, args...)...)
	pr, pw := io.Pipe()
	d.cmd.Stdout, d.cmd.Stderr = pw, pw
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() {
		err := d.cmd.Wait()
		pw.Close()
		d.exited <- err
	}()
	t.Cleanup(func() {
		d.cmd.Process.Kill() //nolint:errcheck // already gone on the clean path
		if t.Failed() {
			t.Logf("cbesd output:\n%s", d.logText())
		}
	})

	ready := make(chan struct{})
	go func() {
		sc := bufio.NewScanner(pr)
		for sc.Scan() {
			line := sc.Text()
			d.mu.Lock()
			d.log.WriteString(line + "\n")
			if m := debugRe.FindStringSubmatch(line); m != nil {
				d.debugURL = m[1]
			}
			if m := servingRe.FindStringSubmatch(line); m != nil {
				d.rpc = m[1]
				close(ready)
			}
			d.mu.Unlock()
		}
	}()
	// Boot calibrates the topology and profiles every app.
	select {
	case <-ready:
	case err := <-d.exited:
		t.Fatalf("cbesd exited during boot: %v", err)
	case <-time.After(2 * time.Minute):
		t.Fatal("cbesd did not start serving within 2m")
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.debugURL == "" {
		t.Fatal("cbesd printed no debug endpoint address")
	}
	return d
}

func (d *daemon) logText() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.log.String()
}

// ctl runs cbesctl against the daemon and returns its output; a non-zero
// exit fails the test.
func (d *daemon) ctl(t *testing.T, args ...string) string {
	t.Helper()
	out, err := exec.Command(filepath.Join(d.bin, "cbesctl"), append([]string{"-addr", d.rpc}, args...)...).CombinedOutput()
	if err != nil {
		t.Fatalf("cbesctl %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	return string(out)
}

// status fetches a debug-endpoint path and returns its status code.
func (d *daemon) status(t *testing.T, path string) int {
	t.Helper()
	resp, err := http.Get(d.debugURL + path)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// get fetches a debug-endpoint path; anything but 200 fails the test.
func (d *daemon) get(t *testing.T, path string) string {
	t.Helper()
	resp, err := http.Get(d.debugURL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s\n%s", path, resp.Status, body)
	}
	return string(body)
}

// field returns whitespace field i (0-based) of the first output line
// whose first field is key.
func field(t *testing.T, out, key string, i int) string {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if fs := strings.Fields(line); len(fs) > i && fs[0] == key {
			return fs[i]
		}
	}
	t.Fatalf("no %q line with %d fields in:\n%s", key, i+1, out)
	return ""
}

// seconds parses a cbesctl duration such as "12.345s".
func seconds(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "s"), 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// requireHelp checks that every family the exposition declares with
// # TYPE also carries a non-empty # HELP line.
func requireHelp(t *testing.T, metrics string) {
	t.Helper()
	help := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^# HELP (\S+) \S`).FindAllStringSubmatch(metrics, -1) {
		help[m[1]] = true
	}
	types := regexp.MustCompile(`(?m)^# TYPE (\S+) `).FindAllStringSubmatch(metrics, -1)
	if len(types) == 0 {
		t.Error("/metrics declares no families")
	}
	for _, m := range types {
		if !help[m[1]] {
			t.Errorf("metric family %s has no help text", m[1])
		}
	}
}

// requireNonzero checks that each series pattern matches at least one
// exposition sample whose value is not 0.
func requireNonzero(t *testing.T, metrics string, series ...string) {
	t.Helper()
	for _, s := range series {
		re := regexp.MustCompile(`(?m)^` + s + `.* (\S+)$`)
		found, nonzero := false, false
		for _, m := range re.FindAllStringSubmatch(metrics, -1) {
			found = true
			if v, err := strconv.ParseFloat(m[1], 64); err == nil && v != 0 {
				nonzero = true
			}
		}
		switch {
		case !found:
			t.Errorf("series %s missing from /metrics", s)
		case !nonzero:
			t.Errorf("series %s is zero in /metrics", s)
		}
	}
}
