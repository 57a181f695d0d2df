// Command benchmark is the CBES benchmark: six named workloads, the
// end-to-end metrics a user of the service sees, and a per-layer budget
// measured from outside the program. BENCHMARK.json at the repository
// root declares it; README.md in this directory explains the choices.
//
//	bash benchmark/run.sh -workload svc_hot -seed 1 -seconds 10 -trace 0
//	bash benchmark/run.sh -workload all -seed 1 -trace 1 -out results/a
//	bash benchmark/run.sh -compare results/a results/b
//
// One invocation runs one workload in one process, so the program's
// process-wide registries (obs.Default, accuracy.Default,
// obs.DefaultRecorder) start empty; -workload all re-executes this
// binary once per workload. The last line of standard output is one
// JSON object: correct, attempted, failed, metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// runConfig is what a workload is built from. The program under test
// receives only inputs generated from seed.
type runConfig struct {
	seed    int64
	seconds float64
	clients int
}

// outcome is what one timed pass produced: its timings, the program
// counters it moved, and the numbers the seed alone determines.
type outcome struct {
	pass   *pass
	ctr    counters
	digest string
	exact  map[string]float64
}

// layerCtx is what the calibration step may compose with: the untraced
// pass of the traced run and the traced pass's spans summed by name.
type layerCtx struct {
	untraced outcome
	spans    map[string]*layerTime
}

// benchRun is one workload set up and ready to be driven.
type benchRun interface {
	// warm prepares the harness's own inputs and lets caches fill. It is
	// called once, before the first run.
	warm(seconds float64)
	// run drives one timed pass of the given length; tr == nil leaves
	// spans off.
	run(seconds float64, tr *tracer) outcome
	// layers fills m with the per-layer numbers this workload exercises.
	layers(m map[string]float64, lc layerCtx)
	// setupParts names what set-up spent where (per-layer, milliseconds).
	setupParts() map[string]float64
	close()
}

type workloadDef struct {
	name   string
	why    string
	serial bool // one client: the simulator workloads run their cases in order
	setup  func(cfg runConfig) (benchRun, error)
}

// suite is the six workloads the issue names; later changes refer to them,
// and to the metrics, by these names. BENCHMARK.json repeats the whys.
var suite = []workloadDef{
	{name: "svc_hot", setup: setupSvc("svc_hot"),
		why: "16 shared mappings, no writes, >=99% cache hits: wire, cache lock, ledger and spans do all the work; a core change must show nothing"},
	{name: "svc_cold", setup: setupSvc("svc_cold"),
		why: "mappings drawn without reuse from 8x the cache, ~0% hits: core.Predict, admission and cache eviction dominate; a wire fix must show nothing"},
	{name: "svc_churn", setup: setupSvc("svc_churn"),
		why: "svc_hot plus an epoch-bumping Advance every 20th op: cache writes, whole-epoch invalidation, view refresh and the engine lock"},
	{name: "sched_grove", setup: setupSched,
		why: "Schedule RPCs on Orange Grove cycling cs,cs,ncs,ga with distinct seeds: the search over core.Scorer is the work, wire <1%; quality is exact"},
	{name: "sim_grove", setup: setupGrove, serial: true,
		why: "long applications on a 28-node table-routed testbed under seeded load: des heap, process switches, mpisim matching; prediction vs simulated run"},
	{name: "sim_fattree5k", setup: setupFat, serial: true,
		why: "short halo exchange on a 5488-node fat tree built per run: topology build, algebraic routing and link-state memory against few events"},
}

func lookup(name string) *workloadDef {
	for i := range suite {
		if suite[i].name == name {
			return &suite[i]
		}
	}
	return nil
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run, or all")
		seed    = flag.Int64("seed", 1, "seed of every generated input")
		seconds = flag.Float64("seconds", 12, "length of the timed phase")
		trace   = flag.Int("trace", 0, "1: run untraced and traced at one-third length and report the per-layer metrics")
		out     = flag.String("out", "", "directory for the result JSON (and the Chrome trace of a traced run)")
		strict  = flag.Bool("strict", false, "exit non-zero when a slice strays more than 20% from the median")
		compare = flag.Bool("compare", false, "compare two result directories: -compare a/ b/")
	)
	flag.Parse()
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("usage: -compare a/ b/"))
		}
		worse, err := compareDirs(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
	case *name == "all":
		if err := runAll(); err != nil {
			fatal(err)
		}
	default:
		w := lookup(*name)
		if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
			fatal(fmt.Errorf("usage: -workload <%s|all> -seed n -seconds s -trace 0|1 [-out dir] [-strict]", names()))
		}
		res, tr, err := execute(w, runConfig{seed: *seed, seconds: *seconds}, *trace == 1)
		if err != nil {
			fatal(err)
		}
		if *out != "" {
			if err := res.write(*out, tr); err != nil {
				fatal(err)
			}
		}
		res.print(os.Stdout)
		if !res.Correct || (*strict && res.Noisy) {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

func names() string {
	all := make([]string, len(suite))
	for i, w := range suite {
		all[i] = w.name
	}
	return strings.Join(all, "|")
}

// runAll runs every workload in a child process of its own, passing
// the command line through with the workload name swapped in.
func runAll() error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	for _, w := range suite {
		args := []string{"-workload", w.name}
		flag.Visit(func(f *flag.Flag) {
			if f.Name != "workload" {
				args = append(args, "-"+f.Name+"="+f.Value.String())
			}
		})
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
	}
	return nil
}

// metricValue is one reported number. Spread, where present, is the
// largest relative deviation of a slice from the median of the slices.
type metricValue struct {
	Value  float64  `json:"value"`
	Unit   string   `json:"unit"`
	Spread *float64 `json:"slice_spread,omitempty"`
}

// result is the JSON written per workload and run.
type result struct {
	Workload  string                 `json:"workload"`
	Why       string                 `json:"why"`
	Trace     int                    `json:"trace"`
	Env       environment            `json:"env"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Noisy     bool                   `json:"noisy"`
	Digest    string                 `json:"digest,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
	Slices    []sliceStat            `json:"slices"`
	Spans     map[string]*layerTime  `json:"spans,omitempty"`
}

// Set-ups per batch: at least minSetups, and a cheap set-up until
// setupBudget is spent or maxSetups is reached. setup_s is the median
// over two batches. Variables so that the tests can run one of each.
var (
	minSetups   = 3
	setupBudget = time.Second
)

const (
	maxSetups   = 24
	noisyBeyond = 0.20 // a slice this far from the median marks the run noisy
)

// execute runs one workload: untraced for the end-to-end metrics, or —
// traced — an untraced and a traced pass at one-third length followed
// by the calibration of the layers' primitives.
func execute(w *workloadDef, cfg runConfig, traced bool) (*result, *tracer, error) {
	cfg.clients = runtime.NumCPU()
	if cfg.clients > 4 {
		cfg.clients = 4
	}
	if w.serial {
		cfg.clients = 1
	}
	res := &result{Workload: w.name, Why: w.why, Env: currentEnvironment(cfg.seed, cfg.clients, cfg.seconds),
		Metrics: map[string]metricValue{}}
	set := func(def metricDef, v metricValue) {
		v.Unit = def.Unit
		res.Metrics[def.Name] = v
	}

	// Set-up, and the whole of a serial workload, run on one P: the
	// simulator is one logical thread handing control between goroutines,
	// and on more Ps each hand-off may cross OS threads — on a virtualised
	// host a hypervisor round trip, which measures the host and not the
	// program (README.md, "One P").
	procs := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(procs)
	var setups []float64
	b, err := setUp(w, cfg, traced, &setups)
	if err != nil {
		return nil, nil, err
	}
	defer func() { b.close() }()
	if !w.serial {
		runtime.GOMAXPROCS(procs)
	}
	res.Env.GOMAXPROCS = runtime.GOMAXPROCS(0)
	warm := cfg.seconds / 5
	if warm > 2 {
		warm = 2
	}
	b.warm(warm)

	length := cfg.seconds
	if traced {
		res.Trace = 1
		length /= 3
	}
	before := readCounters()
	un := b.run(length, nil)
	un.ctr = readCounters().since(before)
	heap := liveHeapMB() // b, and through it the system under test, is still referenced
	res.Slices = un.pass.slices
	res.Attempted, res.Failed, res.Digest = un.pass.attempted(), un.pass.failed(), un.digest
	res.Correct = res.Failed == 0 && res.Attempted > 0
	if !traced {
		// A second batch of set-ups after the timed phase, so that a
		// disturbance of a second or two cannot cover every sample.
		b.close()
		runtime.GOMAXPROCS(1)
		if b, err = setUp(w, cfg, false, &setups); err != nil {
			return nil, nil, err
		}
	}

	user := userMetrics(un, heap, median(setups))
	sliceSpread := spread(un.pass.throughput())
	res.Noisy = sliceSpread > noisyBeyond
	if !traced {
		for _, def := range endToEnd() {
			if v, ok := user[def.Name]; ok && def.appliesTo(w.name) {
				set(def, v)
			}
		}
		return res, nil, nil
	}

	tr := newTracer(cfg.clients)
	tp := b.run(length, tr)
	res.Attempted += tp.pass.attempted()
	res.Failed += tp.pass.failed()
	// The traced pass must have computed what the untraced one did.
	res.Correct = res.Correct && tp.pass.failed() == 0 && tp.digest == un.digest
	res.Spans = tr.byName()

	layer := map[string]float64{}
	for k, v := range b.setupParts() {
		layer[k] = v
	}
	for k, v := range un.exact {
		layer[k] = v
	}
	b.layers(layer, layerCtx{untraced: un, spans: res.Spans})
	ops := float64(un.pass.attempted())
	layer["service.cache_hit_share"] = un.ctr.hitShare()
	layer["service.cache_evictions"] = un.ctr.evictions
	layer["admission.shed"] = un.ctr.shed
	layer["admission.brownout"] = un.ctr.brownout
	layer["admission.limit_end"] = un.ctr.limit
	layer["service.epochs"] = un.ctr.epochs
	layer["proc.allocs_per_op"] = float64(un.pass.last.mallocs-un.pass.first.mallocs) / ops
	layer["proc.alloc_kb_per_op"] = float64(un.pass.last.bytes-un.pass.first.bytes) / 1024 / ops
	layer["proc.gc_cycles"] = float64(un.pass.last.gcs - un.pass.first.gcs)
	layer["proc.gc_pause_ms"] = ms(un.pass.last.gcPause - un.pass.first.gcPause)
	layer["run.slice_spread"] = sliceSpread
	// Two passes seconds apart on a shared host differ in wall-clock
	// throughput by more than any span costs; CPU per operation does not.
	if with := median(tp.pass.cpuMsPerOp()); with > 0 {
		layer["trace.overhead_share"] = 1 - median(un.pass.cpuMsPerOp())/with
	}
	for _, def := range perLayer() {
		if v, ok := user[def.Name]; ok && def.appliesTo(w.name) {
			set(def, v)
		} else {
			set(def, metricValue{Value: layer[def.Name]}) // 0 where the workload does not reach the layer
		}
	}
	return res, tr, nil
}

// setUp sets the workload up repeatedly, so that the median of times
// can carry a bound: at least minSetups times, and a cheap set-up until
// setupBudget is spent; once only for a traced run, which does not
// report setup_s. All instances but the last, which it returns, are
// closed.
func setUp(w *workloadDef, cfg runConfig, once bool, times *[]float64) (benchRun, error) {
	var b benchRun
	for began, n := time.Now(), 1; ; n++ {
		if b != nil {
			b.close()
		}
		// Every set-up starts from a collected heap: whether the previous
		// one left the collector about to run must not decide its time.
		runtime.GC()
		t0 := time.Now()
		var err error
		if b, err = w.setup(cfg); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		*times = append(*times, time.Since(t0).Seconds())
		if once || n == maxSetups || (n >= minSetups && time.Since(began) > setupBudget) {
			return b, nil
		}
	}
}

// userMetrics derives the end-to-end metrics from an untraced pass.
// Every timing is the median of its per-slice values.
func userMetrics(un outcome, heapMB, setupS float64) map[string]metricValue {
	p := un.pass
	out := map[string]metricValue{}
	put := func(name string, perSlice []float64) {
		s := spread(perSlice)
		out[name] = metricValue{Value: median(perSlice), Spread: &s}
	}
	out["setup_s"] = metricValue{Value: setupS}
	out["live_heap_mb"] = metricValue{Value: heapMB}
	out["failed_share"] = metricValue{Value: float64(p.failed()) / float64(p.attempted())}
	put("throughput_ops_s", p.throughput())
	put("latency_p50_ms", p.perSlice(func(s sliceStat) float64 { return s.P50ms }))
	put("latency_p99_ms", p.perSlice(func(s sliceStat) float64 { return s.P99ms }))
	put("cpu_ms_per_op", p.cpuMsPerOp())
	rateA := p.perSlice(func(s sliceStat) float64 { return s.A / s.Wall })
	put("evals_per_s", rateA)
	put("sim_events_per_s", rateA)
	put("sim_s_per_wall_s", p.perSlice(func(s sliceStat) float64 { return s.B / s.Wall }))
	for _, name := range []string{"quality_gap_pct", "pred_err_mean_pct", "pred_within4_pct"} {
		out[name] = metricValue{Value: un.exact[name]}
	}
	return out
}

// print writes every metric by name with its unit, then — as the last
// line — the one JSON object the driver reads.
func (r *result) print(w io.Writer) {
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%s seed=%d seconds=%g trace=%d clients=%d %s/%s %s gomaxprocs=%d cpu=%q commit=%s dirty=%v\n",
		r.Workload, r.Env.Seed, r.Env.TimedSeconds, r.Trace, r.Env.Clients, r.Env.GOOS, r.Env.GOARCH,
		r.Env.GoVersion, r.Env.GOMAXPROCS, r.Env.CPUModel, r.Env.Commit, r.Env.Dirty)
	for _, name := range names {
		m := r.Metrics[name]
		line := fmt.Sprintf("  %-34s %s %s", name, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
		if m.Spread != nil {
			line += fmt.Sprintf("  (slices within %.1f%%)", 100**m.Spread)
		}
		fmt.Fprintln(w, line)
	}
	if r.Digest != "" {
		fmt.Fprintf(w, "  digest %s\n", r.Digest)
	}
	fmt.Fprintf(w, "  attempted %d failed %d correct %v noisy %v\n", r.Attempted, r.Failed, r.Correct, r.Noisy)

	type wire struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs := gated
	if r.Trace == 1 {
		defs = perLayer()
	}
	metrics := map[string]wire{}
	for _, def := range defs {
		metrics[def.Name] = wire{Value: r.Metrics[def.Name].Value, Unit: def.Unit}
	}
	last, _ := json.Marshal(map[string]any{ // maps of numbers and strings always marshal
		"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": metrics,
	})
	fmt.Fprintln(w, string(last))
}

// write stores the result as <dir>/<workload>-seed<n>.json, a traced
// run as ...layers.json beside its Chrome trace ...trace.json.
func (r *result) write(dir string, tr *tracer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", r.Workload, r.Env.Seed))
	suffix := ".json"
	if tr != nil {
		suffix = ".layers.json"
		f, err := os.Create(base + ".trace.json")
		if err != nil {
			return err
		}
		if err := tr.writeChrome(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	data, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(base+suffix, append(data, '\n'), 0o644)
}
