package main

import (
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"cbes"
	"cbes/internal/bench"
	"cbes/internal/cluster"
	"cbes/internal/core"
	"cbes/internal/des"
	"cbes/internal/monitor"
	"cbes/internal/mpisim"
	"cbes/internal/netmodel"
	"cbes/internal/profile"
	"cbes/internal/simnet"
	"cbes/internal/trace"
	"cbes/internal/vcluster"
	"cbes/internal/workloads"
)

// simRun is what one simulated application run leaves behind: the
// triple the digest is made of and the exact counts the composition
// check multiplies primitive costs by.
type simRun struct {
	elapsed         des.Time
	messages, bytes uint64
	events          uint64
	records         int     // sends and receives the trace recorded
	errPct          float64 // |S_M − simulated| ÷ simulated, sim_grove only
}

// simTotals folds the runs of a pass of ops operations into its digest
// and exact counts.
func simTotals(runs []simRun, ops int) (digest string, exact map[string]float64) {
	h := sha256.New()
	var events, messages, bytes, records float64
	for _, r := range runs {
		fmt.Fprintf(h, "%d %d %d\n", r.elapsed, r.messages, r.bytes)
		events += float64(r.events)
		messages += float64(r.messages)
		bytes += float64(r.bytes)
		records += float64(r.records)
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8]), map[string]float64{
		"des.events": events, "des.events_per_op": events / float64(ops),
		"simnet.messages": messages, "simnet.bytes": bytes, "mpisim.trace_records": records,
	}
}

func recordsOf(tr *trace.Trace) (n int) {
	for _, seg := range tr.Segments {
		for _, p := range seg.Procs {
			for _, g := range p.Sends {
				n += g.Count
			}
			for _, g := range p.Recvs {
				n += g.Count
			}
		}
	}
	return n
}

// groveBench is sim_grove: long applications on the small table-routed
// testbed, each predicted (eq. 4) and then run on the simulator under
// seeded background load. It is also the accuracy workload.
type groveBench struct {
	cfg      runConfig
	topo     *cluster.Topology
	model    *netmodel.Model
	apps     []workloads.Program
	profiles []*profile.Profile
	parts    map[string]float64
	sys      *cbes.System // the pass in progress; kept for live_heap_mb
}

const groveCyclesPerSecond = 2.5 // a cycle takes ~0.4 s on the reference box

func setupGrove(cfg runConfig) (benchRun, error) {
	b := &groveBench{cfg: cfg, topo: cluster.NewOrangeGrove(), parts: map[string]float64{}}
	b.apps = []workloads.Program{
		workloads.LU(workloads.ClassA, 8), workloads.Aztec(8), workloads.CG(workloads.ClassA, 8), workloads.Sweep3D(8),
	}
	sys := cbes.NewSystem(b.topo, cbes.Config{})
	defer sys.Close()
	t0 := time.Now()
	b.model = sys.Calibrate(bench.Options{})
	b.parts["bench.calibrate_ms"] = ms(time.Since(t0))
	t0 = time.Now()
	for _, app := range b.apps {
		p, err := sys.Profile(app, b.topo.NodesByArch(cluster.ArchAlpha))
		if err != nil {
			return nil, err
		}
		b.profiles = append(b.profiles, p)
	}
	b.parts["profile.pipeline_ms"] = ms(time.Since(t0)) / float64(len(b.apps))
	return b, nil
}

func (b *groveBench) setupParts() map[string]float64 { return b.parts }

func (b *groveBench) close() {
	if b.sys != nil {
		b.sys.Close()
	}
}

// fresh starts every pass from the same state — time zero, idle nodes,
// an empty monitor history — so a traced and an untraced pass of one
// seed simulate exactly the same thing.
func (b *groveBench) fresh() (*cbes.System, error) {
	b.close()
	b.sys = cbes.NewSystem(b.topo, cbes.Config{Seed: b.cfg.seed, Monitor: monitor.Config{Seed: b.cfg.seed}})
	if err := b.sys.UseModel(b.model); err != nil {
		return nil, err
	}
	for _, p := range b.profiles {
		b.sys.RegisterProfile(p)
	}
	return b.sys, nil
}

// one runs case i on sys: seeded loads, five simulated seconds for the
// monitor to see them, the prediction, then the run it predicts.
func (b *groveBench) one(tb *spanBuf, root int, sys *cbes.System, i int, loaded *[]int, out *simRun) bool {
	id := int64(i)
	app := b.apps[i%len(b.apps)]
	rng := rand.New(rand.NewSource(b.cfg.seed*1_000_000 + id))
	nodes := b.topo.NumNodes()
	mapping := core.Mapping(rng.Perm(nodes)[:app.Ranks])
	busy := rng.Perm(nodes)[:rng.Intn(7)]
	avail := make([]float64, len(busy))
	for j := range avail {
		avail[j] = 0.3 + 0.6*rng.Float64()
	}
	e0, m0, b0 := sys.Eng.Processed(), sys.Net.Messages(), sys.Net.Bytes()

	sp := tb.begin("sim.loads", root, id)
	prev := *loaded
	sys.Eng.Schedule(0, func() {
		for _, n := range prev {
			sys.VC.SetAvailability(n, 1)
		}
		for j, n := range busy {
			sys.VC.SetAvailability(n, avail[j])
		}
	})
	*loaded = busy
	sys.Advance(5 * des.Second)
	tb.end(sp)

	sp = tb.begin("core.predict", root, id)
	pred, err := sys.Predict(app.Name, mapping)
	tb.end(sp)
	if err != nil {
		return false
	}

	sp = tb.begin("mpisim.run", root, id)
	res := sys.Run(app, mapping)
	tb.end(sp)

	*out = simRun{
		elapsed: res.Elapsed, messages: sys.Net.Messages() - m0, bytes: sys.Net.Bytes() - b0,
		events: sys.Eng.Processed() - e0, records: recordsOf(res.Trace),
	}
	if res.Elapsed <= 0 || !usable(pred.Seconds) {
		return false
	}
	out.errPct = 100 * math.Abs(pred.Seconds-res.Elapsed.Seconds()) / res.Elapsed.Seconds()
	return true
}

// cycle is one operation of sim_grove: the four applications once each.
// A single application run would make the latency distribution four
// separate clusters (2 ms to 260 ms) with the median falling between
// two of them; a cycle has one.
func (b *groveBench) cycle(tb *spanBuf, sys *cbes.System, k int, loaded *[]int, runs []simRun) op {
	root := tb.begin("op", -1, int64(k))
	defer tb.end(root)
	t0 := time.Now()
	o := op{ok: true}
	for i := k * len(b.apps); i < (k+1)*len(b.apps); i++ {
		o.ok = b.one(tb, root, sys, i, loaded, &runs[i]) && o.ok
		o.a += float64(runs[i].events)
		o.b += runs[i].elapsed.Seconds()
	}
	o.lat = time.Since(t0)
	return o
}

func (b *groveBench) warm(float64) {
	if sys, err := b.fresh(); err == nil {
		var loaded []int
		b.cycle(nil, sys, 0, &loaded, make([]simRun, len(b.apps)))
	}
}

func (b *groveBench) run(seconds float64, tr *tracer) outcome {
	cycles := roundTo(groveCyclesPerSecond*seconds, listSlices)
	sys, err := b.fresh()
	runs := make([]simRun, cycles*len(b.apps))
	var loaded []int
	p := driveList(1, cycles, listSlices, func(c, k int) op {
		if err != nil {
			return op{}
		}
		return b.cycle(tr.buf(c), sys, k, &loaded, runs)
	})
	digest, exact := simTotals(runs, cycles)
	within, errs := 0, make([]float64, 0, len(runs))
	for _, r := range runs {
		errs = append(errs, r.errPct)
		if r.errPct <= 4 {
			within++
		}
	}
	exact["pred_err_mean_pct"] = mean(errs)
	exact["pred_within4_pct"] = 100 * float64(within) / float64(len(runs))
	return outcome{pass: p, digest: digest, exact: exact}
}

func (b *groveBench) layers(m map[string]float64, lc layerCtx) {
	alphas := b.topo.NodesByArch(cluster.ArchAlpha)
	simLayers(m, lc, b.topo, alphas, "simnet.deliver_ns_grove")
	m["cluster.build_ms"] = p50Us(20, func(int) { cluster.NewOrangeGrove() }) / 1e3
	m["cluster.build_mb"] = buildMB(func() { cluster.NewOrangeGrove() })

	// profile.from_trace_ms: the analysis half of the profiling
	// pipeline, on the trace of one LU run.
	eng := des.NewEngine()
	res := mpisim.Run(vcluster.New(eng, b.topo), simnet.New(eng, b.topo), alphas, b.apps[0].Body, b.apps[0].Options())
	eng.Shutdown()
	speeds := bench.MeasureArchSpeeds(b.topo, b.apps[0].ArchEff, 0.5)
	m["profile.from_trace_ms"] = p50Us(20, func(int) { _, _ = profile.FromTrace(res.Trace, b.topo, speeds) }) / 1e3
	m["monitor.snapshot_ns"] = meanNs(2000, func(int) { b.sys.Monitor.Snapshot() })
	mapping := core.Mapping(alphas)
	m["core.predict_us"] = p50Us(300, func(int) { _, _ = b.sys.Predict(b.apps[0].Name, mapping) })
}

// fatBench is sim_fattree5k: a short application on a 5 488-node fat
// tree that every run builds afresh, so topology construction,
// algebraic routing and per-link state weigh against few events.
type fatBench struct {
	cfg   runConfig
	topo  *cluster.Topology // built once in set-up: calibration target
	parts map[string]float64
	last  fatRun // the latest run's world; kept for live_heap_mb
}

type fatRun struct {
	topo *cluster.Topology
	eng  *des.Engine
	vc   *vcluster.Cluster
	net  *simnet.Network
}

const (
	fatRanks           = 256
	fatCycle           = 4    // runs per operation
	fatCyclesPerSecond = 12.5 // ~18 ms a run on the reference box
)

var (
	fatSpec = cluster.FatTreeSpec{K: 28, Archs: []cluster.Arch{cluster.ArchAlpha, cluster.ArchIntel}}
	fatHalo = workloads.Halo2DConfig{Ranks: fatRanks, Iterations: 1, MsgSize: 16 << 10, ComputePerIter: 0.002}
)

func setupFat(cfg runConfig) (benchRun, error) {
	b := &fatBench{cfg: cfg, topo: cluster.NewFatTree(fatSpec), parts: map[string]float64{}}
	if n := b.topo.NumNodes(); n != 5488 {
		return nil, fmt.Errorf("fat tree k=28 has %d nodes, want 5488", n)
	}
	return b, nil
}

func (b *fatBench) setupParts() map[string]float64 { return b.parts }
func (b *fatBench) close()                         {}

// one builds the fat tree and runs the halo exchange on it once, on the
// spread that seed and i determine.
func (b *fatBench) one(tb *spanBuf, root, i int, out *simRun) bool {
	id := int64(i)
	rng := rand.New(rand.NewSource(b.cfg.seed*1_000_000 + id))

	sp := tb.begin("cluster.build", root, id)
	w := fatRun{topo: cluster.NewFatTree(fatSpec)}
	tb.end(sp)
	sp = tb.begin("sim.attach", root, id)
	w.eng = des.NewEngine()
	w.vc, w.net = vcluster.New(w.eng, w.topo), simnet.New(w.eng, w.topo)
	tb.end(sp)
	mapping := rng.Perm(w.topo.NumNodes())[:fatRanks]
	prog := workloads.Halo2D(fatHalo)
	sp = tb.begin("mpisim.run", root, id)
	res := mpisim.Run(w.vc, w.net, mapping, prog.Body, prog.Options())
	w.eng.Shutdown()
	tb.end(sp)

	*out = simRun{
		elapsed: res.Elapsed, messages: w.net.Messages(), bytes: w.net.Bytes(),
		events: w.eng.Processed(), records: recordsOf(res.Trace),
	}
	b.last = w
	return res.Elapsed > 0
}

// cycle is one operation of sim_fattree5k: fatCycle builds and runs.
// One run allocates 5.8 MB against a live heap of 7 MB, so the collector
// runs in every second one: single runs are 15 ms without and 19 ms
// with it, and their median falls between the two modes. A cycle holds
// two collections whichever run it starts on.
func (b *fatBench) cycle(tb *spanBuf, k int, runs []simRun) op {
	root := tb.begin("op", -1, int64(k))
	defer tb.end(root)
	t0 := time.Now()
	o := op{ok: true}
	for i := k * fatCycle; i < (k+1)*fatCycle; i++ {
		o.ok = b.one(tb, root, i, &runs[i]) && o.ok
		o.a += float64(runs[i].events)
		o.b += runs[i].elapsed.Seconds()
	}
	o.lat = time.Since(t0)
	return o
}

// warm runs cycles for the given time. After a warm-up of one cycle the
// first slice of twenty runs was 8 % slower than their median slice, and
// the slices fell steadily through the run; after two seconds they are
// level.
func (b *fatBench) warm(seconds float64) {
	discard := make([]simRun, fatCycle)
	for t0 := time.Now(); ; {
		b.cycle(nil, 0, discard)
		if time.Since(t0).Seconds() >= seconds {
			return
		}
	}
}

func (b *fatBench) run(seconds float64, tr *tracer) outcome {
	cycles := roundTo(fatCyclesPerSecond*seconds, listSlices)
	runs := make([]simRun, cycles*fatCycle)
	p := driveList(1, cycles, listSlices, func(c, k int) op { return b.cycle(tr.buf(c), k, runs) })
	digest, exact := simTotals(runs, cycles)
	return outcome{pass: p, digest: digest, exact: exact}
}

func (b *fatBench) layers(m map[string]float64, lc layerCtx) {
	rng := rand.New(rand.NewSource(b.cfg.seed))
	simLayers(m, lc, b.topo, rng.Perm(b.topo.NumNodes())[:8], "simnet.deliver_ns_5k")
	m["cluster.build_ms"] = p50Us(20, func(int) { cluster.NewFatTree(fatSpec) }) / 1e3
	m["cluster.build_mb"] = buildMB(func() { cluster.NewFatTree(fatSpec) })
}

// buildMB is the memory one topology build allocates.
func buildMB(build func()) float64 {
	var a, z runtime.MemStats
	runtime.ReadMemStats(&a)
	build()
	runtime.ReadMemStats(&z)
	return float64(z.TotalAlloc-a.TotalAlloc) / (1 << 20)
}

// simLayers calibrates the simulator's primitives on topo, each in a
// loop of its own on a throwaway engine: what one event, one process
// switch, one routed delivery, one message through mpisim and one
// compute call cost the host. nodes are eight nodes to run ranks on.
// It then composes the primitives with the exact counts of the
// untraced pass and holds the sum against the measured whole.
func simLayers(m map[string]float64, lc layerCtx, topo *cluster.Topology, nodes []int, deliverName string) {
	const n = 20000
	eng := des.NewEngine()
	nop := func() {}
	// A standing queue of 32 events, each scheduling its successor: the
	// heap stays as shallow as it is under an application run.
	left := 0
	var chain func()
	chain = func() {
		if left--; left > 0 {
			eng.Schedule(des.Time(1+left%7), chain)
		}
	}
	m["des.dispatch_ns"] = medianRunNs(func() {
		left = n
		for i := 0; i < 32; i++ {
			eng.Schedule(des.Time(i), chain)
		}
		eng.Run()
	}) / n
	m["des.switch_ns"] = medianRunNs(func() {
		eng.Spawn("sleeper", func(p *des.Proc) {
			for i := 0; i < n; i++ {
				p.Sleep(1)
			}
		})
		eng.Run()
	})/n - m["des.dispatch_ns"]
	eng.Shutdown()

	eng = des.NewEngine()
	net := simnet.New(eng, topo)
	m[deliverName] = medianRunNs(func() {
		for i := 0; i < n; i++ {
			net.Deliver(nodes[i%8], nodes[(i+3)%8], 16<<10, nop)
		}
		eng.Run()
	}) / n
	eng.Shutdown()

	buf := make([]int, 0, 16)
	total := topo.NumNodes()
	m["cluster.route_ns"] = meanNs(n, func(i int) { buf = topo.AppendPath(buf[:0], i%total, (i*7919+1)%total) })
	m["cluster.classes"] = float64(topo.NumClasses())

	// One 8-rank program per primitive; events counts what the engine
	// processed for it, so a message's own events are known exactly.
	const rounds = 2000
	body := func(f func(r *mpisim.Rank)) (hostNs, events float64) {
		hostNs = medianRunNs(func() {
			eng := des.NewEngine()
			defer eng.Shutdown()
			mpisim.Run(vcluster.New(eng, topo), simnet.New(eng, topo), nodes, f, mpisim.Options{})
			events = float64(eng.Processed())
		})
		return hostNs, events
	}
	pingpong, ppEvents := body(func(r *mpisim.Rank) {
		peer := r.ID() ^ 1
		for i := 0; i < rounds; i++ {
			if r.ID()%2 == 0 {
				r.Send(peer, 16<<10)
				r.Recv(peer)
			} else {
				r.Recv(peer)
				r.Send(peer, 16<<10)
			}
		}
	})
	const messages = 8 * rounds
	m["mpisim.sendrecv_us"] = pingpong / messages / 1e3
	compute, _ := body(func(r *mpisim.Rank) {
		for i := 0; i < rounds; i++ {
			r.Compute(0.001)
		}
	})
	m["vcluster.compute_ns"] = compute / messages

	// Composition: every message costs one calibrated send+receive
	// (its own events included); every event no message accounts for
	// costs one dispatch and one process switch; topology build and
	// attach were spanned directly. What the sum misses of the measured
	// run is unattributed: rank start-up, trace recording, collectives'
	// bookkeeping, garbage collection.
	ex, spans := lc.untraced.exact, lc.spans
	other := ex["des.events"] - ex["simnet.messages"]*ppEvents/messages
	if other < 0 {
		other = 0
	}
	modelled := ex["simnet.messages"]*m["mpisim.sendrecv_us"]*1e-6 +
		other*(m["des.dispatch_ns"]+m["des.switch_ns"])*1e-9
	measured, built := lc.untraced.pass.wall(), 0.0
	if op := spans["op"]; op != nil && op.Total > 0 {
		for _, name := range []string{"cluster.build", "sim.attach"} {
			if sp := spans[name]; sp != nil {
				built += sp.Total
			}
		}
		routing := ex["simnet.messages"] * m["cluster.route_ns"] * 1e-9
		share := 0.0
		if sp := spans["cluster.build"]; sp != nil {
			share = sp.Total
		}
		m["cluster.build_share"] = (share + routing) / op.Total
	}
	if measured > 0 {
		m["sim.unattributed_share"] = 1 - (modelled+built)/measured
	}
}
