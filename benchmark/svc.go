package main

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"math"
	"math/rand"
	"net"
	"sync/atomic"
	"time"

	"cbes"
	"cbes/internal/accuracy"
	"cbes/internal/admission"
	"cbes/internal/bench"
	"cbes/internal/cluster"
	"cbes/internal/core"
	"cbes/internal/monitor"
	"cbes/internal/obs"
	"cbes/internal/service"
	"cbes/internal/workloads"
)

// daemon is a calibrated System with one profiled application and a
// cbesd booted in-process on a loopback port with service.ServeWith's
// defaults: admission on, 4096-entry cache, the program's own tracer as
// it comes.
type daemon struct {
	sys    *cbes.System
	prog   workloads.Program
	eval   *core.Evaluator
	idle   *monitor.Snapshot // the epoch the daemon boots on
	l      net.Listener
	served chan error
	conns  []*service.Client
}

// bootDaemon is the set-up every service workload pays: topology,
// Calibrate, Profile, daemon boot, and one connection per client (a
// Status round trip proves the daemon answers). parts receives the
// calibrate and profile times in milliseconds.
func bootDaemon(topo *cluster.Topology, prog workloads.Program, profileOn []int, cfg runConfig, parts map[string]float64) (*daemon, error) {
	sys := cbes.NewSystem(topo, cbes.Config{Seed: cfg.seed, Monitor: monitor.Config{Seed: cfg.seed}})
	t0 := time.Now()
	sys.Calibrate(bench.Options{})
	parts["bench.calibrate_ms"] = ms(time.Since(t0))
	t0 = time.Now()
	if _, err := sys.Profile(prog, profileOn); err != nil {
		sys.Close()
		return nil, err
	}
	parts["profile.pipeline_ms"] = ms(time.Since(t0))
	eval, err := sys.Evaluator(prog.Name)
	if err != nil {
		sys.Close()
		return nil, err
	}
	d := &daemon{sys: sys, prog: prog, eval: eval, idle: sys.Snapshot(), served: make(chan error, 1)}
	if d.l, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		sys.Close()
		return nil, err
	}
	go func() { d.served <- service.ServeWith(sys, d.l, service.ServeOptions{}) }()
	for c := 0; c < cfg.clients; c++ {
		conn, err := service.Dial(d.l.Addr().String())
		if err != nil {
			d.close()
			return nil, err
		}
		// No retries: a shed or a dropped reply must count as a failure,
		// not be papered over by a second attempt.
		conn.SetRetryPolicy(service.RetryPolicy{Max: -1})
		d.conns = append(d.conns, conn)
		if _, err := conn.Status(); err != nil {
			d.close()
			return nil, err
		}
	}
	return d, nil
}

func (d *daemon) close() {
	for _, c := range d.conns {
		c.Close()
	}
	d.l.Close()
	<-d.served
	d.sys.Close()
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// permutations returns n distinct seeded permutations of 0..7 — the
// 8-rank mappings of the 8-node test topology.
func permutations(rng *rand.Rand, n int) [][]int {
	all := make([][]int, 0, 40320)
	var rec func(p []int, k int)
	rec = func(p []int, k int) {
		if k == len(p) {
			all = append(all, append([]int(nil), p...))
			return
		}
		for i := k; i < len(p); i++ {
			p[k], p[i] = p[i], p[k]
			rec(p, k+1)
			p[k], p[i] = p[i], p[k]
		}
	}
	rec([]int{0, 1, 2, 3, 4, 5, 6, 7}, 0)
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	return all[:n]
}

// svcBench is svc_hot, svc_cold or svc_churn: the same daemon and
// application driven with a different key reuse and write share.
type svcBench struct {
	kind   string
	cfg    runConfig
	d      *daemon
	pool   [][]int   // hot/churn: 16 shared mappings; cold: 32768 drawn in turn
	fresh  [][]int   // never sent by the load: for miss calibration
	expect []float64 // hot: direct prediction of pool[i] on the idle epoch
	cursor atomic.Int64
	parts  map[string]float64
	epochs []uint64 // churn: last epoch each client saw
}

const (
	hotMappings  = 16
	coldMappings = 32768 // 8× the daemon's 4096-entry cache
	hotWidth     = 8
	coldWidth    = 4
)

func setupSvc(kind string) func(cfg runConfig) (benchRun, error) {
	return func(cfg runConfig) (benchRun, error) {
		b := &svcBench{kind: kind, cfg: cfg, parts: map[string]float64{}, epochs: make([]uint64, cfg.clients)}
		var err error
		b.d, err = bootDaemon(cluster.NewTestTopology(), workloads.Phased(60, 8), []int{0, 1, 2, 3, 4, 5, 6, 7}, cfg, b.parts)
		if err != nil {
			return nil, err
		}
		return b, nil
	}
}

// inputs generates the mapping pools, and on svc_hot the reference
// answers. It is the harness's own preparation, so it belongs to
// warm-up and not to the set-up that setup_s times.
func (b *svcBench) inputs() {
	perms := permutations(rand.New(rand.NewSource(b.cfg.seed)), 40320)
	n := hotMappings
	if b.kind == "svc_cold" {
		n = coldMappings
	}
	b.pool, b.fresh = perms[:n], perms[coldMappings:]
	if b.kind == "svc_hot" {
		b.expect = make([]float64, len(b.pool))
		for i, m := range b.pool {
			b.expect[i] = math.NaN() // a mapping the model rejects fails every check against it
			if p, err := b.d.eval.Predict(core.Mapping(m), b.d.idle); err == nil {
				b.expect[i] = p.Seconds
			}
		}
	}
}

func (b *svcBench) close()                         { b.d.close() }
func (b *svcBench) setupParts() map[string]float64 { return b.parts }

// draw returns the next n mappings of the cold pool; the pool wraps
// only after 32768 draws, eight cache capacities later.
func (b *svcBench) draw(n int) [][]int {
	end := int(b.cursor.Add(int64(n)))
	out := make([][]int, n)
	for i := range out {
		out[i] = b.pool[(end-n+i)%len(b.pool)]
	}
	return out
}

func usable(seconds float64) bool {
	return seconds > 0 && !math.IsInf(seconds, 0) && !math.IsNaN(seconds)
}

// op issues client c's k-th request. One in a hundred replies is
// checked against the model evaluated directly; on svc_churn the epoch
// moves under the readers, so there the check is that answers stay
// usable and epochs only rise.
func (b *svcBench) op(tb *spanBuf, c, k int) op {
	conn := b.d.conns[c]
	id := int64(k*b.cfg.clients + c)
	root := tb.begin("op", -1, id)
	defer tb.end(root)
	check := k%100 == 50
	var o op
	switch {
	case b.kind == "svc_churn" && k%20 == 19:
		sp := tb.begin("service.rpc.Advance", root, id)
		t0 := time.Now()
		r, err := conn.Advance(1.0) // crosses the 1 s monitor interval: a new epoch every time
		o.lat = time.Since(t0)
		tb.end(sp)
		o.ok = err == nil && r.Epoch > b.epochs[c]
		if err == nil {
			b.epochs[c] = r.Epoch
		}
	case b.kind == "svc_cold" && k%5 == 4, b.kind != "svc_cold" && k%2 == 1:
		var batch [][]int
		first := 0
		if b.kind == "svc_cold" {
			batch = b.draw(coldWidth)
		} else {
			first = (k + 5*c) % hotMappings
			batch = make([][]int, hotWidth)
			for j := range batch {
				batch[j] = b.pool[(first+j)%hotMappings]
			}
		}
		sp := tb.begin("service.rpc.Compare", root, id)
		t0 := time.Now()
		r, err := conn.Compare(b.d.prog.Name, batch)
		o.lat = time.Since(t0)
		tb.end(sp)
		o.ok = err == nil && !r.Brownout && len(r.Seconds) == len(batch)
		for i := 0; o.ok && i < len(batch); i++ {
			o.ok = usable(r.Seconds[i]) && !r.Degraded[i]
		}
		if o.ok && check && b.kind != "svc_churn" {
			vs := tb.begin("verify", root, id)
			best := 0
			for i, m := range batch {
				want := b.direct(tb, vs, id, m, (first+i)%hotMappings)
				o.ok = o.ok && math.Abs(r.Seconds[i]-want) <= 1e-9
				if r.Seconds[i] < r.Seconds[best] {
					best = i
				}
			}
			o.ok = o.ok && r.Best == best
			tb.end(vs)
		}
	default:
		var m []int
		at := (k/2 + 3*c) % hotMappings
		if b.kind == "svc_cold" {
			m = b.draw(1)[0]
		} else {
			m = b.pool[at]
		}
		sp := tb.begin("service.rpc.Evaluate", root, id)
		t0 := time.Now()
		r, err := conn.Evaluate(b.d.prog.Name, m)
		o.lat = time.Since(t0)
		tb.end(sp)
		o.ok = err == nil && !r.Brownout && !r.Degraded && usable(r.Seconds)
		if o.ok && check && b.kind != "svc_churn" {
			vs := tb.begin("verify", root, id)
			o.ok = math.Abs(r.Seconds-b.direct(tb, vs, id, m, at)) <= 1e-9
			tb.end(vs)
		}
	}
	o.a = o.lat.Seconds() // time the client waited: the base of core.predict_share
	return o
}

// direct is the reference answer for mapping m on the idle epoch: from
// the table on svc_hot (index at), by evaluating the model on svc_cold.
func (b *svcBench) direct(tb *spanBuf, parent int, id int64, m []int, at int) float64 {
	if b.expect != nil {
		return b.expect[at]
	}
	sp := tb.begin("core.predict", parent, id)
	defer tb.end(sp)
	p, err := b.d.eval.Predict(core.Mapping(m), b.d.idle)
	if err != nil {
		return math.NaN()
	}
	return p.Seconds
}

func (b *svcBench) warm(seconds float64) {
	b.inputs()
	driveFor(b.cfg.clients, time.Duration(seconds*float64(time.Second)), 1, func(c, k int) op { return b.op(nil, c, k) })
}

func (b *svcBench) run(seconds float64, tr *tracer) outcome {
	slice := time.Duration(seconds / timeSlices * float64(time.Second))
	p := driveFor(b.cfg.clients, slice, timeSlices, func(c, k int) op { return b.op(tr.buf(c), c, k) })
	return outcome{pass: p}
}

// layers calibrates, with the load stopped, what one request costs in
// each layer the daemon crosses. The handler is timed on a second
// Server over the same System, called directly — the same code the RPC
// dispatches to, minus the wire.
func (b *svcBench) layers(m map[string]float64, lc layerCtx) {
	const n = 300
	conn, name, eval, idle := b.d.conns[0], b.d.prog.Name, b.d.eval, b.d.idle
	twin := service.NewServer(b.d.sys)
	twin.SetAdmission(admission.New(admission.Config{}))
	hit := b.pool[0]
	call := func(mp []int) {
		var r service.EvaluateReply
		_ = twin.Evaluate(&service.EvaluateArgs{App: name, Mapping: mp}, &r) // errors surface in handler_*_us as absurd values; the timed pass verifies replies
	}
	call(hit)
	_, _ = conn.Evaluate(name, hit)
	// The RPC is timed back to back, as a busy client sends: after a pause
	// the reply would also wait for a parked server thread to be woken.
	rpcHit := p50Us(n, func(int) { _, _ = conn.Evaluate(name, hit) })
	side := p50sUs(n,
		func(int) { call(hit) },
		func(i int) { call(b.fresh[i]) },
		func(i int) { _, _ = eval.Predict(core.Mapping(b.fresh[n+i]), idle) })
	m["service.handler_hit_us"], m["service.handler_miss_us"], m["core.predict_us"] = side[0], side[1], side[2]
	m["service.wire_us"] = rpcHit - side[0]
	m["core.predict_allocs"] = allocsPer(n, func(i int) { _, _ = eval.Predict(core.Mapping(b.fresh[2*n+i]), idle) })
	m["core.brownout_us"] = p50Us(n, func(i int) { _, _ = eval.PredictBrownout(core.Mapping(b.fresh[i])) })
	m["service.gob_us"] = b.gobUs(n)

	led := accuracy.New(accuracy.Config{})
	key := accuracy.Key{App: name, AgeBucket: accuracy.AgeBucket(0)}
	m["accuracy.begin_ns"] = meanNs(20000, func(int) {
		led.Begin(accuracy.Prediction{App: name, AgeBucket: key.AgeBucket, Predicted: 1})
	})
	m["accuracy.band_ns"] = meanNs(20000, func(int) { led.BandFor(key) })
	otr := obs.NewTracer(obs.DefaultRingSize)
	m["obs.span_ns"] = meanNs(20000, func(int) { otr.Start("bench").End() })
	m["obs.span_allocs"] = allocsPer(20000, func(int) { otr.Start("bench").End() })
	rec := obs.NewRecorder(obs.DefaultRecorderSize)
	m["obs.record_ns"] = meanNs(20000, func(int) { rec.Record(obs.Decision{Kind: "evaluate", App: name, Mapping: hit}) })
	lim := admission.New(admission.Config{})
	m["admission.acquire_ns"] = meanNs(20000, func(int) {
		if tk, err := lim.Acquire(context.Background(), admission.Expensive); err == nil {
			lim.Release(tk)
		}
	})
	m["netmodel.latency_ns"] = meanNs(20000, func(i int) {
		if cl, err := b.d.sys.Model.ClassFor(i%8, (i+1)%8); err == nil {
			cl.Curve.At(16 << 10)
		}
	})
	m["monitor.snapshot_ns"] = meanNs(2000, func(int) { b.d.sys.Monitor.Snapshot() })
	m["service.view_refresh_us"] = p50Us(50, func(int) { service.NewServer(b.d.sys) })
	if b.kind == "svc_churn" {
		m["service.advance_us"] = p50Us(100, func(int) {
			var r service.AdvanceReply
			_ = twin.Advance(&service.AdvanceArgs{Seconds: 1.0}, &r) // same remark as call above
		})
	}

	// A miss crosses, besides the model: three spans (rpc, cache.lookup,
	// core.predict), one admission slot, one ledger Begin with its band
	// lookup, and one decision record. What is left is the handler's own.
	known := m["core.predict_us"] + (3*m["obs.span_ns"]+m["admission.acquire_ns"]+
		m["accuracy.begin_ns"]+m["accuracy.band_ns"]+m["obs.record_ns"])/1e3
	m["service.unattributed_share"] = 1 - known/m["service.handler_miss_us"]

	// Model evaluations on the blocking path of the untraced pass: every
	// cache miss is one, and their calibrated cost over the time the
	// clients spent waiting is core.Predict's share of an operation.
	waited := 0.0
	for _, s := range lc.untraced.pass.slices {
		waited += s.A
	}
	if waited > 0 {
		m["core.predict_share"] = lc.untraced.ctr.misses * m["core.predict_us"] / 1e6 / waited
	}
}

// gobUs is the encode+decode cost of the workload's own argument and
// reply messages through one long-lived encoder/decoder pair, as
// net/rpc holds per connection, weighted by the workload's request mix.
func (b *svcBench) gobUs(n int) float64 {
	name := b.d.prog.Name
	var buf bytes.Buffer
	enc, dec := gob.NewEncoder(&buf), gob.NewDecoder(&buf)
	round := func(in, out any) {
		if err := enc.Encode(in); err != nil {
			panic(fmt.Sprintf("gob encode %T: %v", in, err)) // a wire type that cannot encode is a bug
		}
		if err := dec.Decode(out); err != nil {
			panic(fmt.Sprintf("gob decode %T: %v", out, err))
		}
	}
	width, compareShare := hotWidth, 0.5
	if b.kind == "svc_cold" {
		width, compareShare = coldWidth, 0.2
	}
	evalReply, _ := b.d.conns[0].Evaluate(name, b.pool[0])
	cmpReply, _ := b.d.conns[0].Compare(name, b.pool[:width])
	if evalReply == nil || cmpReply == nil {
		return 0
	}
	evaluate := p50Us(n, func(int) {
		round(&service.EvaluateArgs{App: name, Mapping: b.pool[0]}, &service.EvaluateArgs{})
		round(evalReply, &service.EvaluateReply{})
	})
	compare := p50Us(n, func(int) {
		round(&service.CompareArgs{App: name, Mappings: b.pool[:width]}, &service.CompareArgs{})
		round(cmpReply, &service.CompareReply{})
	})
	return (1-compareShare)*evaluate + compareShare*compare
}
