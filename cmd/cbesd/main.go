// Command cbesd runs the CBES service daemon: it boots a virtual
// heterogeneous testbed, performs (or loads) the off-line calibration,
// profiles the requested applications, and then serves mapping-evaluation
// and scheduling requests over TCP (net/rpc).
//
// Usage:
//
//	cbesd [-listen 127.0.0.1:7411] [-cluster grove|centurion|test] [-db ./cbesdb]
//	      [-apps lu.B.8,aztec.8,...] [-debug-listen 127.0.0.1:7412]
//	      [-span-log spans.jsonl] [-max-clients 64] [-drain-timeout 5s]
//	      [-request-timeout 30s] [-max-inflight N]
//	      [-admission-target 500ms] [-fault-crashes N] [-fault-degrades N]
//	      [-fault-drops N] [-fault-stalls N] [-fault-seed S] [-fault-horizon 5m]
//
// With -debug-listen set, the daemon also serves an HTTP observability
// endpoint: /metrics (Prometheus text exposition), /debug/spans (recent
// traced spans), /debug/trace (one trace tree as Chrome trace-event
// JSON), /healthz (liveness), /readyz (readiness — 503 while the
// monitored cluster has down nodes; 200 with a warning line under
// calibration drift or sustained admission shedding), and the standard
// /debug/pprof profiles. The same metrics text is served over RPC
// (`cbesctl metrics`), so the control plane can scrape without HTTP;
// decision records and the accuracy ledger are read over RPC only
// (`cbesctl decisions`, `cbesctl accuracy`).
//
// Overload protection (DESIGN.md §15) is on by default: an adaptive
// limiter bounds concurrently computing requests (-max-inflight pins the
// limit; 0 adapts around a p99 target of -admission-target; negative
// disables), shed Evaluate/Compare requests brown out to profile-only
// answers, and propagated client deadlines (cbesctl -deadline) abandon
// doomed work mid-search.
//
// The -fault-* flags arm a deterministic seeded fault schedule against the
// simulated cluster (node crashes, link degradations, sensor dropouts,
// monitor stalls — each paired with its recovery) for exercising
// degraded-mode behaviour end to end.
//
// SIGINT/SIGTERM shut the daemon down cleanly: the listeners close, the
// RPC loop drains in-flight requests (bounded by -drain-timeout), and the
// simulation engine is reaped.
//
// Use cbesctl to query the daemon.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"cbes"
	"cbes/internal/accuracy"
	"cbes/internal/admission"
	"cbes/internal/bench"
	"cbes/internal/cluster"
	"cbes/internal/db"
	"cbes/internal/des"
	"cbes/internal/faults"
	"cbes/internal/monitor"
	"cbes/internal/obs"
	"cbes/internal/service"
	"cbes/internal/workloads"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

// run carries the daemon lifecycle so every defer (notably sys.Close,
// which reaps the DES engine goroutines) executes on all exit paths —
// log.Fatal in main would skip them.
func run() error {
	listen := flag.String("listen", "127.0.0.1:7411", "address to serve RPC on")
	debugListen := flag.String("debug-listen", "", "address for the HTTP debug endpoint (/metrics, /debug/spans, /debug/trace, /healthz, /readyz, /debug/pprof); empty disables")
	spanLog := flag.String("span-log", "", "append traced spans as JSONL to this file; empty disables")
	traceSample := flag.Int("trace-sample", 1, "head-sample 1 trace in N (1 keeps all; errored or slow spans are kept regardless)")
	traceSlow := flag.Duration("trace-slow", 0, "tail-keep cutoff: spans at least this slow always record (0 selects the 100ms default)")
	clusterName := flag.String("cluster", "grove", "topology spec: "+cluster.SpecHelp)
	dbDir := flag.String("db", "./cbesdb", "CBES database directory (models/profiles cache)")
	apps := flag.String("apps", "lu.B.8,aztec.8,hpl.5000.8", "comma-separated application models to profile")
	maxClients := flag.Int("max-clients", 64, "maximum concurrently served RPC connections")
	drainTimeout := flag.Duration("drain-timeout", 5*time.Second, "shutdown budget for draining in-flight requests")
	requestTimeout := flag.Duration("request-timeout", service.DefaultRequestTimeout, "per-request engine-lock queueing bound (busy error on expiry)")
	maxInflight := flag.Int("max-inflight", 0, "admission limit on concurrently computing requests (0 adaptive, negative disables admission control)")
	admissionTarget := flag.Duration("admission-target", 500*time.Millisecond, "p99 latency the adaptive admission limiter steers toward")
	faultSeed := flag.Int64("fault-seed", 0, "seed for the injected fault schedule")
	faultCrashes := flag.Int("fault-crashes", 0, "node crash/recover pairs to inject (0 disables)")
	faultDegrades := flag.Int("fault-degrades", 0, "link degrade/restore pairs to inject")
	faultDrops := flag.Int("fault-drops", 0, "sensor drop/restore pairs to inject")
	faultStalls := flag.Int("fault-stalls", 0, "monitor stalls to inject")
	faultHorizon := flag.Duration("fault-horizon", 5*time.Minute, "simulated-time window the fault schedule spans")
	flag.Parse()

	topo, err := cluster.FromSpec(*clusterName)
	if err != nil {
		return err
	}

	// Topology-shape gauges: exported before serving starts so operators
	// can see at a glance how large the simulated fabric is and whether
	// routes are table-backed (the 2005 testbeds) or computed algebraically
	// (structured 1k/5k topologies). Visible via /metrics and `cbesctl metrics`.
	reg := obs.Default()
	reg.Gauge("cbes_topology_nodes", "Nodes in the simulated topology").Set(float64(topo.NumNodes()))
	reg.Gauge("cbes_topology_switches", "Switches in the simulated topology").Set(float64(topo.NumSwitches()))
	reg.Gauge("cbes_topology_links", "Links in the simulated topology").Set(float64(topo.NumLinks()))
	routeTable := 0.0
	if topo.RouteMemoryMode() == "table" {
		routeTable = 1
	}
	reg.Gauge("cbes_topology_route_table", "1 if routes come from a stored table, 0 if computed algebraically").Set(routeTable)

	store, err := db.Open(*dbDir)
	if err != nil {
		return err
	}

	if *spanLog != "" {
		f, err := os.OpenFile(*spanLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		defer f.Close()
		obs.DefaultTracer().SetSink(f)
	}
	obs.DefaultTracer().SetSampling(*traceSample, *traceSlow)

	sys := cbes.NewSystem(topo, cbes.Config{})
	defer sys.Close()

	// Load or perform the off-line calibration. A stored model that does
	// not decode or does not fit the topology is recalibrated over.
	model, err := store.LoadModel(topo.Name)
	if err == nil {
		err = sys.UseModel(model)
	}
	if err == nil {
		log.Printf("loaded calibrated model for %s from %s", topo.Name, store.Dir())
	} else {
		if !errors.Is(err, fs.ErrNotExist) {
			log.Printf("discarding stored model: %v", err)
		}
		log.Printf("calibrating %s (%d nodes)...", topo.Name, topo.NumNodes())
		model = sys.Calibrate(bench.Options{})
		if err := store.SaveModel(model); err != nil {
			log.Printf("warning: could not persist model: %v", err)
		}
		log.Printf("calibration done: %d path classes", len(model.Classes))
	}

	// Profile the requested applications (cached in the store).
	profMapping := defaultProfilingNodes(topo)
	for _, name := range strings.Split(*apps, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		prog, err := workloads.Lookup(name)
		if err != nil {
			return fmt.Errorf("%v (kinds: %s; e.g. lu.B.8, hpl.10000.8, smg2000.50.8)",
				err, strings.Join(workloads.Kinds(), ", "))
		}
		if p, err := store.LoadProfile(name); err == nil && p.Cluster == topo.Name {
			sys.RegisterProfile(p)
			log.Printf("loaded profile %s from store", name)
			continue
		}
		log.Printf("profiling %s on %d nodes...", name, prog.Ranks)
		p, err := sys.Profile(prog, profMapping[:prog.Ranks])
		if err != nil {
			return err
		}
		if err := store.SaveProfile(p); err != nil {
			log.Printf("warning: could not persist profile: %v", err)
		}
	}

	// Optional deterministic fault injection against the simulated cluster:
	// a seeded schedule of crashes, link degradations, sensor dropouts, and
	// monitor stalls (each disruption paired with its recovery) for
	// exercising degraded-mode behaviour end to end.
	if *faultCrashes > 0 || *faultDegrades > 0 || *faultDrops > 0 || *faultStalls > 0 {
		sched := faults.RandomSchedule(topo, faults.RandomConfig{
			Seed:        *faultSeed,
			Horizon:     des.FromSeconds(faultHorizon.Seconds()),
			Crashes:     *faultCrashes,
			Degrades:    *faultDegrades,
			SensorDrops: *faultDrops,
			Stalls:      *faultStalls,
		})
		if err := sys.Faults().Install(sched); err != nil {
			return err
		}
		log.Printf("cbesd: armed %d-event fault schedule (seed %d, horizon %v)",
			len(sched), *faultSeed, *faultHorizon)
	}

	l, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}

	// The admission limiter is built here (not inside ServeWith) so the
	// readiness probe keeps a handle for shed-rate reporting.
	var lim *admission.Limiter
	if *maxInflight >= 0 {
		lim = admission.New(admission.Config{
			Initial:   *maxInflight,
			Max:       *maxInflight,
			TargetP99: *admissionTarget,
		})
	}

	// Debug HTTP endpoint: metrics, spans, traces, health, pprof.
	var debugSrv *http.Server
	if *debugListen != "" {
		dl, err := net.Listen("tcp", *debugListen)
		if err != nil {
			l.Close()
			return err
		}
		probes := &probes{sys: sys, lim: lim}
		debugSrv = &http.Server{Handler: obs.DebugMux(obs.Default(), obs.DefaultTracer(), probes.live, probes.ready)}
		go func() {
			if err := debugSrv.Serve(dl); err != nil && err != http.ErrServerClosed {
				log.Printf("cbesd: debug endpoint: %v", err)
			}
		}()
		log.Printf("cbesd: debug endpoint on http://%s (/metrics /debug/spans /debug/trace /healthz /readyz /debug/pprof)", dl.Addr())
	}

	fmt.Printf("cbesd: serving %s (%d nodes) on %s, apps: %s\n",
		topo.Name, topo.NumNodes(), l.Addr(), strings.Join(sys.Apps(), ", "))

	// Serve until the RPC loop fails or a termination signal arrives.
	// Closing the listener makes Serve return nil (the clean-exit
	// contract), after which the deferred sys.Close reaps the engine.
	errc := make(chan error, 1)
	go func() {
		errc <- service.ServeWith(sys, l, service.ServeOptions{
			MaxClients:       *maxClients,
			DrainTimeout:     *drainTimeout,
			RequestTimeout:   *requestTimeout,
			Limiter:          lim,
			DisableAdmission: lim == nil,
		})
	}()
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err = <-errc:
	case sig := <-sigc:
		log.Printf("cbesd: %v: shutting down", sig)
		l.Close()
		err = <-errc
	}
	if debugSrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		debugSrv.Shutdown(ctx) //nolint:errcheck // best-effort drain
		cancel()
	}
	return err
}

// probes backs /healthz (liveness) and /readyz (readiness). Liveness is
// "the process can serve at all": boot completed, model installed —
// restart the daemon if this fails. Readiness is "route traffic here right
// now": live AND the monitored cluster has no down nodes, so a degraded
// cluster takes the daemon out of rotation (load balancers stop sending
// new work) without killing it — it keeps answering in-flight and
// diagnostic requests, serving degraded-flagged predictions.
type probes struct {
	sys *cbes.System
	lim *admission.Limiter // nil when admission control is disabled
}

func (p *probes) live() error {
	if p.sys.Model == nil {
		return fmt.Errorf("not calibrated")
	}
	return nil
}

func (p *probes) ready() error {
	if err := p.live(); err != nil {
		return err
	}
	// LastHealthGauges reads atomics published at Snapshot time — no
	// engine lock, so the probe cannot race RPC handlers or block behind
	// a long-running Schedule.
	if down, suspect := monitor.LastHealthGauges(); down > 0 {
		return fmt.Errorf("degraded: %d nodes down, %d suspect", down, suspect)
	}
	// Sustained shedding is a warning, not a failure: the daemon is
	// protecting itself and still answering (brownout where possible), so
	// it stays in rotation, but operators see the overload on the probe.
	if p.lim != nil {
		if ratio := p.lim.ShedRatio(); ratio > 0.05 {
			return obs.Warnf("admission: shedding %.0f%% of requests (limit %d, inflight %d)",
				ratio*100, p.lim.Limit(), p.lim.Inflight())
		}
	}
	// Calibration drift is a warning, not a failure: predictions are still
	// served (with their error bands), so the daemon stays in rotation,
	// but operators see it on the probe and cbes_calibration_ok flips.
	if led := accuracy.Default(); !led.CalibrationOK() {
		st := led.Status()
		return obs.Warnf("calibration drift: recent MAPE %.1f%% (n=%d) vs baseline %.1f%% (n=%d)",
			st.WindowMAPEPct, st.WindowN, st.BaselineMAPEPct, st.BaselineN)
	}
	return nil
}

// defaultProfilingNodes picks a deterministic profiling mapping: the
// fastest architecture's nodes first.
func defaultProfilingNodes(topo *cluster.Topology) []int {
	var nodes []int
	for _, a := range []cluster.Arch{cluster.ArchAlpha, cluster.ArchIntel, cluster.ArchSPARC} {
		nodes = append(nodes, topo.NodesByArch(a)...)
	}
	if len(nodes) == 0 {
		for i := 0; i < topo.NumNodes(); i++ {
			nodes = append(nodes, i)
		}
	}
	return nodes
}
