// Package cbes is the public face of the Cost/Benefit Estimating Service
// (CBES) reproduction: a runtime scheduling system that finds highly
// effective mappings of parallel-application tasks onto the nodes of a
// large heterogeneous cluster, after Katramatos & Chapin, "A Cost/Benefit
// Estimating Service for Mapping Parallel Applications on Heterogeneous
// Clusters" (IEEE CLUSTER 2005).
//
// A System bundles a virtual heterogeneous cluster (the substitute for the
// paper's physical Centurion and Orange Grove testbeds) with the CBES
// infrastructure: the off-line calibration that builds the network latency
// model, the monitoring daemons that track CPU and NIC availability, the
// application profiler, the mapping-evaluation core, and the CS/NCS/RS/GA
// schedulers.
//
// Typical use:
//
//	sys := cbes.NewSystem(cluster.NewOrangeGrove(), cbes.Config{})
//	defer sys.Close()
//	sys.Calibrate(bench.Options{})
//	prog := workloads.LU(workloads.ClassB, 8)
//	sys.MustProfile(prog, sys.Topo.NodesByArch(cluster.ArchAlpha))
//	dec, _ := sys.Schedule(prog.Name, cbes.AlgCS, pool, 0)
//	res := sys.Run(prog, dec.Mapping)
package cbes

import (
	"context"
	"fmt"

	"cbes/internal/bench"
	"cbes/internal/cluster"
	"cbes/internal/core"
	"cbes/internal/des"
	"cbes/internal/faults"
	"cbes/internal/monitor"
	"cbes/internal/mpisim"
	"cbes/internal/netmodel"
	"cbes/internal/profile"
	"cbes/internal/schedule"
	"cbes/internal/simnet"
	"cbes/internal/vcluster"
	"cbes/internal/workloads"
)

// Algorithm selects a scheduler.
type Algorithm string

// The schedulers of §6 plus the future-work genetic algorithm.
const (
	AlgCS  Algorithm = "cs"  // simulated annealing, full cost function
	AlgNCS Algorithm = "ncs" // simulated annealing, communication-blind
	AlgRS  Algorithm = "rs"  // random scheduler
	AlgGA  Algorithm = "ga"  // genetic algorithm
)

// Config tunes a System.
type Config struct {
	// Monitor configures the system monitoring daemons.
	Monitor monitor.Config
	// Seed drives deterministic background behaviour.
	Seed int64
}

// System is a virtual heterogeneous cluster with the CBES service attached.
type System struct {
	Eng     *des.Engine
	Topo    *cluster.Topology
	VC      *vcluster.Cluster
	Net     *simnet.Network
	Monitor *monitor.SystemMonitor
	Model   *netmodel.Model

	cfg      Config
	profiles map[string]*profile.Profile
	evals    map[string]*core.Evaluator
	faults   *faults.Injector
}

// NewSystem animates the topology and starts the monitoring infrastructure.
func NewSystem(topo *cluster.Topology, cfg Config) *System {
	eng := des.NewEngine()
	vc := vcluster.New(eng, topo)
	net := simnet.New(eng, topo)
	mon := monitor.NewSystemMonitor(vc, net, cfg.Monitor)
	return &System{
		Eng:      eng,
		Topo:     topo,
		VC:       vc,
		Net:      net,
		Monitor:  mon,
		cfg:      cfg,
		profiles: map[string]*profile.Profile{},
		evals:    map[string]*core.Evaluator{},
	}
}

// Close reaps all daemon processes. The System must not be used afterwards.
func (s *System) Close() { s.Eng.Shutdown() }

// Calibrate performs the off-line calibration phase on idle instances of
// the topology and installs the resulting network latency model. It is the
// once-per-cluster initialization of §2.
func (s *System) Calibrate(opts bench.Options) *netmodel.Model {
	s.setModel(bench.Calibrate(s.Topo, opts))
	return s.Model
}

// UseModel installs a previously calibrated (possibly deserialized) model.
func (s *System) UseModel(m *netmodel.Model) error {
	if err := m.Attach(s.Topo); err != nil {
		return err
	}
	s.setModel(m)
	return nil
}

// setModel installs m and drops every cached evaluator: each holds the
// model it was built with and the λs derived from it.
func (s *System) setModel(m *netmodel.Model) {
	s.Model = m
	clear(s.evals)
}

// Profile runs the program once on an idle instance of the topology under
// the given mapping, analyses the trace, measures per-architecture speeds,
// and registers the profile under prog.Name. The profile holds only
// measurements; the evaluator derives its λ factors from the installed
// model.
func (s *System) Profile(prog workloads.Program, mapping []int) (*profile.Profile, error) {
	if s.Model == nil {
		return nil, fmt.Errorf("cbes: calibrate before profiling")
	}
	if len(mapping) != prog.Ranks {
		return nil, fmt.Errorf("cbes: profiling mapping has %d nodes, program needs %d", len(mapping), prog.Ranks)
	}
	prof, err := bench.Profile(s.Topo, prog, mapping)
	if err != nil {
		return nil, err
	}
	s.RegisterProfile(prof)
	return prof, nil
}

// MustProfile is Profile, panicking on error (for examples and tests).
func (s *System) MustProfile(prog workloads.Program, mapping []int) *profile.Profile {
	p, err := s.Profile(prog, mapping)
	if err != nil {
		panic(err)
	}
	return p
}

// RegisterProfile installs an externally built (e.g. deserialized) profile.
func (s *System) RegisterProfile(p *profile.Profile) {
	s.profiles[p.App] = p
	delete(s.evals, p.App)
}

// Apps lists the registered application names.
func (s *System) Apps() []string {
	var names []string
	for n := range s.profiles {
		names = append(names, n)
	}
	return names
}

// Evaluator returns (building and caching on first use) the mapping
// evaluator for a registered application.
func (s *System) Evaluator(app string) (*core.Evaluator, error) {
	if e, ok := s.evals[app]; ok {
		return e, nil
	}
	p, ok := s.profiles[app]
	if !ok {
		return nil, fmt.Errorf("cbes: no profile registered for %q", app)
	}
	if s.Model == nil {
		return nil, fmt.Errorf("cbes: no network model; calibrate first")
	}
	e, err := core.NewEvaluator(s.Topo, s.Model, p)
	if err != nil {
		return nil, err
	}
	s.evals[app] = e
	return e, nil
}

// Snapshot returns the monitor's current resource-availability forecast.
func (s *System) Snapshot() *monitor.Snapshot { return s.Monitor.Snapshot() }

// Predict evaluates one mapping for a registered application under the
// current monitored conditions.
func (s *System) Predict(app string, m core.Mapping) (*core.Prediction, error) {
	e, err := s.Evaluator(app)
	if err != nil {
		return nil, err
	}
	return e.Predict(m, s.Snapshot())
}

// Schedule runs the selected scheduling algorithm for a registered
// application over the given node pool.
func (s *System) Schedule(app string, alg Algorithm, pool []int, seed int64) (*schedule.Decision, error) {
	e, err := s.Evaluator(app)
	if err != nil {
		return nil, err
	}
	return ScheduleOnCtxEffort(context.Background(), e, s.Snapshot(), alg, pool, seed, 0)
}

// ScheduleOnCtxEffort runs the selected scheduling algorithm against an
// explicit evaluator and availability snapshot. It touches no System
// state, so concurrent callers holding an immutable snapshot (the
// service's lock-free read path) can schedule in parallel: evaluators are
// safe for concurrent use and the decision is deterministic in
// (evaluator, snapshot, algorithm, pool, seed, effort).
//
// When ctx carries an active trace span (obs.ContextWithSpan), the
// scheduling decision and its per-restart search spans join that trace —
// the service tier uses this to extend each RPC's causal tree down into
// the search. When ctx carries a deadline, the search abandons promptly on
// expiry. effort caps the search's energy evaluations (0 selects the
// scheduler default): the knob the cost/benefit tradeoff turns, since
// more effort buys better mappings at higher estimating cost.
func ScheduleOnCtxEffort(ctx context.Context, e *core.Evaluator, snap *monitor.Snapshot, alg Algorithm, pool []int, seed int64, effort int) (*schedule.Decision, error) {
	req := &schedule.Request{Eval: e, Snap: snap, Pool: pool, Seed: seed, Ctx: ctx, Effort: effort}
	switch alg {
	case AlgCS:
		return schedule.SimulatedAnnealing(req)
	case AlgNCS:
		return schedule.SimulatedAnnealingNoComm(req)
	case AlgRS:
		return schedule.Random(req)
	case AlgGA:
		return schedule.Genetic(req)
	default:
		return nil, fmt.Errorf("cbes: unknown algorithm %q", alg)
	}
}

// Run executes the program on the live system under the given mapping,
// contending with whatever background load and other applications are
// active, and returns the result (including the actual execution time a
// prediction can be compared against).
func (s *System) Run(prog workloads.Program, mapping core.Mapping) *mpisim.Result {
	return mpisim.Run(s.VC, s.Net, mapping, prog.Body, prog.Options())
}

// Launch starts the program on the live system without waiting.
func (s *System) Launch(prog workloads.Program, mapping core.Mapping) *mpisim.World {
	return mpisim.Launch(s.VC, s.Net, mapping, prog.Body, prog.Options())
}

// Advance runs the simulation for d of simulated time (monitors sample,
// background load evolves, running applications progress).
func (s *System) Advance(d des.Time) { s.Eng.RunUntil(s.Eng.Now() + d) }

// Faults returns the system's fault injector (created on first use), for
// arming deterministic failure scenarios against the simulated cluster.
func (s *System) Faults() *faults.Injector {
	if s.faults == nil {
		s.faults = faults.NewInjector(s.VC, s.Net, s.Monitor)
	}
	return s.faults
}

// Pool returns the node IDs of the given architectures (in ID order), a
// convenience for building administrative pools.
func (s *System) Pool(archs ...cluster.Arch) []int {
	var pool []int
	for _, a := range archs {
		pool = append(pool, s.Topo.NodesByArch(a)...)
	}
	return pool
}
