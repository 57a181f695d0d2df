// Package experiments regenerates every table and figure of the paper's
// evaluation (§5–6): the phase-1 synthetic prediction-error sweep, the
// figure-5 NPB/HPL prediction errors, the phase-3 load-sensitivity study,
// the figure-6 LU execution-time zones, tables 1–4 (worst-vs-best and
// average-case scheduling for LU and the ASCI/HPL selection), the
// figure-7 predicted-time distributions, and the §6 headline numbers.
//
// Every experiment is deterministic for a fixed Config.Seed. Scale factors
// shrink the case counts for quick regeneration. At full scale the
// scheduling studies run the paper's 100 scheduler runs per scenario, but
// the phase-1 sweep runs 720 cases against the paper's 16 000+.
package experiments

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"

	"cbes/internal/bench"
	"cbes/internal/cluster"
	"cbes/internal/core"
	"cbes/internal/monitor"
	"cbes/internal/mpisim"
	"cbes/internal/netmodel"
	"cbes/internal/profile"
	"cbes/internal/vcluster"
	"cbes/internal/workloads"
)

// Config controls experiment scale and determinism.
type Config struct {
	// Seed drives all experiment randomness.
	Seed int64
	// Scale in (0,1] shrinks case counts / repetitions; 1.0 runs the
	// paper's repetition counts, and 720 phase-1 cases against the
	// paper's 16 000+. The default (0) means 0.25.
	Scale float64
	// Jobs bounds the worker pool that fans independent trials across
	// cores: 0 (the default) uses one worker per core, 1 forces the serial
	// reference order. Results are identical for any value — trials draw
	// their randomness serially (or from index-derived seeds) and write
	// results by index.
	Jobs int
	// Verbose enables progress lines on stdout.
	Verbose bool
}

// jobs resolves the worker count handed to parfor.Do.
func (c Config) jobs() int {
	if c.Jobs > 0 {
		return c.Jobs
	}
	return runtime.GOMAXPROCS(0)
}

func (c Config) scale() float64 {
	if c.Scale <= 0 {
		return 0.25
	}
	if c.Scale > 1 {
		return 1
	}
	return c.Scale
}

// scaled returns max(min, 1, round(full*scale)): even a tiny Scale yields at
// least one trial, so loops that split the budget afterwards (for example
// Table 2's per-scheduler runs) can never round down to zero iterations.
func (c Config) scaled(full, min int) int {
	n := int(float64(full)*c.scale() + 0.5)
	if n < min {
		n = min
	}
	if n < 1 {
		n = 1
	}
	return n
}

func (c Config) logf(format string, args ...any) {
	if c.Verbose {
		fmt.Printf(format+"\n", args...)
	}
}

// Lab owns the calibrated clusters and profiled applications shared by the
// experiments. Building one performs the off-line calibration phase.
type Lab struct {
	cfg Config

	GroveTopo *cluster.Topology
	GroveNet  *netmodel.Model

	centTopo *cluster.Topology
	centNet  *netmodel.Model

	profiles map[string]*profile.Profile
}

// NewLab calibrates Orange Grove (Centurion is calibrated lazily on first
// use, as only phase 1 and figure 5 need it).
func NewLab(cfg Config) *Lab {
	l := &Lab{
		cfg:       cfg,
		GroveTopo: cluster.NewOrangeGrove(),
		profiles:  map[string]*profile.Profile{},
	}
	cfg.logf("calibrating orange-grove (%d nodes)...", l.GroveTopo.NumNodes())
	l.GroveNet = bench.Calibrate(l.GroveTopo, bench.Options{Reps: 5})
	return l
}

// Centurion returns the lazily calibrated Centurion testbed.
func (l *Lab) Centurion() (*cluster.Topology, *netmodel.Model) {
	if l.centTopo == nil {
		l.centTopo = cluster.NewCenturion()
		l.cfg.logf("calibrating centurion (%d nodes)...", l.centTopo.NumNodes())
		l.centNet = bench.Calibrate(l.centTopo, bench.Options{Reps: 5})
	}
	return l.centTopo, l.centNet
}

// modelFor returns the calibrated model of the given topology.
func (l *Lab) modelFor(topo *cluster.Topology) *netmodel.Model {
	if topo == l.GroveTopo {
		return l.GroveNet
	}
	if topo == l.centTopo {
		return l.centNet
	}
	panic("experiments: unknown topology")
}

// Profile profiles (and caches) a program on the given topology/mapping.
func (l *Lab) Profile(topo *cluster.Topology, prog workloads.Program, mapping []int) *profile.Profile {
	key := topo.Name + "/" + prog.Name
	if p, ok := l.profiles[key]; ok {
		return p
	}
	p, err := bench.Profile(topo, prog, mapping)
	if err != nil {
		panic(err)
	}
	l.profiles[key] = p
	return p
}

// dropProfiles evicts cached profiles whose app name matches, so one-shot
// synthetic configurations do not accumulate.
func (l *Lab) dropProfiles(app string) {
	for k := range l.profiles {
		if l.profiles[k].App == app {
			delete(l.profiles, k)
		}
	}
}

// Evaluator builds the CBES evaluator for a profiled program.
func (l *Lab) Evaluator(topo *cluster.Topology, prog workloads.Program, profMapping []int) *core.Evaluator {
	p := l.Profile(topo, prog, profMapping)
	e, err := core.NewEvaluator(topo, l.modelFor(topo), p)
	if err != nil {
		panic(err)
	}
	return e
}

// Measure runs a program on a fresh instance of the topology under the
// mapping and background load and returns the actual execution time in
// seconds.
func (l *Lab) Measure(topo *cluster.Topology, prog workloads.Program, mapping []int, bg vcluster.Background) float64 {
	res, err := mpisim.RunAlone(topo, bg, mapping, prog.Body, prog.Options())
	if err != nil {
		panic(err)
	}
	return res.Elapsed.Seconds()
}

// snapshotWithLoad builds an idle snapshot with explicit availability
// overrides — what the monitor would report after observing that load.
func snapshotWithLoad(topo *cluster.Topology, avail map[int]float64) *monitor.Snapshot {
	s := monitor.IdleSnapshot(topo.NumNodes())
	for node, a := range avail {
		s.AvailCPU[node] = a
	}
	return s
}

// predict evaluates a mapping under an idle snapshot.
func predict(e *core.Evaluator, m []int, snap *monitor.Snapshot) float64 {
	est, err := e.Estimate(core.Mapping(m), snap)
	if err != nil {
		panic(err)
	}
	return est.Seconds
}

// errPct is the prediction error percentage relative to the actual time.
func errPct(predicted, actual float64) float64 {
	d := predicted - actual
	if d < 0 {
		d = -d
	}
	return d / actual * 100
}

// pickMapping draws a random injective mapping from pool.
func pickMapping(pool []int, ranks int, rng *rand.Rand) []int {
	p := append([]int(nil), pool...)
	rng.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return append([]int(nil), p[:ranks]...)
}

// pickContiguous draws a contiguous block of the (ID-sorted) pool starting
// at a random offset, wrapping around — the shape of mappings produced by
// round-robin allocation from a node list, which keeps most ranks
// topologically close.
func pickContiguous(pool []int, ranks int, rng *rand.Rand) []int {
	off := rng.Intn(len(pool))
	m := make([]int, ranks)
	for i := range m {
		m[i] = pool[(off+i)%len(pool)]
	}
	return m
}

// groveGroups returns the three node groups of §6.1: high (Alpha only),
// medium (Alpha+Intel), low (Alpha+Intel+SPARC).
func (l *Lab) groveGroups() (high, medium, low []int) {
	t := l.GroveTopo
	high = t.NodesByArch(cluster.ArchAlpha)
	medium = append(append([]int{}, high...), t.NodesByArch(cluster.ArchIntel)...)
	low = append(append([]int{}, medium...), t.NodesByArch(cluster.ArchSPARC)...)
	sort.Ints(medium)
	sort.Ints(low)
	return high, medium, low
}

// luProgram is the LU configuration of the §6.1 study.
func luProgram() workloads.Program { return workloads.LU(workloads.ClassB, 8) }
