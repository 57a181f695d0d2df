// Package bench implements the off-line phases of CBES: calibration (§2),
// MPI-style ping-pong benchmarks that measure end-to-end internode latency
// over a range of message sizes and fit the per-path-class no-load latency
// curves and load coefficients of the network model; and application
// profiling, which runs the program once and measures its compute-speed
// ratios across architectures (the λ factors of eq. 7 are derived from the
// profile by package core, against the model it evaluates with).
//
// Calibration "must take place on a computation- and communication-free
// system"; calibration therefore uses a fresh idle virtual cluster per
// measurement.
package bench

import (
	"cbes/internal/cluster"
	"cbes/internal/mpisim"
	"cbes/internal/netmodel"
	"cbes/internal/profile"
	"cbes/internal/vcluster"
	"cbes/internal/workloads"
)

// DefaultSizes are the calibration message sizes.
var DefaultSizes = []int64{64, 1 << 10, 8 << 10, 64 << 10, 256 << 10}

// Options tunes calibration.
type Options struct {
	// Sizes are the message sizes to calibrate at (DefaultSizes if nil).
	Sizes []int64
	// Reps is the number of ping-pong round trips per measurement
	// (default 10).
	Reps int
	// AllPairs measures every ordered pair instead of one representative
	// pair per path class. O(N²) instead of O(classes); used to validate
	// the class approximation.
	AllPairs bool
	// SkipLoadFit skips fitting the load coefficients.
	SkipLoadFit bool
}

// loadLevel is the controlled CPU availability at which the load
// coefficients are fitted.
const loadLevel = 0.5

func (o Options) sizes() []int64 {
	if len(o.Sizes) > 0 {
		return o.Sizes
	}
	return DefaultSizes
}

func (o Options) reps() int {
	if o.Reps > 0 {
		return o.Reps
	}
	return 10
}

// Pair is an ordered benchmark endpoint pair (Src == Dst measures the
// loopback/co-location path).
type Pair struct{ Src, Dst int }

// pingPongBody returns the 2-rank benchmark program. Receives are
// effectively pre-posted (the paper notes calibration benchmarks minimize
// overhead): the protocol alternates strictly.
func pingPongBody(size int64, reps int) func(*mpisim.Rank) {
	return func(r *mpisim.Rank) {
		for k := 0; k < reps; k++ {
			if r.ID() == 0 {
				r.Send(1, size)
				r.Recv(1)
			} else {
				r.Recv(0)
				r.Send(0, size)
			}
		}
	}
}

// MeasurePairLatency runs a ping-pong between src and dst on a fresh, idle
// instance of topo and returns the mean one-way latency in seconds. With
// loadAvail < 1 the src node is held at that CPU availability (used for
// coefficient fitting).
func MeasurePairLatency(topo *cluster.Topology, src, dst int, size int64, reps int, loadAvail float64) float64 {
	var bg vcluster.Background
	if loadAvail > 0 && loadAvail < 1 {
		bg.Avail = map[int]float64{src: loadAvail}
	}
	res, err := mpisim.RunAlone(topo, bg, []int{src, dst}, pingPongBody(size, reps), mpisim.Options{AppName: "pingpong"})
	if err != nil {
		panic(err)
	}
	return res.Elapsed.Seconds() / float64(2*reps)
}

// classRepresentatives returns one ordered pair per path-signature class,
// plus the pair count per class. When the topology interns its classes the
// sweep resolves integer IDs instead of building N² signature strings;
// representative choice is first encounter in row-major pair order either
// way, so calibration picks identical pairs on the 2005 testbeds.
func classRepresentatives(topo *cluster.Topology) (map[string]Pair, map[string]int) {
	n := topo.NumNodes()
	if nc := topo.NumClasses(); nc > 0 {
		repID := make([]Pair, nc)
		seen := make([]bool, nc)
		cnt := make([]int, nc)
		var order []int
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				id := topo.ClassID(i, j)
				cnt[id]++
				if !seen[id] {
					seen[id] = true
					repID[id] = Pair{i, j}
					order = append(order, id)
				}
			}
		}
		rep := make(map[string]Pair, len(order))
		count := make(map[string]int, len(order))
		// Distinct class IDs can share one signature string in principle;
		// first scan encounter wins the representative slot, matching the
		// legacy row-major behavior.
		for _, id := range order {
			sig := topo.ClassSignature(id)
			if _, ok := rep[sig]; !ok {
				rep[sig] = repID[id]
			}
			count[sig] += cnt[id]
		}
		return rep, count
	}
	rep := map[string]Pair{}
	count := map[string]int{}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			sig := topo.PathSignature(i, j)
			count[sig]++
			if _, ok := rep[sig]; !ok {
				rep[sig] = Pair{i, j}
			}
		}
	}
	return rep, count
}

// Calibrate builds the network latency model for topo by serial
// measurement (each benchmark on its own idle cluster instance).
func Calibrate(topo *cluster.Topology, opts Options) *netmodel.Model {
	model := netmodel.New(topo)
	sizes := opts.sizes()
	reps := opts.reps()

	reps95 := func(src, dst int) netmodel.Curve {
		curve := netmodel.Curve{Sizes: append([]int64(nil), sizes...)}
		for _, s := range sizes {
			curve.Lat = append(curve.Lat, MeasurePairLatency(topo, src, dst, s, reps, 1.0))
		}
		return curve
	}

	if opts.AllPairs {
		// Full O(N²) calibration: per-pair curves aggregated per class by
		// averaging (the class still keys the lookup).
		_, counts := classRepresentatives(topo)
		type agg struct {
			lat []float64
			n   int
		}
		aggs := map[string]*agg{}
		n := topo.NumNodes()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				sig := topo.PathSignature(i, j)
				a, ok := aggs[sig]
				if !ok {
					a = &agg{lat: make([]float64, len(sizes))}
					aggs[sig] = a
				}
				c := reps95(i, j)
				for k := range sizes {
					a.lat[k] += c.Lat[k]
				}
				a.n++
			}
		}
		for sig, a := range aggs {
			curve := netmodel.Curve{Sizes: append([]int64(nil), sizes...), Lat: make([]float64, len(sizes))}
			for k := range sizes {
				curve.Lat[k] = a.lat[k] / float64(a.n)
			}
			model.SetClass(sig, netmodel.Class{Curve: curve, Pairs: counts[sig]})
		}
	} else {
		representatives, counts := classRepresentatives(topo)
		for sig, p := range representatives {
			model.SetClass(sig, netmodel.Class{Curve: reps95(p.Src, p.Dst), Pairs: counts[sig]})
		}
	}

	if !opts.SkipLoadFit {
		fitLoadCoefficients(topo, model, opts)
	}
	return model
}

// fitLoadCoefficients measures, per class, the latency inflation when one
// endpoint runs at reduced CPU availability, and stores the linear
// coefficients CSend/CRecv.
func fitLoadCoefficients(topo *cluster.Topology, model *netmodel.Model, opts Options) {
	repPairs, _ := classRepresentatives(topo)
	const a = loadLevel
	x := 1/a - 1
	size := opts.sizes()[0] // small messages: the CPU-bound regime
	reps := opts.reps()
	for sig, p := range repPairs {
		cl := model.Classes[sig]
		idle := cl.Curve.At(size)
		loadedSrc := MeasurePairLatency(topo, p.Src, p.Dst, size, reps, a)
		c := (loadedSrc - idle) / x
		if c < 0 {
			c = 0
		}
		// Ping-pong symmetry folds send and receive costs together; use the
		// same coefficient for both ends (see package doc).
		cl.CSend = c
		cl.CRecv = c
		model.SetClass(sig, cl)
	}
}

// MeasureArchSpeeds runs a single-rank compute probe of probeRef reference
// seconds on one node of each architecture and returns the measured speed
// ratios relative to the reference (the "experimentally measured speed
// ratios for all cluster node architectures" the application profile
// carries). archEff supplies the application's per-architecture efficiency
// multipliers (nil for a neutral probe).
func MeasureArchSpeeds(topo *cluster.Topology, archEff map[cluster.Arch]float64, probeRef float64) map[cluster.Arch]float64 {
	if probeRef <= 0 {
		probeRef = 0.5
	}
	out := map[cluster.Arch]float64{}
	for _, a := range topo.Archs() {
		nodes := topo.NodesByArch(a)
		if len(nodes) == 0 {
			continue
		}
		res, err := mpisim.RunAlone(topo, vcluster.Background{}, []int{nodes[0]}, func(r *mpisim.Rank) {
			r.Compute(probeRef)
		}, mpisim.Options{AppName: "speedprobe", ArchEff: archEff})
		if err != nil {
			panic(err)
		}
		out[a] = probeRef / res.Elapsed.Seconds()
	}
	return out
}

// Profile runs prog once on an idle instance of topo under mapping,
// analyses the trace, and measures prog's per-architecture speeds.
func Profile(topo *cluster.Topology, prog workloads.Program, mapping []int) (*profile.Profile, error) {
	// Profiling happens off-line on a quiet system, like calibration.
	res, err := mpisim.RunAlone(topo, vcluster.Background{}, mapping, prog.Body, prog.Options())
	if err != nil {
		return nil, err
	}
	return profile.FromTrace(res.Trace, topo, MeasureArchSpeeds(topo, prog.ArchEff, 0.5))
}
