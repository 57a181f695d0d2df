// Package core implements the heart of CBES: the mapping evaluation
// operation of §3, which predicts the execution time an application would
// achieve under a candidate mapping, given the system profile (network
// latency model), the application profile, and a snapshot of current
// resource availability.
//
// For a mapping M (eq. 3) the prediction is
//
//	S_M = max_i (R_i + C_i)                                  (eq. 4)
//	R_i = (X_i + O_i) · Speed_profile_i/Speed_j · 1/ACPU_j   (eq. 5)
//	Θ_i = Σ message groups mc · Lc(·,·,ms)                   (eq. 6)
//	λ_i = B_i / Θ_i^profile                                  (eq. 7)
//	C_i = Θ_i · λ_i                                          (eq. 8)
//
// summed over the profile's segments, with λ derived by NewEvaluator from
// the evaluator's own model. ACPU_j generalizes the paper's
// per-node availability to co-located ranks: k ranks sharing a node with
// c processors see their share scaled by min(1, c/k).
package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"cbes/internal/cluster"
	"cbes/internal/monitor"
	"cbes/internal/netmodel"
	"cbes/internal/profile"
)

// ErrNodeDown reports a mapping that places a rank on a node whose
// snapshot health is HealthDown. Callers match it with errors.Is; the
// wrapped message names the rank and node.
var ErrNodeDown = errors.New("node down")

// checkNodesUp returns a wrapped ErrNodeDown if any rank of m sits on a
// down node of snap, and whether any mapped node's data is stale
// (HealthSuspect) — the degraded-prediction trigger.
func checkNodesUp(m Mapping, snap *monitor.Snapshot) (anyStale bool, err error) {
	if snap.Health == nil {
		return false, nil
	}
	for r, n := range m {
		switch snap.HealthOf(n) {
		case monitor.HealthDown:
			metricNodeDownErrors.Inc()
			return false, fmt.Errorf("core: rank %d mapped to node %d: %w", r, n, ErrNodeDown)
		case monitor.HealthSuspect:
			anyStale = true
		}
	}
	return anyStale, nil
}

// Mapping assigns each application rank (index) to a cluster node (value) —
// the set of (task, node) pairs of eq. 3.
type Mapping []int

// Clone copies the mapping.
func (m Mapping) Clone() Mapping { return append(Mapping(nil), m...) }

// Validate checks that every rank is assigned to an existing node.
func (m Mapping) Validate(topo *cluster.Topology) error {
	if len(m) == 0 {
		return fmt.Errorf("core: empty mapping")
	}
	for r, n := range m {
		if n < 0 || n >= topo.NumNodes() {
			return fmt.Errorf("core: rank %d mapped to invalid node %d", r, n)
		}
	}
	return nil
}

// Multiplicity returns how many ranks the mapping assigns to each node.
func (m Mapping) Multiplicity() map[int]int {
	mult := map[int]int{}
	for _, n := range m {
		mult[n]++
	}
	return mult
}

// Equal reports whether two mappings are identical.
func (m Mapping) Equal(o Mapping) bool {
	if len(m) != len(o) {
		return false
	}
	for i := range m {
		if m[i] != o[i] {
			return false
		}
	}
	return true
}

// ProcEstimate is the per-process breakdown of a prediction.
type ProcEstimate struct {
	Rank   int
	R      float64 // computation contribution (eq. 5), seconds
	C      float64 // communication contribution (eq. 8), seconds
	Lambda float64 // λ_i of eq. 7, the factor C carries
}

// Total is R + C.
func (p ProcEstimate) Total() float64 { return p.R + p.C }

// SegmentEstimate is the prediction for one profile segment.
type SegmentEstimate struct {
	Name     string
	Seconds  float64 // max_i (R_i + C_i)
	Critical int     // i_M: the rank attaining the max
	Procs    []ProcEstimate
}

// Prediction is a complete execution-time prediction for one mapping.
type Prediction struct {
	Mapping  Mapping
	Seconds  float64 // Σ over segments of S_M
	Segments []SegmentEstimate
	// Degraded reports that at least one mapped node's monitoring data was
	// stale, so its terms used profile-only fallback values (nominal CPU
	// availability, idle NIC) instead of forecasts.
	Degraded bool
	// StaleNodes lists the mapped nodes that triggered the fallback, in
	// ascending node order.
	StaleNodes []int
}

// Estimate is what service replies read of a Prediction — the total, the
// first segment's critical rank and the degraded-mode markers, without the
// per-segment breakdown — or PredictBrownout's whole-run estimate.
type Estimate struct {
	Seconds    float64 // Σ over segments of S_M, equal to Prediction.Seconds
	Critical   int     // critical rank of the first segment; -1 when there is none
	Degraded   bool    // as Prediction.Degraded
	StaleNodes []int   // as Prediction.StaleNodes
	Brownout   bool    // answered by PredictBrownout, served while shedding load
}

// Evaluator predicts execution times for mappings of one profiled
// application on one calibrated cluster. It is the core CBES module that
// serves mapping-comparison requests.
//
// An Evaluator is safe for concurrent use: Predict, Estimate,
// PredictBrownout and Energy may be called from multiple goroutines, and
// each Scorer drawn from it carries its own scratch state. Do not copy an Evaluator after first use (derive
// the NCS variant with CommBlind instead).
type Evaluator struct {
	Topo  *cluster.Topology
	Model *netmodel.Model
	Prof  *profile.Profile

	// ignoreComm drops the communication term C_i entirely. This is the
	// cost function of the NCS baseline scheduler of §6 (CommBlind): it
	// can rank mappings by computation speed but its scores are not
	// execution-time predictions.
	ignoreComm bool
	fastIx     *fastIndex
	pool       sync.Pool // *Scorer arenas on fastIx for Energy, Estimate, and Predict

	// PredictBrownout's state, built on its first call: the rank-collapsed
	// index (fastIndex.collapse), the idle snapshot it is evaluated
	// against, and the *Scorer arenas on that index.
	brownOnce sync.Once
	brownIx   *fastIndex
	idle      *monitor.Snapshot
	brownPool sync.Pool
}

// NewEvaluator builds an evaluator after sanity-checking its inputs: every
// profiling node lies in topo, its architecture with a measured speed. The
// fast-path tables, λ (eq. 7) and Speed_profile (eq. 5) among them, are
// precomputed here from the profile and this model, so the evaluator can
// be shared across scheduler workers without further synchronization.
// Deriving λ reads the model's no-load latency between the profiling
// mapping's nodes, which panics like Model.NoLoad if the model leaves one
// of their path classes uncalibrated (Model.Attach refuses such a model).
func NewEvaluator(topo *cluster.Topology, model *netmodel.Model, prof *profile.Profile) (*Evaluator, error) {
	if prof.Cluster != topo.Name {
		return nil, fmt.Errorf("core: profile from cluster %q, topology is %q", prof.Cluster, topo.Name)
	}
	if err := Mapping(prof.Mapping).Validate(topo); err != nil {
		return nil, fmt.Errorf("core: profiling mapping: %w", err)
	}
	for r, node := range prof.Mapping {
		if arch := topo.Node(node).Arch; !(prof.ArchSpeed[arch] > 0) {
			return nil, fmt.Errorf("core: rank %d profiled on node %d: no measured speed for architecture %q", r, node, arch)
		}
	}
	e := &Evaluator{Topo: topo, Model: model, Prof: prof}
	e.fastIx = buildFastIndex(e)
	return e, nil
}

// Estimate evaluates mapping m under the resource conditions of snap and
// returns what a service reply reads of the prediction. It runs the Scorer
// kernel on a pooled arena and, on a snapshot with no stale mapped node,
// does not allocate.
func (e *Evaluator) Estimate(m Mapping, snap *monitor.Snapshot) (Estimate, error) {
	defer observePredict(time.Now())
	s := e.pooledScorer(&e.pool, e.fastIx)
	defer e.pool.Put(s)
	anyStale, err := s.prime(m, snap)
	if err != nil {
		return Estimate{}, err
	}
	est := Estimate{Seconds: s.total, Critical: -1}
	if len(s.segMax) > 0 {
		est.Critical = s.critical(0)
	}
	if anyStale {
		est.Degraded, est.StaleNodes = true, s.staleNodes(snap)
		metricDegradedPredicts.Inc()
	}
	return est, nil
}

// Predict evaluates mapping m under the resource conditions of snap and
// returns the execution-time prediction with its per-segment, per-process
// breakdown: the same kernel evaluation as Estimate and Energy, followed by
// a detail pass that copies the scorer's terms out.
func (e *Evaluator) Predict(m Mapping, snap *monitor.Snapshot) (*Prediction, error) {
	defer observePredict(time.Now())
	s := e.pooledScorer(&e.pool, e.fastIx)
	defer e.pool.Put(s)
	anyStale, err := s.prime(m, snap)
	if err != nil {
		return nil, err
	}
	pred := &Prediction{Mapping: m.Clone(), Seconds: s.total, Segments: s.detail()}
	if anyStale {
		pred.Degraded, pred.StaleNodes = true, s.staleNodes(snap)
		metricDegradedPredicts.Inc()
	}
	return pred, nil
}

// PredictBrownout estimates mapping m against nominal resource
// conditions — full CPU availability and idle NICs, ignoring monitoring
// data entirely — by the kernel's full evaluation on the rank-collapsed
// index: one segment holding one entry per rank, each the rank's whole run
// (fastIndex.collapse). It is the brownout fast path the service uses
// while shedding load, so it MUST be cheap: O(nodes + ranks + links)
// whatever the segment count, against Estimate's O(segments × ranks), or
// the degraded path would consume the very capacity whose exhaustion
// triggered it. The answer depends only on the profile and the topology
// (valid for the process lifetime, cacheable without an epoch). It takes
// one critical rank for the whole run, so barrier effects inside segments
// are lost: it never exceeds Estimate on an idle snapshot (up to rounding),
// its Critical is -1, and it is labeled via Estimate.Brownout. It does not
// allocate.
func (e *Evaluator) PredictBrownout(m Mapping) (Estimate, error) {
	e.brownOnce.Do(func() {
		e.brownIx = e.fastIx.collapse()
		e.idle = monitor.IdleSnapshot(e.Topo.NumNodes())
	})
	s := e.pooledScorer(&e.brownPool, e.brownIx)
	defer e.brownPool.Put(s)
	if _, err := s.prime(m, e.idle); err != nil {
		return Estimate{}, err
	}
	metricBrownoutPredicts.Inc()
	return Estimate{Seconds: s.total, Critical: -1, Brownout: true}, nil
}
