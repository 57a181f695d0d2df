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
// summed over the profile's segments. ACPU_j generalizes the paper's
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
	Rank int
	R    float64 // computation contribution (eq. 5), seconds
	C    float64 // communication contribution (eq. 8), seconds
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
	// Brownout reports that the prediction was served from the profile-only
	// fast path (nominal resource conditions for every node) because the
	// service was shedding load — a cheaper, explicitly-labeled answer in
	// the spirit of Degraded, but triggered by overload rather than stale
	// monitoring data.
	Brownout bool
}

// Estimate is the part of a Prediction that service replies read: the
// total, the first segment's critical rank, and the degraded-mode markers —
// Prediction minus the per-segment, per-process breakdown.
type Estimate struct {
	Seconds    float64 // Σ over segments of S_M, equal to Prediction.Seconds
	Critical   int     // critical rank of the first segment; -1 when there is none
	Degraded   bool    // as Prediction.Degraded
	StaleNodes []int   // as Prediction.StaleNodes
	Brownout   bool    // as Prediction.Brownout
}

// Evaluator predicts execution times for mappings of one profiled
// application on one calibrated cluster. It is the core CBES module that
// serves mapping-comparison requests.
//
// An Evaluator is safe for concurrent use: Predict, Estimate, and Energy may
// be called from multiple goroutines, and each Scorer drawn from it carries
// its own scratch state. Do not copy an Evaluator after first use (derive
// the NCS variant with CommBlind instead).
type Evaluator struct {
	Topo  *cluster.Topology
	Model *netmodel.Model
	Prof  *profile.Profile
	// IgnoreComm drops the communication term C_i entirely. This is the
	// cost function of the NCS baseline scheduler of §6: it can rank
	// mappings by computation speed but its scores are not execution-time
	// predictions.
	IgnoreComm bool

	mu     sync.Mutex // guards lazy fastIx construction
	fastIx *fastIndex
	pool   sync.Pool // *Scorer arenas for Energy, Estimate, and Predict

	nominalOnce sync.Once
	nominal     *monitor.Snapshot // lazily-built brownout view (see PredictBrownout)
	brownAgg    []brownoutAgg     // lazily-built per-rank profile aggregate
}

// brownoutAgg collapses one rank's profile across every segment — the
// precomputation behind the O(ranks) brownout sketch. work is
// Σ(X+O)·ProfSpeed (the speed-independent numerator of eq. 5's R term);
// sends/recvs merge the rank's message groups λ-weighted, so one
// latency lookup per (peer, size) replaces one per segment.
type brownoutAgg struct {
	work  float64
	sends []aggMsg
	recvs []aggMsg
}

// aggMsg is a λ-weighted message-group aggregate: wcount · lat(size)
// approximates Σ_segments λ·Count·lat(size) for one peer.
type aggMsg struct {
	peer   int
	size   int64
	wcount float64
}

// addWeighted merges λ·Count for one message group into the aggregate.
func addWeighted(groups []aggMsg, peer int, size int64, w float64) []aggMsg {
	for i := range groups {
		if groups[i].peer == peer && groups[i].size == size {
			groups[i].wcount += w
			return groups
		}
	}
	return append(groups, aggMsg{peer: peer, size: size, wcount: w})
}

// NewEvaluator builds an evaluator after sanity-checking its inputs. The
// fast-path lookup tables are precomputed here, so the evaluator can be
// shared across scheduler workers without further synchronization.
func NewEvaluator(topo *cluster.Topology, model *netmodel.Model, prof *profile.Profile) (*Evaluator, error) {
	if prof.Cluster != topo.Name {
		return nil, fmt.Errorf("core: profile from cluster %q, topology is %q", prof.Cluster, topo.Name)
	}
	if !prof.LambdasReady {
		return nil, fmt.Errorf("core: profile lambdas not computed; call Profile.ComputeLambdas first")
	}
	e := &Evaluator{Topo: topo, Model: model, Prof: prof}
	e.fast()
	return e, nil
}

// Estimate evaluates mapping m under the resource conditions of snap and
// returns what a service reply reads of the prediction. It runs the Scorer
// kernel on a pooled arena and, on a snapshot with no stale mapped node,
// does not allocate.
func (e *Evaluator) Estimate(m Mapping, snap *monitor.Snapshot) (Estimate, error) {
	defer observePredict(time.Now())
	s := e.pooledScorer()
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
	s := e.pooledScorer()
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
// data entirely — from a per-rank aggregate of the profile rather than
// a segment-by-segment walk. It is the brownout fast path the service
// uses while shedding load, so it MUST be cheap: O(ranks) instead of
// Predict's O(segments × ranks), or the degraded path would consume the
// very capacity whose exhaustion triggered it. The answer depends only
// on the profile and the topology (valid for the process lifetime,
// cacheable without an epoch), is coarser than Predict — the critical
// rank is assumed constant across the run, so barrier effects inside
// segments are lost and no per-segment breakdown is produced — and is
// explicitly labeled via Prediction.Brownout.
func (e *Evaluator) PredictBrownout(m Mapping) (*Prediction, error) {
	if len(m) != e.Prof.Ranks {
		return nil, fmt.Errorf("core: mapping has %d ranks, profile has %d", len(m), e.Prof.Ranks)
	}
	if err := m.Validate(e.Topo); err != nil {
		return nil, err
	}
	e.nominalOnce.Do(func() {
		n := e.Topo.NumNodes()
		e.nominal = &monitor.Snapshot{
			AvailCPU: make([]float64, n),
			NICUtil:  make([]float64, n),
		}
		for i := range e.nominal.AvailCPU {
			e.nominal.AvailCPU[i] = 1.0
		}
		aggs := make([]brownoutAgg, e.Prof.Ranks)
		for si := range e.Prof.Segments {
			for pi := range e.Prof.Segments[si].Procs {
				pp := &e.Prof.Segments[si].Procs[pi]
				a := &aggs[pp.Rank]
				a.work += (pp.X + pp.O) * pp.ProfSpeed
				if pp.Lambda == 0 {
					continue
				}
				for _, g := range pp.Sends {
					a.sends = addWeighted(a.sends, g.Peer, g.Size, pp.Lambda*float64(g.Count))
				}
				for _, g := range pp.Recvs {
					a.recvs = addWeighted(a.recvs, g.Peer, g.Size, pp.Lambda*float64(g.Count))
				}
			}
		}
		e.brownAgg = aggs
	})
	mult := m.Multiplicity()
	pred := &Prediction{Mapping: m.Clone(), Brownout: true}
	for r := range e.brownAgg {
		a := &e.brownAgg[r]
		node := m[r]
		n := e.Topo.Node(node)
		speed, ok := e.Prof.ArchSpeed[n.Arch]
		if !ok || speed <= 0 {
			speed = n.Speed
		}
		acpu := 1.0
		if co := mult[node]; co > 1 {
			if share := float64(n.CPUs) / float64(co); share < 1 {
				acpu = share
			}
		}
		total := a.work / speed / acpu
		if !e.IgnoreComm {
			for _, g := range a.sends {
				total += g.wcount * e.Model.Latency(node, m[g.peer], g.size, e.nominal)
			}
			for _, g := range a.recvs {
				total += g.wcount * e.Model.Latency(m[g.peer], node, g.size, e.nominal)
			}
		}
		if total > pred.Seconds {
			pred.Seconds = total
		}
	}
	metricBrownoutPredicts.Inc()
	return pred, nil
}
