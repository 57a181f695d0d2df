package core

import (
	"fmt"
	"sort"

	"cbes/internal/monitor"
	"cbes/internal/profile"
)

// The test oracle: the segment-by-segment evaluation of eqs. 4-8 through
// Model.Latency, a cloned degraded snapshot, and a multiplicity map — the
// implementation Predict had before it was rebuilt on the Scorer kernel,
// kept as it was. It shares no arithmetic with the kernel (no fastIndex, no
// class table, no scorer state), so comparing against it is a differential
// check of the production path rather than the kernel against itself.

// oraclePredict evaluates mapping m under snap the way Predict used to.
func oraclePredict(e *Evaluator, m Mapping, snap *monitor.Snapshot) (*Prediction, error) {
	if len(m) != len(e.Prof.Mapping) {
		return nil, fmt.Errorf("core: mapping has %d ranks, profile has %d", len(m), len(e.Prof.Mapping))
	}
	if err := m.Validate(e.Topo); err != nil {
		return nil, err
	}
	anyStale, err := checkNodesUp(m, snap)
	if err != nil {
		return nil, err
	}
	mult := m.Multiplicity()
	pred := &Prediction{Mapping: m.Clone()}
	if anyStale {
		// Degraded mode: evaluate against the profile-only fallback view.
		snap = degradedSnapshot(snap)
		pred.Degraded = true
		seen := map[int]bool{}
		for _, n := range m {
			if !seen[n] && snap.HealthOf(n) == monitor.HealthSuspect {
				seen[n] = true
				pred.StaleNodes = append(pred.StaleNodes, n)
			}
		}
		sort.Ints(pred.StaleNodes)
	}
	for _, seg := range e.Prof.Segments {
		se := SegmentEstimate{Name: seg.Name, Critical: -1}
		for i := range seg.Procs {
			pp := &seg.Procs[i]
			node := m[pp.Rank]
			est := ProcEstimate{Rank: pp.Rank, Lambda: e.lambdaOf(pp)}
			est.R = e.computeTerm(pp, node, mult[node], snap)
			if !e.ignoreComm {
				est.C = e.commTerm(pp, est.Lambda, m, snap)
			}
			se.Procs = append(se.Procs, est)
			if t := est.Total(); se.Critical < 0 || t > se.Seconds {
				se.Seconds = t
				se.Critical = pp.Rank
			}
		}
		pred.Seconds += se.Seconds
		pred.Segments = append(pred.Segments, se)
	}
	return pred, nil
}

// oracleBrownout is what PredictBrownout estimates, summed the long way:
// the largest over ranks of the rank's R+C summed over segments, read off
// oraclePredict on the idle snapshot.
func oracleBrownout(e *Evaluator, m Mapping) (float64, error) {
	pred, err := oraclePredict(e, m, monitor.IdleSnapshot(e.Topo.NumNodes()))
	if err != nil {
		return 0, err
	}
	perRank := make([]float64, len(m))
	for _, seg := range pred.Segments {
		for _, p := range seg.Procs {
			perRank[p.Rank] += p.Total()
		}
	}
	peak := 0.0
	for _, t := range perRank {
		if t > peak {
			peak = t
		}
	}
	return peak, nil
}

// degradedSnapshot substitutes profile-only fallback values for every
// stale (HealthSuspect) node of snap: nominal CPU availability and an idle
// NIC, i.e. the prediction degrades to what the profile alone supports
// rather than trusting forecasts past their TTL. The input is not
// modified.
func degradedSnapshot(snap *monitor.Snapshot) *monitor.Snapshot {
	c := snap.Clone()
	for i, h := range c.Health {
		if h == monitor.HealthSuspect {
			c.AvailCPU[i] = 1.0
			c.NICUtil[i] = 0.0
		}
	}
	return c
}

// computeTerm is R_i of eq. 5, Speed_profile_i being the measured speed of
// the architecture of rank i's profiling node.
func (e *Evaluator) computeTerm(pp *profile.ProcProfile, node, coLocated int, snap *monitor.Snapshot) float64 {
	n := e.Topo.Node(node)
	speed, ok := e.Prof.ArchSpeed[n.Arch]
	if !ok || speed <= 0 {
		// Fall back to the architecture's nominal speed when the profile
		// lacks a measurement (should not happen with bench-built profiles).
		speed = n.Speed
	}
	acpu := snap.AvailCPU[node]
	if coLocated > 1 {
		share := float64(n.CPUs) / float64(coLocated)
		if share < 1 {
			acpu *= share
		}
	}
	if acpu < 0.01 {
		acpu = 0.01
	}
	profSpeed := e.Prof.ArchSpeed[e.Topo.Node(e.Prof.Mapping[pp.Rank]).Arch]
	return (pp.X + pp.O) * (profSpeed / speed) * (1 / acpu)
}

// lambdaOf is λ_i = B_i / Θ_i^profile (eq. 7): Θ under the profiling
// mapping and the model's no-load latencies, λ = 0 when Θ is not positive.
// It reads the evaluator's model, not the kernel's precomputed λ.
func (e *Evaluator) lambdaOf(pp *profile.ProcProfile) float64 {
	theta := profile.Theta(pp, e.Prof.Mapping, e.Model.NoLoad)
	if theta <= 0 {
		return 0
	}
	return pp.B / theta
}

// commTerm is C_i = λ_i · Θ_i (eqs. 6 and 8), with Lc the load-adjusted
// latency estimate of the network model.
func (e *Evaluator) commTerm(pp *profile.ProcProfile, lambda float64, m Mapping, snap *monitor.Snapshot) float64 {
	if lambda == 0 {
		return 0
	}
	theta := profile.Theta(pp, m, func(src, dst int, size int64) float64 {
		return e.Model.Latency(src, dst, size, snap)
	})
	return theta * lambda
}
