package remap

import (
	"cbes/internal/cluster"
	"cbes/internal/core"
	"cbes/internal/mpisim"
	"cbes/internal/vcluster"
	"cbes/internal/workloads"
)

// ClusterRunner executes segments of an iterative workload on fresh
// instances of a topology (checkpoint/restart semantics), with an optional
// static background-load map — the SegmentRunner the Execute loop drives.
type ClusterRunner struct {
	Topo *cluster.Topology
	Spec workloads.Iterative
	// Load maps node ID -> availability applied during every segment.
	Load map[int]float64
}

// Iterations reports the workload's total iteration count.
func (cr *ClusterRunner) Iterations() int { return cr.Spec.Iterations }

// RunSegment executes iterations [from, to) on the mapping and returns the
// simulated seconds elapsed.
func (cr *ClusterRunner) RunSegment(mapping core.Mapping, from, to int) float64 {
	prog := cr.Spec.Segment(from, to)
	res, err := mpisim.RunAlone(cr.Topo, vcluster.Background{Avail: cr.Load}, mapping, prog.Body, prog.Options())
	if err != nil {
		panic(err)
	}
	return res.Elapsed.Seconds()
}

var _ SegmentRunner = (*ClusterRunner)(nil)
