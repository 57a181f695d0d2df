// Package profile implements the application-dedicated half of the CBES
// infrastructure: application profiles extracted from execution traces.
//
// An application profile is "a summary of an application's behavior" (§2):
// for every process it records the accumulated own-code time X, the
// message-passing overhead time O, the blocked time B and the sets of
// same-size message groups exchanged with every peer. For heterogeneous
// clusters it also carries the experimentally measured per-architecture
// compute-speed ratios and the profiling mapping. A profile holds each
// measurement once; package core derives the estimator's coefficients:
// λ of eq. 7 from B, Theta and its network model, and Speed_profile of
// eq. 5 as the measured speed of rank i's profiling node Mapping[i].
package profile

import (
	"encoding/json"
	"fmt"
	"io"

	"cbes/internal/cluster"
	"cbes/internal/trace"
)

// ProcProfile summarises one process within one segment: what was
// measured of rank Rank. The node it ran on is the profile's Mapping[Rank].
type ProcProfile struct {
	Rank int     `json:"rank"`
	X    float64 `json:"x"` // s executing own code
	O    float64 `json:"o"` // s executing message-passing library code
	B    float64 `json:"b"` // s blocked on communication
	// Sends and Recvs are the same-size message groups (mgS/mgR of eq. 6).
	Sends []trace.MsgGroup `json:"sends"`
	Recvs []trace.MsgGroup `json:"recvs"`
}

// SegmentProfile is the profile of one application phase.
type SegmentProfile struct {
	Name  string        `json:"name"`
	Procs []ProcProfile `json:"procs"`
}

// Profile is a complete application profile.
type Profile struct {
	App     string `json:"app"`
	Cluster string `json:"cluster"`
	// Mapping is the rank->node assignment used while profiling; its
	// length is the application's rank count.
	Mapping []int `json:"mapping"`
	// ArchSpeed holds the application's measured compute speed on each
	// architecture, relative to the reference (bench.MeasureArchSpeeds).
	ArchSpeed map[cluster.Arch]float64 `json:"arch_speed"`
	Segments  []SegmentProfile         `json:"segments"`
}

// FromTrace analyses an execution trace into a profile. archSpeed carries
// the measured per-architecture speeds of this application, and every
// profiling node's architecture must have one. A trace without ranks, one
// that names a node outside topo or a rank outside the trace, a process
// record on another node than the mapping gives its rank, or one that
// counts a negative number of messages or bytes, is an error
// (FuzzFromTrace).
func FromTrace(tr *trace.Trace, topo *cluster.Topology, archSpeed map[cluster.Arch]float64) (*Profile, error) {
	if tr.Cluster != topo.Name {
		return nil, fmt.Errorf("profile: trace from cluster %q, topology is %q", tr.Cluster, topo.Name)
	}
	if tr.Ranks < 1 || len(tr.Mapping) != tr.Ranks {
		return nil, fmt.Errorf("profile: trace of %d ranks maps %d", tr.Ranks, len(tr.Mapping))
	}
	for rank, node := range tr.Mapping {
		if node < 0 || node >= topo.NumNodes() {
			return nil, fmt.Errorf("profile: rank %d mapped to node %d, outside the topology", rank, node)
		}
		if arch := topo.Node(node).Arch; !(archSpeed[arch] > 0) {
			return nil, fmt.Errorf("profile: rank %d on node %d: no measured speed for architecture %q", rank, node, arch)
		}
	}
	p := &Profile{
		App:       tr.App,
		Cluster:   tr.Cluster,
		Mapping:   append([]int(nil), tr.Mapping...),
		ArchSpeed: map[cluster.Arch]float64{},
	}
	for a, s := range archSpeed {
		p.ArchSpeed[a] = s
	}
	for _, seg := range tr.Segments {
		sp := SegmentProfile{Name: seg.Name}
		for _, pt := range seg.Procs {
			if err := checkProc(&pt, tr.Mapping); err != nil {
				return nil, fmt.Errorf("profile: segment %q: %w", seg.Name, err)
			}
			sp.Procs = append(sp.Procs, ProcProfile{
				Rank:  pt.Rank,
				X:     pt.Run.Seconds(),
				O:     pt.Overhead.Seconds(),
				B:     pt.Blocked.Seconds(),
				Sends: append([]trace.MsgGroup(nil), pt.Sends...),
				Recvs: append([]trace.MsgGroup(nil), pt.Recvs...),
			})
		}
		p.Segments = append(p.Segments, sp)
	}
	return p, nil
}

// checkProc rejects a process record that would index outside the
// mapping, ran on another node than the mapping gives its rank, or counts
// backwards.
func checkProc(pt *trace.ProcTrace, mapping []int) error {
	if pt.Rank < 0 || pt.Rank >= len(mapping) {
		return fmt.Errorf("rank %d outside [0, %d)", pt.Rank, len(mapping))
	}
	if pt.Node != mapping[pt.Rank] {
		return fmt.Errorf("rank %d on node %d, mapped to node %d", pt.Rank, pt.Node, mapping[pt.Rank])
	}
	return checkGroups(pt.Rank, len(mapping), pt.Sends, pt.Recvs)
}

// checkGroups rejects a message group whose peer lies outside [0, ranks)
// or that counts a negative number of messages or bytes.
func checkGroups(rank, ranks int, sends, recvs []trace.MsgGroup) error {
	for _, gs := range [2][]trace.MsgGroup{sends, recvs} {
		for _, g := range gs {
			if g.Peer < 0 || g.Peer >= ranks {
				return fmt.Errorf("rank %d: peer %d outside [0, %d)", rank, g.Peer, ranks)
			}
			if g.Count < 0 || g.Size < 0 {
				return fmt.Errorf("rank %d: %d messages of %d bytes with peer %d", rank, g.Count, g.Size, g.Peer)
			}
		}
	}
	return nil
}

// Theta computes the theoretical communication time Θ_i of eq. 6 for one
// process under an arbitrary mapping (rank -> node), using the supplied
// latency function (no-load or load-adjusted).
func Theta(pp *ProcProfile, mapping []int, lat func(srcNode, dstNode int, size int64) float64) float64 {
	my := mapping[pp.Rank]
	theta := 0.0
	for _, g := range pp.Recvs {
		theta += float64(g.Count) * lat(mapping[g.Peer], my, g.Size)
	}
	for _, g := range pp.Sends {
		theta += float64(g.Count) * lat(my, mapping[g.Peer], g.Size)
	}
	return theta
}

// CommFraction reports the fraction of the profiled execution spent on
// communication (B against X+O+B), aggregated over segments for the
// critical (slowest) process — the computation-to-communication ratio the
// paper uses when discussing CBES suitability (§6.2).
func (p *Profile) CommFraction() float64 {
	totalBusy, totalB := 0.0, 0.0
	for _, seg := range p.Segments {
		// Use the process with the largest busy time as representative.
		bi, best := -1, 0.0
		for i, pp := range seg.Procs {
			busy := pp.X + pp.O + pp.B
			if busy > best {
				best, bi = busy, i
			}
		}
		if bi >= 0 {
			pp := seg.Procs[bi]
			totalBusy += pp.X + pp.O + pp.B
			totalB += pp.B
		}
	}
	if totalBusy == 0 {
		return 0
	}
	return totalB / totalBusy
}

// Encode writes the profile as JSON.
func (p *Profile) Encode(w io.Writer) error { return json.NewEncoder(w).Encode(p) }

// Decode reads a profile written by Encode. A stored profile is outside
// input, so Decode rejects one an evaluation could not index or would sum
// to infinity (FuzzDecodeProfile): the mapping must not be empty, process
// ranks and message peers must lie in [0, len(Mapping)), message counts
// and sizes must not be negative, times must lie in [0, maxValue], and
// architecture speeds in [minSpeed, maxValue]. A profile stored before
// package core derived λ and Speed_profile carries "lambda",
// "lambdas_ready", "ranks", "prof_node" and "prof_speed" keys; Decode
// ignores them like any unknown key.
func Decode(r io.Reader) (*Profile, error) {
	var p Profile
	if err := json.NewDecoder(r).Decode(&p); err != nil {
		return nil, fmt.Errorf("profile: decode: %w", err)
	}
	if err := p.validate(); err != nil {
		return nil, fmt.Errorf("profile: decode: %w", err)
	}
	return &p, nil
}

// maxValue bounds the seconds and speeds a decoded profile carries;
// minSpeed bounds an architecture's speed ratio from below.
const (
	maxValue = 1e9
	minSpeed = 1e-9
)

func (p *Profile) validate() error {
	ranks := len(p.Mapping)
	if ranks == 0 {
		return fmt.Errorf("empty mapping")
	}
	for arch, s := range p.ArchSpeed {
		if !(s >= minSpeed && s <= maxValue) {
			return fmt.Errorf("architecture %q: speed %v outside [%g, %g]", arch, s, minSpeed, maxValue)
		}
	}
	for _, seg := range p.Segments {
		for _, pp := range seg.Procs {
			if pp.Rank < 0 || pp.Rank >= ranks {
				return fmt.Errorf("segment %q: rank %d outside [0, %d)", seg.Name, pp.Rank, ranks)
			}
			for _, v := range [...]float64{pp.X, pp.O, pp.B} {
				if !(v >= 0 && v <= maxValue) {
					return fmt.Errorf("segment %q: rank %d: value %v outside [0, %g]", seg.Name, pp.Rank, v, maxValue)
				}
			}
			if err := checkGroups(pp.Rank, ranks, pp.Sends, pp.Recvs); err != nil {
				return fmt.Errorf("segment %q: %w", seg.Name, err)
			}
		}
	}
	return nil
}
