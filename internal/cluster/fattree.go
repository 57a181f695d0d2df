package cluster

import (
	"fmt"

	"cbes/internal/des"
)

// Modern bandwidth constants in bytes/second, for the structured
// topologies (the 2005 testbeds keep their Fast Ethernet constants).
const (
	BandwidthGigE    = 1e9 / 8  // 1 Gb/s node NIC
	BandwidthTenGigE = 10e9 / 8 // 10 Gb/s fabric uplink
)

// FatTreeSpec parameterizes a k-ary fat tree (Clos): k pods of k/2 edge
// and k/2 aggregation switches, (k/2)² core switches, and k³/4 nodes.
// k = 16 gives 1024 nodes, k = 28 gives 5488.
type FatTreeSpec struct {
	// K is the switch radix; even and >= 2.
	K int
	// Archs assigns node architectures round-robin by node ID; repeats
	// express mix ratios ({alpha, alpha, intel} = 2:1). Default {ArchRef}.
	Archs []Arch
	// NodeBandwidth/NodeLatency describe the node NIC links
	// (default 1 GigE / 5 µs); UpBandwidth/UpLatency the edge–agg and
	// agg–core fabric links (default 10 GigE / 5 µs).
	NodeBandwidth float64
	UpBandwidth   float64
	NodeLatency   des.Time
	UpLatency     des.Time
}

func (s *FatTreeSpec) defaults() {
	if s.NodeBandwidth <= 0 {
		s.NodeBandwidth = BandwidthGigE
	}
	if s.UpBandwidth <= 0 {
		s.UpBandwidth = BandwidthTenGigE
	}
	if s.NodeLatency <= 0 {
		s.NodeLatency = 5 * des.Microsecond
	}
	if s.UpLatency <= 0 {
		s.UpLatency = 5 * des.Microsecond
	}
}

// fatTreeRouter routes algebraically on the k-ary fat tree. With h = k/2:
//
//	node(p,e,m)  = (p·h+e)·h + m          NIC link ID = node ID
//	edge(p,e)    = p·h+e                  switch IDs: edges, then aggs,
//	agg(p,a)     = k·h + p·h+a            then cores
//	core(a,j)    = 2·k·h + a·h+j          attached to agg index a, port j
//	edge–agg(p,e,a) link = N + (p·h+e)·h + a
//	agg–core(p,a,j) link = N + k·h² + (p·h+a)·h + j
//
// Deterministic up-routing spreads load the way per-destination ECMP
// hashing would: the aggregation index is dst mod h and the core port is
// dst's edge position in its pod, so traffic to distinct destinations on
// one edge switch fans over all h aggs.
type fatTreeRouter struct {
	h      int // k/2
	n      int // node count k³/4
	eaBase int // first edge–agg link ID (== n)
	acBase int // first agg–core link ID
	grid   shapeGrid
}

// Fat-tree route shapes (shape 0 is loopback by shapeGrid convention).
const (
	ftShapeLoop     = 0 // src == dst
	ftShapeSameEdge = 1 // 2 links through the shared edge switch
	ftShapeSamePod  = 2 // 4 links via one aggregation switch
	ftShapeCrossPod = 3 // 6 links via one core switch
	ftShapes        = 4
)

func (r *fatTreeRouter) shape(src, dst int) int {
	switch {
	case src == dst:
		return ftShapeLoop
	case src/r.h == dst/r.h:
		return ftShapeSameEdge
	case src/(r.h*r.h) == dst/(r.h*r.h):
		return ftShapeSamePod
	default:
		return ftShapeCrossPod
	}
}

func (r *fatTreeRouter) appendPath(buf []int, src, dst int) []int {
	if src == dst {
		return buf
	}
	h := r.h
	se, de := src/h, dst/h // global edge-switch indexes
	if se == de {
		return append(buf, src, dst)
	}
	a := dst % h // aggregation index chosen per destination
	eaS := r.eaBase + se*h + a
	eaD := r.eaBase + de*h + a
	sp, dp := se/h, de/h // pods
	if sp == dp {
		return append(buf, src, eaS, eaD, dst)
	}
	j := de % h // core port: dst's edge position within its pod
	acS := r.acBase + (sp*h+a)*h + j
	acD := r.acBase + (dp*h+a)*h + j
	return append(buf, src, eaS, acS, acD, eaD, dst)
}

func (r *fatTreeRouter) hops(src, dst int) int {
	return [ftShapes]int{0, 2, 4, 6}[r.shape(src, dst)]
}

func (r *fatTreeRouter) classID(src, dst int) int {
	return r.grid.id(r.shape(src, dst), src, dst)
}

// NewFatTree builds a k-ary fat tree with algebraic routing: no stored
// route table, O(N) memory at any scale.
func NewFatTree(spec FatTreeSpec) *Topology {
	if spec.K < 2 || spec.K%2 != 0 {
		panic(fmt.Sprintf("cluster: fat-tree K must be even and >= 2, got %d", spec.K))
	}
	spec.defaults()
	k := spec.K
	h := k / 2
	n := k * h * h
	ai := newArchIndexer(spec.Archs)
	r := &fatTreeRouter{h: h, n: n, eaBase: n, acBase: n + k*h*h,
		grid: shapeGrid{ai: ai, shapes: ftShapes}}

	t := &Topology{
		Name:     fmt.Sprintf("fattree-k%d", k),
		Nodes:    make([]Node, 0, n),
		Switches: make([]Switch, 0, 2*k*h+h*h),
		Links:    make([]Link, 0, n+2*k*h*h),
		archs:    defaultArchTable(ai),
		alg:      r,
	}
	names := newNameArena(cap(t.Nodes) + cap(t.Switches) + cap(t.Links))
	// Switches: edges, aggs, cores — IDs match the router arithmetic.
	for p := 0; p < k; p++ {
		for e := 0; e < h; e++ {
			t.Switches = append(t.Switches, Switch{ID: len(t.Switches),
				Name: names.s("ft-edge-p").d(p).s("-e").d(e).end(), Ports: k, Class: "ftree-edge"})
		}
	}
	for p := 0; p < k; p++ {
		for a := 0; a < h; a++ {
			t.Switches = append(t.Switches, Switch{ID: len(t.Switches),
				Name: names.s("ft-agg-p").d(p).s("-a").d(a).end(), Ports: k, Class: "ftree-agg"})
		}
	}
	for a := 0; a < h; a++ {
		for j := 0; j < h; j++ {
			t.Switches = append(t.Switches, Switch{ID: len(t.Switches),
				Name: names.s("ft-core-a").d(a).s("-j").d(j).end(), Ports: k, Class: "ftree-core"})
		}
	}
	// Nodes and their NIC links first, so link ID == node ID.
	for id := 0; id < n; id++ {
		sw := id / h // edge(p,e) == global edge index
		info := t.archs[ai.arch(id)]
		t.Nodes = append(t.Nodes, Node{ID: id, Name: names.s("ft-n").d4(id).end(),
			Arch: info.Arch, Switch: sw, Speed: info.Speed, CPUs: info.CPUs})
		t.Links = append(t.Links, Link{ID: id,
			A: Device{DevNode, id}, B: Device{DevSwitch, sw},
			Bandwidth: spec.NodeBandwidth, Latency: spec.NodeLatency,
			Name: names.s("ft-n").d4(id).s("<->edge").d(sw).end()})
	}
	// Edge–agg links: (p·h+e)·h + a relative to eaBase.
	for p := 0; p < k; p++ {
		for e := 0; e < h; e++ {
			for a := 0; a < h; a++ {
				edge, agg := p*h+e, k*h+p*h+a
				t.Links = append(t.Links, Link{ID: len(t.Links),
					A: Device{DevSwitch, edge}, B: Device{DevSwitch, agg},
					Bandwidth: spec.UpBandwidth, Latency: spec.UpLatency,
					Name: names.s("ft-ea-p").d(p).s("-e").d(e).s("-a").d(a).end()})
			}
		}
	}
	// Agg–core links: (p·h+a)·h + j relative to acBase.
	for p := 0; p < k; p++ {
		for a := 0; a < h; a++ {
			for j := 0; j < h; j++ {
				agg, core := k*h+p*h+a, 2*k*h+a*h+j
				t.Links = append(t.Links, Link{ID: len(t.Links),
					A: Device{DevSwitch, agg}, B: Device{DevSwitch, core},
					Bandwidth: spec.UpBandwidth, Latency: spec.UpLatency,
					Name: names.s("ft-ac-p").d(p).s("-a").d(a).s("-j").d(j).end()})
			}
		}
	}
	t.classSigs = r.grid.signatures(func(w *sigWriter, shape int) {
		switch shape {
		case ftShapeSameEdge:
			w.hopSwitch(spec.NodeBandwidth, "ftree-edge")
		case ftShapeSamePod:
			w.hopSwitch(spec.NodeBandwidth, "ftree-edge")
			w.hopSwitch(spec.UpBandwidth, "ftree-agg")
			w.hopSwitch(spec.UpBandwidth, "ftree-edge")
		case ftShapeCrossPod:
			w.hopSwitch(spec.NodeBandwidth, "ftree-edge")
			w.hopSwitch(spec.UpBandwidth, "ftree-agg")
			w.hopSwitch(spec.UpBandwidth, "ftree-core")
			w.hopSwitch(spec.UpBandwidth, "ftree-agg")
			w.hopSwitch(spec.UpBandwidth, "ftree-edge")
		}
		w.hopNode(spec.NodeBandwidth)
	})
	t.buildIndexes()
	return t
}
