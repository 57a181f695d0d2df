package cluster

import (
	"fmt"
	"strings"

	"cbes/internal/des"
)

// Modern bandwidth constants in bytes/second, for the fat tree (the 2005
// testbeds keep their Fast Ethernet constants).
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

// fatTreeRouter lays out and routes the k-ary fat tree. With h = k/2:
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
//
// A path class is a route shape and the two end architectures: with A
// distinct architectures its ID is (shape·A + arch(src))·A + arch(dst).
type fatTreeRouter struct {
	n      int // node count, and so the first edge–agg link ID
	h      int // k/2, the nodes per edge switch
	acBase int // first agg–core link ID
	ai     *archIndexer
	nicBW  float64 // node NIC links
	nicLat des.Time
	upBW   float64 // edge–agg and agg–core links
	upLat  des.Time
}

// Fat-tree route shapes.
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
	eaS := r.n + se*h + a
	eaD := r.n + de*h + a
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
	a := len(r.ai.archs)
	return (r.shape(src, dst)*a+r.ai.index(src))*a + r.ai.index(dst)
}

// edges is the switch count of one tier (k·h; the core tier has h²).
func (r *fatTreeRouter) edges() int { return 2 * r.h * r.h }

func (r *fatTreeRouter) numSwitches() int { return 2*r.edges() + r.h*r.h }

func (r *fatTreeRouter) numLinks() int { return r.acBase + r.n }

func (r *fatTreeRouter) node(id int) Node {
	info := r.ai.info[r.ai.index(id)]
	return Node{ID: id, Arch: info.Arch, Switch: id / r.h, Speed: info.Speed, CPUs: info.CPUs}
}

func (r *fatTreeRouter) sw(id int) Switch {
	class := "ftree-core"
	switch {
	case id < r.edges():
		class = "ftree-edge"
	case id < 2*r.edges():
		class = "ftree-agg"
	}
	return Switch{ID: id, Ports: 2 * r.h, Class: class}
}

func (r *fatTreeRouter) link(id int) Link {
	h, kh := r.h, r.edges()
	var a, b int
	switch {
	case id < r.n: // node id's cable to its edge switch
		return Link{ID: id, A: Device{DevNode, id}, B: Device{DevSwitch, id / h},
			Bandwidth: r.nicBW, Latency: r.nicLat}
	case id < r.acBase:
		i := id - r.n // (p·h+e)·h + a
		edge := i / h
		a, b = edge, kh+edge/h*h+i%h
	default:
		i := id - r.acBase // (p·h+a)·h + j
		pa := i / h
		a, b = kh+pa, 2*kh+pa%h*h+i%h
	}
	return Link{ID: id, A: Device{DevSwitch, a}, B: Device{DevSwitch, b}, Bandwidth: r.upBW, Latency: r.upLat}
}

func (r *fatTreeRouter) nodeName(id int) string { return fmt.Sprintf("ft-n%04d", id) }

func (r *fatTreeRouter) linkName(id int) string {
	h := r.h
	switch {
	case id < r.n:
		return fmt.Sprintf("ft-n%04d<->edge%d", id, id/h)
	case id < r.acBase:
		i := id - r.n
		return fmt.Sprintf("ft-ea-p%d-e%d-a%d", i/h/h, i/h%h, i%h)
	}
	i := id - r.acBase
	return fmt.Sprintf("ft-ac-p%d-a%d-j%d", i/h/h, i/h%h, i%h)
}

// interior appends a route shape's signature between its end
// architectures to w.
func (r *fatTreeRouter) interior(w *sigWriter, shape int) {
	switch shape {
	case ftShapeSameEdge:
		w.hopSwitch(r.nicBW, "ftree-edge")
	case ftShapeSamePod:
		w.hopSwitch(r.nicBW, "ftree-edge")
		w.hopSwitch(r.upBW, "ftree-agg")
		w.hopSwitch(r.upBW, "ftree-edge")
	case ftShapeCrossPod:
		w.hopSwitch(r.nicBW, "ftree-edge")
		w.hopSwitch(r.upBW, "ftree-agg")
		w.hopSwitch(r.upBW, "ftree-core")
		w.hopSwitch(r.upBW, "ftree-agg")
		w.hopSwitch(r.upBW, "ftree-edge")
	}
	w.hopNode(r.nicBW)
}

// signatures builds the signature table indexed by classID. Each shape's
// interior is spelled once and the table is copied into a single buffer
// of exactly its size, so a build allocates a few kB whatever k is.
func (r *fatTreeRouter) signatures() []string {
	archs := r.ai.archs
	a := len(archs)
	var mids sigWriter
	var ends [ftShapes]int
	for shape := 1; shape < ftShapes; shape++ {
		r.interior(&mids, shape)
		ends[shape] = mids.sb.Len()
	}
	interiors := mids.sb.String()
	archBytes := 0
	for _, arch := range archs {
		archBytes += len(arch)
	}
	var w strings.Builder
	w.Grow(len("loop|")*a + archBytes + // the loopback diagonal
		a*a*(len(interiors)+ftShapes-1) + 2*a*archBytes*(ftShapes-1))
	spelled := func(from int) string { return w.String()[from:] }
	sigs := make([]string, ftShapes*a*a)
	for si, arch := range archs {
		from := w.Len()
		w.WriteString(loopSignature(arch))
		sigs[si*a+si] = spelled(from) // off-diagonal loop slots cover no pairs; leave them ""
	}
	for shape := 1; shape < ftShapes; shape++ {
		mid := interiors[ends[shape-1]:ends[shape]]
		for si, src := range archs {
			for di, dst := range archs {
				from := w.Len()
				w.WriteString(string(src))
				w.WriteString(mid)
				w.WriteByte('|')
				w.WriteString(string(dst))
				sigs[(shape*a+si)*a+di] = spelled(from)
			}
		}
	}
	return sigs
}

// NewFatTree builds a k-ary fat tree whose records and routes are
// computed from coordinates: O(1) memory at any scale.
func NewFatTree(spec FatTreeSpec) *Topology {
	if spec.K < 2 || spec.K%2 != 0 {
		panic(fmt.Sprintf("cluster: fat-tree K must be even and >= 2, got %d", spec.K))
	}
	spec.defaults()
	k := spec.K
	h := k / 2
	n := k * h * h
	r := &fatTreeRouter{
		n: n, h: h, acBase: 2 * n, ai: newArchIndexer(spec.Archs),
		nicBW: spec.NodeBandwidth, nicLat: spec.NodeLatency,
		upBW: spec.UpBandwidth, upLat: spec.UpLatency,
	}
	return &Topology{Name: fmt.Sprintf("fattree-k%d", k), alg: r, classSigs: r.signatures()}
}
