package cluster

import (
	"fmt"
	"math"

	"cbes/internal/des"
)

// DragonflySpec parameterizes a dragonfly: groups of A routers, each
// router hosting P nodes and H global links, routers all-to-all connected
// inside a group and group pairs connected by one global link. The
// canonical maximal configuration has G = A·H + 1 groups.
// P=4 A=8 H=4 gives 33 groups × 32 nodes = 1056; P=8 A=8 H=8 gives 4160.
type DragonflySpec struct {
	// P is nodes per router, A routers per group, H global links per
	// router (all >= 1).
	P, A, H int
	// Groups overrides the group count (2..A·H+1; default A·H+1).
	Groups int
	// Archs assigns node architectures round-robin by node ID.
	Archs []Arch
	// Link characteristics: node NIC (default 1 GigE / 5 µs), intra-group
	// local links (default 10 GigE / 5 µs), inter-group global links
	// (default 10 GigE / 50 µs — long optics).
	NodeBandwidth   float64
	LocalBandwidth  float64
	GlobalBandwidth float64
	NodeLatency     des.Time
	LocalLatency    des.Time
	GlobalLatency   des.Time
}

func (s *DragonflySpec) defaults() {
	if s.Groups == 0 {
		s.Groups = s.A*s.H + 1
	}
	if s.NodeBandwidth <= 0 {
		s.NodeBandwidth = BandwidthGigE
	}
	if s.LocalBandwidth <= 0 {
		s.LocalBandwidth = BandwidthTenGigE
	}
	if s.GlobalBandwidth <= 0 {
		s.GlobalBandwidth = BandwidthTenGigE
	}
	if s.NodeLatency <= 0 {
		s.NodeLatency = 5 * des.Microsecond
	}
	if s.LocalLatency <= 0 {
		s.LocalLatency = 5 * des.Microsecond
	}
	if s.GlobalLatency <= 0 {
		s.GlobalLatency = 50 * des.Microsecond
	}
}

// Dragonfly route shapes: minimal routing takes at most one local hop to
// the gateway router, one global hop, and one local hop from the far
// gateway. (Minimal routing is a policy, not graph-shortest-path: rare
// gateway coincidences admit shorter walks through a third group, which
// real dragonfly minimal routing also ignores.)
const (
	dfShapeLoop       = 0 // src == dst
	dfShapeSameRouter = 1 // 2 links through the shared router
	dfShapeSameGroup  = 2 // 3 links: one local hop
	dfShapeCross      = 3 // 3+pre*2+post: cross-group, pre/post local hops
	dfShapes          = 7
)

// dragonflyRouter routes minimally. Layout invariants:
//
//	router(g,r) switch ID = g·A + r
//	node(g,r,m) ID = (g·A+r)·P + m        NIC link ID = node ID
//	local(g,i,j) link = localBase + g·C(A,2) + triIdx(i,j,A)
//	global(gi,gj) link = globalBase + triIdx(gi,gj,G)
//
// The gateway router of group g for target group g2 is t/H with
// t = g2 − [g2 > g], the standard round-robin global-link assignment.
type dragonflyRouter struct {
	nicLayout
	p, a, h, g    int
	localBase     int
	globalBase    int
	localPerGroup int // C(A,2)
	localBW       float64
	globalBW      float64
	localLat      des.Time
	globalLat     des.Time
	grid          shapeGrid
}

// triIdx is the upper-triangle pair index of i < j over n elements.
func triIdx(i, j, n int) int { return i*(2*n-i-1)/2 + (j - i - 1) }

// untri inverts triIdx. Row i starts at triIdx(i, i+1, n), a quadratic
// in i; the float root is corrected by a step either way.
func untri(t, n int) (i, j int) {
	m := float64(n) - 0.5
	i = int(m - math.Sqrt(m*m-2*float64(t)))
	for i > 0 && triIdx(i, i+1, n) > t {
		i--
	}
	for i+2 < n && triIdx(i+1, i+2, n) <= t {
		i++
	}
	return i, t - triIdx(i, i+1, n) + i + 1
}

// gateway returns the local router index in group g that holds the
// global link to group g2.
func (r *dragonflyRouter) gateway(g, g2 int) int {
	t := g2
	if g2 > g {
		t = g2 - 1
	}
	return t / r.h
}

func (r *dragonflyRouter) localLink(g, i, j int) int {
	if i > j {
		i, j = j, i
	}
	return r.localBase + g*r.localPerGroup + triIdx(i, j, r.a)
}

func (r *dragonflyRouter) globalLink(gi, gj int) int {
	if gi > gj {
		gi, gj = gj, gi
	}
	return r.globalBase + triIdx(gi, gj, r.g)
}

// route decomposes the pair: shape plus the local hops taken.
func (r *dragonflyRouter) shape(src, dst int) (shape, pre, post int) {
	if src == dst {
		return dfShapeLoop, 0, 0
	}
	r1, r2 := src/r.p, dst/r.p
	if r1 == r2 {
		return dfShapeSameRouter, 0, 0
	}
	g1, g2 := r1/r.a, r2/r.a
	if g1 == g2 {
		return dfShapeSameGroup, 0, 0
	}
	if r1%r.a != r.gateway(g1, g2) {
		pre = 1
	}
	if r2%r.a != r.gateway(g2, g1) {
		post = 1
	}
	return dfShapeCross + pre*2 + post, pre, post
}

func (r *dragonflyRouter) appendPath(buf []int, src, dst int) []int {
	if src == dst {
		return buf
	}
	r1, r2 := src/r.p, dst/r.p
	if r1 == r2 {
		return append(buf, src, dst)
	}
	g1, g2 := r1/r.a, r2/r.a
	l1, l2 := r1%r.a, r2%r.a
	if g1 == g2 {
		return append(buf, src, r.localLink(g1, l1, l2), dst)
	}
	gw1, gw2 := r.gateway(g1, g2), r.gateway(g2, g1)
	buf = append(buf, src)
	if l1 != gw1 {
		buf = append(buf, r.localLink(g1, l1, gw1))
	}
	buf = append(buf, r.globalLink(g1, g2))
	if gw2 != l2 {
		buf = append(buf, r.localLink(g2, gw2, l2))
	}
	return append(buf, dst)
}

func (r *dragonflyRouter) hops(src, dst int) int {
	shape, pre, post := r.shape(src, dst)
	switch shape {
	case dfShapeLoop:
		return 0
	case dfShapeSameRouter:
		return 2
	case dfShapeSameGroup:
		return 3
	default:
		return 3 + pre + post
	}
}

func (r *dragonflyRouter) classID(src, dst int) int {
	shape, _, _ := r.shape(src, dst)
	return r.grid.id(shape, src, dst)
}

func (r *dragonflyRouter) numSwitches() int { return r.g * r.a }

func (r *dragonflyRouter) numLinks() int { return r.globalBase + r.g*(r.g-1)/2 }

func (r *dragonflyRouter) sw(id int) Switch {
	return Switch{ID: id, Ports: r.p + r.a - 1 + r.h, Class: "dfly"}
}

func (r *dragonflyRouter) link(id int) Link {
	if id < r.n {
		return r.nicLink(id)
	}
	if id < r.globalBase {
		g, i, j := r.local(id)
		return Link{ID: id, A: Device{DevSwitch, g*r.a + i}, B: Device{DevSwitch, g*r.a + j},
			Bandwidth: r.localBW, Latency: r.localLat}
	}
	gi, gj := untri(id-r.globalBase, r.g)
	return Link{ID: id,
		A: Device{DevSwitch, gi*r.a + r.gateway(gi, gj)}, B: Device{DevSwitch, gj*r.a + r.gateway(gj, gi)},
		Bandwidth: r.globalBW, Latency: r.globalLat}
}

// local decodes a local link ID into its group and router pair i < j.
func (r *dragonflyRouter) local(id int) (g, i, j int) {
	k := id - r.localBase
	i, j = untri(k%r.localPerGroup, r.a)
	return k / r.localPerGroup, i, j
}

func (r *dragonflyRouter) nodeName(id int) string { return fmt.Sprintf("df-n%04d", id) }

func (r *dragonflyRouter) linkName(id int) string {
	switch {
	case id < r.n:
		return fmt.Sprintf("df-n%04d<->r%d", id, id/r.p)
	case id < r.globalBase:
		g, i, j := r.local(id)
		return fmt.Sprintf("df-local-g%d-%d-%d", g, i, j)
	}
	gi, gj := untri(id-r.globalBase, r.g)
	return fmt.Sprintf("df-global-g%d-g%d", gi, gj)
}

// NewDragonfly builds a dragonfly whose records and minimal routes are
// computed from coordinates.
func NewDragonfly(spec DragonflySpec) *Topology {
	if spec.P < 1 || spec.A < 1 || spec.H < 1 {
		panic(fmt.Sprintf("cluster: dragonfly P/A/H must be >= 1, got p%d a%d h%d", spec.P, spec.A, spec.H))
	}
	spec.defaults()
	if spec.Groups < 2 || spec.Groups > spec.A*spec.H+1 {
		panic(fmt.Sprintf("cluster: dragonfly Groups must be in [2, A*H+1], got %d", spec.Groups))
	}
	p, a, h, g := spec.P, spec.A, spec.H, spec.Groups
	n := g * a * p
	ai := newArchIndexer(spec.Archs)
	r := &dragonflyRouter{
		nicLayout: nicLayout{n: n, perSwitch: p, ai: ai, bandwidth: spec.NodeBandwidth, latency: spec.NodeLatency},
		p:         p, a: a, h: h, g: g,
		localPerGroup: a * (a - 1) / 2,
		localBW:       spec.LocalBandwidth, globalBW: spec.GlobalBandwidth,
		localLat: spec.LocalLatency, globalLat: spec.GlobalLatency,
		grid: shapeGrid{ai: ai, shapes: dfShapes}}
	r.localBase = n
	r.globalBase = n + g*r.localPerGroup

	t := &Topology{Name: fmt.Sprintf("dragonfly-p%da%dh%dg%d", p, a, h, g), alg: r}
	t.classSigs = r.grid.signatures(func(w *sigWriter, shape int) {
		w.hopSwitch(spec.NodeBandwidth, "dfly")
		switch shape {
		case dfShapeSameGroup:
			w.hopSwitch(spec.LocalBandwidth, "dfly")
		case dfShapeCross, dfShapeCross + 1, dfShapeCross + 2, dfShapeCross + 3:
			pre, post := (shape-dfShapeCross)/2, (shape-dfShapeCross)%2
			for i := 0; i < pre; i++ {
				w.hopSwitch(spec.LocalBandwidth, "dfly")
			}
			w.hopSwitch(spec.GlobalBandwidth, "dfly")
			for i := 0; i < post; i++ {
				w.hopSwitch(spec.LocalBandwidth, "dfly")
			}
		}
		w.hopNode(spec.NodeBandwidth)
	})
	return t
}
