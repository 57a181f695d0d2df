package cluster

import (
	"fmt"

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
	p, a, h, g    int
	localBase     int
	globalBase    int
	localPerGroup int // C(A,2)
	grid          shapeGrid
}

// triIdx is the upper-triangle pair index of i < j over n elements.
func triIdx(i, j, n int) int { return i*(2*n-i-1)/2 + (j - i - 1) }

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

// NewDragonfly builds a dragonfly with algebraic minimal routing.
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
	r := &dragonflyRouter{p: p, a: a, h: h, g: g,
		localPerGroup: a * (a - 1) / 2,
		grid:          shapeGrid{ai: ai, shapes: dfShapes}}
	r.localBase = n
	r.globalBase = n + g*r.localPerGroup

	t := &Topology{
		Name:     fmt.Sprintf("dragonfly-p%da%dh%dg%d", p, a, h, g),
		Nodes:    make([]Node, 0, n),
		Switches: make([]Switch, 0, g*a),
		Links:    make([]Link, 0, n+g*r.localPerGroup+g*(g-1)/2),
		archs:    defaultArchTable(ai),
		alg:      r,
	}
	names := newNameArena(cap(t.Nodes) + cap(t.Switches) + cap(t.Links))
	for gi := 0; gi < g; gi++ {
		for ri := 0; ri < a; ri++ {
			t.Switches = append(t.Switches, Switch{ID: len(t.Switches),
				Name: names.s("df-g").d(gi).s("-r").d(ri).end(), Ports: p + a - 1 + h, Class: "dfly"})
		}
	}
	// Nodes and NIC links first: link ID == node ID.
	for id := 0; id < n; id++ {
		sw := id / p
		info := t.archs[ai.arch(id)]
		t.Nodes = append(t.Nodes, Node{ID: id, Name: names.s("df-n").d4(id).end(),
			Arch: info.Arch, Switch: sw, Speed: info.Speed, CPUs: info.CPUs})
		t.Links = append(t.Links, Link{ID: id,
			A: Device{DevNode, id}, B: Device{DevSwitch, sw},
			Bandwidth: spec.NodeBandwidth, Latency: spec.NodeLatency,
			Name: names.s("df-n").d4(id).s("<->r").d(sw).end()})
	}
	// Intra-group all-to-all local links in triIdx order.
	for gi := 0; gi < g; gi++ {
		for i := 0; i < a; i++ {
			for j := i + 1; j < a; j++ {
				t.Links = append(t.Links, Link{ID: len(t.Links),
					A: Device{DevSwitch, gi*a + i}, B: Device{DevSwitch, gi*a + j},
					Bandwidth: spec.LocalBandwidth, Latency: spec.LocalLatency,
					Name: names.s("df-local-g").d(gi).s("-").d(i).s("-").d(j).end()})
			}
		}
	}
	// One global link per group pair, terminating at each side's gateway.
	for gi := 0; gi < g; gi++ {
		for gj := gi + 1; gj < g; gj++ {
			swA := gi*a + r.gateway(gi, gj)
			swB := gj*a + r.gateway(gj, gi)
			t.Links = append(t.Links, Link{ID: len(t.Links),
				A: Device{DevSwitch, swA}, B: Device{DevSwitch, swB},
				Bandwidth: spec.GlobalBandwidth, Latency: spec.GlobalLatency,
				Name: names.s("df-global-g").d(gi).s("-g").d(gj).end()})
		}
	}
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
	t.buildIndexes()
	return t
}
