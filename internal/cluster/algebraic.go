package cluster

import (
	"strconv"
	"strings"

	"cbes/internal/des"
)

// Algebraic topologies: structured topologies (fat tree, torus, dragonfly)
// compute routes, and their node, switch and link records and names,
// arithmetically from coordinates instead of storing tables. A 5k-node fat
// tree holds a few dozen interned class signatures and nothing per node,
// per link or per pair.
//
// Each router must honour the same contracts the table router does:
//
//   - appendPath yields an ordered, device-connected link walk from src's
//     NIC to dst's NIC (empty for src == dst);
//   - classID partitions ordered pairs so that all pairs in a class have
//     byte-identical PathSignature strings (verified by the property
//     tests in algebraic_test.go against the walk-based pathSignature);
//   - IDs are dense in [0, numClasses), small enough to index arrays by.
type algRouter interface {
	// appendPath appends the route's link IDs to buf and returns it.
	appendPath(buf []int, src, dst int) []int
	// hops reports the route length without materializing it.
	hops(src, dst int) int
	// classID returns the interned path-class ID of the ordered pair.
	classID(src, dst int) int

	// The records, names and indexes invert the ID layout written in each
	// router's comment; nicLayout supplies the node-side half.
	numNodes() int
	numSwitches() int
	numLinks() int
	node(id int) Node
	sw(id int) Switch
	link(id int) Link
	nodeName(id int) string
	linkName(id int) string
}

// nicLayout is the part of the ID layout the three structured builders
// share: node id hangs off edge switch id/perSwitch through the NIC link
// numbered id, and architectures follow the pattern by node ID.
type nicLayout struct {
	n         int // node count, and so the first fabric link ID
	perSwitch int // nodes per edge switch
	ai        *archIndexer
	bandwidth float64 // NIC link
	latency   des.Time
}

func (l *nicLayout) numNodes() int { return l.n }

func (l *nicLayout) node(id int) Node {
	info := l.ai.info[l.ai.index(id)]
	return Node{ID: id, Arch: info.Arch, Switch: id / l.perSwitch, Speed: info.Speed, CPUs: info.CPUs}
}

// nicLink is link id < n: node id's cable to its edge switch.
func (l *nicLayout) nicLink(id int) Link {
	return Link{ID: id, A: Device{DevNode, id}, B: Device{DevSwitch, id / l.perSwitch},
		Bandwidth: l.bandwidth, Latency: l.latency}
}

// sigWriter builds path-signature strings with the exact grammar of
// Topology.pathSignature, so routers can intern per-class signatures
// without materializing a representative route per class.
type sigWriter struct {
	sb strings.Builder
}

// start begins a signature at a node of architecture a.
func (w *sigWriter) start(a Arch) { w.sb.WriteString(string(a)) }

// hopSwitch records a link whose far end is a switch of the given class.
func (w *sigWriter) hopSwitch(bandwidth float64, class string) {
	w.hopNode(bandwidth)
	w.sb.WriteByte('|')
	w.sb.WriteString(class)
}

// hopNode records a link whose far end is a node, its bandwidth spelled
// as fmt's %.0f in Mb/s.
func (w *sigWriter) hopNode(bandwidth float64) {
	var num [32]byte
	w.sb.WriteByte('|')
	w.sb.Write(strconv.AppendFloat(num[:0], bandwidth*8/1e6, 'f', 0, 64))
	w.sb.WriteString("Mb")
}

// end terminates the signature at a node of architecture a.
func (w *sigWriter) end(a Arch) string {
	w.sb.WriteByte('|')
	w.sb.WriteString(string(a))
	return w.sb.String()
}

// loopSignature is the signature of the src == dst class.
func loopSignature(a Arch) string { return "loop|" + string(a) }

// archIndexer assigns each node a dense architecture index so routers can
// compose class IDs as shape×archSrc×archDst without string work. The
// assignment pattern cycles through the (possibly repeating, for mix
// ratios) pattern list by node ID; the index space is the deduplicated
// arch list in pattern order.
type archIndexer struct {
	pattern []Arch     // arch per node ID modulo len(pattern)
	archs   []Arch     // deduplicated, in first-appearance order
	info    []ArchInfo // default characteristics, parallel to archs
	idx     []uint8    // pattern position -> archs position
}

func newArchIndexer(pattern []Arch) *archIndexer {
	if len(pattern) == 0 {
		pattern = []Arch{ArchRef}
	}
	ai := &archIndexer{pattern: pattern, idx: make([]uint8, len(pattern))}
	pos := map[Arch]uint8{}
	for i, a := range pattern {
		p, ok := pos[a]
		if !ok {
			p = uint8(len(ai.archs))
			pos[a] = p
			ai.archs = append(ai.archs, a)
			ai.info = append(ai.info, DefaultArchInfo(a))
		}
		ai.idx[i] = p
	}
	return ai
}

// arch returns the architecture assigned to node id.
func (ai *archIndexer) arch(id int) Arch { return ai.pattern[id%len(ai.pattern)] }

// index returns the dense architecture index of node id.
func (ai *archIndexer) index(id int) int { return int(ai.idx[id%len(ai.idx)]) }

// count reports the number of distinct architectures.
func (ai *archIndexer) count() int { return len(ai.archs) }

// pairClasses enumerates every ordered (archSrc, archDst) index pair of
// one route shape; shape grids use it to keep class IDs dense and
// arithmetic.
func (ai *archIndexer) pairClasses(fill func(si, di int)) {
	for si := 0; si < len(ai.archs); si++ {
		for di := 0; di < len(ai.archs); di++ {
			fill(si, di)
		}
	}
}

// shapeGrid composes class IDs for routers whose classes factor into
// route shape × source arch × destination arch.
type shapeGrid struct {
	ai     *archIndexer
	shapes int
}

// id composes the class ID for a shape and an ordered node pair.
func (g *shapeGrid) id(shape, src, dst int) int {
	a := g.ai.count()
	return (shape*a+g.ai.index(src))*a + g.ai.index(dst)
}

// numClasses is the dense ID-space size.
func (g *shapeGrid) numClasses() int { return g.shapes * g.ai.count() * g.ai.count() }

// signatures builds the per-class signature table: sig(w, shape) must
// append the interior of the signature (everything between the start arch
// and the end arch) to w. Shape 0 is always the loopback class. Each
// shape's interior is spelled once and the table is copied into a single
// buffer of exactly its size: a torus has one shape per hop distance, so
// a wide mixed-architecture one carries megabytes of signatures.
func (g *shapeGrid) signatures(sig func(w *sigWriter, shape int)) []string {
	a := g.ai.count()
	var mids sigWriter
	ends := make([]int, g.shapes)
	for shape := 1; shape < g.shapes; shape++ {
		sig(&mids, shape)
		ends[shape] = mids.sb.Len()
	}
	interiors := mids.sb.String()
	archBytes := 0
	for _, arch := range g.ai.archs {
		archBytes += len(arch)
	}
	var w strings.Builder
	w.Grow(len("loop|")*a + archBytes + // the loopback diagonal
		a*a*(len(interiors)+g.shapes-1) + 2*a*archBytes*(g.shapes-1))
	spelled := func(from int) string { return w.String()[from:] }
	sigs := make([]string, g.numClasses())
	for si, arch := range g.ai.archs {
		from := w.Len()
		w.WriteString(loopSignature(arch))
		sigs[si*a+si] = spelled(from) // off-diagonal loop slots cover no pairs; leave them ""
	}
	for shape := 1; shape < g.shapes; shape++ {
		mid := interiors[ends[shape-1]:ends[shape]]
		g.ai.pairClasses(func(si, di int) {
			from := w.Len()
			w.WriteString(string(g.ai.archs[si]))
			w.WriteString(mid)
			w.WriteByte('|')
			w.WriteString(string(g.ai.archs[di]))
			sigs[(shape*a+si)*a+di] = spelled(from)
		})
	}
	return sigs
}
