package cluster

import (
	"strconv"
	"strings"
)

// Algebraic routing: the fat tree computes routes, and its node, switch
// and link records and names, arithmetically from coordinates instead of
// storing tables. A 5k-node fat tree holds a few dozen interned class
// signatures and nothing per node, per link or per pair.
//
// Its router honours the same contracts the table router does:
//
//   - appendPath yields an ordered, device-connected link walk from src's
//     NIC to dst's NIC (empty for src == dst);
//   - classID partitions ordered pairs so that all pairs in a class have
//     byte-identical PathSignature strings (verified by the property
//     tests in algebraic_test.go against the walk-based pathSignature);
//   - IDs are dense in [0, numClasses), small enough to index arrays by.

// sigWriter builds path-signature strings with the exact grammar of
// Topology.pathSignature, so the fat tree can intern per-class signatures
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

// archIndexer assigns each node a dense architecture index so the fat
// tree can compose class IDs as shape×archSrc×archDst without string
// work. The assignment pattern cycles through the (possibly repeating,
// for mix ratios) pattern list by node ID; the index space is the
// deduplicated arch list in pattern order.
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
