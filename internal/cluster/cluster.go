// Package cluster describes heterogeneous cluster topologies: nodes of
// several hardware architectures attached to a switched network fabric.
//
// It provides faithful descriptions of the two testbeds used in the paper —
// the 128-node Centurion configuration at the University of Virginia
// (fig. 3) and the 28-node rewired Orange Grove cluster at Syracuse
// University (fig. 4) — plus a Builder for constructing arbitrary
// topologies in tests and examples.
//
// A Topology is purely static: the dynamic behaviour (contention, load,
// timesharing) lives in internal/simnet and internal/vcluster.
package cluster

import (
	"fmt"
	"slices"

	"cbes/internal/des"
)

// Arch identifies a node hardware architecture.
type Arch string

// Architectures present in the paper's two clusters.
const (
	ArchAlpha Arch = "alpha"   // 533 MHz Alpha, single CPU
	ArchIntel Arch = "intel"   // 400 MHz dual Pentium II
	ArchSPARC Arch = "sparc"   // 500 MHz SPARC, single CPU
	ArchRef   Arch = "refnode" // synthetic reference architecture (speed 1.0)
)

// ArchInfo carries the static performance characteristics of an
// architecture. Speed is relative to the reference profiling node
// (ArchAlpha = 1.0 in both paper clusters); the per-message software
// overheads model the MPI library and NIC driver path and are the
// CPU-load-sensitive component of end-to-end latency.
type ArchInfo struct {
	Arch         Arch
	Speed        float64  // relative compute speed, reference = 1.0
	CPUs         int      // processors per node
	SendOverhead des.Time // per-message CPU cost on the sender
	RecvOverhead des.Time // per-message CPU cost on the receiver
}

// DefaultArchInfo returns the calibrated characteristics used for the
// paper's architectures. The speed ratios are chosen so that the three
// Orange Grove execution-time zones of fig. 6 (high = Alpha-only,
// medium = Alpha+Intel, low = Alpha+Intel+SPARC) reproduce.
func DefaultArchInfo(a Arch) ArchInfo {
	switch a {
	case ArchAlpha:
		return ArchInfo{Arch: a, Speed: 1.0, CPUs: 1, SendOverhead: 32 * des.Microsecond, RecvOverhead: 36 * des.Microsecond}
	case ArchIntel:
		return ArchInfo{Arch: a, Speed: 0.78, CPUs: 2, SendOverhead: 38 * des.Microsecond, RecvOverhead: 42 * des.Microsecond}
	case ArchSPARC:
		return ArchInfo{Arch: a, Speed: 0.60, CPUs: 1, SendOverhead: 52 * des.Microsecond, RecvOverhead: 58 * des.Microsecond}
	case ArchRef:
		return ArchInfo{Arch: a, Speed: 1.0, CPUs: 1, SendOverhead: 30 * des.Microsecond, RecvOverhead: 34 * des.Microsecond}
	default:
		panic(fmt.Sprintf("cluster: unknown architecture %q", a))
	}
}

// Node is one cluster machine. Its name is not part of the record
// (Topology.NodeName spells it), so Topology.Node never allocates.
type Node struct {
	ID     int     // dense index, 0..N-1
	Arch   Arch    // hardware architecture
	Switch int     // edge switch the node's NIC connects to
	Speed  float64 // relative compute speed (copied from ArchInfo)
	CPUs   int     // processors
}

// Switch is a network switch (or a stack functioning as one).
type Switch struct {
	ID    int
	Ports int
	Class string // e.g. "3com-100", "3com-1200", "dlink-100"; part of path signatures
}

// DeviceKind distinguishes the two vertex types of the fabric graph.
type DeviceKind int

// Device kinds.
const (
	DevNode DeviceKind = iota
	DevSwitch
)

// Device addresses a vertex in the fabric graph.
type Device struct {
	Kind  DeviceKind
	Index int // Node.ID or Switch.ID
}

func (d Device) String() string {
	if d.Kind == DevNode {
		return fmt.Sprintf("node%d", d.Index)
	}
	return fmt.Sprintf("switch%d", d.Index)
}

// Link is an undirected full-duplex cable between two devices; its name is
// Topology.LinkName.
type Link struct {
	ID        int
	A, B      Device
	Bandwidth float64  // bytes per second per direction
	Latency   des.Time // propagation + store-and-forward latency per traversal
}

// Bandwidth constants in bytes/second.
const (
	BandwidthFast100 = 100e6 / 8  // Fast Ethernet, 100 Mb/s
	BandwidthGig1200 = 1200e6 / 8 // 3Com 1.2 Gb/s core switch uplink
)

// Topology is an immutable cluster description with node-to-node routing.
//
// It comes in two flavours. Small irregular topologies (the 2005
// testbeds, Builder-assembled test fabrics) store their node, switch and
// link records and a precomputed all-pairs route table — O(N²·hops)
// memory, fine below a few hundred nodes. NewFatTree installs an
// algebraic router instead: records, names and paths are computed on
// demand from coordinates, so a 5k-node fat tree stores no per-node,
// per-link or per-pair state at all.
//
// Either way, every ordered pair belongs to an interned path class: a
// dense integer ID (ClassID) whose signature string (ClassSignature) is
// the PathSignature the latency model is keyed by. Hot paths carry the
// int; the string exists once per class, not once per pair.
type Topology struct {
	Name string
	// alg computes records, names, routes and class IDs arithmetically
	// from coordinates (fat trees only; nil for Builder topologies, which
	// fill the fields after classSigs instead).
	alg *fatTreeRouter
	// classSigs[id] is the signature string of path class id, for both
	// flavours.
	classSigs []string

	nodes                []Node
	switches             []Switch
	links                []Link
	nodeNames, linkNames []string
	// routes[src][dst] is the ordered list of link IDs a message traverses.
	routes [][][]int
	// classIDs maps src*N+dst to a path-class ID (int32: 4 bytes/pair
	// instead of a route slice per pair).
	classIDs []int32
	// edgeLink[node] is the node's NIC link ID, -1 if none.
	edgeLink []int32
}

// NumNodes reports the number of nodes.
func (t *Topology) NumNodes() int {
	if t.alg != nil {
		return t.alg.n
	}
	return len(t.nodes)
}

// NumSwitches reports the number of switches.
func (t *Topology) NumSwitches() int {
	if t.alg != nil {
		return t.alg.numSwitches()
	}
	return len(t.switches)
}

// NumLinks reports the number of links; valid link IDs are
// 0..NumLinks()-1.
func (t *Topology) NumLinks() int {
	if t.alg != nil {
		return t.alg.numLinks()
	}
	return len(t.links)
}

// Node returns the node with the given ID.
func (t *Topology) Node(id int) Node {
	if t.alg != nil {
		return t.alg.node(id)
	}
	return t.nodes[id]
}

// Switch returns the switch with the given ID.
func (t *Topology) Switch(id int) Switch {
	if t.alg != nil {
		return t.alg.sw(id)
	}
	return t.switches[id]
}

// Link returns the link with the given ID.
func (t *Topology) Link(id int) Link {
	if t.alg != nil {
		return t.alg.link(id)
	}
	return t.links[id]
}

// NodeName returns the node's name, or "node<id>" out of range.
func (t *Topology) NodeName(id int) string {
	switch {
	case id < 0 || id >= t.NumNodes():
		return fmt.Sprintf("node%d", id)
	case t.alg != nil:
		return t.alg.nodeName(id)
	}
	return t.nodeNames[id]
}

// LinkName returns the link's name, or "link<id>" out of range.
func (t *Topology) LinkName(id int) string {
	switch {
	case id < 0 || id >= t.NumLinks():
		return fmt.Sprintf("link%d", id)
	case t.alg != nil:
		return t.alg.linkName(id)
	}
	return t.linkNames[id]
}

// RouteMemoryMode names the routing storage strategy: "table" for the
// precomputed all-pairs table, "algebraic" for on-demand coordinate
// routing (exported as a /metrics gauge by cbesd).
func (t *Topology) RouteMemoryMode() string {
	if t.alg != nil {
		return "algebraic"
	}
	return "table"
}

// Path returns the ordered link IDs a message from src to dst traverses.
// The path for src == dst is empty (loopback). On algebraic topologies
// every call materializes a fresh slice; hot loops should use AppendPath
// with a recycled buffer instead.
func (t *Topology) Path(src, dst int) []int {
	if t.alg != nil {
		return t.alg.appendPath(nil, src, dst)
	}
	return t.routes[src][dst]
}

// AppendPath appends the route's link IDs to buf and returns the extended
// slice — the allocation-free form of Path for algebraic topologies.
func (t *Topology) AppendPath(buf []int, src, dst int) []int {
	if t.alg != nil {
		return t.alg.appendPath(buf, src, dst)
	}
	return append(buf, t.routes[src][dst]...)
}

// Hops reports the number of links between two nodes.
func (t *Topology) Hops(src, dst int) int {
	if t.alg != nil {
		return t.alg.hops(src, dst)
	}
	return len(t.routes[src][dst])
}

// NumClasses reports how many interned path classes the topology has.
// Valid class IDs are 0..NumClasses()-1; some may cover zero pairs on
// algebraic topologies (the ID space is a dense shape×arch² grid).
func (t *Topology) NumClasses() int { return len(t.classSigs) }

// ClassID returns the interned path-class ID of the ordered pair. All
// pairs with the same ID share one PathSignature and hence one latency
// class — this integer is what the netmodel/simnet hot paths key on
// instead of building signature strings.
func (t *Topology) ClassID(src, dst int) int {
	if t.classIDs != nil {
		return int(t.classIDs[src*len(t.nodes)+dst])
	}
	return t.alg.classID(src, dst)
}

// ClassIDTable exposes the flat src*N+dst → class-ID table of a
// table-routed topology (nil on algebraic topologies). Read-only: hot
// loops may index it directly to skip the ClassID call.
func (t *Topology) ClassIDTable() []int32 { return t.classIDs }

// ClassSignature returns the signature string of an interned path class.
func (t *Topology) ClassSignature(id int) string { return t.classSigs[id] }

// PathSignature returns a string that classifies the route between two
// nodes by the architectures at its ends and the classes of the devices it
// crosses. All node pairs with equal signatures share (to first order) the
// same no-load latency curve; this is the basis of the paper's O(N)
// resource-availability approximation.
func (t *Topology) PathSignature(src, dst int) string {
	return t.classSigs[t.ClassID(src, dst)]
}

// pathSignature computes the signature by walking the route; Build interns
// the result per class, and the routers' tests hold their interned
// signatures against it.
func (t *Topology) pathSignature(src, dst int) string {
	if src == dst {
		return loopSignature(t.Node(src).Arch)
	}
	var w sigWriter
	w.start(t.Node(src).Arch)
	at := Device{DevNode, src}
	for _, lid := range t.Path(src, dst) {
		l := t.Link(lid)
		far := l.B
		if far == at {
			far = l.A
		}
		if far.Kind == DevSwitch {
			w.hopSwitch(l.Bandwidth, t.Switch(far.Index).Class)
		} else {
			w.hopNode(l.Bandwidth)
		}
		at = far
	}
	return w.end(t.Node(dst).Arch)
}

// NodesByArch returns the IDs of all nodes of the given architecture, in
// increasing ID order.
func (t *Topology) NodesByArch(a Arch) []int {
	return t.nodesWhere(func(n Node) bool { return n.Arch == a })
}

// NodesOnSwitch returns the IDs of all nodes attached to the given edge
// switch, in increasing ID order.
func (t *Topology) NodesOnSwitch(sw int) []int {
	return t.nodesWhere(func(n Node) bool { return n.Switch == sw })
}

// nodesWhere scans the node records in ID order. No caller is hot enough
// to pay for an index (pools and zones are built once per system).
func (t *Topology) nodesWhere(keep func(Node) bool) []int {
	var ids []int
	for id := 0; id < t.NumNodes(); id++ {
		if keep(t.Node(id)) {
			ids = append(ids, id)
		}
	}
	return ids
}

// EdgeLink returns the ID of the link connecting node id to its edge
// switch (its NIC cable), or -1 if the node has no link. The fat tree
// numbers a node's NIC link with the node's own ID.
func (t *Topology) EdgeLink(node int) int {
	if t.alg != nil {
		return node
	}
	return int(t.edgeLink[node])
}

// Archs returns the distinct architectures present, sorted by name.
func (t *Topology) Archs() []Arch {
	var out []Arch
	for id := 0; id < t.NumNodes(); id++ {
		if a := t.Node(id).Arch; !slices.Contains(out, a) {
			out = append(out, a)
		}
	}
	slices.Sort(out)
	return out
}

// Validate checks structural invariants: every node attached to an existing
// switch and reachable from every other node. Table-routed topologies
// check the full O(N²) route table; algebraic topologies — where the
// construction guarantees connectivity — spot-check a bounded sample of
// pairs for route well-formedness so Validate stays O(N) at 5k nodes.
func (t *Topology) Validate() error {
	n, switches := t.NumNodes(), t.NumSwitches()
	for id := 0; id < n; id++ {
		nd := t.Node(id)
		if nd.Switch < 0 || nd.Switch >= switches {
			return fmt.Errorf("cluster: node %d references missing switch %d", id, nd.Switch)
		}
		if nd.CPUs <= 0 || nd.Speed <= 0 {
			return fmt.Errorf("cluster: node %d has invalid CPUs/Speed", id)
		}
	}
	if t.alg != nil {
		return t.validateAlgebraic()
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && t.routes[i][j] == nil {
				return fmt.Errorf("cluster: no route between node %d and node %d", i, j)
			}
		}
	}
	return nil
}

// validateAlgebraic spot-checks algebraic routes: for a bounded sample of
// ordered pairs the path must start at src's NIC, end at dst's NIC, and
// chain device-connected links.
func (t *Topology) validateAlgebraic() error {
	n := t.NumNodes()
	stride := n/64 + 1
	var buf []int
	for i := 0; i < n; i += stride {
		for j := n - 1; j >= 0; j -= stride {
			if i == j {
				continue
			}
			buf = t.alg.appendPath(buf[:0], i, j)
			if err := t.checkPath(buf, i, j); err != nil {
				return err
			}
		}
	}
	return nil
}

// checkPath verifies that links form a connected walk from node src to
// node dst.
func (t *Topology) checkPath(path []int, src, dst int) error {
	at := Device{DevNode, src}
	for _, lid := range path {
		if lid < 0 || lid >= t.NumLinks() {
			return fmt.Errorf("cluster: route %d->%d references missing link %d", src, dst, lid)
		}
		l := t.Link(lid)
		switch at {
		case l.A:
			at = l.B
		case l.B:
			at = l.A
		default:
			return fmt.Errorf("cluster: route %d->%d broken at link %d (%s): not incident to %s", src, dst, lid, t.LinkName(lid), at)
		}
	}
	if want := (Device{DevNode, dst}); at != want {
		return fmt.Errorf("cluster: route %d->%d ends at %s, not %s", src, dst, at, want)
	}
	return nil
}

// internTable assigns a dense path-class ID to every ordered pair of a
// table-routed topology, interning signature strings in first-encounter
// row-major order (the order bench.Calibrate picks class representatives
// in, so calibration output is unchanged by the interning).
func (t *Topology) internTable() {
	n := len(t.nodes)
	t.classIDs = make([]int32, n*n)
	bySig := map[string]int32{}
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			sig := t.pathSignature(src, dst)
			id, ok := bySig[sig]
			if !ok {
				id = int32(len(t.classSigs))
				bySig[sig] = id
				t.classSigs = append(t.classSigs, sig)
			}
			t.classIDs[src*n+dst] = id
		}
	}
}

// indexEdgeLinks records each node's NIC link (-1 if none) on a table
// topology; the monitor reads it per node per sample.
func (t *Topology) indexEdgeLinks() {
	t.edgeLink = make([]int32, len(t.nodes))
	for i := range t.edgeLink {
		t.edgeLink[i] = -1
	}
	for _, l := range t.links {
		for _, d := range [2]Device{l.A, l.B} {
			if d.Kind == DevNode && t.edgeLink[d.Index] < 0 {
				t.edgeLink[d.Index] = int32(l.ID)
			}
		}
	}
}
