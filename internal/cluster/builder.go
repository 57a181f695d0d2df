package cluster

import (
	"fmt"

	"cbes/internal/des"
)

// Builder assembles a Topology incrementally. Build precomputes shortest
// (fewest-hop) routes between all node pairs and freezes the result.
type Builder struct {
	name                              string
	nodes                             []Node
	switches                          []Switch
	links                             []Link
	nodeNames, switchNames, linkNames []string
}

// NewBuilder starts an empty topology.
func NewBuilder(name string) *Builder { return &Builder{name: name} }

// Switch adds a switch and returns its ID.
func (b *Builder) Switch(name, class string, ports int) int {
	id := len(b.switches)
	b.switches = append(b.switches, Switch{ID: id, Ports: ports, Class: class})
	b.switchNames = append(b.switchNames, name)
	return id
}

// Node adds a node of architecture a attached to switch sw via a link with
// the given bandwidth and per-hop latency, and returns the node's ID.
func (b *Builder) Node(name string, a Arch, sw int, bw float64, lat des.Time) int {
	ai := DefaultArchInfo(a)
	id := len(b.nodes)
	b.nodes = append(b.nodes, Node{ID: id, Arch: a, Switch: sw, Speed: ai.Speed, CPUs: ai.CPUs})
	b.nodeNames = append(b.nodeNames, name)
	b.addLink(fmt.Sprintf("%s<->%s", name, b.switchName(sw)),
		Device{DevNode, id}, Device{DevSwitch, sw}, bw, lat)
	return id
}

// Uplink connects two switches with a link of the given bandwidth and
// per-hop latency.
func (b *Builder) Uplink(swA, swB int, bw float64, lat des.Time) {
	b.addLink(fmt.Sprintf("%s<->%s", b.switchName(swA), b.switchName(swB)),
		Device{DevSwitch, swA}, Device{DevSwitch, swB}, bw, lat)
}

func (b *Builder) switchName(sw int) string {
	if sw < 0 || sw >= len(b.switches) {
		return fmt.Sprintf("?sw%d", sw)
	}
	return b.switchNames[sw]
}

func (b *Builder) addLink(name string, a, z Device, bw float64, lat des.Time) {
	if bw <= 0 {
		panic("cluster: link bandwidth must be positive")
	}
	b.links = append(b.links, Link{ID: len(b.links), A: a, B: z, Bandwidth: bw, Latency: lat})
	b.linkNames = append(b.linkNames, name)
}

// Build freezes the topology and computes all-pairs shortest routing.
// Routing is hop-count shortest path via BFS from each node; ties are broken
// deterministically by link insertion order.
func (b *Builder) Build() *Topology {
	t := &Topology{
		Name:      b.name,
		nodes:     append([]Node(nil), b.nodes...),
		switches:  append([]Switch(nil), b.switches...),
		links:     append([]Link(nil), b.links...),
		nodeNames: append([]string(nil), b.nodeNames...),
		linkNames: append([]string(nil), b.linkNames...),
	}
	t.routes = computeRoutes(t)
	t.internTable()
	t.indexEdgeLinks()
	return t
}

// vertexID flattens Device into a single index space: nodes first, then
// switches.
func vertexID(t *Topology, d Device) int {
	if d.Kind == DevNode {
		return d.Index
	}
	return t.NumNodes() + d.Index
}

func computeRoutes(t *Topology) [][][]int {
	nv := len(t.nodes) + len(t.switches)
	// adjacency: vertex -> (link, neighbour vertex)
	type edge struct{ link, to int }
	adj := make([][]edge, nv)
	for _, l := range t.links {
		a, z := vertexID(t, l.A), vertexID(t, l.B)
		adj[a] = append(adj[a], edge{l.ID, z})
		adj[z] = append(adj[z], edge{l.ID, a})
	}
	routes := make([][][]int, len(t.nodes))
	for src := range t.nodes {
		// BFS from src over the fabric graph.
		prevLink := make([]int, nv)
		prevVert := make([]int, nv)
		for i := range prevLink {
			prevLink[i] = -1
			prevVert[i] = -1
		}
		start := vertexID(t, Device{DevNode, src})
		prevVert[start] = start
		queue := []int{start}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, e := range adj[v] {
				if prevVert[e.to] >= 0 {
					continue
				}
				prevVert[e.to] = v
				prevLink[e.to] = e.link
				queue = append(queue, e.to)
			}
		}
		routes[src] = make([][]int, len(t.nodes))
		for dst := range t.nodes {
			if dst == src {
				routes[src][dst] = []int{}
				continue
			}
			end := vertexID(t, Device{DevNode, dst})
			if prevVert[end] < 0 {
				continue // unreachable; Validate reports it
			}
			var rev []int
			for v := end; v != start; v = prevVert[v] {
				rev = append(rev, prevLink[v])
			}
			path := make([]int, len(rev))
			for i := range rev {
				path[i] = rev[len(rev)-1-i]
			}
			routes[src][dst] = path
		}
	}
	return routes
}
