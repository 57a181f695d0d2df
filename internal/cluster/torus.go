package cluster

import (
	"fmt"

	"cbes/internal/des"
)

// TorusSpec parameterizes a 2D (Z == 1) or 3D torus: one node per torus
// switch, wraparound +1 links along each dimension, dimension-order
// routing with shortest-wrap direction.
type TorusSpec struct {
	// X, Y, Z are the dimension sizes (each >= 1; Z == 0 means 1, a 2D
	// torus). 16×16×4 gives 1024 nodes, 16×18×19 gives 5472.
	X, Y, Z int
	// Archs assigns node architectures round-robin by node ID.
	Archs []Arch
	// NodeBandwidth/NodeLatency describe the NIC links (default 1 GigE /
	// 5 µs); LinkBandwidth/LinkLatency the inter-switch torus links
	// (default 10 GigE / 5 µs).
	NodeBandwidth float64
	LinkBandwidth float64
	NodeLatency   des.Time
	LinkLatency   des.Time
}

func (s *TorusSpec) defaults() {
	if s.Z == 0 {
		s.Z = 1
	}
	if s.NodeBandwidth <= 0 {
		s.NodeBandwidth = BandwidthGigE
	}
	if s.LinkBandwidth <= 0 {
		s.LinkBandwidth = BandwidthTenGigE
	}
	if s.NodeLatency <= 0 {
		s.NodeLatency = 5 * des.Microsecond
	}
	if s.LinkLatency <= 0 {
		s.LinkLatency = 5 * des.Microsecond
	}
}

// torusRouter routes by dimension order (X, then Y, then Z), stepping the
// shortest way around each ring (ties go in the + direction). Node and
// switch IDs share the coordinate layout id = (x·Y + y)·Z + z, and the
// NIC link ID equals the node ID. Ring links are laid out per dimension:
// the +1 link leaving coordinate c is indexed by c — except on rings of
// size 2, which have a single link per position pair:
//
//	x link(c,y,z) = xBase + (c·Y + y)·Z + z
//	y link(x,c,z) = yBase + (c·X + x)·Z + z
//	z link(x,y,c) = zBase + (c·X + x)·Y + y
type torusRouter struct {
	nicLayout
	x, y, z int
	// ringX is the number of +1 links per X ring (0, 1, or X); likewise
	// Y and Z. xBase/yBase/zBase are the first link IDs of each group.
	ringX, ringY, ringZ int
	xBase, yBase, zBase int
	ringBW              float64
	ringLat             des.Time
	grid                shapeGrid
}

// ringLinks is the number of distinct +1 links on a ring of size d.
func ringLinks(d int) int {
	switch {
	case d < 2:
		return 0
	case d == 2:
		return 1
	default:
		return d
	}
}

func (r *torusRouter) coords(id int) (x, y, z int) {
	return id / (r.y * r.z), (id / r.z) % r.y, id % r.z
}

// ringSteps reports the signed shortest step count from c to t on a ring
// of size d: positive means + direction (ties break +).
func ringSteps(c, t, d int) int {
	delta := ((t-c)%d + d) % d
	if delta == 0 {
		return 0
	}
	if 2*delta <= d {
		return delta
	}
	return delta - d
}

// xLink/yLink/zLink return the link ID of the ring link between
// coordinate lower and lower+1 (mod size) at the given cross coordinates.
func (r *torusRouter) xLink(lower, y, z int) int {
	if r.x == 2 {
		lower = 0
	}
	return r.xBase + (lower*r.y+y)*r.z + z
}

func (r *torusRouter) yLink(x, lower, z int) int {
	if r.y == 2 {
		lower = 0
	}
	return r.yBase + (lower*r.x+x)*r.z + z
}

func (r *torusRouter) zLink(x, y, lower int) int {
	if r.z == 2 {
		lower = 0
	}
	return r.zBase + (lower*r.x+x)*r.y + y
}

func (r *torusRouter) appendPath(buf []int, src, dst int) []int {
	if src == dst {
		return buf
	}
	buf = append(buf, src) // NIC link onto the fabric
	x, y, z := r.coords(src)
	tx, ty, tz := r.coords(dst)
	for s := ringSteps(x, tx, r.x); s != 0; {
		if s > 0 {
			buf = append(buf, r.xLink(x, y, z))
			x, s = (x+1)%r.x, s-1
		} else {
			x = (x - 1 + r.x) % r.x
			buf = append(buf, r.xLink(x, y, z))
			s++
		}
	}
	for s := ringSteps(y, ty, r.y); s != 0; {
		if s > 0 {
			buf = append(buf, r.yLink(x, y, z))
			y, s = (y+1)%r.y, s-1
		} else {
			y = (y - 1 + r.y) % r.y
			buf = append(buf, r.yLink(x, y, z))
			s++
		}
	}
	for s := ringSteps(z, tz, r.z); s != 0; {
		if s > 0 {
			buf = append(buf, r.zLink(x, y, z))
			z, s = (z+1)%r.z, s-1
		} else {
			z = (z - 1 + r.z) % r.z
			buf = append(buf, r.zLink(x, y, z))
			s++
		}
	}
	return append(buf, dst) // NIC link off the fabric
}

// dist is the torus hop distance between the switches of src and dst.
func (r *torusRouter) dist(src, dst int) int {
	x, y, z := r.coords(src)
	tx, ty, tz := r.coords(dst)
	abs := func(v int) int {
		if v < 0 {
			return -v
		}
		return v
	}
	return abs(ringSteps(x, tx, r.x)) + abs(ringSteps(y, ty, r.y)) + abs(ringSteps(z, tz, r.z))
}

func (r *torusRouter) hops(src, dst int) int {
	if src == dst {
		return 0
	}
	return r.dist(src, dst) + 2
}

// classID: shape 0 is loopback; shape d >= 1 is "torus distance d" —
// with uniform ring links, the signature depends only on the distance
// and the end architectures.
func (r *torusRouter) classID(src, dst int) int {
	if src == dst {
		return r.grid.id(0, src, dst)
	}
	return r.grid.id(r.dist(src, dst), src, dst)
}

func (r *torusRouter) numSwitches() int { return r.n }

func (r *torusRouter) numLinks() int { return r.zBase + r.ringZ*r.x*r.y }

func (r *torusRouter) sw(id int) Switch { return Switch{ID: id, Ports: 7, Class: "torus"} }

// ring decodes a ring link ID into its dimension ('x', 'y' or 'z'), the
// lower coordinate c along it and the two cross coordinates in layout
// order.
func (r *torusRouter) ring(id int) (dim byte, c, u, v int) {
	switch {
	case id < r.yBase:
		i := id - r.xBase
		return 'x', i / (r.y * r.z), i / r.z % r.y, i % r.z
	case id < r.zBase:
		i := id - r.yBase
		return 'y', i / (r.x * r.z), i / r.z % r.x, i % r.z
	}
	i := id - r.zBase
	return 'z', i / (r.x * r.y), i / r.y % r.x, i % r.y
}

func (r *torusRouter) link(id int) Link {
	if id < r.n {
		return r.nicLink(id)
	}
	sw := func(x, y, z int) int { return (x*r.y+y)*r.z + z }
	var lo, hi int
	switch dim, c, u, v := r.ring(id); dim {
	case 'x':
		lo, hi = sw(c, u, v), sw((c+1)%r.x, u, v)
	case 'y':
		lo, hi = sw(u, c, v), sw(u, (c+1)%r.y, v)
	default:
		lo, hi = sw(u, v, c), sw(u, v, (c+1)%r.z)
	}
	return Link{ID: id, A: Device{DevSwitch, lo}, B: Device{DevSwitch, hi}, Bandwidth: r.ringBW, Latency: r.ringLat}
}

func (r *torusRouter) nodeName(id int) string { return fmt.Sprintf("tor-n%04d", id) }

func (r *torusRouter) linkName(id int) string {
	if id < r.n {
		return fmt.Sprintf("tor-n%04d<->sw", id)
	}
	dim, c, u, v := r.ring(id)
	cross := "x%d-y%d"
	switch dim {
	case 'x':
		cross = "y%d-z%d"
	case 'y':
		cross = "x%d-z%d"
	}
	return fmt.Sprintf("tor-%c%d-"+cross, dim, c, u, v)
}

// NewTorus builds a 2D/3D torus whose records and dimension-order routes
// are computed from coordinates.
func NewTorus(spec TorusSpec) *Topology {
	spec.defaults()
	if spec.X < 1 || spec.Y < 1 || spec.Z < 1 {
		panic(fmt.Sprintf("cluster: torus dimensions must be >= 1, got %dx%dx%d", spec.X, spec.Y, spec.Z))
	}
	X, Y, Z := spec.X, spec.Y, spec.Z
	n := X * Y * Z
	maxDist := X/2 + Y/2 + Z/2
	ai := newArchIndexer(spec.Archs)
	r := &torusRouter{
		nicLayout: nicLayout{n: n, perSwitch: 1, ai: ai, bandwidth: spec.NodeBandwidth, latency: spec.NodeLatency},
		x:         X, y: Y, z: Z,
		ringX: ringLinks(X), ringY: ringLinks(Y), ringZ: ringLinks(Z),
		ringBW: spec.LinkBandwidth, ringLat: spec.LinkLatency,
		grid: shapeGrid{ai: ai, shapes: maxDist + 1}}
	r.xBase = n
	r.yBase = r.xBase + r.ringX*Y*Z
	r.zBase = r.yBase + r.ringY*X*Z

	name := fmt.Sprintf("torus-%dx%d", X, Y)
	if Z > 1 {
		name = fmt.Sprintf("torus-%dx%dx%d", X, Y, Z)
	}
	t := &Topology{Name: name, alg: r}
	t.classSigs = r.grid.signatures(func(w *sigWriter, shape int) {
		// Shape d: src NIC onto the fabric, d ring links, dst NIC off.
		w.hopSwitch(spec.NodeBandwidth, "torus")
		for i := 0; i < shape; i++ {
			w.hopSwitch(spec.LinkBandwidth, "torus")
		}
		w.hopNode(spec.NodeBandwidth)
	})
	return t
}
