package cluster

import (
	"fmt"
	"strconv"
	"strings"
)

// SpecHelp documents the topology spec grammar accepted by FromSpec, for
// command-line flag usage strings.
const SpecHelp = "grove|centurion|test, or fattree:<k>, torus:<X>x<Y>[x<Z>], " +
	"dragonfly:<P>x<A>x<H>[x<G>]; append @arch[,arch...] (alpha|intel|sparc|ref) " +
	"for a round-robin architecture mix, e.g. fattree:16@alpha,intel"

// Size caps on structured specs. A structured build costs O(classes)
// whatever its size, but what a caller does next — a monitor's per-node
// sensors, a scheduler's pool, simnet's per-link slots — is O(nodes) or
// O(links), so a spec must not ask for more than these. A torus has one
// path class per hop distance, each signature as long as its distance, so
// its diameter is capped too. No topology FromSpec builds has more than
// MaxSpecNodes nodes, so it also caps a node list worth parsing.
const (
	MaxSpecNodes         = 1 << 20
	maxSpecLinks         = 1 << 22
	maxSpecTorusDiameter = 128
)

// mulCapped returns the product of non-negative factors, or ok == false
// once it exceeds limit (before it can overflow).
func mulCapped(limit int, factors ...int) (p int, ok bool) {
	p = 1
	for _, f := range factors {
		if f != 0 && p > limit/f {
			return 0, false
		}
		p *= f
	}
	return p, p <= limit
}

// FromSpec builds a topology from a command-line spec string: either a
// named 2005 testbed (table-routed, bit-identical to the paper
// reproduction) or a structured algebraic topology sized by parameters.
// Structured specs are limited to 1 048 576 nodes and 4 194 304 links
// (and a torus to a diameter of 128 hops); larger ones are an error.
func FromSpec(spec string) (*Topology, error) {
	name, archPart, hasArchs := strings.Cut(spec, "@")
	var archs []Arch
	if hasArchs {
		var err error
		if archs, err = parseArchList(archPart); err != nil {
			return nil, err
		}
	}
	kind, args, _ := strings.Cut(name, ":")
	switch kind {
	case "grove", "orangegrove", "orange-grove":
		return NewOrangeGrove(), nil
	case "centurion":
		return NewCenturion(), nil
	case "test":
		return NewTestTopology(), nil
	case "fattree":
		k, err := strconv.Atoi(args)
		if err != nil || k < 2 || k%2 != 0 {
			return nil, fmt.Errorf("cluster: fattree spec needs an even radix, e.g. fattree:16 (got %q)", spec)
		}
		if _, ok := mulCapped(MaxSpecNodes, k, k/2, k/2); !ok { // links = 3 × nodes
			return nil, tooLarge(spec)
		}
		return NewFatTree(FatTreeSpec{K: k, Archs: archs}), nil
	case "torus":
		dims, err := parseDims(args, 2, 3)
		if err != nil {
			return nil, fmt.Errorf("cluster: torus spec needs XxY or XxYxZ, e.g. torus:16x16x4 (got %q)", spec)
		}
		ts := TorusSpec{X: dims[0], Y: dims[1], Z: 1, Archs: archs}
		if len(dims) == 3 {
			ts.Z = dims[2]
		}
		_, ok := mulCapped(MaxSpecNodes, ts.X, ts.Y, ts.Z) // links <= 4 × nodes
		if !ok || ts.X/2+ts.Y/2+ts.Z/2 > maxSpecTorusDiameter {
			return nil, tooLarge(spec)
		}
		return NewTorus(ts), nil
	case "dragonfly":
		dims, err := parseDims(args, 3, 4)
		if err != nil {
			return nil, fmt.Errorf("cluster: dragonfly spec needs PxAxH or PxAxHxG, e.g. dragonfly:4x8x4 (got %q)", spec)
		}
		ds := DragonflySpec{P: dims[0], A: dims[1], H: dims[2], Archs: archs}
		if ds.A > MaxSpecNodes || ds.H > MaxSpecNodes {
			return nil, tooLarge(spec) // and keeps A·H+1 from overflowing
		}
		ds.Groups = ds.A*ds.H + 1
		if len(dims) == 4 {
			ds.Groups = dims[3]
		}
		if ds.Groups < 2 || ds.Groups > ds.A*ds.H+1 {
			return nil, fmt.Errorf("cluster: dragonfly groups must be in [2, A*H+1], got %d", ds.Groups)
		}
		nodes, okN := mulCapped(MaxSpecNodes, ds.Groups, ds.A, ds.P)
		local, okL := mulCapped(2*maxSpecLinks, ds.Groups, ds.A, ds.A-1)
		global, okG := mulCapped(2*maxSpecLinks, ds.Groups, ds.Groups-1)
		if !okN || !okL || !okG || nodes+local/2+global/2 > maxSpecLinks {
			return nil, tooLarge(spec)
		}
		return NewDragonfly(ds), nil
	default:
		return nil, fmt.Errorf("cluster: unknown topology spec %q (want %s)", spec, SpecHelp)
	}
}

func tooLarge(spec string) error {
	return fmt.Errorf("cluster: %q exceeds the spec limits of %d nodes, %d links and a torus diameter of %d",
		spec, MaxSpecNodes, maxSpecLinks, maxSpecTorusDiameter)
}

// parseDims parses "AxBxC"-style dimension lists with an arity range.
func parseDims(s string, min, max int) ([]int, error) {
	parts := strings.Split(s, "x")
	if len(parts) < min || len(parts) > max {
		return nil, fmt.Errorf("cluster: want %d-%d dimensions, got %d", min, max, len(parts))
	}
	dims := make([]int, len(parts))
	for i, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil || v < 1 {
			return nil, fmt.Errorf("cluster: bad dimension %q", p)
		}
		dims[i] = v
	}
	return dims, nil
}

// parseArchList parses the @-suffix architecture pattern.
func parseArchList(s string) ([]Arch, error) {
	var archs []Arch
	for _, p := range strings.Split(s, ",") {
		switch strings.TrimSpace(p) {
		case "alpha":
			archs = append(archs, ArchAlpha)
		case "intel":
			archs = append(archs, ArchIntel)
		case "sparc":
			archs = append(archs, ArchSPARC)
		case "ref", "refnode":
			archs = append(archs, ArchRef)
		default:
			return nil, fmt.Errorf("cluster: unknown architecture %q (want alpha|intel|sparc|ref)", p)
		}
	}
	return archs, nil
}

// ParseNodeList parses a node list such as "0,3,5-9" into node IDs, in the
// order written. It refuses an empty list, a malformed ID or range, and a
// list of more than limit IDs — before it expands the range that would
// exceed limit, so a range ending near math.MaxInt fails at once.
func ParseNodeList(s string, limit int) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		lo, hi, isRange := strings.Cut(part, "-")
		a, err := strconv.Atoi(lo)
		if !isRange {
			if err != nil {
				return nil, fmt.Errorf("cluster: bad node id %q", part)
			}
			hi = lo
		}
		b, err2 := strconv.Atoi(hi)
		if err != nil || err2 != nil || b < a {
			return nil, fmt.Errorf("cluster: bad node range %q", part)
		}
		// a >= 0 (a minus sign would have split the part), so b-a cannot
		// overflow; counting up to it, not past b, cannot wrap.
		if b-a >= limit-len(out) {
			return nil, fmt.Errorf("cluster: node list %q has more than %d nodes", s, limit)
		}
		for i := 0; i <= b-a; i++ {
			out = append(out, a+i)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("cluster: empty node list %q", s)
	}
	return out, nil
}
