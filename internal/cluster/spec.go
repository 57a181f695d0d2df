package cluster

import (
	"fmt"
	"strconv"
	"strings"
)

// SpecHelp documents the topology spec grammar accepted by FromSpec, for
// command-line flag usage strings.
const SpecHelp = "grove|centurion|test|fattree:<k>[@archs]; @archs is " +
	"arch[,arch...] (alpha|intel|sparc|ref), a round-robin architecture mix, " +
	"e.g. fattree:16@alpha,intel"

// Size caps on fat-tree specs. A fat-tree build costs O(classes) whatever
// its size, but what a caller does next — a monitor's per-node sensors, a
// scheduler's pool, simnet's per-link slots — is O(nodes) or O(links), so
// a spec must not ask for more than these. No topology FromSpec builds has
// more than MaxSpecNodes nodes, so it also caps a node list worth parsing.
const (
	MaxSpecNodes = 1 << 20
	maxSpecLinks = 1 << 22
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
// reproduction) or an algebraically routed fat tree sized by its radix.
// Fat trees are limited to 1 048 576 nodes and 4 194 304 links; larger
// ones are an error.
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
			return nil, fmt.Errorf("cluster: %q exceeds the spec limits of %d nodes and %d links",
				spec, MaxSpecNodes, maxSpecLinks)
		}
		return NewFatTree(FatTreeSpec{K: k, Archs: archs}), nil
	default:
		return nil, fmt.Errorf("cluster: unknown topology spec %q (want %s)", spec, SpecHelp)
	}
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
