package cluster

import (
	"fmt"
	"strings"
)

// ToDOT renders the topology as a Graphviz document: switches as boxes
// (D-Link-class devices shaded to flag the limited-capacity federation
// path), nodes as ellipses colored by architecture, and links labeled with
// their bandwidth. Useful for documenting rewired testbeds.
func (t *Topology) ToDOT() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "graph %q {\n", t.Name)
	sb.WriteString("  layout=neato; overlap=false; splines=true;\n")

	for id := 0; id < t.NumSwitches(); id++ {
		style := ""
		if strings.Contains(t.Switch(id).Class, "dlink") {
			style = ", style=filled, fillcolor=lightgray"
		}
		fmt.Fprintf(&sb, "  sw%d [shape=box, label=%q%s];\n", id, t.SwitchName(id), style)
	}

	colors := map[Arch]string{
		ArchAlpha: "lightblue",
		ArchIntel: "lightyellow",
		ArchSPARC: "lightpink",
		ArchRef:   "white",
	}
	for id := 0; id < t.NumNodes(); id++ {
		color, ok := colors[t.Node(id).Arch]
		if !ok {
			color = "white"
		}
		fmt.Fprintf(&sb, "  n%d [label=%q, style=filled, fillcolor=%s];\n",
			id, t.NodeName(id), color)
	}

	for id := 0; id < t.NumLinks(); id++ {
		l := t.Link(id)
		fmt.Fprintf(&sb, "  %s -- %s [label=\"%.0fMb\"];\n",
			dotID(l.A), dotID(l.B), l.Bandwidth*8/1e6)
	}
	sb.WriteString("}\n")
	return sb.String()
}

func dotID(d Device) string {
	if d.Kind == DevNode {
		return fmt.Sprintf("n%d", d.Index)
	}
	return fmt.Sprintf("sw%d", d.Index)
}
