package cluster

import (
	"strings"
	"testing"
)

func TestToDOT(t *testing.T) {
	g := NewOrangeGrove()
	dot := g.ToDOT()
	if !strings.HasPrefix(dot, "graph \"orange-grove\"") {
		t.Fatalf("header: %q", dot[:40])
	}
	// All devices present.
	for sw := 0; sw < g.NumSwitches(); sw++ {
		if !strings.Contains(dot, g.SwitchName(sw)) {
			t.Fatalf("switch %s missing", g.SwitchName(sw))
		}
	}
	if got := strings.Count(dot, " -- "); got != g.NumLinks() {
		t.Fatalf("%d edges, want %d", got, g.NumLinks())
	}
	// D-Links flagged as the limited-capacity path.
	if strings.Count(dot, "fillcolor=lightgray") != 2 {
		t.Fatal("D-Link switches not shaded")
	}
	// Architectures colored.
	for _, c := range []string{"lightblue", "lightyellow", "lightpink"} {
		if !strings.Contains(dot, c) {
			t.Fatalf("color %s missing", c)
		}
	}
	if !strings.HasSuffix(strings.TrimSpace(dot), "}") {
		t.Fatal("unterminated graph")
	}
}
