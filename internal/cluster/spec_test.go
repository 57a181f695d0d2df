package cluster

import (
	"runtime"
	"strings"
	"testing"
)

// FuzzFromSpec: any spec string yields an error or a topology that passes
// Validate — never a panic, and never a build that allocates more than a
// few MB (records are computed, so only the class signatures cost memory).
func FuzzFromSpec(f *testing.F) {
	for _, seed := range []string{
		"grove", "test", "fattree:4", "fattree:16@alpha,intel", "torus:3x3x3@sparc,ref,alpha,intel",
		"dragonfly:2x3x1", "dragonfly:1x4x1x3", "dragonfly:8x8x8@alpha,alpha,intel",
		// Sizes that overflow int or exceed the caps.
		"fattree:100000", "fattree:9223372036854775806", "torus:100000x100000x100000",
		"torus:9223372036854775807x2", "torus:3037000500x3037000500", "torus:1048576x1",
		"torus:128x128@alpha,intel,sparc,ref", "torus:85x85x85",
		"dragonfly:1x2000000x2000000", "dragonfly:1x2x4611686018427387904x3",
		"dragonfly:4611686018427387904x2x1", "dragonfly:1x1048576x1x2",
		// Malformed dimensions and architecture lists.
		"torus:0x4", "torus:-3x4", "torus:4x4x4x4", "dragonfly:1x1x1x9", "fattree:+4",
		"fattree:4@", "fattree:4@vax", "torus:4x4@alpha,,intel", "fattree:4@alpha@intel", "@alpha", "",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		topo, err := FromSpec(spec)
		runtime.ReadMemStats(&after)
		if err != nil {
			return
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 4<<20 {
			t.Fatalf("FromSpec(%q) allocated %d B", spec, alloc)
		}
		if topo.NumNodes() > maxSpecNodes || topo.NumLinks() > maxSpecLinks {
			t.Fatalf("FromSpec(%q) built %d nodes and %d links, past the caps", spec, topo.NumNodes(), topo.NumLinks())
		}
		if err := topo.Validate(); err != nil {
			t.Fatalf("FromSpec(%q): %v", spec, err)
		}
	})
}

func TestFromSpecRejectsOversized(t *testing.T) {
	for _, spec := range []string{
		"fattree:100000", "fattree:162", "torus:1024x1025", "torus:258x2", "dragonfly:1x2000000x2000000",
		"dragonfly:1x2x4611686018427387904x3", "dragonfly:64x64x64",
	} {
		if _, err := FromSpec(spec); err == nil || !strings.Contains(err.Error(), "exceeds the spec limits") {
			t.Errorf("FromSpec(%q) = %v, want a size-limit error", spec, err)
		}
	}
	for _, spec := range []string{"fattree:160", "torus:85x85x85", "torus:128x128x1", "dragonfly:1x2x1048576x3"} {
		if _, err := FromSpec(spec); err != nil {
			t.Errorf("FromSpec(%q) at the limits: %v", spec, err)
		}
	}
}
