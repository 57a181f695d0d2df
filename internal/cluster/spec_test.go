package cluster

import (
	"math"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// FuzzFromSpec: any spec string yields an error or a topology that passes
// Validate — never a panic, and never a build that allocates more than a
// few MB (records are computed, so only the class signatures cost memory).
// The torus and dragonfly seeds name kinds FromSpec does not build, so
// they must be rejected.
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
		// Malformed sizes and architecture lists.
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
		if topo.NumNodes() > MaxSpecNodes || topo.NumLinks() > maxSpecLinks {
			t.Fatalf("FromSpec(%q) built %d nodes and %d links, past the caps", spec, topo.NumNodes(), topo.NumLinks())
		}
		if err := topo.Validate(); err != nil {
			t.Fatalf("FromSpec(%q): %v", spec, err)
		}
	})
}

func TestFromSpecRejectsOversized(t *testing.T) {
	for _, spec := range []string{"fattree:100000", "fattree:162"} {
		if _, err := FromSpec(spec); err == nil || !strings.Contains(err.Error(), "exceeds the spec limits") {
			t.Errorf("FromSpec(%q) = %v, want a size-limit error", spec, err)
		}
	}
	for _, spec := range []string{"fattree:160"} {
		if _, err := FromSpec(spec); err != nil {
			t.Errorf("FromSpec(%q) at the limits: %v", spec, err)
		}
	}
}

// TestParseNodeList: lists and ranges parse in the order written, and a
// list longer than the limit fails before its range is expanded — even
// one ending at math.MaxInt, where counting up to the end would wrap.
func TestParseNodeList(t *testing.T) {
	cases := map[string][]int{
		"0":          {0},
		"0,3,5":      {0, 3, 5},
		"2-5":        {2, 3, 4, 5},
		"0-2,7,9-10": {0, 1, 2, 7, 9, 10},
		" 1 , 2 ":    {1, 2},
		"7,0-1":      {7, 0, 1},
	}
	for in, want := range cases {
		got, err := ParseNodeList(in, 8)
		if err != nil {
			t.Fatalf("%q: %v", in, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%q = %v, want %v", in, got, want)
		}
	}
	if got, err := ParseNodeList("0-7", 8); err != nil || len(got) != 8 {
		t.Fatalf("a list of exactly the limit: %v, %v", got, err)
	}
	maxInt := strconv.Itoa(math.MaxInt)
	for _, bad := range []string{
		"", "x", "5-2", "1-", "-3", ",", "1-x", "0-8", "0-3,4-8", "0-7,9",
		"0-3000000", "0-" + maxInt, maxInt + "-" + maxInt + ",0-" + maxInt,
	} {
		if got, err := ParseNodeList(bad, 8); err == nil {
			t.Fatalf("%q should error, got %d nodes", bad, len(got))
		}
	}
	if _, err := ParseNodeList("0-9223372036854775807", MaxSpecNodes); err == nil {
		t.Fatal("a range to math.MaxInt was accepted")
	}
	if got, err := ParseNodeList(maxInt+"-"+maxInt, 8); err != nil || !reflect.DeepEqual(got, []int{math.MaxInt}) {
		t.Fatalf("a one-node range at math.MaxInt: %v, %v", got, err)
	}
}
