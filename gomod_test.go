package cbes

import (
	"os"
	"regexp"
	"testing"
)

// TestGoDirectivesAgree keeps the two module files on one language version.
// benchmark/run.sh builds the harness with GOFLAGS=-mod=mod, and because
// benchmark/go.mod requires this module through a replace, a higher `go`
// line here makes that build rewrite benchmark/go.mod (a new `go` line plus
// a `toolchain` line) in the checkout it measures. Raise both files in one
// change, or neither; a single file that needs a newer standard library
// says so with a //go:build line, as internal/des/proc.go does.
func TestGoDirectivesAgree(t *testing.T) {
	directive := regexp.MustCompile(`(?m)^go\s+(\S+)\s*$`)
	version := func(path string) string {
		t.Helper()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		m := directive.FindSubmatch(data)
		if m == nil {
			t.Fatalf("%s has no go directive", path)
		}
		return string(m[1])
	}
	root, harness := version("go.mod"), version("benchmark/go.mod")
	if root != harness {
		t.Fatalf("go.mod says go %s but benchmark/go.mod says go %s: building the harness "+
			"(bash benchmark/run.sh, -mod=mod) would rewrite benchmark/go.mod to match; "+
			"change both files together", root, harness)
	}
}
