package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// manifest is the shape of BENCHMARK.json.
type manifest struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []manifestLoad   `json:"workloads"`
	EndToEnd   []manifestMetric `json:"end_to_end"`
	PerLayer   []manifestMetric `json:"per_layer"`
}

type manifestLoad struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// TestManifestMatchesTables keeps BENCHMARK.json, which the driver
// reads, in step with the tables the harness prints from. On a mismatch
// it logs the document the tables call for.
func TestManifestMatchesTables(t *testing.T) {
	want := manifest{Command: []string{"bash", "benchmark/run.sh"}, Paths: []string{"benchmark"}, RunSeconds: 12}
	for _, w := range suite {
		if len(w.why) > 200 {
			t.Errorf("%s: why has %d characters, the contract allows 200", w.name, len(w.why))
		}
		want.Workloads = append(want.Workloads, manifestLoad{w.name, w.why})
	}
	for _, d := range gated {
		bound := d.Bound
		want.EndToEnd = append(want.EndToEnd, manifestMetric{d.Name, d.Unit, d.Better, &bound})
	}
	for _, d := range perLayer() {
		want.PerLayer = append(want.PerLayer, manifestMetric{Name: d.Name, Unit: d.Unit, Better: d.Better})
	}
	if n := len(want.PerLayer); n > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", n)
	}

	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got manifest
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		doc, _ := json.MarshalIndent(want, "", "  ")
		t.Fatalf("BENCHMARK.json differs from the harness's tables; they call for:\n%s", doc)
	}
}
