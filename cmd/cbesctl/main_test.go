package main

import (
	"reflect"
	"testing"
)

// TestParseIDList: the -mapping and -pool node lists parse through
// cluster.ParseNodeList, capped at the largest topology a spec builds.
func TestParseIDList(t *testing.T) {
	cases := map[string][]int{
		"0":          {0},
		"0,3,5":      {0, 3, 5},
		"2-5":        {2, 3, 4, 5},
		"0-2,7,9-10": {0, 1, 2, 7, 9, 10},
		" 1 , 2 ":    {1, 2},
	}
	for in, want := range cases {
		var m mappingsFlag
		if err := m.Set(in); err != nil {
			t.Fatalf("%q: %v", in, err)
		}
		if !reflect.DeepEqual(m, mappingsFlag{want}) {
			t.Fatalf("%q = %v, want %v", in, m, want)
		}
	}
	for _, bad := range []string{"", "x", "5-2", "1-", "-3", ",", "0-3000000"} {
		var m mappingsFlag
		if err := m.Set(bad); err == nil {
			t.Fatalf("%q should error", bad)
		}
	}
}

func TestFilterMetricsProm(t *testing.T) {
	text := "# HELP cbes_accuracy_joined_total Joined outcomes.\n" +
		"# TYPE cbes_accuracy_joined_total counter\n" +
		"cbes_accuracy_joined_total 3\n" +
		"# HELP cbes_rpc_requests_total RPC requests.\n" +
		"# TYPE cbes_rpc_requests_total counter\n" +
		"cbes_rpc_requests_total{method=\"Evaluate\"} 12\n" +
		"cbes_accuracy_pending 1\n"
	got := filterMetricsProm(text, "cbes_accuracy")
	want := "# HELP cbes_accuracy_joined_total Joined outcomes.\n" +
		"# TYPE cbes_accuracy_joined_total counter\n" +
		"cbes_accuracy_joined_total 3\n" +
		"cbes_accuracy_pending 1\n"
	if got != want {
		t.Errorf("filterMetricsProm:\ngot:\n%s\nwant:\n%s", got, want)
	}
	if out := filterMetricsProm(text, ""); out != text {
		t.Error("empty prefix should keep everything")
	}
	if out := filterMetricsProm(text, "nope"); out != "" {
		t.Errorf("unmatched prefix kept %q", out)
	}
}
