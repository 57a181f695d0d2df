package main

import (
	"reflect"
	"testing"
)

// TestUnknownExperiments: every -run name that is not an experiment or
// "all" is reported, in the order written, even when other names match.
func TestUnknownExperiments(t *testing.T) {
	known := []string{"fig5", "table2", "overload"}
	for run, want := range map[string][]string{
		"all":                     nil,
		"fig5,table2":             nil,
		" fig5 , overload,":       nil,
		"":                        nil,
		"fig5,tabel2":             {"tabel2"},
		"fig5,toposcale":          {"toposcale"},
		"toposcale,all,fig6,fig5": {"toposcale", "fig6"},
	} {
		if got := unknownExperiments(run, known); !reflect.DeepEqual(got, want) {
			t.Errorf("unknownExperiments(%q) = %q, want %q", run, got, want)
		}
	}
}
