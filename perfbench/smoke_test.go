package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"
)

// TestWorkloadsSmoke runs a seconds-long size of every workload, untraced
// and traced, and checks that each passes its output checks and measures
// every metric it owes.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for name, run := range workloads {
		for _, trace := range []bool{false, true} {
			out, err := run(runConfig{seed: 3, seconds: 1, trace: trace, workdir: t.TempDir()})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			for _, c := range out.checks {
				if !c.ok {
					t.Errorf("%s trace=%v: check %q failed: %s", name, trace, c.name, c.detail)
				}
			}
			if out.attempted < 1 || out.failed != 0 {
				t.Errorf("%s trace=%v: attempted %d, failed %d", name, trace, out.attempted, out.failed)
			}
			for _, d := range endToEnd {
				if v, ok := out.values[d.name]; !ok || v <= 0 {
					t.Errorf("%s trace=%v: %s = %v, %v; want a positive measurement", name, trace, d.name, v, ok)
				}
			}
			if trace && len(out.spans) == 0 {
				t.Errorf("%s: traced run recorded no spans", name)
			}
		}
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json's metric and workload
// lists identical to the ones the program prints.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	for name := range workloads {
		if !slices.Contains(names, name) {
			t.Errorf("workload %s missing from BENCHMARK.json", name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program runs %d", len(names), len(workloads))
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}
