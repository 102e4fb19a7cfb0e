package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// TestMetricTablesMatchBenchmarkJSON pins the printed metric tables and
// workload names to the benchmark definition.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit string }
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []def, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the code %d", what, len(got), len(want))
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), code %s (%s)", what, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	var names, code []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	for n := range workloads {
		code = append(code, n)
	}
	sort.Strings(names)
	sort.Strings(code)
	if len(names) != len(code) {
		t.Fatalf("workloads: BENCHMARK.json %v, code %v", names, code)
	}
	for i := range names {
		if names[i] != code[i] {
			t.Fatalf("workloads: BENCHMARK.json %v, code %v", names, code)
		}
	}
}
