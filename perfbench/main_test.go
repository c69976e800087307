package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestMetricTablesMatchBenchmarkJSON keeps the metric sets the command
// prints in step with the ones BENCHMARK.json declares.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		what  string
		json  []entry
		table unitTable
	}{{"end_to_end", b.EndToEnd, endToEnd}, {"per_layer", b.PerLayer, perLayer}} {
		if len(c.json) != len(c.table) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the command %d", c.what, len(c.json), len(c.table))
			continue
		}
		for i, m := range c.table {
			if c.json[i].Name != m.name || c.json[i].Unit != m.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the command %s (%s)", c.what, i, c.json[i].Name, c.json[i].Unit, m.name, m.unit)
			}
		}
	}
	if len(b.Workloads) != len(workloadOrder) {
		t.Fatalf("BENCHMARK.json has %d workloads, the command %d", len(b.Workloads), len(workloadOrder))
	}
	for i, w := range b.Workloads {
		if w.Name != workloadOrder[i] || workloads[w.Name] == nil {
			t.Errorf("workload %d: BENCHMARK.json has %q, the command %q", i, w.Name, workloadOrder[i])
		}
	}
}

func TestParseTraces(t *testing.T) {
	out := []byte(`File: perfbench
Type: cpu
Duration: 1s, Total samples = 80ms ( 8.00%)
-----------+-------------------------------------------------------
      30ms   container/heap.down
             container/heap.Pop
             dircoh/internal/sim.(*Engine).Step
             dircoh/internal/machine.(*Machine).Run
             main.main
-----------+-------------------------------------------------------
      20ms   runtime.mallocgc
             dircoh/internal/stats.(*Histogram).Add
             dircoh/internal/machine.(*Machine).access
-----------+-------------------------------------------------------
      10ms   dircoh/internal/cache.(*Hierarchy).Access
             dircoh/internal/machine.(*Machine).access
-----------+-------------------------------------------------------
      20ms   runtime.futex
             runtime.main
-----------+-------------------------------------------------------
`)
	cpu, err := parseTraces(out)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{"sim": 3, "other": 2, "cache": 1, "runtime": 2}
	if cpu.total != 8 {
		t.Errorf("total %d samples, want 8", cpu.total)
	}
	for layer, n := range want {
		if cpu.samples[layer] != n {
			t.Errorf("%s: %d samples, want %d (all: %v)", layer, cpu.samples[layer], n, cpu.samples)
		}
	}
}
