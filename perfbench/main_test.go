package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"testing"
)

// TestMain lets the test binary serve the tier-study child passes that
// spawnTier starts, as the perfbench binary does.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "--child" {
		if err := childMain(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench child:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestSmoke runs every workload at tiny sizes, untraced and traced, and
// checks that its output checks pass and that each metric of the mode
// is printed with its unit.
func TestSmoke(t *testing.T) {
	for name := range workloads {
		for _, trace := range []bool{false, true} {
			var notes bytes.Buffer
			res, err := execute(name, opts{seed: 3, seconds: 0.05, trace: trace, tiny: true}, &notes)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s", name, trace, res.Correct, res.Attempted, res.Failed, notes.String())
			}
			defs := endToEndMetrics
			if trace {
				defs = perLayerMetrics
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", name, trace, d.name)
				case m.Unit != d.unit:
					t.Errorf("%s trace=%v: metric %s unit %q, want %q", name, trace, d.name, m.Unit, d.unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s trace=%v: metric %s = %v", name, trace, d.name, m.Value)
				case !trace && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, d.name, m.Value)
				}
			}
			if _, err := json.Marshal(res); err != nil {
				t.Errorf("%s trace=%v: result does not encode: %v", name, trace, err)
			}
		}
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json names the workloads and
// metrics perfbench implements, with the same units.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
		names = append(names, w.Name)
	}
	if len(names) != len(workloads) {
		sort.Strings(names)
		t.Errorf("BENCHMARK.json lists workloads %v; perfbench has %d", names, len(workloads))
	}
	for _, c := range []struct {
		json []metric
		code []metricDef
	}{{spec.EndToEnd, endToEndMetrics}, {spec.PerLayer, perLayerMetrics}} {
		if len(c.json) != len(c.code) {
			t.Errorf("BENCHMARK.json has %d metrics where perfbench has %d", len(c.json), len(c.code))
			continue
		}
		for i, m := range c.json {
			if m.Name != c.code[i].name || m.Unit != c.code[i].unit {
				t.Errorf("BENCHMARK.json metric %d is %s [%s], perfbench has %s [%s]", i, m.Name, m.Unit, c.code[i].name, c.code[i].unit)
			}
		}
	}
}
