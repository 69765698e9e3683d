package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

// TestSmoke runs every workload, timed and traced, with a 1 s window: no
// timing assertions, only that every hook the benchmark reaches into the
// program through still works, every named metric is reported and finite,
// and the oracle is clean.
func TestSmoke(t *testing.T) {
	out := t.TempDir()
	for i := range workloads {
		w := &workloads[i]
		for _, trace := range []bool{false, true} {
			name, specs := w.name+"/timed", endToEndSpecs
			if trace {
				name, specs = w.name+"/traced", perLayerSpecs
			}
			t.Run(name, func(t *testing.T) {
				res, err := run(runConfig{w: w, seed: defaultSeed, seconds: 1, trace: trace, outDir: out})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("oracle: correct=%v attempted=%d failed=%d: %v", res.Correct, res.Attempted, res.Failed, res.info["first_violation"])
				}
				if len(res.Metrics) != len(specs) {
					t.Errorf("%d metrics reported, %d specified", len(res.Metrics), len(specs))
				}
				for _, s := range specs {
					m, ok := res.Metrics[s.Name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", s.Name)
					case m.Unit != s.Unit:
						t.Errorf("metric %s: unit %q, want %q", s.Name, m.Unit, s.Unit)
					case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
						t.Errorf("metric %s = %v", s.Name, m.Value)
					case !trace && m.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, must be positive", s.Name, m.Value)
					}
				}
				if trace {
					if d := res.Metrics["fleet.duplicate_deliveries"].Value; d != 0 {
						t.Errorf("fleet.duplicate_deliveries = %v", d)
					}
				}
			})
		}
	}
}

// TestSpecMatchesBenchmarkJSON keeps BENCHMARK.json and the tables in
// spec.go and workload.go naming the same things.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []metricSpec                 `json:"end_to_end"`
		PerLayer  []metricSpec                 `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in workload.go", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q", i, w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	compare := func(kind string, got, want []metricSpec) {
		if len(got) != len(want) {
			t.Errorf("%s: %d in BENCHMARK.json, %d in spec.go", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, spec.go %+v", kind, i, got[i], want[i])
			}
		}
	}
	compare("end_to_end", spec.EndToEnd, endToEndSpecs)
	compare("per_layer", spec.PerLayer, perLayerSpecs)
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{3, 1, 2, 5, 4})
	if q1 != 1.5 || q2 != 3 || q3 != 4.5 {
		t.Errorf("quartiles(1..5) = %v %v %v, want 1.5 3 4.5", q1, q2, q3)
	}
}
