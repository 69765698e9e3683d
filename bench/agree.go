package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// boundSpec is the part of BENCHMARK.json that -agree checks against.
type boundSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// quartiles are Python's statistics.quantiles(values, n=4) — the exclusive
// method — so that the spreads printed here are the ones the driver
// computes.
func quartiles(values []float64) (q1, q2, q3 float64) {
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	n := len(v)
	if n < 2 {
		return v[0], v[0], v[0]
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := float64(i*(n+1) - j*4)
		return (v[j-1]*(4-d) + v[j]*d) / 4
	}
	return cut(1), cut(2), cut(3)
}

// runAgree is the repeatability mode: two sets of n timed runs of every
// workload, interleaved and in alternating order, each run in a fresh
// process with its own seed. It prints median and quartiles of every
// end-to-end metric per set and fails when a spread (quartile distance over
// median) exceeds the metric's bound or the second set's median is worse
// than the first's by more than the bound — the two checks the driver
// applies to this benchmark.
func runAgree(n int, seed int64, seconds float64, outDir, specPath string) error {
	data, err := os.ReadFile(specPath)
	if err != nil {
		return fmt.Errorf("-agree needs BENCHMARK.json: %w", err)
	}
	var spec boundSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return fmt.Errorf("%s: %w", specPath, err)
	}

	// values[set][workload][metric] collects one number per run.
	var values [2]map[string]map[string][]float64
	for set := range values {
		values[set] = map[string]map[string][]float64{}
		for i := range workloads {
			values[set][workloads[i].name] = map[string][]float64{}
		}
	}
	for i := 0; i < n; i++ {
		for k := range workloads {
			w := &workloads[k]
			if i%2 == 1 {
				w = &workloads[len(workloads)-1-k]
			}
			for _, set := range []int{i % 2, 1 - i%2} {
				res, err := child(w.name, seed+int64(i), seconds, false, outDir)
				if err != nil {
					return err
				}
				if !res.Correct {
					return fmt.Errorf("%s seed %d: %d of %d operations failed", w.name, seed+int64(i), res.Failed, res.Attempted)
				}
				for name, m := range res.Metrics {
					values[set][w.name][name] = append(values[set][w.name][name], m.Value)
				}
				fmt.Fprintf(os.Stderr, "agree: run %d/%d set %d %s done\n", i+1, n, set+1, w.name)
			}
		}
	}

	disagreements := 0
	for i := range workloads {
		name := workloads[i].name
		for _, e := range spec.EndToEnd {
			a1, a2, a3 := quartiles(values[0][name][e.Name])
			b1, b2, b3 := quartiles(values[1][name][e.Name])
			spreadA, spreadB := ratio(a3-a1, a2), ratio(b3-b1, b2)
			worse := ratio(b2-a2, a2)
			if e.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			if worse > e.Bound {
				verdict = "MEDIANS DISAGREE"
			} else if e.Name != "setup_s" && (spreadA > e.Bound || spreadB > e.Bound) {
				verdict = "SPREAD OVER BOUND"
			}
			if verdict != "ok" {
				disagreements++
			}
			line, err := json.Marshal(map[string]any{
				"workload": name, "metric": e.Name, "bound": e.Bound, "verdict": verdict,
				"set1":            map[string]float64{"q1": a1, "median": a2, "q3": a3, "spread": spreadA},
				"set2":            map[string]float64{"q1": b1, "median": b2, "q3": b3, "spread": spreadB},
				"second_worse_by": worse, "runs_per_set": n,
			})
			if err != nil {
				return err
			}
			fmt.Println(string(line))
		}
	}
	if disagreements > 0 {
		return fmt.Errorf("%d metric x workload pairs disagree beyond their bounds", disagreements)
	}
	return nil
}
