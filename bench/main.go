// Command bench is the repository's end-to-end benchmark: it runs a live
// collection cluster — real live.Server, collect, store, WAL, transports and
// peers, wired together the way cmd/collectnode wires them — under one of
// four frozen workloads, verifies every delivered byte, and prints either
// the end-to-end metrics (-trace 0) or the per-layer metrics behind them
// (-trace 1). README.md in this directory defines every metric and
// workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

var processStart = time.Now()

func main() {
	var (
		workloadName = flag.String("workload", "all", "workload to run, or all")
		seed         = flag.Int64("seed", defaultSeed, "seed of every generated input and config")
		seconds      = flag.Float64("seconds", 20, "length of the measurement window")
		trace        = flag.Int("trace", 0, "0: timed run, end-to-end metrics; 1: traced run, per-layer metrics")
		short        = flag.Bool("short", false, "1 s window: a smoke run, not a measurement")
		agree        = flag.Int("agree", 0, "repeatability mode: two sets of N runs of every workload, compared against BENCHMARK.json")
		outDir       = flag.String("out", "out", "directory for trace files and scratch data")
		specPath     = flag.String("spec", "../BENCHMARK.json", "BENCHMARK.json, read by -agree")
	)
	flag.Parse()
	if *short {
		*seconds = 1
	}
	if err := mainErr(*workloadName, *seed, *seconds, *trace != 0, *agree, *outDir, *specPath); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func mainErr(name string, seed int64, seconds float64, trace bool, agree int, outDir, specPath string) error {
	if seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	out, err := ensureOutDir(outDir)
	if err != nil {
		return err
	}
	if agree > 0 {
		if agree < 2 {
			return fmt.Errorf("-agree needs N >= 2")
		}
		return runAgree(agree, seed, seconds, out, specPath)
	}
	if name == "all" {
		return runAll(seed, seconds, out)
	}
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	cfg := runConfig{w: w, seed: seed, seconds: seconds, trace: trace, outDir: out, started: processStart}
	res, err := run(cfg)
	if err != nil {
		return err
	}
	if err := res.print(os.Stdout); err != nil {
		return err
	}
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d operations failed: %v", w.name, res.Failed, res.Attempted, res.info["first_violation"])
	}
	return nil
}

func run(cfg runConfig) (*result, error) {
	if cfg.w.procs > 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(cfg.w.procs))
	}
	if cfg.trace {
		return runTraced(cfg)
	}
	return runTimed(cfg)
}

// print writes the info line and then, last, the result line the driver
// parses.
func (res *result) print(f *os.File) error {
	info, err := json.Marshal(map[string]any{"info": res.info})
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(f, "%s\n%s\n", info, line)
	return err
}

// child runs one workload in a fresh process of this same binary, so that
// heap, GC state and peak RSS of one run never reach the next, and returns
// its parsed result line.
func child(name string, seed int64, seconds float64, trace bool, outDir string) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	traceArg := "0"
	if trace {
		traceArg = "1"
	}
	cmd := exec.Command(self,
		"-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
		"-trace", traceArg, "-out", outDir)
	cmd.Stderr = os.Stderr
	stdout, runErr := cmd.Output()
	lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%s: %w", name, runErr)
		}
		return nil, fmt.Errorf("%s: unreadable result: %w", name, err)
	}
	return &res, nil
}

// runAll runs every workload, timed then traced, each in its own process.
func runAll(seed int64, seconds float64, outDir string) error {
	failed := 0
	for i := range workloads {
		for _, trace := range []bool{false, true} {
			name := workloads[i].name
			res, err := child(name, seed, seconds, trace, outDir)
			if err != nil {
				return err
			}
			line, err := json.Marshal(map[string]any{"workload": name, "trace": trace, "result": res})
			if err != nil {
				return err
			}
			fmt.Println(string(line))
			if !res.Correct {
				failed++
			}
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d runs failed the correctness oracle", failed)
	}
	return nil
}
