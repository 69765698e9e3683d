// Command benchgate compares a `go test -bench` run against a committed
// baseline JSON (BENCH_*.json) and fails the build on structural
// regressions. Two rules, both exact:
//
//   - every benchmark enrolled in the baseline must appear in the run;
//   - a benchmark whose baseline records 0 allocs/op may not allocate at
//     all — those are the steady-state hot paths.
//
// ns/op is printed beside its baseline for the reader and never judged:
// throughput regressions are decided by paired runs of bench/.
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem ./internal/gf256 ... | benchgate -baseline BENCH_coding.json
//	benchgate -baseline BENCH_coding.json -input bench.txt
//	benchgate -baseline BENCH_coding.json -input bench.txt -update   # rewrite baseline from run
//
// Benchmarks in the run but absent from the baseline are ignored (new
// benchmarks don't break the gate until they are enrolled); benchmarks in
// the baseline but absent from the run fail it, so coverage cannot rot
// silently.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"p2pcollect/internal/benchcmp"
)

func main() {
	var (
		baselinePath = flag.String("baseline", "", "path to the committed BENCH_*.json baseline (required)")
		inputPath    = flag.String("input", "-", "go test -bench output to check; - reads stdin")
		update       = flag.Bool("update", false, "rewrite the baseline's numbers from this run instead of checking")
	)
	flag.Parse()
	if *baselinePath == "" {
		fmt.Fprintln(os.Stderr, "benchgate: -baseline is required")
		os.Exit(2)
	}

	baseline, err := benchcmp.LoadBaseline(*baselinePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(2)
	}

	var in io.Reader = os.Stdin
	if *inputPath != "-" {
		f, err := os.Open(*inputPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
			os.Exit(2)
		}
		defer f.Close()
		in = f
	}
	run, err := benchcmp.ParseBenchOutput(in)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(2)
	}

	if *update {
		if err := baseline.UpdateFrom(run, *baselinePath); err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
			os.Exit(2)
		}
		fmt.Printf("benchgate: rewrote %s from %d measured benchmarks\n", *baselinePath, len(run))
		return
	}

	report := benchcmp.Compare(baseline, run)
	for _, line := range report.Lines {
		fmt.Println(line)
	}
	if len(report.Problems) > 0 {
		fmt.Fprintf(os.Stderr, "\nbenchgate: FAIL — %d problem(s):\n", len(report.Problems))
		for _, p := range report.Problems {
			fmt.Fprintf(os.Stderr, "  %s\n", p)
		}
		os.Exit(1)
	}
	fmt.Printf("benchgate: ok — %d enrolled benchmark(s) present, 0-alloc paths still 0\n", report.Checked)
}
