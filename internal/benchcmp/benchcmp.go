// Package benchcmp parses `go test -bench` output and compares it against
// the committed BENCH_*.json baselines. It is the engine behind
// cmd/benchgate; the CLI stays a thin flag wrapper so the parsing and
// comparison rules are unit-testable.
package benchcmp

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Result is one benchmark's measured numbers.
type Result struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// Baseline is the committed BENCH_*.json shape.
type Baseline struct {
	Date       string            `json:"date"`
	Goos       string            `json:"goos"`
	Goarch     string            `json:"goarch"`
	CPU        string            `json:"cpu"`
	Note       string            `json:"note"`
	Benchmarks map[string]Result `json:"benchmarks"`
}

// LoadBaseline reads and validates a BENCH_*.json file.
func LoadBaseline(path string) (*Baseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b Baseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(b.Benchmarks) == 0 {
		return nil, fmt.Errorf("%s: baseline has no benchmarks", path)
	}
	return &b, nil
}

// gomaxprocsSuffix strips the trailing -N (GOMAXPROCS) from a benchmark
// name. Sub-benchmark slashes are kept: BenchmarkFoo/bar-8 → BenchmarkFoo/bar.
var gomaxprocsSuffix = regexp.MustCompile(`-\d+$`)

// ParseBenchOutput reads `go test -bench -benchmem` text output, possibly
// spanning several packages, and returns measured results keyed
// "shortpkg.BenchmarkName" — the same key shape the baselines use. The
// short package name is the last element of the `pkg:` header go test
// prints before each package's benchmarks.
func ParseBenchOutput(r io.Reader) (map[string]Result, error) {
	out := make(map[string]Result)
	pkg := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if rest, ok := strings.CutPrefix(line, "pkg:"); ok {
			full := strings.TrimSpace(rest)
			if i := strings.LastIndexByte(full, '/'); i >= 0 {
				full = full[i+1:]
			}
			pkg = full
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 {
			continue
		}
		name := gomaxprocsSuffix.ReplaceAllString(fields[0], "")
		res := Result{}
		seenNs := false
		for i := 2; i < len(fields)-1; i++ {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				res.NsPerOp = v
				seenNs = true
			case "B/op":
				res.BytesPerOp = v
			case "allocs/op":
				res.AllocsPerOp = v
			}
		}
		if !seenNs {
			continue
		}
		key := name
		if pkg != "" {
			key = pkg + "." + name
		}
		out[key] = res
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no benchmark lines found in input (did you pass -bench and pipe the output?)")
	}
	return out, nil
}

// Report is the outcome of one gate run.
type Report struct {
	// Lines is the human-readable per-benchmark comparison, in key order.
	Lines []string
	// Problems holds one message per violated rule; empty means the gate
	// passes.
	Problems []string
	// Checked counts baseline benchmarks that were found and compared.
	Checked int
}

// Compare applies the gate rules: every baseline benchmark must be present
// in the run, and a baseline of 0 allocs/op must stay at 0. ns/op is
// reported beside its baseline but never judged: micro-benchmark timings on
// a shared runner spread wider than any regression worth catching, and
// throughput is judged end to end by bench/. Benchmarks in the run but not
// the baseline are ignored.
func Compare(b *Baseline, run map[string]Result) Report {
	var rep Report
	keys := make([]string, 0, len(b.Benchmarks))
	for k := range b.Benchmarks {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		base := b.Benchmarks[k]
		got, ok := run[k]
		if !ok {
			rep.Problems = append(rep.Problems,
				fmt.Sprintf("%s: in baseline but missing from this run — gate coverage would rot", k))
			continue
		}
		rep.Checked++
		ratio := 0.0
		if base.NsPerOp > 0 {
			ratio = got.NsPerOp / base.NsPerOp
		}
		status := "ok"
		if base.AllocsPerOp == 0 && got.AllocsPerOp > 0 {
			status = "ALLOC"
			rep.Problems = append(rep.Problems,
				fmt.Sprintf("%s: %g allocs/op on a 0-alloc hot path (baseline 0)", k, got.AllocsPerOp))
		}
		rep.Lines = append(rep.Lines,
			fmt.Sprintf("%-5s %-50s %10.4g ns/op (baseline %.4g, %.2fx) %g allocs/op (baseline %g)",
				status, k, got.NsPerOp, base.NsPerOp, ratio, got.AllocsPerOp, base.AllocsPerOp))
	}
	return rep
}

// UpdateFrom rewrites the baseline's benchmark numbers (and date) from a
// measured run and writes it back to path. Only benchmarks already enrolled
// in the baseline are updated; a benchmark missing from the run is an
// error, so -update can never silently shrink the gate.
func (b *Baseline) UpdateFrom(run map[string]Result, path string) error {
	for k := range b.Benchmarks {
		got, ok := run[k]
		if !ok {
			return fmt.Errorf("cannot update: baseline benchmark %s missing from this run", k)
		}
		b.Benchmarks[k] = got
	}
	b.Date = time.Now().Format("2006-01-02")
	return b.Write(path)
}

// Write marshals the baseline with stable formatting (sorted benchmark
// keys, two-space indent, trailing newline).
func (b *Baseline) Write(path string) error {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
