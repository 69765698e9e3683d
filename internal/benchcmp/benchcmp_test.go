package benchcmp

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: p2pcollect/internal/gf256
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkDot1K-4         	 3110834	       385.5 ns/op	       0 B/op	       0 allocs/op
BenchmarkAddMulSlice1K-4 	16941818	        70.91 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	p2pcollect/internal/gf256	2.533s
goos: linux
goarch: amd64
pkg: p2pcollect/internal/rlnc
BenchmarkRecode32-4              	  389124	      3056 ns/op	    1120 B/op	       3 allocs/op
BenchmarkRecodeInto32/sub-4      	  413900	      2899 ns/op	       0 B/op	       0 allocs/op
PASS
`

func sample(t *testing.T) map[string]Result {
	t.Helper()
	run, err := ParseBenchOutput(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	return run
}

func TestParseBenchOutput(t *testing.T) {
	run := sample(t)
	if len(run) != 4 {
		t.Fatalf("parsed %d benchmarks, want 4: %v", len(run), run)
	}
	dot, ok := run["gf256.BenchmarkDot1K"]
	if !ok {
		t.Fatalf("missing gf256.BenchmarkDot1K in %v", run)
	}
	if dot.NsPerOp != 385.5 || dot.AllocsPerOp != 0 {
		t.Fatalf("bad parse: %+v", dot)
	}
	rec := run["rlnc.BenchmarkRecode32"]
	if rec.NsPerOp != 3056 || rec.BytesPerOp != 1120 || rec.AllocsPerOp != 3 {
		t.Fatalf("bad parse: %+v", rec)
	}
	// Sub-benchmark keeps its slash, loses only the GOMAXPROCS suffix.
	if _, ok := run["rlnc.BenchmarkRecodeInto32/sub"]; !ok {
		t.Fatalf("sub-benchmark key mangled: %v", run)
	}
}

func TestParseBenchOutputEmpty(t *testing.T) {
	if _, err := ParseBenchOutput(strings.NewReader("PASS\nok\n")); err == nil {
		t.Fatal("expected error on input with no benchmark lines")
	}
}

func baselineFromSample(t *testing.T) *Baseline {
	return &Baseline{Date: "2026-08-05", Benchmarks: sample(t)}
}

func TestCompareCleanRunPasses(t *testing.T) {
	b := baselineFromSample(t)
	rep := Compare(b, sample(t))
	if len(rep.Problems) != 0 {
		t.Fatalf("identical run must pass, got %v", rep.Problems)
	}
	if rep.Checked != 4 {
		t.Fatalf("checked %d, want 4", rep.Checked)
	}
}

func TestCompareFailsOnAllocOnZeroAllocPath(t *testing.T) {
	b := baselineFromSample(t)
	run := sample(t)
	r := run["rlnc.BenchmarkRecodeInto32/sub"]
	r.AllocsPerOp = 1 // timing unchanged: must still fail
	run["rlnc.BenchmarkRecodeInto32/sub"] = r
	rep := Compare(b, run)
	if len(rep.Problems) != 1 || !strings.Contains(rep.Problems[0], "0-alloc hot path") {
		t.Fatalf("alloc regression not caught: %v", rep.Problems)
	}
	// Alloc growth on an already-allocating path is tolerated.
	run = sample(t)
	r2 := run["rlnc.BenchmarkRecode32"]
	r2.AllocsPerOp++
	run["rlnc.BenchmarkRecode32"] = r2
	if rep := Compare(b, run); len(rep.Problems) != 0 {
		t.Fatalf("alloc growth on allocating path should not fail the gate: %v", rep.Problems)
	}
}

func TestCompareFailsOnMissingBenchmark(t *testing.T) {
	b := baselineFromSample(t)
	run := sample(t)
	delete(run, "gf256.BenchmarkDot1K")
	rep := Compare(b, run)
	if len(rep.Problems) != 1 || !strings.Contains(rep.Problems[0], "missing from this run") {
		t.Fatalf("missing benchmark not caught: %v", rep.Problems)
	}
}

func TestCompareIgnoresUnenrolledBenchmark(t *testing.T) {
	b := baselineFromSample(t)
	run := sample(t)
	run["gf256.BenchmarkBrandNew"] = Result{NsPerOp: 1e9}
	if rep := Compare(b, run); len(rep.Problems) != 0 {
		t.Fatalf("unenrolled benchmark must not affect the gate: %v", rep.Problems)
	}
}

func TestUpdateRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_test.json")
	b := baselineFromSample(t)
	b.Note = "round-trip"
	run := sample(t)
	faster := run["gf256.BenchmarkDot1K"]
	faster.NsPerOp = 100
	run["gf256.BenchmarkDot1K"] = faster
	if err := b.UpdateFrom(run, path); err != nil {
		t.Fatal(err)
	}
	re, err := LoadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if re.Benchmarks["gf256.BenchmarkDot1K"].NsPerOp != 100 {
		t.Fatalf("update not persisted: %+v", re.Benchmarks["gf256.BenchmarkDot1K"])
	}
	if re.Note != "round-trip" {
		t.Fatalf("note lost in update: %q", re.Note)
	}
	data, _ := os.ReadFile(path)
	if data[len(data)-1] != '\n' {
		t.Fatal("written baseline must end in a newline")
	}

	// Updating from a run that lacks an enrolled benchmark must refuse.
	delete(run, "rlnc.BenchmarkRecode32")
	if err := b.UpdateFrom(run, path); err == nil {
		t.Fatal("UpdateFrom must refuse when an enrolled benchmark is missing")
	}
}
