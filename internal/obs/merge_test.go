package obs

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func shardSnapshot(label string, pulls int64, delays []float64) Snapshot {
	r := NewRegistry(label)
	r.RegisterCounters(func(yield func(name string, v int64)) {
		yield("serverPulls", pulls)
	})
	r.Gauge("outstandingPulls").Set(float64(pulls) / 10)
	h := r.Histogram("collectionTime", DelayBuckets())
	for _, d := range delays {
		h.Observe(d)
	}
	return r.Snapshot()
}

func TestMergeSnapshotsSumsAndRecomputesPercentiles(t *testing.T) {
	a := shardSnapshot("server-0", 10, []float64{0.1, 0.1, 0.1})
	b := shardSnapshot("server-1", 32, []float64{5, 5, 5, 5, 5, 5})
	m := MergeSnapshots("cluster", a, b)

	if m.Label != "cluster" {
		t.Fatalf("Label = %q", m.Label)
	}
	if got := m.Counters["serverPulls"]; got != 42 {
		t.Fatalf("merged counter = %d, want 42", got)
	}
	if got := m.Gauges["outstandingPulls"]; math.Abs(got-4.2) > 1e-9 {
		t.Fatalf("merged gauge = %g, want 4.2", got)
	}
	if got := m.Info["endpoints"]; got != "server-0,server-1" {
		t.Fatalf("endpoints = %q", got)
	}
	if len(m.Histograms) != 1 {
		t.Fatalf("merged %d histograms, want 1", len(m.Histograms))
	}
	h := m.Histograms[0]
	if h.Count != 9 {
		t.Fatalf("merged histogram count = %d, want 9", h.Count)
	}
	// 6 of 9 samples sit near 5s, so the cluster median must be in the
	// bucket containing 5 — not the 0.1s a naive per-shard average of
	// percentiles would suggest.
	if p50 := h.Quantile(0.50); p50 < 1 {
		t.Fatalf("merged p50 = %g, want the 5s mode to dominate", p50)
	}
	if _, ok := m.Info["mergeConflicts"]; ok {
		t.Fatal("conflict reported for identical layouts")
	}
}

func TestMergeSnapshotsRecordsLayoutConflicts(t *testing.T) {
	ra := NewRegistry("a")
	ra.Histogram("x", []float64{1, 2}).Observe(1.5)
	rb := NewRegistry("b")
	rb.Histogram("x", []float64{10, 20}).Observe(15)
	m := MergeSnapshots("cluster", ra.Snapshot(), rb.Snapshot())
	if got := m.Info["mergeConflicts"]; got != "x" {
		t.Fatalf("mergeConflicts = %q, want \"x\"", got)
	}
	// First endpoint's layout wins; its data must be intact.
	if len(m.Histograms) != 1 || m.Histograms[0].Count != 1 {
		t.Fatalf("conflicting histogram mangled: %+v", m.Histograms)
	}
}

func TestMergeHistogramSnapshotsRejectsMismatch(t *testing.T) {
	a := HistogramSnapshot{Name: "x", Buckets: []BucketCount{{LE: 1}, {LE: math.Inf(1)}}}
	b := HistogramSnapshot{Name: "x", Buckets: []BucketCount{{LE: 2}, {LE: math.Inf(1)}}}
	if _, err := MergeHistogramSnapshots(a, b); err == nil {
		t.Fatal("mismatched bounds merged without error")
	}
	c := HistogramSnapshot{Name: "x", Buckets: []BucketCount{{LE: 1}}}
	if _, err := MergeHistogramSnapshots(a, c); err == nil {
		t.Fatal("mismatched bucket counts merged without error")
	}
}

// TestMergedSnapshotPrometheusLints: the merged cluster view rendered as
// an exposition must satisfy the same lint the /metrics handler output
// does — whatever label the operator gave it (obstool merge -label).
func TestMergedSnapshotPrometheusLints(t *testing.T) {
	a := shardSnapshot("server-0", 3, []float64{0.2})
	b := shardSnapshot("server-1", 4, []float64{0.4})
	for label, want := range map[string]string{
		"cluster": `endpoint="cluster"`,
		`a"b,c`:   `endpoint="a\"b,c"`,
		"x\ny\\":  `endpoint="x\ny\\"`,
	} {
		var buf bytes.Buffer
		WriteExposition(&buf, MergeSnapshots(label, a, b))
		if err := LintExposition(bytes.NewReader(buf.Bytes())); err != nil {
			t.Errorf("label %q: merged exposition fails lint: %v\n%s", label, err, buf.String())
		}
		if !strings.Contains(buf.String(), want) {
			t.Errorf("label %q: merged exposition missing %s:\n%s", label, want, buf.String())
		}
	}
}
