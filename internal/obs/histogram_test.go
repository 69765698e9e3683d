package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram("delay", []float64{1, 2, 4})
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatalf("empty histogram Count=%d Sum=%g", h.Count(), h.Sum())
	}
	snap := h.Snapshot()
	if snap.Count != 0 || len(snap.Buckets) != 4 {
		t.Errorf("empty snapshot = %+v", snap)
	}
	if snap.Quantile(0.5) != 0 || snap.P50 != 0 || snap.P99 != 0 {
		t.Errorf("empty snapshot percentiles = %g/%g/%g, want 0", snap.Quantile(0.5), snap.P50, snap.P99)
	}
}

func TestHistogramSingleSample(t *testing.T) {
	h := NewHistogram("delay", []float64{1, 2, 4})
	h.Observe(1.5)
	if h.Count() != 1 {
		t.Fatalf("Count = %d", h.Count())
	}
	if h.Sum() != 1.5 {
		t.Errorf("Sum = %g", h.Sum())
	}
	// All quantiles land inside the (1,2] bucket.
	snap := h.Snapshot()
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		v := snap.Quantile(q)
		if v < 1 || v > 2 {
			t.Errorf("Quantile(%g) = %g, want within (1,2]", q, v)
		}
	}
}

func TestHistogramBucketBoundary(t *testing.T) {
	h := NewHistogram("delay", []float64{1, 2, 4})
	// le semantics: a value equal to a bound belongs to that bucket.
	h.Observe(1)
	h.Observe(2)
	h.Observe(4)
	h.Observe(4.01) // overflow
	snap := h.Snapshot()
	want := []int64{1, 1, 1, 1}
	for i, b := range snap.Buckets {
		if b.Count != want[i] {
			t.Errorf("bucket %d (le=%g) count = %d, want %d", i, b.LE, b.Count, want[i])
		}
	}
	if !math.IsInf(snap.Buckets[3].LE, 1) {
		t.Errorf("last bucket LE = %g, want +Inf", snap.Buckets[3].LE)
	}
	// Overflow values clamp quantiles to the last finite bound.
	if v := snap.Quantile(1); v != 4 {
		t.Errorf("Quantile(1) = %g, want clamp to 4", v)
	}
}

func TestHistogramQuantileInterpolation(t *testing.T) {
	h := NewHistogram("delay", []float64{10, 20})
	for i := 0; i < 100; i++ {
		h.Observe(5) // all mass in the first bucket [0,10]
	}
	// Median interpolates to the middle of the containing bucket.
	if v := h.Snapshot().Quantile(0.5); v < 4 || v > 6 {
		t.Errorf("Quantile(0.5) = %g, want ≈5", v)
	}
}

func TestHistogramConcurrentObserveAndScrape(t *testing.T) {
	// Scrape while counting: run under -race to pin lock-freedom is sound.
	h := NewHistogram("delay", ExpBuckets(0.001, 2, 20))
	const workers, perWorker = 4, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				h.Observe(float64(i%100) * 0.01)
			}
		}()
	}
	for i := 0; i < 50; i++ {
		snap := h.Snapshot()
		var cum int64
		for _, b := range snap.Buckets {
			cum += b.Count
		}
		if cum != snap.Count {
			t.Fatalf("scrape %d: bucket total %d != Count %d", i, cum, snap.Count)
		}
		// The percentiles come from the buckets in this very snapshot, not
		// from a second read of the live counters.
		if p50, p90, p99 := snap.Quantile(0.50), snap.Quantile(0.90), snap.Quantile(0.99); snap.P50 != p50 || snap.P90 != p90 || snap.P99 != p99 {
			t.Fatalf("scrape %d: percentiles %g/%g/%g do not recompute from the snapshot's buckets (%g/%g/%g)",
				i, snap.P50, snap.P90, snap.P99, p50, p90, p99)
		}
	}
	wg.Wait()
	if got := h.Count(); got != workers*perWorker {
		t.Fatalf("Count = %d after all workers finished, want %d", got, workers*perWorker)
	}
}

func TestHistogramPrometheusRendering(t *testing.T) {
	r := NewRegistry("server")
	h := r.Histogram("pullRTT", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)
	var b strings.Builder
	WriteExposition(&b, r.Snapshot())
	out := b.String()
	for _, want := range []string{
		"# TYPE p2p_pullRTT histogram",
		`p2p_pullRTT_bucket{endpoint="server",le="0.1"} 1`,
		`p2p_pullRTT_bucket{endpoint="server",le="1"} 2`,
		`p2p_pullRTT_bucket{endpoint="server",le="+Inf"} 3`,
		`p2p_pullRTT_count{endpoint="server"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestBucketHelpers(t *testing.T) {
	exp := ExpBuckets(1, 2, 4)
	for i, want := range []float64{1, 2, 4, 8} {
		if exp[i] != want {
			t.Errorf("ExpBuckets[%d] = %g, want %g", i, exp[i], want)
		}
	}
}
