package obs

import (
	"testing"

	"p2pcollect/internal/rlnc"
)

func TestHistogramObserveDoesNotAllocate(t *testing.T) {
	h := NewHistogram("d", ExpBuckets(0.001, 2, 16))
	if allocs := testing.AllocsPerRun(100, func() { h.Observe(0.42) }); allocs != 0 {
		t.Errorf("Observe allocates %.1f objects/op, want 0", allocs)
	}
}

// TestRingTracerTraceDoesNotAllocate pins Trace at 0 allocations once the
// ring has grown to its bound.
func TestRingTracerTraceDoesNotAllocate(t *testing.T) {
	rt := NewRingTracer(256)
	ev := TraceEvent{Seg: rlnc.SegmentID{Origin: 1, Seq: 2}, Kind: TraceGossipHop, T: 1, Actor: 3}
	for i := 0; i < 256; i++ {
		rt.Trace(ev)
	}
	if allocs := testing.AllocsPerRun(100, func() { rt.Trace(ev) }); allocs != 0 {
		t.Errorf("Trace allocates %.1f objects/op, want 0", allocs)
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewHistogram("d", ExpBuckets(0.001, 2, 16))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i%1000) * 0.001)
	}
}

func BenchmarkHistogramObserveParallel(b *testing.B) {
	h := NewHistogram("d", ExpBuckets(0.001, 2, 16))
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		v := 0.0
		for pb.Next() {
			h.Observe(v)
			v += 0.001
			if v > 1 {
				v = 0
			}
		}
	})
}

func BenchmarkHistogramSnapshot(b *testing.B) {
	h := NewHistogram("d", ExpBuckets(0.001, 2, 16))
	for i := 0; i < 10000; i++ {
		h.Observe(float64(i) * 0.0001)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = h.Snapshot()
	}
}

func BenchmarkRingTracerTrace(b *testing.B) {
	const cap = 4096
	rt := NewRingTracer(cap)
	ev := TraceEvent{Seg: rlnc.SegmentID{Origin: 1, Seq: 2}, Kind: TraceGossipHop}
	for i := 0; i < cap; i++ {
		rt.Trace(ev)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.T = float64(i)
		rt.Trace(ev)
	}
}

// BenchmarkRingTracerQuery queries one segment of a many-segment ring,
// scanning the full window past real eviction and interleaving.
func BenchmarkRingTracerQuery(b *testing.B) {
	const cap, segs = 4096, 256
	rt := NewRingTracer(cap)
	for i := 0; i < 3*cap; i++ {
		rt.Trace(TraceEvent{
			Seg:  rlnc.SegmentID{Origin: uint64(i % segs), Seq: uint64(i % 3)},
			Kind: TraceGossipHop,
			T:    float64(i),
		})
	}
	seg := rlnc.SegmentID{Origin: 17, Seq: 2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = rt.Query(seg)
	}
}

func BenchmarkGaugeSet(b *testing.B) {
	g := NewGauge("g")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Set(float64(i))
	}
}
