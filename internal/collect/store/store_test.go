package store

import (
	"testing"

	"p2pcollect/internal/rlnc"
)

func newMemory(t *testing.T) *Memory {
	t.Helper()
	m, err := NewMemory(MemoryConfig{SegmentSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestFinishedSetBounded(t *testing.T) {
	const extra = 6
	m := newMemory(t)
	for i := 0; i < FinishedCap+extra; i++ {
		m.MarkFinished(rlnc.SegmentID{Origin: 1, Seq: uint64(i)})
	}
	if m.FinishedCount() != FinishedCap {
		t.Errorf("finished set size = %d, want %d", m.FinishedCount(), FinishedCap)
	}
	for i := 0; i < extra; i++ {
		if m.Finished(rlnc.SegmentID{Origin: 1, Seq: uint64(i)}) {
			t.Fatalf("entry %d of the oldest %d not evicted", i, extra)
		}
	}
	if !m.Finished(rlnc.SegmentID{Origin: 1, Seq: extra}) || !m.Finished(rlnc.SegmentID{Origin: 1, Seq: FinishedCap + extra - 1}) {
		t.Error("an entry within the cap is missing")
	}

	// A repeated mark is a no-op: it must not take a second slot, or the
	// set would evict a live entry early and a snapshot would persist the
	// duplicate.
	m = newMemory(t)
	a := rlnc.SegmentID{Origin: 2, Seq: 0}
	m.MarkFinished(a)
	m.MarkFinished(a)
	for i := 1; i < FinishedCap; i++ {
		m.MarkFinished(rlnc.SegmentID{Origin: 3, Seq: uint64(i)})
	}
	var order []rlnc.SegmentID
	m.RangeFinished(func(seg rlnc.SegmentID) { order = append(order, seg) })
	if !m.Finished(a) || m.FinishedCount() != FinishedCap || len(order) != FinishedCap || order[0] != a || order[1].Origin != 3 {
		t.Errorf("after marking a twice then %d others: Finished(a) = %v, count %d, order starts %v; want a first, %d entries",
			FinishedCap-1, m.Finished(a), m.FinishedCount(), order[:2], FinishedCap)
	}
}

// TestMarkFinishedSteadyStateAllocations guards the finished set: a store
// completing segments indefinitely must not allocate per completion (a
// FIFO re-sliced with [1:] would pin an ever-growing backing array).
func TestMarkFinishedSteadyStateAllocations(t *testing.T) {
	m := newMemory(t)
	var seq uint64
	mark := func() {
		m.MarkFinished(rlnc.SegmentID{Origin: 7, Seq: seq})
		seq++
	}
	// Warm past the set's growth, then measure steady state.
	for i := 0; i < FinishedCap+1024; i++ {
		mark()
	}
	allocs := testing.AllocsPerRun(5000, mark)
	if allocs > 0.1 {
		t.Errorf("MarkFinished allocates %.2f allocs/op in steady state, want ~0", allocs)
	}
	if m.FinishedCount() != FinishedCap {
		t.Errorf("finished set size = %d, want %d", m.FinishedCount(), FinishedCap)
	}
	if !m.Finished(rlnc.SegmentID{Origin: 7, Seq: seq - 1}) {
		t.Error("newest entry missing after the set wrapped")
	}
	if m.Finished(rlnc.SegmentID{Origin: 7, Seq: seq - FinishedCap - 1}) {
		t.Error("entry older than the set capacity not evicted")
	}
}

// TestMemoryRequiresSegmentSize: s is fixed at construction, so a store
// without one is an error rather than a store that waits for a block.
func TestMemoryRequiresSegmentSize(t *testing.T) {
	for _, s := range []int{0, -1} {
		if _, err := NewMemory(MemoryConfig{SegmentSize: s}); err == nil {
			t.Errorf("NewMemory accepted SegmentSize %d", s)
		}
	}
}
