package store

import (
	"testing"

	"p2pcollect/internal/randx"
	"p2pcollect/internal/rlnc"
)

func TestFinishedSetBounded(t *testing.T) {
	m, err := NewMemory(MemoryConfig{SegmentSize: 2, FinishedCap: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		m.MarkFinished(rlnc.SegmentID{Origin: 1, Seq: uint64(i)})
	}
	if m.FinishedCount() != 4 {
		t.Errorf("finished set size = %d, want 4", m.FinishedCount())
	}
	if m.Finished(rlnc.SegmentID{Origin: 1, Seq: 0}) {
		t.Error("oldest entry not evicted")
	}
	if !m.Finished(rlnc.SegmentID{Origin: 1, Seq: 9}) {
		t.Error("newest entry missing")
	}

	// A repeated mark is a no-op: it must not take a second slot, or the
	// set would evict a live entry early and a snapshot would persist the
	// duplicate.
	m, err = NewMemory(MemoryConfig{SegmentSize: 2, FinishedCap: 3})
	if err != nil {
		t.Fatal(err)
	}
	a, b, c := rlnc.SegmentID{Origin: 2, Seq: 0}, rlnc.SegmentID{Origin: 2, Seq: 1}, rlnc.SegmentID{Origin: 2, Seq: 2}
	for _, seg := range []rlnc.SegmentID{a, a, b, c} {
		m.MarkFinished(seg)
	}
	var order []rlnc.SegmentID
	m.RangeFinished(func(seg rlnc.SegmentID) { order = append(order, seg) })
	if !m.Finished(a) || m.FinishedCount() != 3 || len(order) != 3 || order[0] != a || order[1] != b || order[2] != c {
		t.Errorf("after marking a, a, b, c under cap 3: Finished(a) = %v, count %d, order %v; want a, b, c",
			m.Finished(a), m.FinishedCount(), order)
	}
}

// TestMarkFinishedSteadyStateAllocations guards the finished set: a store
// completing segments indefinitely must not allocate per completion (a
// FIFO re-sliced with [1:] would pin an ever-growing backing array).
func TestMarkFinishedSteadyStateAllocations(t *testing.T) {
	m, err := NewMemory(MemoryConfig{SegmentSize: 2, FinishedCap: 64})
	if err != nil {
		t.Fatal(err)
	}
	var seq uint64
	mark := func() {
		m.MarkFinished(rlnc.SegmentID{Origin: 7, Seq: seq})
		seq++
	}
	// Warm past the set's growth, then measure steady state.
	for i := 0; i < 1024; i++ {
		mark()
	}
	allocs := testing.AllocsPerRun(5000, mark)
	if allocs > 0.1 {
		t.Errorf("MarkFinished allocates %.2f allocs/op in steady state, want ~0", allocs)
	}
	if m.FinishedCount() != 64 {
		t.Errorf("finished set size = %d, want 64", m.FinishedCount())
	}
	if !m.Finished(rlnc.SegmentID{Origin: 7, Seq: seq - 1}) {
		t.Error("newest entry missing after the set wrapped")
	}
	if m.Finished(rlnc.SegmentID{Origin: 7, Seq: seq - 65}) {
		t.Error("entry older than the set capacity not evicted")
	}
}

// TestMemoryInfersSegmentSize checks lazy collector creation: a store built
// without a segment size adopts the first block's.
func TestMemoryInfersSegmentSize(t *testing.T) {
	m, err := NewMemory(MemoryConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if m.SegmentSize() != 0 {
		t.Fatalf("fresh store SegmentSize = %d, want 0", m.SegmentSize())
	}
	rng := randx.New(1)
	blocks := [][]byte{make([]byte, 8), make([]byte, 8), make([]byte, 8)}
	for _, b := range blocks {
		rng.FillCoefficients(b)
	}
	seg, err := rlnc.NewSegment(rlnc.SegmentID{Origin: 3, Seq: 1}, blocks)
	if err != nil {
		t.Fatal(err)
	}
	out, col, err := m.Receive(0, seg.Encode(rng))
	if err != nil {
		t.Fatal(err)
	}
	if !out.Innovative || col == nil {
		t.Fatalf("first block not innovative: %+v", out)
	}
	if m.SegmentSize() != 3 {
		t.Errorf("inferred SegmentSize = %d, want 3", m.SegmentSize())
	}
	if m.OpenCount() != 1 {
		t.Errorf("OpenCount = %d, want 1", m.OpenCount())
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if m.OpenCount() != 0 {
		t.Errorf("OpenCount after Close = %d, want 0", m.OpenCount())
	}
}
