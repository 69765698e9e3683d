package store

import (
	"testing"

	"p2pcollect/internal/peercore"
	"p2pcollect/internal/raceon"
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

// TestMemoryForgetBoundsMemory drives a long pull sequence — deliver a
// segment, forget it, move on — and checks the store's working set stays
// at one collection while the counters keep exact totals, the
// bounded-server-memory contract Forget exists for.
func TestMemoryForgetBoundsMemory(t *testing.T) {
	sink := peercore.NewCounters()
	m, err := NewMemory(MemoryConfig{SegmentSize: 2, Sink: sink})
	if err != nil {
		t.Fatal(err)
	}
	const segments = 500
	maxOpen := 0
	for i := 0; i < segments; i++ {
		seg := rlnc.SegmentID{Origin: 3, Seq: uint64(i)}
		out, _, err := m.Receive(0, &rlnc.CodedBlock{Seg: seg, Coeffs: []byte{1, 0}})
		if err != nil || !out.Innovative || out.Decoded {
			t.Fatalf("segment %d first pull: %+v err=%v", i, out, err)
		}
		out, _, err = m.Receive(0, &rlnc.CodedBlock{Seg: seg, Coeffs: []byte{0, 1}})
		if err != nil || !out.Innovative || !out.Decoded {
			t.Fatalf("segment %d second pull: %+v err=%v", i, out, err)
		}
		maxOpen = max(maxOpen, m.OpenCount())
		m.Forget(seg)
	}
	if maxOpen != 1 {
		t.Fatalf("peak working set = %d collections, want 1", maxOpen)
	}
	if m.OpenCount() != 0 {
		t.Fatalf("OpenCount = %d after forgetting everything", m.OpenCount())
	}
	if sink.Get(peercore.EvServerPull) != 2*segments || sink.Get(peercore.EvInnovativePull) != 2*segments ||
		sink.Get(peercore.EvDecodedSegment) != segments {
		t.Fatalf("counters drifted across forgets: %v", sink.Snapshot())
	}
	// A straggler block for a forgotten segment opens a fresh zeroed
	// collection; it does not resurrect the old rank.
	out, col, err := m.Receive(0, &rlnc.CodedBlock{Seg: rlnc.SegmentID{Origin: 3, Seq: 0}, Coeffs: []byte{1, 1}})
	if err != nil || !out.Innovative || out.Decoded || col.Rank() != 1 {
		t.Fatalf("straggler after forget: %+v rank=%d err=%v", out, col.Rank(), err)
	}
}

// TestMemoryReceiveOpensAndForgets: the first block of a segment opens its
// collection at the block's payload size, later blocks reach the same
// collection, and Forget removes it. A block of the wrong coefficient
// count opens nothing and moves no counter; one of the wrong payload size
// is refused by the collection it names.
func TestMemoryReceiveOpensAndForgets(t *testing.T) {
	sink := peercore.NewCounters()
	m, err := NewMemory(MemoryConfig{SegmentSize: 2, Sink: sink})
	if err != nil {
		t.Fatal(err)
	}
	seg := rlnc.SegmentID{Origin: 2}
	if _, col, err := m.Receive(0, &rlnc.CodedBlock{Seg: seg, Coeffs: []byte{1}}); err == nil || col != nil || m.OpenCount() != 0 {
		t.Fatalf("short coefficient vector: err=%v col=%v open=%d", err, col, m.OpenCount())
	}
	_, col, err := m.Receive(0, &rlnc.CodedBlock{Seg: seg, Coeffs: []byte{1, 0}, Payload: []byte{1, 2}})
	if err != nil || col == nil || m.Collection(seg) != col || m.OpenCount() != 1 || col.PayloadLen() != 2 {
		t.Fatalf("first block: err=%v open=%d", err, m.OpenCount())
	}
	if _, again, err := m.Receive(0, &rlnc.CodedBlock{Seg: seg, Coeffs: []byte{0, 1}, Payload: []byte{1}}); err == nil || again != col {
		t.Fatalf("payload length mismatch: err=%v, same collection %v", err, again == col)
	}
	if sink.Get(peercore.EvServerPull) != 1 || col.Rank() != 1 {
		t.Fatalf("serverPulls = %d, rank %d after two malformed blocks, want 1 and 1", sink.Get(peercore.EvServerPull), col.Rank())
	}
	m.Forget(seg)
	if m.OpenCount() != 0 || m.Collection(seg) != nil {
		t.Fatal("forget did not remove collection")
	}
}

// TestMemoryRestore: a restored collection is open at its rank; restoring
// over an open collection, or a basis the decoder refuses, fails and
// leaves the store as it was.
func TestMemoryRestore(t *testing.T) {
	m := newMemory(t)
	seg := rlnc.SegmentID{Origin: 1}
	basis := []*rlnc.CodedBlock{
		{Seg: seg, Coeffs: []byte{1, 0}, Payload: []byte{10}},
		{Seg: seg, Coeffs: []byte{1, 0}, Payload: []byte{10}},
	}
	if err := m.Restore(seg, 1, basis); err == nil {
		t.Error("a dependent basis was restored")
	}
	if m.OpenCount() != 0 {
		t.Fatalf("a refused restore left %d collections open", m.OpenCount())
	}
	if err := m.Restore(seg, 1, basis[:1]); err != nil {
		t.Fatal(err)
	}
	col := m.Collection(seg)
	if col == nil || col.Rank() != 1 {
		t.Fatal("restored collection missing or at the wrong rank")
	}
	if err := m.Restore(seg, 1, nil); err == nil || m.Collection(seg) != col {
		t.Errorf("restore over an open collection: err=%v, collection replaced %v", err, m.Collection(seg) != col)
	}
}

// TestRedundantReceiveAllocatesNothing pins a pull against a full-rank
// collection, the path a scheduler trades useful pulls against, at 0
// allocations, timed by BenchmarkRedundantReceive. The useful path is
// pinned as MemoryReceive in the wal package.
func TestRedundantReceiveAllocatesNothing(t *testing.T) {
	if raceon.Enabled {
		t.Skip("allocation budgets describe the uninstrumented build")
	}
	if n := testing.AllocsPerRun(1000, redundantReceive(t)); n != 0 {
		t.Errorf("redundant Receive: %v allocations per call, want 0", n)
	}
}

// redundantReceive is one Receive of a block a full-rank collection
// already spans (s=16, 64-byte payloads).
func redundantReceive(tb testing.TB) func() {
	const s = 16
	seg := rlnc.SegmentID{Origin: 1}
	payload := make([]byte, 64)
	m, err := NewMemory(MemoryConfig{SegmentSize: s})
	if err != nil {
		tb.Fatal(err)
	}
	var first *rlnc.CodedBlock
	for i := 0; i < s; i++ {
		coeffs := make([]byte, s)
		coeffs[i] = 1
		cb := &rlnc.CodedBlock{Seg: seg, Coeffs: coeffs, Payload: payload}
		if _, _, err := m.Receive(0, cb); err != nil {
			tb.Fatal(err)
		}
		if i == 0 {
			first = cb
		}
	}
	return func() {
		if out, _, err := m.Receive(0, first); err != nil || out.Innovative {
			tb.Fatalf("redundant pull: %+v err=%v", out, err)
		}
	}
}

func BenchmarkRedundantReceive(b *testing.B) {
	op := redundantReceive(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}
