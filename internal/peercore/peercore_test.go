package peercore

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"p2pcollect/internal/obs"
	"p2pcollect/internal/pullsched"
	"p2pcollect/internal/raceon"
	"p2pcollect/internal/randx"
	"p2pcollect/internal/rlnc"
)

func newTestPeer(t *testing.T, cap int, sink EventSink) *Peer {
	t.Helper()
	return NewPeer(7, PeerConfig{SegmentSize: 4, BufferCap: cap, Gamma: 1}, randx.New(1), sink)
}

func TestInjectStoresFullSegment(t *testing.T) {
	sink := NewCounters()
	p := newTestPeer(t, 16, sink)
	seg, stored, ok := p.Inject(0, nil)
	if !ok {
		t.Fatal("inject rejected with room available")
	}
	if seg.Origin != 7 || seg.Seq != 0 {
		t.Fatalf("segment ID = %+v, want origin 7 seq 0", seg)
	}
	if len(stored) != 4 {
		t.Fatalf("stored %d blocks, want 4", len(stored))
	}
	for _, st := range stored {
		if st.TTL <= 0 || st.Deadline != st.TTL {
			t.Fatalf("block TTL %g deadline %g, want positive TTL with deadline = now+TTL", st.TTL, st.Deadline)
		}
	}
	if p.Occupancy() != 4 || p.NumSegments() != 1 || !p.HoldingFull(seg) {
		t.Fatalf("occupancy %d segments %d full=%v after inject", p.Occupancy(), p.NumSegments(), p.HoldingFull(seg))
	}
	if got := sink.Get(EvInjectedSegment); got != 1 {
		t.Fatalf("injectedSegments = %d, want 1", got)
	}
	if got := sink.Get(EvBlockStored); got != 4 {
		t.Fatalf("blocksStored = %d, want 4", got)
	}
	// Next injection advances the sequence number.
	if seg2, _, ok := p.Inject(1, nil); !ok || seg2.Seq != 1 {
		t.Fatalf("second inject = %+v ok=%v, want seq 1", seg2, ok)
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestInjectSuppressedAtCap(t *testing.T) {
	sink := NewCounters()
	p := newTestPeer(t, 7, sink) // room for one segment, not two
	if _, _, ok := p.Inject(0, nil); !ok {
		t.Fatal("first inject rejected")
	}
	called := false
	if _, _, ok := p.Inject(1, func() [][]byte { called = true; return nil }); ok {
		t.Fatal("inject accepted above B-s")
	}
	if called {
		t.Fatal("payload callback invoked for a suppressed injection")
	}
	if got := sink.Get(EvSuppressedInjection); got != 1 {
		t.Fatalf("suppressedInjections = %d, want 1", got)
	}
}

func TestInjectWithPayloads(t *testing.T) {
	p := newTestPeer(t, 16, nil)
	seg, stored, ok := p.Inject(0, func() [][]byte {
		return [][]byte{{1, 2}, {3, 4}, {5, 6}, {7, 8}}
	})
	if !ok {
		t.Fatal("inject rejected")
	}
	for i, st := range stored {
		if len(st.Block.Payload) != 2 {
			t.Fatalf("block %d payload %v", i, st.Block.Payload)
		}
		if st.Block.Coeffs[i] != 1 {
			t.Fatalf("block %d lacks unit coefficient", i)
		}
	}
	_ = seg
}

func TestStoreRejectsRedundantAndFullBuffer(t *testing.T) {
	sink := NewCounters()
	p := newTestPeer(t, 8, sink)
	seg, stored, _ := p.Inject(0, nil)
	// A duplicate of a held block is redundant.
	dup := &rlnc.CodedBlock{Seg: seg, Coeffs: append([]byte(nil), stored[0].Block.Coeffs...)}
	if res := p.Store(0, dup); res.Stored || res.NoRoom {
		t.Fatalf("duplicate block: %+v, want redundant rejection", res)
	}
	if got := sink.Get(EvRedundantBlock); got != 1 {
		t.Fatalf("redundantBlocks = %d, want 1", got)
	}
	// At capacity the cap check fires before the rank test: even a
	// would-be-redundant block gets NoRoom, and no holding state is left.
	p.Inject(0, nil) // buffer now at cap 8
	other := &rlnc.CodedBlock{Seg: rlnc.SegmentID{Origin: 9}, Coeffs: []byte{1, 0, 0, 0}}
	if res := p.Store(0, other); !res.NoRoom {
		t.Fatalf("store at cap: %+v, want NoRoom", res)
	}
	if p.Holds(other.Seg) || p.NumSegments() != 2 {
		t.Fatal("rejected block left holding state behind")
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestStoreRedundantFirstBlockLeavesNoEmptyHolding(t *testing.T) {
	p := newTestPeer(t, 16, nil)
	zero := &rlnc.CodedBlock{Seg: rlnc.SegmentID{Origin: 3}, Coeffs: []byte{0, 0, 0, 0}}
	if res := p.Store(0, zero); res.Stored {
		t.Fatal("zero block stored")
	}
	if p.NumSegments() != 0 || p.Holds(zero.Seg) {
		t.Fatal("empty holding retained after redundant first block")
	}
}

func TestExpireBlockPaths(t *testing.T) {
	sink := NewCounters()
	p := newTestPeer(t, 16, sink)
	seg, stored, _ := p.Inject(0, nil)
	if !p.ExpireBlock(stored[0].Block) {
		t.Fatal("live block not expired")
	}
	if p.ExpireBlock(stored[0].Block) {
		t.Fatal("double expiry reported success")
	}
	if p.Occupancy() != 3 || p.HoldingFull(seg) {
		t.Fatalf("occupancy %d full=%v after expiry", p.Occupancy(), p.HoldingFull(seg))
	}
	for _, st := range stored[1:] {
		p.ExpireBlock(st.Block)
	}
	if p.Holds(seg) || p.NumSegments() != 0 || p.Occupancy() != 0 {
		t.Fatal("holding survived expiry of all its blocks")
	}
	if got := sink.Get(EvBlockLostTTL); got != 4 {
		t.Fatalf("blocksLostToTTL = %d, want 4", got)
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestExpireDueSweep(t *testing.T) {
	p := newTestPeer(t, 64, nil)
	_, stored, _ := p.Inject(0, nil)
	p.Inject(0, nil)
	// Find the latest deadline in the first segment; sweep just past it.
	cut := 0.0
	for _, st := range stored {
		if st.Deadline > cut {
			cut = st.Deadline
		}
	}
	removed := p.ExpireDue(cut * 1e6) // far future: everything expires
	if removed != 8 || p.Occupancy() != 0 || p.NumSegments() != 0 {
		t.Fatalf("swept %d, occupancy %d, segments %d; want full sweep", removed, p.Occupancy(), p.NumSegments())
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestExpireDueNothingDueAllocatesNothing pins the steady-state cost of the
// live runtime's periodic TTL sweep: visiting every holding without an
// expiry must not allocate.
func TestExpireDueNothingDueAllocatesNothing(t *testing.T) {
	p := newTestPeer(t, 64, nil)
	for i := 0; i < 4; i++ {
		p.Inject(0, nil)
	}
	occ := p.Occupancy()
	allocs := testing.AllocsPerRun(100, func() {
		if n := p.ExpireDue(0); n != 0 {
			t.Fatalf("sweep at t=0 removed %d blocks", n)
		}
	})
	if allocs != 0 {
		t.Fatalf("ExpireDue with nothing due: %v allocs/op, want 0", allocs)
	}
	if p.Occupancy() != occ {
		t.Fatalf("occupancy %d after no-op sweeps, want %d", p.Occupancy(), occ)
	}
}

// sweepAll is ExpireDue without the per-holding bound: every holding is
// visited and its blocks checked, the sweep as it was before the bound.
func sweepAll(p *Peer, now float64) int {
	removed := 0
	for i := 0; i < len(p.segIDs); i++ {
		h := p.holdings[p.segIDs[i]]
		due := math.Inf(1)
		for _, cb := range append([]*rlnc.CodedBlock(nil), h.Blocks()...) {
			if deadline := p.deadlines[cb]; now > deadline {
				h.RemoveBlock(cb)
				delete(p.deadlines, cb)
				p.occupancy--
				removed++
			} else {
				due = min(due, deadline)
			}
		}
		if h.Len() == 0 {
			p.dropHolding(p.segIDs[i])
			i--
			continue
		}
		p.segDue[i] = due
	}
	return removed
}

// TestExpireDueSkipsOnlyHoldingsWithNothingDue drives two peers through the
// same seeded stores, targeted expiries, purges and sweeps, one sweeping
// with ExpireDue and one visiting every holding: the removal counts, the
// sampling order and every holding's block order must agree throughout.
func TestExpireDueSkipsOnlyHoldingsWithNothingDue(t *testing.T) {
	const size = 4
	for seed := int64(1); seed <= 10; seed++ {
		a := NewPeer(7, PeerConfig{SegmentSize: size, BufferCap: 64, Gamma: 1}, randx.New(seed), nil)
		b := NewPeer(7, PeerConfig{SegmentSize: size, BufferCap: 64, Gamma: 1}, randx.New(seed), nil)
		ops := randx.New(seed + 100)
		now := 0.0
		for step := 0; step < 400; step++ {
			now += ops.Exp(20)
			switch k := ops.Intn(10); {
			case k < 3:
				a.Inject(now, nil)
				b.Inject(now, nil)
			case k < 6 && a.NumSegments() > 0:
				i := ops.Intn(a.NumSegments())
				a.Store(now, a.Recode(a.SegmentAt(i)))
				b.Store(now, b.Recode(b.SegmentAt(i)))
			case k == 6 && a.NumSegments() > 0:
				i := ops.Intn(a.NumSegments())
				j := ops.Intn(a.BlocksOf(a.SegmentAt(i)))
				a.ExpireBlock(a.holdings[a.SegmentAt(i)].Blocks()[j])
				b.ExpireBlock(b.holdings[b.SegmentAt(i)].Blocks()[j])
			case k == 7 && a.NumSegments() > 0:
				i := ops.Intn(a.NumSegments())
				a.DropSegment(a.SegmentAt(i))
				b.DropSegment(b.SegmentAt(i))
			default:
				if got, want := a.ExpireDue(now), sweepAll(b, now); got != want {
					t.Fatalf("seed %d step %d: ExpireDue removed %d, a full sweep %d", seed, step, got, want)
				}
			}
			for _, p := range []*Peer{a, b} {
				if err := p.CheckInvariants(); err != nil {
					t.Fatalf("seed %d step %d: %v", seed, step, err)
				}
			}
			if a.NumSegments() != b.NumSegments() || a.Occupancy() != b.Occupancy() {
				t.Fatalf("seed %d step %d: %d segments and %d blocks, want %d and %d",
					seed, step, a.NumSegments(), a.Occupancy(), b.NumSegments(), b.Occupancy())
			}
			for i := 0; i < a.NumSegments(); i++ {
				seg := a.SegmentAt(i)
				if b.SegmentAt(i) != seg {
					t.Fatalf("seed %d step %d: segment %d is %v, want %v", seed, step, i, seg, b.SegmentAt(i))
				}
				for j, cb := range a.holdings[seg].Blocks() {
					if !bytes.Equal(cb.Coeffs, b.holdings[seg].Blocks()[j].Coeffs) {
						t.Fatalf("seed %d step %d: block %d of %v differs", seed, step, j, seg)
					}
				}
			}
		}
	}
}

// TestZeroAllocPaths pins each steady-state path at 0 allocations per
// call, timed by the benchmark of the same name over the same operation.
// AllocsPerRun, like -benchmem, truncates the mean, so 0 means fewer
// allocations than calls: a useful Receive reopens its collection every s
// pulls and stays below one allocation per pull.
func TestZeroAllocPaths(t *testing.T) {
	if raceon.Enabled {
		t.Skip("allocation budgets describe the uninstrumented build")
	}
	for _, p := range []struct {
		name string
		op   func(testing.TB) func()
	}{
		{"CollectorReceive/useful", collectorReceive(true)},
		{"CollectorReceive/redundant", collectorReceive(false)},
		{"InventorySinceNoNews", inventorySinceNoNews},
		{"ExpireDue", expireDue},
	} {
		if n := testing.AllocsPerRun(1000, p.op(t)); n != 0 {
			t.Errorf("%s: %v allocations per call, want 0", p.name, n)
		}
	}
}

// benchOp times op, the call TestZeroAllocPaths measures.
func benchOp(b *testing.B, op func()) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// expireDue is one live-node reap over a steady buffer of 256 segments × 8
// blocks, about 1% of them due per sweep; the due blocks are stored again
// afterwards, as gossip would refill the buffer.
func expireDue(tb testing.TB) func() {
	const size, segments, step = 8, 256, 0.01 // gamma 1: ~1% of blocks due per step
	p := NewPeer(7, PeerConfig{SegmentSize: size, BufferCap: size * segments, Gamma: 1}, randx.New(1), nil)
	var due dueHeap
	for i := 0; i < segments; i++ {
		_, stored, _ := p.Inject(0, nil)
		for _, st := range stored {
			due.push(st)
		}
	}
	now := 0.0
	return func() {
		now += step
		p.ExpireDue(now)
		for len(due) > 0 && now > due[0].Deadline {
			st := due.pop()
			res := p.Store(now, st.Block)
			if !res.Stored {
				tb.Fatal("an expired block was not stored again")
			}
			due.push(Stored{Block: st.Block, Deadline: res.Deadline})
		}
	}
}

func BenchmarkExpireDue(b *testing.B) { benchOp(b, expireDue(b)) }

// dueHeap is a min-heap of stored blocks by deadline, without interfaces so
// a push and a pop allocate nothing.
type dueHeap []Stored

func (h *dueHeap) push(st Stored) {
	*h = append(*h, st)
	s := *h
	for i := len(s) - 1; i > 0; {
		up := (i - 1) / 2
		if s[up].Deadline <= s[i].Deadline {
			break
		}
		s[up], s[i] = s[i], s[up]
		i = up
	}
}

// pop removes and returns the earliest entry.
func (h *dueHeap) pop() Stored {
	s := *h
	top, last := s[0], len(s)-1
	s[0] = s[last]
	s = s[:last]
	for i := 0; ; {
		l, r, least := 2*i+1, 2*i+2, i
		if l < len(s) && s[l].Deadline < s[least].Deadline {
			least = l
		}
		if r < len(s) && s[r].Deadline < s[least].Deadline {
			least = r
		}
		if least == i {
			break
		}
		s[i], s[least] = s[least], s[i]
		i = least
	}
	*h = s
	return top
}

func TestDropSegmentAndClear(t *testing.T) {
	p := newTestPeer(t, 64, nil)
	seg1, _, _ := p.Inject(0, nil)
	p.Inject(0, nil)
	if n := p.DropSegment(seg1); n != 4 {
		t.Fatalf("dropped %d blocks, want 4", n)
	}
	if p.DropSegment(seg1) != 0 {
		t.Fatal("second drop removed blocks")
	}
	if p.Occupancy() != 4 || p.NumSegments() != 1 {
		t.Fatalf("occupancy %d segments %d after drop", p.Occupancy(), p.NumSegments())
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	p.Clear()
	if p.Occupancy() != 0 || p.NumSegments() != 0 {
		t.Fatal("clear left state behind")
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestNeedsBlocksEligibility(t *testing.T) {
	p := newTestPeer(t, 8, nil)
	seg, _, _ := p.Inject(0, nil)
	if p.NeedsBlocks(seg) {
		t.Fatal("full holding reported as needing blocks")
	}
	other := rlnc.SegmentID{Origin: 9}
	if !p.NeedsBlocks(other) {
		t.Fatal("unseen segment with buffer room not eligible")
	}
	p.Inject(0, nil) // buffer now at cap
	if p.NeedsBlocks(other) {
		t.Fatal("peer at buffer cap still eligible")
	}
}

func TestSampleAndRecode(t *testing.T) {
	p := newTestPeer(t, 64, nil)
	if _, ok := p.SampleSegment(); ok {
		t.Fatal("sampled from empty buffer")
	}
	seg, _, _ := p.Inject(0, nil)
	got, ok := p.SampleSegment()
	if !ok || got != seg {
		t.Fatalf("sampled %+v ok=%v, want %+v", got, ok, seg)
	}
	cb := p.Recode(seg)
	if cb.Seg != seg || len(cb.Coeffs) != 4 {
		t.Fatalf("recoded block %+v", cb)
	}
}

func TestCollectorStateAndRankAccounting(t *testing.T) {
	sink := NewCounters()
	c := NewCollector(CollectorConfig{SegmentSize: 2}, sink)
	seg := rlnc.SegmentID{Origin: 1}
	b1 := &rlnc.CodedBlock{Seg: seg, Coeffs: []byte{1, 0}, Payload: []byte{10}}
	b2 := &rlnc.CodedBlock{Seg: seg, Coeffs: []byte{0, 1}, Payload: []byte{20}}

	out, col, err := c.Receive(b1)
	if err != nil || !out.Useful || out.Delivered || !out.Innovative || out.Decoded {
		t.Fatalf("first pull: %+v err=%v", out, err)
	}
	// The same block again: still useful for the state counter (the paper's
	// state-based accounting cannot see redundancy), not innovative.
	out, _, err = c.Receive(b1)
	if err != nil || !out.Useful || !out.Delivered || out.Innovative {
		t.Fatalf("repeat pull: %+v err=%v", out, err)
	}
	if !col.Delivered() || col.Decoded() || col.State() != 2 || col.Rank() != 1 {
		t.Fatalf("collection after delivery: state=%d rank=%d decoded=%v", col.State(), col.Rank(), col.Decoded())
	}
	// Past state s the pull is redundant, but the decoder can still finish.
	out, _, err = c.Receive(b2)
	if err != nil || out.Useful || !out.Innovative || !out.Decoded {
		t.Fatalf("post-delivery pull: %+v err=%v", out, err)
	}
	if !col.Decoded() {
		t.Fatal("full-rank collection not decoded")
	}
	if data, err := col.Decode(); err != nil || data[0][0] != 10 || data[1][0] != 20 {
		t.Fatalf("decoded %v err=%v", data, err)
	}
	if sink.Get(EvServerPull) != 3 || sink.Get(EvUsefulPull) != 2 ||
		sink.Get(EvRedundantPull) != 1 || sink.Get(EvInnovativePull) != 2 ||
		sink.Get(EvDeliveredSegment) != 1 || sink.Get(EvDecodedSegment) != 1 {
		t.Fatalf("counters: %v", sink.Snapshot())
	}
}

func TestCollectorRejectsMalformedBeforeCounting(t *testing.T) {
	sink := NewCounters()
	c := NewCollector(CollectorConfig{SegmentSize: 2}, sink)
	seg := rlnc.SegmentID{Origin: 1}
	if _, _, err := c.Receive(&rlnc.CodedBlock{Seg: seg, Coeffs: []byte{1}}); err == nil {
		t.Fatal("short coefficient vector accepted")
	}
	c.Receive(&rlnc.CodedBlock{Seg: seg, Coeffs: []byte{1, 0}, Payload: []byte{1, 2}})
	if _, _, err := c.Receive(&rlnc.CodedBlock{Seg: seg, Coeffs: []byte{0, 1}, Payload: []byte{1}}); err == nil {
		t.Fatal("payload length mismatch accepted")
	}
	if sink.Get(EvServerPull) != 1 {
		t.Fatalf("serverPulls = %d after malformed blocks, want 1", sink.Get(EvServerPull))
	}
}

func TestCollectorRankOnlyObserve(t *testing.T) {
	c := NewCollector(CollectorConfig{SegmentSize: 2, RankOnly: true}, nil)
	seg := rlnc.SegmentID{Origin: 4}
	// Payload-bearing blocks are fine: rank-only decoders ignore payloads.
	if inn, done, err := c.Observe(&rlnc.CodedBlock{Seg: seg, Coeffs: []byte{1, 1}, Payload: []byte{9}}); err != nil || !inn || done {
		t.Fatalf("observe 1: inn=%v done=%v err=%v", inn, done, err)
	}
	if inn, done, err := c.Observe(&rlnc.CodedBlock{Seg: seg, Coeffs: []byte{1, 1}}); err != nil || inn || done {
		t.Fatalf("observe dup: inn=%v done=%v err=%v", inn, done, err)
	}
	if inn, done, err := c.Observe(&rlnc.CodedBlock{Seg: seg, Coeffs: []byte{0, 1}}); err != nil || !inn || !done {
		t.Fatalf("observe 2: inn=%v done=%v err=%v", inn, done, err)
	}
	if col := c.Collection(seg); col == nil || col.Rank() != 2 || !col.Decoded() {
		t.Fatal("rank-only collection state wrong")
	}
}

func TestCollectorOpenForget(t *testing.T) {
	c := NewCollector(CollectorConfig{SegmentSize: 2}, nil)
	seg := rlnc.SegmentID{Origin: 2}
	col := c.Open(seg, 0)
	if col == nil || c.OpenCount() != 1 || c.Open(seg, 0) != col {
		t.Fatal("open not idempotent")
	}
	if col.State() != 0 || col.Delivered() {
		t.Fatal("fresh collection not zeroed")
	}
	c.Forget(seg)
	if c.OpenCount() != 0 || c.Collection(seg) != nil {
		t.Fatal("forget did not remove collection")
	}
}

// TestCollectorRestoreArrivalOrderBasis restores a collection from raw
// innovative blocks in arrival order rather than a reduced basis, the rows
// an older snapshot may hold: it must resume at the same rank, give the
// same verdicts, and decode the originals.
func TestCollectorRestoreArrivalOrderBasis(t *testing.T) {
	const s, payloadLen = 4, 16
	rng := randx.New(3)
	blocks := make([][]byte, s)
	for i := range blocks {
		blocks[i] = make([]byte, payloadLen)
		rng.FillCoefficients(blocks[i])
	}
	seg, err := rlnc.NewSegment(rlnc.SegmentID{Origin: 5}, blocks)
	if err != nil {
		t.Fatal(err)
	}
	live := NewCollector(CollectorConfig{SegmentSize: s}, nil)
	var raw []*rlnc.CodedBlock
	for len(raw) < s-1 {
		cb := seg.Encode(rng)
		if out, _, err := live.Receive(cb); err != nil {
			t.Fatal(err)
		} else if out.Innovative {
			raw = append(raw, cb)
		}
	}
	src := live.Collection(seg.ID)
	restored, err := NewCollector(CollectorConfig{SegmentSize: s}, nil).Restore(seg.ID, src.State(), payloadLen, raw)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Rank() != src.Rank() || restored.State() != src.State() {
		t.Fatalf("restored rank/state %d/%d, want %d/%d", restored.Rank(), restored.State(), src.Rank(), src.State())
	}
	for !src.Decoded() {
		cb := seg.Encode(rng)
		want, _, _ := live.Receive(cb)
		if got, err := restored.dec.Add(cb); err != nil || got != want.Innovative {
			t.Fatalf("restored verdict %v err=%v, live %v", got, err, want.Innovative)
		}
	}
	if got, err := restored.Decode(); err != nil || !reflect.DeepEqual(got, blocks) {
		t.Fatalf("restored collection decoded %v err=%v, want the originals", got, err)
	}
}

// TestCollectorRestoreReportsDeliveredAndDecoded restores a collection at
// state s with every rank from 0 to s: it must read as delivered, and as
// decoded exactly at full rank, as the collection that was snapshotted did.
func TestCollectorRestoreReportsDeliveredAndDecoded(t *testing.T) {
	seg := rlnc.SegmentID{Origin: 1}
	basis := []*rlnc.CodedBlock{
		{Seg: seg, Coeffs: []byte{1, 0}, Payload: []byte{10}},
		{Seg: seg, Coeffs: []byte{0, 1}, Payload: []byte{20}},
	}
	for rank := 0; rank <= len(basis); rank++ {
		col, err := NewCollector(CollectorConfig{SegmentSize: 2}, nil).Restore(seg, 2, 1, basis[:rank])
		if err != nil {
			t.Fatal(err)
		}
		if !col.Delivered() || col.Decoded() != (rank == len(basis)) {
			t.Errorf("restored at state 2, rank %d: rankDeficit=%d Delivered=%v Decoded=%v",
				rank, col.RankDeficit(), col.Delivered(), col.Decoded())
		}
	}
}

func TestCountersSnapshotNames(t *testing.T) {
	sink := NewCounters()
	sink.Count(EvGossipSend, 3)
	snap := sink.Snapshot()
	if len(snap) != int(numEvents) {
		t.Fatalf("snapshot has %d names, want %d", len(snap), numEvents)
	}
	if snap["gossipSends"] != 3 {
		t.Fatalf("gossipSends = %d, want 3", snap["gossipSends"])
	}
	for ev := Event(0); ev < numEvents; ev++ {
		if ev.String() == "" || ev.String() == "unknownEvent" {
			t.Fatalf("event %d has no name", ev)
		}
	}
}

// TestServePull covers the peer side of a pull, the rule both drivers
// share: the hinted segment while it is still held, else a sampled one,
// nothing from an empty buffer, and the reply's trace context one hop past
// the segment's own lineage.
func TestServePull(t *testing.T) {
	traced := obs.TraceContext{ID: 0xabc, Hop: 2}
	cases := []struct {
		name     string
		segments int  // injected before the pull: seq 0, 1, ...
		trace    bool // segment 0 carries the lineage
		hint     rlnc.SegmentID
		hasHint  bool
		wantOK   bool
		wantSeg  func(seg rlnc.SegmentID) bool
		wantWire obs.TraceContext
	}{
		{name: "empty buffer", wantOK: false},
		{name: "empty buffer with a hint", hint: rlnc.SegmentID{Origin: 7, Seq: 0}, hasHint: true, wantOK: false},
		{name: "hint held", segments: 3, hint: rlnc.SegmentID{Origin: 7, Seq: 1}, hasHint: true, wantOK: true,
			wantSeg: func(seg rlnc.SegmentID) bool { return seg.Seq == 1 }},
		{name: "hint not held falls back to a sample", segments: 2, hint: rlnc.SegmentID{Origin: 9, Seq: 9}, hasHint: true, wantOK: true,
			wantSeg: func(seg rlnc.SegmentID) bool { return seg.Origin == 7 && seg.Seq < 2 }},
		{name: "no hint samples", segments: 2, wantOK: true,
			wantSeg: func(seg rlnc.SegmentID) bool { return seg.Origin == 7 && seg.Seq < 2 }},
		{name: "hint value ignored without hasHint", segments: 1, hint: rlnc.SegmentID{Origin: 9, Seq: 9}, wantOK: true,
			wantSeg: func(seg rlnc.SegmentID) bool { return seg.Seq == 0 }},
		{name: "lineage one hop deeper", segments: 2, trace: true, hint: rlnc.SegmentID{Origin: 7, Seq: 0}, hasHint: true, wantOK: true,
			wantSeg:  func(seg rlnc.SegmentID) bool { return seg.Seq == 0 },
			wantWire: traced.Next()},
		{name: "untraced segment beside a traced one", segments: 2, trace: true, hint: rlnc.SegmentID{Origin: 7, Seq: 1}, hasHint: true, wantOK: true,
			wantSeg: func(seg rlnc.SegmentID) bool { return seg.Seq == 1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := newTestPeer(t, 16, nil)
			for i := 0; i < tc.segments; i++ {
				if _, _, ok := p.Inject(0, nil); !ok {
					t.Fatal("inject rejected")
				}
			}
			if tc.trace {
				p.SetTraceCtx(rlnc.SegmentID{Origin: 7, Seq: 0}, traced)
			}
			occupancy := p.Occupancy()
			seg, wire, ok := p.ServePull(tc.hint, tc.hasHint)
			if ok != tc.wantOK {
				t.Fatalf("ok = %v, want %v", ok, tc.wantOK)
			}
			if !ok {
				if seg != (rlnc.SegmentID{}) || wire.Valid() {
					t.Fatalf("refused pull still returned %v, %+v", seg, wire)
				}
				return
			}
			if !tc.wantSeg(seg) {
				t.Errorf("served segment %v", seg)
			}
			if !p.Holds(seg) {
				t.Errorf("served segment %v is not buffered", seg)
			}
			if wire != tc.wantWire {
				t.Errorf("wire context %+v, want %+v", wire, tc.wantWire)
			}
			if p.Occupancy() != occupancy {
				t.Errorf("serving changed the buffer: occupancy %d -> %d", occupancy, p.Occupancy())
			}
		})
	}
}

func TestInventory(t *testing.T) {
	p := newTestPeer(t, 16, nil)
	if inv := p.Inventory(); inv != nil {
		t.Fatalf("empty buffer digests to %v, want nil", inv)
	}
	first, _, _ := p.Inject(0, nil)
	second, stored, _ := p.Inject(0, nil)
	p.ExpireBlock(stored[0].Block)
	want := []pullsched.InventoryEntry{{Seg: first, Blocks: 4}, {Seg: second, Blocks: 3}}
	if inv := p.Inventory(); !reflect.DeepEqual(inv, want) {
		t.Errorf("Inventory = %v, want %v (SegmentAt order, buffered block counts)", inv, want)
	}
}
