package collect

import (
	"reflect"
	"testing"

	"p2pcollect/internal/collect/store/wal"
	"p2pcollect/internal/obs"
	"p2pcollect/internal/pullsched"
	"p2pcollect/internal/randx"
	"p2pcollect/internal/rlnc"
)

const (
	testSize       = 3
	testPayloadLen = 16
	testPeer       = pullsched.PeerRef(7)

	// The pull-feedback counters lead the service's counter set.
	numFeedbackCounters = fbEmpty + 1
)

// recPolicy records what the service tells its pull policy.
type recPolicy struct {
	pullsched.Blind
	feedback  []pullsched.Feedback
	inventory [][]pullsched.InventoryEntry
}

func (p *recPolicy) Feedback(f pullsched.Feedback) { p.feedback = append(p.feedback, f) }

// ObserveInventory records a copy: the service reuses inv's backing array.
func (p *recPolicy) ObserveInventory(_ float64, _ pullsched.PeerRef, inv []pullsched.InventoryEntry) {
	p.inventory = append(p.inventory, append([]pullsched.InventoryEntry(nil), inv...))
}

// delivery is one deliver callback invocation.
type delivery struct {
	seg    rlnc.SegmentID
	blocks [][]byte
}

// harness is a started service with its policy and deliveries on record.
type harness struct {
	*Service
	policy    *recPolicy
	delivered []delivery
}

func newHarness(t *testing.T, cfg Config) *harness {
	t.Helper()
	h := &harness{policy: &recPolicy{}}
	cfg.SegmentSize = testSize
	cfg.Policy = h.policy
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h.Service = svc
	svc.Start(func(seg rlnc.SegmentID, blocks [][]byte) {
		h.delivered = append(h.delivered, delivery{seg, blocks})
	})
	return h
}

// feedbackCounts returns the useful/redundant/empty pull-feedback counters.
func (h *harness) feedbackCounts() (c [numFeedbackCounters]int64) {
	h.RangeFeedback(func(name string, v int64) {
		for i, n := range policyCounterNames[:len(c)] {
			if n == name {
				c[i] = v
			}
		}
	})
	return c
}

// rejectedBlocks reads the service's malformed-block counter.
func (h *harness) rejectedBlocks() (n int64) {
	h.RangeFeedback(func(name string, v int64) {
		if name == "rejectedBlocks" {
			n = v
		}
	})
	return n
}

func testSegment(t *testing.T, seq uint64) *rlnc.Segment {
	t.Helper()
	rng := randx.New(int64(seq) + 1)
	blocks := make([][]byte, testSize)
	for i := range blocks {
		blocks[i] = make([]byte, testPayloadLen)
		rng.FillCoefficients(blocks[i])
	}
	seg, err := rlnc.NewSegment(rlnc.SegmentID{Origin: 1, Seq: seq}, blocks)
	if err != nil {
		t.Fatal(err)
	}
	return seg
}

// TestHandleBlockOutcomes walks one segment through every verdict
// HandleBlock can return and pins, after each block, the result flags, the
// pull-feedback counters, Redundant(), rejectedBlocks and what the policy
// was told. A malformed block counts as rejected, never as redundant.
func TestHandleBlockOutcomes(t *testing.T) {
	seg := testSegment(t, 1)
	short := seg.SourceBlock(0)
	short.Coeffs = short.Coeffs[:testSize-1]
	thin := seg.SourceBlock(1)
	thin.Payload = thin.Payload[:testPayloadLen-1]
	fb := func(useful, done bool) *pullsched.Feedback {
		return &pullsched.Feedback{Peer: testPeer, Seg: seg.ID, Useful: useful, Done: done}
	}
	type flags struct{ rejected, finished, innovative, decoded, flush bool }
	steps := []struct {
		name      string
		block     *rlnc.CodedBlock
		exchange  bool // not a pull reply
		want      flags
		counts    [numFeedbackCounters]int64 // useful, redundant, empty — cumulative
		redundant int64                      // cumulative
		rejected  int64                      // cumulative
		told      *pullsched.Feedback        // nil: policy hears nothing
	}{
		{"malformed coefficients", short, false, flags{rejected: true}, [3]int64{0, 0, 0}, 0, 1, nil},
		{"innovative", seg.SourceBlock(0), false, flags{innovative: true}, [3]int64{1, 0, 0}, 0, 1, fb(true, false)},
		{"redundant", seg.SourceBlock(0), false, flags{}, [3]int64{1, 1, 0}, 1, 1, fb(false, false)},
		{"malformed payload", thin, false, flags{rejected: true}, [3]int64{1, 1, 0}, 1, 2, nil},
		{"innovative exchange", seg.SourceBlock(1), true, flags{innovative: true}, [3]int64{1, 1, 0}, 1, 2, nil},
		{"redundant exchange", seg.SourceBlock(1), true, flags{}, [3]int64{1, 1, 0}, 2, 2, nil},
		{"decoding", seg.SourceBlock(2), false, flags{innovative: true, decoded: true, flush: true}, [3]int64{2, 1, 0}, 2, 2, fb(true, true)},
		{"finished", seg.SourceBlock(2), false, flags{finished: true}, [3]int64{2, 2, 0}, 3, 2, fb(false, true)},
		{"finished exchange", seg.SourceBlock(2), true, flags{finished: true}, [3]int64{2, 2, 0}, 4, 2, nil},
	}
	h := newHarness(t, Config{})
	defer h.Close()
	for i, st := range steps {
		now := float64(i + 1)
		told := len(h.policy.feedback)
		res := h.HandleBlock(now, testPeer, st.block, !st.exchange, obs.TraceContext{})
		got := flags{res.Rejected, res.Finished, res.Outcome.Innovative, res.Outcome.Decoded, res.Flush != nil}
		if got != st.want {
			t.Fatalf("%s: result %+v, want %+v", st.name, got, st.want)
		}
		if !res.Owned {
			t.Errorf("%s: a service without Owns must own every segment", st.name)
		}
		if (res.Col == nil) != (st.want.rejected || st.want.finished) {
			t.Errorf("%s: Col = %v", st.name, res.Col)
		}
		if c := h.feedbackCounts(); c != st.counts {
			t.Errorf("%s: feedback counters %v, want %v", st.name, c, st.counts)
		}
		if h.Redundant() != st.redundant {
			t.Errorf("%s: Redundant() = %d, want %d", st.name, h.Redundant(), st.redundant)
		}
		if r := h.rejectedBlocks(); r != st.rejected {
			t.Errorf("%s: rejectedBlocks = %d, want %d", st.name, r, st.rejected)
		}
		switch heard := h.policy.feedback[told:]; {
		case st.told == nil && len(heard) != 0:
			t.Errorf("%s: policy heard %+v, want nothing", st.name, heard)
		case st.told != nil:
			want := *st.told
			want.Time = now
			if len(heard) != 1 || heard[0] != want {
				t.Errorf("%s: policy heard %+v, want %+v", st.name, heard, want)
			}
		}
		if res.Flush != nil {
			if len(h.delivered) != 0 {
				t.Fatalf("%s: delivered before Flush ran", st.name)
			}
			res.Flush()
		}
	}
	if len(h.delivered) != 1 || h.delivered[0].seg != seg.ID || !reflect.DeepEqual(h.delivered[0].blocks, seg.Blocks) {
		t.Fatalf("delivered %+v, want segment %v's source blocks once", h.delivered, seg.ID)
	}
	if h.OpenCount() != 0 {
		t.Errorf("OpenCount() = %d after the only segment finished", h.OpenCount())
	}

	h.HandleEmpty(99, testPeer)
	if c := h.feedbackCounts(); c != [3]int64{2, 2, 1} {
		t.Errorf("after HandleEmpty: feedback counters %v", c)
	}
	if last := h.policy.feedback[len(h.policy.feedback)-1]; !last.Empty || last.Peer != testPeer || last.Time != 99 {
		t.Errorf("after HandleEmpty: policy heard %+v", last)
	}
}

// TestRejectedBlocksLeaveNoSegmentState: a block the store rejects for a
// segment it never saw opens no collection, so nothing would ever retire
// per-segment state for it. N such blocks naming N fresh segments —
// reachable from the wire, where only the frame codec vets a block — must
// leave no collection open and no lineage adopted, traced or not.
func TestRejectedBlocksLeaveNoSegmentState(t *testing.T) {
	for _, ctx := range []obs.TraceContext{{}, {ID: 42, Hop: 1}} {
		h := newHarness(t, Config{})
		for seq := uint64(100); seq < 164; seq++ {
			cb := testSegment(t, seq).SourceBlock(0)
			cb.Coeffs = cb.Coeffs[:testSize-1]
			if res := h.HandleBlock(1, testPeer, cb, true, ctx); !res.Rejected || res.Trace.Valid() {
				t.Fatalf("traced=%v seq %d: result %+v, want a rejection with no lineage", ctx.Valid(), seq, res)
			}
			if h.OpenCount() != 0 {
				t.Fatalf("traced=%v seq %d: a rejected block opened a collection", ctx.Valid(), seq)
			}
		}
		// A valid untraced block of a rejected segment finds no lineage.
		if res := h.HandleBlock(2, testPeer, testSegment(t, 100).SourceBlock(0), true, obs.TraceContext{}); res.Trace.Valid() {
			t.Errorf("traced=%v: a rejected block's lineage was adopted: %+v", ctx.Valid(), res.Trace)
		}
		h.Close()
	}
}

// TestStrayBlockCannotSetSegmentSize: s is given at construction, so a
// service without one is an error, and a stray block of another size that
// arrives first is rejected instead of fixing s for every later block.
func TestStrayBlockCannotSetSegmentSize(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New accepted SegmentSize 0")
	}
	const s = testSize + 1
	svc, err := New(Config{SegmentSize: s})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	var delivered [][]byte
	svc.Start(func(_ rlnc.SegmentID, blocks [][]byte) { delivered = blocks })

	if res := svc.HandleBlock(1, testPeer, testSegment(t, 1).SourceBlock(0), true, obs.TraceContext{}); !res.Rejected {
		t.Fatalf("stray %d-coefficient block: %+v, want a rejection", testSize, res)
	}
	rng := randx.New(5)
	src := make([][]byte, s)
	for i := range src {
		src[i] = make([]byte, testPayloadLen)
		rng.FillCoefficients(src[i])
	}
	seg, err := rlnc.NewSegment(rlnc.SegmentID{Origin: 2, Seq: 1}, src)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2*s; i++ {
		res := svc.HandleBlock(1, testPeer, seg.Encode(rng), true, obs.TraceContext{})
		if res.Rejected {
			t.Fatalf("coded block %d of a valid segment rejected", i)
		}
		if res.Flush != nil {
			res.Flush()
		}
	}
	if !reflect.DeepEqual(delivered, src) {
		t.Errorf("delivered %d blocks, want the %d source blocks", len(delivered), s)
	}
}

// TestOwnsFiltersPolicyInput: outside its segment universe the service
// still decodes and counts, but the policy hears neither feedback nor
// inventory for those segments.
func TestOwnsFiltersPolicyInput(t *testing.T) {
	mine, theirs := testSegment(t, 2), testSegment(t, 3)
	h := newHarness(t, Config{Owns: func(seg rlnc.SegmentID) bool { return seg == mine.ID }})
	defer h.Close()

	if res := h.HandleBlock(1, testPeer, mine.SourceBlock(0), true, obs.TraceContext{}); !res.Owned {
		t.Error("owned segment reported misrouted")
	}
	if len(h.policy.feedback) != 1 {
		t.Fatalf("policy heard %d feedbacks for an owned block, want 1", len(h.policy.feedback))
	}
	for i := 0; i <= testSize; i++ { // innovative ×2, decoding, finished
		res := h.HandleBlock(2, testPeer, theirs.SourceBlock(i%testSize), true, obs.TraceContext{})
		if res.Owned {
			t.Error("foreign segment reported owned")
		}
		if res.Flush != nil {
			res.Flush()
		}
	}
	if len(h.policy.feedback) != 1 {
		t.Errorf("policy heard feedback for a foreign segment: %+v", h.policy.feedback[1:])
	}
	if c := h.feedbackCounts(); c != [3]int64{1 + testSize, 1, 0} {
		t.Errorf("feedback counters %v: foreign pulls must still be counted", c)
	}
	if len(h.delivered) != 1 || h.delivered[0].seg != theirs.ID {
		t.Errorf("delivered %+v, want the foreign segment (ownership does not gate delivery)", h.delivered)
	}

	// A full digest reaches the policy as clear, then the owned lines; a
	// delta as its owned lines alone, and one with none of them not at all
	// (an empty call would read as "the peer holds nothing").
	digest := []pullsched.InventoryEntry{{Seg: theirs.ID, Blocks: 2}, {Seg: mine.ID, Blocks: 1}}
	owned := []pullsched.InventoryEntry{{Seg: mine.ID, Blocks: 1}}
	h.HandleInventory(3, testPeer, digest, false)
	h.HandleInventory(4, testPeer, digest, true)
	h.HandleInventory(5, testPeer, digest[:1], true)
	if want := [][]pullsched.InventoryEntry{nil, owned, owned}; !reflect.DeepEqual(h.policy.inventory, want) {
		t.Errorf("policy saw inventory calls %+v, want %+v", h.policy.inventory, want)
	}
}

// TestGateSuppressesDelivery: a closed gate drops the decoded segment
// without delivering it, yet the segment is finished all the same.
func TestGateSuppressesDelivery(t *testing.T) {
	seg := testSegment(t, 4)
	var asked []rlnc.SegmentID
	h := newHarness(t, Config{Gate: func(id rlnc.SegmentID) bool {
		asked = append(asked, id)
		return false
	}})
	defer h.Close()
	var last BlockResult
	for i := 0; i < testSize; i++ {
		last = h.HandleBlock(1, testPeer, seg.SourceBlock(i), true, obs.TraceContext{})
	}
	if !last.Outcome.Decoded || last.Flush != nil {
		t.Fatalf("decoded=%v flush=%v, want a decode with nothing to flush", last.Outcome.Decoded, last.Flush != nil)
	}
	if !reflect.DeepEqual(asked, []rlnc.SegmentID{seg.ID}) {
		t.Errorf("gate consulted for %v, want exactly %v", asked, seg.ID)
	}
	if !h.Store().Finished(seg.ID) || h.OpenCount() != 0 {
		t.Error("gated segment not marked finished and forgotten")
	}
	if res := h.HandleBlock(2, testPeer, seg.SourceBlock(0), true, obs.TraceContext{}); !res.Finished {
		t.Error("block for a gated segment not dropped as finished")
	}
	if len(h.delivered) != 0 {
		t.Errorf("delivered %+v through a closed gate", h.delivered)
	}
}

// TestFinishRemote: another shard's completion closes the local collection
// and turns later blocks into finished-segment drops.
func TestFinishRemote(t *testing.T) {
	seg := testSegment(t, 5)
	h := newHarness(t, Config{})
	defer h.Close()
	if res := h.HandleBlock(1, testPeer, seg.SourceBlock(0), true, obs.TraceContext{ID: 11}); h.OpenCount() != 1 || !res.Trace.Valid() {
		t.Fatal("setup: no open traced collection")
	}
	if !h.FinishRemote(seg.ID) {
		t.Error("first FinishRemote reported no news")
	}
	if h.FinishRemote(seg.ID) {
		t.Error("second FinishRemote reported news")
	}
	if h.OpenCount() != 0 {
		t.Error("FinishRemote left the collection behind")
	}
	if res := h.HandleBlock(2, testPeer, seg.SourceBlock(1), true, obs.TraceContext{}); !res.Finished || res.Trace.Valid() {
		t.Errorf("block after FinishRemote: %+v, want a finished drop with no lineage", res)
	}
	if unseen := (rlnc.SegmentID{Origin: 9, Seq: 9}); !h.FinishRemote(unseen) || !h.Store().Finished(unseen) {
		t.Error("FinishRemote of a never-seen segment did not finish it")
	}
}

// TestTraceContextAdoption: a segment adopts the first valid trace context
// it sees, keeps it against later ones, stamps its lifecycle events with
// it, and retires it on decode.
func TestTraceContextAdoption(t *testing.T) {
	seg := testSegment(t, 6)
	ring := obs.NewRingTracer(16)
	h := newHarness(t, Config{Tracer: ring, Actor: 42})
	defer h.Close()
	first, later := obs.TraceContext{ID: 7, Hop: 2}, obs.TraceContext{ID: 9, Hop: 1}

	if res := h.HandleBlock(1, testPeer, seg.SourceBlock(0), true, obs.TraceContext{}); res.Trace.Valid() {
		t.Errorf("untraced block yielded context %+v", res.Trace)
	}
	if res := h.HandleBlock(2, testPeer, seg.SourceBlock(1), true, first); res.Trace != first {
		t.Errorf("first traced block: context %+v, want %+v", res.Trace, first)
	}
	res := h.HandleBlock(3, testPeer, seg.SourceBlock(2), true, later)
	if res.Trace != first {
		t.Errorf("later context displaced the adopted one: %+v", res.Trace)
	}
	if h.OpenCount() != 0 {
		t.Error("the collection and its trace context survived the decode")
	}
	res.Flush()

	type stamp struct {
		kind obs.TraceKind
		n    int
		id   uint64
	}
	var got []stamp
	for _, ev := range ring.Query(seg.ID).Events {
		if ev.Actor != 42 {
			t.Errorf("event %+v not stamped with the service's actor", ev)
		}
		got = append(got, stamp{ev.Kind, ev.N, ev.TraceID})
	}
	want := []stamp{
		{obs.TraceServerRank, 1, 0},
		{obs.TraceServerRank, 2, 7},
		{obs.TraceServerRank, 3, 7},
		{obs.TraceDecoded, 3, 7},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("trace events %+v, want %+v", got, want)
	}
}

// handleInventoryOwned is one delta digest reaching a fleet shard's rarest
// policy: 64 lines, half of them for segments the shard owns, all already
// known, so the steady state is the ownership filter and the policy's
// lookups.
func handleInventoryOwned(tb testing.TB) func() {
	svc, err := New(Config{
		SegmentSize: testSize,
		Policy:      pullsched.NewRarestFirst(pullsched.RarestConfig{Seed: 1}),
		Owns:        func(seg rlnc.SegmentID) bool { return seg.Seq%2 == 0 },
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { svc.Close() })
	digest := make([]pullsched.InventoryEntry, 64)
	for i := range digest {
		digest[i] = pullsched.InventoryEntry{Seg: rlnc.SegmentID{Origin: 1, Seq: uint64(i)}, Blocks: 2}
	}
	svc.HandleInventory(0, testPeer, digest, false)
	return func() { svc.HandleInventory(0.5, testPeer, digest, true) }
}

func TestHandleInventoryOwnedAllocatesNothing(t *testing.T) {
	if n := testing.AllocsPerRun(100, handleInventoryOwned(t)); n != 0 {
		t.Errorf("a known delta digest on a fleet shard: %v allocations, want 0", n)
	}
}

func BenchmarkHandleInventoryOwned(b *testing.B) {
	handle := handleInventoryOwned(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		handle()
	}
}

// TestCollectTimeStartsAtFirstAcceptedBlock: collectionTime runs from the
// first block the store accepted, so a rejected block does not start the
// clock, and a collection restored from the WAL starts it again at its
// first block after the restart.
func TestCollectTimeStartsAtFirstAcceptedBlock(t *testing.T) {
	seg := testSegment(t, 8)
	short := seg.SourceBlock(0)
	short.Coeffs = short.Coeffs[:testSize-1]
	dir := t.TempDir()
	open := func() (*harness, *obs.Histogram) {
		hist := obs.NewHistogram("collectionTime", []float64{1, 10, 100})
		return newHarness(t, Config{Durability: wal.Config{Dir: dir}, CollectTime: hist}), hist
	}

	h, _ := open()
	h.HandleBlock(1, testPeer, short, true, obs.TraceContext{})
	h.HandleBlock(2, testPeer, seg.SourceBlock(0), true, obs.TraceContext{})
	h.Close()

	h, hist := open()
	defer h.Close()
	if col := h.Store().Collection(seg.ID); col == nil || col.Rank() != 1 {
		t.Fatal("the open collection was not restored at rank 1")
	}
	h.HandleBlock(40, testPeer, seg.SourceBlock(1), true, obs.TraceContext{})
	res := h.HandleBlock(45, testPeer, seg.SourceBlock(2), true, obs.TraceContext{})
	if !res.Outcome.Decoded {
		t.Fatal("the segment did not decode")
	}
	if hist.Count() != 1 || hist.Sum() != 5 {
		t.Errorf("collectionTime: %d observations summing to %g, want one of 5", hist.Count(), hist.Sum())
	}
}
