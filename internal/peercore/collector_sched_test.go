package peercore

import (
	"testing"

	"p2pcollect/internal/randx"
	"p2pcollect/internal/rlnc"
)

func TestCollectionDeficits(t *testing.T) {
	c := NewCollector(CollectorConfig{SegmentSize: 3}, nil)
	seg := rlnc.SegmentID{Origin: 1}
	col := c.Open(seg, 0)
	if col.RankDeficit() != 3 {
		t.Fatalf("fresh rank deficit = %d, want 3", col.RankDeficit())
	}
	b := &rlnc.CodedBlock{Seg: seg, Coeffs: []byte{1, 0, 0}}
	if _, _, err := c.Receive(b); err != nil {
		t.Fatal(err)
	}
	if col.RankDeficit() != 2 {
		t.Fatalf("rank deficit after innovative pull = %d, want 2", col.RankDeficit())
	}
	// A duplicate leaves the deficit where it was.
	if _, _, err := c.Receive(b); err != nil {
		t.Fatal(err)
	}
	if col.RankDeficit() != 2 {
		t.Fatalf("rank deficit after duplicate = %d, want 2", col.RankDeficit())
	}
}

// TestCollectorForgetBoundsMemory drives a long pull sequence — deliver a
// segment, forget it, move on — and checks the collector's working set
// stays at one collection while the counters keep exact totals, the
// bounded-server-memory contract Forget exists for.
func TestCollectorForgetBoundsMemory(t *testing.T) {
	sink := NewCounters()
	c := NewCollector(CollectorConfig{SegmentSize: 2}, sink)
	const segments = 500
	maxOpen := 0
	for i := 0; i < segments; i++ {
		seg := rlnc.SegmentID{Origin: 3, Seq: uint64(i)}
		out, _, err := c.Receive(&rlnc.CodedBlock{Seg: seg, Coeffs: []byte{1, 0}})
		if err != nil || !out.Innovative || out.Decoded {
			t.Fatalf("segment %d first pull: %+v err=%v", i, out, err)
		}
		out, _, err = c.Receive(&rlnc.CodedBlock{Seg: seg, Coeffs: []byte{0, 1}})
		if err != nil || !out.Innovative || !out.Decoded {
			t.Fatalf("segment %d second pull: %+v err=%v", i, out, err)
		}
		if n := c.OpenCount(); n > maxOpen {
			maxOpen = n
		}
		c.Forget(seg)
	}
	if maxOpen != 1 {
		t.Fatalf("peak working set = %d collections, want 1", maxOpen)
	}
	if c.OpenCount() != 0 {
		t.Fatalf("OpenCount = %d after forgetting everything", c.OpenCount())
	}
	if sink.Get(EvServerPull) != 2*segments || sink.Get(EvInnovativePull) != 2*segments ||
		sink.Get(EvDecodedSegment) != segments {
		t.Fatalf("counters drifted across forgets: %v", sink.Snapshot())
	}
	// A straggler block for a forgotten segment opens a fresh zeroed
	// collection; it does not resurrect the old rank.
	out, col, err := c.Receive(&rlnc.CodedBlock{Seg: rlnc.SegmentID{Origin: 3, Seq: 0}, Coeffs: []byte{1, 1}})
	if err != nil || !out.Innovative || out.Decoded || col.Rank() != 1 {
		t.Fatalf("straggler after forget: %+v rank=%d err=%v", out, col.Rank(), err)
	}
}

// collectorReceive is one Receive on either path a scheduler trades
// between: useful pulls that advance the rank (the collection restarts
// every s pulls so every pull is innovative), or redundant pulls against a
// full-rank collection.
func collectorReceive(useful bool) func(testing.TB) func() {
	return func(tb testing.TB) func() {
		const s = 16
		seg := rlnc.SegmentID{Origin: 1}
		payload := make([]byte, 64)
		blocks := make([]*rlnc.CodedBlock, s)
		for i := range blocks {
			coeffs := make([]byte, s)
			coeffs[i] = 1
			blocks[i] = &rlnc.CodedBlock{Seg: seg, Coeffs: coeffs, Payload: payload}
		}
		c := NewCollector(CollectorConfig{SegmentSize: s}, nil)
		if !useful {
			for _, blk := range blocks {
				if _, _, err := c.Receive(blk); err != nil {
					tb.Fatal(err)
				}
			}
		}
		var i int
		return func() {
			j := 0
			if useful {
				if j = i % s; j == 0 {
					c.Forget(seg)
				}
			}
			if out, _, err := c.Receive(blocks[j]); err != nil || out.Innovative != useful {
				tb.Fatalf("pull %d: %+v err=%v", i, out, err)
			}
			i++
		}
	}
}

func BenchmarkCollectorReceive(b *testing.B) {
	b.Run("useful", func(b *testing.B) { benchOp(b, collectorReceive(true)(b)) })
	b.Run("redundant", func(b *testing.B) { benchOp(b, collectorReceive(false)(b)) })
}

// BenchmarkCollectionRecode measures the fleet-exchange hot path: producing
// one fresh combination of a partially collected segment to forward to the
// ring owner (s=16 received rows, 64-byte payloads).
func BenchmarkCollectionRecode(b *testing.B) {
	const s = 16
	seg := rlnc.SegmentID{Origin: 1}
	payload := make([]byte, 64)
	c := NewCollector(CollectorConfig{SegmentSize: s}, nil)
	for i := 0; i < s-1; i++ { // mid-collection: the state exchange forwards from
		coeffs := make([]byte, s)
		coeffs[i] = 1
		if _, _, err := c.Receive(&rlnc.CodedBlock{Seg: seg, Coeffs: coeffs, Payload: payload}); err != nil {
			b.Fatal(err)
		}
	}
	col := c.Collection(seg)
	if col == nil {
		b.Fatal("collection missing")
	}
	rng := randx.New(99)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if col.Recode(rng) == nil {
			b.Fatal("nil recode")
		}
	}
}
