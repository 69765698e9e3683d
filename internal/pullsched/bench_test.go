package pullsched

import (
	"testing"

	"p2pcollect/internal/rlnc"
)

// benchEnv cycles through a fixed peer set without allocation.
type benchEnv struct {
	n    int
	next int
}

func (e *benchEnv) SamplePeer() (PeerRef, bool) {
	p := PeerRef(e.next)
	e.next = (e.next + 1) % e.n
	return p, true
}

// populate loads a policy with a realistic mid-run state: segs tracked
// segments across peers peers, everything undelivered.
func populate(p Policy, peers, segs int) {
	for i := 0; i < peers; i++ {
		inv := make([]InventoryEntry, 0, segs/peers+1)
		for j := i; j < segs; j += peers {
			inv = append(inv, InventoryEntry{Seg: rlnc.SegmentID{Origin: 1, Seq: uint64(j)}, Blocks: 1 + j%4})
		}
		p.ObserveInventory(0, PeerRef(i), inv)
	}
	for j := 0; j < segs; j++ {
		p.Feedback(Feedback{
			Peer:   PeerRef(j % peers),
			Seg:    rlnc.SegmentID{Origin: 1, Seq: uint64(j)},
			Useful: true,
		})
	}
}

func benchmarkChoose(b *testing.B, p Policy) {
	populate(p, 32, 256)
	env := &benchEnv{n: 32}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// The clock cycles inside the digest freshness window so RarestFirst
		// keeps exercising its full scan instead of expiring every digest
		// once and then timing the empty fallback.
		if _, ok := p.Choose(float64(i%1000)*1e-3, env); !ok {
			b.Fatal("Choose failed")
		}
	}
}

func BenchmarkChooseBlind(b *testing.B) { benchmarkChoose(b, Blind{}) }
func BenchmarkChooseRarestFirst(b *testing.B) {
	benchmarkChoose(b, NewRarestFirst(RarestConfig{Seed: 1}))
}

// BenchmarkFeedbackRarestFirst is the call every rarest pull reply makes:
// a useful block from a peer whose digest already lists the segment.
func BenchmarkFeedbackRarestFirst(b *testing.B) {
	p := NewRarestFirst(RarestConfig{Seed: 1})
	populate(p, 32, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % 256
		p.Feedback(Feedback{
			Peer:   PeerRef(j % 32),
			Time:   0.5,
			Seg:    rlnc.SegmentID{Origin: 1, Seq: uint64(j)},
			Useful: true,
		})
	}
}

// BenchmarkRarestObserveDelta is the steady-state cost of news: one new
// line for a known peer, which the next reply then disproves so the state
// does not grow.
func BenchmarkRarestObserveDelta(b *testing.B) {
	p := NewRarestFirst(RarestConfig{Seed: 1})
	populate(p, 32, 256)
	line := []InventoryEntry{{Seg: rlnc.SegmentID{Origin: 2, Seq: 1}, Blocks: 1}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.ObserveInventory(0.5, 7, line)
		p.Feedback(Feedback{Peer: 7, Time: 0.5, Seg: line[0].Seg})
	}
}
