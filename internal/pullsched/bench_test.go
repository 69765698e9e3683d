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

// TestZeroAllocPaths pins each per-pull policy call at 0 allocations,
// timed by the benchmark of the same name over the same operation.
func TestZeroAllocPaths(t *testing.T) {
	for _, p := range []struct {
		name string
		op   func(testing.TB) func()
	}{
		{"ChooseBlind", choose(newBlind)},
		{"ChooseRarestFirst", choose(newRarest)},
		{"FeedbackRarestFirst", feedbackRarestFirst},
		{"RarestObserveDelta", rarestObserveDelta},
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

func newBlind() Policy  { return Blind{} }
func newRarest() Policy { return NewRarestFirst(RarestConfig{Seed: 1}) }

// choose is one Choose by a policy populated with 32 peers and 256
// segments.
func choose(policy func() Policy) func(testing.TB) func() {
	return func(tb testing.TB) func() {
		p := policy()
		populate(p, 32, 256)
		env := &benchEnv{n: 32}
		var i int
		return func() {
			// The clock cycles inside the digest freshness window so
			// RarestFirst keeps exercising its full scan instead of
			// expiring every digest once and then timing the empty
			// fallback.
			if _, ok := p.Choose(float64(i%1000)*1e-3, env); !ok {
				tb.Fatal("Choose failed")
			}
			i++
		}
	}
}

func BenchmarkChooseBlind(b *testing.B)       { benchOp(b, choose(newBlind)(b)) }
func BenchmarkChooseRarestFirst(b *testing.B) { benchOp(b, choose(newRarest)(b)) }

// feedbackRarestFirst is the call every rarest pull reply makes: a useful
// block from a peer whose digest already lists the segment.
func feedbackRarestFirst(testing.TB) func() {
	p := newRarest()
	populate(p, 32, 256)
	var i int
	return func() {
		j := i % 256
		p.Feedback(Feedback{
			Peer:   PeerRef(j % 32),
			Time:   0.5,
			Seg:    rlnc.SegmentID{Origin: 1, Seq: uint64(j)},
			Useful: true,
		})
		i++
	}
}

func BenchmarkFeedbackRarestFirst(b *testing.B) { benchOp(b, feedbackRarestFirst(b)) }

// rarestObserveDelta is the steady-state cost of news: one new line for a
// known peer, which the next reply then disproves so the state does not
// grow.
func rarestObserveDelta(testing.TB) func() {
	p := newRarest()
	populate(p, 32, 256)
	line := []InventoryEntry{{Seg: rlnc.SegmentID{Origin: 2, Seq: 1}, Blocks: 1}}
	return func() {
		p.ObserveInventory(0.5, 7, line)
		p.Feedback(Feedback{Peer: 7, Time: 0.5, Seg: line[0].Seg})
	}
}

func BenchmarkRarestObserveDelta(b *testing.B) { benchOp(b, rarestObserveDelta(b)) }
