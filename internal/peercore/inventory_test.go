package peercore

import (
	"reflect"
	"testing"

	"p2pcollect/internal/pullsched"
	"p2pcollect/internal/randx"
	"p2pcollect/internal/rlnc"
)

func TestInventorySinceCursor(t *testing.T) {
	p := newTestPeer(t, 16, nil)
	if inv, cur, delta := p.InventorySince(0); inv != nil || cur != 1 || delta {
		t.Fatalf("fresh peer, no cursor: %v, %d, delta=%v; want an empty full digest reaching 1", inv, cur, delta)
	}
	if inv, cur, delta := p.InventorySince(1); inv != nil || cur != 1 || !delta {
		t.Fatalf("fresh peer, cursor 1: %v, %d, delta=%v; want an empty delta", inv, cur, delta)
	}
	first, _, _ := p.Inject(0, nil)
	second, stored, _ := p.Inject(0, nil)
	p.ExpireBlock(stored[0].Block)
	lines := []pullsched.InventoryEntry{{Seg: first, Blocks: 4}, {Seg: second, Blocks: 3}}
	for _, tc := range []struct {
		cursor uint64
		want   []pullsched.InventoryEntry
		delta  bool
	}{
		{0, lines, false},
		{1, lines, true},
		{2, lines[1:], true},
		{3, nil, true},
		{4, lines, false}, // ahead of the count: issued by a predecessor
	} {
		inv, cur, delta := p.InventorySince(tc.cursor)
		if !reflect.DeepEqual(inv, tc.want) || cur != 3 || delta != tc.delta {
			t.Errorf("InventorySince(%d) = %v, %d, delta=%v; want %v, 3, delta=%v",
				tc.cursor, inv, cur, delta, tc.want, tc.delta)
		}
	}
	// A holding that is gone is not news, and Clear does not rewind the
	// count: a cursor from before it still gets a delta.
	p.DropSegment(second)
	if inv, _, _ := p.InventorySince(2); inv != nil {
		t.Errorf("dropped holding listed: %v", inv)
	}
	p.Clear()
	if inv, cur, delta := p.InventorySince(3); inv != nil || cur != 3 || !delta {
		t.Errorf("after Clear: %v, %d, delta=%v; want an empty delta reaching 3", inv, cur, delta)
	}
	third, _, _ := p.Inject(1, nil)
	want := []pullsched.InventoryEntry{{Seg: third, Blocks: 4}}
	if inv, cur, delta := p.InventorySince(3); !reflect.DeepEqual(inv, want) || cur != 4 || !delta {
		t.Errorf("first holding after Clear: %v, %d, delta=%v; want %v, 4, a delta", inv, cur, delta, want)
	}
}

// TestInventoryDeltasCoverHoldings drives random Store / Inject /
// Recode-then-Store / ExpireDue / DropSegment / Clear sequences under
// CheckInvariants, with a puller beside them that took one full digest and
// then, at random moments, a delta since the cursor it holds. What it has
// been told, less what the peer has dropped since, must be exactly the
// peer's holdings after every delta, and no holding may be told twice.
func TestInventoryDeltasCoverHoldings(t *testing.T) {
	const size = 4
	for seed := int64(1); seed <= 20; seed++ {
		rng := randx.New(seed)
		p := NewPeer(7, PeerConfig{SegmentSize: size, BufferCap: 24, Gamma: 1}, randx.New(seed+100), nil)
		payloads := func() [][]byte {
			out := make([][]byte, size)
			for i := range out {
				out[i] = []byte{byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))}
			}
			return out
		}
		told := make(map[rlnc.SegmentID]bool)
		var cursor uint64
		now := 0.0
		for step := 0; step < 2000; step++ {
			switch op := rng.Intn(24); {
			case op < 14:
				cb := rlnc.NewBlock(rlnc.SegmentID{Origin: 1, Seq: uint64(rng.Intn(12))}, size)
				for i := range cb.Coeffs {
					cb.Coeffs[i] = byte(rng.Intn(256))
				}
				p.Store(now, cb)
			case op < 16:
				p.Inject(now, payloads)
			case op < 18:
				if n := p.NumSegments(); n > 0 {
					p.Store(now, p.Recode(p.SegmentAt(rng.Intn(n))))
				}
			case op < 21:
				now += 0.2
				p.ExpireDue(now)
			case op < 23:
				p.DropSegment(rlnc.SegmentID{Origin: 1, Seq: uint64(rng.Intn(12))})
			default:
				p.Clear()
			}
			if err := p.CheckInvariants(); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			for seg := range told {
				if !p.Holds(seg) {
					delete(told, seg)
				}
			}
			if rng.Intn(3) != 0 {
				continue
			}
			inv, cur, delta := p.InventorySince(cursor)
			if delta != (cursor != 0) || cur < cursor {
				t.Fatalf("seed %d step %d: InventorySince(%d) reached %d, delta=%v", seed, step, cursor, cur, delta)
			}
			cursor = cur
			for _, e := range inv {
				if told[e.Seg] {
					t.Fatalf("seed %d step %d: holding of %v told twice", seed, step, e.Seg)
				}
				if e.Blocks != p.BlocksOf(e.Seg) || e.Blocks == 0 {
					t.Fatalf("seed %d step %d: %v listed with %d blocks, peer holds %d", seed, step, e.Seg, e.Blocks, p.BlocksOf(e.Seg))
				}
				told[e.Seg] = true
			}
			if len(told) != p.NumSegments() {
				t.Fatalf("seed %d step %d: puller knows %d holdings, peer has %d", seed, step, len(told), p.NumSegments())
			}
		}
	}
}

func TestCheckInvariantsCoversArrivals(t *testing.T) {
	p := newTestPeer(t, 16, nil)
	p.Inject(0, nil)
	p.Inject(0, nil)
	p.segArrival = p.segArrival[:1]
	if err := p.CheckInvariants(); err == nil {
		t.Error("arrival list shorter than the sampling list passed CheckInvariants")
	}
}

// inventorySinceNoNews is what a pull that carries an up-to-date cursor
// costs a peer with 256 buffered segments.
func inventorySinceNoNews(tb testing.TB) func() {
	p := NewPeer(7, PeerConfig{SegmentSize: 4, BufferCap: 1024, Gamma: 1}, randx.New(1), nil)
	for i := 0; i < 256; i++ {
		cb := rlnc.NewBlock(rlnc.SegmentID{Origin: 1, Seq: uint64(i)}, 4)
		cb.Coeffs[0] = 1
		p.Store(0, cb)
	}
	_, cursor, _ := p.InventorySince(0)
	return func() {
		if inv, _, _ := p.InventorySince(cursor); inv != nil {
			tb.Fatal("news without a new holding")
		}
	}
}

func BenchmarkInventorySinceNoNews(b *testing.B) { benchOp(b, inventorySinceNoNews(b)) }
