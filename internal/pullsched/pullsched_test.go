package pullsched

import (
	"testing"

	"p2pcollect/internal/rlnc"
)

// scriptEnv returns a fixed sequence of peers and records how many draws
// the policy made, so tests can assert a policy's exact RNG footprint.
type scriptEnv struct {
	peers []PeerRef
	calls int
}

func (e *scriptEnv) SamplePeer() (PeerRef, bool) {
	if e.calls >= len(e.peers) {
		return 0, false
	}
	p := e.peers[e.calls]
	e.calls++
	return p, true
}

func seg(origin, seq uint64) rlnc.SegmentID {
	return rlnc.SegmentID{Origin: origin, Seq: seq}
}

// holders returns the known holder count of a candidate, 0 for none.
func holders(p *RarestFirst, s rlnc.SegmentID) int {
	if c := p.cands[s]; c != nil {
		return c.holders
	}
	return 0
}

func TestNewRegistry(t *testing.T) {
	for _, name := range append(Names(), "") {
		p, err := New(name, 1)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		want := name
		if want == "" {
			want = NameBlind
		}
		if p.Name() != want {
			t.Fatalf("New(%q).Name() = %q", name, p.Name())
		}
		if !Known(name) {
			t.Fatalf("Known(%q) = false", name)
		}
	}
	if _, err := New("nope", 1); err == nil {
		t.Fatal("New(nope) succeeded")
	}
	if Known("nope") {
		t.Fatal("Known(nope) = true")
	}
}

func TestBlindPassthrough(t *testing.T) {
	env := &scriptEnv{peers: []PeerRef{7, 3}}
	var p Policy = Blind{}
	d, ok := p.Choose(0, env)
	if !ok || d.Peer != 7 || d.HasHint || d.WantInventory {
		t.Fatalf("Choose = %+v, %v; want bare peer 7", d, ok)
	}
	// Feedback and inventories must not change the next decision.
	p.Feedback(Feedback{Peer: 7, Seg: seg(1, 1), Useful: true})
	p.ObserveInventory(0, 7, []InventoryEntry{{Seg: seg(1, 1), Blocks: 3}})
	d, ok = p.Choose(1, env)
	if !ok || d.Peer != 3 || d.HasHint || d.WantInventory {
		t.Fatalf("Choose after feedback = %+v, %v; want bare peer 3", d, ok)
	}
	if env.calls != 2 {
		t.Fatalf("Blind made %d env draws, want 2", env.calls)
	}
	// No eligible peer propagates as ok=false.
	if _, ok := p.Choose(2, env); ok {
		t.Fatal("Choose with exhausted env succeeded")
	}
}

func TestRarestFirstBootstrap(t *testing.T) {
	p := NewRarestFirst(RarestConfig{Seed: 1})
	env := &scriptEnv{peers: []PeerRef{9}}
	d, ok := p.Choose(0, env)
	if !ok || d.Peer != 9 || d.HasHint {
		t.Fatalf("bootstrap Choose = %+v, %v; want blind peer 9", d, ok)
	}
	if !d.WantInventory {
		t.Fatal("bootstrap pull did not request an inventory")
	}
	if _, ok := p.Choose(1, env); ok {
		t.Fatal("Choose with exhausted env succeeded")
	}
}

func TestRarestFirstPicksRarestFromHolder(t *testing.T) {
	p := NewRarestFirst(RarestConfig{Seed: 1})
	// Segment 1/1 has two holders, 2/2 has one: 2/2 is rarest.
	p.ObserveInventory(0, 10, []InventoryEntry{{Seg: seg(1, 1), Blocks: 2}})
	p.ObserveInventory(0, 11, []InventoryEntry{{Seg: seg(1, 1), Blocks: 1}, {Seg: seg(2, 2), Blocks: 3}})
	env := &scriptEnv{}
	d, ok := p.Choose(0.1, env)
	if !ok || !d.HasHint || d.Hint != seg(2, 2) || d.Peer != 11 {
		t.Fatalf("Choose = %+v, %v; want hint 2/2 at peer 11", d, ok)
	}
	if env.calls != 0 {
		t.Fatal("inventory-driven choice consulted the driver RNG")
	}
	if d.WantInventory {
		t.Fatal("fresh digest re-requested")
	}

	// Once 2/2 is delivered the remaining candidate is 1/1, held by both.
	p.Feedback(Feedback{Peer: 11, Time: 0.2, Seg: seg(2, 2), Useful: true, Done: true})
	d, ok = p.Choose(0.3, env)
	if !ok || d.Hint != seg(1, 1) {
		t.Fatalf("Choose after delivery = %+v, %v; want hint 1/1", d, ok)
	}
	if d.Peer != 10 && d.Peer != 11 {
		t.Fatalf("holder = %v, want 10 or 11", d.Peer)
	}
}

func TestRarestFirstStalenessTriggersRefresh(t *testing.T) {
	p := NewRarestFirst(RarestConfig{Seed: 1, RefreshInterval: 2})
	p.ObserveInventory(0, 5, []InventoryEntry{{Seg: seg(1, 1), Blocks: 1}})
	if d, _ := p.Choose(1, &scriptEnv{}); d.WantInventory {
		t.Fatal("fresh digest re-requested at t=1")
	}
	if d, _ := p.Choose(2, &scriptEnv{}); !d.WantInventory {
		t.Fatal("stale digest not refreshed at t=2")
	}
}

func TestRarestFirstEmptyReplyClearsPeer(t *testing.T) {
	p := NewRarestFirst(RarestConfig{Seed: 1})
	p.ObserveInventory(0, 5, []InventoryEntry{{Seg: seg(1, 1), Blocks: 1}})
	if p.KnownPeers() != 1 {
		t.Fatalf("KnownPeers = %d, want 1", p.KnownPeers())
	}
	p.Feedback(Feedback{Peer: 5, Time: 0.5, Empty: true})
	if holders(p, seg(1, 1)) != 0 {
		t.Fatalf("emptied peer still counted as %d holders", holders(p, seg(1, 1)))
	}
	// With no holders left the policy is back to the blind fallback, and
	// the emptied digest is as old as it was: no refresh before its time.
	d, ok := p.Choose(0.9, &scriptEnv{peers: []PeerRef{5}})
	if !ok || d.HasHint || d.WantInventory {
		t.Fatalf("Choose after clear = %+v, %v; want a bare blind pull", d, ok)
	}
	d, ok = p.Choose(1, &scriptEnv{peers: []PeerRef{5}})
	if !ok || d.HasHint || !d.WantInventory {
		t.Fatalf("Choose at the interval = %+v, %v; want blind refreshing pull", d, ok)
	}
}

// TestRarestFirstEmptyDigestIsADigest pins the idle-peer fix: a peer with
// nothing buffered is asked for one digest per refresh interval, not one
// per pull. An empty reply alone is not a digest, so one that got lost is
// asked for again.
func TestRarestFirstEmptyDigestIsADigest(t *testing.T) {
	for _, digestLost := range []bool{false, true} {
		p := NewRarestFirst(RarestConfig{Seed: 1})
		asked := 0
		for i := 0; i < 10; i++ {
			now := float64(i) * 0.05
			d, ok := p.Choose(now, &scriptEnv{peers: []PeerRef{5}})
			if !ok || d.HasHint {
				t.Fatalf("Choose %d = %+v, %v; want a blind pull", i, d, ok)
			}
			p.Feedback(Feedback{Peer: 5, Time: now, Empty: true})
			if d.WantInventory {
				asked++
				if !digestLost {
					p.ObserveInventory(now, 5, nil)
				}
			}
		}
		if want := map[bool]int{false: 1, true: 10}[digestLost]; asked != want {
			t.Errorf("digest lost=%v: ten pulls to an idle peer asked for %d digests, want %d", digestLost, asked, want)
		}
	}
}

// TestRarestFirstDeltaAddsAndKeepsAge pins the delta half of the
// ObserveInventory contract: lines add up, and the digest stays as old as
// its last full refresh.
func TestRarestFirstDeltaAddsAndKeepsAge(t *testing.T) {
	p := NewRarestFirst(RarestConfig{Seed: 1})
	p.ObserveInventory(0, 5, nil)
	p.ObserveInventory(0, 5, []InventoryEntry{{Seg: seg(1, 1), Blocks: 1}})
	p.ObserveInventory(0.9, 5, []InventoryEntry{{Seg: seg(2, 2), Blocks: 1}, {Seg: seg(1, 1), Blocks: 3}})
	if holders(p, seg(1, 1)) != 1 || holders(p, seg(2, 2)) != 1 {
		t.Fatalf("holders = %d and %d, want one each (a repeated line counts once)",
			holders(p, seg(1, 1)), holders(p, seg(2, 2)))
	}
	if d, ok := p.Choose(1, &scriptEnv{}); !ok || !d.HasHint || !d.WantInventory {
		t.Fatalf("Choose = %+v, %v; want a hinted pull refreshing a digest last whole at t=0", d, ok)
	}
}

func TestRarestFirstDeliveredExcludedFromDigests(t *testing.T) {
	p := NewRarestFirst(RarestConfig{Seed: 1})
	p.Feedback(Feedback{Peer: 5, Seg: seg(1, 1), Useful: true, Done: true})
	p.ObserveInventory(0, 5, []InventoryEntry{{Seg: seg(1, 1), Blocks: 4}})
	if _, ok := p.rarest(); ok {
		t.Fatal("delivered segment surfaced as a candidate")
	}
}

func TestRarestFirstDeliveredRingBounded(t *testing.T) {
	p := NewRarestFirst(RarestConfig{Seed: 1})
	const n = deliveredCap + 16
	for i := uint64(0); i < n; i++ {
		p.Feedback(Feedback{Seg: seg(1, i), Done: true})
	}
	if p.delivered.Len() != deliveredCap {
		t.Fatalf("delivered set = %d entries, want cap %d", p.delivered.Len(), deliveredCap)
	}
	// Newest entries survive, oldest are forgotten.
	if !p.delivered.Has(seg(1, n-1)) || p.delivered.Has(seg(1, 0)) {
		t.Fatal("ring evicted the wrong end")
	}
}

func TestRarestFirstExpiresOldDigests(t *testing.T) {
	p := NewRarestFirst(RarestConfig{Seed: 1, RefreshInterval: 1})
	p.ObserveInventory(0, 5, []InventoryEntry{{Seg: seg(1, 1), Blocks: 1}})
	if d, ok := p.Choose(1.9, &scriptEnv{}); !ok || !d.HasHint {
		t.Fatalf("Choose before expiry = %+v, %v; want hinted", d, ok)
	}
	// Past RefreshInterval×expireFactor the digest is discarded and the
	// policy is back to the blind bootstrap.
	d, ok := p.Choose(2.0, &scriptEnv{peers: []PeerRef{9}})
	if !ok || d.HasHint || !d.WantInventory {
		t.Fatalf("Choose after expiry = %+v, %v; want blind refreshing pull", d, ok)
	}
	if p.KnownPeers() != 0 {
		t.Fatalf("KnownPeers = %d after expiry, want 0", p.KnownPeers())
	}
}

func TestRarestFirstLearnsFromReplies(t *testing.T) {
	p := NewRarestFirst(RarestConfig{Seed: 1})
	p.ObserveInventory(0, 5, []InventoryEntry{{Seg: seg(1, 1), Blocks: 1}})

	// The hint was 1/1 but the reply served 2/2: the peer no longer holds
	// 1/1 and provably holds 2/2.
	d, ok := p.Choose(0.1, &scriptEnv{})
	if !ok || d.Hint != seg(1, 1) || d.Peer != 5 {
		t.Fatalf("Choose = %+v, %v; want hint 1/1 at peer 5", d, ok)
	}
	p.Feedback(Feedback{Peer: 5, Time: 0.2, Seg: seg(2, 2), Useful: true})
	if holders(p, seg(1, 1)) != 0 {
		t.Fatalf("refuted digest entry still has %d holders", holders(p, seg(1, 1)))
	}
	if holders(p, seg(2, 2)) != 1 {
		t.Fatalf("served segment not learned (holders=%d)", holders(p, seg(2, 2)))
	}
	if d, ok := p.Choose(0.3, &scriptEnv{}); !ok || d.Hint != seg(2, 2) {
		t.Fatalf("Choose after learning = %+v, %v; want hint 2/2", d, ok)
	}
}

func TestRarestFirstUselessReplyExhaustsHolding(t *testing.T) {
	p := NewRarestFirst(RarestConfig{Seed: 1})
	p.ObserveInventory(0, 5, []InventoryEntry{{Seg: seg(1, 1), Blocks: 2}})
	d, ok := p.Choose(0.1, &scriptEnv{})
	if !ok || d.Hint != seg(1, 1) {
		t.Fatalf("Choose = %+v, %v; want hint 1/1", d, ok)
	}
	// The peer served the hinted segment but the block was not useful and
	// the segment is not done: a low-degree holder whose recoded blocks
	// stopped being innovative. The digest line must go, or the policy
	// would hammer this peer for the rest of the digest's lifetime.
	p.Feedback(Feedback{Peer: 5, Time: 0.2, Seg: seg(1, 1)})
	if holders(p, seg(1, 1)) != 0 {
		t.Fatalf("exhausted holding still has %d holders", holders(p, seg(1, 1)))
	}
	d, ok = p.Choose(0.3, &scriptEnv{peers: []PeerRef{9}})
	if !ok || d.HasHint {
		t.Fatalf("Choose after exhaustion = %+v, %v; want blind fallback", d, ok)
	}
}

func TestRarestFirstDigestReplacement(t *testing.T) {
	p := NewRarestFirst(RarestConfig{Seed: 1})
	p.ObserveInventory(0, 5, []InventoryEntry{{Seg: seg(1, 1), Blocks: 1}})
	// A full digest is delivered as clear, then add.
	p.ObserveInventory(1, 5, nil)
	p.ObserveInventory(1, 5, []InventoryEntry{{Seg: seg(2, 2), Blocks: 1}})
	if holders(p, seg(1, 1)) != 0 {
		t.Fatalf("stale holder count %d for replaced digest", holders(p, seg(1, 1)))
	}
	d, ok := p.Choose(1.5, &scriptEnv{})
	if !ok || d.Hint != seg(2, 2) || d.WantInventory {
		t.Fatalf("Choose = %+v, %v; want hint 2/2 from the fresh replacement digest", d, ok)
	}
}

// TestRarestFirstPrunedSegmentLeavesNoHolderEntry: a delivered segment is
// pruned from the candidate structures while digests may still list it;
// dropping those lines later must not resurrect its holder count.
func TestRarestFirstPrunedSegmentLeavesNoHolderEntry(t *testing.T) {
	p := NewRarestFirst(RarestConfig{Seed: 1})
	p.ObserveInventory(0, 5, []InventoryEntry{{Seg: seg(1, 1), Blocks: 1}})
	p.Feedback(Feedback{Peer: 5, Seg: seg(1, 1), Useful: true, Done: true})
	p.Choose(0.1, &scriptEnv{peers: []PeerRef{5}}) // prunes the delivered segment
	p.ObserveInventory(0.2, 5, nil)
	if c := p.cands[seg(1, 1)]; c != nil {
		t.Fatalf("pruned segment back among the candidates with %d holders", c.holders)
	}
}

// TestRarestFirstHintDiesWithItsDigest: a hint refers to the digest it was
// aimed at. Once that digest expires, a reply from the same peer must not
// strike the hinted segment from the peer's next digest.
func TestRarestFirstHintDiesWithItsDigest(t *testing.T) {
	p := NewRarestFirst(RarestConfig{Seed: 1, RefreshInterval: 1})
	p.ObserveInventory(0, 5, []InventoryEntry{{Seg: seg(1, 1), Blocks: 1}})
	if d, ok := p.Choose(0.1, &scriptEnv{}); !ok || d.Hint != seg(1, 1) || d.Peer != 5 {
		t.Fatalf("Choose = %+v, %v; want hint 1/1 at peer 5", d, ok)
	}
	// Past RefreshInterval×expireFactor peer 5's digest expires unanswered.
	if d, ok := p.Choose(2.5, &scriptEnv{peers: []PeerRef{5}}); !ok || d.HasHint {
		t.Fatalf("Choose after expiry = %+v, %v; want a blind pull", d, ok)
	}
	p.ObserveInventory(2.5, 5, []InventoryEntry{{Seg: seg(1, 1), Blocks: 1}, {Seg: seg(2, 2), Blocks: 1}})
	p.Feedback(Feedback{Peer: 5, Time: 2.6, Seg: seg(2, 2), Useful: true})
	if p.peers[5].segs[seg(1, 1)] == 0 || holders(p, seg(1, 1)) != 1 {
		t.Fatalf("the old hint struck 1/1 from the fresh digest (holders %d)", holders(p, seg(1, 1)))
	}
}
