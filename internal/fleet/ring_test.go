package fleet

import (
	"errors"
	"sync"
	"testing"

	"p2pcollect/internal/randx"
	"p2pcollect/internal/rlnc"
)

func randomSegments(n int, seed int64) []rlnc.SegmentID {
	rng := randx.New(seed)
	segs := make([]rlnc.SegmentID, n)
	for i := range segs {
		segs[i] = rlnc.SegmentID{
			Origin: uint64(rng.Intn(1 << 20)),
			Seq:    uint64(rng.Intn(1 << 30)),
		}
	}
	return segs
}

// TestRingBalance checks the vnode count is high enough that shard loads
// stay close to uniform: at 256 vnodes the max/min owned fraction across
// shards must be within 1.25.
func TestRingBalance(t *testing.T) {
	const nSegs = 100000
	segs := randomSegments(nSegs, 42)
	for _, shards := range []int{2, 4, 8} {
		r, err := NewRing(shards, DefaultVnodes)
		if err != nil {
			t.Fatal(err)
		}
		counts := make([]int, shards)
		for _, seg := range segs {
			counts[r.Owner(seg)]++
		}
		minC, maxC := counts[0], counts[0]
		for _, c := range counts[1:] {
			if c < minC {
				minC = c
			}
			if c > maxC {
				maxC = c
			}
		}
		if minC == 0 {
			t.Fatalf("%d shards: a shard owns nothing: %v", shards, counts)
		}
		if ratio := float64(maxC) / float64(minC); ratio > 1.25 {
			t.Errorf("%d shards: max/min load ratio = %.3f > 1.25 (counts %v)", shards, ratio, counts)
		}
	}
}

// TestRingRemapFraction checks consistency: growing the fleet from N to
// N+1 shards must remap only ≈ 1/(N+1) of the segment space — the whole
// point of the consistent hash (mod-N placement would remap N/(N+1)).
func TestRingRemapFraction(t *testing.T) {
	const nSegs = 100000
	segs := randomSegments(nSegs, 7)
	for _, n := range []int{2, 4, 8} {
		before, err := NewRing(n, DefaultVnodes)
		if err != nil {
			t.Fatal(err)
		}
		after, err := NewRing(n+1, DefaultVnodes)
		if err != nil {
			t.Fatal(err)
		}
		moved := 0
		for _, seg := range segs {
			if before.Owner(seg) != after.Owner(seg) {
				moved++
			}
		}
		frac := float64(moved) / float64(nSegs)
		ideal := 1.0 / float64(n+1)
		if frac < 0.5*ideal || frac > 2.0*ideal {
			t.Errorf("%d→%d shards: remapped %.4f of segments, ideal %.4f (want within 2×)", n, n+1, frac, ideal)
		}
	}
}

// TestRingDeterministic: ownership is a pure function of (shards, vnodes,
// segment) — two independently built rings agree everywhere, and a 1-shard
// ring owns everything.
func TestRingDeterministic(t *testing.T) {
	a, err := NewRing(4, DefaultVnodes)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRing(4, DefaultVnodes)
	if err != nil {
		t.Fatal(err)
	}
	one, err := NewRing(1, DefaultVnodes)
	if err != nil {
		t.Fatal(err)
	}
	for _, seg := range randomSegments(10000, 3) {
		if a.Owner(seg) != b.Owner(seg) {
			t.Fatalf("rings disagree on %v: %d vs %d", seg, a.Owner(seg), b.Owner(seg))
		}
		if one.Owner(seg) != 0 {
			t.Fatalf("1-shard ring owner(%v) = %d", seg, one.Owner(seg))
		}
	}
}

func TestRingRejectsZeroShards(t *testing.T) {
	if _, err := NewRing(0, DefaultVnodes); err == nil {
		t.Fatal("NewRing(0) succeeded")
	}
}

// TestRingOwnerZeroAlloc pins the exchange hot path: routing a block to
// its shard must not allocate.
func TestRingOwnerZeroAlloc(t *testing.T) {
	r, err := NewRing(4, DefaultVnodes)
	if err != nil {
		t.Fatal(err)
	}
	seg := rlnc.SegmentID{Origin: 11, Seq: 97}
	if allocs := testing.AllocsPerRun(1000, func() { _ = r.Owner(seg) }); allocs != 0 {
		t.Errorf("Owner allocates %.1f objects/op, want 0", allocs)
	}
}

func TestJournalClaimExactlyOnce(t *testing.T) {
	j := NewJournal(16)
	seg := rlnc.SegmentID{Origin: 1, Seq: 2}
	if !j.Claim(seg) {
		t.Fatal("first claim lost")
	}
	if j.Claim(seg) {
		t.Fatal("second claim won")
	}
	if !j.Delivered(seg) {
		t.Fatal("claimed segment not delivered")
	}
	if j.Count() != 1 {
		t.Fatalf("Count = %d, want 1", j.Count())
	}
}

// TestJournalConcurrentClaims races many claimants per segment and checks
// each segment is won exactly once — the fleet's delivery-dedup invariant.
func TestJournalConcurrentClaims(t *testing.T) {
	const segsN = 200
	const claimants = 8
	j := NewJournal(0)
	wins := make([][]int, claimants)
	var wg sync.WaitGroup
	for c := 0; c < claimants; c++ {
		wins[c] = make([]int, segsN)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < segsN; i++ {
				if j.Claim(rlnc.SegmentID{Origin: 5, Seq: uint64(i)}) {
					wins[c][i] = 1
				}
			}
		}(c)
	}
	wg.Wait()
	for i := 0; i < segsN; i++ {
		total := 0
		for c := 0; c < claimants; c++ {
			total += wins[c][i]
		}
		if total != 1 {
			t.Fatalf("segment %d claimed %d times, want exactly 1", i, total)
		}
	}
}

func TestJournalBounded(t *testing.T) {
	j := NewJournal(4)
	for i := 0; i < 10; i++ {
		if !j.Claim(rlnc.SegmentID{Origin: 9, Seq: uint64(i)}) {
			t.Fatalf("claim %d lost on a fresh segment", i)
		}
	}
	if j.Count() != 4 {
		t.Fatalf("Count = %d, want 4", j.Count())
	}
	if j.Delivered(rlnc.SegmentID{Origin: 9, Seq: 0}) {
		t.Error("oldest entry not evicted")
	}
	// An evicted segment may be claimed (hence delivered) again — the
	// bounded-memory contract.
	if !j.Claim(rlnc.SegmentID{Origin: 9, Seq: 0}) {
		t.Error("evicted segment could not be re-claimed")
	}
}

// TestJournalEvictionOrderAcrossGrowAndWrap walks a small journal through
// its two regimes — the ring growing by append, then overwriting in place —
// and checks after every claim that exactly the newest bound segments are
// remembered, i.e. eviction is FIFO across the boundary and across several
// wraps of head.
func TestJournalEvictionOrderAcrossGrowAndWrap(t *testing.T) {
	const bound = 3
	seg := func(i int) rlnc.SegmentID { return rlnc.SegmentID{Origin: 4, Seq: uint64(i)} }
	// Preloaded claims go through the same admission as live ones.
	j := NewJournalBacked(bound, []rlnc.SegmentID{seg(0), seg(1)}, nil)
	for i := 2; i < 4*bound; i++ {
		if !j.Claim(seg(i)) {
			t.Fatalf("claim %d lost on a fresh segment", i)
		}
		if want := min(i+1, bound); j.Count() != want {
			t.Fatalf("after claim %d: Count = %d, want %d", i, j.Count(), want)
		}
		for k := 0; k <= i; k++ {
			if got, want := j.Delivered(seg(k)), k > i-bound; got != want {
				t.Fatalf("after claim %d: Delivered(%d) = %v, want %v", i, k, got, want)
			}
		}
	}
}

// failingPersister refuses claims while fail is set and counts the rest.
type failingPersister struct {
	fail      bool
	persisted int
}

func (p *failingPersister) Persist(rlnc.SegmentID) error {
	if p.fail {
		return errors.New("disk full")
	}
	p.persisted++
	return nil
}

// TestJournalPersistFailureLeavesJournalUntouched refuses a claim once
// while the ring is still growing and once after it has wrapped: the
// refused segment stays claimable, nothing is evicted on its behalf, and
// the FIFO order of later claims is what it would have been without it.
func TestJournalPersistFailureLeavesJournalUntouched(t *testing.T) {
	const bound = 3
	seg := func(i int) rlnc.SegmentID { return rlnc.SegmentID{Origin: 6, Seq: uint64(i)} }
	p := &failingPersister{}
	j := NewJournalBacked(bound, nil, p)
	refuse := func(i, wantCount int) {
		t.Helper()
		p.fail = true
		if j.Claim(seg(i)) {
			t.Fatalf("claim %d won although persistence failed", i)
		}
		p.fail = false
		if j.Delivered(seg(i)) || j.Count() != wantCount {
			t.Fatalf("refused claim %d left a trace: delivered=%v Count=%d, want false/%d",
				i, j.Delivered(seg(i)), j.Count(), wantCount)
		}
	}

	j.Claim(seg(0))
	refuse(1, 1) // still growing
	for i := 1; i <= 3; i++ {
		if !j.Claim(seg(i)) {
			t.Fatalf("claim %d lost", i)
		}
	}
	// Ring is full and has wrapped once: 0 evicted, {1,2,3} remembered.
	refuse(4, bound)
	for k, want := range []bool{false, true, true, true} {
		if j.Delivered(seg(k)) != want {
			t.Fatalf("after refused claim on a full ring: Delivered(%d) = %v, want %v", k, !want, want)
		}
	}
	if !j.Claim(seg(4)) || j.Delivered(seg(1)) || !j.Delivered(seg(2)) {
		t.Fatal("FIFO order disturbed by the refused claims")
	}
	if p.persisted != 5 {
		t.Fatalf("persisted %d claims, want 5", p.persisted)
	}
}

func BenchmarkRingOwner(b *testing.B) {
	r, err := NewRing(4, DefaultVnodes)
	if err != nil {
		b.Fatal(err)
	}
	segs := randomSegments(1024, 13)
	b.ReportAllocs()
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		sink += r.Owner(segs[i&1023])
	}
	_ = sink
}

// journalClaim is one winning claim on a full journal, which forgets its
// oldest claim to make room. The journal is filled first: until it is
// full its set still grows.
func journalClaim(tb testing.TB) func() {
	const capacity = 1 << 16
	j := NewJournal(capacity)
	var seq uint64
	claim := func() {
		if !j.Claim(rlnc.SegmentID{Origin: 3, Seq: seq}) {
			tb.Fatalf("fresh claim %d refused", seq)
		}
		seq++
	}
	for seq < 2*capacity {
		claim()
	}
	return claim
}

func TestJournalClaimAllocatesNothing(t *testing.T) {
	if n := testing.AllocsPerRun(5000, journalClaim(t)); n != 0 {
		t.Errorf("Claim on a full journal: %v allocations, want 0", n)
	}
}

func BenchmarkJournalClaim(b *testing.B) {
	claim := journalClaim(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		claim()
	}
}
