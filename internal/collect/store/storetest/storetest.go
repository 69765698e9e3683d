// Package storetest is the shared conformance suite for store.Store
// implementations. Every store must run the same scripted operations table
// and a seeded differential stream whose outcomes are compared op-by-op
// against the reference in-RAM store.Memory — and whose transcript digest
// is pinned, so a store that diverges byte-for-byte from the golden stream
// (different innovation verdicts, different decoded payloads, different
// finished-set answers) fails loudly even if it happens to agree with
// Memory's current behavior.
package storetest

import (
	"fmt"
	"hash/crc32"
	"testing"

	"p2pcollect/internal/collect/store"
	"p2pcollect/internal/peercore"
	"p2pcollect/internal/randx"
	"p2pcollect/internal/rlnc"
)

// goldenDigest pins the seeded differential transcript. It hashes every
// outcome flag, rank, finished verdict, and decoded payload byte the
// stream produces. If a store change moves this value, collection behavior
// changed — update it only with an explanation of why the new behavior is
// correct.
const goldenDigest = 0xe3c4fff1

// Factory opens a fresh, empty store of segment size s for one subtest.
// Stores with durable state must point at a fresh location each call (use
// t.TempDir).
type Factory func(t *testing.T, s int) store.Store

// Run exercises a store implementation against the conformance suite.
func Run(t *testing.T, open Factory) {
	t.Run("Ops", func(t *testing.T) { testOps(t, open) })
	t.Run("Differential", func(t *testing.T) { testDifferential(t, open) })
}

// testOps walks one store through the operation table: lazy open on
// receive, rank accounting, finish, forget, and close.
func testOps(t *testing.T, open Factory) {
	const s, payloadLen = 4, 32
	st := open(t, s)
	rng := randx.New(7)

	segA := rlnc.SegmentID{Origin: 1, Seq: 1}
	segB := rlnc.SegmentID{Origin: 2, Seq: 9}
	srcA := makeSegment(t, rng, segA, s, payloadLen)
	srcB := makeSegment(t, rng, segB, s, payloadLen)

	// Drive segA to full rank; segB halfway.
	for st.Collection(segA) == nil || st.Collection(segA).RankDeficit() > 0 {
		out, col, err := st.Receive(1, srcA.Encode(rng))
		if err != nil {
			t.Fatal(err)
		}
		if col == nil {
			t.Fatal("Receive returned nil collection")
		}
		if out.Decoded && col.RankDeficit() != 0 {
			t.Fatal("Decoded outcome with rank deficit")
		}
	}
	for i := 0; i < s/2; i++ {
		if _, _, err := st.Receive(1, srcB.Encode(rng)); err != nil {
			t.Fatal(err)
		}
	}
	if got := st.OpenCount(); got != 2 {
		t.Errorf("OpenCount = %d, want 2", got)
	}
	if got := st.Collection(segB).Rank(); got != s/2 {
		t.Errorf("segB rank = %d, want %d", got, s/2)
	}

	// Decode segA and compare to source payloads.
	colA := st.Collection(segA)
	if !colA.Decoded() {
		t.Fatal("segA not decoded at full rank")
	}
	decoded, err := colA.Decode()
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range srcA.Blocks {
		if string(decoded[i]) != string(want) {
			t.Fatalf("decoded block %d differs from source", i)
		}
	}

	// Finish segA the way the collection service does.
	st.MarkFinished(segA)
	colA.Release()
	st.Forget(segA)
	if !st.Finished(segA) {
		t.Error("segA not finished")
	}
	if st.Finished(segB) {
		t.Error("segB reported finished")
	}
	if st.Collection(segA) != nil {
		t.Error("segA collection survives Forget")
	}
	// The finished set is also a log: one position per new member.
	st.MarkFinished(segA)
	if got, cur := st.FinishedSince(0, nil, 8); st.FinishedHead() != 1 || len(got) != 1 || got[0] != segA || cur != 1 {
		t.Errorf("finished log after one segment: head %d, Since(0) = %v, %d; want 1, [%v], 1",
			st.FinishedHead(), got, cur, segA)
	}
	if got := st.OpenCount(); got != 1 {
		t.Errorf("OpenCount after forget = %d, want 1", got)
	}

	// Range sees exactly segB.
	seen := 0
	st.Range(func(seg rlnc.SegmentID, col *peercore.Collection) {
		seen++
		if seg != segB {
			t.Errorf("Range visited %v, want %v", seg, segB)
		}
	})
	if seen != 1 {
		t.Errorf("Range visited %d collections, want 1", seen)
	}

	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// testDifferential replays one seeded op stream into the store under test
// and a reference Memory, comparing every observable after every op, and
// pins the transcript digest.
func testDifferential(t *testing.T, open Factory) {
	const s, payloadLen, nSegs, nOps = 3, 16, 6, 400
	st := open(t, s)
	ref, err := store.NewMemory(store.MemoryConfig{SegmentSize: s})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close() //nolint:errcheck // in-memory close cannot fail
	defer st.Close()  //nolint:errcheck // digest already compared
	digest := crc32.NewIEEE()
	note := func(format, a, b any) {
		fmt.Fprintf(digest, "%v|%v|%v\n", format, a, b)
	}

	rng := randx.New(42)
	segs := make([]*rlnc.Segment, nSegs)
	ids := make([]rlnc.SegmentID, nSegs)
	for i := range segs {
		ids[i] = rlnc.SegmentID{Origin: uint64(i%2 + 1), Seq: uint64(i)}
		segs[i] = makeSegment(t, rng, ids[i], s, payloadLen)
	}

	// One rng drives op selection; block encoding forks off it so both
	// stores see byte-identical blocks.
	enc := rng.Fork()
	for op := 0; op < nOps; op++ {
		i := rng.Intn(nSegs)
		id := ids[i]
		switch {
		case rng.Float64() < 0.80: // receive one coded block
			cb := segs[i].Encode(enc)
			if st.Finished(id) != ref.Finished(id) {
				t.Fatalf("op %d: Finished(%v) disagrees", op, id)
			}
			if st.Finished(id) {
				note("skip-finished", id, op)
				continue
			}
			outS, colS, errS := st.Receive(float64(op), cb)
			outR, colR, errR := ref.Receive(float64(op), cb)
			if (errS == nil) != (errR == nil) {
				t.Fatalf("op %d: Receive error disagrees: %v vs %v", op, errS, errR)
			}
			if outS != outR {
				t.Fatalf("op %d: outcome disagrees: %+v vs %+v", op, outS, outR)
			}
			if colS.Rank() != colR.Rank() {
				t.Fatalf("op %d: rank disagrees: %d vs %d", op, colS.Rank(), colR.Rank())
			}
			note("recv", fmt.Sprintf("%v", outS), colS.Rank())
			if outS.Decoded {
				dS, errS := colS.Decode()
				dR, errR := colR.Decode()
				if errS != nil || errR != nil {
					t.Fatalf("op %d: decode errors: %v, %v", op, errS, errR)
				}
				for j := range dS {
					if string(dS[j]) != string(dR[j]) {
						t.Fatalf("op %d: decoded block %d differs between stores", op, j)
					}
					digest.Write(dS[j])
				}
				// Complete the segment, as the service would.
				for _, store := range []store.Store{st, ref} {
					store.MarkFinished(id)
					store.Collection(id).Release()
					store.Forget(id)
				}
				note("finish", id, op)
			}
		case rng.Float64() < 0.5: // forget
			if (st.Collection(id) != nil) != (ref.Collection(id) != nil) {
				t.Fatalf("op %d: Collection(%v) presence disagrees", op, id)
			}
			if col := st.Collection(id); col != nil {
				col.Release()
				ref.Collection(id).Release()
			}
			st.Forget(id)
			ref.Forget(id)
			note("forget", id, op)
		default: // finish without decode (remote completion)
			st.MarkFinished(id)
			ref.MarkFinished(id)
			if col := st.Collection(id); col != nil {
				col.Release()
				ref.Collection(id).Release()
			}
			st.Forget(id)
			ref.Forget(id)
			note("finish-remote", id, op)
		}
		if st.OpenCount() != ref.OpenCount() {
			t.Fatalf("op %d: OpenCount disagrees: %d vs %d", op, st.OpenCount(), ref.OpenCount())
		}
		note("counts", st.OpenCount(), boolsum(st, ids))
	}

	if got := digest.Sum32(); got != goldenDigest {
		t.Errorf("transcript digest = %#08x, want %#08x — collection behavior changed; "+
			"verify the change is intended, then update goldenDigest", got, goldenDigest)
	}
}

// boolsum folds the finished verdicts into the digest line.
func boolsum(st store.Store, ids []rlnc.SegmentID) int {
	n := 0
	for _, id := range ids {
		if st.Finished(id) {
			n++
		}
	}
	return n
}

// makeSegment builds a source segment with rng-filled payloads.
func makeSegment(t *testing.T, rng *randx.Rand, id rlnc.SegmentID, s, payloadLen int) *rlnc.Segment {
	t.Helper()
	blocks := make([][]byte, s)
	for i := range blocks {
		blocks[i] = make([]byte, payloadLen)
		rng.FillCoefficients(blocks[i])
	}
	seg, err := rlnc.NewSegment(id, blocks)
	if err != nil {
		t.Fatal(err)
	}
	return seg
}
