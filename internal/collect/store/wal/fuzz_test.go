package wal

import (
	"bytes"
	"testing"

	"p2pcollect/internal/collect/store"
	"p2pcollect/internal/rlnc"
)

// FuzzWALRecord fuzzes the log-record decoder: arbitrary bytes — torn
// frames, flipped bits, hostile length prefixes — must produce an error or
// a valid record, never a panic or an over-read. Valid decodes must
// re-encode to the exact input frame (the codec is its own inverse).
func FuzzWALRecord(f *testing.F) {
	// Seeds: each record type, a rank-only block, truncations, a bit flip,
	// an oversized length prefix, and junk.
	seg := rlnc.SegmentID{Origin: 3, Seq: 12}
	valid := appendRecord(nil, record{typ: recBlock, seg: seg,
		coeffs: []byte{1, 2, 3, 4}, payload: []byte{5, 6, 7, 8, 9, 10}})
	f.Add(valid)
	f.Add(appendRecord(nil, record{typ: recBlock, seg: seg, coeffs: []byte{0, 0, 1}}))
	f.Add(appendRecord(nil, record{typ: recFinished, seg: seg}))
	f.Add(appendRecord(nil, record{typ: recForget, seg: seg}))
	f.Add(valid[:frameHeaderSize-1])
	f.Add(valid[:len(valid)-3])
	flipped := append([]byte(nil), valid...)
	flipped[frameHeaderSize+2] ^= 0x01
	f.Add(flipped)
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})
	f.Add([]byte("go test fuzz corpus junk"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		rec, n, err := decodeRecord(data)
		if err != nil {
			if n != 0 {
				t.Fatalf("error with nonzero consumed length %d", n)
			}
			return
		}
		if n < frameHeaderSize+segBodySize || n > len(data) {
			t.Fatalf("consumed %d bytes of %d", n, len(data))
		}
		if rec.typ != recBlock && rec.typ != recFinished && rec.typ != recForget {
			t.Fatalf("decoded invalid type %d", rec.typ)
		}
		if rec.typ != recBlock && (rec.coeffs != nil || rec.payload != nil) {
			t.Fatal("non-block record decoded with block fields")
		}
		reencoded := appendRecord(nil, rec)
		if !bytes.Equal(reencoded, data[:n]) {
			t.Fatalf("re-encode mismatch:\n got %x\nwant %x", reencoded, data[:n])
		}
	})
}

// FuzzSnapshot fuzzes the snapshot decoder under the same rule: error or
// valid state, never a panic (the rank bound is enforced downstream by
// Restore, so here we only require structural sanity). The seeds include a
// v1 and a v2 snapshot, each holding an open collection.
func FuzzSnapshot(f *testing.F) {
	f.Add([]byte(snapMagic))
	f.Add([]byte{})
	f.Add([]byte("P2PCSNP1\x00\x00\x00\x00\x00\x00\x00\x00"))
	v1, v2 := seedSnapshots(f)
	f.Add(v1)
	f.Add(v2)
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := decodeSnapshot(data)
		if err != nil {
			return
		}
		if snap.segmentSize < 0 {
			t.Fatal("negative segment size decoded")
		}
		for _, sc := range snap.cols {
			for _, cb := range sc.basis {
				if cb == nil {
					t.Fatal("nil basis row decoded")
				}
			}
		}
	})
}

// seedSnapshots returns one snapshot per layout, each with a finished
// segment and an open collection of rank 1 at s=2: v1 written inline with
// a state word of 2, v2 by the encoder.
func seedSnapshots(tb testing.TB) (v1, v2 []byte) {
	done := rlnc.SegmentID{Origin: 1, Seq: 1}
	cb := &rlnc.CodedBlock{Seg: rlnc.SegmentID{Origin: 1, Seq: 2}, Coeffs: []byte{1, 2}, Payload: []byte{3, 4}}
	m, err := store.NewMemory(store.MemoryConfig{SegmentSize: 2})
	if err != nil {
		tb.Fatal(err)
	}
	m.MarkFinished(done)
	if _, _, err := m.Receive(0, cb); err != nil {
		tb.Fatal(err)
	}
	return snapshotV1(2, []rlnc.SegmentID{done}, cb.Seg, 2, len(cb.Payload), []*rlnc.CodedBlock{cb}), encodeSnapshot(m)
}
