package rlnc

import (
	"bytes"
	"testing"

	"p2pcollect/internal/gf256"
	"p2pcollect/internal/randx"
)

// TestDecoderRecodeSpansReceivedSpace checks the exchange primitive: blocks
// recoded out of a partial decoder must let a second decoder reconstruct
// the segment exactly, and must never leak dimensions the first decoder
// does not hold. The source decoder is eager: it reduces each row as it
// arrives.
func TestDecoderRecodeSpansReceivedSpace(t *testing.T) {
	t.Run("eager", testDecoderRecodeSpansReceivedSpace)
}

func testDecoderRecodeSpansReceivedSpace(t *testing.T) {
	const (
		size       = 6
		payloadLen = 48
	)
	rng := randx.New(5)
	blocks := make([][]byte, size)
	for i := range blocks {
		blocks[i] = make([]byte, payloadLen)
		rng.FillCoefficients(blocks[i])
	}
	seg, err := NewSegment(SegmentID{Origin: 9, Seq: 2}, blocks)
	if err != nil {
		t.Fatal(err)
	}
	src := NewDecoder(seg.ID, size, payloadLen)
	if src.Recode(rng) != nil {
		t.Fatal("rank-0 decoder recoded a block")
	}
	// Feed only 4 of 6 dimensions into the source decoder.
	for src.Rank() < 4 {
		if _, err := src.Add(seg.Encode(rng)); err != nil {
			t.Fatal(err)
		}
	}
	// A sink fed only recoded blocks must plateau at the source's rank: the
	// exchange cannot invent dimensions.
	sink := NewDecoder(seg.ID, size, payloadLen)
	for i := 0; i < 64; i++ {
		cb := src.Recode(rng)
		if cb == nil {
			t.Fatal("partial decoder refused to recode")
		}
		if cb.Seg != seg.ID || len(cb.Coeffs) != size || len(cb.Payload) != payloadLen {
			t.Fatalf("recoded block has wrong shape: %+v", cb)
		}
		if _, err := sink.Add(cb); err != nil {
			t.Fatal(err)
		}
	}
	if sink.Rank() != 4 {
		t.Fatalf("sink rank %d from rank-4 source, want exactly 4", sink.Rank())
	}
	// Complete the source; recoded blocks must now finish the sink, and the
	// decode must be byte-identical to the originals.
	for !src.Complete() {
		if _, err := src.Add(seg.Encode(rng)); err != nil {
			t.Fatal(err)
		}
	}
	for !sink.Complete() {
		if _, err := sink.Add(src.Recode(rng)); err != nil {
			t.Fatal(err)
		}
	}
	got, err := sink.Decode()
	if err != nil {
		t.Fatal(err)
	}
	for i := range blocks {
		if string(got[i]) != string(blocks[i]) {
			t.Fatalf("decoded block %d differs from original", i)
		}
	}
}

// TestRecodeWiderThanOneBatch recodes over more rows than one fused call
// takes, from source blocks and from a full decoder: every output payload
// must be its own coefficients applied to the originals, which fails if a
// batch is lost or applied twice.
func TestRecodeWiderThanOneBatch(t *testing.T) {
	const size, payloadLen = 2*fuseBatch + 5, 40
	rng := randx.New(11)
	blocks := make([][]byte, size)
	for i := range blocks {
		blocks[i] = make([]byte, payloadLen)
		rng.FillCoefficients(blocks[i])
	}
	seg, err := NewSegment(SegmentID{Origin: 4, Seq: 7}, blocks)
	if err != nil {
		t.Fatal(err)
	}
	check := func(from string, cb *CodedBlock) {
		t.Helper()
		want := make([]byte, payloadLen)
		for i, c := range cb.Coeffs {
			gf256.RefAddMulSlice(want, c, blocks[i])
		}
		if !bytes.Equal(cb.Payload, want) {
			t.Fatalf("recode from %s: payload does not match its coefficients", from)
		}
	}
	check("source blocks", Recode(seg.SourceBlocks(), rng))
	dec := NewDecoder(seg.ID, size, payloadLen)
	for tries := 0; !dec.Complete(); tries++ {
		if tries == 4*size {
			t.Fatalf("rank %d after %d encoded blocks", dec.Rank(), tries)
		}
		if _, err := dec.Add(seg.Encode(rng)); err != nil {
			t.Fatal(err)
		}
	}
	check("a decoder", dec.Recode(rng))
}
