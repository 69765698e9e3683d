package rlnc

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"p2pcollect/internal/raceon"
	"p2pcollect/internal/randx"
)

func testSegment(t testing.TB, seed int64, size, payloadLen int) *Segment {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	blocks := make([][]byte, size)
	for i := range blocks {
		blocks[i] = make([]byte, payloadLen)
		rng.Read(blocks[i])
	}
	seg, err := NewSegment(SegmentID{Origin: 1, Seq: uint64(seed)}, blocks)
	if err != nil {
		t.Fatal(err)
	}
	return seg
}

func makeSegment(t *testing.T, rng *randx.Rand, id SegmentID, s, blockLen int) *Segment {
	t.Helper()
	blocks := make([][]byte, s)
	for i := range blocks {
		blocks[i] = make([]byte, blockLen)
		rng.FillCoefficients(blocks[i])
	}
	seg, err := NewSegment(id, blocks)
	if err != nil {
		t.Fatalf("NewSegment: %v", err)
	}
	return seg
}

func TestNewSegmentValidation(t *testing.T) {
	if _, err := NewSegment(SegmentID{}, nil); err == nil {
		t.Error("empty segment accepted")
	}
	if _, err := NewSegment(SegmentID{}, [][]byte{{1, 2}, {3}}); err == nil {
		t.Error("ragged segment accepted")
	}
}

func TestSourceBlockUnitVector(t *testing.T) {
	rng := randx.New(1)
	seg := makeSegment(t, rng, SegmentID{Origin: 1, Seq: 2}, 4, 8)
	for i := 0; i < 4; i++ {
		b := seg.SourceBlock(i)
		for j, c := range b.Coeffs {
			want := byte(0)
			if j == i {
				want = 1
			}
			if c != want {
				t.Fatalf("SourceBlock(%d).Coeffs[%d] = %d", i, j, c)
			}
		}
		if !bytes.Equal(b.Payload, seg.Blocks[i]) {
			t.Fatalf("SourceBlock(%d) payload mismatch", i)
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	tests := []struct {
		name        string
		s, blockLen int
	}{
		{"s=1", 1, 16},
		{"s=2", 2, 1},
		{"s=8", 8, 32},
		{"s=32", 32, 64},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			rng := randx.New(2)
			id := SegmentID{Origin: 7, Seq: 9}
			seg := makeSegment(t, rng, id, tt.s, tt.blockLen)
			dec := NewDecoder(id, tt.s, tt.blockLen)
			sent := 0
			for !dec.Complete() {
				sent++
				if sent > tt.s*4 {
					t.Fatalf("decoder not complete after %d random blocks", sent)
				}
				if _, err := dec.Add(seg.Encode(rng)); err != nil {
					t.Fatalf("Add: %v", err)
				}
			}
			got, err := dec.Decode()
			if err != nil {
				t.Fatalf("Decode: %v", err)
			}
			for i := range got {
				if !bytes.Equal(got[i], seg.Blocks[i]) {
					t.Fatalf("decoded block %d differs", i)
				}
			}
		})
	}
}

func TestDecodeAfterMultiHopRecoding(t *testing.T) {
	// Source → relay A → relay B → server, with partial buffers at each hop.
	rng := randx.New(3)
	id := SegmentID{Origin: 3, Seq: 1}
	const s = 6
	seg := makeSegment(t, rng, id, s, 24)

	relayA := NewHolding(id, s)
	for i := 0; i < s; i++ {
		relayA.Add(seg.Encode(rng))
	}
	relayB := NewHolding(id, s)
	for relayB.Rank() < s {
		relayB.Add(relayA.Recode(rng))
	}
	dec := NewDecoder(id, s, 24)
	for !dec.Complete() {
		if _, err := dec.Add(relayB.Recode(rng)); err != nil {
			t.Fatalf("Add: %v", err)
		}
	}
	got, err := dec.Decode()
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	for i := range got {
		if !bytes.Equal(got[i], seg.Blocks[i]) {
			t.Fatalf("multi-hop decoded block %d differs", i)
		}
	}
}

func TestDecoderRejectsForeignAndMisshapen(t *testing.T) {
	rng := randx.New(4)
	id := SegmentID{Origin: 1, Seq: 1}
	seg := makeSegment(t, rng, id, 3, 8)
	dec := NewDecoder(id, 3, 8)

	foreign := seg.Encode(rng)
	foreign.Seg = SegmentID{Origin: 2, Seq: 2}
	if _, err := dec.Add(foreign); !errors.Is(err, ErrSegmentMismatch) {
		t.Errorf("foreign block err = %v, want ErrSegmentMismatch", err)
	}

	short := seg.Encode(rng)
	short.Coeffs = short.Coeffs[:2]
	if _, err := dec.Add(short); !errors.Is(err, ErrShapeMismatch) {
		t.Errorf("short coeffs err = %v, want ErrShapeMismatch", err)
	}

	badPayload := seg.Encode(rng)
	badPayload.Payload = badPayload.Payload[:4]
	if _, err := dec.Add(badPayload); !errors.Is(err, ErrShapeMismatch) {
		t.Errorf("bad payload err = %v, want ErrShapeMismatch", err)
	}
}

func TestDecodeIncomplete(t *testing.T) {
	rng := randx.New(5)
	id := SegmentID{Origin: 1, Seq: 1}
	seg := makeSegment(t, rng, id, 4, 8)
	dec := NewDecoder(id, 4, 8)
	if _, err := dec.Add(seg.Encode(rng)); err != nil {
		t.Fatal(err)
	}
	if _, err := dec.Decode(); !errors.Is(err, ErrIncomplete) {
		t.Errorf("Decode on partial rank err = %v, want ErrIncomplete", err)
	}
}

func TestRankOnlyDecoder(t *testing.T) {
	rng := randx.New(6)
	id := SegmentID{Origin: 1, Seq: 1}
	seg := makeSegment(t, rng, id, 3, 8)
	dec := NewDecoder(id, 3, 0)
	for !dec.Complete() {
		b := seg.Encode(rng)
		b.Payload = nil
		if _, err := dec.Add(b); err != nil {
			t.Fatalf("Add: %v", err)
		}
	}
	if _, err := dec.Decode(); !errors.Is(err, ErrNoPayload) {
		t.Errorf("rank-only Decode err = %v, want ErrNoPayload", err)
	}
}

func TestRedundantBlocksNotInnovative(t *testing.T) {
	rng := randx.New(7)
	id := SegmentID{Origin: 1, Seq: 1}
	seg := makeSegment(t, rng, id, 4, 8)
	dec := NewDecoder(id, 4, 8)
	for !dec.Complete() {
		if _, err := dec.Add(seg.Encode(rng)); err != nil {
			t.Fatal(err)
		}
	}
	innovative, err := dec.Add(seg.Encode(rng))
	if err != nil {
		t.Fatal(err)
	}
	if innovative {
		t.Error("block innovative after decoder already complete")
	}
}

func TestRecodeAnchorsNonZero(t *testing.T) {
	rng := randx.New(8)
	id := SegmentID{Origin: 1, Seq: 1}
	seg := makeSegment(t, rng, id, 5, 4)
	for trial := 0; trial < 200; trial++ {
		b := Recode([]*CodedBlock{seg.SourceBlock(0)}, rng)
		allZero := true
		for _, c := range b.Coeffs {
			if c != 0 {
				allZero = false
			}
		}
		if allZero {
			t.Fatal("Recode produced a zero block")
		}
	}
}

func TestRecodeMismatchPanics(t *testing.T) {
	rng := randx.New(9)
	a := &CodedBlock{Seg: SegmentID{Origin: 1}, Coeffs: []byte{1, 0}}
	b := &CodedBlock{Seg: SegmentID{Origin: 2}, Coeffs: []byte{0, 1}}
	defer func() {
		if recover() == nil {
			t.Error("Recode over mixed segments did not panic")
		}
	}()
	Recode([]*CodedBlock{a, b}, rng)
}

func TestCloneIsDeep(t *testing.T) {
	b := &CodedBlock{Seg: SegmentID{Origin: 1}, Coeffs: []byte{1, 2}, Payload: []byte{3}}
	c := b.Clone()
	c.Coeffs[0] = 9
	c.Payload[0] = 9
	if b.Coeffs[0] != 1 || b.Payload[0] != 3 {
		t.Error("Clone shares storage")
	}
}

func TestPropertyDecodeRecoversPayloads(t *testing.T) {
	f := func(seed int64, sRaw, lenRaw uint8) bool {
		s := int(sRaw%16) + 1
		blockLen := int(lenRaw%32) + 1
		rng := randx.New(seed)
		id := SegmentID{Origin: 1, Seq: uint64(seed)}
		blocks := make([][]byte, s)
		for i := range blocks {
			blocks[i] = make([]byte, blockLen)
			rng.FillCoefficients(blocks[i])
		}
		seg, err := NewSegment(id, blocks)
		if err != nil {
			return false
		}
		dec := NewDecoder(id, s, blockLen)
		for tries := 0; !dec.Complete(); tries++ {
			if tries > 20*s {
				return false
			}
			if _, err := dec.Add(seg.Encode(rng)); err != nil {
				return false
			}
		}
		got, err := dec.Decode()
		if err != nil {
			return false
		}
		for i := range got {
			if !bytes.Equal(got[i], blocks[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestHoldingAddRemove(t *testing.T) {
	rng := randx.New(10)
	id := SegmentID{Origin: 2, Seq: 1}
	seg := makeSegment(t, rng, id, 4, 8)
	h := NewHolding(id, 4)
	for h.Rank() < 4 {
		h.Add(seg.Encode(rng))
	}
	if !h.Full() {
		t.Fatal("holding not full at rank s")
	}
	if h.Add(seg.Encode(rng)) {
		t.Error("full holding accepted another block")
	}
	h.Remove(0)
	if h.Rank() != 3 || h.Full() {
		t.Errorf("after Remove: rank %d full=%v", h.Rank(), h.Full())
	}
	// The holding must accept an innovative block again.
	for tries := 0; h.Rank() < 4; tries++ {
		if tries > 50 {
			t.Fatal("holding never refilled")
		}
		h.Add(seg.Encode(rng))
	}
}

func TestHoldingRemoveBlock(t *testing.T) {
	rng := randx.New(11)
	id := SegmentID{Origin: 2, Seq: 2}
	seg := makeSegment(t, rng, id, 3, 4)
	h := NewHolding(id, 3)
	var stored *CodedBlock
	for h.Rank() < 2 {
		b := seg.Encode(rng)
		if h.Add(b) {
			stored = b
		}
	}
	if !h.RemoveBlock(stored) {
		t.Error("RemoveBlock failed to find stored block")
	}
	if h.RemoveBlock(stored) {
		t.Error("RemoveBlock found already-removed block")
	}
	if h.Len() != 1 {
		t.Errorf("Len = %d, want 1", h.Len())
	}
}

func TestHoldingRecodeDecodes(t *testing.T) {
	rng := randx.New(12)
	id := SegmentID{Origin: 3, Seq: 3}
	seg := makeSegment(t, rng, id, 5, 16)
	h := NewHolding(id, 5)
	for h.Rank() < 5 {
		h.Add(seg.Encode(rng))
	}
	dec := NewDecoder(id, 5, 16)
	for !dec.Complete() {
		if _, err := dec.Add(h.Recode(rng)); err != nil {
			t.Fatal(err)
		}
	}
	got, err := dec.Decode()
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if !bytes.Equal(got[i], seg.Blocks[i]) {
			t.Fatalf("holding-recode decoded block %d differs", i)
		}
	}
}

func TestHoldingPartialRankRecode(t *testing.T) {
	// A peer holding rank l < s still re-encodes; a collector can only reach
	// rank l from that peer alone.
	rng := randx.New(13)
	id := SegmentID{Origin: 4, Seq: 4}
	seg := makeSegment(t, rng, id, 6, 8)
	h := NewHolding(id, 6)
	for h.Rank() < 3 {
		h.Add(seg.Encode(rng))
	}
	dec := NewDecoder(id, 6, 8)
	for i := 0; i < 100; i++ {
		if _, err := dec.Add(h.Recode(rng)); err != nil {
			t.Fatal(err)
		}
	}
	if dec.Rank() != 3 {
		t.Errorf("collector rank = %d, want 3 (the relay's rank)", dec.Rank())
	}
}

func TestSegmentIDString(t *testing.T) {
	if got := (SegmentID{Origin: 5, Seq: 17}).String(); got != "5/17" {
		t.Errorf("String = %q", got)
	}
}

func BenchmarkRecode32(b *testing.B) {
	rng := randx.New(14)
	id := SegmentID{Origin: 1, Seq: 1}
	blocks := make([][]byte, 32)
	for i := range blocks {
		blocks[i] = make([]byte, 1024)
		rng.FillCoefficients(blocks[i])
	}
	seg, err := NewSegment(id, blocks)
	if err != nil {
		b.Fatal(err)
	}
	src := seg.SourceBlocks()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Recode(src, rng)
	}
}

func BenchmarkDecoderAdd32(b *testing.B) {
	rng := randx.New(15)
	id := SegmentID{Origin: 1, Seq: 1}
	blocks := make([][]byte, 32)
	for i := range blocks {
		blocks[i] = make([]byte, 1024)
		rng.FillCoefficients(blocks[i])
	}
	seg, err := NewSegment(id, blocks)
	if err != nil {
		b.Fatal(err)
	}
	coded := make([]*CodedBlock, 64)
	for i := range coded {
		coded[i] = seg.Encode(rng)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dec := NewDecoder(id, 32, 1024)
		for _, cb := range coded {
			if _, err := dec.Add(cb); err != nil {
				b.Fatal(err)
			}
			if dec.Complete() {
				break
			}
		}
	}
}

// TestRecodeAllocations pins what one recoded block costs: the block with
// its coefficient vector, and the payload. Above InlineCoeffs the vector is
// a third object.
func TestRecodeAllocations(t *testing.T) {
	if raceon.Enabled {
		t.Skip("allocation budgets describe the uninstrumented build")
	}
	for _, tc := range []struct{ s, want int }{{8, 2}, {32, 2}, {33, 3}} {
		rng := randx.New(int64(tc.s))
		src := makeSegment(t, rng, SegmentID{Origin: 1, Seq: 1}, tc.s, 1024).SourceBlocks()
		if n := testing.AllocsPerRun(100, func() { Recode(src, rng) }); n != float64(tc.want) {
			t.Errorf("Recode at s=%d: %v allocations, want %d", tc.s, n, tc.want)
		}
		cb := Recode(src, rng)
		if len(cb.Coeffs) != tc.s || cap(cb.Coeffs) != tc.s || cap(cb.Payload) != 1024 {
			t.Errorf("Recode at s=%d: coefficients %d/%d, payload cap %d", tc.s, len(cb.Coeffs), cap(cb.Coeffs), cap(cb.Payload))
		}
	}
}

// TestDecoderRedundantAddNoAlloc pins that a redundant block costs the
// decoder nothing: it is reduced in the free slot, which stays free.
func TestDecoderRedundantAddNoAlloc(t *testing.T) {
	const size, payloadLen = 8, 64
	seg := testSegment(t, 22, size, payloadLen)
	rng := randx.New(5)
	d := NewDecoder(seg.ID, size, payloadLen)
	src := seg.SourceBlocks()
	// Bring the decoder one short of full so reductions still run the whole
	// basis (a complete decoder short-circuits before reducing anything).
	var absorbed []*CodedBlock
	for d.Rank() < size-1 {
		cb := Recode(src, rng)
		ok, err := d.Add(cb)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			absorbed = append(absorbed, cb)
		}
	}
	// A combination of already-absorbed blocks is redundant by construction.
	redundant := Recode(absorbed[:2], rng)
	allocs := testing.AllocsPerRun(50, func() {
		ok, err := d.Add(redundant)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			t.Fatal("redundant block reported innovative")
		}
	})
	if allocs != 0 {
		t.Fatalf("redundant Add allocates %v times per run, want 0", allocs)
	}
}

// TestDecodedBlocksStayUnchanged pins the aliasing contract of Decode: the
// blocks are views of basis rows, so nothing may write those rows again —
// not further Adds on the complete decoder, not a second decoder filled
// from the same blocks, and not the released decoder refilled with another
// payload under the same segment ID.
func TestDecodedBlocksStayUnchanged(t *testing.T) {
	const size, payloadLen = 8, 64
	rng := randx.New(31)
	id := SegmentID{Origin: 1, Seq: 1}
	segA := makeSegment(t, rng, id, size, payloadLen)
	segB := makeSegment(t, rng, id, size, payloadLen)
	fill := func(d *Decoder, seg *Segment) []*CodedBlock {
		var coded []*CodedBlock
		for !d.Complete() {
			cb := seg.Encode(rng)
			if _, err := d.Add(cb); err != nil {
				t.Fatal(err)
			}
			coded = append(coded, cb)
		}
		return coded
	}
	decode := func(d *Decoder, seg *Segment, event string) [][]byte {
		out, err := d.Decode()
		if err != nil {
			t.Fatal(err)
		}
		for i := range out {
			if !bytes.Equal(out[i], seg.Blocks[i]) {
				t.Fatalf("%s: decoded block %d differs from the original", event, i)
			}
		}
		return out
	}

	d := NewDecoder(id, size, payloadLen)
	coded := fill(d, segA)
	out := decode(d, segA, "first decode")
	want := make([][]byte, size)
	for i := range out {
		want[i] = bytes.Clone(out[i])
	}
	check := func(event string) {
		t.Helper()
		for i := range out {
			if !bytes.Equal(out[i], want[i]) {
				t.Fatalf("after %s: decoded block %d changed", event, i)
			}
		}
	}

	for i := 0; i < 4; i++ {
		if _, err := d.Add(segB.Encode(rng)); err != nil {
			t.Fatal(err)
		}
	}
	check("further Adds on the complete decoder")

	d2 := NewDecoder(id, size, payloadLen)
	for _, cb := range coded {
		if _, err := d2.Add(cb); err != nil {
			t.Fatal(err)
		}
	}
	decode(d2, segA, "second decoder")
	check("a second decoder filled from the same blocks")

	d.Release()
	fill(d, segB)
	decode(d, segB, "refilled decoder")
	check("Release and a refill with another payload")
}

// TestDecodeSegmentAllocations pins what one whole s=32, 1 KiB segment
// costs a server: NewDecoder (decoder and echelon), 32 innovative Adds and
// Decode. The rows arrive in six doubling chunks, each with one growth of
// the slot list; Decode adds only its slice of views.
func TestDecodeSegmentAllocations(t *testing.T) {
	if raceon.Enabled {
		t.Skip("allocation budgets describe the uninstrumented build")
	}
	const size, payloadLen, budget = 32, 1024, 2 + 6 + 6 + 1
	seg := testSegment(t, 33, size, payloadLen)
	rng := randx.New(33)
	// Keep only blocks innovative over their predecessors, so every Add of a
	// run promotes.
	probe := NewDecoder(seg.ID, size, payloadLen)
	var coded []*CodedBlock
	for !probe.Complete() {
		cb := seg.Encode(rng)
		if ok, err := probe.Add(cb); err != nil {
			t.Fatal(err)
		} else if ok {
			coded = append(coded, cb)
		}
	}
	n := testing.AllocsPerRun(20, func() {
		d := NewDecoder(seg.ID, size, payloadLen)
		for _, cb := range coded {
			if ok, err := d.Add(cb); !ok || err != nil {
				t.Fatalf("Add: innovative %v, err %v", ok, err)
			}
		}
		if _, err := d.Decode(); err != nil {
			t.Fatal(err)
		}
	})
	if n > budget {
		t.Errorf("a whole s=%d segment costs %v allocations, budget %d", size, n, budget)
	}
}

// fullHolding returns a holding of s independent coded blocks.
func fullHolding(t testing.TB, s int) *Holding {
	t.Helper()
	seg := testSegment(t, 34, s, 0)
	rng := randx.New(34)
	h := NewHolding(seg.ID, s)
	for !h.Full() {
		h.Add(seg.Encode(rng))
	}
	return h
}

// TestHoldingRemoveNoAlloc pins the TTL rebuild at steady state: Remove
// resets the echelon and re-inserts the survivors into the slots they
// already own, and re-adding the removed block fills the one left free.
func TestHoldingRemoveNoAlloc(t *testing.T) {
	h := fullHolding(t, 32)
	allocs := testing.AllocsPerRun(50, func() {
		cb := h.Blocks()[0]
		h.Remove(0)
		if h.Rank() != 31 || !h.Add(cb) {
			t.Fatal("removed block not innovative over the survivors")
		}
	})
	if allocs != 0 {
		t.Fatalf("Remove and re-add allocate %v times per run, want 0", allocs)
	}
}

func BenchmarkHoldingRemove32(b *testing.B) {
	h := fullHolding(b, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cb := h.Blocks()[0]
		h.Remove(0)
		h.Add(cb)
	}
}

// TestRecodeIntoMatchesRecode checks the in-place variant draws the same
// coefficients and produces the same block as Recode under an identical RNG
// stream.
func TestRecodeIntoMatchesRecode(t *testing.T) {
	const size, payloadLen = 8, 40
	seg := testSegment(t, 25, size, payloadLen)
	src := seg.SourceBlocks()

	want := Recode(src, randx.New(42))

	out := &CodedBlock{Coeffs: make([]byte, size), Payload: make([]byte, payloadLen)}
	// Dirty the buffers to prove RecodeInto zeroes them.
	for i := range out.Coeffs {
		out.Coeffs[i] = 0xEE
	}
	for i := range out.Payload {
		out.Payload[i] = 0xEE
	}
	RecodeInto(out, src, randx.New(42))
	if out.Seg != want.Seg || !bytes.Equal(out.Coeffs, want.Coeffs) || !bytes.Equal(out.Payload, want.Payload) {
		t.Fatal("RecodeInto diverges from Recode under the same RNG stream")
	}
}

// FuzzDecoderRoundTrip builds a segment from fuzz-chosen shape and data,
// streams random recodings into a decoder, and checks that it reproduces
// the originals.
func FuzzDecoderRoundTrip(f *testing.F) {
	f.Add(uint8(1), uint8(1), int64(1))
	f.Add(uint8(4), uint8(16), int64(7))
	f.Add(uint8(16), uint8(64), int64(999))
	f.Add(uint8(3), uint8(5), int64(-12345))
	f.Fuzz(func(t *testing.T, sizeIn, payloadIn uint8, seed int64) {
		size := 1 + int(sizeIn)%16
		payloadLen := 1 + int(payloadIn)%64
		rng := rand.New(rand.NewSource(seed))
		blocks := make([][]byte, size)
		for i := range blocks {
			blocks[i] = make([]byte, payloadLen)
			rng.Read(blocks[i])
		}
		crng := randx.New(seed)
		dec := NewDecoder(SegmentID{Origin: 3, Seq: 1}, size, payloadLen)
		// decode streams recodings of originals into dec and checks that it
		// reproduces them.
		decode := func(originals [][]byte) [][]byte {
			seg, err := NewSegment(dec.SegmentID(), originals)
			if err != nil {
				t.Fatal(err)
			}
			src := seg.SourceBlocks()
			// 8·size recodings is overwhelmingly enough to reach full rank;
			// bail out if the RNG stream is degenerate rather than loop forever.
			for i := 0; i < 8*size && !dec.Complete(); i++ {
				if _, err := dec.Add(Recode(src, crng)); err != nil {
					t.Fatal(err)
				}
			}
			if !dec.Complete() {
				t.Skip("degenerate RNG stream did not reach full rank")
			}
			out, err := dec.Decode()
			if err != nil {
				t.Fatal(err)
			}
			for i := range out {
				if !bytes.Equal(out[i], originals[i]) {
					t.Fatalf("decode diverges from original at block %d", i)
				}
			}
			return out
		}
		out := decode(blocks)

		// Refill the released decoder with the complement of every original
		// under the same ID; the blocks decoded first must not move.
		again := make([][]byte, size)
		for i := range again {
			again[i] = make([]byte, payloadLen)
			for j, c := range blocks[i] {
				again[i][j] = ^c
			}
		}
		dec.Release()
		decode(again)
		for i := range out {
			if !bytes.Equal(out[i], blocks[i]) {
				t.Fatalf("refill after Release changed earlier decoded block %d", i)
			}
		}
	})
}

// recodeInto32 is one recode of an s=32, 1 KiB segment into a reused block.
func recodeInto32(tb testing.TB) func() {
	seg := testSegment(tb, 26, 32, 1024)
	src := seg.SourceBlocks()
	rng := randx.New(1)
	out := &CodedBlock{Coeffs: make([]byte, 32), Payload: make([]byte, 1024)}
	return func() { RecodeInto(out, src, rng) }
}

func TestRecodeIntoAllocatesNothing(t *testing.T) {
	if n := testing.AllocsPerRun(100, recodeInto32(t)); n != 0 {
		t.Errorf("RecodeInto at s=32: %v allocations, want 0", n)
	}
}

func BenchmarkRecodeInto32(b *testing.B) {
	recode := recodeInto32(b)
	b.SetBytes(32 * 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		recode()
	}
}
