package rlnc

import (
	"bytes"
	"math/rand"
	"testing"

	"p2pcollect/internal/randx"
	"p2pcollect/internal/slab"
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

// TestDeferredMatchesEager drives an eager and a deferred decoder with the
// same coded-block stream and checks that every innovation verdict, the
// rank trajectory, and the decoded originals agree byte for byte.
func TestDeferredMatchesEager(t *testing.T) {
	const size, payloadLen = 12, 96
	seg := testSegment(t, 21, size, payloadLen)
	rng := randx.New(99)

	eager := NewDecoder(seg.ID, size, payloadLen)
	deferred := NewDeferredDecoder(seg.ID, size, payloadLen)
	defer deferred.Release()

	src := seg.SourceBlocks()
	for i := 0; !eager.Complete(); i++ {
		cb := Recode(src, rng)
		okE, errE := eager.Add(cb)
		okD, errD := deferred.Add(cb)
		if errE != nil || errD != nil {
			t.Fatalf("add %d: eager err=%v deferred err=%v", i, errE, errD)
		}
		if okE != okD {
			t.Fatalf("add %d: innovation verdicts diverge (eager=%v deferred=%v)", i, okE, okD)
		}
		if eager.Rank() != deferred.Rank() {
			t.Fatalf("add %d: rank eager=%d deferred=%d", i, eager.Rank(), deferred.Rank())
		}
	}
	if !deferred.Complete() {
		t.Fatal("deferred decoder not complete when eager is")
	}

	outE, err := eager.Decode()
	if err != nil {
		t.Fatal(err)
	}
	outD, err := deferred.Decode()
	if err != nil {
		t.Fatal(err)
	}
	for i := range outE {
		if !bytes.Equal(outE[i], outD[i]) {
			t.Fatalf("block %d: deferred decode diverges from eager", i)
		}
		if !bytes.Equal(outE[i], seg.Blocks[i]) {
			t.Fatalf("block %d: decode does not reproduce the original", i)
		}
	}
}

// TestDecoderRedundantAddNoAlloc pins the scratch-row contract on the
// decoder: once complete (or when a block is redundant), Add must not
// allocate.
func TestDecoderRedundantAddNoAlloc(t *testing.T) {
	const size, payloadLen = 8, 64
	seg := testSegment(t, 22, size, payloadLen)
	rng := randx.New(5)
	d := NewDecoder(seg.ID, size, payloadLen)
	src := seg.SourceBlocks()
	// Bring the decoder one short of full so reductions still run the whole
	// basis (a complete decoder short-circuits before touching scratch).
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

// TestDecoderReleasePoison verifies that Release actually returns a pooled
// decoder's rows to the slab — released rows get poisoned — and that the
// decoded output survives Release (it must be freshly allocated, never
// aliased to pooled storage).
func TestDecoderReleasePoison(t *testing.T) {
	const size, payloadLen = 6, 48
	seg := testSegment(t, 23, size, payloadLen)
	rng := randx.New(7)
	d := NewDeferredDecoder(seg.ID, size, payloadLen)
	src := seg.SourceBlocks()
	for !d.Complete() {
		if _, err := d.Add(Recode(src, rng)); err != nil {
			t.Fatal(err)
		}
	}
	out, err := d.Decode()
	if err != nil {
		t.Fatal(err)
	}
	row := d.rawPayloads[0]

	slab.SetPoison(true)
	defer slab.SetPoison(false)
	d.Release()

	poisoned := true
	for _, b := range row {
		if b != slab.PoisonByte {
			poisoned = false
		}
	}
	if !poisoned {
		t.Fatal("Release did not hand raw rows back to the slab")
	}
	for i := range out {
		if !bytes.Equal(out[i], seg.Blocks[i]) {
			t.Fatalf("decoded block %d corrupted by Release — output aliases pooled storage", i)
		}
	}
}

// TestRecodeIntoMatchesRecode checks the in-place variant draws the same
// coefficients and produces the same block as Recode under an identical RNG
// stream, and that RecodePooled agrees too.
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

	pooled := RecodePooled(src, randx.New(42))
	if !bytes.Equal(pooled.Coeffs, want.Coeffs) || !bytes.Equal(pooled.Payload, want.Payload) {
		t.Fatal("RecodePooled diverges from Recode under the same RNG stream")
	}
	ReleaseBlock(pooled)
	if pooled.Coeffs != nil || pooled.Payload != nil {
		t.Fatal("ReleaseBlock did not clear the block")
	}
}

// FuzzDecoderRoundTrip builds a segment from fuzz-chosen shape and data,
// streams random recodings into both decoder flavours, and checks the
// round trip: decoders agree with each other and reproduce the originals.
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
		seg, err := NewSegment(SegmentID{Origin: 3, Seq: 1}, blocks)
		if err != nil {
			t.Fatal(err)
		}
		src := seg.SourceBlocks()
		crng := randx.New(seed)

		eager := NewDecoder(seg.ID, size, payloadLen)
		deferred := NewDeferredDecoder(seg.ID, size, payloadLen)
		defer deferred.Release()

		// 8·size recodings is overwhelmingly enough to reach full rank; bail
		// out if the RNG stream is degenerate rather than loop forever.
		for i := 0; i < 8*size && !eager.Complete(); i++ {
			cb := Recode(src, crng)
			okE, errE := eager.Add(cb)
			okD, errD := deferred.Add(cb)
			if errE != nil || errD != nil {
				t.Fatalf("add: eager=%v deferred=%v", errE, errD)
			}
			if okE != okD {
				t.Fatal("innovation verdicts diverge")
			}
		}
		if !eager.Complete() {
			t.Skip("degenerate RNG stream did not reach full rank")
		}
		outE, err := eager.Decode()
		if err != nil {
			t.Fatal(err)
		}
		outD, err := deferred.Decode()
		if err != nil {
			t.Fatal(err)
		}
		for i := range outE {
			if !bytes.Equal(outE[i], seg.Blocks[i]) {
				t.Fatalf("eager decode diverges from original at block %d", i)
			}
			if !bytes.Equal(outD[i], seg.Blocks[i]) {
				t.Fatalf("deferred decode diverges from original at block %d", i)
			}
		}
	})
}

func BenchmarkRecodeInto32(b *testing.B) {
	seg := testSegment(b, 26, 32, 1024)
	src := seg.SourceBlocks()
	rng := randx.New(1)
	out := &CodedBlock{Coeffs: make([]byte, 32), Payload: make([]byte, 1024)}
	b.SetBytes(32 * 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RecodeInto(out, src, rng)
	}
}

func BenchmarkDeferredAdd32(b *testing.B) {
	const size, payloadLen = 32, 1024
	seg := testSegment(b, 27, size, payloadLen)
	src := seg.SourceBlocks()
	rng := randx.New(2)
	blocks := make([]*CodedBlock, size)
	for i := range blocks {
		blocks[i] = Recode(src, rng)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := NewDeferredDecoder(seg.ID, size, payloadLen)
		for _, cb := range blocks {
			if _, err := d.Add(cb); err != nil {
				b.Fatal(err)
			}
		}
		d.Release()
	}
}

func BenchmarkDeferredDecode32(b *testing.B) {
	const size, payloadLen = 32, 1024
	seg := testSegment(b, 28, size, payloadLen)
	src := seg.SourceBlocks()
	rng := randx.New(3)
	d := NewDeferredDecoder(seg.ID, size, payloadLen)
	for !d.Complete() {
		if _, err := d.Add(Recode(src, rng)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Decode(); err != nil {
			b.Fatal(err)
		}
	}
}
