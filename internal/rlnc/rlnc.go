// Package rlnc implements segment-based random linear network coding over
// GF(2^8) as described in §2 of the paper: original statistics blocks are
// grouped into segments of s blocks; any holder of l ≤ s coded blocks of a
// segment can re-encode them into a fresh coded block by drawing l random
// coefficients; a collector reconstructs the segment once it holds s
// linearly independent coded blocks.
//
// Coded blocks carry the coefficients that express them in terms of the
// *original* blocks (the "header" of the paper), so re-encoding composes by
// plain linear combination of headers.
package rlnc

import (
	"errors"
	"fmt"

	"p2pcollect/internal/gf256"
	"p2pcollect/internal/gfmat"
	"p2pcollect/internal/randx"
)

// Common errors returned by the decoder.
var (
	ErrSegmentMismatch = errors.New("rlnc: coded block belongs to a different segment")
	ErrShapeMismatch   = errors.New("rlnc: coded block shape does not match decoder")
	ErrIncomplete      = errors.New("rlnc: segment not yet decodable")
	ErrNoPayload       = errors.New("rlnc: decoder is tracking ranks only, no payloads")
)

// SegmentID identifies a segment network-wide: the originating node and a
// per-origin sequence number.
type SegmentID struct {
	Origin uint64
	Seq    uint64
}

// String renders the ID as origin/seq.
func (id SegmentID) String() string { return fmt.Sprintf("%d/%d", id.Origin, id.Seq) }

// CodedBlock is one coded block of a segment: a linear combination of the
// segment's original blocks. Coeffs always has the segment size as length.
// Payload may be nil when only linear-algebraic structure is simulated.
type CodedBlock struct {
	Seg     SegmentID
	Coeffs  []byte
	Payload []byte
}

// SegmentSize returns the segment size s the block was coded under.
func (b *CodedBlock) SegmentSize() int { return len(b.Coeffs) }

// Clone returns a deep copy of the block.
func (b *CodedBlock) Clone() *CodedBlock {
	c := &CodedBlock{Seg: b.Seg, Coeffs: append([]byte(nil), b.Coeffs...)}
	if b.Payload != nil {
		c.Payload = append([]byte(nil), b.Payload...)
	}
	return c
}

// Segment is a source segment: s original blocks of equal size produced at
// one peer.
type Segment struct {
	ID     SegmentID
	Blocks [][]byte
}

// NewSegment validates that all blocks have equal length and returns the
// segment.
func NewSegment(id SegmentID, blocks [][]byte) (*Segment, error) {
	if len(blocks) == 0 {
		return nil, errors.New("rlnc: empty segment")
	}
	size := len(blocks[0])
	for i, b := range blocks {
		if len(b) != size {
			return nil, fmt.Errorf("rlnc: block %d has length %d, want %d", i, len(b), size)
		}
	}
	return &Segment{ID: id, Blocks: blocks}, nil
}

// Size returns the segment size s.
func (s *Segment) Size() int { return len(s.Blocks) }

// SourceBlock returns the i-th original block wrapped as a coded block with
// a unit coefficient vector.
func (s *Segment) SourceBlock(i int) *CodedBlock {
	coeffs := make([]byte, len(s.Blocks))
	coeffs[i] = 1
	return &CodedBlock{
		Seg:     s.ID,
		Coeffs:  coeffs,
		Payload: append([]byte(nil), s.Blocks[i]...),
	}
}

// SourceBlocks returns all original blocks as coded blocks (an identity
// generation).
func (s *Segment) SourceBlocks() []*CodedBlock {
	out := make([]*CodedBlock, s.Size())
	for i := range out {
		out[i] = s.SourceBlock(i)
	}
	return out
}

// Encode draws s random coefficients and returns a random linear combination
// of the segment's original blocks, as a source with the full generation
// would transmit.
func (s *Segment) Encode(rng *randx.Rand) *CodedBlock {
	return Recode(s.SourceBlocks(), rng)
}

// InlineCoeffs is the widest coefficient vector that shares its block's
// allocation (here, and in transport.NewBlockMessage). Every segment size
// the experiments and the live runtime use fits; a wider vector gets its
// own.
const InlineCoeffs = 32

// NewBlock returns a block of seg with a zeroed coefficient vector of the
// given width and no payload. Up to InlineCoeffs the vector and the block
// are one heap object, so a block costs one allocation plus its payload's.
// The payload stays separate on purpose: holders buffer blocks, and a fused
// coefficients+payload buffer spills a 1 KiB payload into the next size
// class.
func NewBlock(seg SegmentID, width int) *CodedBlock {
	if width > InlineCoeffs {
		return &CodedBlock{Seg: seg, Coeffs: make([]byte, width)}
	}
	b := &struct {
		CodedBlock
		coeffs [InlineCoeffs]byte
	}{}
	b.Seg = seg
	b.Coeffs = b.coeffs[:width:width]
	return &b.CodedBlock
}

// Recode produces one fresh coded block from l ≥ 1 buffered coded blocks of
// the same segment, drawing one random coefficient per buffered block
// exactly as in the paper's gossip step. At least one coefficient is forced
// non-zero so the output is never the zero vector. All inputs must share the
// segment ID, coefficient width, and payload presence; violations panic as
// programming errors.
func Recode(blocks []*CodedBlock, rng *randx.Rand) *CodedBlock {
	if len(blocks) == 0 {
		panic("rlnc: Recode with no blocks")
	}
	first := blocks[0]
	out := NewBlock(first.Seg, len(first.Coeffs))
	if first.Payload != nil {
		out.Payload = make([]byte, len(first.Payload))
	}
	RecodeInto(out, blocks, rng)
	return out
}

// RecodeInto recodes into a caller-provided block, allocating nothing. out
// must carry Coeffs of the input width and, when the inputs have payloads,
// a Payload of the input payload length (both are zeroed here); its Seg is
// overwritten. It is Recode's kernel, for a caller that already owns an
// output block.
func RecodeInto(out *CodedBlock, blocks []*CodedBlock, rng *randx.Rand) {
	if len(blocks) == 0 {
		panic("rlnc: Recode with no blocks")
	}
	first := blocks[0]
	width := len(first.Coeffs)
	hasPayload := first.Payload != nil
	if len(out.Coeffs) != width || (out.Payload != nil) != hasPayload ||
		(hasPayload && len(out.Payload) != len(first.Payload)) {
		panic("rlnc: RecodeInto output shape mismatch")
	}
	for _, b := range blocks {
		if b.Seg != first.Seg || len(b.Coeffs) != width || len(b.Payload) != len(first.Payload) ||
			(b.Payload != nil) != hasPayload {
			panic("rlnc: Recode over mismatched blocks")
		}
	}
	out.Seg = first.Seg
	clear(out.Coeffs)
	clear(out.Payload)
	recodeRows(out, len(blocks), rng, func(i int) ([]byte, []byte) {
		return blocks[i].Coeffs, blocks[i].Payload
	})
}

// fuseBatch bounds the rows one fused multiply-accumulate takes, so the
// coefficient and row lists live on the stack. A wider combination flushes
// in batches, which XOR-sums to the same bytes.
const fuseBatch = 32

// recodeRows adds a fresh combine draw over n rows into out's zeroed
// Coeffs and, when it has one, Payload: one gf256.AddMulSlices per output
// part and batch, so each output byte is read and written once per batch
// rather than once per row. row returns row i's coefficients and payload.
func recodeRows(out *CodedBlock, n int, rng *randx.Rand, row func(i int) (coeffs, payload []byte)) {
	var ks [fuseBatch]byte
	var cs, ps [fuseBatch][]byte
	m := 0
	flush := func() {
		gf256.AddMulSlices(out.Coeffs, ks[:m], cs[:m])
		if out.Payload != nil {
			gf256.AddMulSlices(out.Payload, ks[:m], ps[:m])
		}
		m = 0
	}
	combine(n, rng, func(i int, c byte) {
		if m == fuseBatch {
			flush()
		}
		ks[m] = c
		cs[m], ps[m] = row(i)
		m++
	})
	flush()
}

// combine is the paper's gossip draw: one random coefficient per buffered
// row, with one uniformly chosen row forced non-zero so the combination is
// never the zero vector. Each non-zero (row, coefficient) pair goes to add.
// Every recode in the repository draws through here, so seeded runs see one
// RNG order no matter which holder produced a block.
func combine(n int, rng *randx.Rand, add func(i int, c byte)) {
	anchor := rng.Intn(n)
	for i := 0; i < n; i++ {
		var c byte
		if i == anchor {
			c = rng.Coefficient()
		} else {
			c = byte(rng.Intn(256))
		}
		if c != 0 {
			add(i, c)
		}
	}
}

// Decoder progressively reconstructs one segment from coded blocks. Its
// linear algebra is one gfmat.Echelon over rows [coefficients | payload],
// so decoding cost is spread over insertions and the originals drop out of
// the carried columns as soon as rank s is reached. Created with
// payloadLen == 0 it carries nothing and tracks linear independence only:
// Add still reports innovation but Decode returns ErrNoPayload.
type Decoder struct {
	seg        SegmentID
	size       int
	payloadLen int
	ech        *gfmat.Echelon
}

// NewDecoder returns a decoder for the given segment with segment size s.
func NewDecoder(seg SegmentID, size, payloadLen int) *Decoder {
	if size <= 0 {
		panic("rlnc: segment size must be positive")
	}
	if payloadLen < 0 {
		panic("rlnc: negative payload length")
	}
	return &Decoder{seg: seg, size: size, payloadLen: payloadLen,
		ech: gfmat.NewAugmented(size, payloadLen)}
}

// SegmentID returns the segment the decoder reconstructs.
func (d *Decoder) SegmentID() SegmentID { return d.seg }

// Rank returns the number of linearly independent blocks received.
func (d *Decoder) Rank() int { return d.ech.Rank() }

// Size returns s, the number of independent blocks needed to decode.
func (d *Decoder) Size() int { return d.size }

// Complete reports whether the segment is decodable.
func (d *Decoder) Complete() bool { return d.ech.Full() }

// Add offers a coded block to the decoder. It returns true when the block
// was innovative (increased the rank). Blocks for other segments or with the
// wrong shape are rejected with an error.
func (d *Decoder) Add(b *CodedBlock) (bool, error) {
	if b.Seg != d.seg {
		return false, ErrSegmentMismatch
	}
	if len(b.Coeffs) != d.size {
		return false, fmt.Errorf("%w: coeff width %d, want %d", ErrShapeMismatch, len(b.Coeffs), d.size)
	}
	if d.payloadLen > 0 && len(b.Payload) != d.payloadLen {
		return false, fmt.Errorf("%w: payload length %d, want %d", ErrShapeMismatch, len(b.Payload), d.payloadLen)
	}
	if d.Complete() {
		return false, nil
	}
	return d.ech.InsertRow(b.Coeffs, b.Payload[:d.payloadLen]), nil
}

// basisRow returns the i-th reduced echelon row, split into coefficients
// and payload. The slices alias decoder storage.
func (d *Decoder) basisRow(i int) (coeffs, payload []byte) {
	row := d.ech.Row(i)
	return row[:d.size], row[d.size:]
}

// Recode returns one fresh random linear combination of the decoder's
// received space — the server-side analogue of a peer recoding its holding,
// used for shard-to-shard exchange of partial collection state. The
// combination spans the rank-r subspace the decoder has accumulated, so a
// receiver missing any of those dimensions almost surely gains rank from
// it. One coefficient is forced non-zero exactly as in RecodeInto, so the
// output is never the zero vector. Returns nil for a rank-0 decoder (there
// is nothing to combine) and for rank-only decoders (no payload to carry).
func (d *Decoder) Recode(rng *randx.Rand) *CodedBlock {
	if d.Rank() == 0 || d.payloadLen == 0 {
		return nil
	}
	out := NewBlock(d.seg, d.size)
	out.Payload = make([]byte, d.payloadLen)
	recodeRows(out, d.Rank(), rng, d.basisRow)
	return out
}

// RangeBasis visits Rank() coded-block rows spanning exactly the decoder's
// received space, in a stable order — the durable store snapshots these.
// Re-adding every visited row (as coeffs/payload of a CodedBlock) to a
// fresh decoder of the same shape reproduces the same rank, the same
// innovation verdict for any future block, and byte-identical decoded
// originals at full rank. The rows are the reduced basis in pivot order;
// payload is nil for rank-only decoders. The visited slices alias decoder
// storage — copy before retaining.
func (d *Decoder) RangeBasis(f func(coeffs, payload []byte)) {
	for i := 0; i < d.Rank(); i++ {
		coeffs, payload := d.basisRow(i)
		if d.payloadLen == 0 {
			payload = nil
		}
		f(coeffs, payload)
	}
}

// Release empties the decoder and lets go of its row storage instead of
// reusing it, so blocks a Decode returned stay valid and unchanged.
func (d *Decoder) Release() { d.ech = gfmat.NewAugmented(d.size, d.payloadLen) }

// Decode returns the s original blocks in order. It fails with
// ErrIncomplete until rank s is reached, and with ErrNoPayload when the
// decoder tracks ranks only. Nothing is copied: each block is a view of a
// basis row, and callers must not modify it. A complete decoder writes no
// row again and Release drops the rows rather than reusing them, so the
// blocks stay valid and unchanged for good; one retained block keeps its
// storage chunk (up to half the segment's rows) alive.
func (d *Decoder) Decode() ([][]byte, error) {
	if !d.Complete() {
		return nil, ErrIncomplete
	}
	if d.payloadLen == 0 {
		return nil, ErrNoPayload
	}
	// At full rank the pivot columns are the identity, so row i carries
	// original i.
	out := make([][]byte, d.size)
	for i := range out {
		row := d.ech.Row(i)
		out[i] = row[d.size:len(row):len(row)]
	}
	return out, nil
}
