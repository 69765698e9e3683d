package peercore

import (
	"errors"
	"fmt"

	"p2pcollect/internal/obs"
	"p2pcollect/internal/randx"
	"p2pcollect/internal/rlnc"
)

// PullOutcome reports how a received block advanced a collection.
type PullOutcome struct {
	// Innovative: the block increased the decoder's rank.
	Innovative bool
	// Decoded: this pull brought the decoder to full rank s.
	Decoded bool
}

// Collection is one segment's server-side state: a rank decoder, the
// payload size it expects, and what a collection service keeps for the
// segment while it collects (see Adopt). A segment is delivered when it
// decodes; the paper's collection-state counter is a model observer the
// simulator keeps beside it. Not safe for concurrent use; drivers
// serialize access.
type Collection struct {
	dec        *rlnc.Decoder
	payloadLen int
	// firstAt is the driver time of the first block Adopt saw, once seen.
	firstAt float64
	seen    bool
	tctx    obs.TraceContext
}

// NewCollection opens an empty collection for a segment of size s.
// payloadLen fixes the expected payload size; 0 tracks rank only and
// ignores payloads.
func NewCollection(seg rlnc.SegmentID, s, payloadLen int) *Collection {
	return &Collection{dec: rlnc.NewDecoder(seg, s, payloadLen), payloadLen: payloadLen}
}

// RestoreCollection rebuilds a collection from snapshotted state: basis
// holds linearly independent coded blocks of the segment (what RangeBasis
// visited), and payloadLen the expected payload size (it matters when
// basis is empty). The decoder re-adds the basis and refuses a dependent
// row, so rank, future innovation verdicts, and decoded bytes match the
// pre-snapshot collection exactly and the rank never exceeds s. No
// protocol events fire: a restored collection at full rank reads as
// Decoded but never re-fires the transition it fired before the snapshot.
func RestoreCollection(seg rlnc.SegmentID, s, payloadLen int, basis []*rlnc.CodedBlock) (*Collection, error) {
	if payloadLen < 0 {
		return nil, fmt.Errorf("peercore: restore %v: negative payload length", seg)
	}
	col := NewCollection(seg, s, payloadLen)
	for i, cb := range basis {
		added, err := col.dec.Add(cb)
		if err == nil && !added {
			err = errors.New("dependent basis row")
		}
		if err != nil {
			col.Release()
			return nil, fmt.Errorf("peercore: restore %v: basis row %d: %w", seg, i, err)
		}
	}
	return col, nil
}

// Receive runs one pulled block through the rank decoder. A block whose
// payload is not the expected size is rejected before any counter moves;
// otherwise sink counts the pull, its innovation and the decode it
// completes.
func (c *Collection) Receive(cb *rlnc.CodedBlock, sink EventSink) (PullOutcome, error) {
	if c.payloadLen > 0 && len(cb.Payload) != c.payloadLen {
		return PullOutcome{}, fmt.Errorf("peercore: block payload %dB, collection expects %dB", len(cb.Payload), c.payloadLen)
	}
	var out PullOutcome
	sink.Count(EvServerPull, 1)
	if added, err := c.dec.Add(cb); err != nil {
		return out, err
	} else if added {
		out.Innovative = true
		sink.Count(EvInnovativePull, 1)
		if c.dec.Complete() {
			out.Decoded = true
			sink.Count(EvDecodedSegment, 1)
		}
	}
	return out, nil
}

// Adopt records a block the collection accepted: the first call fixes
// the driver time collection began, and the first valid context the
// segment's lineage. It returns the lineage, zero while untraced. A
// restored collection begins again at its first block after the restart.
func (c *Collection) Adopt(now float64, ctx obs.TraceContext) obs.TraceContext {
	if !c.seen {
		c.firstAt, c.seen = now, true
	}
	if !c.tctx.Valid() && ctx.Valid() {
		c.tctx = ctx
	}
	return c.tctx
}

// FirstSeen returns the driver time of the first block Adopt recorded.
func (c *Collection) FirstSeen() float64 { return c.firstAt }

// PayloadLen returns the payload size the collection expects (0 for
// rank-only collections).
func (c *Collection) PayloadLen() int { return c.payloadLen }

// Rank returns the decoder rank.
func (c *Collection) Rank() int { return c.dec.Rank() }

// RankDeficit returns how many more innovative blocks the decoder needs for
// full rank — the ground-truth remaining work a decoding server schedules
// against.
func (c *Collection) RankDeficit() int { return c.dec.Size() - c.dec.Rank() }

// Decoded reports whether the decoder has full rank.
func (c *Collection) Decoded() bool { return c.dec.Complete() }

// Decode reconstructs the source blocks; valid only once Decoded. The
// blocks alias decoder memory (see rlnc.Decoder.Decode): callers must not
// modify them, and one retained block keeps its storage chunk alive.
func (c *Collection) Decode() ([][]byte, error) { return c.dec.Decode() }

// Recode returns one fresh random linear combination of the collection's
// received space (nil while the collection holds nothing, or for rank-only
// collections). Shard fleets exchange these so blocks that landed at the
// wrong shard still reach the segment's owner.
func (c *Collection) Recode(rng *randx.Rand) *rlnc.CodedBlock { return c.dec.Recode(rng) }

// RangeBasis visits coded-block rows spanning the collection's received
// space (see rlnc.Decoder.RangeBasis). Durable stores snapshot a
// collection as these rows; RestoreCollection rebuilds it from them.
func (c *Collection) RangeBasis(f func(coeffs, payload []byte)) { c.dec.RangeBasis(f) }

// Release empties the collection's decoder and drops its storage rather
// than reusing it, so blocks a Decode returned stay valid and unchanged.
func (c *Collection) Release() { c.dec.Release() }
