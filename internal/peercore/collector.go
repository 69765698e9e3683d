package peercore

import (
	"errors"
	"fmt"

	"p2pcollect/internal/randx"
	"p2pcollect/internal/rlnc"
)

// CollectorConfig parameterizes a server collection state machine.
type CollectorConfig struct {
	// SegmentSize is s, the coding generation size.
	SegmentSize int
	// RankOnly opens every collection with a rank-tracking decoder that
	// ignores payloads. The simulator's pooled ground-truth observer (the
	// IndependentServers rank decoder) runs in this mode.
	RankOnly bool
}

// PullOutcome reports how a received block advanced a collection.
type PullOutcome struct {
	// Innovative: the block increased the decoder's rank.
	Innovative bool
	// Decoded: this pull brought the decoder to full rank s.
	Decoded bool
}

// Collection is one segment's server-side state: a rank decoder and the
// payload size it expects. A segment is delivered when it decodes; the
// paper's collection-state counter is a model observer the simulator keeps
// beside it.
type Collection struct {
	dec        *rlnc.Decoder
	payloadLen int
}

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
// collection as these rows; Collector.Restore rebuilds it from them.
func (c *Collection) RangeBasis(f func(coeffs, payload []byte)) { c.dec.RangeBasis(f) }

// Release empties the collection's decoder and drops its storage rather
// than reusing it, so blocks a Decode returned stay valid and unchanged.
func (c *Collection) Release() { c.dec.Release() }

// Collector is the server collection state machine: one Collection per
// segment it has seen or been told about. Not safe for concurrent use;
// drivers serialize access.
type Collector struct {
	cfg  CollectorConfig
	sink EventSink
	segs map[rlnc.SegmentID]*Collection
}

// NewCollector builds an empty collector; sink may be nil.
func NewCollector(cfg CollectorConfig, sink EventSink) *Collector {
	if cfg.SegmentSize < 1 {
		panic(fmt.Errorf("peercore: SegmentSize = %d, need >= 1", cfg.SegmentSize))
	}
	if sink == nil {
		sink = NopSink{}
	}
	return &Collector{cfg: cfg, sink: sink, segs: make(map[rlnc.SegmentID]*Collection)}
}

// Open ensures a Collection for the segment exists and returns it. The
// simulator opens collections at inject time so segments no pull reached are
// visible; Receive opens lazily for servers that learn of segments only
// from arriving blocks. payloadLen fixes the expected payload size (0 for
// rank tracking only; forced to 0 in RankOnly mode).
func (c *Collector) Open(seg rlnc.SegmentID, payloadLen int) *Collection {
	col := c.segs[seg]
	if col == nil {
		if c.cfg.RankOnly {
			payloadLen = 0
		}
		col = &Collection{dec: rlnc.NewDecoder(seg, c.cfg.SegmentSize, payloadLen), payloadLen: payloadLen}
		c.segs[seg] = col
	}
	return col
}

// Collection returns the segment's collection, or nil if never opened.
func (c *Collector) Collection(seg rlnc.SegmentID) *Collection { return c.segs[seg] }

// Restore opens a collection rebuilt from snapshotted state: basis holds
// linearly independent coded blocks of the segment (what RangeBasis
// visited), and payloadLen the expected payload size (it matters when
// basis is empty). The decoder re-adds the basis and refuses a dependent
// row, so rank, future innovation verdicts, and decoded bytes match the
// pre-snapshot collection exactly and the rank never exceeds s. No
// protocol events fire: a restored collection at full rank reads as
// Decoded but never re-fires the transition it fired before the snapshot.
// On error nothing stays open.
func (c *Collector) Restore(seg rlnc.SegmentID, payloadLen int, basis []*rlnc.CodedBlock) (*Collection, error) {
	switch {
	case c.segs[seg] != nil:
		return nil, fmt.Errorf("peercore: Restore(%v): collection already open", seg)
	case payloadLen < 0:
		return nil, fmt.Errorf("peercore: Restore(%v): negative payload length", seg)
	}
	col := c.Open(seg, payloadLen)
	for i, cb := range basis {
		added, err := col.dec.Add(cb)
		if err == nil && !added {
			err = errors.New("dependent basis row")
		}
		if err != nil {
			col.Release()
			c.Forget(seg)
			return nil, fmt.Errorf("peercore: Restore(%v): basis row %d: %w", seg, i, err)
		}
	}
	return col, nil
}

// OpenCount returns how many collections are currently held.
func (c *Collector) OpenCount() int { return len(c.segs) }

// Forget discards a segment's collection (bounded server memory, or the
// simulator reclaiming extinct segments).
func (c *Collector) Forget(seg rlnc.SegmentID) { delete(c.segs, seg) }

// Range visits every open collection in map order. Callers must not mutate
// the collector while ranging.
func (c *Collector) Range(f func(seg rlnc.SegmentID, col *Collection)) {
	for seg, col := range c.segs {
		f(seg, col)
	}
}

// Receive runs one pulled block through the collection: shape validation,
// then the rank decoder. A malformed block is rejected before any counter
// moves.
func (c *Collector) Receive(cb *rlnc.CodedBlock) (PullOutcome, *Collection, error) {
	s := c.cfg.SegmentSize
	if len(cb.Coeffs) != s {
		return PullOutcome{}, nil, fmt.Errorf("peercore: block with %d coefficients, segment size %d", len(cb.Coeffs), s)
	}
	col := c.segs[cb.Seg]
	if col == nil {
		payloadLen := 0
		if !c.cfg.RankOnly {
			payloadLen = len(cb.Payload)
		}
		col = c.Open(cb.Seg, payloadLen)
	}
	if col.payloadLen > 0 && len(cb.Payload) != col.payloadLen {
		return PullOutcome{}, col, fmt.Errorf("peercore: block payload %dB, collection expects %dB", len(cb.Payload), col.payloadLen)
	}

	var out PullOutcome
	c.sink.Count(EvServerPull, 1)
	if added, err := col.dec.Add(cb); err != nil {
		return out, col, err
	} else if added {
		out.Innovative = true
		c.sink.Count(EvInnovativePull, 1)
		if col.dec.Complete() {
			out.Decoded = true
			c.sink.Count(EvDecodedSegment, 1)
		}
	}
	return out, col, nil
}
