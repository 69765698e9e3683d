// Package peercore is the clock- and transport-agnostic core of the
// indirect-collection protocol (§2 of the paper): the per-peer state machine
// (segment holdings, bounded buffer, injection, innovative store, per-block
// TTL bookkeeping, gossip-target eligibility, re-encoding) and the server
// collection state machine (a rank decoder per segment). A buffered segment
// is one holding record, a collected one one Collection, which the drivers
// index (the simulator per segment, store.Memory per server).
//
// A buffered block leaves in one of three ways, each decided and counted
// here: its TTL deadline is reached (ExpireDue, EvBlockLostTTL), its segment
// is purged by server feedback (DropSegment, EvBlockPurged), or its holder
// departs (Clear, EvBlockLostExit). The discrete-event simulator calls
// ExpireDue from one event per stored block at its deadline, the live
// runtime from a periodic sweep; both make the same calls with their own
// clock. Time is an opaque float64 supplied by the driver, randomness comes
// from an injected randx.Rand, and counters flow through a pluggable
// EventSink, so the two runtimes execute the same protocol code paths.
package peercore

import (
	"fmt"
	"math"
	"slices"

	"p2pcollect/internal/obs"
	"p2pcollect/internal/pullsched"
	"p2pcollect/internal/randx"
	"p2pcollect/internal/rlnc"
)

// PeerConfig parameterizes one peer state machine. Rates are per unit of
// whatever time base the driver uses (simulated time or seconds).
type PeerConfig struct {
	// SegmentSize is s, the coding generation size.
	SegmentSize int
	// BufferCap is B, the maximum number of buffered coded blocks.
	BufferCap int
	// Gamma is the block TTL rate; each stored block gets an Exp(Gamma)
	// lifetime sampled at store time.
	Gamma float64
}

// Validate reports the first problem with the configuration.
func (c PeerConfig) Validate() error {
	switch {
	case c.SegmentSize < 1:
		return fmt.Errorf("peercore: SegmentSize = %d, need >= 1", c.SegmentSize)
	case c.BufferCap < c.SegmentSize:
		return fmt.Errorf("peercore: BufferCap %d < SegmentSize %d", c.BufferCap, c.SegmentSize)
	case c.Gamma <= 0:
		return fmt.Errorf("peercore: Gamma must be positive, got %g", c.Gamma)
	}
	return nil
}

// StoreResult reports what Store did with an offered block.
type StoreResult struct {
	// Stored is true when the block was innovative and filed.
	Stored bool
	// NoRoom is true when the buffer was at capacity and the block was
	// rejected before the rank test.
	NoRoom bool
	// Deadline is now plus the sampled TTL (only when Stored): ExpireDue
	// removes the block once it is reached.
	Deadline float64
}

// Stored describes one block filed by Inject with its TTL deadline, so an
// event-driven runtime can call ExpireDue exactly then.
type Stored struct {
	Block    *rlnc.CodedBlock
	Deadline float64
}

// Peer is the per-peer protocol state machine. It is not safe for
// concurrent use; the live runtime serializes calls under the node mutex,
// the simulator is single-threaded.
type Peer struct {
	cfg    PeerConfig
	origin uint64
	rng    *randx.Rand
	sink   EventSink

	seq      uint64
	holdings map[rlnc.SegmentID]*holding
	// segs lists the holdings in SegmentAt order, the list SampleSegment
	// draws from; each holding knows its own index.
	segs []*holding
	// arrivals numbers the holdings this peer has ever opened. The count
	// starts at 1, so 0 is free to mean "no cursor", and survives Clear, so
	// a cursor handed out before it still means what it meant (see
	// InventorySince).
	arrivals  uint64
	occupancy int
	// sweep is ExpireDue's snapshot of the holding it is visiting, kept so
	// a sweep allocates nothing; it holds no blocks between sweeps.
	sweep []timedBlock
}

// inlineDeadlines is the segment size up to which a holding keeps its
// deadlines in the record itself, so opening one costs no extra allocation
// at the sizes live peers run; larger holdings grow a slice as blocks come.
const inlineDeadlines = 8

// holding is one buffered segment: its independent blocks, one TTL
// deadline per block, and what the peer keeps for it.
type holding struct {
	rlnc.Holding
	// deadlines[i] is Blocks()[i]'s deadline; remove keeps the two in step.
	deadlines []float64
	inline    [inlineDeadlines]float64
	// pos is the holding's index in Peer.segs.
	pos int
	// arrival is the number the holding took when it opened (see
	// Peer.arrivals).
	arrival uint64
	// due is a lower bound on the earliest deadline: Store lowers it, an
	// ExpireDue visit makes it exact again, and a sweep skips a holding
	// whose bound has not been reached.
	due float64
	// tctx is the segment's sampled lineage (see trace.go), zero when
	// untraced.
	tctx obs.TraceContext
}

// timedBlock is one block of a holding with its deadline.
type timedBlock struct {
	cb       *rlnc.CodedBlock
	deadline float64
}

// remove deletes the i-th block and its deadline, moving the last into its
// place as rlnc.Holding.Remove does.
func (h *holding) remove(i int) {
	last := len(h.deadlines) - 1
	h.deadlines[i] = h.deadlines[last]
	h.deadlines = h.deadlines[:last]
	h.Remove(i)
}

// NewPeer builds a peer with the given network identity. The rng may be
// shared with the driver (the simulator passes its global stream so the
// seeded event order is unchanged); sink may be nil to discard counters.
func NewPeer(origin uint64, cfg PeerConfig, rng *randx.Rand, sink EventSink) *Peer {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if sink == nil {
		sink = NopSink{}
	}
	return &Peer{
		cfg:      cfg,
		origin:   origin,
		rng:      rng,
		sink:     sink,
		arrivals: 1,
		holdings: make(map[rlnc.SegmentID]*holding),
	}
}

// Origin returns the peer's network identity (the SegmentID origin of the
// segments it injects).
func (p *Peer) Origin() uint64 { return p.origin }

// Occupancy returns the number of buffered coded blocks.
func (p *Peer) Occupancy() int { return p.occupancy }

// NumSegments returns the number of distinct segments buffered.
func (p *Peer) NumSegments() int { return len(p.segs) }

// SegmentAt returns the i-th buffered segment ID (stable between
// mutations; order is arbitrary).
func (p *Peer) SegmentAt(i int) rlnc.SegmentID { return p.segs[i].SegmentID() }

// BlocksOf returns how many blocks of the segment are buffered.
func (p *Peer) BlocksOf(seg rlnc.SegmentID) int {
	if h := p.holdings[seg]; h != nil {
		return h.Len()
	}
	return 0
}

// Holds reports whether any block of the segment is buffered.
func (p *Peer) Holds(seg rlnc.SegmentID) bool { return p.holdings[seg] != nil }

// HoldingFull reports whether the peer already holds s independent blocks
// of the segment.
func (p *Peer) HoldingFull(seg rlnc.SegmentID) bool {
	h := p.holdings[seg]
	return h != nil && h.Full()
}

// NeedsBlocks is the gossip-target eligibility rule of §2: the peer has
// buffer room and does not yet hold s independent blocks of the segment.
func (p *Peer) NeedsBlocks(seg rlnc.SegmentID) bool {
	if p.occupancy >= p.cfg.BufferCap {
		return false
	}
	h := p.holdings[seg]
	return h == nil || !h.Full()
}

// CanInject reports whether a full segment of s source blocks fits in the
// buffer.
func (p *Peer) CanInject() bool { return p.occupancy <= p.cfg.BufferCap-p.cfg.SegmentSize }

// Inject generates the next segment of this peer: s source blocks with unit
// coefficient vectors, each stored with its own TTL. The payloads callback
// (nil for structure-only runs) is invoked only after the buffer-cap check
// passes and must return s equal-length blocks. Inject returns ok=false and
// counts a suppressed injection when the buffer is above B−s.
//
// A source block can be rejected as redundant when the segment ID is not
// globally fresh — a live peer restarting under its old network identity
// re-counts sequence numbers from zero while its earlier blocks still
// circulate. Such blocks are dropped (counted as redundant by Store) and
// simply omitted from the returned list.
func (p *Peer) Inject(now float64, payloads func() [][]byte) (rlnc.SegmentID, []Stored, bool) {
	size := p.cfg.SegmentSize
	if !p.CanInject() {
		p.sink.Count(EvSuppressedInjection, 1)
		return rlnc.SegmentID{}, nil, false
	}
	segID := rlnc.SegmentID{Origin: p.origin, Seq: p.seq}
	p.seq++
	var data [][]byte
	if payloads != nil {
		data = payloads()
	}
	stored := make([]Stored, 0, size)
	for i := 0; i < size; i++ {
		cb := rlnc.NewBlock(segID, size)
		cb.Coeffs[i] = 1
		if data != nil {
			cb.Payload = data[i]
		}
		res := p.Store(now, cb)
		if !res.Stored {
			continue
		}
		stored = append(stored, Stored{Block: cb, Deadline: res.Deadline})
	}
	p.sink.Count(EvInjectedSegment, 1)
	p.sink.Count(EvInjectedBlock, int64(size))
	return segID, stored, true
}

// Store files cb if it is innovative, assigning it an Exp(Gamma) TTL. A
// block arriving at a full buffer is rejected with NoRoom; a linearly
// redundant block is discarded and counted. Whatever clock drives the peer
// calls ExpireDue at or after the returned Deadline to remove the block. A
// stored block is kept by reference, not copied, so the caller must not
// modify it afterwards.
func (p *Peer) Store(now float64, cb *rlnc.CodedBlock) StoreResult {
	if p.occupancy >= p.cfg.BufferCap {
		return StoreResult{NoRoom: true}
	}
	h := p.holdings[cb.Seg]
	if h == nil {
		p.arrivals++
		h = &holding{Holding: *rlnc.NewHolding(cb.Seg, p.cfg.SegmentSize), pos: len(p.segs), arrival: p.arrivals, due: math.Inf(1)}
		if p.cfg.SegmentSize <= inlineDeadlines {
			h.deadlines = h.inline[:0]
		}
		p.holdings[cb.Seg] = h
		p.segs = append(p.segs, h)
	}
	if !h.Add(cb) {
		if h.Len() == 0 {
			p.dropHolding(h)
		}
		p.sink.Count(EvRedundantBlock, 1)
		return StoreResult{}
	}
	deadline := now + p.rng.Exp(p.cfg.Gamma)
	h.deadlines = append(h.deadlines, deadline)
	h.due = min(h.due, deadline)
	p.occupancy++
	p.sink.Count(EvBlockStored, 1)
	return StoreResult{Stored: true, Deadline: deadline}
}

// SampleSegment returns a uniformly random buffered segment, the segment
// choice of both the gossip step and the pull-serve step in §2.
func (p *Peer) SampleSegment() (rlnc.SegmentID, bool) {
	if len(p.segs) == 0 {
		return rlnc.SegmentID{}, false
	}
	return p.segs[p.rng.Intn(len(p.segs))].SegmentID(), true
}

// Recode produces a fresh coded block of the segment from the buffered
// blocks, as gossip and pull-serve require. It panics when the segment is
// not buffered (a protocol-logic error in the driver).
func (p *Peer) Recode(seg rlnc.SegmentID) *rlnc.CodedBlock {
	out := rlnc.NewBlock(seg, p.cfg.SegmentSize)
	p.RecodeInto(seg, out)
	return out
}

// RecodeInto is Recode into a block the caller owns, such as the one inside
// a transport.NewBlockMessage: out carries zeroed Coeffs of the segment
// size, and its Payload is allocated here to the buffered blocks' length.
func (p *Peer) RecodeInto(seg rlnc.SegmentID, out *rlnc.CodedBlock) {
	h := p.holdings[seg]
	if h == nil {
		panic("peercore: Recode of segment not buffered")
	}
	if payload := h.Blocks()[0].Payload; payload != nil {
		out.Payload = make([]byte, len(payload))
	}
	rlnc.RecodeInto(out, h.Blocks(), p.rng)
}

// ServePull chooses what answers one server pull, the serve step of §2:
// the hinted segment when the pull carries a hint this peer still buffers,
// else a uniformly sampled buffered segment. The caller recodes it (Recode
// or RecodeInto) right away, so the draws keep their order. ok is false
// when the buffer is empty.
func (p *Peer) ServePull(hint rlnc.SegmentID, hasHint bool) (seg rlnc.SegmentID, ok bool) {
	if hasHint && p.Holds(hint) {
		return hint, true
	}
	return p.SampleSegment()
}

// InventorySince digests the segments whose holding was opened after cursor
// and is still held, in SegmentAt order (nil when there are none), and
// returns the cursor the digest reaches: the count of holdings opened so
// far. A puller that sends that cursor back on its next pull is told only
// what is new. delta is false when the digest lists the whole buffer
// instead: for cursor 0 (the puller holds none) and for a cursor ahead of
// the count, which only a predecessor under the same identity can have
// issued. Block counts are clamped to the wire format's 16-bit field: a
// count that large is indistinguishable from "plenty" to any scheduling
// policy.
func (p *Peer) InventorySince(cursor uint64) (inv []pullsched.InventoryEntry, cur uint64, delta bool) {
	delta = cursor != 0 && cursor <= p.arrivals
	if !delta {
		cursor = 0
	}
	n := 0
	for _, h := range p.segs {
		if h.arrival > cursor {
			n++
		}
	}
	if n == 0 {
		return nil, p.arrivals, delta
	}
	inv = make([]pullsched.InventoryEntry, 0, n)
	for _, h := range p.segs {
		if h.arrival > cursor {
			inv = append(inv, pullsched.InventoryEntry{Seg: h.SegmentID(), Blocks: min(h.Len(), 0xFFFF)})
		}
	}
	return inv, p.arrivals, delta
}

// ExpireDue removes every block whose TTL deadline has been reached
// (deadline <= now), counting each as lost to TTL, and returns how many
// were removed. Only holdings whose earliest-deadline bound has been
// reached are visited.
func (p *Peer) ExpireDue(now float64) int {
	removed := 0
	for i := 0; i < len(p.segs); i++ {
		h := p.segs[i]
		if now < h.due {
			continue
		}
		// remove reorders the blocks, so iterate over a snapshot; the order
		// it leaves is the order Recode draws over.
		p.sweep = p.sweep[:0]
		for j, cb := range h.Blocks() {
			p.sweep = append(p.sweep, timedBlock{cb, h.deadlines[j]})
		}
		due := math.Inf(1)
		for _, b := range p.sweep {
			if now < b.deadline {
				due = min(due, b.deadline)
				continue
			}
			h.remove(slices.Index(h.Blocks(), b.cb))
			p.occupancy--
			removed++
			p.sink.Count(EvBlockLostTTL, 1)
		}
		if h.Len() == 0 {
			p.dropHolding(h)
			i--
			continue
		}
		h.due = due
	}
	clear(p.sweep[:cap(p.sweep)])
	return removed
}

// DropSegment evicts every buffered block of the segment (the server
// feedback purge), counting them as purged, and returns how many blocks
// were removed.
func (p *Peer) DropSegment(seg rlnc.SegmentID) int {
	h := p.holdings[seg]
	if h == nil {
		return 0
	}
	n := h.Len()
	p.dropHolding(h)
	p.occupancy -= n
	p.sink.Count(EvBlockPurged, int64(n))
	return n
}

// Clear evicts everything, as when the peer departs the session, counting
// every block as lost with its holder.
func (p *Peer) Clear() {
	p.sink.Count(EvBlockLostExit, int64(p.occupancy))
	p.holdings = make(map[rlnc.SegmentID]*holding)
	p.segs = nil
	p.occupancy = 0
}

// dropHolding unregisters an empty (or purged) holding from the sampling
// list in O(1).
func (p *Peer) dropHolding(h *holding) {
	last := len(p.segs) - 1
	moved := p.segs[last]
	p.segs[h.pos] = moved
	moved.pos = h.pos
	p.segs[last] = nil
	p.segs = p.segs[:last]
	delete(p.holdings, h.SegmentID())
}

// CheckInvariants verifies the peer's internal bookkeeping against a full
// recount and returns the first inconsistency found.
func (p *Peer) CheckInvariants() error {
	if len(p.segs) != len(p.holdings) {
		return fmt.Errorf("peercore: sampling list length %d, holdings %d", len(p.segs), len(p.holdings))
	}
	occ := 0
	for i, h := range p.segs {
		seg := h.SegmentID()
		switch {
		case p.holdings[seg] != h || h.pos != i:
			return fmt.Errorf("peercore: holding %v at %d of the sampling list, recorded at %d", seg, i, h.pos)
		case h.Len() == 0:
			return fmt.Errorf("peercore: empty holding for %v retained", seg)
		case h.Len() > p.cfg.SegmentSize:
			return fmt.Errorf("peercore: %d blocks of %v, cap s=%d", h.Len(), seg, p.cfg.SegmentSize)
		case len(h.deadlines) != h.Len():
			return fmt.Errorf("peercore: %d deadlines for %d blocks of %v", len(h.deadlines), h.Len(), seg)
		case h.arrival < 2 || h.arrival > p.arrivals:
			return fmt.Errorf("peercore: arrival number %d of %v outside (1, %d]", h.arrival, seg, p.arrivals)
		}
		for _, deadline := range h.deadlines {
			if deadline < h.due {
				return fmt.Errorf("peercore: %v has a deadline %g before its bound %g", seg, deadline, h.due)
			}
		}
		occ += h.Len()
	}
	if occ != p.occupancy {
		return fmt.Errorf("peercore: occupancy %d, recount %d", p.occupancy, occ)
	}
	if occ > p.cfg.BufferCap {
		return fmt.Errorf("peercore: occupancy %d over buffer cap %d", occ, p.cfg.BufferCap)
	}
	return nil
}
