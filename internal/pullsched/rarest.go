package pullsched

import (
	"p2pcollect/internal/randx"
	"p2pcollect/internal/rlnc"
)

// DefaultRefreshInterval is how long (in the driver's time base) a peer's
// full inventory digest stays fresh before the next pull to that peer
// requests a new one. Deltas keep the digest current in between; the full
// refresh is what prunes the lines that expired at the peer.
const DefaultRefreshInterval = 1.0

// expireFactor times RefreshInterval is the age at which a digest is
// discarded outright: past it the digest's claims are more likely wrong than
// right (buffered blocks decay continuously), and keeping phantom holders
// around makes the policy chase segments nobody still has.
const expireFactor = 2

// deliveredCap bounds how many completed segment IDs the policy remembers
// (oldest forgotten first; a forgotten segment would at worst be hinted once
// more and dropped again on feedback).
const deliveredCap = 1 << 16

// RarestConfig parameterizes a RarestFirst policy.
type RarestConfig struct {
	// RefreshInterval is the inventory staleness threshold in the driver's
	// time units. Zero selects DefaultRefreshInterval.
	RefreshInterval float64
	// Seed drives the holder tie-break RNG.
	Seed int64
}

// RarestFirst schedules pulls from per-peer inventory digests: it asks for
// the undelivered segment with the fewest known holders, from a peer known
// to hold it — the classic rarest-first rule, aimed at the tail of the
// coupon collector where blind pulls are mostly redundant. Full digests
// are piggybacked on pull replies on request (Decision.WantInventory), once
// per RefreshInterval and peer; in between the driver's inventory cursor
// brings each newly opened holding on the next pull to its peer, so the
// policy costs one small reply message per piece of news and nothing when
// idle. With no usable inventory it degrades to the blind choice while
// requesting digests, so it bootstraps itself from any state.
type RarestFirst struct {
	cfg RarestConfig
	rng *randx.Rand

	peers     map[PeerRef]*peerInventory
	peerOrder []PeerRef

	// cands holds one record per candidate segment; segs lists them in the
	// order they were learned, each knowing its own index.
	cands map[rlnc.SegmentID]*candidate
	segs  []*candidate

	delivered *rlnc.SegmentSet

	scratch []PeerRef // holder candidates, reused across Choose calls
}

// candidate is one segment some digest lists, with its known holder count.
type candidate struct {
	seg     rlnc.SegmentID
	pos     int // index in RarestFirst.segs
	holders int
}

// peerInventory is one peer's digest: at is when it was last known whole
// (the last full digest, or the moment the peer was first heard of). hint
// is the segment last hinted at the peer (when hinted), so the reply can
// confirm or refute the digest entry it was aimed at; it dies with the
// digest.
type peerInventory struct {
	at     float64
	segs   map[rlnc.SegmentID]int // seg -> block count
	hint   rlnc.SegmentID
	hinted bool
}

var _ Policy = (*RarestFirst)(nil)

// NewRarestFirst returns an empty policy; it pulls blindly (requesting
// digests) until inventories arrive.
func NewRarestFirst(cfg RarestConfig) *RarestFirst {
	if cfg.RefreshInterval <= 0 {
		cfg.RefreshInterval = DefaultRefreshInterval
	}
	return &RarestFirst{
		cfg:       cfg,
		rng:       randx.New(cfg.Seed),
		peers:     make(map[PeerRef]*peerInventory),
		cands:     make(map[rlnc.SegmentID]*candidate),
		delivered: rlnc.NewSegmentSet(deliveredCap),
	}
}

// Name implements Policy.
func (p *RarestFirst) Name() string { return NameRarestFirst }

// Choose implements Policy: hint the rarest known undelivered segment at a
// uniformly random known holder; fall back to the blind draw (plus a digest
// request) when no inventory is usable. Rarity ties break toward the
// segment learned earliest, holder ties by the policy's own seeded RNG, so
// decisions are deterministic given the feedback sequence and seed.
func (p *RarestFirst) Choose(now float64, env Env) (Decision, bool) {
	p.expire(now)
	seg, ok := p.rarest()
	if !ok {
		peer, ok := env.SamplePeer()
		if !ok {
			return Decision{}, false
		}
		return Decision{Peer: peer, WantInventory: p.stale(now, peer)}, true
	}
	p.scratch = p.scratch[:0]
	for _, peer := range p.peerOrder {
		if p.peers[peer].segs[seg] > 0 {
			p.scratch = append(p.scratch, peer)
		}
	}
	peer := p.scratch[p.rng.Intn(len(p.scratch))]
	p.peers[peer].hint, p.peers[peer].hinted = seg, true
	return Decision{
		Peer:          peer,
		Hint:          seg,
		HasHint:       true,
		WantInventory: p.stale(now, peer),
	}, true
}

// expire discards digests old enough that their claims are stale noise;
// without this, a peer that is never re-pulled would contribute phantom
// holder counts forever and the policy would chase segments nobody has.
func (p *RarestFirst) expire(now float64) {
	deadline := p.cfg.RefreshInterval * expireFactor
	for i := 0; i < len(p.peerOrder); {
		peer := p.peerOrder[i]
		if now-p.peers[peer].at >= deadline {
			p.clearPeer(peer) // removes peerOrder[i]; re-check the slot
			continue
		}
		i++
	}
}

// rarest returns the undelivered segment with the fewest known holders.
// Delivered or holderless segments encountered during the scan are pruned,
// keeping the scan proportional to the live set.
func (p *RarestFirst) rarest() (rlnc.SegmentID, bool) {
	var best *candidate
	for i := 0; i < len(p.segs); i++ {
		c := p.segs[i]
		if p.delivered.Has(c.seg) || c.holders <= 0 {
			p.dropSeg(c)
			i--
			continue
		}
		if best == nil || c.holders < best.holders {
			best = c
		}
	}
	if best == nil {
		return rlnc.SegmentID{}, false
	}
	return best.seg, true
}

// stale reports whether the peer's full digest is missing or past the
// refresh interval.
func (p *RarestFirst) stale(now float64, peer PeerRef) bool {
	inv := p.peers[peer]
	return inv == nil || now-inv.at >= p.cfg.RefreshInterval
}

// Feedback implements Policy: completed segments stop being candidates, an
// empty reply invalidates everything the digest claimed the peer held (the
// digest itself stays, empty and as old as it was: an idle peer is not
// asked for a new one on every pull), and every served block adjusts the
// digest in place. A useful reply proves the peer holds the served segment
// right now; a reply that does not match the hint it was aimed at
// disproves that digest entry; and a useless, not-done reply exhausts it —
// the peer still buffers the segment but its holding spans nothing the
// collection is missing (live servers see this when a low-degree holder's
// recoded blocks stop being innovative), so pulling it again from this
// peer cannot help until a fresh digest says otherwise.
func (p *RarestFirst) Feedback(f Feedback) {
	pi := p.peers[f.Peer]
	if f.Empty {
		if pi != nil {
			p.dropLines(pi)
			pi.hinted = false
		}
		return
	}
	if pi != nil && pi.hinted {
		pi.hinted = false
		if pi.hint != f.Seg {
			p.removeHolding(f.Peer, pi.hint)
		}
	}
	if f.Useful || f.Done {
		p.confirmHolding(f.Peer, f.Seg)
	} else {
		p.removeHolding(f.Peer, f.Seg)
	}
	if f.Done {
		// Candidate structures are pruned lazily by rarest.
		p.delivered.Add(f.Seg)
	}
}

// confirmHolding records that a pull reply proved the peer holds seg.
func (p *RarestFirst) confirmHolding(peer PeerRef, seg rlnc.SegmentID) {
	inv := p.peers[peer]
	if inv == nil || p.delivered.Has(seg) || inv.segs[seg] > 0 {
		return
	}
	inv.segs[seg] = 1
	p.hold(seg)
}

// removeHolding drops one digest line a reply disproved.
func (p *RarestFirst) removeHolding(peer PeerRef, seg rlnc.SegmentID) {
	inv := p.peers[peer]
	if inv == nil || inv.segs[seg] == 0 {
		return
	}
	delete(inv.segs, seg)
	p.unhold(seg)
}

// ObserveInventory implements Policy: add the lines to the peer's digest,
// or with none empty it and restart its age. An empty digest is a digest:
// the peer is known, and holds nothing.
func (p *RarestFirst) ObserveInventory(now float64, peer PeerRef, inv []InventoryEntry) {
	pi := p.peers[peer]
	if pi == nil {
		pi = &peerInventory{at: now, segs: make(map[rlnc.SegmentID]int, len(inv))}
		p.peers[peer] = pi
		p.peerOrder = append(p.peerOrder, peer)
	}
	if len(inv) == 0 {
		p.dropLines(pi)
		pi.at = now
		return
	}
	for _, e := range inv {
		if e.Blocks <= 0 || p.delivered.Has(e.Seg) || pi.segs[e.Seg] > 0 {
			continue
		}
		pi.segs[e.Seg] = e.Blocks
		p.hold(e.Seg)
	}
}

// KnownPeers returns how many peers currently have a live digest.
func (p *RarestFirst) KnownPeers() int { return len(p.peers) }

// dropLines empties a digest, taking back its holder contributions.
func (p *RarestFirst) dropLines(pi *peerInventory) {
	for seg := range pi.segs {
		p.unhold(seg)
	}
	clear(pi.segs)
}

// hold counts one more holder of seg, making it a candidate if it is not.
func (p *RarestFirst) hold(seg rlnc.SegmentID) {
	c := p.cands[seg]
	if c == nil {
		c = &candidate{seg: seg, pos: len(p.segs)}
		p.cands[seg] = c
		p.segs = append(p.segs, c)
	}
	c.holders++
}

// unhold takes back one holder of seg. A delivered segment that rarest has
// already pruned can still sit in a digest; its record is gone and must not
// come back as a negative entry nothing would ever delete.
func (p *RarestFirst) unhold(seg rlnc.SegmentID) {
	if c := p.cands[seg]; c != nil {
		c.holders--
	}
}

// clearPeer forgets a peer: its digest, age and holder contributions.
func (p *RarestFirst) clearPeer(peer PeerRef) {
	inv := p.peers[peer]
	if inv == nil {
		return
	}
	p.dropLines(inv)
	delete(p.peers, peer)
	for i, id := range p.peerOrder {
		if id == peer {
			p.peerOrder = append(p.peerOrder[:i], p.peerOrder[i+1:]...)
			break
		}
	}
}

// dropSeg removes one candidate in O(1), moving the last into its place.
func (p *RarestFirst) dropSeg(c *candidate) {
	last := len(p.segs) - 1
	moved := p.segs[last]
	p.segs[c.pos] = moved
	moved.pos = c.pos
	p.segs[last] = nil
	p.segs = p.segs[:last]
	delete(p.cands, c.seg)
}
