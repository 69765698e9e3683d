package peercore

import (
	"p2pcollect/internal/obs"
	"p2pcollect/internal/randx"
	"p2pcollect/internal/rlnc"
)

// MintTraceID draws a nonzero lineage identifier for a segment actor
// injects: 63 bits from the trace RNG (a stream of its own, never the
// protocol's) folded with the actor's identity, so concurrent injections
// across a cluster cannot collide by seed reuse.
func MintTraceID(rng *randx.Rand, actor uint64) uint64 {
	for {
		if id := uint64(rng.Int63()) ^ actor<<48; id != 0 {
			return id
		}
	}
}

// SetTraceCtx associates a sampled trace context with a buffered segment.
// The first valid context wins — a segment's lineage is minted once at
// injection (or adopted from the first traced block received) and never
// rewritten by later arrivals. Contexts for segments the peer does not
// hold, and invalid (unsampled) contexts, are dropped; the lineage lives
// on the holding, so it goes with the blocks it describes.
func (p *Peer) SetTraceCtx(seg rlnc.SegmentID, ctx obs.TraceContext) {
	if h := p.holdings[seg]; h != nil && ctx.Valid() && !h.tctx.Valid() {
		h.tctx = ctx
	}
}

// TraceCtx returns the sampled trace context attached to a buffered
// segment, or the zero context when the segment is untraced.
func (p *Peer) TraceCtx(seg rlnc.SegmentID) obs.TraceContext {
	if h := p.holdings[seg]; h != nil {
		return h.tctx
	}
	return obs.TraceContext{}
}
