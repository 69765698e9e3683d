// Package live is the wall-clock implementation of the indirect collection
// protocol: real nodes running goroutine loops for statistics generation,
// RLNC gossip, TTL expiry, and server pulls, over any transport.Transport
// (in-memory channels, TCP or UDP). The protocol state machines themselves
// — the per-peer buffer and the server collections — are the peercore ones
// the discrete-event simulator drives, so the two runtimes execute the
// same code paths; this package contributes the goroutine scheduling, the
// wall clock (both in endpoint.go, shared by Node and Server), and real
// payload bytes moving over a transport.
package live

import (
	"errors"
	"fmt"
	"time"

	"p2pcollect/internal/logdata"
	"p2pcollect/internal/membership"
	"p2pcollect/internal/obs"
	"p2pcollect/internal/peercore"
	"p2pcollect/internal/randx"
	"p2pcollect/internal/rlnc"
	"p2pcollect/internal/transport"
)

// reapInterval is how often expired blocks are swept. It bounds the TTL
// granularity; TTLs in live deployments are seconds to minutes.
const reapInterval = 20 * time.Millisecond

// traceSeedSalt derives a node's trace-sampling RNG stream from its
// protocol seed (cfg.Seed ^ traceSeedSalt), the same decoupling trick the
// simulator uses for its policy RNG: tracing draws never perturb the
// seeded protocol sequence.
const traceSeedSalt = 0x7ace5eed

// NodeConfig parameterizes one live peer. Rates are per second.
type NodeConfig struct {
	// SegmentSize is s, the coding generation size.
	SegmentSize int
	// BlockSize is the payload bytes per original block; it should be a
	// multiple of logdata.RecordSize to carry whole records.
	BlockSize int
	// Lambda is the statistics generation rate in blocks/second.
	Lambda float64
	// Mu is the gossip rate in blocks/second.
	Mu float64
	// Gamma is the block expiry rate (TTL mean 1/Gamma seconds).
	Gamma float64
	// BufferCap bounds the number of buffered coded blocks.
	BufferCap int
	// NoticeTTL is how long (in seconds) a neighbor's segment-complete
	// notice mutes gossip of that segment toward them. After it the
	// neighbor's holding has almost surely lost blocks to TTL expiry and
	// wants gossip again. Zero selects 3/Gamma (a few TTL means).
	NoticeTTL float64
	// Neighbors are the peers this node gossips to. With Membership set
	// they become the initial target set (usually left empty — the live
	// view fills it); without it they are the whole, static topology.
	Neighbors []transport.NodeID
	// Membership, when non-nil, runs a SWIM failure detector over the
	// node's transport (piggybacked on MsgSwim frames) and makes the
	// gossip target set track the live membership view: members join by
	// rumor, the dead and the departed are dropped. The config's Seeds are
	// the join contacts; its Seed, when zero, is derived from the node
	// Seed. Nil keeps the static Neighbors topology.
	Membership *membership.Config
	// MaxSegments, when positive, stops statistics injection after that
	// many segments, making the node's contribution — and thus a test's
	// expected delivery set — finite and exact. Zero means unbounded.
	MaxSegments int
	// Seed makes the node's randomness reproducible.
	Seed int64
	// Tracer receives segment-lifecycle milestones (injections, gossip
	// hops) on the node's clock. Nil disables tracing.
	Tracer obs.Tracer
	// TraceSample is the probability (0..1) that an injected segment is
	// sampled for wire-level trace propagation: it is minted a cluster-
	// unique trace ID that rides every block of the segment across gossip,
	// pulls, and fleet exchange, so the assembler can stitch its end-to-end
	// span. Sampling draws from a dedicated RNG stream derived from Seed —
	// never from the protocol RNG — so any rate, including 0 vs nonzero,
	// leaves the seeded protocol byte stream untouched. Zero disables
	// sampling (the default; frames stay byte-identical to legacy).
	TraceSample float64
	// DebugAddr, when non-empty, serves this node's debug endpoint
	// (Prometheus /metrics, JSON /debug/snapshot, pprof) on the given
	// address for the node's lifetime. Use ":0" for an ephemeral port.
	DebugAddr string
}

func (c NodeConfig) validate() error {
	switch {
	case c.SegmentSize < 1:
		return fmt.Errorf("live: SegmentSize = %d", c.SegmentSize)
	case c.BlockSize < 1:
		return fmt.Errorf("live: BlockSize = %d", c.BlockSize)
	case c.Lambda < 0 || c.Mu < 0:
		return errors.New("live: negative rate")
	case c.Gamma <= 0:
		return errors.New("live: Gamma must be positive")
	case c.BufferCap < c.SegmentSize:
		return fmt.Errorf("live: BufferCap %d < SegmentSize %d", c.BufferCap, c.SegmentSize)
	case c.NoticeTTL < 0:
		return errors.New("live: negative NoticeTTL")
	case c.TraceSample < 0 || c.TraceSample > 1:
		return fmt.Errorf("live: TraceSample %g outside [0,1]", c.TraceSample)
	}
	return nil
}

// noticeTTL resolves the configured segment-complete notice lifetime.
func (c NodeConfig) noticeTTL() float64 {
	if c.NoticeTTL > 0 {
		return c.NoticeTTL
	}
	return 3 / c.Gamma
}

// NodeStats is a snapshot of a node's counters. The named fields are the
// stable subset; Protocol carries the full shared peercore counter
// vocabulary (the same names the simulator reports).
type NodeStats struct {
	InjectedSegments int64
	InjectedBlocks   int64
	GossipSent       int64
	BlocksReceived   int64
	BlocksStored     int64
	BlocksExpired    int64
	PullsServed      int64
	BufferedBlocks   int
	BufferedSegments int
	Protocol         map[string]int64
}

// Node is one live peer: the peercore buffer driven by the shared endpoint
// runtime. Create with NewNode, start with Start, stop with Stop (which
// waits for all goroutines).
type Node struct {
	endpoint
	cfg NodeConfig

	// Guarded by mu, like everything the protocol touches.
	traceRNG *randx.Rand // sampling decisions + trace IDs; nil when TraceSample is 0
	core     *peercore.Peer
	// fullAt maps segment → neighbor → node-clock deadline until which the
	// neighbor's segment-complete notice suppresses gossip of that segment
	// toward it. Entries expire (reap) so a neighbor whose holding drained
	// by TTL is gossiped to again — a notice must mute, not excommunicate.
	fullAt   map[rlnc.SegmentID]map[transport.NodeID]float64
	gen      *logdata.Generator
	injected int // segments injected so far, for MaxSegments
	// candidates is prepareGossip's scratch list of unmuted neighbors.
	candidates []transport.NodeID
	// decoded remembers the segments servers listed as finished, so their
	// re-gossip is refused. One ID per buffer slot: the node forgets a
	// listed segment only after BufferCap newer ones, by which time its
	// blocks have left its neighbours' buffers too.
	decoded *rlnc.SegmentSet
	// empties maps each pulling server to its empty reply, built on first
	// use and never written again, so an empty answer goes through the
	// transport uncopied. At most emptyRepliesCap pullers are kept; a
	// puller beyond them gets a fresh empty each time.
	empties map[transport.NodeID]*transport.Message
}

// emptyRepliesCap bounds Node.empties: a fleet has a handful of servers, so
// forged From IDs cannot grow the map past this.
const emptyRepliesCap = 64

// NewNode builds a peer over the given transport.
func NewNode(tr transport.Transport, cfg NodeConfig) (*Node, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	n := &Node{
		cfg:     cfg,
		fullAt:  make(map[rlnc.SegmentID]map[transport.NodeID]float64),
		decoded: rlnc.NewSegmentSet(cfg.BufferCap),
		empties: make(map[transport.NodeID]*transport.Message),
	}
	// With Membership set, Neighbors only seed the gossip target set; the
	// live view then keeps it current.
	n.init(tr, membership.RolePeer, cfg.Seed, cfg.Neighbors, cfg.Membership,
		cfg.Tracer, cfg.DebugAddr)
	// The seeded stream depends on this order: the buffer takes the RNG
	// first, the generator forks it second.
	n.core = peercore.NewPeer(uint64(tr.LocalID()), peercore.PeerConfig{
		SegmentSize: cfg.SegmentSize,
		BufferCap:   cfg.BufferCap,
		Gamma:       cfg.Gamma,
	}, n.rng, n.counters)
	n.gen = logdata.NewGenerator(uint64(tr.LocalID()), n.rng.Fork())
	if cfg.TraceSample > 0 {
		// A salted sibling of the protocol stream, like the simulator's
		// policy RNG: deterministic per seed, but consuming no protocol
		// draws, so sampled and unsampled runs share one byte stream.
		n.traceRNG = randx.New(cfg.Seed ^ traceSeedSalt)
	}
	n.reg.GaugeFunc("bufferedBlocks", func() float64 {
		n.mu.Lock()
		defer n.mu.Unlock()
		return float64(n.core.Occupancy())
	})
	return n, nil
}

// Config returns the configuration the node was built with: for a cluster
// node, the template plus everything StartCluster derived for it
// (Neighbors or Membership seeds, Seed, Tracer). A replacement under the
// same identity is NewNode(tr, old.Config()) with only the changed fields.
func (n *Node) Config() NodeConfig { return n.cfg }

// Start launches the protocol loops. It is an error to start twice.
func (n *Node) Start() error {
	loops := []func(){
		func() { n.receive(n.handle) },
		func() { n.every(reapInterval, n.reap) },
		func() { n.paced(n.cfg.Mu, n.gossip) },
	}
	if n.cfg.Lambda > 0 {
		rate := n.cfg.Lambda / float64(n.cfg.SegmentSize)
		loops = append(loops, func() { n.paced(rate, n.inject) })
	}
	return n.start(nil, loops...)
}

// Stop shuts the node down: says goodbye to the membership, closes the
// transport and waits for every loop to exit. Safe to call more than once.
func (n *Node) Stop() { n.shutdown(true, nil) }

// Crash hard-stops the node the way a killed process would: no leave
// rumor, no goodbye. The rest of the cluster must detect the death by
// probing, exactly as for a real crash. For chaos and churn tests.
func (n *Node) Crash() { n.shutdown(false, nil) }

// Stats returns a consistent snapshot of the node's counters. Protocol
// holds exactly the counters the node's registry exposes, the transport's
// health counters (the "transport*" keys) included, so one snapshot reports
// protocol progress and transport liveness side by side. GossipSent counts
// gossip handed to the transport (attempted); transportFramesDelivered
// among the Protocol keys is how much of it actually left the machine.
func (n *Node) Stats() NodeStats {
	var st NodeStats
	st.Protocol = n.protocolCounters(func() {
		st.BufferedBlocks = n.core.Occupancy()
		st.BufferedSegments = n.core.NumSegments()
	})
	get := func(ev peercore.Event) int64 { return st.Protocol[ev.String()] }
	st.InjectedSegments = get(peercore.EvInjectedSegment)
	st.InjectedBlocks = get(peercore.EvInjectedBlock)
	st.GossipSent = get(peercore.EvGossipSend)
	st.BlocksReceived = get(peercore.EvBlockReceived)
	st.BlocksStored = get(peercore.EvBlockStored)
	st.BlocksExpired = get(peercore.EvBlockLostTTL)
	st.PullsServed = get(peercore.EvPullServed)
	return st
}

// inject generates one segment of fresh statistics records and stores its
// source blocks (suppressed by the core when the buffer is above B−s).
// With trace sampling enabled, a sampled segment is minted a cluster-
// unique lineage here — hop 0, the root of its eventual span. It is a
// paced event: false, once MaxSegments have been injected, ends injection.
func (n *Node) inject() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	now := n.now()
	segID, _, ok := n.core.Inject(now, func() [][]byte {
		return n.gen.Payloads(n.cfg.SegmentSize, n.cfg.BlockSize, now, n.rng)
	})
	if ok {
		n.injected++
		var tctx obs.TraceContext
		if n.traceRNG != nil && n.traceRNG.Float64() < n.cfg.TraceSample {
			tctx = obs.TraceContext{ID: peercore.MintTraceID(n.traceRNG, uint64(n.tr.LocalID()))}
			n.core.SetTraceCtx(segID, tctx)
		}
		n.tracer.Trace(obs.TraceEvent{
			Seg: segID, Kind: obs.TraceInject, T: now,
			Actor: uint64(n.tr.LocalID()), N: n.cfg.SegmentSize,
			TraceID: tctx.ID, Hop: tctx.Hop,
		})
	}
	return n.cfg.MaxSegments <= 0 || n.injected < n.cfg.MaxSegments
}

// gossip is the paced push: one re-encoded block to one eligible neighbor.
func (n *Node) gossip() bool {
	if to, msg, ok := n.prepareGossip(); ok {
		// EvGossipSend counts gossip the transport accepted (attempted).
		// Whether a frame really left the machine is the transport's to
		// know — its framesDelivered / dialFailures counters appear
		// alongside this one in Stats().Protocol, so the two are reported
		// separately instead of conflating a failed dial with a send.
		if err := n.tr.Send(to, msg); err == nil {
			n.counters.Count(peercore.EvGossipSend, 1)
		}
	}
	return true
}

// prepareGossip picks a segment and an eligible neighbor and re-encodes one
// block, all under the lock; sending happens outside it. The segment-
// complete notices in fullAt are the distributed approximation of the
// simulator's exact gossip-target eligibility rule; a notice only mutes a
// neighbor until its deadline, since the neighbor's holding drains by TTL
// and then wants the segment again.
func (n *Node) prepareGossip() (transport.NodeID, *transport.Message, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.peers.Len() == 0 {
		return 0, nil, false
	}
	segID, ok := n.core.SampleSegment()
	if !ok {
		return 0, nil, false
	}
	now := n.now()
	full := n.fullAt[segID]
	candidates := n.candidates[:0]
	for i := 0; i < n.peers.Len(); i++ {
		nb := transport.NodeID(n.peers.At(i))
		if deadline, muted := full[nb]; !muted || now >= deadline {
			candidates = append(candidates, nb)
		}
	}
	n.candidates = candidates
	if len(candidates) == 0 {
		n.counters.Count(peercore.EvNoTargetGossip, 1)
		return 0, nil, false
	}
	to := candidates[n.rng.Intn(len(candidates))]
	msg := n.blockMessage(to, segID)
	if tctx := n.core.TraceCtx(segID); tctx.Valid() {
		msg.Trace = tctx.Next()
	}
	return to, msg, true
}

// blockMessage recodes a fresh block of a buffered segment into a new
// message addressed to its receiver: one object for the message, the block
// and its coefficients, one for the payload. Being addressed, it passes
// through the transport uncopied, so nothing writes it once it is sent.
// Callers hold mu.
func (n *Node) blockMessage(to transport.NodeID, seg rlnc.SegmentID) *transport.Message {
	msg := transport.NewBlockMessage(transport.MsgBlock, n.tr.LocalID(), to, seg, n.cfg.SegmentSize)
	n.core.RecodeInto(seg, msg.Block)
	return msg
}

// reap removes blocks whose TTL expired, and garbage-collects
// segment-complete notices that are stale: past their mute deadline
// (the neighbor's holding has drained by TTL and must become a gossip
// target again) or about segments this node no longer buffers. Keeping
// either kind would leak memory — and the former would permanently
// exclude a neighbor from a segment's gossip.
func (n *Node) reap() {
	n.mu.Lock()
	defer n.mu.Unlock()
	now := n.now()
	n.core.ExpireDue(now)
	for segID, full := range n.fullAt {
		if !n.core.Holds(segID) {
			delete(n.fullAt, segID)
			continue
		}
		for nb, deadline := range full {
			if now >= deadline {
				delete(full, nb)
			}
		}
		if len(full) == 0 {
			delete(n.fullAt, segID)
		}
	}
}

func (n *Node) handle(m *transport.Message) {
	switch m.Type {
	case transport.MsgBlock:
		n.receiveBlock(m)
	case transport.MsgSegmentComplete:
		n.mu.Lock()
		if n.fullAt[m.Seg] == nil {
			n.fullAt[m.Seg] = make(map[transport.NodeID]float64)
		}
		n.fullAt[m.Seg][m.From] = n.now() + n.cfg.noticeTTL()
		n.mu.Unlock()
	case transport.MsgPullRequest:
		n.servePull(m)
	case transport.MsgEmpty:
		// Peers ignore empties; they are server-bound.
	}
}

// receiveBlock files a gossiped block and, when the holding just became
// full, tells the neighbors to stop sending this segment. A block of another
// shape — a neighbour running a different SegmentSize or BlockSize — is
// dropped: every recode of a segment combines its blocks' payloads, which
// must all be BlockSize long. A block of a segment a server listed as
// finished is counted and refused.
func (n *Node) receiveBlock(m *transport.Message) {
	if m.Block == nil || m.Block.SegmentSize() != n.cfg.SegmentSize || len(m.Block.Payload) != n.cfg.BlockSize {
		return
	}
	n.mu.Lock()
	n.counters.Count(peercore.EvBlockReceived, 1)
	if n.decoded.Has(m.Block.Seg) {
		n.mu.Unlock()
		return
	}
	now := n.now()
	res := n.core.Store(now, m.Block)
	justFull := res.Stored && n.core.HoldingFull(m.Block.Seg)
	if res.Stored {
		// Adopt the wire lineage (first valid context wins in the core), so
		// this node's own gossip of the segment extends the same span.
		n.core.SetTraceCtx(m.Block.Seg, m.Trace)
		n.tracer.Trace(obs.TraceEvent{
			Seg: m.Block.Seg, Kind: obs.TraceGossipHop, T: now,
			Actor: uint64(n.tr.LocalID()), N: n.core.BlocksOf(m.Block.Seg),
			TraceID: m.Trace.ID, Hop: m.Trace.Hop,
		})
	}
	var targets []uint64
	if justFull {
		targets = n.peers.Snapshot()
	}
	n.mu.Unlock()
	if justFull {
		notice := &transport.Message{Type: transport.MsgSegmentComplete, Seg: m.Block.Seg}
		for _, nb := range targets {
			n.tr.Send(transport.NodeID(nb), notice) //nolint:errcheck // best-effort notice
		}
	}
}

// servePull answers a logging server: first it drops every segment the
// request lists as finished (the core counts the blocks purged); then it
// sends one re-encoded block of the hinted segment when the request carries
// a hint this node still buffers, else of a uniformly random buffered
// segment, or an empty notice. When the server asked for an inventory a
// digest follows the reply, so feedback-driven policies can aim their next
// pulls: the whole buffer for WantInventory, what is new since the request's
// cursor otherwise, and for a cursor with no news nothing. The node keeps no
// per-server protocol state: a server that missed a delta still holds the
// old cursor and is told again, and a list lost with its pull is listed
// again.
func (n *Node) servePull(m *transport.Message) {
	self := n.tr.LocalID()
	n.mu.Lock()
	for _, seg := range m.DecodedList() {
		n.decoded.Add(seg)
		n.core.DropSegment(seg)
	}
	if m.HasHint {
		// A traced hinted pull seeds the segment's lineage here, so even a
		// node that never saw a traced block serves traced replies.
		n.core.SetTraceCtx(m.Seg, m.Trace)
	}
	var reply *transport.Message
	if seg, wire, ok := n.core.ServePull(m.Seg, m.HasHint); ok {
		reply = n.blockMessage(m.From, seg)
		reply.Trace = wire
		n.counters.Count(peercore.EvPullServed, 1)
	} else {
		reply = n.emptyReply(m.From)
	}
	var inv *transport.Message
	if m.WantInventory || m.InvCursor != 0 {
		since := m.InvCursor
		if m.WantInventory {
			since = 0
		}
		if lines, cur, delta := n.core.InventorySince(since); !delta || len(lines) > 0 {
			inv = &transport.Message{
				Type: transport.MsgInventory, From: self, To: m.From,
				Inventory: lines, InvCursor: cur, InvDelta: delta,
			}
		}
	}
	n.mu.Unlock()
	n.tr.Send(m.From, reply) //nolint:errcheck // best-effort reply
	if inv != nil {
		n.tr.Send(m.From, inv) //nolint:errcheck // best-effort digest
	}
}

// emptyReply returns the empty notice addressed to a pulling server: its
// kept one, else a new one, kept while fewer than emptyRepliesCap are.
// Callers hold mu.
func (n *Node) emptyReply(to transport.NodeID) *transport.Message {
	if msg := n.empties[to]; msg != nil {
		return msg
	}
	msg := &transport.Message{Type: transport.MsgEmpty, From: n.tr.LocalID(), To: to}
	if len(n.empties) < emptyRepliesCap {
		n.empties[to] = msg
	}
	return msg
}
