package sim

import (
	"fmt"

	"p2pcollect/internal/des"
	"p2pcollect/internal/logdata"
	"p2pcollect/internal/obs"
	"p2pcollect/internal/peercore"
	"p2pcollect/internal/pullsched"
	"p2pcollect/internal/randx"
	"p2pcollect/internal/rlnc"
	"p2pcollect/internal/topology"
)

// policySeedSalt decorrelates policy-internal RNG streams (RarestFirst's
// holder tie-breaks) from the simulation's own seed without touching s.rng,
// so scheduling never perturbs the seeded protocol randomness.
const policySeedSalt = 0x5ca1ab1e

// targetRetries bounds the rejection sampling used to pick a gossip target
// in full-mesh mode.
const targetRetries = 40

// Simulator runs the indirect-collection protocol as a discrete-event
// simulation. Construct with New, drive with RunUntil or Run, then read
// Result.
//
// The protocol state machines — per-peer buffers and server collections —
// live in internal/peercore and are shared verbatim with the live runtime;
// this package contributes only the discrete-event drive: process
// scheduling, overlay sampling, churn, and the measurement window.
type Simulator struct {
	cfg   Config
	rng   *randx.Rand
	clock *des.Sim
	graph *topology.Graph // nil in full-mesh mode
	peers []*peerState
	segs  map[rlnc.SegmentID]*segMeta

	counters *peercore.Counters
	paper    *obs.CounterSet // the paper's state-based pull accounting
	pcfg     peercore.PeerConfig
	// policies holds the pull schedulers: one shared instance when the
	// servers collaborate (they share one collection state, so they share
	// one view of the remaining work), one per server in IndependentServers
	// mode.
	policies []pullsched.Policy
	// invCursor[j][peer] is the inventory cursor policy j holds for the
	// peer slot: the arrival count its last digest from that peer reached
	// (see exchangeInventory). A policy's map is allocated when it first
	// asks for a digest, so a run under one that never does is untouched.
	invCursor []map[pullsched.PeerRef]uint64

	nonEmpty   *indexSet
	nextPeerID uint64

	// live counters
	totalBlocks int64
	saved       int64 // segments with degree >= s and collection state < s

	// clock-windowed measurements (the protocol event counters live in
	// s.counters, shared vocabulary with the live runtime)
	deliveredInWindow   int64 // state-based (the paper's accounting)
	usefulInWindow      int64
	stateDelay          obs.Mean
	rankDecodedInWindow int64 // rank-based (ground truth)
	innovativeInWindow  int64
	rankDelay           obs.Mean
	blocksPerPeer       obs.Mean
	nonEmptyFrac        obs.Mean
	savedPerPeer        obs.Mean
	lostSegments        int64
	rankLostSegments    int64
	orphanedSegments    int64
	postmortemDelivered int64

	// onDecode, when non-nil, observes every rank-based reconstruction;
	// onDeliver observes every state-based delivery.
	onDecode  func(SegmentView)
	onDeliver func(SegmentView)

	// tracer receives segment-lifecycle milestones; NopTracer by default.
	tracer obs.Tracer
	// The run's scrape surface and its pushed instruments. None of them
	// draw randomness, so the seeded event sequence is unperturbed.
	reg         *obs.Registry
	obsDelivery *obs.Histogram // inject→state-s delay
	obsDecode   *obs.Histogram // inject→full-rank delay
}

// peerState is the per-slot state; the slot survives churn, the identity
// does not. The protocol state machine itself is the peercore.Peer.
type peerState struct {
	id     uint64
	dead   bool // departed without replacement; slot inert
	core   *peercore.Peer
	logGen *logdata.Generator // payload mode only
}

// segMeta is the global bookkeeping for one segment: its network degree,
// the server-side decoders, and the paper's collection-state counter (§3),
// which every pull below s advances, innovative or not; only the simulator
// keeps it. deliveredAt/decodedAt are the network-wide first-success times
// (in IndependentServers mode the first server to get there wins).
type segMeta struct {
	id          rlnc.SegmentID
	injectTime  float64
	degree      int
	col         *peercore.Collection   // pooled: collaborating decoder + union rank
	perCol      []*peercore.Collection // per-server (IndependentServers mode)
	state       int                    // pooled state (collaborating servers)
	perState    []int                  // per-server state (IndependentServers mode)
	deliveredAt float64                // state reached s; negative until then
	decodedAt   float64                // full rank reached; negative until then
	// originDeparted marks segments whose origin peer left before the
	// segment was delivered — the "statistics from departed peers" the
	// paper's introduction argues are the most valuable.
	originDeparted bool
}

// Indices into Simulator.paper, the paper's state-based pull accounting,
// counted beside the shared peercore vocabulary.
const (
	usefulPulls       = iota // advanced a state counter (Theorem 2's unit)
	redundantPulls           // the state had already reached s
	deliveredSegments        // a state reached s
)

func (m *segMeta) delivered() bool { return m.deliveredAt >= 0 }
func (m *segMeta) decoded() bool   { return m.decodedAt >= 0 }

// SegmentView is a read-only snapshot of one live segment's state, exposed
// for experiment harnesses and tests.
type SegmentView struct {
	ID          rlnc.SegmentID
	Degree      int
	PullState   int
	ServerRank  int
	InjectTime  float64
	DeliveredAt float64 // negative if collection state below s
	Delivered   bool
	DecodedAt   float64 // negative if not yet at full rank
	Decoded     bool
}

// New validates the configuration and builds a simulator with all protocol
// processes scheduled.
func New(cfg Config) (*Simulator, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	s := &Simulator{
		cfg:      cfg,
		rng:      randx.New(cfg.Seed),
		clock:    des.New(),
		segs:     make(map[rlnc.SegmentID]*segMeta),
		nonEmpty: newIndexSet(cfg.N),
		counters: peercore.NewCounters(),
		paper:    obs.NewCounterSet([]string{"usefulPulls", "redundantPulls", "deliveredSegments"}),
		tracer:   cfg.Tracer,
		pcfg: peercore.PeerConfig{
			SegmentSize: cfg.SegmentSize,
			BufferCap:   cfg.BufferCap,
			Gamma:       cfg.Gamma,
		},
	}
	if s.tracer == nil {
		s.tracer = obs.NopTracer{}
	}
	npol := 1
	if cfg.IndependentServers {
		npol = cfg.NumServers
	}
	s.policies = make([]pullsched.Policy, npol)
	s.invCursor = make([]map[pullsched.PeerRef]uint64, npol)
	for j := range s.policies {
		pol, err := pullsched.New(cfg.PullPolicy, cfg.Seed+policySeedSalt+int64(j))
		if err != nil {
			return nil, err
		}
		s.policies[j] = pol
	}
	if cfg.Degree > 0 {
		g, err := topology.RandomKNeighbor(cfg.N, cfg.Degree, s.rng)
		if err != nil {
			return nil, err
		}
		s.graph = g
	}
	s.peers = make([]*peerState, cfg.N)
	for i := range s.peers {
		s.peers[i] = s.newPeer()
	}
	for i := 0; i < cfg.N; i++ {
		s.schedulePeer(i)
	}
	if cfg.C > 0 {
		perServer := cfg.C * float64(cfg.N) / float64(cfg.NumServers)
		for j := 0; j < cfg.NumServers; j++ {
			j := j
			s.clock.After(s.rng.Exp(perServer), func() { s.pullTick(j, perServer) })
		}
	}
	s.clock.After(sampleInterval, s.sampleTick)
	s.initRegistry()
	return s, nil
}

// initRegistry builds the registry Registry returns, as an endpoint's
// constructor builds its own.
func (s *Simulator) initRegistry() {
	r := obs.NewRegistry("sim")
	r.RegisterCounters(s.counters.Range)
	r.RegisterCounters(s.paper.Range)
	s.reg = r
	s.obsDelivery = r.Histogram("deliveryDelay", obs.ExpBuckets(0.125, 2, 14))
	s.obsDecode = r.Histogram("decodeDelay", obs.ExpBuckets(0.125, 2, 14))
	r.GaugeFunc("blocksPerPeer", func() float64 {
		e, _ := s.occupancy()
		return e
	})
	r.GaugeFunc("emptyPeerFrac", func() float64 {
		_, z0 := s.occupancy()
		return z0
	})
	r.GaugeFunc("liveSegments", func() float64 { return float64(len(s.segs)) })
	if rt, ok := s.tracer.(*obs.RingTracer); ok {
		r.SetTracer(rt)
	}
}

// schedulePeer starts the injection, gossip, and lifetime processes for
// the peer slot pi.
func (s *Simulator) schedulePeer(pi int) {
	cfg := s.cfg
	if cfg.Lambda > 0 {
		s.clock.After(s.rng.Exp(cfg.Lambda/float64(cfg.SegmentSize)), func() { s.injectTick(pi) })
	}
	if cfg.Mu > 0 {
		s.clock.After(s.rng.Exp(cfg.Mu), func() { s.gossipTick(pi) })
	}
	if cfg.ChurnMeanLifetime > 0 {
		s.clock.After(s.rng.Exp(1/cfg.ChurnMeanLifetime), func() { s.departTick(pi) })
	}
}

// AddPeers grows the session by k freshly joined peers, modelling a flash
// crowd of arrivals: each starts empty, is wired into the overlay, and
// runs the full protocol from the current time. The logging servers keep
// the capacity they were provisioned with — that mismatch is the scenario
// of the paper's introduction. The returned slot indices can later be
// passed to RemovePeer when the crowd leaves again. Call between RunUntil
// segments.
func (s *Simulator) AddPeers(k int) []int {
	slots := make([]int, 0, k)
	for i := 0; i < k; i++ {
		pi := len(s.peers)
		s.peers = append(s.peers, s.newPeer())
		s.nonEmpty.grow(len(s.peers))
		if s.graph != nil {
			s.graph.AddNode(s.cfg.Degree, s.rng)
		}
		s.schedulePeer(pi)
		slots = append(slots, pi)
	}
	return slots
}

// RemovePeer departs the peer in slot pi permanently (no replacement): its
// buffered blocks vanish, its protocol processes stop, and the slot becomes
// inert. Removing an already-dead slot is a no-op.
func (s *Simulator) RemovePeer(pi int) {
	if s.peers[pi].dead {
		return
	}
	s.leave(pi)
	s.peers[pi].dead = true
	if s.graph != nil {
		for _, v := range append([]int(nil), s.graph.Neighbors(pi)...) {
			s.graph.RemoveEdge(pi, v)
		}
	}
}

// leave is the departure of the peer in slot pi, replaced or not: it is
// counted, the peer's undelivered segments are flagged as orphaned while
// they are still live, its blocks leave the network bookkeeping, and its
// core is cleared, which counts them as lost with it.
func (s *Simulator) leave(pi int) {
	p := s.peers[pi]
	s.counters.Count(peercore.EvDeparture, 1)
	for _, m := range s.segs {
		if m.id.Origin == p.id && !m.delivered() && !m.originDeparted {
			m.originDeparted = true
			s.orphanedSegments++
		}
	}
	for i := 0; i < p.core.NumSegments(); i++ {
		segID := p.core.SegmentAt(i)
		for k := p.core.BlocksOf(segID); k > 0; k-- {
			s.noteBlockRemoved(segID)
		}
	}
	p.core.Clear()
	s.nonEmpty.remove(pi)
}

// Population returns the number of live peers in the session.
func (s *Simulator) Population() int {
	n := 0
	for _, p := range s.peers {
		if !p.dead {
			n++
		}
	}
	return n
}

// Run executes the whole configured horizon and returns the result.
func Run(cfg Config) (*Result, error) {
	s, err := New(cfg)
	if err != nil {
		return nil, err
	}
	s.RunUntil(s.cfg.Horizon)
	return s.Result(), nil
}

func (s *Simulator) newPeer() *peerState {
	p := &peerState{
		id:   s.nextPeerID,
		core: peercore.NewPeer(s.nextPeerID, s.pcfg, s.rng, s.counters),
	}
	if s.cfg.PayloadLen > 0 {
		p.logGen = logdata.NewGenerator(p.id, s.rng)
	}
	s.nextPeerID++
	return p
}

// Now returns the current simulated time.
func (s *Simulator) Now() float64 { return s.clock.Now() }

// Config returns the (defaulted) configuration of the run.
func (s *Simulator) Config() Config { return s.cfg }

// RunUntil advances the simulation to the given time.
func (s *Simulator) RunUntil(t float64) { s.clock.RunUntil(t) }

// OnDecode registers a callback invoked at every rank-based segment
// reconstruction (the servers can actually decode the payload).
func (s *Simulator) OnDecode(fn func(SegmentView)) { s.onDecode = fn }

// OnDeliver registers a callback invoked when a segment's collection state
// reaches s — the paper's delivery event.
func (s *Simulator) OnDeliver(fn func(SegmentView)) { s.onDeliver = fn }

// Registry returns the run's scrape surface: the shared protocol counters,
// the deliveryDelay and decodeDelay histograms (every delivery and decode,
// warmup included), the ring tracer's tail, and three gauges read from the
// simulator's state when a snapshot is taken — blocksPerPeer E(t)/N,
// emptyPeerFrac z_0(t) (both 0 with no live peer) and liveSegments. It
// can be served by obs.Serve or merged with live registries.
//
// The gauges read plain simulator fields, so a simulator's registry is
// scraped between RunUntil calls, never during one. A trajectory is a
// sequence of such scrapes: step RunUntil(t) and snapshot at each t.
func (s *Simulator) Registry() *obs.Registry { return s.reg }

// occupancy returns the average buffered blocks per live peer E(t)/N and
// the empty-peer fraction z_0(t). With no live peer both are 0.
func (s *Simulator) occupancy() (e, z0 float64) {
	pop := s.Population()
	if pop == 0 {
		return 0, 0
	}
	n := float64(pop)
	return float64(s.totalBlocks) / n, 1 - float64(s.nonEmpty.len())/n
}

// TotalBlocks returns the number of coded blocks currently buffered across
// all peers (the edge count E(t) of the bipartite graph).
func (s *Simulator) TotalBlocks() int64 { return s.totalBlocks }

// LiveSegments returns the number of segments with at least one block in
// the network.
func (s *Simulator) LiveSegments() int { return len(s.segs) }

// ForEachSegment calls fn with a view of every live segment.
func (s *Simulator) ForEachSegment(fn func(SegmentView)) {
	for _, m := range s.segs {
		fn(m.view())
	}
}

func (m *segMeta) view() SegmentView {
	return SegmentView{
		ID:          m.id,
		Degree:      m.degree,
		PullState:   m.state,
		ServerRank:  m.col.Rank(),
		InjectTime:  m.injectTime,
		DeliveredAt: m.deliveredAt,
		Delivered:   m.delivered(),
		DecodedAt:   m.decodedAt,
		Decoded:     m.decoded(),
	}
}

// --- protocol processes ---

func (s *Simulator) injectTick(pi int) {
	if s.peers[pi].dead {
		return // slot departed without replacement; process ends
	}
	if s.cfg.InjectUntil > 0 && s.clock.Now() >= s.cfg.InjectUntil {
		return // session's upload stream has ended; stop the process
	}
	s.inject(pi)
	s.clock.After(s.rng.Exp(s.cfg.Lambda/float64(s.cfg.SegmentSize)), func() { s.injectTick(pi) })
}

func (s *Simulator) inject(pi int) {
	p := s.peers[pi]
	var payloads func() [][]byte
	if s.cfg.PayloadLen > 0 {
		payloads = func() [][]byte {
			return p.logGen.Payloads(s.cfg.SegmentSize, s.cfg.PayloadLen, s.clock.Now(), s.rng)
		}
	}
	segID, stored, ok := p.core.Inject(s.clock.Now(), payloads)
	if !ok {
		return
	}
	meta := &segMeta{
		id:          segID,
		injectTime:  s.clock.Now(),
		deliveredAt: -1,
		decodedAt:   -1,
	}
	// In IndependentServers mode the pooled collection only tracks the
	// union rank; the rank-only collections that count are per-server.
	if s.cfg.IndependentServers {
		meta.col = peercore.NewCollection(segID, s.cfg.SegmentSize, 0)
		meta.perCol = make([]*peercore.Collection, s.cfg.NumServers)
		meta.perState = make([]int, s.cfg.NumServers)
		for j := range meta.perCol {
			meta.perCol[j] = peercore.NewCollection(segID, s.cfg.SegmentSize, 0)
		}
	} else {
		meta.col = peercore.NewCollection(segID, s.cfg.SegmentSize, s.cfg.PayloadLen)
	}
	s.segs[segID] = meta
	s.tracer.Trace(obs.TraceEvent{Seg: segID, Kind: obs.TraceInject, T: s.clock.Now(), Actor: p.id})
	for _, st := range stored {
		s.noteStored(pi, st.Block.Seg, st.Deadline)
	}
}

func (s *Simulator) gossipTick(pi int) {
	if s.peers[pi].dead {
		return
	}
	s.gossip(pi)
	s.clock.After(s.rng.Exp(s.cfg.Mu), func() { s.gossipTick(pi) })
}

func (s *Simulator) gossip(pi int) {
	p := s.peers[pi]
	if p.core.Occupancy() == 0 {
		return // the (1 − z_0) idle factor of eq. (1)
	}
	sender := pi
	var segID rlnc.SegmentID
	if s.cfg.MeanFieldSampling {
		// The ODE's transfer operation: the replicated segment is chosen
		// with probability deg/E (a uniformly random block network-wide),
		// re-encoded at whichever peer holds the sampled copy.
		var ok bool
		sender, segID, ok = s.sampleEdge()
		if !ok {
			return
		}
	} else {
		segID, _ = p.core.SampleSegment()
	}
	target := s.pickTarget(sender, segID)
	if target < 0 {
		s.counters.Count(peercore.EvNoTargetGossip, 1)
		return
	}
	cb := s.peers[sender].core.Recode(segID)
	s.counters.Count(peercore.EvGossipSend, 1)
	res := s.peers[target].core.Store(s.clock.Now(), cb)
	if !res.Stored {
		s.counters.Count(peercore.EvRedundantGossip, 1)
		return
	}
	s.noteStored(target, cb.Seg, res.Deadline)
	s.tracer.Trace(obs.TraceEvent{
		Seg: cb.Seg, Kind: obs.TraceGossipHop, T: s.clock.Now(),
		Actor: s.peers[target].id, N: s.segs[cb.Seg].degree,
	})
}

// noteStored does the network-level bookkeeping for one block of segID the
// peer core just accepted: the edge count, the segment degree, and the TTL
// event at the core's deadline for it.
func (s *Simulator) noteStored(pi int, segID rlnc.SegmentID, deadline float64) {
	s.nonEmpty.add(pi)
	s.totalBlocks++
	meta := s.segs[segID]
	meta.degree++
	if meta.degree == s.cfg.SegmentSize && !meta.delivered() {
		s.saved++
	}
	s.clock.At(deadline, func() { s.expire(pi, segID) })
}

// sampleEdge returns a uniformly random (holder, segment) block copy, the
// degree-proportional sampling of the mean-field analysis. It uses
// rejection sampling against the buffer cap.
func (s *Simulator) sampleEdge() (int, rlnc.SegmentID, bool) {
	if s.totalBlocks == 0 {
		return 0, rlnc.SegmentID{}, false
	}
	for {
		pi, ok := s.nonEmpty.sample(s.rng)
		if !ok {
			return 0, rlnc.SegmentID{}, false
		}
		c := s.peers[pi].core
		if s.rng.Float64()*float64(s.cfg.BufferCap) >= float64(c.Occupancy()) {
			continue
		}
		k := s.rng.Intn(c.Occupancy())
		for i := 0; i < c.NumSegments(); i++ {
			segID := c.SegmentAt(i)
			k -= c.BlocksOf(segID)
			if k < 0 {
				return pi, segID, true
			}
		}
		panic("sim: occupancy out of sync in sampleEdge")
	}
}

// pickTarget selects a peer that still needs blocks of the segment and has
// buffer room, uniformly at random. In full-mesh mode it uses rejection
// sampling against the whole population (the mean-field rule of §3); with
// an overlay it filters the neighbor list.
func (s *Simulator) pickTarget(pi int, segID rlnc.SegmentID) int {
	if s.graph == nil {
		for try := 0; try < targetRetries; try++ {
			d := s.rng.Choose(len(s.peers), pi)
			if s.eligibleTarget(d, segID) {
				return d
			}
		}
		return -1
	}
	nbrs := s.graph.Neighbors(pi)
	candidates := make([]int, 0, len(nbrs))
	for _, d := range nbrs {
		if s.eligibleTarget(d, segID) {
			candidates = append(candidates, d)
		}
	}
	if len(candidates) == 0 {
		return -1
	}
	return candidates[s.rng.Intn(len(candidates))]
}

func (s *Simulator) eligibleTarget(d int, segID rlnc.SegmentID) bool {
	pd := s.peers[d]
	return !pd.dead && pd.core.NeedsBlocks(segID)
}

func (s *Simulator) pullTick(server int, rate float64) {
	s.pull(server)
	s.clock.After(s.rng.Exp(rate), func() { s.pullTick(server, rate) })
}

// pullEnv is the per-pull driver view handed to the policy. SamplePeer is
// the blind baseline draw using the simulator's own RNG — in mean-field
// mode the degree-proportional edge sample, otherwise a uniform non-empty
// peer — so a policy that only calls SamplePeer (Blind) reproduces the
// pre-scheduling RNG sequence exactly. The edge sample's segment is
// captured so the no-hint path keeps the mean-field segment choice.
type pullEnv struct {
	s        *Simulator
	edgePeer int
	edgeSeg  rlnc.SegmentID
	edgeOK   bool
}

func (e *pullEnv) SamplePeer() (pullsched.PeerRef, bool) {
	if e.s.cfg.MeanFieldSampling {
		pi, segID, ok := e.s.sampleEdge()
		if !ok {
			return 0, false
		}
		e.edgePeer, e.edgeSeg, e.edgeOK = pi, segID, true
		return pullsched.PeerRef(pi), true
	}
	pi, ok := e.s.nonEmpty.sample(e.s.rng)
	return pullsched.PeerRef(pi), ok
}

// policyIndex returns which scheduler drives one server's pulls.
func (s *Simulator) policyIndex(server int) int {
	if len(s.policies) == 1 {
		return 0
	}
	return server
}

// exchangeInventory is the live runtime's inventory exchange (see
// transport/wire.go) at zero cost and zero loss: a decision that wants the
// full digest gets it, and once a policy holds a peer's cursor every later
// pull to that peer brings what the peer opened since. A peer that took
// over the slot counts from 1 again, finds the old cursor ahead of its
// count, and so answers in full.
func (s *Simulator) exchangeInventory(pj int, now float64, dec pullsched.Decision) {
	since := s.invCursor[pj][dec.Peer]
	if dec.WantInventory {
		since = 0
	} else if since == 0 {
		return
	}
	inv, cur, delta := s.peers[dec.Peer].core.InventorySince(since)
	if s.invCursor[pj] == nil {
		s.invCursor[pj] = make(map[pullsched.PeerRef]uint64)
	}
	s.invCursor[pj][dec.Peer] = cur
	if !delta || len(inv) > 0 {
		pullsched.ObserveDigest(s.policies[pj], now, dec.Peer, inv, delta)
	}
}

func (s *Simulator) pull(server int) {
	pj := s.policyIndex(server)
	pol := s.policies[pj]
	now := s.clock.Now()
	env := &pullEnv{s: s}
	dec, ok := pol.Choose(now, env)
	if !ok {
		return // no pull-eligible peer in the network
	}
	pi := int(dec.Peer)
	// Inventory-driven policies target peers directly, so the target may
	// have died or emptied since the digest was taken; the pull comes back
	// empty, which is itself feedback. SamplePeer only returns live
	// non-empty peers, so Blind never takes this branch.
	if pi < 0 || pi >= len(s.peers) || s.peers[pi].dead || s.peers[pi].core.Occupancy() == 0 {
		s.counters.Count(peercore.EvEmptyReply, 1)
		pol.Feedback(pullsched.Feedback{Peer: dec.Peer, Time: now, Empty: true})
		if pi >= 0 && pi < len(s.peers) {
			s.exchangeInventory(pj, now, dec)
		}
		return
	}
	// Mean-field mode without a hint keeps the edge sample's
	// degree-proportional segment choice: the sampled peer holds it, so
	// serving it as the hint costs no draw. Otherwise the peer serves the
	// policy's hint, or with none (the literal §2 protocol) a random
	// buffered segment.
	hint, hasHint := dec.Hint, dec.HasHint
	if env.edgeOK && pi == env.edgePeer && !hasHint {
		hint, hasHint = env.edgeSeg, true
	}
	segID, _, _ := s.peers[pi].core.ServePull(hint, hasHint)
	cb := s.peers[pi].core.Recode(segID)
	meta := s.segs[segID]

	// The decoder records actual linear innovation. In independent mode the
	// receiving collection is the pulling server's own, and the pooled
	// collection silently tracks the union rank for extinction accounting.
	rcol, state := meta.col, &meta.state
	if s.cfg.IndependentServers {
		rcol, state = meta.perCol[server], &meta.perState[server]
		if _, err := meta.col.Receive(cb, peercore.NopSink{}); err != nil {
			panic(fmt.Sprintf("sim: pooled decode: %v", err))
		}
	}
	out, err := rcol.Receive(cb, s.counters)
	if err != nil {
		panic(fmt.Sprintf("sim: server decode: %v", err))
	}
	// The paper's accounting (§3): a pull is useful while the segment's
	// state is below s, and advances it. The scheduling loop closes on the
	// same accounting: a collection at state s needs no further pulls.
	useful := *state < s.cfg.SegmentSize
	stateDone := false
	if useful {
		*state++
		s.paper.Add(usefulPulls, 1)
		if stateDone = *state == s.cfg.SegmentSize; stateDone {
			s.paper.Add(deliveredSegments, 1)
		}
	} else {
		s.paper.Add(redundantPulls, 1)
	}
	pol.Feedback(pullsched.Feedback{
		Peer:   dec.Peer,
		Time:   now,
		Seg:    segID,
		Useful: useful,
		Done:   *state == s.cfg.SegmentSize,
	})
	s.exchangeInventory(pj, now, dec)

	if useful && now >= s.cfg.Warmup {
		s.usefulInWindow++
	}
	if out.Innovative {
		s.tracer.Trace(obs.TraceEvent{
			Seg: segID, Kind: obs.TraceServerRank, T: now,
			Actor: uint64(server), N: rcol.Rank(),
		})
	}
	delivered := stateDone && !meta.delivered()
	if delivered {
		meta.deliveredAt = now
		if meta.degree >= s.cfg.SegmentSize {
			s.saved--
		}
		if meta.originDeparted {
			s.postmortemDelivered++
		}
		if now >= s.cfg.Warmup {
			s.deliveredInWindow++
			s.stateDelay.Add(now - meta.injectTime)
		}
		s.tracer.Trace(obs.TraceEvent{Seg: segID, Kind: obs.TraceDelivered, T: now, Actor: uint64(server)})
		s.obsDelivery.Observe(now - meta.injectTime)
		if s.onDeliver != nil {
			s.onDeliver(meta.view())
		}
	}
	if out.Innovative && now >= s.cfg.Warmup {
		s.innovativeInWindow++
	}
	if out.Decoded && !meta.decoded() {
		meta.decodedAt = now
		if now >= s.cfg.Warmup {
			s.rankDecodedInWindow++
			s.rankDelay.Add(now - meta.injectTime)
		}
		s.tracer.Trace(obs.TraceEvent{Seg: segID, Kind: obs.TraceDecoded, T: now, Actor: uint64(server)})
		s.obsDecode.Observe(now - meta.injectTime)
		if s.onDecode != nil {
			s.onDecode(meta.view())
		}
	}
	// The purge runs after this pull's decode is recorded: it can make the
	// segment extinct, and extinction counts a not-yet-decoded segment as
	// rank-lost.
	if delivered && s.cfg.ServerFeedback {
		s.purgeSegment(meta.id)
	}
}

func (s *Simulator) departTick(pi int) {
	if s.peers[pi].dead {
		return
	}
	s.depart(pi)
	s.clock.After(s.rng.Exp(1/s.cfg.ChurnMeanLifetime), func() { s.departTick(pi) })
}

// depart implements the replacement model: the peer leaves and a fresh
// peer instantly takes the slot.
func (s *Simulator) depart(pi int) {
	s.leave(pi)
	s.peers[pi] = s.newPeer()
	if s.graph != nil {
		s.graph.ReplaceNode(pi, s.cfg.Degree, s.rng)
	}
}

func (s *Simulator) sampleTick() {
	if s.clock.Now() >= s.cfg.Warmup {
		// An emptied session has no per-peer averages: skip its samples.
		if n := float64(s.Population()); n > 0 {
			s.blocksPerPeer.Add(float64(s.totalBlocks) / n)
			s.nonEmptyFrac.Add(float64(s.nonEmpty.len()) / n)
			s.savedPerPeer.Add(float64(s.saved) * float64(s.cfg.SegmentSize) / n)
		}
	}
	s.clock.After(sampleInterval, s.sampleTick)
}

// --- block bookkeeping ---

// expire is the TTL event of one block of segID stored in slot pi, at the
// block's deadline. The block is the only one due in the slot's core, unless
// a purge or a departure took it first; then nothing is due.
func (s *Simulator) expire(pi int, segID rlnc.SegmentID) {
	core := s.peers[pi].core
	switch core.ExpireDue(s.clock.Now()) {
	case 0:
		return
	case 1:
	default:
		panic("sim: more than one block due at one TTL event")
	}
	if core.Occupancy() == 0 {
		s.nonEmpty.remove(pi)
	}
	s.noteBlockRemoved(segID)
}

// purgeSegment implements the ServerFeedback extension: every peer evicts
// its blocks of the just-delivered segment, freeing buffer space and pull
// capacity for undelivered data. Their pending TTL events find nothing due.
func (s *Simulator) purgeSegment(segID rlnc.SegmentID) {
	purged := 0
	for pi, p := range s.peers {
		n := p.core.DropSegment(segID)
		if n == 0 {
			continue
		}
		if p.core.Occupancy() == 0 {
			s.nonEmpty.remove(pi)
		}
		purged += n
		for k := 0; k < n; k++ {
			s.noteBlockRemoved(segID)
		}
	}
	if purged > 0 {
		s.tracer.Trace(obs.TraceEvent{Seg: segID, Kind: obs.TracePurged, T: s.clock.Now(), N: purged})
	}
}

// noteBlockRemoved updates the global degree bookkeeping after one block
// copy left the network (TTL, departure, or feedback purge). When the last
// copy goes, the segment is extinct: the loss counters fire and every
// server-side collection is reclaimed.
func (s *Simulator) noteBlockRemoved(segID rlnc.SegmentID) {
	meta := s.segs[segID]
	if meta.degree == s.cfg.SegmentSize && !meta.delivered() {
		s.saved--
	}
	meta.degree--
	s.totalBlocks--
	if meta.degree == 0 {
		if !meta.delivered() {
			s.lostSegments++
		}
		if !meta.decoded() {
			s.rankLostSegments++
		}
		delete(s.segs, segID)
	}
}

// Result assembles the run's measurements.
func (s *Simulator) Result() *Result {
	window := s.clock.Now() - s.cfg.Warmup
	c := s.counters
	r := &Result{
		Config:                 s.cfg,
		Window:                 window,
		InjectedSegments:       c.Get(peercore.EvInjectedSegment),
		InjectedBlocks:         c.Get(peercore.EvInjectedBlock),
		SuppressedInjections:   c.Get(peercore.EvSuppressedInjection),
		DeliveredSegments:      s.deliveredInWindow,
		UsefulPulls:            s.paper.Get(usefulPulls),
		RankDecodedSegments:    s.rankDecodedInWindow,
		InnovativePulls:        c.Get(peercore.EvInnovativePull),
		LostSegments:           s.lostSegments,
		RankLostSegments:       s.rankLostSegments,
		ServerPulls:            c.Get(peercore.EvServerPull),
		RedundantPulls:         s.paper.Get(redundantPulls),
		GossipSends:            c.Get(peercore.EvGossipSend),
		RedundantGossip:        c.Get(peercore.EvRedundantGossip),
		NoTargetGossip:         c.Get(peercore.EvNoTargetGossip),
		Departures:             c.Get(peercore.EvDeparture),
		BlocksLostToTTL:        c.Get(peercore.EvBlockLostTTL),
		BlocksLostToExit:       c.Get(peercore.EvBlockLostExit),
		OrphanedSegments:       s.orphanedSegments,
		PostmortemDelivered:    s.postmortemDelivered,
		BlocksPurgedByFeedback: c.Get(peercore.EvBlockPurged),
		ProtocolCounters:       c.Snapshot(),
	}
	s.paper.Range(func(name string, v int64) { r.ProtocolCounters[name] = v })
	if window > 0 {
		r.Throughput = float64(s.usefulInWindow) / window
		r.RankThroughput = float64(s.innovativeInWindow) / window
		deliveredRate := float64(s.deliveredInWindow) * float64(s.cfg.SegmentSize) / window
		if s.cfg.Lambda > 0 {
			denom := float64(s.cfg.N) * s.cfg.Lambda
			r.NormalizedThroughput = r.Throughput / denom
			r.RankNormalizedThroughput = r.RankThroughput / denom
			r.DeliveredNormalizedThroughput = deliveredRate / denom
		}
	}
	if s.stateDelay.N() > 0 {
		r.MeanSegmentDelay = s.stateDelay.Mean()
		r.MeanBlockDelay = r.MeanSegmentDelay / float64(s.cfg.SegmentSize)
	}
	if s.rankDelay.N() > 0 {
		r.MeanRankBlockDelay = s.rankDelay.Mean() / float64(s.cfg.SegmentSize)
	}
	if s.blocksPerPeer.N() > 0 {
		r.AvgBlocksPerPeer = s.blocksPerPeer.Mean()
		r.AvgNonEmptyFrac = s.nonEmptyFrac.Mean()
		r.SavedPerPeer = s.savedPerPeer.Mean()
		r.StorageOverhead = r.AvgBlocksPerPeer - s.cfg.Lambda/s.cfg.Gamma
	}
	return r
}

// CheckInvariants verifies the internal bookkeeping against a full recount
// and returns the first inconsistency. Per-peer buffer invariants are
// delegated to the peer cores; this adds the network-level recounts.
// Tests call it mid-run.
func (s *Simulator) CheckInvariants() error {
	var total int64
	degrees := make(map[rlnc.SegmentID]int)
	var saved int64
	for pi, p := range s.peers {
		if p.dead {
			if p.core.Occupancy() != 0 || p.core.NumSegments() != 0 || s.nonEmpty.contains(pi) {
				return fmt.Errorf("dead peer %d retains state", pi)
			}
			continue
		}
		if err := p.core.CheckInvariants(); err != nil {
			return fmt.Errorf("peer %d: %w", pi, err)
		}
		occ := p.core.Occupancy()
		for i := 0; i < p.core.NumSegments(); i++ {
			segID := p.core.SegmentAt(i)
			degrees[segID] += p.core.BlocksOf(segID)
		}
		if (occ > 0) != s.nonEmpty.contains(pi) {
			return fmt.Errorf("peer %d non-empty set membership wrong (occ=%d)", pi, occ)
		}
		total += int64(occ)
	}
	if total != s.totalBlocks {
		return fmt.Errorf("totalBlocks %d, recount %d", s.totalBlocks, total)
	}
	c := s.counters
	if left := c.Get(peercore.EvBlockStored) - c.Get(peercore.EvBlockLostTTL) - c.Get(peercore.EvBlockPurged) - c.Get(peercore.EvBlockLostExit); left != total {
		return fmt.Errorf("%d blocks stored and not counted out, %d buffered", left, total)
	}
	for segID, meta := range s.segs {
		if degrees[segID] != meta.degree {
			return fmt.Errorf("segment %v degree %d, recount %d", segID, meta.degree, degrees[segID])
		}
		if meta.degree == 0 {
			return fmt.Errorf("segment %v live with degree 0", segID)
		}
		if meta.degree >= s.cfg.SegmentSize && !meta.delivered() {
			saved++
		}
		if meta.state > s.cfg.SegmentSize {
			return fmt.Errorf("segment %v pull state %d above s", segID, meta.state)
		}
		if s.cfg.IndependentServers {
			if meta.state != 0 {
				return fmt.Errorf("segment %v collaborative state %d in independent mode", segID, meta.state)
			}
			for j, col := range meta.perCol {
				state := meta.perState[j]
				if state > s.cfg.SegmentSize {
					return fmt.Errorf("segment %v server %d state %d above s", segID, j, state)
				}
				if col.Rank() > state && state < s.cfg.SegmentSize {
					return fmt.Errorf("segment %v server %d rank %d exceeds state %d", segID, j, col.Rank(), state)
				}
			}
		} else if meta.col.Rank() > meta.state && meta.state < s.cfg.SegmentSize {
			// Every pull feeds both accountings, and a pull can advance rank
			// only if it advanced the state counter (state saturates first).
			return fmt.Errorf("segment %v rank %d exceeds pull state %d", segID, meta.col.Rank(), meta.state)
		}
	}
	for segID := range degrees {
		if _, ok := s.segs[segID]; !ok && degrees[segID] > 0 {
			return fmt.Errorf("segment %v has blocks but no metadata", segID)
		}
	}
	if saved != s.saved {
		return fmt.Errorf("saved %d, recount %d", s.saved, saved)
	}
	return nil
}

// indexSet is a constant-time add/remove/sample set over [0, n).
type indexSet struct {
	items []int
	pos   []int
}

func newIndexSet(n int) *indexSet {
	pos := make([]int, n)
	for i := range pos {
		pos[i] = -1
	}
	return &indexSet{pos: pos}
}

func (s *indexSet) len() int { return len(s.items) }

// grow extends the index domain to [0, n).
func (s *indexSet) grow(n int) {
	for len(s.pos) < n {
		s.pos = append(s.pos, -1)
	}
}

func (s *indexSet) contains(i int) bool { return s.pos[i] >= 0 }

func (s *indexSet) add(i int) {
	if s.pos[i] >= 0 {
		return
	}
	s.pos[i] = len(s.items)
	s.items = append(s.items, i)
}

func (s *indexSet) remove(i int) {
	p := s.pos[i]
	if p < 0 {
		return
	}
	last := len(s.items) - 1
	moved := s.items[last]
	s.items[p] = moved
	s.pos[moved] = p
	s.items = s.items[:last]
	s.pos[i] = -1
}

func (s *indexSet) sample(rng *randx.Rand) (int, bool) {
	if len(s.items) == 0 {
		return 0, false
	}
	return s.items[rng.Intn(len(s.items))], true
}
