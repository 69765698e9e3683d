package live

import (
	"errors"
	"fmt"
	"path/filepath"

	"p2pcollect/internal/collect"
	"p2pcollect/internal/collect/store/wal"
	"p2pcollect/internal/fleet"
	"p2pcollect/internal/membership"
	"p2pcollect/internal/metrics"
	"p2pcollect/internal/obs"
	"p2pcollect/internal/peercore"
	"p2pcollect/internal/pullsched"
	"p2pcollect/internal/randx"
	"p2pcollect/internal/rlnc"
	"p2pcollect/internal/transport"
)

// Fleet exchange counters: the server-to-server traffic a shard generates
// and absorbs, plus how much pulled gossip landed at the wrong shard.
const (
	fcExchangeSent = iota
	fcExchangeReceived
	fcExchangeInnovative
	fcMisrouted
	fcRemoteFinished

	numFleetCounters
)

var fleetCounterNames = [numFleetCounters]string{
	fcExchangeSent:       "fleetExchangeSent",
	fcExchangeReceived:   "fleetExchangeReceived",
	fcExchangeInnovative: "fleetExchangeInnovative",
	fcMisrouted:          "fleetMisroutedBlocks",
	fcRemoteFinished:     "fleetRemoteFinished",
}

// flightRecorderCap sizes the always-on crash flight recorder: the last N
// trace events survive in memory for a postmortem dump. At 51 bytes per
// encoded record a full dump is ~200 KiB.
const flightRecorderCap = 4096

// ServerConfig parameterizes one live logging server.
type ServerConfig struct {
	// PullRate is c_s: pull requests issued per second.
	PullRate float64
	// Peers are the nodes this server probes, uniformly at random. With
	// Membership set they seed the pull target set, which then tracks the
	// live view; without it they are the whole, static set.
	Peers []transport.NodeID
	// Membership, when non-nil, runs a SWIM failure detector over the
	// server's transport and makes the pull target set track the live
	// membership view (peers only — fellow servers are discovered but not
	// pulled from). Peers may then be empty; the config's Seeds bootstrap
	// discovery. Nil keeps the static Peers set.
	Membership *membership.Config
	// SegmentSize is s, the coding generation size the server expects.
	// Zero means infer it from the first block that arrives; blocks of any
	// other size are then dropped as malformed.
	SegmentSize int
	// FinishedCap bounds how many completed segment IDs the server
	// remembers for redundancy suppression (oldest forgotten first; a
	// forgotten segment would merely be decoded again). Zero selects a
	// 65536-entry default.
	FinishedCap int
	// Seed makes the pull sequence reproducible.
	Seed int64
	// Policy schedules this server's pulls; nil selects pullsched.Blind,
	// the paper-faithful baseline (random peer, no hint), whose seeded pull
	// sequence is identical to the pre-scheduling server's. Policies are
	// stateful — give each server its own instance. The server serializes
	// all policy calls under its mutex.
	Policy pullsched.Policy
	// Tracer receives segment-lifecycle milestones (rank growth, delivery,
	// decode) on the server's clock. Nil disables tracing.
	Tracer obs.Tracer
	// DebugAddr, when non-empty, serves this server's debug endpoint
	// (Prometheus /metrics, JSON /debug/snapshot, pprof) on the given
	// address for the server's lifetime. Use ":0" for an ephemeral port.
	DebugAddr string

	// Shards makes this server one shard of an N_s-server fleet: a
	// consistent-hash ring partitions the segment space, the pull policy
	// schedules only against this shard's slice, and innovative blocks that
	// arrive for another shard's segment are recoded and forwarded to the
	// owner (MsgExchange). 0 or 1 means standalone — the fleet machinery
	// adds no RNG draws and no messages, so a 1-shard server is
	// byte-identical to a standalone one.
	Shards int
	// ShardID is this server's shard index in [0, Shards).
	ShardID int
	// ShardPeers maps every other shard's index to its transport ID, for
	// exchange forwarding and completion notices. This shard's own entry is
	// ignored.
	ShardPeers map[int]transport.NodeID
	// Journal, when set, gates delivery fleet-wide: whichever shard first
	// reaches full rank claims the segment, so OnSegment fires exactly once
	// per segment across the fleet with no coordinator.
	Journal *fleet.Journal

	// Durability, when Dir is non-empty, persists the server's collection
	// state in a write-ahead log + snapshot store under that directory. A
	// server started over an existing WAL directory recovers: it loads the
	// latest snapshot, replays the log tail (tolerating a torn final
	// record), resumes every open segment at its pre-crash rank, and
	// delivers any segment that had decoded but whose completion never
	// became durable. Empty Dir keeps state purely in RAM, as before.
	Durability wal.Config

	// FlightPath overrides where the crash flight recorder dumps its ring
	// on CrashStop or a loop panic. Empty selects Durability.Dir/flight.bin
	// (next to the WAL, so postmortem tooling finds both); with no durable
	// directory either, the dump is skipped.
	FlightPath string
}

func (c ServerConfig) validate() error {
	switch {
	case c.PullRate < 0:
		return errors.New("live: negative pull rate")
	case len(c.Peers) == 0 && c.Membership == nil:
		return errors.New("live: server needs at least one peer")
	case c.SegmentSize < 0:
		return errors.New("live: negative SegmentSize")
	case c.FinishedCap < 0:
		return errors.New("live: negative FinishedCap")
	case c.Shards < 0:
		return errors.New("live: negative Shards")
	}
	if c.Shards > 1 && (c.ShardID < 0 || c.ShardID >= c.Shards) {
		return fmt.Errorf("live: ShardID %d outside [0, %d)", c.ShardID, c.Shards)
	}
	return nil
}

// ServerStats is a snapshot of a server's counters. RedundantBlocks keeps
// the original coarse definition (finished-segment, malformed, or
// non-innovative blocks); Protocol carries the shared peercore counter
// vocabulary, which splits the same traffic into state-based and
// rank-based buckets exactly as the simulator reports them.
type ServerStats struct {
	PullsSent         int64
	BlocksReceived    int64
	EmptyReplies      int64
	RedundantBlocks   int64
	DeliveredSegments int64
	DecodedSegments   int64
	OpenDecoders      int
	Protocol          map[string]int64
}

// Server is the shared endpoint runtime driving the collection service: it
// contributes the pull and receive handlers and the fleet follow-ups, and
// delegates every protocol decision to an internal/collect.Service.
// OnSegment, when set before Start, receives every reconstructed segment's
// original blocks.
type Server struct {
	endpoint
	cfg ServerConfig

	// OnSegment is invoked from the receive loop with the original blocks
	// of each segment as soon as it decodes. The blocks alias decoder
	// memory: they stay valid and unchanged, but must not be modified, and
	// one retained block keeps its storage chunk (up to half the segment)
	// alive; copy what you keep long.
	OnSegment func(id rlnc.SegmentID, blocks [][]byte)

	svc *collect.Service // guarded by mu

	// Fleet state (nil/empty when standalone). exchRNG drives recoding for
	// exchange forwards — separate from rng so fleet mode adds no draws to
	// the seeded pull sequence.
	ring     *fleet.Ring
	shardTo  map[int]transport.NodeID
	shardSet map[transport.NodeID]bool
	exchRNG  *randx.Rand
	fleetCtr *metrics.CounterSet

	// Observability. pending maps each peer to the send time of its latest
	// outstanding pull (the next reply from that peer closes it).
	pending map[transport.NodeID]float64
	// invCursor maps each peer that has sent a digest to the arrival count
	// that digest reached; every later pull to the peer carries it and is
	// answered with what is new since (see transport/wire.go). Empty unless
	// the policy asks for digests.
	invCursor map[transport.NodeID]uint64
	// blind maps each pull target to its blind pull: hintless, digest-less,
	// addressed to it, built on first use and never written again, so every
	// blind pull to the peer sends the same object through the transport
	// uncopied. Dropped with the peer, like pending and invCursor.
	blind      map[transport.NodeID]*transport.Message
	obsRTT     *obs.Histogram
	obsCollect *obs.Histogram
	obsDecode  *obs.Histogram
	flight     *obs.FlightRecorder
}

// NewServer builds a logging server over the given transport.
func NewServer(tr transport.Transport, cfg ServerConfig) (*Server, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	policy := cfg.Policy
	if policy == nil {
		policy = pullsched.Blind{}
	}
	s := &Server{
		cfg:       cfg,
		pending:   make(map[transport.NodeID]float64),
		invCursor: make(map[transport.NodeID]uint64),
		blind:     make(map[transport.NodeID]*transport.Message),
	}
	// A departed peer never answers and is never pulled again: its entry
	// would sit in pending, and in the outstandingPulls gauge, forever.
	s.onLeave = func(id transport.NodeID) {
		delete(s.pending, id)
		delete(s.invCursor, id)
		delete(s.blind, id)
	}
	// With Membership set, Peers only seed the pull target set; the live
	// view then keeps it current.
	s.init(tr, membership.RoleServer, cfg.Seed, cfg.Peers, cfg.Membership,
		cfg.Tracer, cfg.DebugAddr)
	s.reg.SetInfo("policy", policy.Name())
	s.obsRTT = s.reg.Histogram("pullRTT", obs.DelayBuckets())
	// ~1 ms to 1024 s: a loopback collection finishes in milliseconds, one
	// starved of pulls in minutes.
	s.obsCollect = s.reg.Histogram("collectionTime", obs.ExpBuckets(1.0/1024, 2, 21))
	// 62.5 ns to ~67 s: a decode copies nothing, so it can finish well
	// under a microsecond.
	s.obsDecode = s.reg.Histogram("decodeLatency", obs.ExpBuckets(62.5e-9, 4, 16))
	s.reg.GaugeFunc("outstandingPulls", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(len(s.pending))
	})
	// The flight recorder is always on: a bounded in-memory ring of the
	// last trace events, teed alongside the configured tracer so a crash
	// dump exists even when tracing is otherwise disabled. Appends are
	// allocation-free, so the cost on the hot path is a mutex and a copy.
	s.flight = obs.NewFlightRecorder(flightRecorderCap)
	s.tracer = obs.Tee(s.tracer, s.flight)

	svcCfg := collect.Config{
		SegmentSize:   cfg.SegmentSize,
		FinishedCap:   cfg.FinishedCap,
		Policy:        policy,
		Sink:          s.counters,
		Tracer:        s.tracer,
		Actor:         uint64(tr.LocalID()),
		CollectTime:   s.obsCollect,
		DecodeLatency: s.obsDecode,
		Durability:    cfg.Durability,
	}
	if cfg.Durability.Dir != "" {
		svcCfg.WALAppend = s.reg.Histogram("walAppendLatency", obs.ExpBuckets(1e-7, 4, 16))
		svcCfg.WALBytes = s.reg.Gauge("walBytes")
	}
	if cfg.Journal != nil {
		journal := cfg.Journal
		svcCfg.Gate = journal.Claim
	}
	if cfg.Shards > 1 {
		ring, err := fleet.NewRing(cfg.Shards, fleet.DefaultVnodes)
		if err != nil {
			return nil, err
		}
		s.ring = ring
		s.shardTo = make(map[int]transport.NodeID, len(cfg.ShardPeers))
		s.shardSet = make(map[transport.NodeID]bool, len(cfg.ShardPeers))
		for id, addr := range cfg.ShardPeers {
			if id == cfg.ShardID {
				continue
			}
			s.shardTo[id] = addr
			s.shardSet[addr] = true
		}
		// A distinct stream derived from the pull seed: deterministic, but
		// interleaving-independent of the pull loop's draws.
		s.exchRNG = randx.New(cfg.Seed ^ int64(fleet.HashSegment(rlnc.SegmentID{Origin: uint64(cfg.ShardID), Seq: uint64(cfg.Shards)})))
		shardID := cfg.ShardID
		svcCfg.Owns = func(seg rlnc.SegmentID) bool { return ring.Owner(seg) == shardID }
		s.reg.SetInfo("shard", fmt.Sprintf("%d/%d", cfg.ShardID, cfg.Shards))
	}
	s.fleetCtr = metrics.NewCounterSet(fleetCounterNames[:])
	if cfg.Shards > 1 {
		s.reg.RegisterCounters(s.fleetCtr.Range)
	}

	svc, err := collect.New(svcCfg)
	if err != nil {
		return nil, err
	}
	s.svc = svc
	s.reg.RegisterCounters(svc.RangeFeedback)
	if ws, ok := svc.Store().(*wal.Store); ok {
		s.reg.GaugeFunc("walSnapshotAgeSeconds", ws.SnapshotAgeSeconds)
	}
	if stats, ok := svc.Recovery(); ok {
		s.reg.Gauge("walRecoverySeconds").Set(stats.Duration.Seconds())
		s.reg.SetInfo("walRecovered", fmt.Sprintf(
			"snapshot=%v segments=%d replayed=%d torn=%v rank=%d",
			stats.SnapshotLoaded, stats.OpenSegments, stats.ReplayedRecords,
			stats.TornTail, stats.TotalRank))
	}
	return s, nil
}

// Config returns the configuration the server was built with: for a cluster
// server, the template plus everything StartCluster derived for it (Peers,
// Seed, Policy, the fleet fields and shared Journal, its own
// Durability.Dir). A restart over the same state is NewServer(tr,
// old.Config()); Policy is the old server's instance, so replace it when the
// policy is stateful and must start fresh.
func (s *Server) Config() ServerConfig { return s.cfg }

// Service exposes the server's collection service (tests and tools).
func (s *Server) Service() *collect.Service { return s.svc }

// Start launches the pull and receive loops. A loop that panics leaves a
// flight dump behind before the process dies.
func (s *Server) Start() error {
	loops := []func(){
		func() {
			defer s.dumpFlightOnPanic()
			s.receive(s.handle)
		},
	}
	if s.cfg.PullRate > 0 {
		loops = append(loops, func() {
			defer s.dumpFlightOnPanic()
			s.paced(s.cfg.PullRate, s.pull)
		})
	}
	return s.start(func() {
		s.tracer.Trace(obs.TraceEvent{Kind: obs.TraceServerStart, T: 0, Actor: uint64(s.tr.LocalID())})
		s.svc.Start(s.OnSegment)
	}, loops...)
}

// Stop shuts the server down, waits for its loops, then releases store
// state.
func (s *Server) Stop() {
	s.shutdown(true, func() {
		s.tracer.Trace(obs.TraceEvent{Kind: obs.TraceServerStop, T: s.now(), Actor: uint64(s.tr.LocalID())})
		s.svc.Close()
	})
}

// CrashStop hard-stops the server the way a killed process would, for
// crash-recovery tests: the loops are stopped, but instead of the orderly
// Close — which writes a final snapshot and fsyncs the log — the service
// crashes its store, dropping buffered log records and closing files
// as-is. A server restarted over the same WAL directory then exercises
// real recovery: snapshot load plus log-tail replay.
func (s *Server) CrashStop() {
	s.shutdown(false, func() {
		s.tracer.Trace(obs.TraceEvent{Kind: obs.TraceServerCrash, T: s.now(), Actor: uint64(s.tr.LocalID())})
		s.dumpFlight()
		s.svc.Crash()
	})
}

// flightDumpPath resolves where automatic flight dumps land: the explicit
// override, else next to the WAL, else nowhere.
func (s *Server) flightDumpPath() string {
	if s.cfg.FlightPath != "" {
		return s.cfg.FlightPath
	}
	if s.cfg.Durability.Dir != "" {
		return filepath.Join(s.cfg.Durability.Dir, "flight.bin")
	}
	return ""
}

// dumpFlight best-effort writes the flight ring to the configured dump
// location. Crash paths call it; failures are swallowed — a dying server
// must not die harder because its black box could not be written.
func (s *Server) dumpFlight() {
	if path := s.flightDumpPath(); path != "" {
		s.flight.DumpFile(path) //nolint:errcheck // crash path, best-effort
	}
}

// dumpFlightOnPanic records the crash and dumps the flight ring before
// re-raising, so a loop panic leaves the same black box a CrashStop does.
func (s *Server) dumpFlightOnPanic() {
	if r := recover(); r != nil {
		s.tracer.Trace(obs.TraceEvent{Kind: obs.TraceServerCrash, T: s.now(), Actor: uint64(s.tr.LocalID())})
		s.dumpFlight()
		panic(r)
	}
}

// Stats returns a snapshot of the server's counters. All event-counter
// fields come from one consistent snapshot taken under the lock, so a
// decode landing mid-call cannot yield DecodedSegments > DeliveredSegments.
// Protocol holds exactly the counters the server's registry exposes:
// protocol events, transport health, pull feedback and, on a fleet shard,
// the exchange counters.
func (s *Server) Stats() ServerStats {
	var st ServerStats
	st.Protocol = s.protocolCounters(func() {
		st.RedundantBlocks = s.svc.Redundant()
		st.OpenDecoders = s.svc.OpenCount()
	})
	get := func(ev peercore.Event) int64 { return st.Protocol[ev.String()] }
	st.PullsSent = get(peercore.EvPullSent)
	st.BlocksReceived = get(peercore.EvBlockReceived)
	st.EmptyReplies = get(peercore.EvEmptyReply)
	st.DeliveredSegments = get(peercore.EvDeliveredSegment)
	st.DecodedSegments = get(peercore.EvDecodedSegment)
	return st
}

// observeRTT closes the peer's outstanding pull, if any, into the RTT
// histogram. Callers hold mu.
func (s *Server) observeRTT(from transport.NodeID, now float64) {
	if t0, ok := s.pending[from]; ok {
		delete(s.pending, from)
		s.obsRTT.Observe(now - t0)
	}
}

// pull is the paced event: ask the policy for a peer (and maybe a segment
// hint) and send it one pull request. A peer whose inventory cursor the
// server holds is asked for what is new since, unless the policy wants the
// full digest this time.
func (s *Server) pull() bool {
	s.mu.Lock()
	dec, ok := s.svc.Choose(s.now(), liveEnv{s})
	if !ok {
		s.mu.Unlock()
		return true
	}
	to := transport.NodeID(dec.Peer)
	var cursor uint64
	if !dec.WantInventory {
		cursor = s.invCursor[to]
	}
	var msg *transport.Message
	if dec.HasHint || dec.WantInventory || cursor != 0 {
		msg = &transport.Message{
			Type: transport.MsgPullRequest, From: s.tr.LocalID(), To: to,
			WantInventory: dec.WantInventory, HasHint: dec.HasHint, Seg: dec.Hint, InvCursor: cursor,
		}
		// A hinted pull for a traced segment carries the lineage out, so
		// the pull leg joins the segment's span.
		if dec.HasHint {
			if tctx := s.svc.TraceCtx(dec.Hint); tctx.Valid() {
				msg.Trace = tctx.Next()
			}
		}
	} else if msg = s.blind[to]; msg == nil {
		msg = &transport.Message{Type: transport.MsgPullRequest, From: s.tr.LocalID(), To: to}
		// Kept only for a current pull target, so what onLeave dropped
		// stays dropped.
		if s.peers.Contains(uint64(to)) {
			s.blind[to] = msg
		}
	}
	s.mu.Unlock()
	// EvPullSent counts pulls the transport accepted, mirroring the
	// gossip-send accounting: a pull the transport refused outright was
	// never in flight.
	if err := s.tr.Send(to, msg); err == nil {
		s.mu.Lock()
		s.counters.Count(peercore.EvPullSent, 1)
		// One outstanding pull per peer: a newer pull to the same peer
		// replaces the pending send time, so the RTT histogram measures the
		// latest request→first reply span (an approximation that
		// under-reports queueing at a slow peer, which the outstandingPulls
		// gauge shows instead).
		s.pending[to] = s.now()
		s.mu.Unlock()
	}
	return true
}

// liveEnv adapts the server to the policy's driver view. SamplePeer is the
// blind baseline draw — a uniform peer from the configured set, using the
// server's own seeded RNG — so Blind reproduces the pre-scheduling pull
// sequence exactly. Callers hold s.mu.
type liveEnv struct{ s *Server }

func (e liveEnv) SamplePeer() (pullsched.PeerRef, bool) {
	peers := e.s.peers
	if peers.Len() == 0 {
		return 0, false
	}
	return pullsched.PeerRef(peers.At(e.s.rng.Intn(peers.Len()))), true
}

func (s *Server) handle(m *transport.Message) {
	switch m.Type {
	case transport.MsgBlock:
		s.receiveBlock(m)
	case transport.MsgExchange:
		s.receiveExchange(m)
	case transport.MsgSegmentComplete:
		s.receiveShardFinished(m)
	case transport.MsgEmpty:
		s.mu.Lock()
		now := s.now()
		s.counters.Count(peercore.EvEmptyReply, 1)
		s.observeRTT(m.From, now)
		s.svc.HandleEmpty(now, pullsched.PeerRef(m.From))
		s.mu.Unlock()
	case transport.MsgInventory:
		s.receiveInventory(m)
	default:
		// Servers ignore peer-to-peer chatter.
	}
}

// receiveInventory hands a peer's digest to the policy and keeps the cursor
// it reaches for the next pull to that peer. A cursor is kept only for a
// current pull target, so what onLeave dropped stays dropped.
func (s *Server) receiveInventory(m *transport.Message) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if m.InvCursor != 0 && s.peers.Contains(uint64(m.From)) {
		s.invCursor[m.From] = m.InvCursor
	}
	s.svc.HandleInventory(s.now(), pullsched.PeerRef(m.From), m.Inventory, m.InvDelta)
}

// receiveBlock feeds a pulled block into the collection service and runs
// the fleet follow-ups its result calls for: forwarding a recoded
// combination to the owning shard when the block was misrouted, and
// announcing fleet-wide completion when the segment decoded here.
func (s *Server) receiveBlock(m *transport.Message) {
	cb := m.Block
	if cb == nil {
		return
	}
	s.mu.Lock()
	now := s.now()
	s.counters.Count(peercore.EvBlockReceived, 1)
	s.observeRTT(m.From, now)
	res := s.svc.HandleBlock(now, pullsched.PeerRef(m.From), cb, true, m.Trace)
	var fwd *transport.Message
	var fwdTo transport.NodeID
	if s.ring != nil && !res.Owned {
		if !res.Finished && !res.Rejected {
			s.fleetCtr.Add(fcMisrouted, 1)
		}
		// Every shard absorbs the block locally regardless (any shard
		// completing a segment is a delivery), but the owner converges
		// fastest when misrouted innovation is forwarded to it. Recoding —
		// rather than relaying the block verbatim — lets one exchange carry
		// everything this shard accumulated for the segment.
		if res.Outcome.Innovative && !res.Outcome.Decoded {
			if to, ok := s.shardTo[s.ring.Owner(cb.Seg)]; ok {
				if rec := res.Col.Recode(s.exchRNG); rec != nil {
					fwd = &transport.Message{Type: transport.MsgExchange, From: s.tr.LocalID(), To: to, Block: rec}
					if res.Trace.Valid() {
						// The recoded combination inherits the segment's
						// lineage one hop deeper, so the cross-shard leg
						// stitches into the same span.
						fwd.Trace = res.Trace.Next()
					}
					fwdTo = to
					s.fleetCtr.Add(fcExchangeSent, 1)
				}
			}
		}
	}
	decoded := res.Outcome.Decoded
	s.mu.Unlock()
	if res.Flush != nil {
		res.Flush()
	}
	if fwd != nil {
		s.tr.Send(fwdTo, fwd) //nolint:errcheck // best-effort convergence accelerator
	}
	if decoded {
		s.broadcastFinished(cb.Seg)
	}
}

// receiveExchange feeds a recoded block from another shard into the
// service. Exchange traffic is not a pull reply: no RTT, no policy
// feedback, no pull counters — and never re-forwarded, so exchange cannot
// loop between shards.
func (s *Server) receiveExchange(m *transport.Message) {
	cb := m.Block
	if cb == nil || s.ring == nil {
		return
	}
	s.mu.Lock()
	now := s.now()
	s.fleetCtr.Add(fcExchangeReceived, 1)
	res := s.svc.HandleBlock(now, pullsched.PeerRef(m.From), cb, false, m.Trace)
	if res.Outcome.Innovative {
		s.fleetCtr.Add(fcExchangeInnovative, 1)
		s.tracer.Trace(obs.TraceEvent{
			Seg: cb.Seg, Kind: obs.TraceExchanged, T: now,
			Actor: uint64(s.tr.LocalID()), N: res.Col.Rank(),
			TraceID: res.Trace.ID, Hop: res.Trace.Hop,
		})
	}
	decoded := res.Outcome.Decoded
	s.mu.Unlock()
	if res.Flush != nil {
		res.Flush()
	}
	if decoded {
		s.broadcastFinished(cb.Seg)
	}
}

// receiveShardFinished handles a completion notice from another shard.
// Peers also send MsgSegmentComplete — meaning "my holding is full", not
// "segment delivered" — so only notices from fleet members count.
func (s *Server) receiveShardFinished(m *transport.Message) {
	if s.ring == nil || !s.shardSet[m.From] {
		return
	}
	s.mu.Lock()
	if s.svc.FinishRemote(m.Seg) {
		s.fleetCtr.Add(fcRemoteFinished, 1)
	}
	s.mu.Unlock()
}

// broadcastFinished tells every other shard the segment is complete, so
// they drop their partial collections and stop exchanging it.
func (s *Server) broadcastFinished(seg rlnc.SegmentID) {
	if s.ring == nil {
		return
	}
	for _, to := range s.shardTo {
		notice := &transport.Message{Type: transport.MsgSegmentComplete, From: s.tr.LocalID(), To: to, Seg: seg}
		s.tr.Send(to, notice) //nolint:errcheck // best-effort
	}
}

// String describes the server for logs.
func (s *Server) String() string {
	return fmt.Sprintf("live.Server(%d)", s.tr.LocalID())
}
