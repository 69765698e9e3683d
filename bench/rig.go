package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"p2pcollect/internal/collect/store/wal"
	"p2pcollect/internal/fleet"
	"p2pcollect/internal/live"
	"p2pcollect/internal/logdata"
	"p2pcollect/internal/obs"
	"p2pcollect/internal/pullsched"
	"p2pcollect/internal/randx"
	"p2pcollect/internal/rlnc"
	"p2pcollect/internal/topology"
	"p2pcollect/internal/transport"
)

// rig is one live set-up of a workload: every transport, the server(s), the
// peers (scripted or real) and the oracle they deliver into.
type rig struct {
	w   *workload
	orc *oracle
	trc *tracing // nil unless this is the traced window

	servers []*live.Server
	nodes   []*live.Node
	peers   []*scriptedPeer
	opened  []transport.Transport // everything listen() returned, for clean-up
	walDir  string

	firstPull     chan struct{}
	firstPullOnce sync.Once
	setupSeconds  float64

	// keepReplies makes the scripted peers keep the first captureBlocks
	// replies they send, in send order: the untraced stand-in for the
	// server tap's capture, on the workloads where the tap changes the mix.
	keepReplies atomic.Bool
	repliesMu   sync.Mutex
	replies     []*transport.Message
}

// router is what the socket transports add to transport.Transport.
type router interface {
	Addr() string
	AddRoute(transport.NodeID, string)
}

// startRig binds sockets, opens the WAL, starts every endpoint and returns
// once the first pull has been accepted; the time that took is the rig's
// setupSeconds. began lets the first rig of a process count from process
// start.
func startRig(w *workload, seed int64, scratch string, trc *tracing, began time.Time) (*rig, error) {
	r := &rig{w: w, orc: newOracle(w), trc: trc, firstPull: make(chan struct{})}
	if trc != nil {
		r.orc.onTraced = trc.delivered
	}
	if err := r.build(seed, scratch); err != nil {
		r.stop()
		return nil, err
	}
	if err := r.waitFirstPull(10 * time.Second); err != nil {
		r.stop()
		return nil, err
	}
	r.setupSeconds = time.Since(began).Seconds()
	return r, nil
}

func (r *rig) build(seed int64, scratch string) error {
	w := r.w
	rng := randx.New(seed)
	network := transport.NewNetwork()
	listen := func(id transport.NodeID) (transport.Transport, error) {
		var tr transport.Transport
		var err error
		switch w.transport {
		case "chanmem":
			tr = network.Join(id)
		case "udp":
			tr, err = transport.ListenUDP(id, "127.0.0.1:0", nil)
		case "tcp":
			tr, err = transport.ListenTCP(id, "127.0.0.1:0", nil)
		default:
			err = fmt.Errorf("unknown transport %q", w.transport)
		}
		if err != nil {
			return nil, err
		}
		r.opened = append(r.opened, tr)
		return tr, nil
	}

	peerIDs := make([]transport.NodeID, w.loadPeers())
	for i := range peerIDs {
		peerIDs[i] = transport.NodeID(i + 1)
	}
	serverIDs := make([]transport.NodeID, w.servers)
	for j := range serverIDs {
		serverIDs[j] = transport.NodeID(serverIDBase + j)
	}
	raw := make(map[transport.NodeID]transport.Transport)
	for _, id := range append(append([]transport.NodeID(nil), peerIDs...), serverIDs...) {
		tr, err := listen(id)
		if err != nil {
			return err
		}
		raw[id] = tr
	}
	for _, a := range raw {
		ra, ok := a.(router)
		if !ok {
			break // chanmem needs no address book
		}
		for id, b := range raw {
			if a != b {
				ra.AddRoute(id, b.(router).Addr())
			}
		}
	}
	endpoint := func(id transport.NodeID) transport.Transport {
		if r.trc == nil {
			return raw[id]
		}
		return r.trc.wrap(raw[id], id >= serverIDBase)
	}

	// Peers.
	if w.scripted > 0 {
		origin := time.Now()
		for _, id := range peerIDs {
			p := newScriptedPeer(r, endpoint(id), rng.Int63(), origin)
			r.peers = append(r.peers, p)
		}
		r.orc.onDelivered = func(seg rlnc.SegmentID) {
			p := r.peers[seg.Origin-1]
			select {
			case p.advance <- seg:
			default: // the peer has already moved on by timeout
			}
		}
	} else {
		graph, err := topology.RandomKNeighbor(w.peers, w.degree, rng)
		if err != nil {
			return err
		}
		for i, id := range peerIDs {
			cfg := live.NodeConfig{
				SegmentSize: w.segmentSize, BlockSize: w.blockSize,
				Lambda: w.lambda, Mu: w.mu, Gamma: w.gamma, BufferCap: w.bufferCap,
				Seed: rng.Int63(),
			}
			for _, nb := range graph.Neighbors(i) {
				cfg.Neighbors = append(cfg.Neighbors, transport.NodeID(nb+1))
			}
			if r.trc != nil {
				cfg.Tracer = r.trc
			}
			n, err := live.NewNode(endpoint(id), cfg)
			if err != nil {
				return err
			}
			r.nodes = append(r.nodes, n)
		}
	}

	// Servers.
	var journal *fleet.Journal
	shardPeers := make(map[int]transport.NodeID)
	if w.fleet {
		journal = fleet.NewJournal(0)
		for j, id := range serverIDs {
			shardPeers[j] = id
		}
	}
	if w.wal {
		dir, err := os.MkdirTemp(scratch, "wal-")
		if err != nil {
			return err
		}
		r.walDir = dir
	}
	for j, id := range serverIDs {
		srvSeed := rng.Int63()
		policy, err := pullsched.New(w.policy, rng.Int63())
		if err != nil {
			return err
		}
		cfg := live.ServerConfig{
			PullRate: w.pullRate, Peers: peerIDs, SegmentSize: w.segmentSize,
			Seed: srvSeed, Policy: policy,
		}
		if r.trc != nil {
			cfg.Policy = &timedPolicy{inner: policy, t: r.trc}
			cfg.Tracer = r.trc
		}
		if w.fleet {
			cfg.Shards, cfg.ShardID, cfg.ShardPeers, cfg.Journal = w.servers, j, shardPeers, journal
		}
		if w.wal {
			cfg.Durability = wal.Config{Dir: filepath.Join(r.walDir, fmt.Sprintf("shard-%d", j))}
		}
		srv, err := live.NewServer(endpoint(id), cfg)
		if err != nil {
			return err
		}
		srv.OnSegment = r.orc.deliver
		r.servers = append(r.servers, srv)
	}

	// Start: load first, then the servers that pull from it.
	for _, p := range r.peers {
		p.start()
	}
	for _, n := range r.nodes {
		r.orc.setClock(uint64(n.ID()), time.Now())
		if err := n.Start(); err != nil {
			return err
		}
	}
	for _, s := range r.servers {
		if err := s.Start(); err != nil {
			return err
		}
	}
	return nil
}

// waitFirstPull blocks until every server has had a pull accepted by its
// transport (scripted peers signal the first one they receive; real
// clusters are polled through Server.Stats).
func (r *rig) waitFirstPull(timeout time.Duration) error {
	deadline := time.After(timeout)
	if len(r.peers) > 0 {
		select {
		case <-r.firstPull:
			return nil
		case <-deadline:
			return errors.New("no pull reached a scripted peer")
		}
	}
	for _, s := range r.servers {
		for s.Stats().PullsSent == 0 {
			select {
			case <-deadline:
				return fmt.Errorf("%v sent no pull", s)
			default:
				// Spin: a sleep here would round set-up time up to the
				// runtime's idle timer granularity, about a millisecond.
				runtime.Gosched()
			}
		}
	}
	return nil
}

// stop shuts everything down, waits for every goroutine the rig started and
// removes the WAL directory.
func (r *rig) stop() {
	for _, s := range r.servers {
		s.Stop()
	}
	for _, n := range r.nodes {
		n.Stop()
	}
	for _, p := range r.peers {
		p.stop()
	}
	// Endpoints close their own transports; this covers the ones a failed
	// build never handed to an endpoint. Close is idempotent everywhere.
	for _, tr := range r.opened {
		tr.Close() //nolint:errcheck // shutdown path
	}
	if r.walDir != "" {
		os.RemoveAll(r.walDir) //nolint:errcheck // scratch data
	}
}

// scriptedPeer is the ingest workloads' load generator: it holds one
// undelivered segment at a time and answers every pull with a fresh random
// combination of it, so nearly every block the server receives is
// innovative. It moves to its next segment when the oracle reports the
// current one delivered, which makes the load a closed loop: one
// outstanding segment per peer, paced by the server's own pulls.
type scriptedPeer struct {
	r      *rig
	tr     transport.Transport
	id     uint64
	rng    *randx.Rand
	gen    *logdata.Generator
	origin time.Time

	seq uint64
	// blocks are the source blocks of the current segment. The peer reuses
	// them from segment to segment (restamp): nothing else reads them —
	// every reply is a fresh recoded copy — and the previous segment is
	// done with once it has been delivered or abandoned.
	blocks  [][]byte
	cur     *rlnc.Holding
	curAt   time.Time
	advance chan rlnc.SegmentID
	started bool
	exited  chan struct{}

	replies atomic.Int64
}

func newScriptedPeer(r *rig, tr transport.Transport, seed int64, origin time.Time) *scriptedPeer {
	rng := randx.New(seed)
	p := &scriptedPeer{
		r: r, tr: tr, id: uint64(tr.LocalID()), rng: rng,
		gen:    logdata.NewGenerator(uint64(tr.LocalID()), rng.Fork()),
		origin: origin,
		// One outstanding segment per peer, so one slot always suffices.
		advance: make(chan rlnc.SegmentID, 1),
		exited:  make(chan struct{}),
	}
	r.orc.setClock(p.id, origin)
	return p
}

func (p *scriptedPeer) start() {
	p.inject()
	p.started = true
	go p.loop()
}

func (p *scriptedPeer) stop() {
	p.tr.Close() //nolint:errcheck // shutdown path
	if p.started {
		<-p.exited
	}
}

// inject generates the next segment of synthetic statistics records and
// makes it the one this peer serves.
func (p *scriptedPeer) inject() {
	w := p.r.w
	now := time.Now()
	t := now.Sub(p.origin).Seconds()
	id := rlnc.SegmentID{Origin: p.id, Seq: p.seq}
	p.seq++
	firstSeq := id.Seq * uint64(w.segmentSize*(w.blockSize/logdata.RecordSize))
	if p.blocks == nil || seqNoOffset < 0 {
		p.blocks = generateBlocks(p.gen, w, t, firstSeq)
	} else {
		restamp(p.blocks, p.gen, t, firstSeq)
	}
	h := rlnc.NewHolding(id, w.segmentSize)
	for i, b := range p.blocks {
		coeffs := make([]byte, w.segmentSize)
		coeffs[i] = 1
		h.Add(&rlnc.CodedBlock{Seg: id, Coeffs: coeffs, Payload: b})
	}
	p.r.orc.injectedSegment(id, p.blocks)
	if p.r.trc != nil {
		p.r.trc.Trace(obs.TraceEvent{Seg: id, Kind: obs.TraceInject})
	}
	p.cur, p.curAt = h, now
}

// delivered moves on to the next segment once the current one is done.
func (p *scriptedPeer) delivered(seg rlnc.SegmentID) {
	if seg == p.cur.SegmentID() {
		p.inject()
	}
}

// answer builds the reply to one pull.
func (p *scriptedPeer) answer() *transport.Message {
	return &transport.Message{Type: transport.MsgBlock, Block: p.cur.Recode(p.rng)}
}

func (p *scriptedPeer) loop() {
	defer close(p.exited)
	for {
		select {
		case seg := <-p.advance:
			p.delivered(seg)
		case m, ok := <-p.tr.Receive():
			if !ok {
				return
			}
			if m.Type != transport.MsgPullRequest {
				continue
			}
			p.r.firstPullOnce.Do(func() { close(p.r.firstPull) })
			// A delivery report that raced this pull wins: never serve a
			// segment the server has already finished.
			select {
			case seg := <-p.advance:
				p.delivered(seg)
			default:
			}
			if time.Since(p.curAt).Seconds() > segmentTimeout {
				p.r.orc.abandoned(p.cur.SegmentID())
				p.inject()
			}
			reply := p.answer()
			p.tr.Send(m.From, reply) //nolint:errcheck // best-effort, like a real peer's reply
			p.replies.Add(1)
			if p.r.keepReplies.Load() {
				reply.From, reply.To = p.tr.LocalID(), m.From
				p.r.repliesMu.Lock()
				if len(p.r.replies) < captureBlocks {
					p.r.replies = append(p.r.replies, reply)
				}
				p.r.repliesMu.Unlock()
			}
		}
	}
}
