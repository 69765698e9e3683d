package live

import (
	"fmt"
	"io"
	"path/filepath"

	"p2pcollect/internal/collect/store/wal"
	"p2pcollect/internal/fleet"
	"p2pcollect/internal/membership"
	"p2pcollect/internal/obs"
	"p2pcollect/internal/pullsched"
	"p2pcollect/internal/randx"
	"p2pcollect/internal/rlnc"
	"p2pcollect/internal/topology"
	"p2pcollect/internal/transport"
)

// ClusterConfig describes an in-process deployment: the cluster's shape, one
// configuration template per role, and the transport every endpoint listens
// on. Every protocol and runtime knob is declared once, in the template of
// the role it belongs to; StartCluster adds only what differs per endpoint
// and rejects a template that sets one of those fields itself.
type ClusterConfig struct {
	// Peers is the number of nodes (IDs 1..Peers).
	Peers int
	// Servers is the number of logging servers. More than one runs them as
	// a sharded fleet, the paper's collaborating servers: a consistent-hash
	// ring partitions the segment space across them, misrouted blocks are
	// recoded and exchanged server-to-server, and a shared delivery journal
	// makes OnSegment exactly-once across the fleet. One server runs
	// standalone.
	Servers int
	// Degree is the overlay parameter k (each peer links to k random
	// partners). Ignored when Membership is set.
	Degree int
	// Node is every peer's template. StartCluster fills Neighbors (or
	// Membership), Seed and Tracer per node.
	Node NodeConfig
	// Server is every server's template: PullRate, Durability
	// and the rest are set here and nowhere else.
	// StartCluster fills Peers (or Membership), Seed, Policy, Tracer and the
	// fleet fields per server. A zero SegmentSize takes Node.SegmentSize.
	// Durability.Dir, when set, is the cluster's root: server j logs under
	// <Dir>/shard-<j>, and with several servers the shared delivery
	// journal is durable at <Dir>/journal.claims, so a restarted shard
	// resumes its collections and never re-delivers a segment the fleet
	// already claimed.
	Server ServerConfig
	// PullPolicy names the servers' pull-scheduling policy (see
	// pullsched.Names). Empty selects "blind", the paper-faithful baseline.
	// Each server gets its own policy instance seeded from the cluster seed.
	PullPolicy string
	// Membership, when non-nil, replaces the static overlay with SWIM gossip
	// membership, using this config as every endpoint's template (Seeds are
	// filled in: the first few peers, with their listen addresses): no
	// random k-neighbor graph is drawn and no server gets a fixed peer
	// roster. Every endpoint runs a failure detector, discovers the rest by
	// rumor, and gossips to whatever the detector currently believes is
	// alive, so peers can join, crash, and rejoin mid-collection.
	Membership *membership.Config
	// Listen opens the transport endpoint id runs on. Nil joins every
	// endpoint to one in-memory Network (Cluster.Network). Otherwise
	// StartCluster listens every endpoint first and then, under a static
	// overlay, tells each transport that keeps an address book
	// (AddRoute) the address (Addr) of every other; under Membership only
	// the seed members' addresses are handed out and SWIM spreads the rest.
	// Wrapping the result, e.g. in a transport.Faulty, needs no further seam.
	Listen func(id transport.NodeID) (transport.Transport, error)
	// OnSegment observes every segment reconstructed by any server. As for
	// Server.OnSegment, the blocks alias decoder memory: do not modify
	// them, and mind that one retained block keeps its storage chunk alive.
	OnSegment func(id rlnc.SegmentID, blocks [][]byte)
	// DebugAddr, when non-empty, serves one debug endpoint for the whole
	// cluster: every node's and server's registry on a shared port,
	// distinguished by the endpoint="..." label. Use ":0" for an ephemeral
	// port; the bound address is on Cluster.Debug.
	DebugAddr string
	// TraceCap, when positive, attaches one shared segment-lifecycle ring
	// tracer of that capacity to every endpoint (available as
	// Cluster.Tracer). Zero disables tracing unless DebugAddr is set, which
	// implies a default-capacity tracer so /debug/snapshot has a trace tail.
	TraceCap int
	// Seed makes the deployment reproducible: the overlay and every
	// endpoint's own seed are drawn from it.
	Seed int64
}

// builderOwned names the first template field StartCluster fills per
// endpoint that the caller set anyway, or "" when the templates are clean.
func (cfg ClusterConfig) builderOwned() string {
	n, s := cfg.Node, cfg.Server
	for _, f := range []struct {
		name string
		set  bool
	}{
		{"Node.Neighbors", n.Neighbors != nil},
		{"Node.Membership", n.Membership != nil},
		{"Node.Seed", n.Seed != 0},
		{"Node.Tracer", n.Tracer != nil},
		{"Server.Peers", s.Peers != nil},
		{"Server.Membership", s.Membership != nil},
		{"Server.Seed", s.Seed != 0},
		{"Server.Policy", s.Policy != nil},
		{"Server.Tracer", s.Tracer != nil},
		{"Server.Shards/ShardID/ShardPeers", s.Shards != 0 || s.ShardID != 0 || s.ShardPeers != nil},
		{"Server.Journal", s.Journal != nil},
		{"Membership.Seeds", cfg.Membership != nil && cfg.Membership.Seeds != nil},
	} {
		if f.set {
			return f.name
		}
	}
	return ""
}

// Cluster is a running in-process deployment.
type Cluster struct {
	// Network is the in-memory fabric every endpoint joined, nil when the
	// config supplied its own Listen.
	Network *transport.Network
	Nodes   []*Node
	Servers []*Server
	// Journal is the fleet's shared delivery journal, nil with one server.
	Journal *fleet.Journal
	// Tracer is the shared segment-lifecycle ring tracer, nil unless
	// TraceCap or DebugAddr was set.
	Tracer *obs.RingTracer
	// Debug is the cluster-wide debug server, nil unless DebugAddr was set.
	Debug *obs.DebugServer

	// journalFile seals the durable delivery journal on Stop, nil unless
	// there are several servers and Server.Durability.Dir was set.
	journalFile io.Closer
}

// defaultClusterTraceCap sizes the shared ring tracer when DebugAddr implies
// one but TraceCap is zero.
const defaultClusterTraceCap = 1 << 12

// Registries returns every endpoint's observability registry, nodes first
// then servers — the set the cluster debug server exposes.
func (c *Cluster) Registries() []*obs.Registry {
	regs := make([]*obs.Registry, 0, len(c.Nodes)+len(c.Servers))
	for _, n := range c.Nodes {
		regs = append(regs, n.Registry())
	}
	for _, s := range c.Servers {
		regs = append(regs, s.Registry())
	}
	return regs
}

// StartCluster builds and starts the whole deployment, its servers a
// sharded fleet when there is more than one. On error, anything already
// started is stopped and every opened transport is closed.
//
// The cluster RNG is consumed in a fixed order (overlay, one seed per node,
// then per server its seed and, for feedback policies only, its policy seed)
// and nothing else draws from it, so a seeded cluster is wired identically
// whatever transport, tracing or durability it runs with.
func StartCluster(cfg ClusterConfig) (*Cluster, error) {
	if cfg.Peers < 2 {
		return nil, fmt.Errorf("live: cluster needs at least 2 peers, got %d", cfg.Peers)
	}
	if cfg.Servers < 1 {
		return nil, fmt.Errorf("live: cluster needs at least 1 server")
	}
	if field := cfg.builderOwned(); field != "" {
		return nil, fmt.Errorf("live: ClusterConfig.%s is filled per endpoint by StartCluster; leave it unset", field)
	}
	srvTmpl := cfg.Server
	if srvTmpl.SegmentSize == 0 {
		srvTmpl.SegmentSize = cfg.Node.SegmentSize
	} else if srvTmpl.SegmentSize != cfg.Node.SegmentSize {
		return nil, fmt.Errorf("live: Server.SegmentSize %d != Node.SegmentSize %d", srvTmpl.SegmentSize, cfg.Node.SegmentSize)
	}
	rng := randx.New(cfg.Seed)
	// Membership mode draws no topology: the overlay is whatever SWIM
	// discovers.
	var graph *topology.Graph
	if cfg.Membership == nil {
		var err error
		graph, err = topology.RandomKNeighbor(cfg.Peers, cfg.Degree, rng)
		if err != nil {
			return nil, err
		}
	}
	c := &Cluster{}
	listen := cfg.Listen
	if listen == nil {
		c.Network = transport.NewNetwork()
		listen = func(id transport.NodeID) (transport.Transport, error) { return c.Network.Join(id), nil }
	}
	// Every endpoint listens before any is built, so the address book (or
	// the SWIM seed list) is complete when the first one starts talking.
	// trs holds peers 1..Peers, then the servers.
	trs := make([]transport.Transport, 0, cfg.Peers+cfg.Servers)
	fail := func(err error) (*Cluster, error) {
		c.Stop()
		for _, tr := range trs {
			tr.Close() //nolint:errcheck // unwinding; endpoints that never started still hold theirs
		}
		return nil, err
	}
	for i := 0; i < cfg.Peers+cfg.Servers; i++ {
		id := transport.NodeID(i + 1)
		if i >= cfg.Peers {
			id = transport.NodeID(serverIDBase + i - cfg.Peers)
		}
		tr, err := listen(id)
		if err != nil {
			return fail(fmt.Errorf("live: listen endpoint %d: %w", id, err))
		}
		trs = append(trs, tr)
		if tr.LocalID() != id {
			return fail(fmt.Errorf("live: Listen(%d) returned a transport for node %d", id, tr.LocalID()))
		}
	}
	// swimCfg stamps a fresh per-endpoint copy of the SWIM template with
	// the shared seed list: the first few peers anchor the gossip. The
	// per-endpoint RNG seed is left for the endpoint to derive.
	var swimSeeds []membership.Member
	if cfg.Membership != nil {
		for i := 0; i < 3 && i < cfg.Peers; i++ {
			m := membership.Member{ID: trs[i].LocalID(), Role: membership.RolePeer}
			if a, ok := trs[i].(addressed); ok {
				m.Addr = a.Addr()
			}
			swimSeeds = append(swimSeeds, m)
		}
	} else {
		exchangeRoutes(trs)
	}
	swimCfg := func() *membership.Config {
		if cfg.Membership == nil {
			return nil
		}
		mc := *cfg.Membership
		mc.Seeds = swimSeeds
		return &mc
	}
	// Tracers draw no randomness, so attaching one cannot perturb the
	// cluster's seeded RNG sequence.
	var tracer obs.Tracer
	if cfg.TraceCap > 0 || cfg.DebugAddr != "" {
		traceCap := cfg.TraceCap
		if traceCap <= 0 {
			traceCap = defaultClusterTraceCap
		}
		c.Tracer = obs.NewRingTracer(traceCap)
		tracer = c.Tracer
	}
	peerIDs := make([]transport.NodeID, cfg.Peers)
	for i, tr := range trs[:cfg.Peers] {
		peerIDs[i] = tr.LocalID()
		nodeCfg := cfg.Node
		nodeCfg.Membership = swimCfg()
		if graph != nil {
			for _, nb := range graph.Neighbors(i) {
				nodeCfg.Neighbors = append(nodeCfg.Neighbors, transport.NodeID(nb+1))
			}
		}
		nodeCfg.Seed = rng.Int63()
		nodeCfg.Tracer = tracer
		node, err := NewNode(tr, nodeCfg)
		if err != nil {
			return fail(err)
		}
		c.Nodes = append(c.Nodes, node)
	}
	root := srvTmpl.Durability.Dir
	if cfg.Servers > 1 {
		if root != "" {
			journal, jf, err := wal.OpenJournal(filepath.Join(root, "journal.claims"), 0)
			if err != nil {
				return fail(err)
			}
			c.Journal = journal
			c.journalFile = jf
		} else {
			c.Journal = fleet.NewJournal(0)
		}
		srvTmpl.Shards = cfg.Servers
		srvTmpl.ShardPeers = make(map[int]transport.NodeID, cfg.Servers)
		for j, tr := range trs[cfg.Peers:] {
			srvTmpl.ShardPeers[j] = tr.LocalID()
		}
		srvTmpl.Journal = c.Journal
	}
	for j, tr := range trs[cfg.Peers:] {
		srvCfg := srvTmpl
		// The server seed is drawn first and the policy seed only for
		// feedback policies, so a blind cluster consumes exactly the same
		// RNG sequence as before pull scheduling existed.
		srvCfg.Seed = rng.Int63()
		var polSeed int64
		if cfg.PullPolicy != "" && cfg.PullPolicy != pullsched.NameBlind {
			polSeed = rng.Int63()
		}
		policy, err := pullsched.New(cfg.PullPolicy, polSeed)
		if err != nil {
			return fail(err)
		}
		srvCfg.Policy = policy
		srvCfg.Membership = swimCfg()
		if srvCfg.Membership == nil {
			srvCfg.Peers = peerIDs
		}
		if cfg.Servers > 1 {
			srvCfg.ShardID = j
		}
		if root != "" {
			srvCfg.Durability.Dir = filepath.Join(root, fmt.Sprintf("shard-%d", j))
		}
		srvCfg.Tracer = tracer
		srv, err := NewServer(tr, srvCfg)
		if err != nil {
			return fail(err)
		}
		srv.OnSegment = cfg.OnSegment
		c.Servers = append(c.Servers, srv)
	}
	for _, n := range c.Nodes {
		if err := n.Start(); err != nil {
			return fail(err)
		}
	}
	for _, s := range c.Servers {
		if err := s.Start(); err != nil {
			return fail(err)
		}
	}
	if cfg.DebugAddr != "" {
		debug, err := obs.Serve(cfg.DebugAddr, c.Registries()...)
		if err != nil {
			return fail(err)
		}
		c.Debug = debug
	}
	return c, nil
}

// exchangeRoutes is the static address book: every transport that keeps
// one learns the listen address of every other transport that has one. On
// the in-memory fabric neither holds and nothing happens.
func exchangeRoutes(trs []transport.Transport) {
	for _, to := range trs {
		a, ok := to.(addressed)
		if !ok || a.Addr() == "" {
			continue
		}
		for _, from := range trs {
			if r, ok := from.(router); ok && from != to {
				r.AddRoute(to.LocalID(), a.Addr())
			}
		}
	}
}

// Stop shuts every server and node down.
func (c *Cluster) Stop() {
	if c.Debug != nil {
		c.Debug.Close() //nolint:errcheck // shutdown path
		c.Debug = nil
	}
	for _, s := range c.Servers {
		s.Stop()
	}
	for _, n := range c.Nodes {
		n.Stop()
	}
	if c.journalFile != nil {
		c.journalFile.Close() //nolint:errcheck // shutdown path
		c.journalFile = nil
	}
}

// Dumps splits the shared tracer's tail into one dump per endpoint, what
// separate processes would have recorded, ready for obs.Assembler to stitch
// cross-endpoint spans. Each dump holds the events whose Actor is that
// endpoint, in ring order, labelled as its registry is ("node-3",
// "server-0"), and ends with that registry's tail; dumps come in the order
// their endpoints first appear in the tail. Nil without a tracer.
func (c *Cluster) Dumps() []obs.ProcessDump {
	if c.Tracer == nil {
		return nil
	}
	var dumps []obs.ProcessDump
	at := make(map[uint64]int)
	for _, ev := range c.Tracer.Tail(c.Tracer.Len()) {
		i, ok := at[ev.Actor]
		if !ok {
			i = len(dumps)
			at[ev.Actor] = i
			dumps = append(dumps, obs.ProcessDump{Label: endpointLabel(transport.NodeID(ev.Actor))})
		}
		dumps[i].Events = append(dumps[i].Events, ev)
	}
	return dumps
}

// TotalDecoded sums decoded segments across servers.
func (c *Cluster) TotalDecoded() int64 {
	var total int64
	for _, s := range c.Servers {
		total += s.Stats().DecodedSegments
	}
	return total
}
