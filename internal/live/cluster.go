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

// ClusterConfig describes an in-process deployment: N peers on a random
// k-neighbor overlay plus a set of logging servers, all connected through
// one in-memory network.
type ClusterConfig struct {
	// Peers is the number of nodes.
	Peers int
	// Servers is the number of logging servers.
	Servers int
	// Degree is the overlay parameter k (each peer links to k random
	// partners).
	Degree int
	// Node is the template configuration; Neighbors and Seed are filled per
	// node.
	Node NodeConfig
	// PullRate is each server's c_s in pulls/second.
	PullRate float64
	// PullPolicy names the servers' pull-scheduling policy (see
	// pullsched.Names). Empty selects "blind", the paper-faithful baseline.
	// Each server gets its own policy instance seeded from the cluster seed.
	PullPolicy string
	// OnSegment observes every segment reconstructed by any server.
	OnSegment func(id rlnc.SegmentID, blocks [][]byte)
	// DecodeWorkers gives every server a decode worker pool of this size
	// (see ServerConfig.DecodeWorkers). Zero keeps decodes synchronous.
	DecodeWorkers int
	// Fleet runs the servers as a sharded fleet: a consistent-hash ring
	// partitions the segment space across them, misrouted blocks are
	// recoded and exchanged server-to-server, and a shared delivery
	// journal makes OnSegment exactly-once across the fleet. With one
	// server the fleet machinery is inert and the run is byte-identical
	// to a standalone cluster.
	Fleet bool
	// WrapTransport, when set, wraps every endpoint's transport before the
	// node or server is built — e.g. in a transport.Faulty for chaos
	// testing. The callback sees the endpoint's LocalID and may return the
	// transport unchanged.
	WrapTransport func(transport.Transport) transport.Transport
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
	// TraceSample is every node's wire-level trace sampling rate (see
	// NodeConfig.TraceSample). Zero keeps the cluster's frames byte-
	// identical to a build without tracing.
	TraceSample float64
	// PerEndpointTrace gives every endpoint its own private ring tracer
	// (capacity TraceCap, or the default) instead of the shared one, the
	// way separate processes would record. Cluster.Dumps then returns one
	// labelled dump per endpoint, ready for obs.Assembler to stitch
	// cross-endpoint spans.
	PerEndpointTrace bool
	// Membership replaces the static overlay with SWIM gossip membership:
	// no random k-neighbor graph is drawn and no server gets a fixed peer
	// roster. Instead every endpoint runs a failure detector seeded with
	// the first few peer IDs, discovers the rest by rumor, and gossips to
	// whatever the detector currently believes is alive — so peers can
	// join, crash, and rejoin mid-collection. Degree is ignored in this
	// mode.
	Membership bool
	// MembershipTuning, when Membership is set, is the SWIM config template
	// applied to every endpoint (Seeds and the RNG seed are filled per
	// endpoint). Nil accepts the membership package defaults.
	MembershipTuning *membership.Config
	// Durability, when Dir is non-empty, gives every server a write-ahead
	// log under <Dir>/shard-<j> with the configured sync policy, and — in
	// fleet mode — makes the shared delivery journal durable at
	// <Dir>/journal.claims, so a restarted shard resumes its collections
	// and never re-delivers a segment the fleet already claimed.
	Durability wal.Config
	// Seed makes the deployment reproducible.
	Seed int64
}

// Cluster is a running in-process deployment.
type Cluster struct {
	Network *transport.Network
	Nodes   []*Node
	Servers []*Server
	// Journal is the fleet's shared delivery journal, nil unless Fleet.
	Journal *fleet.Journal
	// Tracer is the shared segment-lifecycle ring tracer, nil unless
	// TraceCap or DebugAddr was set.
	Tracer *obs.RingTracer
	// Debug is the cluster-wide debug server, nil unless DebugAddr was set.
	Debug *obs.DebugServer

	// journalFile seals the durable delivery journal on Stop, nil unless
	// both Fleet and Durability.Dir were set.
	journalFile io.Closer

	// perEndpoint holds each endpoint's private ring tracer when
	// PerEndpointTrace was set, in Registries() order (nodes then servers).
	perEndpoint []tracedEndpoint
}

// tracedEndpoint pairs an endpoint label with its private ring tracer.
type tracedEndpoint struct {
	label string
	ring  *obs.RingTracer
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

// StartCluster builds and starts the whole deployment. On error, anything
// already started is stopped.
func StartCluster(cfg ClusterConfig) (*Cluster, error) {
	if cfg.Peers < 2 {
		return nil, fmt.Errorf("live: cluster needs at least 2 peers, got %d", cfg.Peers)
	}
	if cfg.Servers < 1 {
		return nil, fmt.Errorf("live: cluster needs at least 1 server")
	}
	rng := randx.New(cfg.Seed)
	// Membership mode draws no topology: the overlay is whatever SWIM
	// discovers. Static mode keeps the exact RNG sequence of every prior
	// release, so seeded goldens stay byte-identical.
	var graph *topology.Graph
	if !cfg.Membership {
		var err error
		graph, err = topology.RandomKNeighbor(cfg.Peers, cfg.Degree, rng)
		if err != nil {
			return nil, err
		}
	}
	// swimCfg stamps a fresh per-endpoint copy of the SWIM template with
	// the shared seed list. The first few peer IDs anchor the gossip; the
	// per-endpoint RNG seed is left for the endpoint to derive.
	var swimSeeds []membership.Member
	if cfg.Membership {
		n := cfg.Peers
		if n > 3 {
			n = 3
		}
		for i := 0; i < n; i++ {
			swimSeeds = append(swimSeeds, membership.Member{ID: transport.NodeID(i + 1), Role: membership.RolePeer})
		}
	}
	swimCfg := func() *membership.Config {
		var mc membership.Config
		if cfg.MembershipTuning != nil {
			mc = *cfg.MembershipTuning
		}
		mc.Seeds = swimSeeds
		return &mc
	}
	c := &Cluster{Network: transport.NewNetwork()}
	// The shared tracer draws no randomness, so attaching it cannot perturb
	// the cluster's seeded RNG sequence.
	if cfg.TraceCap > 0 {
		c.Tracer = obs.NewRingTracer(cfg.TraceCap)
	} else if cfg.DebugAddr != "" {
		c.Tracer = obs.NewRingTracer(defaultClusterTraceCap)
	}
	fail := func(err error) (*Cluster, error) {
		c.Stop()
		return nil, err
	}
	join := func(id transport.NodeID) transport.Transport {
		tr := c.Network.Join(id)
		if cfg.WrapTransport != nil {
			tr = cfg.WrapTransport(tr)
		}
		return tr
	}
	// endpointTracer resolves which tracer an endpoint records into: its own
	// private ring (PerEndpointTrace), the shared cluster ring, or none.
	// Tracers draw no randomness, so neither choice perturbs seeded runs.
	endpointTracer := func(id transport.NodeID) obs.Tracer {
		if !cfg.PerEndpointTrace {
			if c.Tracer != nil {
				return c.Tracer
			}
			return nil
		}
		capacity := cfg.TraceCap
		if capacity <= 0 {
			capacity = defaultClusterTraceCap
		}
		rt := obs.NewRingTracer(capacity)
		c.perEndpoint = append(c.perEndpoint, tracedEndpoint{label: endpointLabel(id), ring: rt})
		return rt
	}
	for i := 0; i < cfg.Peers; i++ {
		nodeCfg := cfg.Node
		if cfg.Membership {
			nodeCfg.Membership = swimCfg()
		} else {
			for _, nb := range graph.Neighbors(i) {
				nodeCfg.Neighbors = append(nodeCfg.Neighbors, transport.NodeID(nb+1))
			}
		}
		nodeCfg.Seed = rng.Int63()
		nodeCfg.TraceSample = cfg.TraceSample
		if tr := endpointTracer(transport.NodeID(i + 1)); tr != nil {
			nodeCfg.Tracer = tr
		}
		node, err := NewNode(join(transport.NodeID(i+1)), nodeCfg)
		if err != nil {
			return fail(err)
		}
		c.Nodes = append(c.Nodes, node)
	}
	peerIDs := make([]transport.NodeID, cfg.Peers)
	for i := range peerIDs {
		peerIDs[i] = transport.NodeID(i + 1)
	}
	var shardPeers map[int]transport.NodeID
	if cfg.Fleet {
		if cfg.Durability.Dir != "" {
			journal, jf, err := wal.OpenJournal(filepath.Join(cfg.Durability.Dir, "journal.claims"), 0)
			if err != nil {
				return fail(err)
			}
			c.Journal = journal
			c.journalFile = jf
		} else {
			c.Journal = fleet.NewJournal(0)
		}
		shardPeers = make(map[int]transport.NodeID, cfg.Servers)
		for j := 0; j < cfg.Servers; j++ {
			shardPeers[j] = transport.NodeID(serverIDBase + j)
		}
	}
	for j := 0; j < cfg.Servers; j++ {
		// The server seed is drawn first and the policy seed only for
		// feedback policies, so a blind cluster consumes exactly the same
		// RNG sequence as before pull scheduling existed.
		srvSeed := rng.Int63()
		var polSeed int64
		if cfg.PullPolicy != "" && cfg.PullPolicy != pullsched.NameBlind {
			polSeed = rng.Int63()
		}
		policy, err := pullsched.New(cfg.PullPolicy, polSeed)
		if err != nil {
			return fail(err)
		}
		srvCfg := ServerConfig{
			PullRate:       cfg.PullRate,
			Peers:          peerIDs,
			SegmentSize:    cfg.Node.SegmentSize,
			Seed:           srvSeed,
			Policy:         policy,
			SampleInterval: cfg.Node.SampleInterval,
			DecodeWorkers:  cfg.DecodeWorkers,
		}
		if cfg.Membership {
			srvCfg.Peers = nil
			srvCfg.Membership = swimCfg()
		}
		if cfg.Fleet {
			srvCfg.Shards = cfg.Servers
			srvCfg.ShardID = j
			srvCfg.ShardPeers = shardPeers
			srvCfg.Journal = c.Journal
		}
		if cfg.Durability.Dir != "" {
			srvCfg.Durability = cfg.Durability
			srvCfg.Durability.Dir = filepath.Join(cfg.Durability.Dir, fmt.Sprintf("shard-%d", j))
		}
		if tr := endpointTracer(transport.NodeID(serverIDBase + j)); tr != nil {
			srvCfg.Tracer = tr
		}
		srv, err := NewServer(join(transport.NodeID(serverIDBase+j)), srvCfg)
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
		debug, err := obs.Serve(cfg.DebugAddr, obs.NewGroup(c.Registries()...))
		if err != nil {
			return fail(err)
		}
		c.Debug = debug
	}
	return c, nil
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

// Dumps collects every endpoint's recorded trace events as labelled
// per-process dumps for obs.Assembler. With PerEndpointTrace it returns
// one dump per endpoint; with only the shared tracer, a single "cluster"
// dump; otherwise nil.
func (c *Cluster) Dumps() []obs.ProcessDump {
	if len(c.perEndpoint) > 0 {
		dumps := make([]obs.ProcessDump, 0, len(c.perEndpoint))
		for _, e := range c.perEndpoint {
			dumps = append(dumps, obs.ProcessDump{Label: e.label, Events: e.ring.Tail(e.ring.Len())})
		}
		return dumps
	}
	if c.Tracer != nil {
		return []obs.ProcessDump{{Label: "cluster", Events: c.Tracer.Tail(c.Tracer.Len())}}
	}
	return nil
}

// TotalDecoded sums decoded segments across servers.
func (c *Cluster) TotalDecoded() int64 {
	var total int64
	for _, s := range c.Servers {
		total += s.Stats().DecodedSegments
	}
	return total
}
