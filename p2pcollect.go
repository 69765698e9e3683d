// Package p2pcollect implements indirect large-scale P2P data collection
// (Niu & Li, ICDCS 2008): instead of uploading vital-statistics logs
// directly to centralized logging servers, peers spread random-linear-
// network-coded blocks of their statistics through gossip, and the servers
// harvest them with a coupon-collector pull loop. The network itself
// becomes a buffering zone, so server bandwidth only needs to cover the
// average statistics rate rather than the peak, and data of departed peers
// remains collectable.
//
// The package is a facade over four layers:
//
//   - Simulate / SimulateBaseline run the discrete-event simulator of the
//     full protocol (gossip, TTLs, buffer caps, churn, servers) and of the
//     traditional direct-pull architecture.
//   - Analyze evaluates the paper's ODE characterization (§3) and Theorems
//     1-4: storage overhead, session throughput, block delay, saved data.
//   - StartCluster boots a live wall-clock deployment of real nodes that
//     gossip actual coded statistics records over in-memory, TCP or UDP
//     transports; logging servers reconstruct the original records.
//   - The experiments package (driven by cmd/collectsim) regenerates every
//     figure and table of the paper's evaluation.
//   - The observability layer (histograms, segment-lifecycle tracing, and a
//     debug HTTP endpoint) instruments both the simulator and live
//     deployments; see NewRingTracer, ServeDebug, and
//     ClusterConfig.DebugAddr.
//
// See README.md for a walkthrough and examples/ for runnable programs.
package p2pcollect

import (
	"io"

	"p2pcollect/internal/analysis"
	"p2pcollect/internal/collect/store/wal"
	"p2pcollect/internal/fleet"
	"p2pcollect/internal/gf256"
	"p2pcollect/internal/live"
	"p2pcollect/internal/membership"
	"p2pcollect/internal/obs"
	"p2pcollect/internal/ode"
	"p2pcollect/internal/pullsched"
	"p2pcollect/internal/randx"
	"p2pcollect/internal/rlnc"
	"p2pcollect/internal/sim"
	"p2pcollect/internal/transport"
)

// Simulation layer.
type (
	// SimConfig parameterizes a discrete-event run of the indirect
	// collection protocol; see the field docs for the paper's notation.
	SimConfig = sim.Config
	// SimResult carries the measurements of a run, in both the paper's
	// state-based accounting and the stricter rank-based one.
	SimResult = sim.Result
	// Simulator is a stepwise simulation handle for callers that need
	// mid-run inspection (invariants, segment views, drain experiments).
	Simulator = sim.Simulator
	// SegmentView is a read-only snapshot of one live segment.
	SegmentView = sim.SegmentView
	// BaselineConfig parameterizes the traditional direct-pull
	// architecture of Fig. 1(a).
	BaselineConfig = sim.BaselineConfig
	// BaselineResult carries the baseline's measurements.
	BaselineResult = sim.BaselineResult
)

// Simulate runs the indirect-collection protocol simulation to its horizon.
func Simulate(cfg SimConfig) (*SimResult, error) { return sim.Run(cfg) }

// NewSimulator builds a stepwise simulator; drive it with RunUntil and read
// Result when done.
func NewSimulator(cfg SimConfig) (*Simulator, error) { return sim.New(cfg) }

// SimulateBaseline runs the traditional direct-pull architecture.
func SimulateBaseline(cfg BaselineConfig) (*BaselineResult, error) {
	return sim.RunBaseline(cfg)
}

// Analysis layer.
type (
	// ModelParams are the ODE model parameters (λ, μ, γ, c, s).
	ModelParams = ode.Params
	// SteadyState is the fixed point of the z/w/m ODE systems.
	SteadyState = ode.SteadyState
	// Analysis bundles Theorems 1-4 for one parameter setting.
	Analysis = analysis.Metrics
)

// Analyze solves the steady-state ODE systems for p and evaluates the
// paper's theorems.
func Analyze(p ModelParams) (*Analysis, error) { return analysis.Compute(p) }

// SolveODE returns the raw steady state (degree distributions and the
// collection matrix) for callers that need more than the headline metrics.
func SolveODE(p ModelParams) (*SteadyState, error) { return ode.Solve(p) }

// NonCodingThroughput evaluates Theorem 2's closed form for s = 1: the
// normalized session throughput 1 − 1/θ₊.
func NonCodingThroughput(lambda, mu, gamma, c float64) (float64, error) {
	return analysis.ThroughputNonCoding(lambda, mu, gamma, c)
}

// Live deployment layer.
type (
	// NodeConfig parameterizes one live peer (rates per second).
	NodeConfig = live.NodeConfig
	// Node is a running live peer.
	Node = live.Node
	// ServerConfig parameterizes one live logging server.
	ServerConfig = live.ServerConfig
	// Server is a running live logging server. Its OnSegment callback
	// gets each decoded segment's blocks as views of decoder memory, valid
	// and unchanged for good: do not modify them, and copy any you keep
	// long, since one retained block keeps its storage chunk alive.
	Server = live.Server
	// ClusterConfig describes an in-process deployment: its shape (Peers,
	// Servers, Degree, Fleet, Membership), one template per role (Node,
	// Server — every protocol knob is set there and nowhere else), and the
	// transport each endpoint listens on (Listen; nil is an in-memory
	// network).
	ClusterConfig = live.ClusterConfig
	// Cluster is a running in-process deployment.
	Cluster = live.Cluster
	// NodeID identifies a node on a transport.
	NodeID = transport.NodeID
	// Transport moves protocol messages; implementations include the
	// in-memory Network and TCP (NewTCPTransport).
	Transport = transport.Transport
	// Network is the in-memory message fabric.
	Network = transport.Network
	// TCPOptions tunes the TCP transport's dial/write deadlines, outbox
	// bound, and reconnect backoff.
	TCPOptions = transport.TCPOptions
	// FaultConfig parameterizes injected transport faults (loss, latency,
	// partitions) for chaos testing.
	FaultConfig = transport.FaultConfig
	// FaultPartition is one scheduled partition window.
	FaultPartition = transport.FaultPartition
	// FaultyTransport wraps any Transport with seeded fault injection.
	FaultyTransport = transport.Faulty
	// SegmentID identifies a coded segment network-wide.
	SegmentID = rlnc.SegmentID
	// PullPolicy schedules a live server's pulls: which peer to probe and,
	// optionally, which segment to ask for. See NewPullPolicy.
	PullPolicy = pullsched.Policy
	// DeliveryJournal is a fleet's shared delivery-dedup: whichever shard
	// first reaches full rank on a segment claims it, so OnSegment fires
	// exactly once fleet-wide. Share one journal across every in-process
	// shard (ClusterConfig.Fleet does this for you); separate processes
	// each run their own and rely on completion notices for best-effort
	// cross-process dedup.
	DeliveryJournal = fleet.Journal
	// Durability configures a live server's write-ahead log (set it on
	// ServerConfig.Durability): where the log lives, the fsync policy, and
	// how often decoder state is snapshotted. A server restarted over the
	// same directory recovers every open segment at its pre-crash rank. On
	// ClusterConfig.Server, Dir is the cluster's root: server j logs under
	// <Dir>/shard-<j>.
	Durability = wal.Config
	// WALSyncMode selects when appended WAL records reach disk:
	// WALSyncInterval (group commit, the default), WALSyncNone, or
	// WALSyncAlways.
	WALSyncMode = wal.SyncMode
	// WALRecoveryStats reports what a restarted server reconstructed from
	// its WAL directory (Server.Service().Recovery()).
	WALRecoveryStats = wal.RecoveryStats
)

// WAL fsync policies for Durability.Sync.
const (
	WALSyncInterval = wal.SyncInterval
	WALSyncNone     = wal.SyncNone
	WALSyncAlways   = wal.SyncAlways
)

// ParseWALSyncMode parses "none", "interval", or "always" (the -wal-sync
// flag vocabulary; "" selects interval).
func ParseWALSyncMode(s string) (WALSyncMode, error) { return wal.ParseSyncMode(s) }

// ServerRecovery reports what a durable server reconstructed from its WAL
// directory when it was built, and whether the server is durable at all.
func ServerRecovery(s *Server) (WALRecoveryStats, bool) { return s.Service().Recovery() }

// OpenDeliveryJournal opens (or recovers) a durable delivery journal at
// path: every claim is persisted and fsynced before the segment is
// delivered, so a fleet shard restarted over the same file never delivers
// a segment twice. Close the returned Closer when the fleet stops.
func OpenDeliveryJournal(path string, cap int) (*DeliveryJournal, io.Closer, error) {
	j, jf, err := wal.OpenJournal(path, cap)
	if err != nil {
		return nil, nil, err
	}
	return j, jf, nil
}

// NewDeliveryJournal returns a delivery journal remembering up to cap
// segments (cap <= 0 selects a ~1M-entry default). Set it on
// ServerConfig.Journal for every shard of a fleet.
func NewDeliveryJournal(cap int) *DeliveryJournal { return fleet.NewJournal(cap) }

// StartCluster boots an in-process live deployment: peers on a random
// overlay (or SWIM membership) plus logging servers, all running real
// protocol loops over the transport cfg.Listen opens. It fills in what
// differs per endpoint (IDs, neighbors, seeds, shard coordinates) and
// rejects a template that sets one of those fields; Node.Config and
// Server.Config return the result, so a restart is NewServer(tr,
// old.Config()).
func StartCluster(cfg ClusterConfig) (*Cluster, error) { return live.StartCluster(cfg) }

// NewNetwork returns an in-memory transport fabric for live nodes.
func NewNetwork() *Network { return transport.NewNetwork() }

// NewNode builds a live peer over the given transport.
func NewNode(tr Transport, cfg NodeConfig) (*Node, error) { return live.NewNode(tr, cfg) }

// NewServer builds a live logging server over the given transport.
func NewServer(tr Transport, cfg ServerConfig) (*Server, error) { return live.NewServer(tr, cfg) }

// CodingKernel reports which GF(2^8) slice-kernel implementation this build
// selected: "gfni" (VGF2P8AFFINEQB vector assembly, with recodes and
// eliminations fused into one pass per stripe, on amd64 CPUs with GFNI and
// AVX2), "avx2" (VPSHUFB vector assembly on amd64 CPUs with AVX2 but not
// GFNI), "nibble" (portable word-at-a-time nibble tables: every other
// architecture, and amd64 CPUs without AVX2), or "ref" (the scalar
// reference build, selected with -tags gf256ref). All coding throughput —
// recoding on peers, elimination and decoding on servers — runs on these
// kernels.
func CodingKernel() string { return gf256.Kernel() }

// NewTCPTransport starts a TCP transport for id on addr (":0" for an
// ephemeral port) with an address book mapping node IDs to addresses and
// default liveness options.
func NewTCPTransport(id NodeID, addr string, book map[NodeID]string) (*transport.TCPTransport, error) {
	return transport.ListenTCP(id, addr, book)
}

// NewTCPTransportOpts is NewTCPTransport with explicit dial/write deadline,
// outbox, and reconnect-backoff options.
func NewTCPTransportOpts(id NodeID, addr string, book map[NodeID]string, opts TCPOptions) (*transport.TCPTransport, error) {
	return transport.ListenTCPOpts(id, addr, book, opts)
}

type (
	// UDPOptions tunes the datagram transport's maximum datagram size
	// (MTU guard) and outbox bound.
	UDPOptions = transport.UDPOptions
	// MembershipConfig parameterizes the SWIM failure detector a node or
	// server runs when NodeConfig.Membership / ServerConfig.Membership is
	// set: seed members, probe period, suspicion timeout, the probe-order
	// seed and a status callback. The zero value (plus Seeds) accepts the
	// defaults.
	MembershipConfig = membership.Config
	// Member is one endpoint in the membership gossip: its transport ID,
	// dialable address (empty on the in-memory fabric), and role.
	Member = membership.Member
	// MemberRole distinguishes gossip peers from logging servers in the
	// membership gossip; only MemberPeer members enter gossip and pull
	// target sets.
	MemberRole = membership.Role
	// MemberStatus is a member's detector state: alive, suspect, dead, or
	// left. Node/Server.AliveMembers and MemberStatus(id) read the local
	// view of an endpoint running the detector.
	MemberStatus = membership.Status
)

// Membership roles and statuses.
const (
	MemberPeer    = membership.RolePeer
	MemberServer  = membership.RoleServer
	MemberAlive   = membership.StatusAlive
	MemberSuspect = membership.StatusSuspect
	MemberDead    = membership.StatusDead
	MemberLeft    = membership.StatusLeft
)

// NewUDPTransport starts the datagram transport for id on addr (":0" for
// an ephemeral port). Every protocol message rides one fire-and-forget UDP
// datagram: no connections, no retransmission — RLNC's coded redundancy is
// the loss recovery. Frames larger than the configured max datagram are
// dropped (and counted) rather than fragmented, and routes are learned
// from the source address of incoming datagrams on top of the book, so a
// static book is optional when SWIM membership is running.
func NewUDPTransport(id NodeID, addr string, book map[NodeID]string) (*transport.UDPTransport, error) {
	return transport.ListenUDP(id, addr, book)
}

// NewUDPTransportOpts is NewUDPTransport with explicit datagram-size and
// outbox options.
func NewUDPTransportOpts(id NodeID, addr string, book map[NodeID]string, opts UDPOptions) (*transport.UDPTransport, error) {
	return transport.ListenUDPOpts(id, addr, book, opts)
}

// PullPolicies lists the built-in pull-scheduling policy names: "blind"
// (the paper-faithful baseline), "rankgreedy", and "rarest". The same
// names select a policy in SimConfig.PullPolicy and
// ClusterConfig.PullPolicy.
func PullPolicies() []string { return pullsched.Names() }

// NewPullPolicy builds a named pull-scheduling policy for a live server
// ("" selects blind). Policies are stateful: give each server its own
// instance, seeded for reproducible tie-breaking.
func NewPullPolicy(name string, seed int64) (PullPolicy, error) { return pullsched.New(name, seed) }

// NewFaultyTransport wraps a transport with seeded fault injection —
// random loss, a latency distribution, and a partition schedule — for
// rehearsing failure against the exact production code paths. On a cluster,
// wrap inside ClusterConfig.Listen.
func NewFaultyTransport(inner Transport, cfg FaultConfig, seed int64) *FaultyTransport {
	return transport.NewFaulty(inner, cfg, randx.New(seed))
}

// Observability layer.
type (
	// Tracer receives segment-lifecycle milestones (inject, gossip hops,
	// rank growth, delivery, decode) from the simulator or live endpoints.
	Tracer = obs.Tracer
	// RingTracer is the bounded in-memory Tracer; query it to reconstruct
	// where a segment's time went.
	RingTracer = obs.RingTracer
	// TraceEvent is one recorded segment-lifecycle milestone.
	TraceEvent = obs.TraceEvent
	// TraceKind classifies a TraceEvent.
	TraceKind = obs.TraceKind
	// SegmentTrace is one segment's recorded lifecycle; Phases breaks it
	// into named spans (inject→firstHop, inject→delivered, ...).
	SegmentTrace = obs.SegmentTrace
	// ObsRegistry is one endpoint's observability registry: counters,
	// histograms and gauges (state gauges are read when the snapshot is
	// taken). Snapshot is the only way out of it; the JSON document, the
	// Prometheus text and Stats().Protocol are all derived from that.
	ObsRegistry = obs.Registry
	// DebugServer is a running debug HTTP endpoint (Prometheus /metrics,
	// JSON /debug/snapshot, pprof).
	DebugServer = obs.DebugServer
	// TraceContext is the sampled lineage a traced block carries on the
	// wire: a cluster-unique ID plus a hop count. Enable sampling with
	// SimConfig.TraceSample or NodeConfig.TraceSample.
	TraceContext = obs.TraceContext
	// ProcessDump is one process's trace contribution — a labeled event
	// batch from a ring tail, flight recorder, or saved snapshot — fed to
	// an Assembler (see Cluster.Dumps and ClusterConfig.PerEndpointTrace).
	ProcessDump = obs.ProcessDump
	// Span is one sampled segment's stitched end-to-end story across
	// every process that touched it, with per-hop latency attribution.
	Span = obs.Span
	// Assembler stitches per-process dumps into Spans, one per lineage.
	Assembler = obs.Assembler
	// FlightRecorder is the always-on crash black box every live server
	// carries; CrashStop and loop panics dump it next to the WAL.
	FlightRecorder = obs.FlightRecorder
	// ObsSnapshot is one registry's scraped state — the single read model
	// of the telemetry; MergeSnapshots folds many into a cluster view.
	ObsSnapshot = obs.Snapshot
)

// Segment-lifecycle milestone kinds recorded by tracers.
const (
	TraceInject      = obs.TraceInject
	TraceGossipHop   = obs.TraceGossipHop
	TraceServerRank  = obs.TraceServerRank
	TraceDelivered   = obs.TraceDelivered
	TraceDecoded     = obs.TraceDecoded
	TracePurged      = obs.TracePurged
	TraceExchanged   = obs.TraceExchanged
	TraceServerStart = obs.TraceServerStart
	TraceServerStop  = obs.TraceServerStop
	TraceServerCrash = obs.TraceServerCrash
)

// NewRingTracer returns a bounded segment-lifecycle tracer holding the last
// capacity events. Attach it via SimConfig.Tracer, NodeConfig.Tracer, or
// ServerConfig.Tracer; ClusterConfig.TraceCap attaches a shared one to every
// endpoint.
func NewRingTracer(capacity int) *RingTracer { return obs.NewRingTracer(capacity) }

// NewAssembler returns an empty span assembler: Add one ProcessDump per
// process, then Assemble into end-to-end Spans.
func NewAssembler() *Assembler { return obs.NewAssembler() }

// MergeSnapshots folds per-endpoint registry snapshots into one cluster
// view: counters and gauges sum, histograms merge bucket-wise with
// recomputed percentiles. cmd/obstool does this over live /debug/snapshot
// scrapes.
func MergeSnapshots(label string, snaps ...ObsSnapshot) ObsSnapshot {
	return obs.MergeSnapshots(label, snaps...)
}

// ReadFlightDump decodes a crash flight-recorder dump file, tolerating a
// tail torn by the dying process. cmd/obstool postmortem renders one
// alongside the WAL recovery stats.
func ReadFlightDump(path string) ([]TraceEvent, error) { return obs.ReadFlightDumpFile(path) }

// ServeDebug serves the given registries on one debug HTTP address (":0"
// for an ephemeral port): Prometheus text on /metrics, a JSON snapshot on
// /debug/snapshot, and pprof under /debug/pprof/. Registries are
// distinguished by their endpoint label. Close the returned server when
// done.
func ServeDebug(addr string, regs ...*ObsRegistry) (*DebugServer, error) {
	return obs.Serve(addr, regs...)
}
