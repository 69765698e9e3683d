// Package sim implements the paper's indirect data-collection system as a
// discrete-event simulation: peers generating statistics segments, random
// linear network coding gossip with per-block TTLs and bounded buffers,
// coupon-collector logging servers, the replacement-model churn of [7,8],
// and the traditional direct-pull baseline of Fig. 1(a).
//
// All four protocol operations of §3 (segment injection, block encoding and
// transfer, block deletion, server collection) are event processes with
// exactly the exponential rates the ODE model assumes, but blocks carry real
// GF(2^8) coefficient vectors, so linear-dependence losses that the
// analysis idealizes away are captured faithfully.
package sim

import (
	"errors"
	"fmt"

	"p2pcollect/internal/obs"
	"p2pcollect/internal/pullsched"
)

// Default protocol parameters used when a Config field is zero.
const (
	DefaultBufferCap  = 512
	DefaultNumServers = 4
	DefaultWarmup     = 20.0
	DefaultHorizon    = 60.0
)

// sampleInterval spaces the periodic state samples behind the per-peer time
// averages (AvgBlocksPerPeer, AvgNonEmptyFrac, SavedPerPeer).
const sampleInterval = 0.25

// Config parameterizes one simulation run. The field names follow the
// paper's notation.
type Config struct {
	// N is the number of peers in the session.
	N int
	// Lambda is the per-peer statistics generation rate in blocks per unit
	// time (segments are injected at rate Lambda/SegmentSize).
	Lambda float64
	// Mu is the per-peer gossip upload bandwidth in blocks per unit time.
	Mu float64
	// Gamma is the per-block deletion rate; block TTLs are Exp(Gamma), mean
	// 1/Gamma.
	Gamma float64
	// SegmentSize is s, the number of original blocks coded together.
	// SegmentSize 1 is the non-coding case.
	SegmentSize int
	// BufferCap is B, the maximum number of coded blocks a peer stores.
	BufferCap int
	// C is the normalized aggregate server capacity c = c_s·N_s/N, in
	// pulled blocks per peer per unit time.
	C float64
	// NumServers is N_s; each server pulls at rate c_s = C·N/NumServers.
	NumServers int
	// ChurnMeanLifetime is L, the mean of the exponential peer lifetime in
	// the replacement model. Zero disables churn.
	ChurnMeanLifetime float64
	// Degree is the overlay parameter k: each peer initiates connections to
	// k random partners (degrees concentrate near 2k). Zero selects a full
	// mesh, matching the mean-field assumption of the analysis.
	Degree int
	// PayloadLen is the byte length of each block's payload. Zero simulates
	// coding structure only (coefficients without data), which is what the
	// figure harness uses; positive values carry real logdata payloads.
	PayloadLen int
	// MeanFieldSampling switches the gossip-source and server-pull segment
	// choice from the literal protocol of §2 (uniform over the distinct
	// segments of a uniformly chosen peer) to the degree-proportional
	// sampling the ODE analysis of §3 assumes (a uniformly random *block*
	// network-wide). Use it to ablate the mean-field approximation; it
	// requires a full-mesh overlay (Degree == 0).
	MeanFieldSampling bool
	// IndependentServers removes the server collaboration the paper
	// assumes: each of the NumServers keeps its own per-segment collection
	// state (and decoder basis), and a segment is delivered when any single
	// server completes it. The default (false) models the paper's
	// collaborating servers whose collected blocks pool into one state. The
	// A3 ablation quantifies the difference.
	IndependentServers bool
	// ServerFeedback enables an extension the paper leaves open: when the
	// servers finish collecting a segment, peers immediately evict its
	// remaining blocks instead of letting them circulate until TTL expiry.
	// This models an idealized (zero-latency, zero-cost) feedback channel
	// and upper-bounds the benefit of purging delivered data; the A2
	// ablation quantifies it.
	ServerFeedback bool
	// PullPolicy selects the server pull-scheduling policy by
	// internal/pullsched registry name: "blind" (the paper's §2 behavior,
	// and the default when empty) or "rarest". Blind adds no
	// RNG draws of its own, so a seeded run with PullPolicy empty or
	// "blind" reproduces the pre-scheduling simulator byte for byte.
	PullPolicy string
	// InjectUntil stops segment injection at the given simulated time; zero
	// means injection runs for the whole simulation. Used by the
	// post-session drain experiment (Theorem 4).
	InjectUntil float64
	// Tracer receives segment-lifecycle milestones (injection, gossip hops,
	// server rank increments, delivery, decode, purge) on the simulated
	// clock. Nil disables tracing; the hooks then cost a single interface
	// call and draw no randomness, so seeded runs stay byte-identical.
	// Events carry no lineage ID: in one process the segment ID names them.
	Tracer obs.Tracer
	// Warmup is the time after which measurements are collected.
	Warmup float64
	// Horizon is the total simulated duration.
	Horizon float64
	// Seed makes the run reproducible.
	Seed int64
}

// withDefaults returns a copy with zero fields replaced by defaults.
func (c Config) withDefaults() Config {
	if c.BufferCap == 0 {
		c.BufferCap = DefaultBufferCap
	}
	if c.NumServers == 0 {
		c.NumServers = DefaultNumServers
	}
	if c.Warmup == 0 {
		c.Warmup = DefaultWarmup
	}
	if c.Horizon == 0 {
		c.Horizon = DefaultHorizon
	}
	return c
}

// validate reports the first problem with the configuration.
func (c Config) validate() error {
	switch {
	case c.N < 2:
		return fmt.Errorf("sim: N = %d, need at least 2 peers", c.N)
	case c.Lambda < 0:
		return errors.New("sim: negative Lambda")
	case c.Mu < 0:
		return errors.New("sim: negative Mu")
	case c.Gamma <= 0:
		return errors.New("sim: Gamma must be positive")
	case c.SegmentSize < 1:
		return fmt.Errorf("sim: SegmentSize = %d, need >= 1", c.SegmentSize)
	case c.BufferCap < c.SegmentSize:
		return fmt.Errorf("sim: BufferCap %d < SegmentSize %d", c.BufferCap, c.SegmentSize)
	case c.C < 0:
		return errors.New("sim: negative C")
	case c.NumServers < 1:
		return errors.New("sim: need at least one server")
	case c.ChurnMeanLifetime < 0:
		return errors.New("sim: negative ChurnMeanLifetime")
	case c.Degree < 0 || c.Degree > c.N-1:
		return fmt.Errorf("sim: Degree %d infeasible for N=%d", c.Degree, c.N)
	case c.PayloadLen < 0:
		return errors.New("sim: negative PayloadLen")
	case c.Warmup >= c.Horizon:
		return fmt.Errorf("sim: Warmup %v >= Horizon %v", c.Warmup, c.Horizon)
	case c.MeanFieldSampling && c.Degree != 0:
		return errors.New("sim: MeanFieldSampling requires a full-mesh overlay (Degree == 0)")
	case !pullsched.Known(c.PullPolicy):
		return fmt.Errorf("sim: unknown PullPolicy %q (have %v)", c.PullPolicy, pullsched.Names())
	}
	return nil
}

// Result aggregates the measurements of one run. Rates are per unit
// simulated time; per-peer quantities are time averages over the
// measurement window [Warmup, Horizon].
type Result struct {
	Config Config

	// Window is the length of the measurement window.
	Window float64

	// InjectedSegments and InjectedBlocks count injections over the whole
	// run; SuppressedInjections counts injections skipped because the
	// peer's buffer was above B−s.
	InjectedSegments     int64
	InjectedBlocks       int64
	SuppressedInjections int64

	// The paper's server model advances a per-segment collection state on
	// every pull while the state is below s (§3, "Server Collection") and
	// defines session throughput as the rate of such useful pulls
	// (Theorem 2). DeliveredSegments counts segments whose state reached s
	// inside the window; Throughput is the useful-pull rate in blocks per
	// unit time; NormalizedThroughput divides by N·Lambda (the figures'
	// y-axis).
	DeliveredSegments    int64
	UsefulPulls          int64
	Throughput           float64
	NormalizedThroughput float64
	// DeliveredNormalizedThroughput is DeliveredSegments·s/Window over
	// N·Lambda: the rate of *completed* segments, which is the comparable
	// quantity between collaborating and independent server modes.
	DeliveredNormalizedThroughput float64

	// MeanSegmentDelay is the mean injection→state-s delay of segments
	// delivered in the window; MeanBlockDelay divides by s (the paper's
	// block delay T of Theorem 3).
	MeanSegmentDelay float64
	MeanBlockDelay   float64

	// Rank-based accounting is the stricter ground truth this
	// implementation adds: a pull only counts when the received coded block
	// is linearly innovative to the server's basis, and a segment counts as
	// decoded only at full rank s (actually reconstructable). The gap to
	// the state-based numbers quantifies how much the paper's counting
	// idealizes away linear-dependence losses.
	RankDecodedSegments      int64
	InnovativePulls          int64
	RankThroughput           float64
	RankNormalizedThroughput float64
	MeanRankBlockDelay       float64

	// AvgBlocksPerPeer estimates ρ, AvgNonEmptyFrac estimates 1−z̃_0, and
	// StorageOverhead estimates ρ − λ/γ (Theorem 1).
	AvgBlocksPerPeer float64
	AvgNonEmptyFrac  float64
	StorageOverhead  float64

	// SavedPerPeer estimates Fig. 6's quantity: original blocks per peer
	// buffered in decodable (degree ≥ s) segments whose collection state
	// has not reached s yet.
	SavedPerPeer float64

	// LostSegments counts segments extinct before their collection state
	// reached s; RankLostSegments counts extinctions before full server
	// rank (whole run).
	LostSegments     int64
	RankLostSegments int64

	// Server-side accounting over the whole run.
	ServerPulls    int64
	RedundantPulls int64

	// OrphanedSegments counts segments whose origin departed before the
	// servers finished collecting them; PostmortemDelivered counts how many
	// of those the indirect mechanism still delivered afterwards — data a
	// direct-pull architecture loses by construction (whole run).
	OrphanedSegments    int64
	PostmortemDelivered int64

	// BlocksPurgedByFeedback counts blocks evicted by the ServerFeedback
	// extension (whole run).
	BlocksPurgedByFeedback int64

	// Gossip accounting over the whole run.
	GossipSends      int64
	RedundantGossip  int64
	NoTargetGossip   int64
	Departures       int64
	BlocksLostToTTL  int64
	BlocksLostToExit int64

	// ProtocolCounters is the full shared peercore counter snapshot, under
	// the same names the live runtime reports in NodeStats.Protocol and
	// ServerStats.Protocol, plus the simulator's own state-based counters
	// (usefulPulls, redundantPulls, deliveredSegments).
	ProtocolCounters map[string]int64
}

// CollectionEfficiency returns the fraction of server pulls that advanced a
// segment's collection state, the η of Theorem 2.
func (r *Result) CollectionEfficiency() float64 {
	if r.ServerPulls == 0 {
		return 0
	}
	return 1 - float64(r.RedundantPulls)/float64(r.ServerPulls)
}
