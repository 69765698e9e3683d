// Package collect is the transport-agnostic collection service: the
// per-segment decoder lifecycle, pull-policy feedback, and delivery
// sequencing that used to live inside the live server's receive loop.
// A driver (internal/live.Server, or a test) owns the clock, the wire, and
// a serialization lock; the service owns what happens to a coded block
// once it has arrived. Segment state lives behind the store.Store seam.
//
// Concurrency contract: all Service methods except Start/Close must be
// called by one driver at a time (the live server calls them under its
// mutex). BlockResult.Flush closures must run after the driver releases
// its lock — they deliver segments.
package collect

import (
	"fmt"
	"time"

	"p2pcollect/internal/collect/store"
	"p2pcollect/internal/collect/store/wal"
	"p2pcollect/internal/obs"
	"p2pcollect/internal/peercore"
	"p2pcollect/internal/pullsched"
	"p2pcollect/internal/rlnc"
)

// Pull-reply outcome counters. Every pull reply the store accepted, or
// found finished, lands in exactly one bucket, so the exposition layer
// shows how the server's pull budget is spent: useful (rank growth),
// redundant (finished segment or non-innovative block), or empty (peer had
// nothing). The policy hears Feedback only for replies about segments the
// service owns, so on a fleet shard the buckets count more replies than
// the policy heard of. rejectedBlocks counts blocks the store refused as
// malformed (wrong coefficient count or payload size), pulled or not; they
// land in no bucket and the policy hears nothing of them. The inventory
// counters are the digest traffic the policy costs: messages by kind, and
// the lines they carried.
const (
	fbUseful = iota
	fbRedundant
	fbEmpty
	invFull
	invDelta
	invEntries
	rejected

	numPolicyCounters
)

var policyCounterNames = [numPolicyCounters]string{
	fbUseful:    "pullschedFeedbackUseful",
	fbRedundant: "pullschedFeedbackRedundant",
	fbEmpty:     "pullschedFeedbackEmpty",
	invFull:     "inventoryFull",
	invDelta:    "inventoryDelta",
	invEntries:  "inventoryEntries",
	rejected:    "rejectedBlocks",
}

// Config parameterizes a collection service.
type Config struct {
	// SegmentSize is s, fixed for the service's life; it must be at least
	// 1. Blocks of any other size are rejected.
	SegmentSize int
	// Policy schedules pulls; nil selects pullsched.Blind. The service
	// forwards the driver's serialization — policies are not thread-safe.
	Policy pullsched.Policy
	// Durability, when Dir is non-empty, persists segment state in a
	// write-ahead log + snapshot store under that directory instead of the
	// in-memory store. A service built over an existing WAL directory
	// recovers its pre-crash collections; Start flushes any that had
	// already reached full rank through the normal delivery path.
	Durability wal.Config
	// Sink receives the collections' protocol events.
	Sink peercore.EventSink
	// Owns, when set, restricts the policy's segment universe: feedback and
	// inventory for segments outside it are withheld from the policy, and
	// HandleBlock reports such blocks as misrouted. Nil means the service
	// owns every segment (the single-server deployment).
	Owns func(rlnc.SegmentID) bool
	// Gate, when set, admits a decoded segment to delivery; a false return
	// suppresses the deliver callback (the segment is still marked
	// finished). Fleet shards point this at a shared delivery journal so a
	// segment decoded by several shards is delivered exactly once.
	Gate func(rlnc.SegmentID) bool
	// Tracer receives segment-lifecycle milestones; nil disables tracing.
	Tracer obs.Tracer
	// Actor identifies this service in trace events.
	Actor uint64

	// Optional instruments; nil disables each.
	CollectTime   *obs.Histogram // first block → decode, driver-clock seconds
	DecodeLatency *obs.Histogram // decode wall seconds
	WALAppend     *obs.Histogram // per-record WAL append wall seconds
	WALBytes      *obs.Gauge     // live log bytes on disk
}

// BlockResult reports what one received block did.
type BlockResult struct {
	// Outcome is the collection state machine's verdict (zero-valued when
	// Finished or Rejected).
	Outcome peercore.PullOutcome
	// Col is the block's collection, valid until the driver releases its
	// lock (nil when Finished or Rejected). Fleet drivers recode exchange
	// blocks out of it.
	Col *peercore.Collection
	// Owned reports whether the segment is in this service's universe.
	Owned bool
	// Finished: the segment was already completed; the block was dropped.
	Finished bool
	// Rejected: the block was malformed and no state moved.
	Rejected bool
	// Trace is the segment's effective sampled lineage after this block —
	// the context adopted when the segment was first seen traced, or the
	// zero context. Fleet drivers stamp exchange forwards with it.
	Trace obs.TraceContext
	// Flush, when non-nil, must be invoked exactly once after the driver
	// releases its lock: it delivers the decoded segment.
	Flush func()
}

// Service is one collection endpoint's protocol brain.
type Service struct {
	cfg    Config
	policy pullsched.Policy
	st     store.Store
	wal    *wal.Store // st when state is durable, else nil
	tracer obs.Tracer

	fb        *obs.CounterSet
	redundant int64
	owned     []pullsched.InventoryEntry // HandleInventory's filter scratch

	deliver func(seg rlnc.SegmentID, blocks [][]byte)
}

// New builds a collection service.
func New(cfg Config) (*Service, error) {
	if cfg.SegmentSize < 1 {
		return nil, fmt.Errorf("collect: SegmentSize %d, want at least 1", cfg.SegmentSize)
	}
	s := &Service{
		cfg:    cfg,
		policy: cfg.Policy,
		tracer: cfg.Tracer,
		fb:     obs.NewCounterSet(policyCounterNames[:]),
	}
	if s.policy == nil {
		s.policy = pullsched.Blind{}
	}
	if s.tracer == nil {
		s.tracer = obs.NopTracer{}
	}
	var err error
	if cfg.Durability.Dir != "" {
		s.wal, err = wal.Open(wal.Options{
			Config:        cfg.Durability,
			SegmentSize:   cfg.SegmentSize,
			Sink:          cfg.Sink,
			AppendLatency: cfg.WALAppend,
			WALBytes:      cfg.WALBytes,
		})
		s.st = s.wal
	} else {
		s.st, err = store.NewMemory(store.MemoryConfig{SegmentSize: cfg.SegmentSize, Sink: cfg.Sink})
	}
	if err != nil {
		return nil, err
	}
	return s, nil
}

// Start fixes the delivery callback. Call before the driver's loops run.
//
// If the store recovered collections that reached full rank before a crash
// but whose completion never became durable, Start flushes each through
// the normal completion path — finished set, delivery gate, decode — so a
// recovered segment is delivered exactly as a freshly decoded one would
// be, and dropped when the journal shows another shard already claimed it.
func (s *Service) Start(deliver func(seg rlnc.SegmentID, blocks [][]byte)) {
	s.deliver = deliver
	if s.wal == nil {
		return
	}
	for _, seg := range s.wal.RecoveredDecoded() {
		col := s.st.Collection(seg)
		if col == nil || col.RankDeficit() != 0 {
			continue
		}
		if flush := s.complete(seg, col); flush != nil {
			// No driver loop runs yet, so invoking directly is safe.
			flush()
		}
	}
}

// Close releases the store. The driver must have stopped issuing Handle
// calls.
func (s *Service) Close() {
	s.st.Close() //nolint:errcheck // durable stores log write errors as they happen
}

// Crash simulates abrupt process death for crash-recovery tests: the
// store's buffered log writes are dropped and its files closed without a
// final snapshot — exactly the state a killed process leaves on disk.
// In-RAM state just closes.
func (s *Service) Crash() {
	if s.wal != nil {
		s.wal.Crash()
		return
	}
	s.st.Close() //nolint:errcheck // crash path
}

// Recovery reports what the durable store reconstructed at open, and
// whether this service has one.
func (s *Service) Recovery() (wal.RecoveryStats, bool) {
	if s.wal == nil {
		return wal.RecoveryStats{}, false
	}
	return s.wal.Recovery(), true
}

// WAL returns the service's durable store, or nil when state is in RAM.
func (s *Service) WAL() *wal.Store { return s.wal }

// Store returns the service's segment-state backend.
func (s *Service) Store() store.Store { return s.st }

// OpenCount returns how many collections are in progress.
func (s *Service) OpenCount() int { return s.st.OpenCount() }

// Redundant returns the count of valid blocks that added no rank, blocks
// of finished segments included. Malformed blocks count under
// rejectedBlocks instead.
func (s *Service) Redundant() int64 { return s.redundant }

// RangeFeedback visits the pull-feedback outcome and inventory counters
// (concurrency-safe; registries scrape this).
func (s *Service) RangeFeedback(f func(name string, v int64)) { s.fb.Range(f) }

// Owns reports whether the segment is in this service's universe.
func (s *Service) Owns(seg rlnc.SegmentID) bool {
	return s.cfg.Owns == nil || s.cfg.Owns(seg)
}

// Choose asks the policy for the next pull decision.
func (s *Service) Choose(now float64, env pullsched.Env) (pullsched.Decision, bool) {
	return s.policy.Choose(now, env)
}

// HandleEmpty feeds an empty pull reply to the policy.
func (s *Service) HandleEmpty(now float64, from pullsched.PeerRef) {
	s.fb.Add(fbEmpty, 1)
	s.policy.Feedback(pullsched.Feedback{Peer: from, Time: now, Empty: true})
}

// HandleInventory forwards a peer's inventory digest, full or delta, to the
// policy, filtered to the service's segment universe. The filter reuses one
// scratch slice, which the policy does not retain past the call.
func (s *Service) HandleInventory(now float64, from pullsched.PeerRef, inv []pullsched.InventoryEntry, delta bool) {
	if delta {
		s.fb.Add(invDelta, 1)
	} else {
		s.fb.Add(invFull, 1)
	}
	s.fb.Add(invEntries, int64(len(inv)))
	if s.cfg.Owns != nil {
		owned := s.owned[:0]
		for _, e := range inv {
			if s.cfg.Owns(e.Seg) {
				owned = append(owned, e)
			}
		}
		s.owned, inv = owned, owned
	}
	pullsched.ObserveDigest(s.policy, now, from, inv, delta)
}

// HandleBlock runs one received block through the collection state machine.
// pulled distinguishes pull replies (which train the policy and close pull
// accounting) from side-channel blocks such as fleet exchange traffic
// (which only feed the decoder). ctx is the block's wire trace context
// (zero when the frame carried none); the segment adopts the first valid
// context it sees and every later lifecycle event carries that lineage.
// The caller must run the returned Flush, if any, after releasing its lock.
func (s *Service) HandleBlock(now float64, from pullsched.PeerRef, cb *rlnc.CodedBlock, pulled bool, ctx obs.TraceContext) BlockResult {
	res := BlockResult{Owned: s.Owns(cb.Seg)}
	if s.st.Finished(cb.Seg) {
		s.redundant++
		if pulled {
			s.fb.Add(fbRedundant, 1)
			if res.Owned {
				s.policy.Feedback(pullsched.Feedback{Peer: from, Time: now, Seg: cb.Seg, Done: true})
			}
		}
		res.Finished = true
		return res
	}
	out, col, err := s.st.Receive(now, cb)
	if err != nil {
		s.fb.Add(rejected, 1)
		res.Rejected = true
		return res
	}
	// The collection's start time and lineage are adopted only once the
	// store accepted a block.
	res.Trace = col.Adopt(now, ctx)
	tid, hop := res.Trace.ID, res.Trace.Hop
	res.Outcome, res.Col = out, col
	if out.Innovative {
		if pulled {
			s.fb.Add(fbUseful, 1)
		}
		s.tracer.Trace(obs.TraceEvent{
			Seg: cb.Seg, Kind: obs.TraceServerRank, T: now,
			Actor: s.cfg.Actor, N: col.Rank(), TraceID: tid, Hop: hop,
		})
	} else if pulled {
		s.fb.Add(fbRedundant, 1)
	}
	if pulled && res.Owned {
		s.policy.Feedback(pullsched.Feedback{
			Peer:   from,
			Time:   now,
			Seg:    cb.Seg,
			Useful: out.Innovative,
			Done:   out.Decoded,
		})
	}
	if !out.Innovative {
		s.redundant++
		return res
	}
	if !out.Decoded {
		return res
	}
	if s.cfg.CollectTime != nil {
		s.cfg.CollectTime.Observe(now - col.FirstSeen())
	}
	s.tracer.Trace(obs.TraceEvent{
		Seg: cb.Seg, Kind: obs.TraceDecoded, T: now,
		Actor: s.cfg.Actor, N: col.Rank(), TraceID: tid, Hop: hop,
	})
	res.Flush = s.complete(cb.Seg, col)
	return res
}

// complete retires a full-rank collection: finished + forgotten first (so
// no later block can reach it), then the decode. Returns the delivery
// step, nil when the gate (or a decode error) suppressed it.
func (s *Service) complete(seg rlnc.SegmentID, col *peercore.Collection) func() {
	s.st.MarkFinished(seg)
	s.st.Forget(seg)
	if s.cfg.Gate != nil && !s.cfg.Gate(seg) {
		// Another shard already delivered this segment; drop the duplicate
		// and return the rows.
		col.Release()
		return nil
	}
	t0 := time.Now()
	blocks, decErr := col.Decode()
	if s.cfg.DecodeLatency != nil {
		s.cfg.DecodeLatency.Observe(time.Since(t0).Seconds())
	}
	deliver := s.deliver
	if decErr != nil || deliver == nil {
		return nil
	}
	return func() { deliver(seg, blocks) }
}

// FinishRemote marks a segment completed on another shard's authority:
// its open collection (if any) is released and forgotten, and future
// blocks for it are dropped as redundant. Reports whether this was news.
func (s *Service) FinishRemote(seg rlnc.SegmentID) bool {
	if s.st.Finished(seg) {
		return false
	}
	if col := s.st.Collection(seg); col != nil {
		col.Release()
		s.st.Forget(seg)
	}
	s.st.MarkFinished(seg)
	return true
}
