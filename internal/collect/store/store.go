// Package store owns a collection service's per-segment state — the rank
// decoders, the payload rows, and the bounded memory of completed segments —
// behind a small interface. The collection service (internal/collect) is
// written against Store, so the state's home is swappable: the Memory
// implementation here keeps everything in RAM exactly as the original
// monolithic server did, and the write-ahead-log implementation in
// store/wal persists the same state underneath without the service or the
// transport layers noticing. Both pass the storetest conformance suite.
package store

import (
	"errors"

	"p2pcollect/internal/peercore"
	"p2pcollect/internal/rlnc"
)

// DefaultFinishedCap bounds a store's memory of completed segments when the
// config leaves FinishedCap zero.
const DefaultFinishedCap = 1 << 16

// Store is the collection-state seam: every per-segment decoder and the
// completed-segment memory live behind it. Implementations are driver-
// serialized (the collection service calls them under its driver's lock),
// matching peercore's concurrency contract.
type Store interface {
	// SegmentSize returns s, or 0 while it is still to be inferred from the
	// first block.
	SegmentSize() int
	// Receive runs one coded block through the collection state machine,
	// opening the segment's collection lazily. The first block fixes the
	// segment size when the store was built without one. now is the
	// caller's clock; the stores here keep no timestamps.
	Receive(now float64, cb *rlnc.CodedBlock) (peercore.PullOutcome, *peercore.Collection, error)
	// Collection returns a segment's open collection, or nil.
	Collection(seg rlnc.SegmentID) *peercore.Collection
	// OpenCount returns how many collections are currently open.
	OpenCount() int
	// Forget discards a segment's open collection without releasing its
	// storage: a caller that still reads the collection (the collection
	// service decodes a finished segment after forgetting it) owns the
	// release.
	Forget(seg rlnc.SegmentID)
	// Range visits every open collection, in no particular order. Callers
	// must not mutate the store while ranging.
	Range(f func(seg rlnc.SegmentID, col *peercore.Collection))
	// MarkFinished records a completed segment in the bounded finished set,
	// evicting the oldest entry when full.
	MarkFinished(seg rlnc.SegmentID)
	// Finished reports whether the segment is in the finished set.
	Finished(seg rlnc.SegmentID) bool
	// Close releases every open collection's storage.
	Close() error
}

// Recovered is the optional capability of durable stores: crash recovery
// can reconstruct collections that reached full rank before the crash but
// whose completion never became durable. The collection service flushes
// these through its normal completion path (finished set, delivery gate,
// decode) at Start, so a recovered segment is delivered exactly as a
// freshly decoded one would be — and dropped if the delivery journal shows
// another party already claimed it.
type Recovered interface {
	// RecoveredDecoded returns the segments whose recovered collections
	// are at full rank and still awaiting completion.
	RecoveredDecoded() []rlnc.SegmentID
}

// Crasher is the optional test capability of durable stores: Crash
// simulates abrupt process death by abandoning all in-RAM state and
// buffered writes and closing files without snapshotting or syncing.
type Crasher interface {
	Crash()
}

// MemoryConfig parameterizes an in-memory store.
type MemoryConfig struct {
	// SegmentSize is s; zero infers it from the first received block.
	SegmentSize int
	// FinishedCap bounds the completed-segment memory (oldest forgotten
	// first; a forgotten segment would merely be decoded again). Zero
	// selects DefaultFinishedCap.
	FinishedCap int
	// Sink receives the collector's protocol events; nil discards them.
	Sink peercore.EventSink
}

// Memory is the in-RAM Store: a lazy peercore.Collector plus the bounded
// segment set of finished IDs, so unbounded decode streams never grow
// the store.
type Memory struct {
	cfg       MemoryConfig
	collector *peercore.Collector // nil until the segment size is known
	finished  *rlnc.SegmentSet
}

var _ Store = (*Memory)(nil)

// NewMemory builds an empty in-memory store.
func NewMemory(cfg MemoryConfig) (*Memory, error) {
	if cfg.SegmentSize < 0 {
		return nil, errors.New("store: negative SegmentSize")
	}
	if cfg.FinishedCap < 0 {
		return nil, errors.New("store: negative FinishedCap")
	}
	if cfg.FinishedCap == 0 {
		cfg.FinishedCap = DefaultFinishedCap
	}
	if cfg.Sink == nil {
		cfg.Sink = peercore.NopSink{}
	}
	m := &Memory{cfg: cfg, finished: rlnc.NewSegmentSet(cfg.FinishedCap)}
	if cfg.SegmentSize > 0 {
		m.collector = m.newCollector(cfg.SegmentSize)
	}
	return m, nil
}

func (m *Memory) newCollector(segmentSize int) *peercore.Collector {
	return peercore.NewCollector(peercore.CollectorConfig{SegmentSize: segmentSize}, m.cfg.Sink)
}

// SegmentSize implements Store.
func (m *Memory) SegmentSize() int {
	if m.collector == nil {
		return 0
	}
	return m.cfg.SegmentSize
}

// Receive implements Store.
func (m *Memory) Receive(_ float64, cb *rlnc.CodedBlock) (peercore.PullOutcome, *peercore.Collection, error) {
	if m.collector == nil {
		m.cfg.SegmentSize = cb.SegmentSize()
		m.collector = m.newCollector(m.cfg.SegmentSize)
	}
	return m.collector.Receive(cb)
}

// Collection implements Store.
func (m *Memory) Collection(seg rlnc.SegmentID) *peercore.Collection {
	if m.collector == nil {
		return nil
	}
	return m.collector.Collection(seg)
}

// OpenCount implements Store.
func (m *Memory) OpenCount() int {
	if m.collector == nil {
		return 0
	}
	return m.collector.OpenCount()
}

// Forget implements Store.
func (m *Memory) Forget(seg rlnc.SegmentID) {
	if m.collector != nil {
		m.collector.Forget(seg)
	}
}

// Range implements Store.
func (m *Memory) Range(f func(seg rlnc.SegmentID, col *peercore.Collection)) {
	if m.collector != nil {
		m.collector.Range(f)
	}
}

// Restore opens a collection rebuilt from snapshotted state (see
// peercore.Collector.Restore). A store built without a segment size infers
// it from the first basis row.
func (m *Memory) Restore(seg rlnc.SegmentID, state, payloadLen int, basis []*rlnc.CodedBlock) error {
	if m.collector == nil {
		if len(basis) == 0 {
			return errors.New("store: cannot restore an empty basis before the segment size is known")
		}
		m.cfg.SegmentSize = basis[0].SegmentSize()
		m.collector = m.newCollector(m.cfg.SegmentSize)
	}
	_, err := m.collector.Restore(seg, state, payloadLen, basis)
	return err
}

// Finished implements Store.
func (m *Memory) Finished(seg rlnc.SegmentID) bool { return m.finished.Has(seg) }

// MarkFinished implements Store.
func (m *Memory) MarkFinished(seg rlnc.SegmentID) { m.finished.Add(seg) }

// FinishedCount returns how many completed segments the store remembers.
func (m *Memory) FinishedCount() int { return m.finished.Len() }

// RangeFinished visits the finished set oldest-first — the eviction order,
// so a restore that replays the visits through MarkFinished rebuilds an
// identical set. Callers must not mutate the store while ranging.
func (m *Memory) RangeFinished(f func(seg rlnc.SegmentID)) { m.finished.Range(f) }

// Close implements Store: every open collection is released and
// forgotten, and the finished set is cleared — a reused store starts
// empty instead of reporting stale Finished hits.
func (m *Memory) Close() error {
	if m.collector != nil {
		open := make([]rlnc.SegmentID, 0, m.collector.OpenCount())
		m.collector.Range(func(seg rlnc.SegmentID, _ *peercore.Collection) {
			open = append(open, seg)
		})
		for _, seg := range open {
			if col := m.collector.Collection(seg); col != nil {
				col.Release()
			}
			m.collector.Forget(seg)
		}
	}
	m.finished.Reset()
	return nil
}
