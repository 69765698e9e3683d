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
	"fmt"

	"p2pcollect/internal/peercore"
	"p2pcollect/internal/rlnc"
)

// FinishedCap bounds a store's memory of completed segments: the oldest
// is forgotten first, and a forgotten segment would merely be decoded again.
const FinishedCap = 1 << 16

// Store is the collection-state seam: every per-segment decoder and the
// completed-segment memory live behind it. Implementations are driver-
// serialized (the collection service calls them under its driver's lock),
// matching peercore's concurrency contract.
type Store interface {
	// Receive runs one coded block through the collection state machine,
	// opening the segment's collection lazily. A block whose coefficient
	// count is not the store's segment size is rejected. now is the
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
	// FinishedHead is the finished set read as a log: the position of the
	// newest segment MarkFinished took as new, counted over the store's
	// life (rlnc.SegmentSet.Added).
	FinishedHead() uint64
	// FinishedSince appends to dst, oldest first, at most limit finished
	// segments after position cursor, and returns dst with the position
	// reached (rlnc.SegmentSet.Since).
	FinishedSince(cursor uint64, dst []rlnc.SegmentID, limit int) ([]rlnc.SegmentID, uint64)
	// Close releases every open collection's storage.
	Close() error
}

// MemoryConfig parameterizes an in-memory store.
type MemoryConfig struct {
	// SegmentSize is s, fixed for the store's life; it must be at least 1.
	SegmentSize int
	// Sink receives the collections' protocol events; nil discards them.
	Sink peercore.EventSink
}

// Memory is the in-RAM Store: one peercore.Collection per open segment
// plus the bounded segment set of finished IDs, so unbounded decode
// streams never grow the store.
type Memory struct {
	segmentSize int
	sink        peercore.EventSink
	cols        map[rlnc.SegmentID]*peercore.Collection
	finished    *rlnc.SegmentSet
}

var _ Store = (*Memory)(nil)

// NewMemory builds an empty in-memory store.
func NewMemory(cfg MemoryConfig) (*Memory, error) {
	if cfg.SegmentSize < 1 {
		return nil, fmt.Errorf("store: SegmentSize %d, want at least 1", cfg.SegmentSize)
	}
	if cfg.Sink == nil {
		cfg.Sink = peercore.NopSink{}
	}
	return &Memory{
		segmentSize: cfg.SegmentSize,
		sink:        cfg.Sink,
		cols:        make(map[rlnc.SegmentID]*peercore.Collection),
		finished:    rlnc.NewSegmentSet(FinishedCap),
	}, nil
}

// SegmentSize returns s.
func (m *Memory) SegmentSize() int { return m.segmentSize }

// Receive implements Store. The first block of a segment opens its
// collection at the block's payload size.
func (m *Memory) Receive(_ float64, cb *rlnc.CodedBlock) (peercore.PullOutcome, *peercore.Collection, error) {
	if len(cb.Coeffs) != m.segmentSize {
		return peercore.PullOutcome{}, nil, fmt.Errorf("store: block with %d coefficients, segment size %d", len(cb.Coeffs), m.segmentSize)
	}
	col := m.cols[cb.Seg]
	if col == nil {
		col = peercore.NewCollection(cb.Seg, m.segmentSize, len(cb.Payload))
		m.cols[cb.Seg] = col
	}
	out, err := col.Receive(cb, m.sink)
	return out, col, err
}

// Collection implements Store.
func (m *Memory) Collection(seg rlnc.SegmentID) *peercore.Collection { return m.cols[seg] }

// OpenCount implements Store.
func (m *Memory) OpenCount() int { return len(m.cols) }

// Forget implements Store.
func (m *Memory) Forget(seg rlnc.SegmentID) { delete(m.cols, seg) }

// Range implements Store.
func (m *Memory) Range(f func(seg rlnc.SegmentID, col *peercore.Collection)) {
	for seg, col := range m.cols {
		f(seg, col)
	}
}

// Restore opens a collection rebuilt from snapshotted state (see
// peercore.RestoreCollection). On error nothing stays open.
func (m *Memory) Restore(seg rlnc.SegmentID, payloadLen int, basis []*rlnc.CodedBlock) error {
	if m.cols[seg] != nil {
		return fmt.Errorf("store: restore %v: collection already open", seg)
	}
	col, err := peercore.RestoreCollection(seg, m.segmentSize, payloadLen, basis)
	if err == nil {
		m.cols[seg] = col
	}
	return err
}

// Finished implements Store.
func (m *Memory) Finished(seg rlnc.SegmentID) bool { return m.finished.Has(seg) }

// MarkFinished implements Store.
func (m *Memory) MarkFinished(seg rlnc.SegmentID) { m.finished.Add(seg) }

// FinishedHead implements Store.
func (m *Memory) FinishedHead() uint64 { return m.finished.Added() }

// FinishedSince implements Store.
func (m *Memory) FinishedSince(cursor uint64, dst []rlnc.SegmentID, limit int) ([]rlnc.SegmentID, uint64) {
	return m.finished.Since(cursor, dst, limit)
}

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
	for seg, col := range m.cols {
		col.Release()
		delete(m.cols, seg)
	}
	m.finished.Reset()
	return nil
}
