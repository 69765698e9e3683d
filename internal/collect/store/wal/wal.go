package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"p2pcollect/internal/collect/store"
	"p2pcollect/internal/durable"
	"p2pcollect/internal/obs"
	"p2pcollect/internal/peercore"
	"p2pcollect/internal/rlnc"
)

// SyncMode selects when appended records are fsynced.
type SyncMode int

const (
	// SyncInterval (the default) group-commits: appends land in a buffered
	// writer and a background flusher flushes + fsyncs every SyncInterval.
	// A crash loses at most the last interval's records — the protocol
	// re-pulls what a restarted server is missing, so this is the intended
	// steady-state mode.
	SyncInterval SyncMode = iota
	// SyncNone never fsyncs on the append path (rotation, snapshots, and
	// Close still sync). Fastest; durability rides entirely on the OS.
	SyncNone
	// SyncAlways flushes and fsyncs every append before it is applied.
	// Recovery then resumes at exactly the pre-crash rank.
	SyncAlways
)

// String names the mode as the -wal-sync flag spells it.
func (m SyncMode) String() string {
	switch m {
	case SyncNone:
		return "none"
	case SyncInterval:
		return "interval"
	case SyncAlways:
		return "always"
	}
	return fmt.Sprintf("SyncMode(%d)", int(m))
}

// ParseSyncMode parses "none", "interval", or "always".
func ParseSyncMode(s string) (SyncMode, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "none":
		return SyncNone, nil
	case "interval", "":
		return SyncInterval, nil
	case "always":
		return SyncAlways, nil
	}
	return 0, fmt.Errorf("wal: unknown sync mode %q (want none, interval, or always)", s)
}

// Defaults for the zero Config.
const (
	DefaultSyncInterval  = 50 * time.Millisecond
	DefaultSnapshotEvery = 8192
	DefaultSegmentBytes  = 4 << 20
)

// Config is the public durability surface (ServerConfig.Durability): where
// the log lives and how eagerly it reaches disk.
type Config struct {
	// Dir is the WAL directory; empty disables durability entirely (the
	// server keeps its state purely in RAM, as before).
	Dir string
	// Sync is the fsync policy for appended records.
	Sync SyncMode
	// SyncInterval spaces group-commit fsyncs in SyncInterval mode. Zero
	// selects DefaultSyncInterval.
	SyncInterval time.Duration
	// SnapshotEvery bounds replay: after this many appended block records
	// the store snapshots decoder state and drops the covered log
	// segments. Zero selects DefaultSnapshotEvery.
	SnapshotEvery int
	// SegmentBytes rotates the active log file past this size. Zero
	// selects DefaultSegmentBytes.
	SegmentBytes int64
}

// Options parameterizes Open: the public Config plus the store-shape knobs
// the collection service forwards and optional instruments (each may be
// nil).
type Options struct {
	Config

	// SegmentSize, FinishedCap, Sink mirror store.MemoryConfig for the
	// in-RAM state the log shadows. A loaded snapshot's segment size takes
	// precedence over SegmentSize — it is what the logged records were
	// coded under.
	SegmentSize int
	FinishedCap int
	Sink        peercore.EventSink

	// AppendLatency observes seconds spent framing + writing (+ fsyncing,
	// in SyncAlways mode) each record.
	AppendLatency *obs.Histogram
	// WALBytes tracks live log bytes on disk.
	WALBytes *obs.Gauge
}

// RecoveryStats reports what Open reconstructed.
type RecoveryStats struct {
	// SnapshotLoaded: a valid snapshot was found and restored.
	SnapshotLoaded bool
	// SnapshotSegments is how many open collections the snapshot carried.
	SnapshotSegments int
	// ReplayedRecords is how many log records were applied after the
	// snapshot.
	ReplayedRecords int
	// TornTail: replay ended at an incomplete or corrupt record (the
	// expected shape of a crash mid-append); the tail was discarded.
	TornTail bool
	// OpenSegments and TotalRank describe the recovered state: collections
	// open after recovery and the sum of their decoder ranks.
	OpenSegments int
	TotalRank    int
	// DecodedPending is how many recovered collections sit at full rank
	// awaiting delivery (their completion never became durable); the
	// collection service flushes them at Start.
	DecodedPending int
	// Duration is the wall time Open spent recovering.
	Duration time.Duration
}

// gatedSink swallows protocol events until recovery finishes, so replay
// does not re-count pre-crash activity into a fresh server's counters.
type gatedSink struct {
	enabled bool // set once, before any concurrent use
	inner   peercore.EventSink
}

func (g *gatedSink) Count(ev peercore.Event, n int64) {
	if g.enabled {
		g.inner.Count(ev, n)
	}
}

// Store is the durable store.Store: an in-RAM store.Memory shadowed by the
// segmented log, plus snapshot/compaction and crash recovery.
type Store struct {
	opts Options
	mem  *store.Memory
	gate *gatedSink

	// Write path. The append fast path only frames the record into batch
	// under wmu — file writes happen on the drainer (the flusher goroutine,
	// a rotation, or an inline backpressure drain), serialized by iomu.
	// In SyncAlways mode the appender drains and fsyncs inline instead.
	// Lock order: iomu before wmu; wmu is never held across I/O.
	wmu         sync.Mutex // batch, counters, closed, lastSnap
	iomu        sync.Mutex // f handle and all writes to it
	f           *os.File
	batch       []byte // framed records awaiting the drainer
	spare       []byte // drained buffer, recycled into batch
	seq         uint64 // active log file sequence
	activeBytes int64
	totalBytes  int64 // bytes across all live log files
	scratch     []byte

	sinceSnap int
	lastSnap  time.Time
	lastErr   error // first snapshot/append failure, surfaced at Close

	recovery  RecoveryStats
	recovered []rlnc.SegmentID

	flushStop chan struct{}
	flushDone chan struct{}
	closed    bool
}

var (
	_ store.Store     = (*Store)(nil)
	_ store.Recovered = (*Store)(nil)
	_ store.Crasher   = (*Store)(nil)
)

func logName(seq uint64) string  { return fmt.Sprintf("wal-%016x.log", seq) }
func snapName(seq uint64) string { return fmt.Sprintf("snap-%016x.snap", seq) }

// parseSeq extracts the sequence from a wal-/snap- file name.
func parseSeq(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	var seq uint64
	_, err := fmt.Sscanf(strings.TrimSuffix(strings.TrimPrefix(name, prefix), suffix), "%x", &seq)
	return seq, err == nil
}

// Open creates or recovers a durable store in opts.Dir: load the newest
// valid snapshot, replay the log tail (discarding a torn final record),
// reconstruct every open collection at its pre-crash rank and state, and
// start a fresh log segment for new appends. Protocol events fired during
// replay are suppressed — counters describe only post-recovery activity.
func Open(opts Options) (*Store, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("wal: empty Dir")
	}
	if opts.SyncInterval <= 0 {
		opts.SyncInterval = DefaultSyncInterval
	}
	if opts.SnapshotEvery <= 0 {
		opts.SnapshotEvery = DefaultSnapshotEvery
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if opts.Sink == nil {
		opts.Sink = peercore.NopSink{}
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	start := time.Now()

	w := &Store{opts: opts, gate: &gatedSink{inner: opts.Sink}, lastSnap: start}
	rec, err := recoverDir(opts.Dir, store.MemoryConfig{
		SegmentSize: opts.SegmentSize,
		FinishedCap: opts.FinishedCap,
		Sink:        w.gate,
	}, discardFrom)
	if err != nil {
		return nil, err
	}
	// New appends go to a fresh segment past everything on disk.
	w.mem, w.recovery, w.recovered, w.seq = rec.mem, rec.stats, rec.decoded, rec.next
	if err := w.openActive(); err != nil {
		return nil, err
	}
	w.totalBytes = dirLogBytes(opts.Dir)
	w.setGauges()

	w.recovery.Duration = time.Since(start)
	w.gate.enabled = true
	if opts.Sync != SyncAlways {
		// Both group-commit modes drain in the background; SyncAlways
		// drains inline on every append instead.
		w.flushStop = make(chan struct{})
		w.flushDone = make(chan struct{})
		go w.flushLoop()
	}
	return w, nil
}

// scanDir lists log and snapshot sequences, each sorted ascending.
func scanDir(dir string) (logs, snaps []uint64, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	for _, e := range entries {
		if seq, ok := parseSeq(e.Name(), "wal-", ".log"); ok {
			logs = append(logs, seq)
		} else if seq, ok := parseSeq(e.Name(), "snap-", ".snap"); ok {
			snaps = append(snaps, seq)
		}
	}
	sort.Slice(logs, func(i, j int) bool { return logs[i] < logs[j] })
	sort.Slice(snaps, func(i, j int) bool { return snaps[i] < snaps[j] })
	return logs, snaps, nil
}

// dirLogBytes sums the sizes of live log files.
func dirLogBytes(dir string) int64 {
	var total int64
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	for _, e := range entries {
		if _, ok := parseSeq(e.Name(), "wal-", ".log"); ok {
			if info, err := e.Info(); err == nil {
				total += info.Size()
			}
		}
	}
	return total
}

// recoveredState is what one walk over a WAL directory reconstructs.
type recoveredState struct {
	mem   *store.Memory
	stats RecoveryStats // Duration is the caller's to set
	// decoded lists the collections the crash caught between full rank and
	// durable completion, in segment order: the service completes them at
	// Start, through the normal finished/gate/delivery path.
	decoded []rlnc.SegmentID
	// next is the first sequence past every log segment on disk and not
	// below any snapshot's: where a resuming store opens its active segment.
	next uint64
}

// recoverDir is the one recovery walk: restore the newest loadable
// snapshot (an unreadable one falls back to an older: more replay, same
// state) into a store built from cfg, replay every log segment the
// snapshot does not cover, oldest first, and stop at the first torn or
// corrupt record, because recovered state must stay a prefix of history. A
// loaded snapshot's segment size overrides cfg's: it is what the logged
// records were coded under. The walk itself only reads. atStop, when
// non-nil, is the caller's action at a stop point: it receives the stopped
// segment, the length of its valid prefix, and the later segments the walk
// will not apply. Open passes discardFrom; Inspect passes nil.
func recoverDir(dir string, cfg store.MemoryConfig,
	atStop func(dir string, seq uint64, valid int64, later []uint64) error) (*recoveredState, error) {
	logs, snaps, err := scanDir(dir)
	if err != nil {
		return nil, err
	}
	r := &recoveredState{next: 1}
	if n := len(logs); n > 0 {
		r.next = logs[n-1] + 1
	}
	if n := len(snaps); n > 0 && snaps[n-1] > r.next {
		r.next = snaps[n-1]
	}

	var snap *snapshot
	var snapSeq uint64
	for i := len(snaps) - 1; i >= 0 && snap == nil; i-- {
		if s, err := loadSnapshotFile(filepath.Join(dir, snapName(snaps[i]))); err == nil {
			snap, snapSeq = s, snaps[i]
		}
	}
	if snap != nil && snap.segmentSize > 0 {
		cfg.SegmentSize = snap.segmentSize
	}
	if r.mem, err = store.NewMemory(cfg); err != nil {
		return nil, err
	}
	if snap != nil {
		r.stats.SnapshotLoaded = true
		for _, seg := range snap.finished {
			r.mem.MarkFinished(seg)
		}
		for _, sc := range snap.cols {
			if err := r.mem.Restore(sc.seg, sc.state, sc.payloadLen, sc.basis); err != nil {
				return nil, fmt.Errorf("wal: %s: %w", snapName(snapSeq), err)
			}
			r.stats.SnapshotSegments++
		}
	}

replay:
	for i, seq := range logs {
		if seq < snapSeq {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, logName(seq)))
		if err != nil {
			return nil, fmt.Errorf("wal: %w", err)
		}
		for off := 0; off < len(data); {
			rec, n, derr := decodeRecord(data[off:])
			if derr != nil {
				r.stats.TornTail = true
				if atStop != nil {
					if err := atStop(dir, seq, int64(off), logs[i+1:]); err != nil {
						return nil, err
					}
				}
				break replay
			}
			applyRecord(r.mem, rec)
			r.stats.ReplayedRecords++
			off += n
		}
	}

	r.mem.Range(func(seg rlnc.SegmentID, col *peercore.Collection) {
		r.stats.OpenSegments++
		r.stats.TotalRank += col.Rank()
		if col.RankDeficit() == 0 {
			r.decoded = append(r.decoded, seg)
		}
	})
	sort.Slice(r.decoded, func(i, j int) bool {
		a, b := r.decoded[i], r.decoded[j]
		if a.Origin != b.Origin {
			return a.Origin < b.Origin
		}
		return a.Seq < b.Seq
	})
	r.stats.DecodedPending = len(r.decoded)
	return r, nil
}

// discardFrom is Open's action at a stop point. The stopped segment is cut
// at its last valid frame, so the next recovery is clean. The later
// segments are deleted: they can never be applied (that would skip the
// lost records), and left in place a later recovery, finding the stop
// point gone, would replay them anyway.
func discardFrom(dir string, seq uint64, valid int64, later []uint64) error {
	if err := os.Truncate(filepath.Join(dir, logName(seq)), valid); err != nil {
		return fmt.Errorf("wal: truncating torn tail: %w", err)
	}
	for _, seq := range later {
		if err := os.Remove(filepath.Join(dir, logName(seq))); err != nil {
			return fmt.Errorf("wal: dropping unreachable segment: %w", err)
		}
	}
	if len(later) > 0 {
		return syncDir(dir)
	}
	return nil
}

// applyRecord replays one record against the in-RAM store, mirroring what
// the collection service did to generate it. Malformed blocks were
// rejected when first received and are rejected identically here.
func applyRecord(mem *store.Memory, rec record) {
	switch rec.typ {
	case recBlock:
		if mem.Finished(rec.seg) {
			return
		}
		cb := rlnc.CodedBlock{Seg: rec.seg, Coeffs: rec.coeffs, Payload: rec.payload}
		mem.Receive(0, &cb) //nolint:errcheck // a malformed block replays as the rejection it was
	case recFinished:
		if col := mem.Collection(rec.seg); col != nil {
			col.Release()
			mem.Forget(rec.seg)
		}
		mem.MarkFinished(rec.seg)
	case recForget:
		if col := mem.Collection(rec.seg); col != nil {
			col.Release()
			mem.Forget(rec.seg)
		}
	}
}

// drainBatch is the inline group-commit granularity: the appender drains
// the pending batch itself once this many framed bytes accumulate — one
// write(2) per ~drainBatch of records, amortized to noise, with no
// goroutine handoff on the hot path (on GOMAXPROCS=1 a dedicated writer
// goroutine stalls the appender on every syscall handoff). The flusher
// only owns the interval fsync and draining a trickling batch that never
// reaches the threshold.
const drainBatch = 256 << 10

// openActive opens the current sequence's log file for appending. Caller
// holds iomu (or has exclusive access during Open).
func (w *Store) openActive() error {
	f, err := os.OpenFile(filepath.Join(w.opts.Dir, logName(w.seq)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	w.activeBytes = 0
	if info, err := f.Stat(); err == nil {
		w.activeBytes = info.Size()
	}
	w.f = f
	return nil
}

// append frames one record into the pending batch. In the group-commit
// modes this is the whole receive-path cost — the file write happens on
// the flusher goroutine; SyncAlways drains and fsyncs inline before
// returning. Rotation triggers past SegmentBytes.
func (w *Store) append(rec record) error {
	var t0 time.Time
	if w.opts.AppendLatency != nil {
		t0 = time.Now()
	}
	w.scratch = appendRecord(w.scratch[:0], rec)

	w.wmu.Lock()
	if w.closed {
		w.wmu.Unlock()
		return fmt.Errorf("wal: store closed")
	}
	w.batch = append(w.batch, w.scratch...)
	pending := len(w.batch)
	w.activeBytes += int64(len(w.scratch))
	w.totalBytes += int64(len(w.scratch))
	rotate := w.activeBytes >= w.opts.SegmentBytes
	w.wmu.Unlock()

	var err error
	switch {
	case w.opts.Sync == SyncAlways:
		err = w.drain(true)
	case pending >= drainBatch:
		err = w.drain(false)
	}
	if err != nil {
		w.noteErr(err)
		return fmt.Errorf("wal: append: %w", err)
	}
	if rotate {
		if err := w.rotate(); err != nil {
			w.noteErr(err)
		}
	}
	if w.opts.AppendLatency != nil {
		w.opts.AppendLatency.Observe(time.Since(t0).Seconds())
	}
	w.setGauges()
	return nil
}

// drain writes the pending batch to the active file, optionally fsyncing.
// Drains are serialized by iomu, and the batch is swapped out under wmu,
// so records reach the file in append order while appends continue.
func (w *Store) drain(sync bool) error {
	w.iomu.Lock()
	defer w.iomu.Unlock()
	return w.drainLocked(sync)
}

func (w *Store) drainLocked(sync bool) error {
	w.wmu.Lock()
	b := w.batch
	// Swap unconditionally: were the drained buffer kept out of spare (an
	// idle tick, a failed write), batch and spare would share one backing
	// array and the next drain would write a buffer append is refilling.
	w.batch, w.spare = w.spare[:0], b[:0]
	closed := w.closed
	w.wmu.Unlock()
	if closed {
		return nil
	}
	if len(b) > 0 {
		if _, err := w.f.Write(b); err != nil {
			return err
		}
	}
	if sync {
		return w.f.Sync()
	}
	return nil
}

// rotate drains and seals the active segment (fsync) and starts the next.
func (w *Store) rotate() error {
	w.iomu.Lock()
	defer w.iomu.Unlock()
	if err := w.drainLocked(true); err != nil {
		return err
	}
	if err := w.f.Close(); err != nil {
		return err
	}
	w.seq++
	return w.openActive()
}

// noteErr keeps the first write-path failure for Close to surface. Safe
// from both the driver and the flusher goroutine.
func (w *Store) noteErr(err error) {
	w.wmu.Lock()
	if w.lastErr == nil {
		w.lastErr = err
	}
	w.wmu.Unlock()
}

func (w *Store) setGauges() {
	if w.opts.WALBytes != nil {
		w.opts.WALBytes.Set(float64(w.totalBytes))
	}
}

// SnapshotAgeSeconds returns the wall seconds since the last completed
// snapshot (since Open, before the first). It reads the clock when called,
// so a gauge over it keeps aging while no record is appended. Safe from any
// goroutine.
func (w *Store) SnapshotAgeSeconds() float64 {
	w.wmu.Lock()
	last := w.lastSnap
	w.wmu.Unlock()
	return time.Since(last).Seconds()
}

// flushLoop is the background drainer for the group-commit modes: every
// tick it writes the pending batch and, in SyncInterval mode, fsyncs —
// batching every append since the previous tick into one write and one
// sync, off the receive path.
func (w *Store) flushLoop() {
	defer close(w.flushDone)
	ticker := time.NewTicker(w.opts.SyncInterval)
	defer ticker.Stop()
	sync := w.opts.Sync == SyncInterval
	for {
		select {
		case <-w.flushStop:
			return
		case <-ticker.C:
			if err := w.drain(sync); err != nil {
				w.noteErr(err)
			}
		}
	}
}

// snapshot writes the decoder state, then compacts: the log rotates first
// so the snapshot covers exactly the sealed segments, which — together
// with older snapshots — are then deleted. Records for finished segments
// vanish here (the snapshot carries only the finished IDs and the open
// bases, never the per-block history), so compaction cost is bounded by
// live state, not by traffic.
func (w *Store) snapshot() error {
	if err := w.rotate(); err != nil {
		return err
	}
	if err := durable.WriteFile(filepath.Join(w.opts.Dir, snapName(w.seq)), encodeSnapshot(w.mem)); err != nil {
		return err
	}
	w.sinceSnap = 0
	w.wmu.Lock()
	w.lastSnap = time.Now()
	w.wmu.Unlock()
	w.prune()
	w.setGauges()
	return nil
}

// prune deletes sealed log segments and snapshots older than the newest
// snapshot. Best-effort: a leftover file only costs replay time.
func (w *Store) prune() {
	logs, snaps, err := scanDir(w.opts.Dir)
	if err != nil || len(snaps) == 0 {
		return
	}
	newest := snaps[len(snaps)-1]
	for _, seq := range logs {
		if seq < newest {
			os.Remove(filepath.Join(w.opts.Dir, logName(seq))) //nolint:errcheck // best-effort
		}
	}
	for _, seq := range snaps {
		if seq < newest {
			os.Remove(filepath.Join(w.opts.Dir, snapName(seq))) //nolint:errcheck // best-effort
		}
	}
	syncDir(w.opts.Dir) //nolint:errcheck // best-effort
	w.totalBytes = dirLogBytes(w.opts.Dir)
}

// syncDir fsyncs a directory so unlinks within it are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close() //nolint:errcheck // read-only handle
	return d.Sync()
}

// Recovery returns what Open reconstructed.
func (w *Store) Recovery() RecoveryStats { return w.recovery }

// RecoveredDecoded implements store.Recovered.
func (w *Store) RecoveredDecoded() []rlnc.SegmentID { return w.recovered }

// SegmentSize implements store.Store.
func (w *Store) SegmentSize() int { return w.mem.SegmentSize() }

// Receive implements store.Store: the block record is appended (and, in
// SyncAlways mode, made durable) before the state machine sees the block.
func (w *Store) Receive(now float64, cb *rlnc.CodedBlock) (peercore.PullOutcome, *peercore.Collection, error) {
	if err := w.append(record{typ: recBlock, seg: cb.Seg, coeffs: cb.Coeffs, payload: cb.Payload}); err != nil {
		return peercore.PullOutcome{}, nil, err
	}
	out, col, err := w.mem.Receive(now, cb)
	w.sinceSnap++
	if w.sinceSnap >= w.opts.SnapshotEvery {
		if serr := w.snapshot(); serr != nil {
			w.noteErr(serr)
			w.sinceSnap = 0 // back off a full interval rather than retrying per block
		}
	}
	return out, col, err
}

// Collection implements store.Store.
func (w *Store) Collection(seg rlnc.SegmentID) *peercore.Collection { return w.mem.Collection(seg) }

// OpenCount implements store.Store.
func (w *Store) OpenCount() int { return w.mem.OpenCount() }

// Forget implements store.Store.
func (w *Store) Forget(seg rlnc.SegmentID) {
	if w.mem.Collection(seg) == nil {
		return
	}
	if err := w.append(record{typ: recForget, seg: seg}); err == nil {
		w.mem.Forget(seg)
	}
}

// MarkFinished implements store.Store.
func (w *Store) MarkFinished(seg rlnc.SegmentID) {
	if err := w.append(record{typ: recFinished, seg: seg}); err == nil {
		w.mem.MarkFinished(seg)
	}
}

// Finished implements store.Store.
func (w *Store) Finished(seg rlnc.SegmentID) bool { return w.mem.Finished(seg) }

// Range implements store.Store.
func (w *Store) Range(f func(seg rlnc.SegmentID, col *peercore.Collection)) { w.mem.Range(f) }

// Close implements store.Store: stop the flusher, write a final snapshot
// (making the next Open a pure snapshot load), seal the log, and release
// the in-RAM state. Returns the first write-path error the store
// swallowed, if any.
func (w *Store) Close() error {
	w.stopFlusher()
	// The snapshot rotates, which drains and fsyncs everything pending.
	if err := w.snapshot(); err != nil {
		w.noteErr(err)
	}
	w.iomu.Lock()
	w.wmu.Lock()
	alreadyClosed := w.closed
	w.closed = true
	w.wmu.Unlock()
	if !alreadyClosed {
		if err := w.f.Sync(); err != nil {
			w.noteErr(err)
		}
		if err := w.f.Close(); err != nil {
			w.noteErr(err)
		}
	}
	w.iomu.Unlock()
	w.mem.Close() //nolint:errcheck // in-memory close cannot fail
	w.wmu.Lock()
	defer w.wmu.Unlock()
	return w.lastErr
}

// Crash implements store.Crasher: simulate abrupt process death. The
// pending batch — records appended but not yet drained — is dropped and
// the file handle closed with no snapshot and no fsync, exactly the bytes
// a killed process would lose. The in-RAM state is left readable so tests
// can compare pre-crash ranks against what a reopened store recovers.
func (w *Store) Crash() {
	w.stopFlusher()
	w.iomu.Lock()
	w.wmu.Lock()
	alreadyClosed := w.closed
	w.closed = true
	w.batch = nil
	w.wmu.Unlock()
	if !alreadyClosed {
		w.f.Close() //nolint:errcheck // crash path drops everything
	}
	w.iomu.Unlock()
}

func (w *Store) stopFlusher() {
	if w.flushStop != nil {
		close(w.flushStop)
		<-w.flushDone
		w.flushStop = nil
	}
}
