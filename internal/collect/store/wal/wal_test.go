package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"p2pcollect/internal/collect/store"
	"p2pcollect/internal/collect/store/storetest"
	"p2pcollect/internal/peercore"
	"p2pcollect/internal/randx"
	"p2pcollect/internal/rlnc"
)

// openStore builds a durable store of segment size s in dir with
// test-friendly defaults; tweak overrides fields after defaulting.
func openStore(t *testing.T, dir string, s int, tweak func(*Options)) *Store {
	t.Helper()
	opts := Options{Config: Config{Dir: dir, Sync: SyncAlways}, SegmentSize: s}
	if tweak != nil {
		tweak(&opts)
	}
	w, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func makeSegment(t *testing.T, rng *randx.Rand, id rlnc.SegmentID, s, payloadLen int) *rlnc.Segment {
	t.Helper()
	blocks := make([][]byte, s)
	for i := range blocks {
		blocks[i] = make([]byte, payloadLen)
		rng.FillCoefficients(blocks[i])
	}
	seg, err := rlnc.NewSegment(id, blocks)
	if err != nil {
		t.Fatal(err)
	}
	return seg
}

// TestConformance runs the durable store through the shared store.Store
// suite: same ops table, same golden differential stream as Memory,
// byte-identical outcomes required. Snapshots fire mid-stream (tiny
// SnapshotEvery) so compaction is exercised under the differential too.
func TestConformance(t *testing.T) {
	storetest.Run(t, func(t *testing.T, s int) store.Store {
		return openStore(t, t.TempDir(), s, func(o *Options) {
			o.SnapshotEvery = 64
			o.SegmentBytes = 4096
		})
	})
}

// TestConformanceIntervalSync re-runs the suite in the default group-commit
// mode (durability is weaker; observable behavior must be identical).
func TestConformanceIntervalSync(t *testing.T) {
	storetest.Run(t, func(t *testing.T, s int) store.Store {
		return openStore(t, t.TempDir(), s, func(o *Options) {
			o.Sync = SyncInterval
		})
	})
}

// TestRecordRoundTrip covers the record codec directly.
func TestRecordRoundTrip(t *testing.T) {
	seg := rlnc.SegmentID{Origin: 5, Seq: 77}
	recs := []record{
		{typ: recBlock, seg: seg, coeffs: []byte{1, 2, 3}, payload: []byte{9, 8, 7, 6}},
		{typ: recBlock, seg: seg, coeffs: []byte{4, 5, 6}}, // rank-only: payload nil
		{typ: recFinished, seg: seg},
		{typ: recForget, seg: seg},
	}
	var buf []byte
	for _, r := range recs {
		buf = appendRecord(buf, r)
	}
	off := 0
	for i, want := range recs {
		got, n, err := decodeRecord(buf[off:])
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if got.typ != want.typ || got.seg != want.seg ||
			!bytes.Equal(got.coeffs, want.coeffs) || !bytes.Equal(got.payload, want.payload) {
			t.Fatalf("record %d: got %+v, want %+v", i, got, want)
		}
		if (got.payload == nil) != (want.payload == nil) {
			t.Fatalf("record %d: payload nil-ness lost", i)
		}
		off += n
	}
	if off != len(buf) {
		t.Fatalf("consumed %d of %d bytes", off, len(buf))
	}

	// Every truncation of the first record is torn, never corrupt.
	for cut := 1; cut < frameHeaderSize+recs[0].bodySize(); cut++ {
		if _, _, err := decodeRecord(buf[:cut]); err != errTornRecord {
			t.Fatalf("cut %d: err = %v, want torn", cut, err)
		}
	}
	// A flipped body bit is corrupt.
	bad := append([]byte(nil), buf...)
	bad[frameHeaderSize+3] ^= 0x40
	if _, _, err := decodeRecord(bad); err != ErrCorrupt {
		t.Fatalf("bit flip: err = %v, want ErrCorrupt", err)
	}
}

// TestCloseReopen checks the clean-shutdown path: Close snapshots, so a
// reopen is a pure snapshot load (no replay) that resumes the exact rank
// and decodes to the same bytes. The store reduces payloads eagerly,
// as they arrive.
func TestCloseReopen(t *testing.T) {
	t.Run("eager", testCloseReopen)
}

func testCloseReopen(t *testing.T) {
	dir := t.TempDir()
	rng := randx.New(3)
	const s, payloadLen = 5, 48
	idA := rlnc.SegmentID{Origin: 1, Seq: 1}
	idB := rlnc.SegmentID{Origin: 1, Seq: 2}
	segA := makeSegment(t, rng, idA, s, payloadLen)
	segB := makeSegment(t, rng, idB, s, payloadLen)

	w := openStore(t, dir, s, nil)
	for i := 0; i < s-2; i++ {
		if _, _, err := w.Receive(1, segA.Encode(rng)); err != nil {
			t.Fatal(err)
		}
	}
	w.MarkFinished(idB)
	wantRank := w.Collection(idA).Rank()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2 := openStore(t, dir, s, nil)
	defer w2.Close() //nolint:errcheck // tmp dir
	rs := w2.Recovery()
	if !rs.SnapshotLoaded {
		t.Error("no snapshot loaded after clean Close")
	}
	if rs.ReplayedRecords != 0 {
		t.Errorf("replayed %d records after clean Close, want 0", rs.ReplayedRecords)
	}
	col := w2.Collection(idA)
	if col == nil {
		t.Fatal("segment A not recovered")
	}
	if col.Rank() != wantRank {
		t.Errorf("recovered rank = %d, want %d", col.Rank(), wantRank)
	}
	if !w2.Finished(idB) {
		t.Error("finished set not recovered")
	}

	// Finishing the segment post-recovery decodes the source bytes.
	for col.RankDeficit() > 0 {
		if _, _, err := w2.Receive(2, segA.Encode(rng)); err != nil {
			t.Fatal(err)
		}
	}
	decoded, err := col.Decode()
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range segA.Blocks {
		if !bytes.Equal(decoded[i], want) {
			t.Fatalf("decoded block %d differs after recovery", i)
		}
	}
	_ = segB
}

// TestReopenFullRankSegmentReadsDecoded brings a segment to full rank with
// no finished or forget record, then reopens the directory, once replaying
// the log after a crash and once loading the snapshot a clean Close wrote.
// The recovered collection must read as decoded, as it did before the
// restart.
func TestReopenFullRankSegmentReadsDecoded(t *testing.T) {
	for _, tc := range []struct {
		name string
		stop func(*Store)
	}{
		{"crash", (*Store).Crash},
		{"close", func(w *Store) {
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			rng := randx.New(5)
			id := rlnc.SegmentID{Origin: 2, Seq: 1}
			seg := makeSegment(t, rng, id, 4, 32)
			w := openStore(t, dir, 4, nil)
			for {
				_, col, err := w.Receive(1, seg.Encode(rng))
				if err != nil {
					t.Fatal(err)
				}
				if col.RankDeficit() == 0 {
					break
				}
			}
			tc.stop(w)

			w2 := openStore(t, dir, 4, nil)
			defer w2.Close() //nolint:errcheck // tmp dir
			col := w2.Collection(id)
			if col == nil {
				t.Fatal("full-rank segment not recovered")
			}
			if col.RankDeficit() != 0 || !col.Decoded() {
				t.Errorf("recovered rankDeficit=%d Decoded=%v", col.RankDeficit(), col.Decoded())
			}
		})
	}
}

// TestCrashRecoveryExactRank checks the headline guarantee: in SyncAlways
// mode an abrupt crash loses nothing — recovery replays the tail and
// resumes every collection at the exact pre-crash rank.
func TestCrashRecoveryExactRank(t *testing.T) {
	dir := t.TempDir()
	rng := randx.New(11)
	const s, payloadLen, nSegs = 6, 64, 4
	segs := make([]*rlnc.Segment, nSegs)
	for i := range segs {
		segs[i] = makeSegment(t, rng, rlnc.SegmentID{Origin: 9, Seq: uint64(i)}, s, payloadLen)
	}

	w := openStore(t, dir, s, nil)
	for i := 0; i < 40; i++ {
		src := segs[rng.Intn(nSegs)]
		if _, _, err := w.Receive(1, src.Encode(rng)); err != nil {
			t.Fatal(err)
		}
	}
	want := map[rlnc.SegmentID]int{}
	w.Range(func(seg rlnc.SegmentID, col *peercore.Collection) {
		want[seg] = col.Rank()
	})
	w.Crash()

	w2 := openStore(t, dir, s, nil)
	defer w2.Close() //nolint:errcheck // tmp dir
	rs := w2.Recovery()
	if rs.SnapshotLoaded {
		t.Error("unexpected snapshot after crash (none was written)")
	}
	if rs.ReplayedRecords == 0 {
		t.Error("no records replayed")
	}
	got := map[rlnc.SegmentID]int{}
	w2.Range(func(seg rlnc.SegmentID, col *peercore.Collection) {
		got[seg] = col.Rank()
	})
	if len(got) != len(want) {
		t.Fatalf("recovered %d collections, want %d", len(got), len(want))
	}
	for seg, rank := range want {
		if got[seg] != rank {
			t.Errorf("%v: recovered rank %d, want %d", seg, got[seg], rank)
		}
	}
	if rs.TotalRank == 0 || rs.OpenSegments != nSegs {
		t.Errorf("stats: %+v", rs)
	}
}

// TestTornTail simulates a crash mid-append at the disk level: bytes of an
// incomplete record at the log tail. Recovery reports the torn tail,
// discards it, and the next recovery is clean.
func TestTornTail(t *testing.T) {
	dir := t.TempDir()
	rng := randx.New(13)
	src := makeSegment(t, rng, rlnc.SegmentID{Origin: 2, Seq: 2}, 4, 32)

	w := openStore(t, dir, 4, nil)
	for i := 0; i < 3; i++ {
		if _, _, err := w.Receive(1, src.Encode(rng)); err != nil {
			t.Fatal(err)
		}
	}
	wantRank := w.Collection(src.ID).Rank()
	w.Crash()

	// Append half a record to the newest log file.
	logs, _, err := scanDir(dir)
	if err != nil || len(logs) == 0 {
		t.Fatalf("scan: %v, %d logs", err, len(logs))
	}
	full := appendRecord(nil, record{typ: recBlock, seg: src.ID,
		coeffs: []byte{1, 2, 3, 4}, payload: make([]byte, 32)})
	path := filepath.Join(dir, logName(logs[len(logs)-1]))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(full[:len(full)/2]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	w2 := openStore(t, dir, 4, nil)
	if !w2.Recovery().TornTail {
		t.Error("torn tail not reported")
	}
	if got := w2.Collection(src.ID).Rank(); got != wantRank {
		t.Errorf("rank after torn-tail recovery = %d, want %d", got, wantRank)
	}
	w2.Crash()

	// The torn bytes were truncated: a third recovery is clean.
	w3 := openStore(t, dir, 4, nil)
	defer w3.Close() //nolint:errcheck // tmp dir
	if w3.Recovery().TornTail {
		t.Error("torn tail reported again after truncation")
	}
	if got := w3.Collection(src.ID).Rank(); got != wantRank {
		t.Errorf("rank after second recovery = %d, want %d", got, wantRank)
	}
}

// TestIntervalSyncCrashBounded: in group-commit mode a crash may lose the
// unflushed tail, but never recovers MORE than was held, and what it
// recovers is a valid prefix the protocol can top up.
func TestIntervalSyncCrashBounded(t *testing.T) {
	dir := t.TempDir()
	rng := randx.New(17)
	src := makeSegment(t, rng, rlnc.SegmentID{Origin: 3, Seq: 3}, 8, 32)

	w := openStore(t, dir, 8, func(o *Options) { o.Sync = SyncInterval })
	for i := 0; i < 6; i++ {
		if _, _, err := w.Receive(1, src.Encode(rng)); err != nil {
			t.Fatal(err)
		}
	}
	preRank := w.Collection(src.ID).Rank()
	w.Crash() // drops anything the flusher had not yet committed

	w2 := openStore(t, dir, 8, nil)
	defer w2.Close() //nolint:errcheck // tmp dir
	var gotRank int
	if col := w2.Collection(src.ID); col != nil {
		gotRank = col.Rank()
	}
	if gotRank > preRank {
		t.Errorf("recovered rank %d exceeds pre-crash rank %d", gotRank, preRank)
	}
	// Whatever came back, the segment still completes and decodes.
	for w2.Collection(src.ID) == nil || w2.Collection(src.ID).RankDeficit() > 0 {
		if _, _, err := w2.Receive(2, src.Encode(rng)); err != nil {
			t.Fatal(err)
		}
	}
	decoded, err := w2.Collection(src.ID).Decode()
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range src.Blocks {
		if !bytes.Equal(decoded[i], want) {
			t.Fatalf("decoded block %d differs", i)
		}
	}
}

// TestIdleTickThenBurstKeepsLogIntact is the regression test for the
// batch/spare aliasing race: an idle flusher tick (empty drain) used to
// leave both buffers on one backing array, so the next tick's file write
// raced the appender refilling it. Run with -race; without it a corrupted
// record still surfaces as a torn tail or a short replay.
func TestIdleTickThenBurstKeepsLogIntact(t *testing.T) {
	dir := t.TempDir()
	rng := randx.New(29)
	src := makeSegment(t, rng, rlnc.SegmentID{Origin: 4, Seq: 4}, 8, 256)
	w := openStore(t, dir, 8, func(o *Options) {
		o.Sync = SyncInterval
		o.SyncInterval = time.Millisecond
		o.SnapshotEvery = 1 << 30 // every record must come back by replay
	})
	records := 0
	for round := 0; round < 30; round++ {
		time.Sleep(3 * time.Millisecond) // idle ticks: empty drains
		// A burst spanning several ticks, so drains overlap appends.
		for burst := time.Now().Add(3 * time.Millisecond); time.Now().Before(burst); records++ {
			if _, _, err := w.Receive(1, src.Encode(rng)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.drain(true); err != nil {
		t.Fatal(err)
	}
	w.Crash()

	w2 := openStore(t, dir, 8, nil)
	defer w2.Close() //nolint:errcheck // tmp dir
	if rs := w2.Recovery(); rs.TornTail || rs.ReplayedRecords != records {
		t.Fatalf("replayed %d of %d records, torn tail %v", rs.ReplayedRecords, records, rs.TornTail)
	}
}

// TestSnapshotCompaction checks that snapshots rotate + prune: after many
// finished segments the directory holds a bounded file set, and log bytes
// do not accumulate per-block history for finished work.
func TestSnapshotCompaction(t *testing.T) {
	dir := t.TempDir()
	rng := randx.New(19)
	const s, payloadLen = 3, 24
	w := openStore(t, dir, s, func(o *Options) { o.SnapshotEvery = 16 })

	for i := 0; i < 30; i++ {
		id := rlnc.SegmentID{Origin: 4, Seq: uint64(i)}
		src := makeSegment(t, rng, id, s, payloadLen)
		for w.Collection(id) == nil || w.Collection(id).RankDeficit() > 0 {
			if _, _, err := w.Receive(1, src.Encode(rng)); err != nil {
				t.Fatal(err)
			}
		}
		w.MarkFinished(id)
		w.Collection(id).Release()
		w.Forget(id)
	}
	logs, snaps, err := scanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 1 {
		t.Errorf("%d snapshots on disk, want 1 (older pruned)", len(snaps))
	}
	if len(logs) > 3 {
		t.Errorf("%d log segments on disk, want <= 3 after compaction", len(logs))
	}
	// Everything is finished, so the newest snapshot carries only the
	// finished IDs — it must be tiny relative to the traffic logged.
	info, err := os.Stat(filepath.Join(dir, snapName(snaps[len(snaps)-1])))
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() > 4096 {
		t.Errorf("snapshot is %dB for finished-only state, want small", info.Size())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2 := openStore(t, dir, s, nil)
	defer w2.Close() //nolint:errcheck // tmp dir
	for i := 0; i < 30; i++ {
		if !w2.Finished(rlnc.SegmentID{Origin: 4, Seq: uint64(i)}) {
			t.Fatalf("segment %d lost from finished set", i)
		}
	}
}

// TestRecoveredDecoded: a collection at full rank whose completion never
// became durable is reported for post-recovery delivery; completed ones are
// not.
func TestRecoveredDecoded(t *testing.T) {
	dir := t.TempDir()
	rng := randx.New(23)
	const s = 3
	idDone := rlnc.SegmentID{Origin: 6, Seq: 1}
	idPend := rlnc.SegmentID{Origin: 6, Seq: 2}
	w := openStore(t, dir, s, nil)
	for _, id := range []rlnc.SegmentID{idDone, idPend} {
		src := makeSegment(t, rng, id, s, 16)
		for w.Collection(id) == nil || w.Collection(id).RankDeficit() > 0 {
			if _, _, err := w.Receive(1, src.Encode(rng)); err != nil {
				t.Fatal(err)
			}
		}
	}
	w.MarkFinished(idDone)
	w.Collection(idDone).Release()
	w.Forget(idDone)
	w.Crash()

	w2 := openStore(t, dir, s, nil)
	defer w2.Close() //nolint:errcheck // tmp dir
	rec := w2.RecoveredDecoded()
	if len(rec) != 1 || rec[0] != idPend {
		t.Fatalf("RecoveredDecoded = %v, want [%v]", rec, idPend)
	}
	if w2.Recovery().DecodedPending != 1 {
		t.Errorf("DecodedPending = %d, want 1", w2.Recovery().DecodedPending)
	}
}

// TestJournal covers the durable delivery journal: claims persist across
// reopen, the winner-take-all contract holds across restarts, and a torn
// final claim record is truncated away.
func TestJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.claims")
	segA := rlnc.SegmentID{Origin: 1, Seq: 10}
	segB := rlnc.SegmentID{Origin: 1, Seq: 11}

	j, jf, err := OpenJournal(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !j.Claim(segA) {
		t.Fatal("first claim lost")
	}
	if j.Claim(segA) {
		t.Fatal("duplicate claim won")
	}
	if err := jf.Close(); err != nil {
		t.Fatal(err)
	}
	if j.Claim(segB) {
		t.Error("claim won after journal close (persist must have failed)")
	}

	// Simulate a crash mid-claim: torn record at the tail.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(make([]byte, claimRecordSize/2)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j2, jf2, err := OpenJournal(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer jf2.Close() //nolint:errcheck // tmp dir
	if j2.Claim(segA) {
		t.Error("restart forgot segA's claim — duplicate delivery")
	}
	if !j2.Claim(segB) {
		t.Error("segB claim lost (it never persisted)")
	}
	if j2.Count() != 2 {
		t.Errorf("journal count = %d, want 2", j2.Count())
	}
}

// TestParseSyncMode pins the flag spellings.
func TestParseSyncMode(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want SyncMode
		err  bool
	}{
		{"none", SyncNone, false},
		{"interval", SyncInterval, false},
		{"ALWAYS", SyncAlways, false},
		{"", SyncInterval, false},
		{"fsync", 0, true},
	} {
		got, err := ParseSyncMode(tc.in)
		if (err != nil) != tc.err || got != tc.want {
			t.Errorf("ParseSyncMode(%q) = %v, %v; want %v, err=%v", tc.in, got, err, tc.want, tc.err)
		}
		if err == nil && got.String() == "" {
			t.Errorf("SyncMode(%v).String() empty", got)
		}
	}
}

// feed receives n coded blocks round-robin over the sources.
func feed(t *testing.T, w *Store, rng *randx.Rand, srcs []*rlnc.Segment, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, _, err := w.Receive(1, srcs[i%len(srcs)].Encode(rng)); err != nil {
			t.Fatal(err)
		}
	}
}

// corruptLog flips one body byte of the record starting at off.
func corruptLog(t *testing.T, dir string, seq uint64, off int) {
	t.Helper()
	path := filepath.Join(dir, logName(seq))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[off+frameHeaderSize+3] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestRecoveryStopKeepsPrefixAcrossRestarts: a corrupt record in a
// non-final log segment stops replay there, and the state recovered then —
// a prefix of history — must still be what the NEXT restart recovers, plus
// whatever was appended in between. The segments past the stop point may
// never come back, and new records may never land in one of them.
func TestRecoveryStopKeepsPrefixAcrossRestarts(t *testing.T) {
	dir := t.TempDir()
	rng := randx.New(29)
	const s, payloadLen = 4, 32
	srcs := make([]*rlnc.Segment, 5)
	for i := range srcs {
		srcs[i] = makeSegment(t, rng, rlnc.SegmentID{Origin: 6, Seq: uint64(i)}, s, payloadLen)
	}
	recLen := len(appendRecord(nil, record{typ: recBlock,
		coeffs: make([]byte, s), payload: make([]byte, payloadLen)}))
	twoPerLog := func(o *Options) { o.SegmentBytes = int64(2 * recLen) }

	w := openStore(t, dir, s, twoPerLog)
	feed(t, w, rng, srcs, 10) // logs 1..5 hold two records each, 6 is the empty active one
	w.Crash()
	corruptLog(t, dir, 1, recLen) // the second record of log 1

	w = openStore(t, dir, s, twoPerLog)
	rs := w.Recovery()
	if !rs.TornTail || rs.ReplayedRecords != 1 || rs.OpenSegments != 1 || rs.TotalRank != 1 {
		t.Fatalf("recovery past a corrupt record: %+v, want a 1-record prefix", rs)
	}
	logs, _, err := scanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(logs) != 2 || logs[0] != 1 || logs[1] != 7 {
		t.Errorf("logs after recovery = %v, want [1 7]: the unreachable segments gone, the active one past everything seen", logs)
	}
	fresh := makeSegment(t, rng, rlnc.SegmentID{Origin: 6, Seq: 99}, s, payloadLen)
	feed(t, w, rng, []*rlnc.Segment{fresh}, 1)
	w.Crash()

	w = openStore(t, dir, s, twoPerLog)
	defer w.Close() //nolint:errcheck // tmp dir
	rs = w.Recovery()
	if rs.TornTail || rs.ReplayedRecords != 2 || rs.OpenSegments != 2 || rs.TotalRank != 2 {
		t.Errorf("second recovery: %+v, want the 1-record prefix plus the 1 new record", rs)
	}
	if w.Collection(fresh.ID) == nil || w.Collection(srcs[0].ID) == nil {
		t.Error("second recovery lost the prefix or the record appended after it")
	}
}

// TestInspectAgreesWithOpen: Inspect and Open are one walk, so over any
// directory Inspect reports exactly what Open then recovers (Duration
// aside), and Inspect leaves every byte on disk as it found it.
func TestInspectAgreesWithOpen(t *testing.T) {
	const s, payloadLen = 4, 32
	recLen := len(appendRecord(nil, record{typ: recBlock,
		coeffs: make([]byte, s), payload: make([]byte, payloadLen)}))
	twoPerLog := func(o *Options) { o.SegmentBytes = int64(2 * recLen) }
	cases := []struct {
		name  string
		build func(t *testing.T, dir string, rng *randx.Rand, srcs []*rlnc.Segment)
		check func(t *testing.T, rs RecoveryStats)
	}{
		{"clean close", func(t *testing.T, dir string, rng *randx.Rand, srcs []*rlnc.Segment) {
			w := openStore(t, dir, s, nil)
			feed(t, w, rng, srcs, 7)
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
		}, func(t *testing.T, rs RecoveryStats) {
			if !rs.SnapshotLoaded || rs.ReplayedRecords != 0 || rs.TornTail {
				t.Errorf("clean close: %+v, want a pure snapshot load", rs)
			}
		}},
		{"crash with a torn tail", func(t *testing.T, dir string, rng *randx.Rand, srcs []*rlnc.Segment) {
			w := openStore(t, dir, s, nil)
			feed(t, w, rng, srcs, 7)
			w.Crash()
			path := filepath.Join(dir, logName(1))
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, data[:len(data)-recLen/2], 0o644); err != nil {
				t.Fatal(err)
			}
		}, func(t *testing.T, rs RecoveryStats) {
			if rs.SnapshotLoaded || rs.ReplayedRecords != 6 || !rs.TornTail {
				t.Errorf("torn tail: %+v, want 6 replayed records and a torn tail", rs)
			}
		}},
		{"corrupt record in a non-final segment", func(t *testing.T, dir string, rng *randx.Rand, srcs []*rlnc.Segment) {
			w := openStore(t, dir, s, twoPerLog)
			feed(t, w, rng, srcs, 8)
			w.Crash()
			corruptLog(t, dir, 2, 0)
		}, func(t *testing.T, rs RecoveryStats) {
			if rs.ReplayedRecords != 2 || !rs.TornTail {
				t.Errorf("corrupt mid-log: %+v, want replay to stop after log 1", rs)
			}
		}},
		{"snapshot plus tail", func(t *testing.T, dir string, rng *randx.Rand, srcs []*rlnc.Segment) {
			w := openStore(t, dir, s, func(o *Options) { o.SnapshotEvery = 5 })
			feed(t, w, rng, srcs, 8)
			w.Crash()
		}, func(t *testing.T, rs RecoveryStats) {
			if !rs.SnapshotLoaded || rs.ReplayedRecords != 3 || rs.TornTail {
				t.Errorf("snapshot plus tail: %+v, want the snapshot and 3 replayed records", rs)
			}
		}},
		{"unreadable newest snapshot", func(t *testing.T, dir string, rng *randx.Rand, srcs []*rlnc.Segment) {
			w := openStore(t, dir, s, nil)
			feed(t, w, rng, srcs, 7)
			w.Crash()
			if err := os.WriteFile(filepath.Join(dir, snapName(9)), []byte("not a snapshot"), 0o644); err != nil {
				t.Fatal(err)
			}
		}, func(t *testing.T, rs RecoveryStats) {
			if rs.SnapshotLoaded || rs.ReplayedRecords != 7 {
				t.Errorf("unreadable snapshot: %+v, want a fall back to full replay", rs)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			rng := randx.New(31)
			srcs := make([]*rlnc.Segment, 3)
			for i := range srcs {
				srcs[i] = makeSegment(t, rng, rlnc.SegmentID{Origin: 8, Seq: uint64(i)}, s, payloadLen)
			}
			tc.build(t, dir, rng, srcs)

			before := readDir(t, dir)
			got, err := Inspect(dir)
			if err != nil {
				t.Fatal(err)
			}
			if after := readDir(t, dir); !reflect.DeepEqual(before, after) {
				t.Errorf("Inspect changed the directory: %d files before, %d after, or their bytes differ", len(before), len(after))
			}
			tc.check(t, got)

			w := openStore(t, dir, s, nil)
			defer w.Close() //nolint:errcheck // tmp dir
			want := w.Recovery()
			got.Duration, want.Duration = 0, 0
			if got != want {
				t.Errorf("Inspect = %+v\nOpen    = %+v", got, want)
			}
		})
	}
}

// readDir maps every file in dir to its bytes.
func readDir(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string]string, len(entries))
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = string(data)
	}
	return files
}

// TestOpenAtOtherSegmentSizeFails: s is fixed at construction, and a
// directory whose snapshot was written at another size is an error that
// names both sizes, not a store that silently runs at the snapshot's size.
func TestOpenAtOtherSegmentSizeFails(t *testing.T) {
	dir := t.TempDir()
	if _, err := Open(Options{Config: Config{Dir: dir}}); err == nil {
		t.Fatal("Open accepted SegmentSize 0")
	}
	rng := randx.New(37)
	w := openStore(t, dir, 3, nil)
	src := makeSegment(t, rng, rlnc.SegmentID{Origin: 5, Seq: 1}, 3, 16)
	if _, _, err := w.Receive(1, src.Encode(rng)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w, err := Open(Options{Config: Config{Dir: dir, Sync: SyncAlways}, SegmentSize: 4})
	if err == nil {
		w.Close() //nolint:errcheck // tmp dir
		t.Fatal("Open at segment size 4 over a size-3 snapshot succeeded")
	}
	if msg := err.Error(); !strings.Contains(msg, "segment size 3") || !strings.Contains(msg, "segment size 4") {
		t.Errorf("error %q does not name both sizes", msg)
	}
	w = openStore(t, dir, 3, nil)
	defer w.Close() //nolint:errcheck // tmp dir
	if w.Collection(src.ID) == nil {
		t.Error("reopening at the snapshot's own size lost its collection")
	}
}

// TestInspectLogOnly: a store that crashed before its first snapshot
// leaves log records only, so Inspect reads s off the first block record.
// A stray block of another size, received first, is rejected without a
// record and cannot mislead it.
func TestInspectLogOnly(t *testing.T) {
	dir := t.TempDir()
	rng := randx.New(41)
	const s, payloadLen = 4, 32
	w := openStore(t, dir, s, nil)
	stray := makeSegment(t, rng, rlnc.SegmentID{Origin: 9, Seq: 0}, 3, payloadLen)
	if _, _, err := w.Receive(1, stray.Encode(rng)); err == nil {
		t.Fatal("a 3-coefficient block was accepted at segment size 4")
	}
	srcs := []*rlnc.Segment{
		makeSegment(t, rng, rlnc.SegmentID{Origin: 9, Seq: 1}, s, payloadLen),
		makeSegment(t, rng, rlnc.SegmentID{Origin: 9, Seq: 2}, s, payloadLen),
	}
	feed(t, w, rng, srcs, 5)
	w.Crash()

	got, err := Inspect(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.SnapshotLoaded || got.ReplayedRecords != 5 || got.OpenSegments != 2 || got.TotalRank != 5 {
		t.Errorf("Inspect = %+v, want 5 replayed records over 2 open segments of total rank 5", got)
	}
}

// TestOpenLogOnlyAtOtherSegmentSizeFails: a store that crashed before its
// first snapshot leaves block records only, and reopening it at another s
// is the same error as over a snapshot, read off the first block record,
// not a store that rejects every replayed block and opens empty.
func TestOpenLogOnlyAtOtherSegmentSizeFails(t *testing.T) {
	dir := t.TempDir()
	rng := randx.New(43)
	w := openStore(t, dir, 3, nil)
	src := makeSegment(t, rng, rlnc.SegmentID{Origin: 6, Seq: 1}, 3, 16)
	feed(t, w, rng, []*rlnc.Segment{src}, 2)
	w.Crash()

	w, err := Open(Options{Config: Config{Dir: dir, Sync: SyncAlways}, SegmentSize: 4})
	if err == nil {
		w.Close() //nolint:errcheck // tmp dir
		t.Fatal("Open at segment size 4 over a size-3 log succeeded")
	}
	if msg := err.Error(); !strings.Contains(msg, "segment size 3") || !strings.Contains(msg, "segment size 4") {
		t.Errorf("error %q does not name both sizes", msg)
	}
	w = openStore(t, dir, 3, nil)
	defer w.Close() //nolint:errcheck // tmp dir
	if col := w.Collection(src.ID); col == nil || col.Rank() != 2 {
		t.Error("reopening at the log's own size lost its collection")
	}
}

// snapshotV1 encodes a snapshot in the P2PCSNP1 layout older builds wrote,
// where each collection header carried the paper's collection-state
// counter after its segment ID: [8B origin][8B seq][4B state][4B
// payloadLen][4B rank] then the basis rows.
func snapshotV1(s int, finished []rlnc.SegmentID, seg rlnc.SegmentID, state, payloadLen int, basis []*rlnc.CodedBlock) []byte {
	le := binary.LittleEndian
	body := le.AppendUint32(nil, uint32(s))
	body = le.AppendUint32(body, uint32(len(finished)))
	for _, id := range finished {
		body = le.AppendUint64(le.AppendUint64(body, id.Origin), id.Seq)
	}
	body = le.AppendUint32(body, 1)
	body = le.AppendUint64(le.AppendUint64(body, seg.Origin), seg.Seq)
	body = le.AppendUint32(body, uint32(state))
	body = le.AppendUint32(body, uint32(payloadLen))
	body = le.AppendUint32(body, uint32(len(basis)))
	for _, cb := range basis {
		body = append(le.AppendUint32(body, uint32(len(cb.Coeffs))), cb.Coeffs...)
		body = append(le.AppendUint32(body, uint32(len(cb.Payload))), cb.Payload...)
	}
	out := le.AppendUint32([]byte(snapMagicV1), uint32(len(body)))
	out = le.AppendUint32(out, crc32.ChecksumIEEE(body))
	return append(out, body...)
}

// TestOpenReadsV1Snapshot opens a directory whose only snapshot is in the
// P2PCSNP1 layout: one finished segment and one half-full collection whose
// state word (3) is above its rank (2). The state is dropped, the rank is
// restored exactly, the segment decodes byte-for-byte once the missing
// blocks arrive, and the snapshot the store writes next is P2PCSNP2.
func TestOpenReadsV1Snapshot(t *testing.T) {
	const s, payloadLen = 4, 24
	rng := randx.New(17)
	done := rlnc.SegmentID{Origin: 3, Seq: 1}
	id := rlnc.SegmentID{Origin: 3, Seq: 2}
	seg := makeSegment(t, rng, id, s, payloadLen)
	basis := []*rlnc.CodedBlock{seg.SourceBlock(0), seg.SourceBlock(1)}
	dir := t.TempDir()
	v1 := snapshotV1(s, []rlnc.SegmentID{done}, id, 3, payloadLen, basis)
	if err := os.WriteFile(filepath.Join(dir, snapName(1)), v1, 0o644); err != nil {
		t.Fatal(err)
	}

	w := openStore(t, dir, s, nil)
	if rs := w.Recovery(); !rs.SnapshotLoaded || rs.SnapshotSegments != 1 || rs.TotalRank != 2 {
		t.Fatalf("recovery over a v1 snapshot: %+v", rs)
	}
	if !w.Finished(done) {
		t.Error("finished set not restored from the v1 snapshot")
	}
	col := w.Collection(id)
	if col == nil || col.Rank() != 2 {
		t.Fatalf("collection restored at %v, want rank 2", col)
	}
	for col.RankDeficit() > 0 {
		if _, _, err := w.Receive(1, seg.Encode(rng)); err != nil {
			t.Fatal(err)
		}
	}
	decoded, err := col.Decode()
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range seg.Blocks {
		if !bytes.Equal(decoded[i], want) {
			t.Fatalf("decoded block %d differs from the source", i)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	_, snaps, err := scanDir(dir)
	if err != nil || len(snaps) == 0 {
		t.Fatalf("no snapshot after Close: %v %v", snaps, err)
	}
	newest, err := os.ReadFile(filepath.Join(dir, snapName(snaps[len(snaps)-1])))
	if err != nil {
		t.Fatal(err)
	}
	if got := string(newest[:len(snapMagic)]); got != "P2PCSNP2" {
		t.Errorf("snapshot written with magic %q, want P2PCSNP2", got)
	}

	// Cut inside the first collection header (after its 4-byte state word,
	// before its rank), with the checksum fixed up: still ErrCorrupt.
	hdr := len(snapMagicV1) + 8 + 4 + 4 + 16 + 4 + 16 + 4
	cut := append([]byte(nil), v1[:hdr+4]...)
	binary.LittleEndian.PutUint32(cut[len(snapMagicV1):], uint32(len(cut)-len(snapMagicV1)-8))
	binary.LittleEndian.PutUint32(cut[len(snapMagicV1)+4:], crc32.ChecksumIEEE(cut[len(snapMagicV1)+8:]))
	if _, err := decodeSnapshot(cut); !errors.Is(err, ErrCorrupt) {
		t.Errorf("truncated v1 collection header: err = %v, want ErrCorrupt", err)
	}
}
