package wal

import (
	"fmt"
	"os"
	"testing"

	"p2pcollect/internal/collect/store"
	"p2pcollect/internal/raceon"
	"p2pcollect/internal/randx"
	"p2pcollect/internal/rlnc"
)

// benchDir places WAL benchmark state on tmpfs when the host has one, so
// the numbers measure the CPU of the durability layer rather than the
// sequential-write throughput of whatever disk backs the temp dir (which
// the 1 KiB-payload receive benchmark otherwise saturates).
func benchDir(tb testing.TB) string {
	tb.Helper()
	if info, err := os.Stat("/dev/shm"); err == nil && info.IsDir() {
		dir, err := os.MkdirTemp("/dev/shm", "walbench-")
		if err == nil {
			tb.Cleanup(func() { os.RemoveAll(dir) })
			return dir
		}
	}
	return tb.TempDir()
}

// benchSegment builds one source segment for benchmarks.
func benchSegment(tb testing.TB, rng *randx.Rand, id rlnc.SegmentID, s, payloadLen int) *rlnc.Segment {
	tb.Helper()
	blocks := make([][]byte, s)
	for i := range blocks {
		blocks[i] = make([]byte, payloadLen)
		rng.FillCoefficients(blocks[i])
	}
	seg, err := rlnc.NewSegment(id, blocks)
	if err != nil {
		tb.Fatal(err)
	}
	return seg
}

// TestZeroAllocPaths pins each per-block durability path at 0 allocations
// per call, timed by the benchmark of the same name over the same
// operation and store configuration, which neither rotates nor snapshots.
// AllocsPerRun, like -benchmem, truncates the mean, so 0 means fewer
// allocations than calls: a receive path opens a fresh decoder every s
// blocks and stays below one allocation per block over a pass of the pool,
// measured after a first pass has grown every buffer.
func TestZeroAllocPaths(t *testing.T) {
	if raceon.Enabled {
		t.Skip("allocation budgets describe the uninstrumented build")
	}
	for _, p := range []struct {
		name string
		op   func(testing.TB) func()
	}{
		{"AppendRecord", appendRecordOp},
		{"WALReceive", walReceive},
		{"MemoryReceive", memoryReceive},
	} {
		op := p.op(t)
		for i := 0; i < receivePool; i++ {
			op()
		}
		if n := testing.AllocsPerRun(receivePool, op); n != 0 {
			t.Errorf("%s: %v allocations per call, want 0", p.name, n)
		}
	}
}

// benchOp times op, the call TestZeroAllocPaths measures.
func benchOp(b *testing.B, bytes int64, op func()) {
	b.SetBytes(bytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// benchRecord is one received block at s=16 with a 1 KiB payload.
var benchRecord = record{
	typ:     recBlock,
	seg:     rlnc.SegmentID{Origin: 7, Seq: 42},
	coeffs:  make([]byte, 16),
	payload: make([]byte, 1024),
}

// appendRecordOp is framing alone — the CPU the log adds to every received
// block before any I/O — into a reused scratch buffer.
func appendRecordOp(testing.TB) func() {
	buf := appendRecord(nil, benchRecord)
	return func() { buf = appendRecord(buf[:0], benchRecord) }
}

func BenchmarkAppendRecord(b *testing.B) {
	benchOp(b, int64(len(appendRecord(nil, benchRecord))), appendRecordOp(b))
}

// walReceive is the full durable receive path in the default group-commit
// mode, against memoryReceive below — the pair bounds the append overhead
// the log adds to the collection hot path.
func walReceive(tb testing.TB) func() {
	w, err := Open(Options{Config: Config{
		Dir:           benchDir(tb),
		Sync:          SyncInterval,
		SnapshotEvery: 1 << 30, // never: isolate the append path
		SegmentBytes:  1 << 40,
	}})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(w.Crash) // skip the Close-time snapshot
	return receiveOp(tb, w)
}

// memoryReceive is the in-RAM reference for walReceive.
func memoryReceive(tb testing.TB) func() {
	m, err := store.NewMemory(store.MemoryConfig{})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { m.Close() }) //nolint:errcheck // in-memory close cannot fail
	return receiveOp(tb, m)
}

const receiveSegSize, receivePayload, receivePool = 16, 1024, 4096

// receiveOp receives the next block of a pre-encoded pool spread over many
// segments, forgetting each segment as it fills so rank work stays in
// steady state.
func receiveOp(tb testing.TB, st store.Store) func() {
	rng := randx.New(1)
	segs := make([]*rlnc.Segment, 64)
	for i := range segs {
		segs[i] = benchSegment(tb, rng, rlnc.SegmentID{Origin: 1, Seq: uint64(i)}, receiveSegSize, receivePayload)
	}
	pool := make([]*rlnc.CodedBlock, receivePool)
	for i := range pool {
		pool[i] = segs[i%len(segs)].Encode(rng)
	}
	var i int
	return func() {
		cb := pool[i%len(pool)]
		i++
		_, col, err := st.Receive(1, cb)
		if err != nil {
			tb.Fatal(err)
		}
		if col.RankDeficit() == 0 {
			col.Release()
			st.Forget(cb.Seg)
		}
	}
}

func BenchmarkWALReceive(b *testing.B) {
	benchOp(b, receiveSegSize+receivePayload, walReceive(b))
}

func BenchmarkMemoryReceive(b *testing.B) {
	benchOp(b, receiveSegSize+receivePayload, memoryReceive(b))
}

// BenchmarkSnapshot measures encoding + atomically writing a snapshot of a
// store holding 32 half-full collections — the periodic cost SnapshotEvery
// amortizes.
func BenchmarkSnapshot(b *testing.B) {
	dir := benchDir(b)
	w, err := Open(Options{Config: Config{
		Dir:           dir,
		Sync:          SyncNone,
		SnapshotEvery: 1 << 30,
	}})
	if err != nil {
		b.Fatal(err)
	}
	defer w.Crash()
	const s, payloadLen = 16, 1024
	rng := randx.New(2)
	for i := 0; i < 32; i++ {
		src := benchSegment(b, rng, rlnc.SegmentID{Origin: 2, Seq: uint64(i)}, s, payloadLen)
		for j := 0; j < s/2; j++ {
			if _, _, err := w.Receive(1, src.Encode(rng)); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.snapshot(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecovery measures cold-start: open a directory holding a
// snapshot of 32 half-full collections plus a log tail of 512 records.
func BenchmarkRecovery(b *testing.B) {
	dir := benchDir(b)
	w, err := Open(Options{Config: Config{
		Dir:           dir,
		Sync:          SyncAlways, // every tail record must survive the crash below
		SnapshotEvery: 1 << 30,
	}})
	if err != nil {
		b.Fatal(err)
	}
	const s, payloadLen = 16, 1024
	rng := randx.New(3)
	for i := 0; i < 32; i++ {
		src := benchSegment(b, rng, rlnc.SegmentID{Origin: 3, Seq: uint64(i)}, s, payloadLen)
		for j := 0; j < s/2; j++ {
			if _, _, err := w.Receive(1, src.Encode(rng)); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := w.snapshot(); err != nil {
		b.Fatal(err)
	}
	tail := make([]*rlnc.Segment, 8)
	for i := range tail {
		tail[i] = benchSegment(b, rng, rlnc.SegmentID{Origin: 4, Seq: uint64(i)}, s, payloadLen)
	}
	for i := 0; i < 512; i++ {
		if _, _, err := w.Receive(1, tail[i%len(tail)].Encode(rng)); err != nil {
			b.Fatal(err)
		}
	}
	// Crash, not Close: Close would snapshot again and erase the replay
	// tail this benchmark exists to measure.
	w.Crash()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w2, err := Open(Options{Config: Config{Dir: dir, Sync: SyncNone}})
		if err != nil {
			b.Fatal(err)
		}
		if w2.Recovery().OpenSegments == 0 {
			b.Fatal("recovered nothing")
		}
		w2.Crash()
	}
}

// BenchmarkJournalPersist measures one durable delivery claim (append +
// fsync) — the per-delivered-segment cost of the durable fleet journal.
func BenchmarkJournalPersist(b *testing.B) {
	path := fmt.Sprintf("%s/journal.claims", benchDir(b))
	j, jf, err := OpenJournal(path, 0)
	if err != nil {
		b.Fatal(err)
	}
	defer jf.Close() //nolint:errcheck // tmp dir
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !j.Claim(rlnc.SegmentID{Origin: 9, Seq: uint64(i)}) {
			b.Fatal("claim lost")
		}
	}
}
