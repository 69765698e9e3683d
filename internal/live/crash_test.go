package live

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"

	"p2pcollect/internal/collect/store/wal"
	"p2pcollect/internal/obs"
	"p2pcollect/internal/peercore"
	"p2pcollect/internal/rlnc"
	"p2pcollect/internal/transport"
)

// crashServerConfig is the durable standalone server the crash tests run:
// SyncAlways so every logged block survives the crash and recovery must
// resume at exactly the pre-crash rank, SnapshotEvery small enough that a
// short stream crosses several snapshot+compaction cycles.
func crashServerConfig(dir string) ServerConfig {
	return ServerConfig{
		Peers:       []transport.NodeID{1},
		SegmentSize: 4,
		Seed:        1,
		Durability: wal.Config{
			Dir:           dir,
			Sync:          wal.SyncAlways,
			SnapshotEvery: 16,
			SegmentBytes:  4096,
		},
	}
}

// freezeRanks snapshots every open collection's rank. Safe after
// CrashStop: the crashed store's in-RAM state stays readable.
func freezeRanks(srv *Server) map[rlnc.SegmentID]int {
	ranks := make(map[rlnc.SegmentID]int)
	srv.Service().Store().Range(func(seg rlnc.SegmentID, col *peercore.Collection) {
		ranks[seg] = col.Rank()
	})
	return ranks
}

// TestServerCrashRecoveryResumesRank is the tentpole's acceptance test: a
// durable server is hard-stopped mid-run — some segments delivered, some
// partially collected — and a server restarted over the same WAL directory
// must resume every open segment at exactly its pre-crash rank, never
// re-deliver a finished segment, and decode the resumed segments to the
// original bytes once the missing blocks arrive.
func TestServerCrashRecoveryResumesRank(t *testing.T) {
	const numSegs, size, payloadLen, doneSegs = 12, 4, 64, 5
	originals, stream := buildSegmentStream(numSegs, size, payloadLen)
	dir := t.TempDir()
	net := transport.NewNetwork()
	peerTr := net.Join(1)
	defer peerTr.Close()

	srv, err := NewServer(net.Join(1000), crashServerConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	delivered := make(map[rlnc.SegmentID]int)
	record := func(id rlnc.SegmentID, blocks [][]byte) {
		mu.Lock()
		delivered[id]++
		mu.Unlock()
	}
	srv.OnSegment = record
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}

	// buildSegmentStream interleaves rounds: stream[k*numSegs+i] is segment
	// i's k-th block. Two rounds for everyone, then the remaining rounds
	// for the first doneSegs segments only — so doneSegs deliver and the
	// rest crash mid-collection.
	sent := 0
	feed := func(tr transport.Transport, to transport.NodeID, k, i int) {
		t.Helper()
		if err := tr.Send(to, &transport.Message{Type: transport.MsgBlock, Block: stream[k*numSegs+i].Clone()}); err != nil {
			t.Fatal(err)
		}
		sent++
	}
	for k := 0; k < 2; k++ {
		for i := 0; i < numSegs; i++ {
			feed(peerTr, 1000, k, i)
		}
	}
	for k := 2; k < size+3; k++ {
		for i := 0; i < doneSegs; i++ {
			feed(peerTr, 1000, k, i)
		}
	}
	waitForReceived(t, srv, int64(sent))
	mu.Lock()
	if len(delivered) != doneSegs {
		mu.Unlock()
		t.Fatalf("delivered %d segments before crash, want %d", len(delivered), doneSegs)
	}
	mu.Unlock()

	srv.CrashStop()
	want := freezeRanks(srv)
	if len(want) != numSegs-doneSegs {
		t.Fatalf("crashed with %d open segments, want %d", len(want), numSegs-doneSegs)
	}

	// Restart over the same directory. Recovery must have loaded a
	// snapshot (SnapshotEvery 16 over ~60 block records), replayed a tail,
	// and rebuilt exactly the frozen ranks.
	srv2, err := NewServer(net.Join(1000), crashServerConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	stats, ok := srv2.Service().Recovery()
	if !ok {
		t.Fatal("durable server reports no recovery stats")
	}
	if !stats.SnapshotLoaded {
		t.Error("recovery loaded no snapshot despite SnapshotEvery 16")
	}
	if stats.TornTail {
		t.Error("clean crash recovered with a torn tail")
	}
	if stats.OpenSegments != numSegs-doneSegs {
		t.Errorf("recovered %d open segments, want %d", stats.OpenSegments, numSegs-doneSegs)
	}
	got := freezeRanks(srv2)
	for seg, w := range want {
		g, ok := got[seg]
		if !ok {
			t.Errorf("segment %v lost in recovery", seg)
			continue
		}
		if g != w {
			t.Errorf("segment %v recovered at rank %d, want %d", seg, g, w)
		}
	}
	for i := 0; i < doneSegs; i++ {
		seg := rlnc.SegmentID{Origin: 42, Seq: uint64(i)}
		if !srv2.Service().Store().Finished(seg) {
			t.Errorf("delivered segment %v not finished after recovery", seg)
		}
	}

	// Resume: feed the missing rounds for the crashed segments; each must
	// deliver exactly once with the original bytes, and no pre-crash
	// delivery may repeat.
	recovered := make(map[rlnc.SegmentID][][]byte)
	srv2.OnSegment = func(id rlnc.SegmentID, blocks [][]byte) {
		record(id, blocks)
		mu.Lock()
		recovered[id] = blocks
		mu.Unlock()
	}
	if err := srv2.Start(); err != nil {
		t.Fatal(err)
	}
	peerTr2 := net.Join(1)
	defer peerTr2.Close()
	resumeSent := 0
	for k := 2; k < size+3; k++ {
		for i := doneSegs; i < numSegs; i++ {
			if err := peerTr2.Send(1000, &transport.Message{Type: transport.MsgBlock, Block: stream[k*numSegs+i].Clone()}); err != nil {
				t.Fatal(err)
			}
			resumeSent++
		}
	}
	waitForReceived(t, srv2, int64(resumeSent))
	srv2.Stop()

	mu.Lock()
	defer mu.Unlock()
	if len(delivered) != numSegs {
		t.Fatalf("delivered %d segments across the crash, want %d", len(delivered), numSegs)
	}
	for seg, n := range delivered {
		if n != 1 {
			t.Errorf("segment %v delivered %d times across the crash, want exactly 1", seg, n)
		}
	}
	for seg, blocks := range recovered {
		for j, b := range blocks {
			if string(b) != string(originals[seg][j]) {
				t.Errorf("segment %v block %d decoded wrong bytes after recovery", seg, j)
			}
		}
	}

	// A clean Close snapshots, so a third open is a pure snapshot load.
	srv3, err := NewServer(net.Join(1000), crashServerConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	if stats, _ := srv3.Service().Recovery(); stats.ReplayedRecords != 0 {
		t.Errorf("open after clean Close replayed %d records, want 0", stats.ReplayedRecords)
	}
	srv3.Service().Close()
}

// TestServerCrashTornTail crashes a durable server, corrupts the log the
// way a real crash does — a final record cut off mid-frame — and requires
// recovery to report the torn tail and still resume every durable rank.
func TestServerCrashTornTail(t *testing.T) {
	const numSegs, size, payloadLen = 6, 4, 64
	_, stream := buildSegmentStream(numSegs, size, payloadLen)
	dir := t.TempDir()
	net := transport.NewNetwork()
	peerTr := net.Join(1)
	defer peerTr.Close()

	cfg := crashServerConfig(dir)
	cfg.Durability.SnapshotEvery = 1 << 20 // pure log replay this time
	cfg.Durability.SegmentBytes = 1 << 20
	srv, err := NewServer(net.Join(1000), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 2; k++ {
		for i := 0; i < numSegs; i++ {
			if err := peerTr.Send(1000, &transport.Message{Type: transport.MsgBlock, Block: stream[k*numSegs+i].Clone()}); err != nil {
				t.Fatal(err)
			}
		}
	}
	waitForReceived(t, srv, int64(2*numSegs))
	srv.CrashStop()
	want := freezeRanks(srv)

	// Tear the tail: a frame header promising a 16-byte body, then EOF.
	logs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(logs) == 0 {
		t.Fatalf("no log segments on disk: %v", err)
	}
	sort.Strings(logs)
	f, err := os.OpenFile(logs[len(logs)-1], os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{16, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	srv2, err := NewServer(net.Join(1000), cfg)
	if err != nil {
		t.Fatal(err)
	}
	stats, ok := srv2.Service().Recovery()
	if !ok || !stats.TornTail {
		t.Errorf("recovery missed the torn tail: %+v", stats)
	}
	if got := freezeRanks(srv2); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("ranks after torn-tail recovery = %v, want %v", got, want)
	}
	srv2.Service().Close()
}

// TestFleetCrashRestartDurableJournal is the fleet half of the crash
// story: a 4-shard fleet with per-shard WALs and a durable shared delivery
// journal runs under 20% message loss; one shard is hard-stopped mid-run
// and restarted from its WAL directory. Every segment injected before the
// crash must still be delivered, exactly once fleet-wide — the restarted
// shard resumes its collections and the journal stops it from re-claiming
// anything the fleet delivered while it was down. Run under -race in CI.
func TestFleetCrashRestartDurableJournal(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock chaos test")
	}
	root := t.TempDir()
	var mu sync.Mutex
	delivered := make(map[rlnc.SegmentID]int)
	onSegment := func(id rlnc.SegmentID, blocks [][]byte) {
		mu.Lock()
		delivered[id]++
		mu.Unlock()
	}
	cfg := fleetClusterConfig(onSegment)
	cfg.TraceCap = 1 << 14
	// Blocks must stay collectible for the whole test window: losing a
	// segment's last copy of some dimension to expiry or buffer eviction
	// is ordinary protocol data loss, and this test is about crash
	// recovery, not churn. (Gamma as in TestFleetShardKillChaos, for the
	// reason given there.)
	cfg.Node.Gamma = 1e-6
	cfg.Node.BufferCap = 8192
	cfg.Server.Durability = wal.Config{Dir: root, Sync: wal.SyncAlways, SnapshotEvery: 256}
	cfg.Listen = faultyListen(transport.NewNetwork(), 6151, 3, lossy20)
	cluster, err := StartCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()

	time.Sleep(time.Second)
	injected := make(map[rlnc.SegmentID]bool)
	for _, ev := range cluster.Tracer.Tail(cluster.Tracer.Len()) {
		if ev.Kind == obs.TraceInject {
			injected[ev.Seg] = true
		}
	}
	if len(injected) < 10 {
		t.Fatalf("only %d segments injected before the crash", len(injected))
	}
	cluster.Servers[0].CrashStop()

	// Restart shard 0 over its WAL directory, sharing the live journal:
	// the crashed server's own config, on a fresh transport and seed.
	srvCfg := cluster.Servers[0].Config()
	srvCfg.Seed = 424243
	tr, err := cfg.Listen(cluster.Servers[0].ID())
	if err != nil {
		t.Fatal(err)
	}
	srv2, err := NewServer(tr, srvCfg)
	if err != nil {
		t.Fatal(err)
	}
	stats, ok := srv2.Service().Recovery()
	if !ok {
		t.Fatal("restarted shard reports no recovery stats")
	}
	if !stats.SnapshotLoaded && stats.ReplayedRecords == 0 && stats.OpenSegments == 0 {
		t.Error("restarted shard recovered nothing from a 1s fleet run")
	}
	srv2.OnSegment = onSegment
	if err := srv2.Start(); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(60 * time.Second)
	remaining := func() []rlnc.SegmentID {
		var out []rlnc.SegmentID
		for seg := range injected {
			if !cluster.Journal.Delivered(seg) {
				out = append(out, seg)
			}
		}
		return out
	}
	for time.Now().Before(deadline) {
		if len(remaining()) == 0 {
			break
		}
		time.Sleep(100 * time.Millisecond)
	}
	if left := remaining(); len(left) != 0 {
		reportUndelivered(t, cluster, append([]*Server{srv2}, cluster.Servers[1:]...), left)
		t.Fatalf("%d of %d pre-crash segments never delivered after shard crash+restart under 20%% loss: %v",
			len(left), len(injected), left)
	}
	srv2.Stop()
	cluster.Stop() // also seals the durable journal file

	mu.Lock()
	for seg, n := range delivered {
		if n != 1 {
			t.Errorf("segment %v delivered %d times across the crash, want exactly 1", seg, n)
		}
	}
	total := len(delivered)
	mu.Unlock()

	// The journal file must have persisted every claim: reopen it cold and
	// check each delivered segment is still claimed.
	j2, jf2, err := wal.OpenJournal(filepath.Join(root, "journal.claims"), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer jf2.Close() //nolint:errcheck // read-back handle
	mu.Lock()
	for seg := range delivered {
		if !j2.Delivered(seg) {
			t.Errorf("segment %v delivered but missing from the reopened journal", seg)
		}
	}
	mu.Unlock()
	t.Logf("all %d pre-crash segments delivered across a shard crash (%d total deliveries, recovery %+v)",
		len(injected), total, stats)
}

// TestWALSnapshotAgeReadAtScrape: walSnapshotAgeSeconds is read when the
// snapshot is taken, so it keeps aging on a server that appends nothing,
// and falls back to about zero once a snapshot completes.
func TestWALSnapshotAgeReadAtScrape(t *testing.T) {
	cfg := crashServerConfig(t.TempDir())
	cfg.Durability.SnapshotEvery = 1 // the next received block snapshots
	net := transport.NewNetwork()
	srv, err := NewServer(net.Join(1000), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Service().Close()
	age := func() float64 {
		v, ok := srv.Registry().Snapshot().Gauges["walSnapshotAgeSeconds"]
		if !ok {
			t.Fatal("walSnapshotAgeSeconds gauge missing")
		}
		return v
	}

	before := age()
	time.Sleep(60 * time.Millisecond) // no record is appended meanwhile
	idle := age()
	if idle-before < 0.05 {
		t.Errorf("age went %.4f -> %.4f over 60ms without an append, want +0.05 or more", before, idle)
	}

	_, stream := buildSegmentStream(1, 4, 16)
	if _, _, err := srv.Service().Store().Receive(0, stream[0]); err != nil {
		t.Fatal(err)
	}
	if after := age(); after >= idle || after > 0.05 {
		t.Errorf("age = %.4f right after a snapshot (was %.4f), want a reset to about 0", after, idle)
	}
}
