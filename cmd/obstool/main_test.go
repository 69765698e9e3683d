package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"p2pcollect/internal/collect/store/wal"
	"p2pcollect/internal/live"
	"p2pcollect/internal/obs"
	"p2pcollect/internal/randx"
	"p2pcollect/internal/rlnc"
	"p2pcollect/internal/transport"
)

// TestMergeLiveShardSnapshots is the fleet-aggregation acceptance test: a
// real 2-shard fleet runs until it has delivered traffic, each shard's
// registry is served on its own live debug endpoint, and obstool merge
// scrapes both and must fold them into one cluster view whose counters
// are the exact per-shard sums.
func TestMergeLiveShardSnapshots(t *testing.T) {
	delivered := make(chan struct{}, 64)
	cluster, err := live.StartCluster(live.ClusterConfig{
		Peers:   8,
		Servers: 2,
		Degree:  3,
		Node: live.NodeConfig{
			SegmentSize: 4,
			BlockSize:   64,
			Lambda:      6,
			Mu:          60,
			Gamma:       0.2,
			BufferCap:   256,
		},
		Server: live.ServerConfig{PullRate: 200},
		OnSegment: func(rlnc.SegmentID, [][]byte) {
			select {
			case delivered <- struct{}{}:
			default:
			}
		},
		Seed: 23,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()

	for i := 0; i < 5; i++ {
		select {
		case <-delivered:
		case <-time.After(15 * time.Second):
			t.Fatal("fleet delivered no segments in time")
		}
	}
	// Freeze the counters before scraping so the merged totals can be
	// checked against the per-shard snapshots exactly.
	cluster.Stop()

	var urls []string
	for _, srv := range cluster.Servers {
		d, err := obs.Serve("127.0.0.1:0", srv.Registry())
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		urls = append(urls, d.URL()+"/debug/snapshot")
	}

	var out bytes.Buffer
	if err := runMerge(&out, "text", "cluster", urls); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.Contains(text, "2 endpoints from 2 sources") {
		t.Fatalf("merge did not see both shards:\n%s", text)
	}

	// The merged counter must equal the sum over the live shard registries.
	var want int64
	for _, srv := range cluster.Servers {
		want += srv.Registry().Snapshot().Counters["blocksReceived"]
	}
	if want == 0 {
		t.Fatal("no shard counted received blocks — test fed no traffic")
	}
	wantLine := fmt.Sprintf("counter %-32s %d", "blocksReceived", want)
	if !strings.Contains(text, wantLine) {
		t.Fatalf("merged view missing %q:\n%s", wantLine, text)
	}
	// collectionTime runs from a segment's first block to its decode at
	// the server, so it must not be labeled as inject-to-delivery delay.
	if !strings.Contains(text, "collection time (first block → decode): p50=") ||
		strings.Contains(text, "delivery delay") {
		t.Fatalf("collectionTime histogram mislabeled in merged view:\n%s", text)
	}

	// The Prometheus rendering of the same merge must itself pass the
	// exposition lint — obstool's output can be re-exported.
	out.Reset()
	if err := runMerge(&out, "prom", "cluster", urls); err != nil {
		t.Fatal(err)
	}
	if err := obs.LintExposition(bytes.NewReader(out.Bytes())); err != nil {
		t.Fatalf("merged prom output fails lint: %v\n%s", err, out.String())
	}
}

// TestPostmortemDecodesCrashStopDump crash-stops a durable server mid-run
// and requires obstool postmortem to decode the flight recorder's last
// moments (including the serverCrash marker) and report the WAL state a
// restart would recover, without mutating the WAL directory.
func TestPostmortemDecodesCrashStopDump(t *testing.T) {
	const numSegs, size, payloadLen = 4, 4, 64
	dir := t.TempDir()
	net := transport.NewNetwork()
	peerTr := net.Join(1)
	defer peerTr.Close()

	srv, err := live.NewServer(net.Join(1000), live.ServerConfig{
		Peers:       []transport.NodeID{1},
		SegmentSize: size,
		Seed:        1,
		Durability: wal.Config{
			Dir:  dir,
			Sync: wal.SyncAlways,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}

	// Feed each segment rank-1 short of completion so the crash leaves
	// open collections for the WAL inspection to find.
	drv := rand.New(rand.NewSource(31))
	crng := randx.New(77)
	sent := 0
	for i := 0; i < numSegs; i++ {
		blocks := make([][]byte, size)
		for j := range blocks {
			blocks[j] = make([]byte, payloadLen)
			drv.Read(blocks[j])
		}
		seg, err := rlnc.NewSegment(rlnc.SegmentID{Origin: 42, Seq: uint64(i)}, blocks)
		if err != nil {
			t.Fatal(err)
		}
		src := seg.SourceBlocks()
		for k := 0; k < size-1; k++ {
			msg := &transport.Message{Type: transport.MsgBlock, Block: rlnc.Recode(src, crng)}
			if err := peerTr.Send(1000, msg); err != nil {
				t.Fatal(err)
			}
			sent++
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for srv.Stats().BlocksReceived < int64(sent) {
		if time.Now().After(deadline) {
			t.Fatalf("server did not drain %d blocks in time", sent)
		}
		time.Sleep(time.Millisecond)
	}
	srv.CrashStop()

	flightPath := filepath.Join(dir, "flight.bin")
	if _, err := os.Stat(flightPath); err != nil {
		t.Fatalf("CrashStop left no flight dump: %v", err)
	}

	var out bytes.Buffer
	if err := runPostmortem(&out, flightPath, ""); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.Contains(text, "serverCrash") {
		t.Fatalf("postmortem shows no serverCrash marker:\n%s", text)
	}
	if !strings.Contains(text, "recoverable state") {
		t.Fatalf("postmortem did not inspect the WAL:\n%s", text)
	}
	if !strings.Contains(text, fmt.Sprintf("open segments:     %d", numSegs)) {
		t.Fatalf("postmortem did not find the %d open segments:\n%s", numSegs, text)
	}

	// Postmortem must be read-only: a real recovery over the same dir must
	// still resume all open segments at full pre-crash rank.
	stats, err := wal.Inspect(dir)
	if err != nil {
		t.Fatal(err)
	}
	if stats.OpenSegments != numSegs || stats.TotalRank != numSegs*(size-1) {
		t.Fatalf("inspect found %d segments rank %d, want %d rank %d",
			stats.OpenSegments, stats.TotalRank, numSegs, numSegs*(size-1))
	}
}

// TestLintSubcommand checks both verdicts: a well-formed exposition passes
// and a duplicate-TYPE exposition (the bug the handler fix removed) fails.
func TestLintSubcommand(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.prom")
	if err := os.WriteFile(good, []byte("# TYPE x counter\nx 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(dir, "bad.prom")
	if err := os.WriteFile(bad, []byte("# TYPE x counter\nx 1\n# TYPE x counter\nx 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := runLint(&out, good); err != nil {
		t.Fatalf("good exposition rejected: %v", err)
	}
	if err := runLint(&out, bad); err == nil {
		t.Fatal("duplicate-TYPE exposition passed lint")
	}
}
