package live

import (
	"bytes"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"p2pcollect/internal/collect/store/wal"
	"p2pcollect/internal/fleet"
	"p2pcollect/internal/obs"
	"p2pcollect/internal/randx"
	"p2pcollect/internal/rlnc"
	"p2pcollect/internal/transport"
)

// TestGoldenOneShardFleetStreamWithObs extends the obs-does-not-perturb
// contract to the fleet: a 1-shard fleet server with a ring tracer
// attached (teeing every event into the always-on flight recorder) must
// replay the golden stream byte-identically — same deliveries, same
// counters. Tracing with sampling off may observe the run, never steer it.
func TestGoldenOneShardFleetStreamWithObs(t *testing.T) {
	checkGolden(t, runGoldenStream(t, func(cfg *ServerConfig) {
		cfg.Shards = 1
		cfg.ShardID = 0
		cfg.Journal = fleet.NewJournal(0)
		cfg.Tracer = obs.NewRingTracer(1 << 14)
	}))
}

// TestChaosCrossShardTraceSpan: a 2-shard fleet with every segment
// sampled, one shared trace ring, and 20% seeded loss on every link must
// still yield at least one stitched end-to-end span — inject at a peer,
// gossip hops, delivery at a server — when the ring's per-endpoint dumps
// are fed to the assembler, and the lineage must be seen crossing shards
// through the exchange path.
func TestChaosCrossShardTraceSpan(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock chaos test")
	}
	var delivered atomic.Int64
	cluster, err := StartCluster(ClusterConfig{
		Peers:   12,
		Servers: 2,
		Degree:  3,
		Node: NodeConfig{
			SegmentSize: 4,
			BlockSize:   64,
			Lambda:      6,
			Mu:          60,
			Gamma:       0.2,
			BufferCap:   256,
			TraceSample: 1,
		},
		Server:    ServerConfig{PullRate: 200},
		TraceCap:  1 << 16,
		OnSegment: func(rlnc.SegmentID, [][]byte) { delivered.Add(1) },
		Seed:      29,
		Listen:    faultyListen(transport.NewNetwork(), 6271, 5, lossy20),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()

	deadline := time.Now().Add(30 * time.Second)
	for delivered.Load() < 10 && time.Now().Before(deadline) {
		time.Sleep(50 * time.Millisecond)
	}
	cluster.Stop()
	if delivered.Load() < 10 {
		t.Fatalf("fleet delivered only %d segments under loss", delivered.Load())
	}

	dumps := cluster.Dumps()
	if len(dumps) != 12+2 {
		t.Fatalf("Dumps returned %d per-endpoint dumps, want 14", len(dumps))
	}
	asm := obs.NewAssembler()
	var exchangedLineages int
	for _, d := range dumps {
		asm.Add(d)
		for _, ev := range d.Events {
			if ev.Kind == obs.TraceExchanged && ev.TraceID != 0 {
				exchangedLineages++
			}
		}
	}
	spans := asm.Assemble()
	if len(spans) == 0 {
		t.Fatal("assembler stitched no spans from a fully sampled run")
	}
	var complete int
	var crossProcess bool
	for _, sp := range spans {
		if !sp.Complete() {
			continue
		}
		complete++
		var sawNode, sawServer bool
		for _, p := range sp.Processes() {
			sawNode = sawNode || strings.HasPrefix(p, "node-")
			sawServer = sawServer || strings.HasPrefix(p, "server-")
		}
		if sawNode && sawServer {
			crossProcess = true
		}
	}
	if complete == 0 {
		t.Fatalf("no complete inject→deliver span among %d stitched spans", len(spans))
	}
	if !crossProcess {
		t.Fatal("no complete span crossed from a peer process to a server process")
	}
	if exchangedLineages == 0 {
		t.Fatal("no sampled lineage crossed shards through the exchange path")
	}
	t.Logf("stitched %d spans (%d complete) from %d endpoint dumps; %d traced exchange events",
		len(spans), complete, len(dumps), exchangedLineages)
}

// TestServerCrashScrapeRace hammers a durable server's debug endpoint from
// several goroutines while it collects, then CrashStops it mid-scrape. The
// exposition must stay lint-clean under concurrent load, scrapes racing
// the crash must fail with a clean connection error — never a hang or a
// torn 200 — and the crash must still leave a decodable flight dump.
func TestServerCrashScrapeRace(t *testing.T) {
	const numSegs, size, payloadLen = 6, 4, 64
	dir := t.TempDir()
	net := transport.NewNetwork()
	peerTr := net.Join(1)
	defer peerTr.Close()

	srv, err := NewServer(net.Join(1000), ServerConfig{
		Peers:       []transport.NodeID{1},
		SegmentSize: size,
		Seed:        1,
		DebugAddr:   "127.0.0.1:0",
		Durability:  wal.Config{Dir: dir, Sync: wal.SyncAlways},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	base := srv.DebugURL()
	if base == "" {
		t.Fatal("DebugAddr produced no debug URL")
	}

	var crashing atomic.Bool
	var scrapes atomic.Int64
	errc := make(chan error, 8)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(path string) {
			defer wg.Done()
			for {
				resp, err := http.Get(base + path)
				if err != nil {
					if crashing.Load() {
						return // the clean error the crash must produce
					}
					errc <- err
					return
				}
				body, rerr := io.ReadAll(resp.Body)
				resp.Body.Close()
				if rerr != nil || resp.StatusCode != http.StatusOK {
					if crashing.Load() {
						return
					}
					errc <- rerr
					return
				}
				if path == "/metrics" {
					if lerr := obs.LintExposition(bytes.NewReader(body)); lerr != nil && !crashing.Load() {
						errc <- lerr
						return
					}
				}
				scrapes.Add(1)
			}
		}([]string{"/metrics", "/debug/snapshot"}[i%2])
	}

	// Feed real traffic while the scrapers hammer the endpoint.
	crng := randx.New(77)
	payload := make([]byte, payloadLen)
	for i := 0; i < numSegs; i++ {
		blocks := make([][]byte, size)
		for j := range blocks {
			copy(payload, []byte{byte(i), byte(j)})
			blocks[j] = append([]byte(nil), payload...)
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
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for scrapes.Load() < 20 || srv.Stats().BlocksReceived < numSegs*(size-1) {
		select {
		case err := <-errc:
			t.Fatalf("scrape failed before the crash: %v", err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("stalled: %d scrapes, %d blocks received", scrapes.Load(), srv.Stats().BlocksReceived)
		}
		time.Sleep(time.Millisecond)
	}

	crashing.Store(true)
	srv.CrashStop()
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatalf("scrape failed before the crash: %v", err)
	default:
	}

	// A postmortem scraper must get a clean connection error, not a stale
	// answer from a half-dead server.
	if resp, err := http.Get(base + "/metrics"); err == nil {
		resp.Body.Close()
		t.Fatal("debug endpoint still answering after CrashStop")
	}

	events, err := obs.ReadFlightDumpFile(filepath.Join(dir, "flight.bin"))
	if err != nil {
		t.Fatalf("flight dump unreadable after crash: %v", err)
	}
	if len(events) == 0 || events[len(events)-1].Kind != obs.TraceServerCrash {
		t.Fatalf("flight dump does not end in serverCrash: %d events", len(events))
	}
}

// TestFlightPathOverride pins the FlightPath config contract: an explicit
// path wins over the WAL-adjacent default, and with neither set a crash
// dumps nothing (and must not fail trying).
func TestFlightPathOverride(t *testing.T) {
	dir := t.TempDir()
	override := filepath.Join(dir, "elsewhere", "box.bin")
	net := transport.NewNetwork()
	srv, err := NewServer(net.Join(1000), ServerConfig{
		Peers:       []transport.NodeID{1},
		SegmentSize: 2,
		Seed:        1,
		FlightPath:  override,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	srv.CrashStop()
	events, err := obs.ReadFlightDumpFile(override)
	if err != nil {
		t.Fatalf("override path has no dump: %v", err)
	}
	if len(events) < 2 || events[0].Kind != obs.TraceServerStart {
		t.Fatalf("dump missing lifecycle events: %+v", events)
	}

	srv2, err := NewServer(transport.NewNetwork().Join(1000), ServerConfig{
		Peers:       []transport.NodeID{1},
		SegmentSize: 2,
		Seed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv2.Start(); err != nil {
		t.Fatal(err)
	}
	srv2.CrashStop() // no dump location configured: must not write anywhere
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 1 {
		t.Fatalf("crash without a dump path touched the filesystem: %v, %v", entries, err)
	}
}
