package live

import (
	"sync"
	"testing"
	"time"

	"p2pcollect/internal/fleet"
	"p2pcollect/internal/obs"
	"p2pcollect/internal/rlnc"
	"p2pcollect/internal/transport"
)

// TestGoldenOneShardFleetStream is the refactor's anchor: a 1-shard fleet
// (journal-gated delivery, all fleet plumbing constructed) must replay the
// golden stream byte-identically to the legacy standalone server — same
// deliveries in the same order, same decoded bytes, same counters.
func TestGoldenOneShardFleetStream(t *testing.T) {
	checkGolden(t, runGoldenStream(t, func(cfg *ServerConfig) {
		cfg.Shards = 1
		cfg.ShardID = 0
		cfg.Journal = fleet.NewJournal(0)
	}))
}

// fleetClusterConfig is the shared base for the fleet integration tests:
// enough peers and injection rate that all four shards see traffic for
// segments they do not own, so the exchange path actually runs.
func fleetClusterConfig(onSegment func(rlnc.SegmentID, [][]byte)) ClusterConfig {
	return ClusterConfig{
		Peers:   16,
		Servers: 4,
		Degree:  3,
		Node: NodeConfig{
			SegmentSize: 4,
			BlockSize:   64,
			Lambda:      6,
			Mu:          60,
			Gamma:       0.2,
			BufferCap:   256,
		},
		Server:    ServerConfig{PullRate: 200},
		OnSegment: onSegment,
		Seed:      23,
	}
}

// TestFleetDeliversExactlyOnce runs a 4-shard fleet and checks the
// coordinator-free delivery rule: every segment that comes out of
// OnSegment comes out exactly once across the whole fleet, the journal
// agrees with the observed deliveries, and the shards actually exchanged
// blocks (the sharded pull universe forces misrouted gossip).
func TestFleetDeliversExactlyOnce(t *testing.T) {
	var mu sync.Mutex
	delivered := make(map[rlnc.SegmentID]int)
	cluster, err := StartCluster(func() ClusterConfig {
		cfg := fleetClusterConfig(func(id rlnc.SegmentID, blocks [][]byte) {
			mu.Lock()
			delivered[id]++
			mu.Unlock()
		})
		return cfg
	}())
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()

	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		mu.Lock()
		n := len(delivered)
		mu.Unlock()
		if n >= 40 {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	cluster.Stop()

	mu.Lock()
	defer mu.Unlock()
	if len(delivered) < 40 {
		t.Fatalf("fleet delivered only %d segments", len(delivered))
	}
	for seg, n := range delivered {
		if n != 1 {
			t.Errorf("segment %v delivered %d times, want exactly 1", seg, n)
		}
		if !cluster.Journal.Delivered(seg) {
			t.Errorf("segment %v delivered but not in the journal", seg)
		}
	}
	if jc := cluster.Journal.Count(); jc != len(delivered) {
		t.Errorf("journal remembers %d deliveries, OnSegment saw %d", jc, len(delivered))
	}
	var exchanged, innovative, shardStats int64
	for _, s := range cluster.Servers {
		p := s.Stats().Protocol
		exchanged += p["fleetExchangeSent"]
		innovative += p["fleetExchangeInnovative"]
		if p["fleetMisroutedBlocks"] > 0 {
			shardStats++
		}
	}
	if exchanged == 0 {
		t.Error("no inter-shard exchange traffic in a 4-shard fleet")
	}
	if innovative == 0 {
		t.Error("exchange traffic never carried innovation")
	}
	if shardStats == 0 {
		t.Error("no shard ever saw a misrouted block — sharding is not partitioning the gossip")
	}
}

// TestFleetShardKillChaos is the fault-tolerance claim: with 20% message
// loss everywhere, one of four shards is killed mid-run, and every segment
// injected before the kill must still be delivered — through the surviving
// shards — because coded blocks are fungible and any shard reaching full
// rank delivers. Run under -race in CI.
func TestFleetShardKillChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock chaos test")
	}
	cfg := fleetClusterConfig(nil)
	cfg.TraceCap = 1 << 14
	// This test is about losing a *shard*, not about losing data to the
	// protocol's own attrition: with the default Gamma/BufferCap a
	// segment dimension can expire or be evicted from every peer buffer
	// before the 30s recovery deadline, which is ordinary coupon loss,
	// not a fleet bug. Make blocks outlive the whole window: Gamma as in
	// boundedNodeConfig, because an Exp(Gamma) TTL has mass at zero. At
	// Gamma = 0.005 (mean 200 s) about one run in seven still lost a source
	// block at its origin before the segment's first gossip, leaving it at
	// rank s-1 network-wide forever (reportUndelivered showed every node
	// and shard stuck at 3 of 4); at 1e-6, 0 of 40 runs did.
	cfg.Node.Gamma = 1e-6
	cfg.Node.BufferCap = 8192
	cfg.Listen = faultyListen(transport.NewNetwork(), 6151, 3, lossy20)
	var mu sync.Mutex
	delivered := make(map[rlnc.SegmentID]int)
	cfg.OnSegment = func(id rlnc.SegmentID, blocks [][]byte) {
		mu.Lock()
		delivered[id]++
		mu.Unlock()
	}
	cluster, err := StartCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()

	// Let segments accumulate, then snapshot what was injected so far and
	// kill shard 0.
	time.Sleep(time.Second)
	injected := make(map[rlnc.SegmentID]bool)
	for _, ev := range cluster.Tracer.Tail(cluster.Tracer.Len()) {
		if ev.Kind == obs.TraceInject {
			injected[ev.Seg] = true
		}
	}
	if len(injected) < 10 {
		t.Fatalf("only %d segments injected before the kill", len(injected))
	}
	cluster.Servers[0].Stop()

	deadline := time.Now().Add(30 * time.Second)
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
		reportUndelivered(t, cluster, cluster.Servers[1:], left)
		t.Fatalf("%d of %d pre-kill segments never delivered after shard kill under 20%% loss: %v",
			len(left), len(injected), left)
	}
	cluster.Stop()
	mu.Lock()
	defer mu.Unlock()
	for seg, n := range delivered {
		if n != 1 {
			t.Errorf("segment %v delivered %d times, want exactly 1", seg, n)
		}
	}
	t.Logf("all %d pre-kill segments delivered by 3 surviving shards (%d total deliveries)",
		len(injected), len(delivered))
}
