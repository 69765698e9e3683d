package live

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"p2pcollect/internal/membership"
	"p2pcollect/internal/obs"
	"p2pcollect/internal/pullsched"
	"p2pcollect/internal/randx"
	"p2pcollect/internal/transport"
)

// scrape GETs a debug URL and returns the body, failing the test on any
// transport or status error.
func scrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read body: %v", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, body)
	}
	return string(body)
}

// snapshotDoc mirrors the /debug/snapshot payload.
type snapshotDoc struct {
	Endpoints []obs.Snapshot `json:"endpoints"`
}

// waitDecoded polls until the cluster has decoded at least want segments.
func waitDecoded(t *testing.T, cluster *Cluster, want int64, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cluster.TotalDecoded() >= want {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("decoded %d segments in %v, want >= %d", cluster.TotalDecoded(), timeout, want)
}

// TestClusterDebugEndpoints starts a collecting cluster with a debug
// address and scrapes all three endpoint families while it runs: the
// Prometheus text must carry node and server metrics under distinct
// endpoint labels, the JSON snapshot must round-trip with populated server
// instruments, the shared tracer must reconstruct a decoded segment's
// lifecycle, and pprof must answer.
func TestClusterDebugEndpoints(t *testing.T) {
	cluster, err := StartCluster(ClusterConfig{
		Peers:     10,
		Servers:   1,
		Degree:    3,
		Node:      fastNodeConfig(),
		Server:    ServerConfig{PullRate: 150},
		Seed:      7,
		DebugAddr: "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()
	if cluster.Debug == nil || cluster.Tracer == nil {
		t.Fatal("DebugAddr did not produce a debug server and tracer")
	}
	base := cluster.Debug.URL()
	waitDecoded(t, cluster, 3, 15*time.Second)

	metrics := scrape(t, base+"/metrics")
	for _, want := range []string{
		`p2p_pullsSent{endpoint="server-0"}`,
		`p2p_decodedSegments{endpoint="server-0"}`,
		`p2p_pullschedFeedbackUseful{endpoint="server-0"}`,
		`p2p_bufferedBlocks{endpoint="node-1"}`,
		`p2p_gossipSends{endpoint="node-10"}`,
		`p2p_pullRTT_bucket{endpoint="server-0",le="+Inf"}`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	var doc snapshotDoc
	if err := json.Unmarshal([]byte(scrape(t, base+"/debug/snapshot")), &doc); err != nil {
		t.Fatalf("snapshot JSON: %v", err)
	}
	if len(doc.Endpoints) != 11 {
		t.Fatalf("snapshot has %d endpoints, want 11", len(doc.Endpoints))
	}
	var srv *obs.Snapshot
	for i := range doc.Endpoints {
		if doc.Endpoints[i].Label == "server-0" {
			srv = &doc.Endpoints[i]
		}
	}
	if srv == nil {
		t.Fatal("snapshot has no server-0 endpoint")
	}
	if srv.Info["policy"] != "blind" {
		t.Errorf("server policy info = %q, want blind", srv.Info["policy"])
	}
	if srv.Counters["decodedSegments"] < 3 {
		t.Errorf("server snapshot decodedSegments = %d, want >= 3", srv.Counters["decodedSegments"])
	}
	var rtt, collect *obs.HistogramSnapshot
	for i := range srv.Histograms {
		switch srv.Histograms[i].Name {
		case "pullRTT":
			rtt = &srv.Histograms[i]
		case "collectionTime":
			collect = &srv.Histograms[i]
		}
	}
	if rtt == nil || rtt.Count == 0 {
		t.Error("server snapshot has no pull RTT observations")
	}
	if collect == nil || collect.Count < 3 {
		t.Errorf("server snapshot collectionTime count = %v, want >= 3", collect)
	}
	if len(srv.TraceTail) == 0 {
		t.Error("server snapshot has no trace tail")
	}

	// The shared tracer must reconstruct where a decoded segment's time
	// went: find a decode in the tail and query its lifecycle.
	foundDecode := false
	for _, ev := range cluster.Tracer.Tail(256) {
		if ev.Kind != obs.TraceDecoded {
			continue
		}
		foundDecode = true
		trace := cluster.Tracer.Query(ev.Seg)
		if len(trace.Events) < 2 {
			t.Fatalf("trace for %v has %d events", ev.Seg, len(trace.Events))
		}
		for _, ph := range trace.Phases() {
			if ph.Dur < 0 {
				t.Errorf("segment %v phase %s negative: %v", ev.Seg, ph.Name, ph.Dur)
			}
		}
		break
	}
	if !foundDecode {
		t.Error("no decode event in trace tail")
	}

	if !strings.Contains(scrape(t, base+"/debug/pprof/"), "pprof") {
		t.Error("pprof index did not render")
	}
}

// TestNodeAndServerDebugAddrs gives individual endpoints their own debug
// servers (the non-cluster path through NodeConfig/ServerConfig.DebugAddr)
// and checks both serve their single registry.
func TestNodeAndServerDebugAddrs(t *testing.T) {
	net := transport.NewNetwork()
	nodeCfg := fastNodeConfig()
	nodeCfg.DebugAddr = "127.0.0.1:0"
	nodeCfg.Neighbors = []transport.NodeID{2}
	n, err := NewNode(net.Join(1), nodeCfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	defer n.Stop()
	srv, err := NewServer(net.Join(serverIDBase), ServerConfig{
		PullRate:    50,
		Peers:       []transport.NodeID{1},
		SegmentSize: nodeCfg.SegmentSize,
		DebugAddr:   "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()
	if !strings.Contains(scrape(t, n.DebugURL()+"/metrics"), `endpoint="node-1"`) {
		t.Error("node debug server missing node metrics")
	}
	if !strings.Contains(scrape(t, srv.DebugURL()+"/metrics"), `endpoint="server-0"`) {
		t.Error("server debug server missing server metrics")
	}
}

// TestDebugEndpointUnderLoss is the chaos case: with every transport
// wrapped in 20% random loss, the debug endpoint must stay serviceable —
// every scrape during the run answers 200 with coherent content — while
// collection still makes progress and the health counters prove the faults
// fired.
func TestDebugEndpointUnderLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock chaos test")
	}
	cluster, err := StartCluster(ClusterConfig{
		Peers:     10,
		Servers:   1,
		Degree:    3,
		Node:      fastNodeConfig(),
		Server:    ServerConfig{PullRate: 200},
		Seed:      13,
		DebugAddr: "127.0.0.1:0",
		Listen:    faultyListen(transport.NewNetwork(), 6271, 5, lossy20),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()
	base := cluster.Debug.URL()

	// Stats on every endpoint, concurrently with the scrapes below: Stats
	// holds the endpoint lock and reads the registry's counter sources, a
	// scrape reads the registry's lists and then takes the endpoint lock in
	// a gauge function. Nesting them the wrong way round deadlocks here;
	// sharing anything unsynchronized fails under -race.
	statsDone := make(chan struct{})
	var statsWG sync.WaitGroup
	statsWG.Add(1)
	go func() {
		defer statsWG.Done()
		for {
			select {
			case <-statsDone:
				return
			default:
			}
			for _, n := range cluster.Nodes {
				n.Stats()
			}
			for _, s := range cluster.Servers {
				s.Stats()
			}
		}
	}()
	defer func() {
		close(statsDone)
		statsWG.Wait()
	}()

	// Scrape continuously for the whole collection window; every hit must
	// succeed (scrape fails the test otherwise).
	scrapes := 0
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		metrics := scrape(t, base+"/metrics")
		if !strings.Contains(metrics, `p2p_pullsSent{endpoint="server-0"}`) {
			t.Fatal("scrape under loss lost the server metrics")
		}
		// Every mid-chaos exposition must stay format-clean: one TYPE line
		// per family, contiguous families, cumulative histograms.
		if err := obs.LintExposition(strings.NewReader(metrics)); err != nil {
			t.Fatalf("exposition under loss fails lint: %v", err)
		}
		var doc snapshotDoc
		if err := json.Unmarshal([]byte(scrape(t, base+"/debug/snapshot")), &doc); err != nil {
			t.Fatalf("snapshot JSON under loss: %v", err)
		}
		if len(doc.Endpoints) != 11 {
			t.Fatalf("snapshot under loss has %d endpoints, want 11", len(doc.Endpoints))
		}
		scrapes++
		if cluster.TotalDecoded() >= 3 && scrapes >= 10 {
			break
		}
		time.Sleep(100 * time.Millisecond)
	}
	if scrapes < 10 {
		t.Errorf("only %d scrapes completed", scrapes)
	}
	if cluster.TotalDecoded() < 3 {
		t.Fatalf("decoded %d segments under 20%% loss, want >= 3", cluster.TotalDecoded())
	}

	// The loss injection must actually have fired, and must be visible
	// through the exposition layer itself (merged Faulty+inner counters).
	metrics := scrape(t, base+"/metrics")
	var lossDrops int64
	for _, line := range strings.Split(metrics, "\n") {
		if strings.HasPrefix(line, "p2p_transportFaultLossDrops{") {
			var v int64
			if _, err := fmt.Sscanf(line[strings.LastIndexByte(line, ' ')+1:], "%d", &v); err == nil {
				lossDrops += v
			}
		}
	}
	if lossDrops == 0 {
		t.Error("loss drops not visible in /metrics")
	}
}

// Counter names recorded at the parent of the change that made the registry
// the only counter source (bench/ reads several of them by key): a node
// exposes the protocol and transport vocabularies, a server adds the pull
// feedback (and, since the inventory cursor, the digest traffic), a fleet
// shard the exchange counters.
var (
	parentNodeCounters = strings.Fields(`
		blocksLostToExit blocksLostToTTL blocksPurgedByFeedback blocksReceived blocksStored
		decodedSegments departures emptyReplies gossipSends injectedBlocks
		injectedSegments innovativePulls noTargetGossip pullsSent pullsServed redundantBlocks
		redundantGossip serverPulls suppressedInjections
		transportDialFailures transportDropsDown transportDropsOverflow transportDropsOversize
		transportFaultDelayed transportFaultLossDrops transportFaultPartitionDrops
		transportFramesDelivered transportInboxDrops transportReconnects transportSendsEnqueued
		transportWriteErrors transportWriteTimeouts`)
	parentServerCounters = append(strings.Fields(
		`pullschedFeedbackEmpty pullschedFeedbackRedundant pullschedFeedbackUseful
		inventoryFull inventoryDelta inventoryEntries rejectedBlocks decodedNotices`), parentNodeCounters...)
	parentShardCounters = append(strings.Fields(
		`fleetExchangeInnovative fleetExchangeReceived fleetExchangeSent fleetMisroutedBlocks fleetRemoteFinished`),
		parentServerCounters...)
)

// TestStatsProtocolEqualsRegistryCounters: Stats().Protocol and the
// registry snapshot list exactly the same counters — they range the same
// sources — and exactly the ones the parent listed, on every kind of
// endpoint.
func TestStatsProtocolEqualsRegistryCounters(t *testing.T) {
	net := transport.NewNetwork()
	nodeCfg := fastNodeConfig()
	nodeCfg.Neighbors = []transport.NodeID{2}
	node, err := NewNode(net.Join(1), nodeCfg)
	if err != nil {
		t.Fatal(err)
	}
	server, err := NewServer(net.Join(serverIDBase), ServerConfig{PullRate: 10, Peers: []transport.NodeID{1}, SegmentSize: nodeCfg.SegmentSize})
	if err != nil {
		t.Fatal(err)
	}
	shard, err := NewServer(net.Join(serverIDBase+1), ServerConfig{
		PullRate: 10, Peers: []transport.NodeID{1}, SegmentSize: nodeCfg.SegmentSize,
		Shards: 2, ShardID: 0, ShardPeers: map[int]transport.NodeID{1: serverIDBase + 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	udp, err := transport.ListenUDP(7, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	faulty := transport.NewFaulty(udp, transport.FaultConfig{LossProb: 0.1}, randx.New(1))
	defer faulty.Close()
	overFaultyUDP, err := NewNode(faulty, nodeCfg)
	if err != nil {
		t.Fatal(err)
	}

	keys := func(m map[string]int64) []string {
		out := make([]string, 0, len(m))
		for k := range m {
			out = append(out, k)
		}
		sort.Strings(out)
		return out
	}
	for _, tc := range []struct {
		name     string
		protocol map[string]int64
		reg      *obs.Registry
		parent   []string
	}{
		{"node", node.Stats().Protocol, node.Registry(), parentNodeCounters},
		{"server", server.Stats().Protocol, server.Registry(), parentServerCounters},
		{"fleet shard", shard.Stats().Protocol, shard.Registry(), parentShardCounters},
		{"node over Faulty(UDP)", overFaultyUDP.Stats().Protocol, overFaultyUDP.Registry(), parentNodeCounters},
	} {
		want := append([]string(nil), tc.parent...)
		sort.Strings(want)
		if got := keys(tc.protocol); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Stats().Protocol keys\n%v\nwant the parent's\n%v", tc.name, got, want)
		}
		if got := keys(tc.reg.Snapshot().Counters); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: registry counter keys\n%v\nwant the parent's\n%v", tc.name, got, want)
		}
	}
}

// TestGaugesReadAtScrape: state gauges are evaluated when the snapshot is
// taken, so the very first scrape is right — there is no sampler tick to
// wait for.
func TestGaugesReadAtScrape(t *testing.T) {
	net := transport.NewNetwork()
	cfg := fastNodeConfig()
	cfg.Neighbors = []transport.NodeID{2}
	n, err := NewNode(net.Join(1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := n.Registry().Snapshot().Gauges["bufferedBlocks"]; got != 0 {
		t.Fatalf("bufferedBlocks = %g on an empty buffer", got)
	}
	n.inject() // one segment of SegmentSize source blocks, no loop running
	if got, want := n.Registry().Snapshot().Gauges["bufferedBlocks"], float64(cfg.SegmentSize); got != want {
		t.Errorf("bufferedBlocks = %g on the first scrape after an injection, want %g", got, want)
	}
	if got, want := n.Registry().Snapshot().Gauges["bufferedBlocks"], float64(n.Stats().BufferedBlocks); got != want {
		t.Errorf("bufferedBlocks gauge %g disagrees with Stats().BufferedBlocks %g", got, want)
	}

	srv, err := NewServer(net.Join(serverIDBase), ServerConfig{Peers: []transport.NodeID{1}, SegmentSize: cfg.SegmentSize})
	if err != nil {
		t.Fatal(err)
	}
	srv.pull() // sent into the void: node 1 is not running, so it stays outstanding
	gauges := srv.Registry().Snapshot().Gauges
	if gauges["outstandingPulls"] != 1 {
		t.Errorf("outstandingPulls = %g after one unanswered pull, want 1", gauges["outstandingPulls"])
	}
	if _, ok := gauges["outboxDepth"]; !ok {
		t.Error("outboxDepth gauge missing")
	}
}

// TestOutstandingPullsDrainsWhenPeerLeaves: a peer that leaves the contact
// set never answers and is never pulled again, so its pending pull must go
// with it. Otherwise outstandingPulls never drains and the map grows with
// every distinct departed ID under churn.
func TestOutstandingPullsDrainsWhenPeerLeaves(t *testing.T) {
	net := transport.NewNetwork()
	net.Join(1)
	net.Join(2)
	srv, err := NewServer(net.Join(serverIDBase), ServerConfig{Peers: []transport.NodeID{1, 2}, SegmentSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	outstanding := func() float64 { return srv.Registry().Snapshot().Gauges["outstandingPulls"] }
	for outstanding() < 2 {
		srv.pull() // unanswered: neither peer is running
	}
	srv.onMember(membership.Member{ID: 1, Role: membership.RolePeer}, membership.StatusDead)
	if got := outstanding(); got != 1 {
		t.Errorf("outstandingPulls = %g after peer 1 died, want 1 (peer 2's)", got)
	}
	srv.onMember(membership.Member{ID: 2, Role: membership.RolePeer}, membership.StatusLeft)
	if got := outstanding(); got != 0 {
		t.Errorf("outstandingPulls = %g after both peers left, want 0", got)
	}
}

// stalePicker always pulls from one peer, as a rarest policy does whose
// digest still names a peer that has since left.
type stalePicker struct{ peer pullsched.PeerRef }

func (stalePicker) Name() string { return "stale" }
func (p stalePicker) Choose(float64, pullsched.Env) (pullsched.Decision, bool) {
	return pullsched.Decision{Peer: p.peer}, true
}
func (stalePicker) Feedback(pullsched.Feedback)                                             {}
func (stalePicker) ObserveInventory(float64, pullsched.PeerRef, []pullsched.InventoryEntry) {}

// TestDepartedPeerLeavesNoPullState: a pull the policy still aims at a
// peer that has left is sent, but the server keeps no record of it, so
// outstandingPulls does not count a reply that will never come.
func TestDepartedPeerLeavesNoPullState(t *testing.T) {
	net := transport.NewNetwork()
	net.Join(1)
	net.Join(2)
	srv, err := NewServer(net.Join(serverIDBase), ServerConfig{
		Peers: []transport.NodeID{1, 2}, SegmentSize: 4, Policy: stalePicker{peer: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.onMember(membership.Member{ID: 1, Role: membership.RolePeer}, membership.StatusDead)
	srv.pull()
	if got := srv.Registry().Snapshot().Gauges["outstandingPulls"]; got != 0 {
		t.Errorf("outstandingPulls = %g after a pull to a departed peer, want 0", got)
	}
	srv.mu.Lock()
	defer srv.mu.Unlock()
	if len(srv.pulls) != 0 {
		t.Errorf("the server keeps %d pull records after a pull to a departed peer, want none", len(srv.pulls))
	}
}
