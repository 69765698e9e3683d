package live

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"p2pcollect/internal/obs"
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
	node := fastNodeConfig()
	node.SampleInterval = 0.05
	cluster, err := StartCluster(ClusterConfig{
		Peers:     10,
		Servers:   1,
		Degree:    3,
		Node:      node,
		Server:    ServerConfig{PullRate: 150, SampleInterval: node.SampleInterval},
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
	// Let at least one sample tick land after decode progress.
	time.Sleep(150 * time.Millisecond)

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
		PullRate:  50,
		Peers:     []transport.NodeID{1},
		DebugAddr: "127.0.0.1:0",
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
	node := fastNodeConfig()
	node.SampleInterval = 0.05
	cluster, err := StartCluster(ClusterConfig{
		Peers:     10,
		Servers:   1,
		Degree:    3,
		Node:      node,
		Server:    ServerConfig{PullRate: 200, SampleInterval: node.SampleInterval},
		Seed:      13,
		DebugAddr: "127.0.0.1:0",
		Listen:    faultyListen(transport.NewNetwork(), 6271, 5, lossy20),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()
	base := cluster.Debug.URL()

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
