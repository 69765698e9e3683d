package live

import (
	"net"
	"sync"
	"testing"
	"time"

	"p2pcollect/internal/randx"
	"p2pcollect/internal/sim"
	"p2pcollect/internal/transport"
)

// faultyListen is a ClusterConfig.Listen that joins net and puts every
// endpoint behind a Faulty with the schedule fault(id), seeded id*mul+add.
func faultyListen(net *transport.Network, mul, add int64,
	fault func(transport.NodeID) transport.FaultConfig) func(transport.NodeID) (transport.Transport, error) {
	return func(id transport.NodeID) (transport.Transport, error) {
		return transport.NewFaulty(net.Join(id), fault(id), randx.New(int64(id)*mul+add)), nil
	}
}

// lossy20 is the uniform 20% send-side loss most chaos tests run under.
func lossy20(transport.NodeID) transport.FaultConfig {
	return transport.FaultConfig{LossProb: 0.2}
}

// startBlackhole returns the address of a listener that accepts every
// connection and never reads — a stalled peer whose TCP window fills up.
func startBlackhole(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var conns []net.Conn
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, c)
			mu.Unlock()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		defer mu.Unlock()
		for _, c := range conns {
			c.Close()
		}
	})
	return ln.Addr().String()
}

// TestGossipLivenessWithBlackholedNeighbor is the paper's stability
// property under a real network fault: one neighbor is blackholed (accepts
// connections, never reads), and the node's gossip must keep flowing to
// the healthy neighbor with inter-send gaps bounded by the configured
// dial/write deadlines — not by the kernel connect timeout or a stalled
// peer's TCP window, which used to freeze the whole gossip loop.
func TestGossipLivenessWithBlackholedNeighbor(t *testing.T) {
	const (
		writeTimeout = 200 * time.Millisecond
		runFor       = 3 * time.Second
		// maxGap is deliberately loose (a few deadlines plus scheduling
		// noise) but orders of magnitude below a connect/window stall.
		maxGap = time.Second
	)
	opts := transport.TCPOptions{
		DialTimeout:  writeTimeout,
		WriteTimeout: writeTimeout,
		OutboxSize:   16,
		BackoffMin:   20 * time.Millisecond,
		BackoffMax:   200 * time.Millisecond,
	}
	healthy, err := transport.ListenTCPOpts(2, "127.0.0.1:0", nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer healthy.Close()
	book := map[transport.NodeID]string{2: healthy.Addr(), 3: startBlackhole(t)}
	tr, err := transport.ListenTCPOpts(1, "127.0.0.1:0", book, opts)
	if err != nil {
		t.Fatal(err)
	}
	node, err := NewNode(tr, NodeConfig{
		SegmentSize: 4,
		BlockSize:   128 << 10, // large frames overrun the blackhole's socket buffer fast
		Lambda:      16,
		Mu:          80,
		Gamma:       0.5,
		BufferCap:   64,
		Neighbors:   []transport.NodeID{2, 3},
		Seed:        7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := node.Start(); err != nil {
		t.Fatal(err)
	}
	defer node.Stop()

	var healthyGot int64
	var mu sync.Mutex
	go func() {
		for range healthy.Receive() {
			mu.Lock()
			healthyGot++
			mu.Unlock()
		}
	}()

	// Track the largest gap between successive gossip sends.
	var lastSent int64
	lastChange := time.Now()
	var worstGap time.Duration
	end := time.Now().Add(runFor)
	for time.Now().Before(end) {
		if sent := node.Stats().GossipSent; sent != lastSent {
			lastSent = sent
			lastChange = time.Now()
		} else if gap := time.Since(lastChange); gap > worstGap {
			worstGap = gap
		}
		time.Sleep(5 * time.Millisecond)
	}

	if worstGap > maxGap {
		t.Errorf("gossip inter-send gap reached %v with a blackholed neighbor (bound %v)", worstGap, maxGap)
	}
	mu.Lock()
	got := healthyGot
	mu.Unlock()
	if got == 0 {
		t.Error("healthy neighbor received nothing while the other was blackholed")
	}
	p := node.Stats().Protocol
	if p["transportWriteTimeouts"]+p["transportDropsDown"]+p["transportDropsOverflow"] == 0 {
		t.Errorf("blackholed sends left no trace in transport counters: %v", p)
	}
	if lastSent == 0 {
		t.Error("no gossip sent at all")
	}
}

// TestGossipAttemptedVsDeliveredToTransport pins the send-accounting fix:
// with the only neighbor down, gossip is still attempted (EvGossipSend, the
// transport accepted it) but the transport's own counters must show the
// frames never left the machine — previously a failed dial was
// indistinguishable from a successful send.
func TestGossipAttemptedVsDeliveredToTransport(t *testing.T) {
	// An address where nothing listens: dials fail fast.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	downAddr := ln.Addr().String()
	ln.Close()

	tr, err := transport.ListenTCPOpts(1, "127.0.0.1:0",
		map[transport.NodeID]string{2: downAddr},
		transport.TCPOptions{
			DialTimeout:  100 * time.Millisecond,
			WriteTimeout: 100 * time.Millisecond,
			BackoffMin:   10 * time.Millisecond,
			BackoffMax:   50 * time.Millisecond,
		})
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastNodeConfig()
	cfg.Gamma = 0.05 // keep blocks alive so there is always something to gossip
	cfg.Mu = 200
	cfg.Neighbors = []transport.NodeID{2}
	node, err := NewNode(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := node.Start(); err != nil {
		t.Fatal(err)
	}
	defer node.Stop()

	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		st := node.Stats()
		if st.GossipSent >= 5 && st.Protocol["transportDialFailures"] >= 1 {
			if delivered := st.Protocol["transportFramesDelivered"]; delivered != 0 {
				t.Fatalf("frames 'delivered' to a dead destination: %d", delivered)
			}
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	st := node.Stats()
	t.Fatalf("accounting never settled: sent=%d protocol=%v", st.GossipSent, st.Protocol)
}

// TestChaosDifferentialUnderLossAndPartition is the fault-injected variant
// of the sim-vs-live differential: every endpoint's transport is wrapped in
// a seeded Faulty with 20% loss, and a third of the peers are partitioned
// from everyone for 0.8s mid-run. The innovative-pull rate must degrade
// gracefully — within a loose factor of the fault-free simulator —
// not collapse to zero, which is the paper's core claim about gossip
// redundancy under churn and loss.
func TestChaosDifferentialUnderLossAndPartition(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock chaos test")
	}
	const (
		peers     = 12
		degree    = 3
		pullRate  = 240.0
		warmupSec = 2.0
		windowSec = 3.0
		lossProb  = 0.2
	)
	node := NodeConfig{
		SegmentSize: 4,
		BlockSize:   64,
		Lambda:      8,
		Mu:          40,
		Gamma:       1,
		BufferCap:   256,
	}
	partitioned := []transport.NodeID{1, 2, 3, 4}
	window := transport.FaultPartition{Start: time.Second, End: 1800 * time.Millisecond}

	cluster, err := StartCluster(ClusterConfig{
		Peers:   peers,
		Servers: 1,
		Degree:  degree,
		Node:    node,
		Server:  ServerConfig{PullRate: pullRate},
		Seed:    11,
		Listen: faultyListen(transport.NewNetwork(), 7919, 1, func(id transport.NodeID) transport.FaultConfig {
			parts := []transport.FaultPartition{window}
			if id > transport.NodeID(len(partitioned)) {
				// Everyone else only loses its links toward the
				// partitioned set, making the cut symmetric.
				parts = []transport.FaultPartition{{Start: window.Start, End: window.End, Peers: partitioned}}
			}
			return transport.FaultConfig{LossProb: lossProb, Partitions: parts}
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()
	time.Sleep(time.Duration(warmupSec * float64(time.Second)))
	innovativeAtWarmup := cluster.Servers[0].Stats().Protocol["innovativePulls"]
	time.Sleep(time.Duration(windowSec * float64(time.Second)))
	liveRate := float64(cluster.Servers[0].Stats().Protocol["innovativePulls"]-innovativeAtWarmup) / windowSec

	// The faults must have actually fired.
	var lossDrops, partitionDrops int64
	for _, n := range cluster.Nodes {
		p := n.Stats().Protocol
		lossDrops += p["transportFaultLossDrops"]
		partitionDrops += p["transportFaultPartitionDrops"]
	}
	cluster.Stop()
	if lossDrops == 0 {
		t.Fatal("loss injection never dropped a message")
	}
	if partitionDrops == 0 {
		t.Fatal("partition window never dropped a message")
	}

	// Fault-free simulator reference with matched parameters.
	r, err := sim.Run(sim.Config{
		N:           peers,
		Lambda:      node.Lambda,
		Mu:          node.Mu,
		Gamma:       node.Gamma,
		SegmentSize: node.SegmentSize,
		BufferCap:   node.BufferCap,
		C:           pullRate / peers,
		NumServers:  1,
		Degree:      degree,
		Warmup:      warmupSec,
		Horizon:     warmupSec + windowSec,
		Seed:        12,
	})
	if err != nil {
		t.Fatal(err)
	}
	simRate := r.RankThroughput
	t.Logf("innovative-pull rate: faulty live %.2f blocks/s, clean sim %.2f blocks/s (loss drops %d, partition drops %d)",
		liveRate, simRate, lossDrops, partitionDrops)
	if liveRate <= 0 {
		t.Fatal("throughput collapsed to zero under 20% loss + partition")
	}
	// Graceful degradation: well above zero, though below the fault-free
	// reference. The floor is loose on purpose — this guards liveness, not
	// a performance number.
	if liveRate < 0.1*simRate {
		t.Errorf("innovative-pull rate %.2f blocks/s degraded below 10%% of the fault-free reference %.2f blocks/s", liveRate, simRate)
	}
}
