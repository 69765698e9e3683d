package live

import (
	"testing"
	"time"

	"p2pcollect/internal/logdata"
	"p2pcollect/internal/peercore"
	"p2pcollect/internal/sim"
	"p2pcollect/internal/transport"
)

// TestDifferentialSimVsLive runs the discrete-event simulator and an
// in-memory live cluster with matched rates and topology parameters, and
// checks that the two runtimes agree on coarse steady-state observables:
// the innovative-pull rate (the rank growth that grounds delivery, counted
// under the same name by both drivers) and mean buffer occupancy. Since both drive the same peercore state
// machines, a divergence beyond the loose statistical tolerance means the
// drivers schedule the protocol differently, which is exactly the
// regression this test exists to catch. The live side uses wall-clock
// timers, so tolerances are wide and the test is skipped in -short mode.
func TestDifferentialSimVsLive(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock differential test")
	}

	const (
		peers     = 12
		degree    = 3
		pullRate  = 240.0 // single server, pulls/second
		warmupSec = 2.0
		windowSec = 3.0
	)
	node := NodeConfig{
		SegmentSize: 4,
		BlockSize:   logdata.RecordSize,
		Lambda:      8,
		Mu:          40,
		Gamma:       1,
		BufferCap:   256,
	}

	// Live side: run warmup+window wall-clock seconds, measure deliveries
	// in the window and instantaneous occupancy at the end.
	cluster, err := StartCluster(ClusterConfig{
		Peers:   peers,
		Servers: 1,
		Degree:  degree,
		Node:    node,
		Server:  ServerConfig{PullRate: pullRate},
		Seed:    11,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()
	time.Sleep(time.Duration(warmupSec * float64(time.Second)))
	innovativeAtWarmup := cluster.Servers[0].Stats().Protocol["innovativePulls"]
	time.Sleep(time.Duration(windowSec * float64(time.Second)))
	liveRate := float64(cluster.Servers[0].Stats().Protocol["innovativePulls"]-innovativeAtWarmup) / windowSec
	var liveOcc float64
	for _, n := range cluster.Nodes {
		liveOcc += float64(n.Stats().BufferedBlocks)
	}
	liveOcc /= peers
	cluster.Stop()

	// Sim side: identical parameters; C is the normalized aggregate server
	// capacity c_s·N_s/N.
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
	simRate := r.InnovativeThroughput
	simOcc := r.AvgBlocksPerPeer

	check := func(name, unit string, live, des float64) {
		t.Logf("%s: live %.2f %s, sim %.2f %s", name, live, unit, des, unit)
		if des <= 0 || live <= 0 {
			t.Fatalf("%s: degenerate measurement (live %.2f, sim %.2f)", name, live, des)
		}
		if ratio := live / des; ratio < 0.5 || ratio > 2.0 {
			t.Errorf("%s: live/sim ratio %.2f outside [0.5, 2.0]", name, ratio)
		}
	}
	check("innovative-pull rate", "blocks/s", liveRate, simRate)
	check("mean buffer occupancy", "blocks", liveOcc, simOcc)
}

// TestNodeAndSimShareCounterVocabulary asserts the live runtime and the
// simulator both report every name of the shared peercore.Event
// vocabulary, so dashboards and tests can consume either side
// interchangeably. The simulator's own state-based counters are not part
// of it.
func TestNodeAndSimShareCounterVocabulary(t *testing.T) {
	net := transport.NewNetwork()
	n, err := NewNode(net.Join(1), fastNodeConfig())
	if err != nil {
		t.Fatal(err)
	}
	r, err := sim.Run(sim.Config{
		N: 4, Lambda: 4, Mu: 4, Gamma: 1, SegmentSize: 2, BufferCap: 16,
		C: 1, Warmup: 1, Horizon: 2, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	nodeCounters := n.Stats().Protocol
	for name := range peercore.NewCounters().Snapshot() {
		if _, ok := r.ProtocolCounters[name]; !ok {
			t.Errorf("simulator counters missing %q", name)
		}
		if _, ok := nodeCounters[name]; !ok {
			t.Errorf("live node counters missing %q", name)
		}
	}
}
