package experiments

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"p2pcollect/internal/live"
	"p2pcollect/internal/rlnc"
)

// fleetSeedSalt decorrelates the A8 runs from the other experiments.
const fleetSeedSalt = 800

// Fleet workload: deliberately capacity-starved so delivered throughput is
// limited by server pull capacity, the regime where the paper's
// c = c_s·N_s/N aggregate-capacity argument bites. Block TTLs are short
// enough that a starved server loses segments it is too slow to collect.
const (
	fleetPeers     = 24
	fleetDegree    = 3
	fleetSegSize   = 8
	fleetBlockSize = 64
	fleetLambda    = 32.0  // blocks/s per peer: N·λ/s = 96 segments/s offered
	fleetMu        = 160.0 // fast gossip: blocks spread well beyond their origin
	fleetGamma     = 0.5   // mean block lifetime 2s: collect fast or lose it
	fleetBufferCap = 512
	fleetPullRate  = 60.0 // per shard: max 7.5 segments/s even at zero waste
	fleetTrials    = 2    // independent seeded runs aggregated per point
)

// fleetShardCounts is the N_s sweep of A8.
var fleetShardCounts = []int{1, 2, 4}

// FleetScalingTable (A8) measures horizontal scaling of the live sharded
// fleet: the same overloaded workload is collected by one standalone server
// and by 2- and 4-shard fleets (wall-clock clusters, real protocol loops,
// shared delivery journal), and the table reports delivered-segment
// throughput, speedup over one server, and the inter-shard exchange rate
// that pays for the convergence. Unlike the other experiments this one runs
// the live runtime, not the simulator — the fleet is a deployment-layer
// feature.
func FleetScalingTable(opt Options) (*Table, error) {
	opt = opt.withDefaults()
	warmup := 1 * time.Second
	window := 8 * time.Second
	trials := fleetTrials
	shardCounts := fleetShardCounts
	if opt.Quick {
		warmup, window = 500*time.Millisecond, 1500*time.Millisecond
		shardCounts = []int{1, 4}
		trials = 1
	}

	tbl := NewTable(fmt.Sprintf(
		"A8: sharded-fleet scaling (live, %d peers, lambda=%g mu=%g gamma=%g s=%d, c_s=%g pulls/s per shard, %.1fs window)",
		fleetPeers, fleetLambda, fleetMu, fleetGamma, fleetSegSize, fleetPullRate, window.Seconds()), "shards")
	delivered := tbl.AddSeries("delivered segments/s")
	speedup := tbl.AddSeries("speedup vs 1 shard")
	exchange := tbl.AddSeries("exchange blocks/s")
	dupSeries := tbl.AddSeries("duplicate deliveries")

	var base float64
	for _, shards := range shardCounts {
		var rate, exch float64
		var dupes int64
		for trial := 0; trial < trials; trial++ {
			r, e, d, err := runFleetPoint(opt, shards, int64(trial), warmup, window)
			if err != nil {
				return nil, fmt.Errorf("a8 %d shards: %w", shards, err)
			}
			rate += r
			exch += e
			dupes += d
		}
		rate /= float64(trials)
		exch /= float64(trials)
		delivered.Add(float64(shards), rate)
		exchange.Add(float64(shards), exch)
		dupSeries.Add(float64(shards), float64(dupes))
		if shards == 1 {
			base = rate
		}
		if base > 0 {
			speedup.Add(float64(shards), rate/base)
		}
	}
	return tbl, nil
}

// runFleetPoint boots one fleet, lets it warm up, and measures the
// delivery and exchange rates over the window. Duplicate deliveries
// (OnSegment firing twice for one segment) must be zero — the journal's
// exactly-once rule — and are reported so the table would expose a
// violation.
func runFleetPoint(opt Options, shards int, trial int64, warmup, window time.Duration) (rate, exchangeRate float64, dupes int64, err error) {
	var deliveries, duplicate atomic.Int64
	seen := make(map[rlnc.SegmentID]bool)
	var seenMu sync.Mutex
	cluster, err := live.StartCluster(live.ClusterConfig{
		Peers:   fleetPeers,
		Servers: shards,
		Degree:  fleetDegree,
		Node: live.NodeConfig{
			SegmentSize: fleetSegSize,
			BlockSize:   fleetBlockSize,
			Lambda:      fleetLambda,
			Mu:          fleetMu,
			Gamma:       fleetGamma,
			BufferCap:   fleetBufferCap,
		},
		Server: live.ServerConfig{PullRate: fleetPullRate},
		Seed:   opt.Seed + fleetSeedSalt + int64(shards) + 101*trial,
		OnSegment: func(id rlnc.SegmentID, blocks [][]byte) {
			deliveries.Add(1)
			seenMu.Lock()
			if seen[id] {
				duplicate.Add(1)
			}
			seen[id] = true
			seenMu.Unlock()
		},
	})
	if err != nil {
		return 0, 0, 0, err
	}
	defer cluster.Stop()
	time.Sleep(warmup)
	startDelivered := deliveries.Load()
	startExchange := totalExchange(cluster)
	time.Sleep(window)
	deltaDelivered := deliveries.Load() - startDelivered
	deltaExchange := totalExchange(cluster) - startExchange
	cluster.Stop()
	secs := window.Seconds()
	return float64(deltaDelivered) / secs, float64(deltaExchange) / secs, duplicate.Load(), nil
}

func totalExchange(c *live.Cluster) int64 {
	var total int64
	for _, s := range c.Servers {
		total += s.Stats().Protocol["fleetExchangeSent"]
	}
	return total
}
