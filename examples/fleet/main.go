// Fleet: run the same overloaded collection workload against one logging
// server and against a 4-shard server fleet, and show the paper's
// aggregate-capacity argument in action — coded blocks are fungible, so
// sharding the segment space across N_s servers multiplies delivered
// throughput by ~N_s while the delivery journal keeps every segment
// exactly-once.
//
// For the multi-process equivalent over TCP, give each collectnode server
// -shards/-shard-id/-shard-book; every server pulls from all peers, and
// peers need no configuration at all — a peer answers whichever shard
// pulls it, which spreads its blocks across the fleet round-robin.
package main

import (
	"fmt"
	"log"
	"sync"
	"time"

	"p2pcollect"
)

const (
	peers    = 24
	degree   = 3
	pullRate = 60.0 // per shard: deliberately below the generation rate
	runFor   = 5 * time.Second
)

func nodeConfig() p2pcollect.NodeConfig {
	return p2pcollect.NodeConfig{
		SegmentSize: 8,
		BlockSize:   64,
		Lambda:      16, // blocks/s per peer: the fleet is needed to keep up
		Mu:          80,
		Gamma:       0.5,
		BufferCap:   512,
	}
}

func run(servers int) (delivered int, dupes int, exchange int64, err error) {
	var mu sync.Mutex
	seen := make(map[p2pcollect.SegmentID]int)
	cluster, err := p2pcollect.StartCluster(p2pcollect.ClusterConfig{
		Peers:   peers,
		Servers: servers,
		Degree:  degree,
		Node:    nodeConfig(),
		Server:  p2pcollect.ServerConfig{PullRate: pullRate},
		Seed:    7,
		OnSegment: func(id p2pcollect.SegmentID, blocks [][]byte) {
			mu.Lock()
			seen[id]++
			mu.Unlock()
		},
	})
	if err != nil {
		return 0, 0, 0, err
	}
	defer cluster.Stop()
	time.Sleep(runFor)
	cluster.Stop()
	for _, s := range cluster.Servers {
		exchange += s.Stats().Protocol["fleetExchangeSent"]
	}
	mu.Lock()
	defer mu.Unlock()
	for _, n := range seen {
		delivered++
		if n > 1 {
			dupes++
		}
	}
	return delivered, dupes, exchange, nil
}

func main() {
	fmt.Printf("== Sharded collection fleet ==\n")
	fmt.Printf("%d peers at lambda=%g blocks/s vs pull capacity %g/s per server:\n",
		peers, nodeConfig().Lambda, pullRate)
	fmt.Printf("one server is capacity-starved; a fleet shards the segment space.\n\n")

	single, dup1, _, err := run(1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("1 server : %4d segments delivered in %v (%d duplicates)\n", single, runFor, dup1)

	fleet, dup4, exchange, err := run(4)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("4 shards : %4d segments delivered in %v (%d duplicates, %d exchange blocks)\n",
		fleet, runFor, dup4, exchange)
	if single > 0 {
		fmt.Printf("\nscaling: %.2fx delivered-segment throughput at 4 shards\n", float64(fleet)/float64(single))
	}
}
