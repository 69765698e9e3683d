// Trace: follow individual segments across a sharded collection fleet.
//
// With NodeConfig.TraceSample set, each node stamps a sampled fraction of its injected
// segments with a cluster-unique trace ID that rides every coded block's
// wire frame. Every endpoint records the milestones it observes — inject,
// gossip hops, server rank growth, cross-shard exchange, delivery, decode —
// into the cluster's ring tracer. After the run, Cluster.Dumps splits the
// ring into one dump per endpoint, what separate processes would have
// recorded, and the assembler stitches those dumps into end-to-end spans
// with per-hop latency attribution. The program exits 1 when it stitches
// no complete span.
//
// Sampling draws from a dedicated RNG, so enabling it never perturbs the
// protocol: a seeded run delivers the same segment stream with tracing on
// or off.
package main

import (
	"fmt"
	"log"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"p2pcollect"
)

func main() {
	var delivered atomic.Int64
	var once sync.Once
	enough := make(chan struct{})

	cluster, err := p2pcollect.StartCluster(p2pcollect.ClusterConfig{
		Peers:   12,
		Servers: 2, // a 2-shard fleet, so spans can cross the exchange path
		Degree:  3,
		Node: p2pcollect.NodeConfig{
			SegmentSize: 4,
			BlockSize:   64,
			Lambda:      4,
			Mu:          40,
			Gamma:       0.5,
			BufferCap:   256,
			// Trace every injected segment. Sample sparsely (e.g. 0.01) on
			// clusters you care about; the wire cost is 10 bytes per traced
			// block and zero for the rest.
			TraceSample: 1,
		},
		Server:   p2pcollect.ServerConfig{PullRate: 120},
		Seed:     11,
		TraceCap: 1 << 16,
		OnSegment: func(p2pcollect.SegmentID, [][]byte) {
			if delivered.Add(1) >= 20 {
				once.Do(func() { close(enough) })
			}
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Stop()

	select {
	case <-enough:
	case <-time.After(30 * time.Second):
	}
	cluster.Stop() // freeze the ring before dumping

	// One dump per endpoint (12 nodes + 2 shard servers); in a multi-process
	// deployment these would come from each process's /debug/snapshot
	// traceTail or flight-recorder file instead.
	asm := p2pcollect.NewAssembler()
	for _, d := range cluster.Dumps() {
		asm.Add(d)
	}
	spans := asm.Assemble()

	complete := 0
	var best *p2pcollect.Span
	for i := range spans {
		if !spans[i].Complete() {
			continue
		}
		complete++
		// Show the most-traveled story: the complete span crossing the most
		// processes.
		if best == nil || len(spans[i].Processes()) > len(best.Processes()) {
			best = &spans[i]
		}
	}

	fmt.Printf("== Tracing a block across the fleet ==\n")
	fmt.Printf("delivered %d segments; %d sampled lineages, %d complete inject→deliver spans\n\n",
		delivered.Load(), len(spans), complete)
	if best == nil {
		fmt.Println("no complete span captured (ring too small or run too short)")
		os.Exit(1)
	}
	fmt.Println(best.String())
	fmt.Println("per-hop latency attribution:")
	for _, h := range best.Hops {
		fmt.Printf("  %-10s -> %-10s %-11s %8.3fs\n", h.From, h.To, h.Kind, h.Dur)
	}
}
