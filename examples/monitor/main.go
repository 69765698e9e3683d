// Monitor closes the loop the paper motivates: a live in-process deployment
// where peers stream real vital-statistics records through the indirect
// collection mechanism, and an operator-side aggregator behind the logging
// servers produces the per-channel health report and worst-peer list used
// to diagnose the system. The cluster also serves its observability
// endpoint, and the report ends with an infrastructure-health section built
// the way an external dashboard would: by scraping the JSON snapshot over
// HTTP rather than touching any in-process state.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"sync"
	"time"

	"p2pcollect"
	"p2pcollect/internal/logdata"
	"p2pcollect/internal/obs"
)

func main() {
	peers := flag.Int("peers", 16, "number of live peers")
	duration := flag.Duration("duration", 4*time.Second, "collection window")
	flag.Parse()
	if err := run(*peers, *duration); err != nil {
		log.Fatal(err)
	}
}

func run(peers int, duration time.Duration) error {
	var mu sync.Mutex
	agg := logdata.NewAggregator()
	decoded := make(map[p2pcollect.SegmentID]bool)
	duplicates := 0

	cluster, err := p2pcollect.StartCluster(p2pcollect.ClusterConfig{
		Peers:   peers,
		Servers: 2, // a fleet with a shared delivery journal: each segment arrives once
		Degree:  4,
		Node: p2pcollect.NodeConfig{
			SegmentSize: 4,
			BlockSize:   2 * logdata.RecordSize,
			Lambda:      30,
			Mu:          60,
			Gamma:       1,
			BufferCap:   512,
		},
		Server:    p2pcollect.ServerConfig{PullRate: 120},
		Seed:      time.Now().UnixNano(),
		DebugAddr: "127.0.0.1:0",
		OnSegment: func(id p2pcollect.SegmentID, blocks [][]byte) {
			mu.Lock()
			defer mu.Unlock()
			if decoded[id] {
				duplicates++
				return
			}
			decoded[id] = true
			for _, b := range blocks {
				agg.AddBlock(b) //nolint:errcheck // synthetic payloads are well-formed
			}
		},
	})
	if err != nil {
		return err
	}
	fmt.Printf("collecting vital statistics from %d peers for %v...\n", peers, duration)
	fmt.Printf("observability endpoint: %s/metrics\n", cluster.Debug.URL())
	time.Sleep(duration)

	// Scrape the infrastructure view over HTTP before stopping, exactly as
	// an external dashboard would.
	snap, scrapeErr := scrapeSnapshot(cluster.Debug.URL() + "/debug/snapshot")
	cluster.Stop()

	mu.Lock()
	defer mu.Unlock()
	fmt.Printf("\nlogging servers reconstructed %d segments -> %d records from %d peers\n\n",
		len(decoded), agg.Records(), agg.PeerCount())

	fmt.Println("channel   records  peers  continuity  buffer(s)  down(kbps)  loss    degraded")
	for _, ch := range agg.Channels() {
		fmt.Printf("%7d  %8d  %5d  %10.3f  %9.1f  %10.0f  %.4f  %7.1f%%\n",
			ch.ChannelID, ch.Records, ch.Peers, ch.MeanContinuity,
			ch.MeanBufferLevel, ch.MeanDownload, ch.MeanLoss, 100*ch.DegradedFraction)
	}

	fmt.Println("\npeers with the worst observed playback continuity:")
	for _, p := range agg.WorstPeers(5) {
		fmt.Printf("  peer %-4d  %3d records  continuity %.3f  loss %.4f\n",
			p.PeerID, p.Records, p.MeanContinuity, p.MeanLoss)
	}
	if scrapeErr != nil {
		return fmt.Errorf("scrape observability snapshot: %w", scrapeErr)
	}
	printInfrastructure(snap)

	if duplicates > 0 {
		return fmt.Errorf("%d segments were delivered more than once", duplicates)
	}
	if agg.Records() == 0 {
		return fmt.Errorf("no records collected; try a longer -duration")
	}
	return nil
}

// scrapeSnapshot GETs and decodes the cluster's JSON observability snapshot.
func scrapeSnapshot(url string) ([]obs.Snapshot, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	var doc struct {
		Endpoints []obs.Snapshot `json:"endpoints"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, err
	}
	return doc.Endpoints, nil
}

// printInfrastructure renders the scraped observability snapshot: per-server
// pull latency and collection-time percentiles plus the pull-budget split,
// and the peers' aggregate buffer pressure.
func printInfrastructure(endpoints []obs.Snapshot) {
	fmt.Println("\ninfrastructure health (scraped from /debug/snapshot):")
	var buffered, peers float64
	for _, ep := range endpoints {
		if _, ok := ep.Gauges["bufferedBlocks"]; ok {
			buffered += ep.Gauges["bufferedBlocks"]
			peers++
			continue
		}
		useful := ep.Counters["pullschedFeedbackUseful"]
		redundant := ep.Counters["pullschedFeedbackRedundant"]
		empty := ep.Counters["pullschedFeedbackEmpty"]
		fmt.Printf("  %s (policy %s): pulls useful/redundant/empty = %d/%d/%d\n",
			ep.Label, ep.Info["policy"], useful, redundant, empty)
		for _, h := range ep.Histograms {
			if h.Count == 0 {
				continue
			}
			switch h.Name {
			case "pullRTT":
				fmt.Printf("    pull RTT        p50=%.1fms p99=%.1fms (n=%d)\n",
					h.P50*1000, h.P99*1000, h.Count)
			case "collectionTime":
				fmt.Printf("    collection time p50=%.2fs p99=%.2fs (n=%d)\n",
					h.P50, h.P99, h.Count)
			}
		}
	}
	if peers > 0 {
		fmt.Printf("  peers: mean buffer occupancy %.1f blocks across %.0f nodes\n",
			buffered/peers, peers)
	}
}
