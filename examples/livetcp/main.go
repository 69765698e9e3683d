// Livetcp boots a real deployment on localhost: peers running the full
// protocol over TCP — generating statistics records, gossiping coded
// blocks, expiring TTLs — and one logging server that pulls, decodes
// segments, and prints the recovered vital-statistics records. With -loss
// the deployment runs under injected message loss, demonstrating the
// fault-tolerant send path: throughput degrades, collection continues.
// With -policy rarest the server's pulls are scheduled by the feedback-driven
// rarest-first policy instead of the paper's blind baseline; the final
// useful/redundant pull split shows what the scheduling buys.
package main

import (
	"flag"
	"fmt"
	"log"
	"sort"
	"sync"
	"time"

	"p2pcollect"
	"p2pcollect/internal/logdata"
)

func main() {
	// One declaration per knob: every flag is bound to the config field it sets.
	cfg := p2pcollect.ClusterConfig{
		Servers: 1,
		Node: p2pcollect.NodeConfig{
			SegmentSize: 4,
			BlockSize:   logdata.RecordSize,
			Lambda:      20,
			Mu:          40,
			Gamma:       0.5,
			BufferCap:   256,
		},
		Server: p2pcollect.ServerConfig{PullRate: 80},
		Seed:   99,
	}
	var opts p2pcollect.TCPOptions
	flag.IntVar(&cfg.Peers, "peers", 6, "number of live peers")
	duration := flag.Duration("duration", 4*time.Second, "how long to run")
	loss := flag.Float64("loss", 0, "injected per-message loss probability [0,1)")
	flag.DurationVar(&opts.WriteTimeout, "write-timeout", 2*time.Second, "per-frame TCP write deadline")
	flag.DurationVar(&opts.DialTimeout, "dial-timeout", time.Second, "TCP dial deadline")
	flag.StringVar(&cfg.PullPolicy, "policy", "blind",
		fmt.Sprintf("server pull-scheduling policy %v", p2pcollect.PullPolicies()))
	flag.StringVar(&cfg.DebugAddr, "debug-addr", "",
		"serve Prometheus /metrics, JSON /debug/snapshot, and pprof for every endpoint on this address (e.g. 127.0.0.1:8090)")
	flag.Parse()
	if err := run(cfg, opts, *duration, *loss); err != nil {
		log.Fatal(err)
	}
}

func run(cfg p2pcollect.ClusterConfig, opts p2pcollect.TCPOptions, duration time.Duration, loss float64) error {
	if loss < 0 || loss >= 1 {
		return fmt.Errorf("loss %.2f outside [0, 1)", loss)
	}
	var mu sync.Mutex
	recovered := make(map[uint64]int) // records recovered per origin peer
	var sample *logdata.Record

	// StartCluster listens every endpoint on an ephemeral localhost port,
	// exchanges the address book, and wires a full mesh of peers around one
	// logging server. With -loss, each endpoint sits behind a seeded fault
	// injector over the same production TCP path. With -debug-addr, every
	// endpoint shares one lifecycle tracer and one debug HTTP server
	// (endpoints distinguished by label).
	cfg.Degree = cfg.Peers - 1
	cfg.Listen = func(id p2pcollect.NodeID) (p2pcollect.Transport, error) {
		tr, err := p2pcollect.NewTCPTransportOpts(id, "127.0.0.1:0", nil, opts)
		if err != nil || loss == 0 {
			return tr, err
		}
		return p2pcollect.NewFaultyTransport(tr, p2pcollect.FaultConfig{LossProb: loss}, int64(id)), nil
	}
	cfg.OnSegment = func(id p2pcollect.SegmentID, blocks [][]byte) {
		mu.Lock()
		defer mu.Unlock()
		for _, block := range blocks {
			records, err := logdata.UnpackRecords(block)
			if err != nil {
				continue
			}
			recovered[id.Origin] += len(records)
			if sample == nil && len(records) > 0 {
				sample = records[0]
			}
		}
	}
	cluster, err := p2pcollect.StartCluster(cfg)
	if err != nil {
		return err
	}
	defer cluster.Stop()
	server, tracer := cluster.Servers[0], cluster.Tracer

	if loss > 0 {
		fmt.Printf("injecting %.0f%% message loss on every endpoint\n", loss*100)
	}
	fmt.Printf("started %d peers + 1 logging server (id %d) on localhost TCP...\n", cfg.Peers, server.ID())
	if cluster.Debug != nil {
		url := cluster.Debug.URL()
		fmt.Printf("debug endpoint: %s/metrics | %s/debug/snapshot | %s/debug/pprof/\n", url, url, url)
	}
	time.Sleep(duration)

	stats := server.Stats()
	cluster.Stop()

	mu.Lock()
	defer mu.Unlock()
	fmt.Printf("\nserver after %v (policy %s): %d pulls sent, %d blocks received, %d segments decoded\n",
		duration, cfg.PullPolicy, stats.PullsSent, stats.BlocksReceived, stats.DecodedSegments)
	if stats.BlocksReceived > 0 {
		useful := stats.Protocol["innovativePulls"]
		fmt.Printf("  pull split: %d useful / %d redundant (%.1f%% of replies wasted)\n",
			useful, stats.RedundantBlocks,
			100*float64(stats.RedundantBlocks)/float64(stats.BlocksReceived))
	}
	if loss > 0 {
		fmt.Printf("  fault injection dropped %d outgoing server messages\n",
			stats.Protocol["transportFaultLossDrops"])
	}
	if tracer != nil {
		for _, h := range server.Registry().Snapshot().Histograms {
			if h.Name == "pullRTT" && h.Count > 0 {
				fmt.Printf("  pull RTT: p50=%.1fms p99=%.1fms over %d closed pulls\n",
					h.P50*1000, h.P99*1000, h.Count)
			}
		}
		// Reconstruct where one decoded segment's time went.
		for _, ev := range tracer.Tail(1 << 12) {
			if ev.Kind != p2pcollect.TraceDecoded {
				continue
			}
			fmt.Printf("  lifecycle of segment %v:\n", ev.Seg)
			for _, ph := range tracer.Query(ev.Seg).Phases() {
				fmt.Printf("    %-18s %6.3fs\n", ph.Name, ph.Dur)
			}
			break
		}
	}
	origins := make([]uint64, 0, len(recovered))
	for origin := range recovered {
		origins = append(origins, origin)
	}
	sort.Slice(origins, func(i, j int) bool { return origins[i] < origins[j] })
	for _, origin := range origins {
		fmt.Printf("  peer %d: %d vital-statistics records recovered\n", origin, recovered[origin])
	}
	if sample != nil {
		fmt.Printf("\nsample record: peer=%d seq=%d continuity=%.3f buffer=%.1fs down=%.0fkbps up=%.0fkbps loss=%.3f\n",
			sample.PeerID, sample.SeqNo, sample.Continuity, sample.BufferLevel,
			sample.DownloadKbps, sample.UploadKbps, sample.LossRate)
	}
	if stats.DecodedSegments == 0 {
		return fmt.Errorf("no segments decoded; try a longer -duration")
	}
	return nil
}
