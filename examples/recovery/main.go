// Recovery: kill a durable logging server mid-collection and restart it
// from its write-ahead log. The run prints what the crash left on disk,
// what recovery reconstructed — snapshot, replayed log records, resumed
// collections and their total rank — and verifies that collection simply
// continues: segments the first server half-collected are finished by the
// second, and nothing is ever delivered twice.
//
// The same mechanism over TCP: collectnode -mode server -wal-dir <dir>,
// kill -9 the process, start it again with the same flags.
package main

import (
	"fmt"
	"log"
	"os"
	"sync"
	"time"

	"p2pcollect"
)

const (
	peers  = 12
	degree = 3
	phase  = 3 * time.Second
)

func main() {
	root, err := os.MkdirTemp("", "p2pcollect-recovery-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(root)

	var mu sync.Mutex
	delivered := make(map[p2pcollect.SegmentID]int)
	onSegment := func(id p2pcollect.SegmentID, blocks [][]byte) {
		mu.Lock()
		delivered[id]++
		mu.Unlock()
	}

	// Phase 1: a cluster whose single server logs every received block
	// under <root>/shard-0. SyncAlways makes the kill below lose nothing,
	// so the resumed ranks are exactly the pre-kill ones; the default
	// interval mode would lose at most the last 50 ms of blocks.
	cluster, err := p2pcollect.StartCluster(p2pcollect.ClusterConfig{
		Peers:   peers,
		Servers: 1,
		Degree:  degree,
		Node: p2pcollect.NodeConfig{
			SegmentSize: 8,
			BlockSize:   64,
			Lambda:      10,
			Mu:          60,
			Gamma:       0.05,
			BufferCap:   4096,
		},
		Server: p2pcollect.ServerConfig{
			PullRate: 80,
			Durability: p2pcollect.Durability{
				Dir:           root,
				Sync:          p2pcollect.WALSyncAlways,
				SnapshotEvery: 64,
			},
		},
		OnSegment: onSegment,
		Seed:      7,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Stop()

	time.Sleep(phase)
	srv := cluster.Servers[0]
	id := srv.ID()
	pre := srv.Stats()
	srv.CrashStop() // hard stop: no final snapshot, buffered writes dropped
	mu.Lock()
	preDelivered := len(delivered)
	mu.Unlock()
	fmt.Printf("killed server %d after %v: %d segments delivered, %d mid-collection\n",
		id, phase, preDelivered, pre.OpenDecoders)

	walDir := srv.Config().Durability.Dir // <root>/shard-0
	entries, err := os.ReadDir(walDir)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("left on disk in %s:\n", walDir)
	for _, e := range entries {
		if info, err := e.Info(); err == nil {
			fmt.Printf("  %-24s %7d bytes\n", e.Name(), info.Size())
		}
	}

	// Phase 2: a new server with the dead one's configuration (its WAL
	// directory included) and network identity, on a fresh seed. NewServer
	// runs recovery before the first pull.
	restart := srv.Config()
	restart.Seed = 99
	srv2, err := p2pcollect.NewServer(cluster.Network.Join(id), restart)
	if err != nil {
		log.Fatal(err)
	}
	stats, ok := p2pcollect.ServerRecovery(srv2)
	if !ok {
		log.Fatal("restarted server is not durable")
	}
	fmt.Printf("recovery in %v: snapshot=%v (%d collections), %d log records replayed, "+
		"%d open segments resumed at total rank %d\n",
		stats.Duration.Round(time.Microsecond), stats.SnapshotLoaded, stats.SnapshotSegments,
		stats.ReplayedRecords, stats.OpenSegments, stats.TotalRank)
	srv2.OnSegment = onSegment
	if err := srv2.Start(); err != nil {
		log.Fatal(err)
	}
	time.Sleep(phase)
	srv2.Stop()

	mu.Lock()
	defer mu.Unlock()
	dupes := 0
	for _, n := range delivered {
		if n > 1 {
			dupes++
		}
	}
	fmt.Printf("after restart: %d segments delivered in total (+%d post-crash), %d duplicates\n",
		len(delivered), len(delivered)-preDelivered, dupes)
	if dupes > 0 {
		log.Fatal("a restart must never re-deliver a segment")
	}
	fmt.Println("the crash cost nothing but the downtime: collection resumed where it stopped")
}
