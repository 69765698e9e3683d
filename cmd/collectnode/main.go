// Command collectnode runs one live participant of the indirect collection
// protocol: either a peer (generating and gossiping coded statistics
// blocks) or a logging server (pulling and decoding segments).
//
// A three-participant session on one machine over TCP with a static
// topology:
//
//	collectnode -mode peer   -id 1 -listen 127.0.0.1:7001 \
//	    -book 2=127.0.0.1:7002,3=127.0.0.1:7003 -neighbors 2
//	collectnode -mode peer   -id 2 -listen 127.0.0.1:7002 \
//	    -book 1=127.0.0.1:7001,3=127.0.0.1:7003 -neighbors 1
//	collectnode -mode server -id 3 -listen 127.0.0.1:7003 \
//	    -book 1=127.0.0.1:7001,2=127.0.0.1:7002 -peers 1,2
//
// With -transport=udp every message rides one fire-and-forget datagram,
// and -join replaces the static topology with SWIM gossip membership: name
// a few seed members and the process discovers the rest by rumor, so
// neither -neighbors, -peers, nor a full -book is needed:
//
//	collectnode -mode peer   -id 1 -transport udp -listen 127.0.0.1:7001
//	collectnode -mode peer   -id 2 -transport udp -listen 127.0.0.1:7002 \
//	    -join 1=127.0.0.1:7001
//	collectnode -mode server -id 3 -transport udp -listen 127.0.0.1:7003 \
//	    -join 1=127.0.0.1:7001,2=127.0.0.1:7002
//
// The process runs until the duration elapses (or forever with -duration 0,
// until SIGINT) and prints its statistics on exit.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"p2pcollect"
	"p2pcollect/internal/logdata"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "collectnode:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("collectnode", flag.ContinueOnError)
	// Every protocol and runtime flag is bound straight to the config field
	// it sets: node for -mode peer, srv for -mode server.
	var node p2pcollect.NodeConfig
	var srv p2pcollect.ServerConfig
	var (
		mode       = fs.String("mode", "peer", "peer or server")
		id         = fs.Uint64("id", 1, "node id (unique across the session)")
		listen     = fs.String("listen", "127.0.0.1:0", "listen address")
		trKind     = fs.String("transport", "tcp", "transport: tcp (reliable streams) or udp (one fire-and-forget datagram per message)")
		book       = fs.String("book", "", "address book: id=addr,id=addr,...")
		neighbors  = fs.String("neighbors", "", "peer mode: comma-separated neighbor ids (static topology)")
		peersList  = fs.String("peers", "", "server mode: comma-separated peer ids to pull from (static topology)")
		joinList   = fs.String("join", "", "SWIM membership seeds as id=addr,...: replaces -neighbors/-peers with gossip-discovered membership")
		swimPeriod = fs.Float64("swim-period", 0, "SWIM probe period in seconds (0 = default)")
		duration   = fs.Duration("duration", 0, "how long to run (0 = until SIGINT)")
		shardBook  = fs.String("shard-book", "", "server mode: shardID=nodeID,... mapping every fleet shard to its transport id (addresses come from -book)")
		seed       = fs.Int64("seed", time.Now().UnixNano(), "random seed")
		outPath    = fs.String("out", "", "server mode: append recovered records to this CSV file")
		debugAddr  = fs.String("debug-addr", "", "serve the observability endpoint (Prometheus /metrics, JSON /debug/snapshot, pprof) on this address (e.g. 127.0.0.1:8090)")
	)
	fs.IntVar(&node.SegmentSize, "s", 8, "segment size")
	fs.IntVar(&node.BlockSize, "blocksize", logdata.RecordSize, "payload bytes per block")
	fs.Float64Var(&node.Lambda, "lambda", 5, "blocks generated per second")
	fs.Float64Var(&node.Mu, "mu", 10, "gossip blocks per second")
	fs.Float64Var(&node.Gamma, "gamma", 0.2, "block expiry rate per second")
	fs.IntVar(&node.BufferCap, "buffer", 512, "buffer capacity in blocks")
	fs.Float64Var(&node.TraceSample, "trace-sample", 0, "peer mode: fraction of injected segments stamped with a wire-level trace id (0 = off, frames stay byte-identical)")
	fs.Float64Var(&srv.PullRate, "pullrate", 20, "server pulls per second")
	fs.IntVar(&srv.Shards, "shards", 0, "server mode: total shard count of the fleet this server belongs to (0 or 1 = standalone)")
	fs.IntVar(&srv.ShardID, "shard-id", 0, "server mode: this server's shard index in [0, shards)")
	fs.StringVar(&srv.Durability.Dir, "wal-dir", "", "server mode: persist collection state in a write-ahead log under this directory; a restart recovers and resumes (empty = in-RAM only)")
	fs.Func("wal-sync", "server mode: WAL fsync policy: none, interval (group commit, the default), or always", func(v string) (err error) {
		srv.Durability.Sync, err = p2pcollect.ParseWALSyncMode(v)
		return err
	})
	fs.IntVar(&srv.Durability.SnapshotEvery, "snapshot-every", 0, "server mode: snapshot decoder state every N logged blocks to bound replay (0 = default 8192)")
	fs.StringVar(&srv.FlightPath, "flight-path", "", "server mode: write the crash flight-recorder dump here on hard stop or panic (empty = <wal-dir>/flight.bin when -wal-dir is set)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	node.Seed, srv.Seed = *seed, *seed
	node.DebugAddr, srv.DebugAddr = *debugAddr, *debugAddr

	// Every flag is checked before the listener opens, so a bad invocation
	// binds no port.
	addrBook, err := parseBook(*book)
	if err != nil {
		return err
	}
	// -join switches from static topology to SWIM gossip membership: the
	// listed members bootstrap the detector and everything else arrives by
	// rumor.
	var swim *p2pcollect.MembershipConfig
	if *joinList != "" {
		seeds, err := parseJoin(*joinList)
		if err != nil {
			return fmt.Errorf("-join: %w", err)
		}
		swim = &p2pcollect.MembershipConfig{Seeds: seeds, Period: *swimPeriod}
	} else if *trKind == "udp" && *neighbors == "" && *peersList == "" {
		// The first member of a gossip cluster has nobody to name: it
		// bootstraps standalone and is discovered when later nodes -join it.
		swim = &p2pcollect.MembershipConfig{Period: *swimPeriod}
	}
	switch *mode {
	case "peer":
		ids, err := parseIDs(*neighbors)
		if err != nil {
			return fmt.Errorf("-neighbors: %w", err)
		}
		if len(ids) == 0 && swim == nil {
			return fmt.Errorf("peer mode needs -neighbors (or -join for gossip membership)")
		}
		node.Neighbors, node.Membership = ids, swim
	case "server":
		ids, err := parseIDs(*peersList)
		if err != nil {
			return fmt.Errorf("-peers: %w", err)
		}
		srv.Peers, srv.Membership = ids, swim
		if srv.Shards > 1 {
			if srv.ShardPeers, err = parseShardBook(*shardBook); err != nil {
				return fmt.Errorf("-shard-book: %w", err)
			}
		}
	default:
		return fmt.Errorf("unknown -mode %q (want peer or server)", *mode)
	}

	var tr interface {
		p2pcollect.Transport
		Addr() string
	}
	switch *trKind {
	case "tcp":
		tr, err = p2pcollect.NewTCPTransport(p2pcollect.NodeID(*id), *listen, addrBook)
	case "udp":
		tr, err = p2pcollect.NewUDPTransport(p2pcollect.NodeID(*id), *listen, addrBook)
	default:
		err = fmt.Errorf("unknown -transport %q (want tcp or udp)", *trKind)
	}
	if err != nil {
		return err
	}
	// Stop closes the transport too; this Close covers every error return
	// before Stop, and after it is a no-op.
	defer tr.Close() //nolint:errcheck // shutdown path
	fmt.Printf("node %d listening on %s (%s)\n", *id, tr.Addr(), *trKind)

	stopAfter := make(<-chan time.Time)
	if *duration > 0 {
		stopAfter = time.After(*duration)
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)

	if *mode == "peer" {
		n, err := p2pcollect.NewNode(tr, node)
		if err != nil {
			return err
		}
		if err := n.Start(); err != nil {
			return err
		}
		if url := n.DebugURL(); url != "" {
			fmt.Printf("debug endpoint at %s/metrics\n", url)
		}
		select {
		case <-sig:
		case <-stopAfter:
		}
		n.Stop()
		fmt.Printf("peer stats: %+v\n", n.Stats())
		return nil
	}

	var csv *logdata.CSVWriter
	if *outPath != "" {
		f, err := os.OpenFile(*outPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("open -out: %w", err)
		}
		defer f.Close()
		csv = logdata.NewCSVWriter(f)
	}
	if srv.Shards > 1 {
		// Each process runs its own journal: it dedups local decodes;
		// cross-process dedup rides on the fleet's completion notices.
		// With a WAL directory the journal is durable too, so a
		// restarted shard never re-delivers a segment it already
		// claimed.
		if dir := srv.Durability.Dir; dir != "" {
			j, jc, err := p2pcollect.OpenDeliveryJournal(filepath.Join(dir, "journal.claims"), 0)
			if err != nil {
				return err
			}
			defer jc.Close()
			srv.Journal = j
		} else {
			srv.Journal = p2pcollect.NewDeliveryJournal(0)
		}
	}
	s, err := p2pcollect.NewServer(tr, srv)
	if err != nil {
		return err
	}
	s.OnSegment = func(segID p2pcollect.SegmentID, blocks [][]byte) {
		records := 0
		for _, b := range blocks {
			if csv != nil {
				if n, err := csv.WriteBlock(b); err == nil {
					records += n
					continue
				}
			}
			if rs, err := logdata.UnpackRecords(b); err == nil {
				records += len(rs)
			}
		}
		fmt.Printf("decoded segment %v: %d blocks, %d records\n", segID, len(blocks), records)
	}
	if err := s.Start(); err != nil {
		return err
	}
	if url := s.DebugURL(); url != "" {
		fmt.Printf("debug endpoint at %s/metrics\n", url)
	}
	select {
	case <-sig:
	case <-stopAfter:
	}
	s.Stop()
	fmt.Printf("server stats: %+v\n", s.Stats())
	return nil
}

// parseBook parses "id=addr,id=addr" into an address book.
func parseBook(s string) (map[p2pcollect.NodeID]string, error) {
	book := make(map[p2pcollect.NodeID]string)
	if s == "" {
		return book, nil
	}
	for _, entry := range strings.Split(s, ",") {
		id, addr, ok := strings.Cut(entry, "=")
		if !ok {
			return nil, fmt.Errorf("bad book entry %q (want id=addr)", entry)
		}
		n, err := strconv.ParseUint(id, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad book id %q: %w", id, err)
		}
		book[p2pcollect.NodeID(n)] = addr
	}
	return book, nil
}

// parseJoin parses "id=addr,..." into SWIM seed members. Seeds are
// assumed to be peers; their true role is corrected by the first direct
// contact or rumor.
func parseJoin(s string) ([]p2pcollect.Member, error) {
	book, err := parseBook(s)
	if err != nil {
		return nil, err
	}
	seeds := make([]p2pcollect.Member, 0, len(book))
	for id, addr := range book {
		seeds = append(seeds, p2pcollect.Member{ID: id, Addr: addr, Role: p2pcollect.MemberPeer})
	}
	return seeds, nil
}

// parseShardBook parses "0=3,1=4" into a shard-index → node-ID map.
func parseShardBook(s string) (map[int]p2pcollect.NodeID, error) {
	if s == "" {
		return nil, fmt.Errorf("a fleet server needs -shard-book")
	}
	book := make(map[int]p2pcollect.NodeID)
	for _, entry := range strings.Split(s, ",") {
		sid, nid, ok := strings.Cut(entry, "=")
		if !ok {
			return nil, fmt.Errorf("bad entry %q (want shardID=nodeID)", entry)
		}
		si, err := strconv.Atoi(strings.TrimSpace(sid))
		if err != nil {
			return nil, fmt.Errorf("bad shard id %q: %w", sid, err)
		}
		ni, err := strconv.ParseUint(strings.TrimSpace(nid), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad node id %q: %w", nid, err)
		}
		book[si] = p2pcollect.NodeID(ni)
	}
	return book, nil
}

// parseIDs parses "1,2,3" into node IDs.
func parseIDs(s string) ([]p2pcollect.NodeID, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	ids := make([]p2pcollect.NodeID, 0, len(parts))
	for _, p := range parts {
		n, err := strconv.ParseUint(strings.TrimSpace(p), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad id %q: %w", p, err)
		}
		ids = append(ids, p2pcollect.NodeID(n))
	}
	return ids, nil
}
