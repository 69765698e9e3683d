package live

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"strings"
	"testing"
	"time"

	"p2pcollect/internal/fleet"
	"p2pcollect/internal/membership"
	"p2pcollect/internal/obs"
	"p2pcollect/internal/pullsched"
	"p2pcollect/internal/randx"
	"p2pcollect/internal/rlnc"
	"p2pcollect/internal/transport"
)

// wiringDigest hashes what StartCluster derives from the cluster seed: every
// node's ID, seed and neighbor list, every server's ID, seed and policy
// (name and, for a seeded policy, its seed).
func wiringDigest(c *Cluster) string {
	h := fnv.New64a()
	for _, n := range c.Nodes {
		fmt.Fprintf(h, "node %d seed %d neighbors %v\n", n.ID(), n.cfg.Seed, n.cfg.Neighbors)
	}
	for _, s := range c.Servers {
		var policySeed int64
		if r, ok := s.cfg.Policy.(*pullsched.RarestFirst); ok {
			policySeed = reflect.ValueOf(r).Elem().FieldByName("cfg").FieldByName("Seed").Int()
		}
		fmt.Fprintf(h, "server %d seed %d policy %s/%d\n", s.ID(), s.cfg.Seed, s.cfg.Policy.Name(), policySeed)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestClusterWiringGolden pins the builder's RNG draw order (overlay, node
// seeds, then server seed and policy seed per server). The digests were
// recorded from the StartCluster that preceded the role templates; every
// seeded cluster test and experiment rests on them staying put.
func TestClusterWiringGolden(t *testing.T) {
	for _, tc := range []struct {
		name, want string
		cfg        ClusterConfig
	}{
		{"blind static", "328b349fa5c25a60", ClusterConfig{
			Peers: 10, Servers: 2, Degree: 3,
			Node: fastNodeConfig(), Server: ServerConfig{PullRate: 100}, Seed: 7,
		}},
		{"rarest fleet", "799c2cdadfd705db", ClusterConfig{
			Peers: 12, Servers: 3, Degree: 4,
			Node: fastNodeConfig(), Server: ServerConfig{PullRate: 100},
			PullPolicy: "rarest", Seed: 23,
		}},
	} {
		c, err := StartCluster(tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		c.Stop()
		if got := wiringDigest(c); got != tc.want {
			t.Errorf("%s: wiring digest %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestClusterFleetFollowsServerCount: several servers are always a sharded
// fleet (each its own ShardID, all of them one shared Journal); one server
// gets none of the fleet fields.
func TestClusterFleetFollowsServerCount(t *testing.T) {
	c, err := StartCluster(ClusterConfig{Peers: 4, Servers: 2, Degree: 2, Node: fastNodeConfig(), Server: ServerConfig{PullRate: 1}})
	if err != nil {
		t.Fatal(err)
	}
	c.Stop()
	if c.Journal == nil {
		t.Fatal("2-server cluster has no shared journal")
	}
	for j, s := range c.Servers {
		cfg := s.Config()
		if cfg.Shards != 2 || cfg.ShardID != j || len(cfg.ShardPeers) != 2 || cfg.Journal != c.Journal {
			t.Errorf("server %d: Shards %d ShardID %d ShardPeers %v Journal %p, want 2, %d, 2 entries, %p",
				j, cfg.Shards, cfg.ShardID, cfg.ShardPeers, cfg.Journal, j, c.Journal)
		}
	}

	c, err = StartCluster(ClusterConfig{Peers: 4, Servers: 1, Degree: 2, Node: fastNodeConfig(), Server: ServerConfig{PullRate: 1}})
	if err != nil {
		t.Fatal(err)
	}
	c.Stop()
	cfg := c.Servers[0].Config()
	if c.Journal != nil || cfg.Shards != 0 || cfg.ShardID != 0 || cfg.ShardPeers != nil || cfg.Journal != nil {
		t.Errorf("1-server cluster got fleet fields: Shards %d ShardID %d ShardPeers %v Journal %v (cluster %v)",
			cfg.Shards, cfg.ShardID, cfg.ShardPeers, cfg.Journal, c.Journal)
	}
}

// TestClusterDumpsSplitTheRing: Dumps gives one dump per endpoint out of the
// shared ring's tail, each holding exactly that endpoint's events in ring
// order under its registry label; together they are the whole tail.
func TestClusterDumpsSplitTheRing(t *testing.T) {
	if (&Cluster{}).Dumps() != nil {
		t.Fatal("Dumps without a tracer is not nil")
	}
	rt := obs.NewRingTracer(16)
	actors := []uint64{1, serverIDBase, 2, serverIDBase + 1, 1, 3}
	for i := 0; i < 40; i++ { // wraps the ring: only the last 16 count
		rt.Trace(obs.TraceEvent{Kind: obs.TraceGossipHop, T: float64(i), Actor: actors[i%len(actors)]})
	}
	tail := rt.Tail(rt.Len())
	dumps := (&Cluster{Tracer: rt}).Dumps()
	total := 0
	seen := make(map[uint64]bool)
	for _, d := range dumps {
		if len(d.Events) == 0 {
			t.Fatalf("empty dump %q", d.Label)
		}
		actor := d.Events[0].Actor
		if seen[actor] {
			t.Fatalf("actor %d split over two dumps", actor)
		}
		seen[actor] = true
		if want := endpointLabel(transport.NodeID(actor)); d.Label != want {
			t.Errorf("dump of actor %d labelled %q, want %q", actor, d.Label, want)
		}
		var want []obs.TraceEvent
		for _, ev := range tail {
			if ev.Actor == actor {
				want = append(want, ev)
			}
		}
		if !reflect.DeepEqual(d.Events, want) {
			t.Errorf("dump %q = %v, want the tail's events of actor %d in ring order %v", d.Label, d.Events, actor, want)
		}
		total += len(d.Events)
	}
	if total != len(tail) || len(seen) != len(actors)-1 {
		t.Errorf("dumps hold %d events of %d actors, tail has %d events of %d", total, len(seen), len(tail), len(actors)-1)
	}
}

// TestEndpointTraceTailIsItsOwn: in a cluster that shares one ring, each
// endpoint's snapshot tail holds only the events that endpoint recorded,
// so merging the endpoints' snapshots counts no event twice.
func TestEndpointTraceTailIsItsOwn(t *testing.T) {
	c, err := StartCluster(ClusterConfig{
		Peers: 6, Servers: 1, Degree: 3, TraceCap: 4096,
		Node: fastNodeConfig(), Server: ServerConfig{PullRate: 200}, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	waitFor(t, 10*time.Second, "a decode and a busy ring", func() bool {
		return c.TotalDecoded() > 0 && c.Tracer.Len() >= 448
	})
	c.Stop()
	var snaps []obs.Snapshot
	ids := make([]transport.NodeID, 0, len(c.Nodes)+len(c.Servers))
	for _, n := range c.Nodes {
		ids = append(ids, n.ID())
	}
	for _, s := range c.Servers {
		ids = append(ids, s.ID())
	}
	for i, reg := range c.Registries() {
		snap := reg.Snapshot()
		if len(snap.TraceTail) == 0 {
			t.Errorf("%s: empty trace tail", snap.Label)
		}
		for _, ev := range snap.TraceTail {
			if ev.Actor != uint64(ids[i]) {
				t.Fatalf("%s: tail holds an event of actor %d: %+v", snap.Label, ev.Actor, ev)
			}
		}
		snaps = append(snaps, snap)
	}
	seen := make(map[obs.TraceEvent]bool)
	for _, ev := range obs.MergeSnapshots("cluster", snaps...).TraceTail {
		if seen[ev] {
			t.Fatalf("merged tail holds %+v twice", ev)
		}
		seen[ev] = true
	}
}

// TestClusterRejectsBuilderOwnedTemplateFields: a template that sets a field
// StartCluster fills per endpoint is an error naming the field, never a
// silent overwrite.
func TestClusterRejectsBuilderOwnedTemplateFields(t *testing.T) {
	for _, tc := range []struct {
		field string
		set   func(*ClusterConfig)
	}{
		{"Node.Neighbors", func(c *ClusterConfig) { c.Node.Neighbors = []transport.NodeID{2} }},
		{"Node.Seed", func(c *ClusterConfig) { c.Node.Seed = 5 }},
		{"Node.Tracer", func(c *ClusterConfig) { c.Node.Tracer = obs.NewRingTracer(8) }},
		{"Server.Peers", func(c *ClusterConfig) { c.Server.Peers = []transport.NodeID{1} }},
		{"Server.Seed", func(c *ClusterConfig) { c.Server.Seed = 5 }},
		{"Server.Shards", func(c *ClusterConfig) { c.Server.Shards = 2 }},
		{"Server.Journal", func(c *ClusterConfig) { c.Server.Journal = fleet.NewJournal(0) }},
		{"Server.Policy", func(c *ClusterConfig) { c.Server.Policy = pullsched.Blind{} }},
		{"Server.Tracer", func(c *ClusterConfig) { c.Server.Tracer = obs.NewRingTracer(8) }},
	} {
		cfg := ClusterConfig{Peers: 4, Servers: 2, Degree: 2, Node: fastNodeConfig(), Server: ServerConfig{PullRate: 1}}
		tc.set(&cfg)
		c, err := StartCluster(cfg)
		if err == nil {
			c.Stop()
			t.Errorf("template setting %s accepted", tc.field)
		} else if !strings.Contains(err.Error(), tc.field) {
			t.Errorf("template setting %s: error %q does not name the field", tc.field, err)
		}
	}
}

// socketCluster starts peers + one server on real loopback sockets through
// StartCluster's Listen seam: "tcp" is a full-mesh static overlay whose
// address book the builder exchanges; "udp" has no overlay at all, only
// SWIM membership seeded with three peer addresses, and with lossProb > 0
// every endpoint sits behind a seeded Faulty.
func socketCluster(t *testing.T, kind string, peers int, node NodeConfig, pullRate, lossProb float64,
	onSegment func(rlnc.SegmentID, [][]byte)) *Cluster {
	t.Helper()
	cfg := ClusterConfig{
		Peers:     peers,
		Servers:   1,
		Node:      node,
		Server:    ServerConfig{PullRate: pullRate},
		OnSegment: onSegment,
		Seed:      9,
	}
	switch kind {
	case "tcp":
		cfg.Degree = peers - 1
		cfg.Listen = func(id transport.NodeID) (transport.Transport, error) {
			return transport.ListenTCP(id, "127.0.0.1:0", nil)
		}
	case "udp":
		cfg.Membership = &membership.Config{Period: 0.2, SuspectTimeout: 1.0}
		cfg.Listen = func(id transport.NodeID) (transport.Transport, error) {
			u, err := transport.ListenUDP(id, "127.0.0.1:0", nil)
			if err != nil || lossProb == 0 {
				return u, err
			}
			return transport.NewFaulty(u, transport.FaultConfig{LossProb: lossProb}, randx.New(int64(id)*7919+1)), nil
		}
	default:
		t.Fatalf("unknown socket kind %q", kind)
	}
	cluster, err := StartCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return cluster
}

// TestClusterOverSockets is a miniature real-network deployment per
// transport: 4 peers + 1 server over localhost, built by StartCluster.
func TestClusterOverSockets(t *testing.T) {
	for _, tc := range []struct {
		name, kind string
		lossProb   float64
	}{
		{"tcp static", "tcp", 0},
		{"udp swim faulty", "udp", 0.1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := newSegSet()
			cluster := socketCluster(t, tc.kind, 4, fastNodeConfig(), 150, tc.lossProb, got.observe)
			defer cluster.Stop()
			if cluster.Network != nil {
				t.Error("a cluster with its own Listen still built an in-memory network")
			}
			deadline := time.Now().Add(20 * time.Second)
			for time.Now().Before(deadline) {
				if got.len() >= 2 {
					return
				}
				time.Sleep(50 * time.Millisecond)
			}
			t.Fatalf("decoded %d segments over %s, want >= 2 (server stats: %+v)",
				got.len(), tc.kind, cluster.Servers[0].Stats())
		})
	}
}

// TestCollectionTimeResolvesMilliseconds: the collectionTime ladder used to
// start at 125 ms, so every faster collection read as 62.5 ms.
func TestCollectionTimeResolvesMilliseconds(t *testing.T) {
	srv, err := NewServer(transport.NewNetwork().Join(serverIDBase), ServerConfig{Peers: []transport.NodeID{1}, SegmentSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	srv.obsCollect.Observe(0.005)
	for _, h := range srv.Registry().Snapshot().Histograms {
		if h.Name != "collectionTime" {
			continue
		}
		if h.P50 < 0.0025 || h.P50 >= 0.010 {
			t.Errorf("a 5 ms collection reports p50 = %g s, want within [2.5 ms, 10 ms)", h.P50)
		}
		return
	}
	t.Fatal("server registry has no collectionTime histogram")
}

// reportUndelivered is the flake triage for the fleet chaos tests: for every
// segment still undelivered at the deadline it logs the coded blocks each
// node holds for it, each running shard's rank for it (servers: the live
// ones, a restarted shard in place of the one it replaced) and whether the
// journal claimed it. Every node and shard stuck at the same count below s
// means a dimension of the segment is extinct network-wide; a holder at s
// (or nodes that together could still reach it) means it was merely slow.
func reportUndelivered(t *testing.T, c *Cluster, servers []*Server, left []rlnc.SegmentID) {
	t.Helper()
	for _, seg := range left {
		var held []string
		total := 0
		for _, n := range c.Nodes {
			n.mu.Lock()
			k := n.core.BlocksOf(seg)
			n.mu.Unlock()
			if k > 0 {
				held = append(held, fmt.Sprintf("node-%d:%d", n.ID(), k))
				total += k
			}
		}
		var ranks []string
		for _, s := range servers {
			rank, state := 0, "absent"
			s.mu.Lock()
			st := s.svc.Store()
			if col := st.Collection(seg); col != nil {
				rank, state = col.Rank(), "open"
			} else if st.Finished(seg) {
				state = "finished"
			}
			s.mu.Unlock()
			ranks = append(ranks, fmt.Sprintf("shard-%d:%d(%s)", s.cfg.ShardID, rank, state))
		}
		t.Logf("undelivered %v: journal claimed=%v; %d blocks on %d nodes %v; shard ranks %v",
			seg, c.Journal.Delivered(seg), total, len(held), held, ranks)
	}
}
