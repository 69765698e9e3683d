package live

import (
	"sync"
	"testing"
	"time"

	"p2pcollect/internal/rlnc"
)

// The differential tests bound every peer's injection (MaxSegments) and
// slow TTL expiry to a crawl (Gamma well below the pull rate), so "full
// delivery" is a well-defined exact set: every injected segment must be
// reconstructed by the server, whatever the transport drops along the way.
// That is the RLNC claim under test — coded blocks are fungible, so a
// lossy datagram fabric converges to the same delivered set as reliable
// streams, just along a different path.

// boundedNodeConfig is fastNodeConfig with injection capped and TTL expiry
// effectively disabled, so a run terminates with an exact delivered set.
func boundedNodeConfig(perPeer int) NodeConfig {
	cfg := fastNodeConfig()
	// Mean block TTL ~11 days: TTL expiry is disabled in all but name
	// (validation requires Gamma > 0), so the only way a segment dimension
	// can vanish is a transport or membership bug — exactly what these
	// tests are after. At practical Gamma a dimension can legitimately
	// expire before it is ever gossiped off its origin, which makes "full
	// delivery" probabilistic; see the sim package for that regime.
	cfg.Gamma = 1e-6
	cfg.MaxSegments = perPeer
	return cfg
}

// expectedSegments is the full delivered set for peers 1..P injecting
// perPeer segments each (peercore assigns Seq 0,1,... per origin).
func expectedSegments(peers, perPeer int) map[rlnc.SegmentID]bool {
	want := make(map[rlnc.SegmentID]bool, peers*perPeer)
	for origin := 1; origin <= peers; origin++ {
		for seq := 0; seq < perPeer; seq++ {
			want[rlnc.SegmentID{Origin: uint64(origin), Seq: uint64(seq)}] = true
		}
	}
	return want
}

// segSet is a mutex-guarded delivered-segment set fed by Server.OnSegment.
type segSet struct {
	mu  sync.Mutex
	ids map[rlnc.SegmentID]bool
}

func newSegSet() *segSet { return &segSet{ids: make(map[rlnc.SegmentID]bool)} }

func (s *segSet) observe(id rlnc.SegmentID, _ [][]byte) {
	s.mu.Lock()
	s.ids[id] = true
	s.mu.Unlock()
}

func (s *segSet) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.ids)
}

func (s *segSet) has(id rlnc.SegmentID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ids[id]
}

func (s *segSet) snapshot() map[rlnc.SegmentID]bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[rlnc.SegmentID]bool, len(s.ids))
	for id := range s.ids {
		out[id] = true
	}
	return out
}

func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("timed out after %v waiting for %s", d, what)
}

// runTCPGolden collects the delivered-segment set of a statically-wired
// full-mesh TCP cluster — the reference the datagram runs must match.
func runTCPGolden(t *testing.T, peers, perPeer int) map[rlnc.SegmentID]bool {
	t.Helper()
	got := newSegSet()
	cluster := socketCluster(t, "tcp", peers, boundedNodeConfig(perPeer), 200, 0, got.observe)
	defer cluster.Stop()
	waitFor(t, 60*time.Second, "TCP full delivery", func() bool {
		return got.len() >= peers*perPeer
	})
	return got.snapshot()
}

// runUDPSwim collects the delivered-segment set of a UDP cluster that
// discovers its whole topology through SWIM: only the three seed members
// are configured, everything else arrives by rumor. lossProb seeds a
// Faulty wrapper on every endpoint; kill crashes the highest-ID peer (no
// leave rumor) once its own segments are home, so the rest of the run
// rides on the surviving membership view.
func runUDPSwim(t *testing.T, peers, perPeer int, lossProb float64, kill bool) map[rlnc.SegmentID]bool {
	t.Helper()
	got := newSegSet()
	cluster := socketCluster(t, "udp", peers, boundedNodeConfig(perPeer), 200, lossProb, got.observe)
	defer cluster.Stop()
	srv, nodes := cluster.Servers[0], cluster.Nodes
	if kill {
		victim := nodes[peers-1]
		waitFor(t, 60*time.Second, "victim's segments delivered", func() bool {
			for seq := 0; seq < perPeer; seq++ {
				if !got.has(rlnc.SegmentID{Origin: uint64(peers), Seq: uint64(seq)}) {
					return false
				}
			}
			return true
		})
		victim.Crash()
	}
	deadline := time.Now().Add(90 * time.Second)
	for got.len() < peers*perPeer {
		if time.Now().After(deadline) {
			for id := range expectedSegments(peers, perPeer) {
				if !got.has(id) {
					t.Logf("missing segment %v", id)
				}
			}
			t.Logf("server alive view: %d members", len(srv.AliveMembers()))
			for i, n := range nodes {
				if kill && i == peers-1 {
					continue
				}
				st := n.Stats()
				t.Logf("node %d: alive view %d, buffered %d blocks / %d segments",
					i+1, len(n.AliveMembers()), st.BufferedBlocks, st.BufferedSegments)
			}
			t.Fatalf("timed out waiting for UDP full delivery: %d/%d segments", got.len(), peers*perPeer)
		}
		time.Sleep(20 * time.Millisecond)
	}
	return got.snapshot()
}

func diffSegSets(t *testing.T, label string, got, want map[rlnc.SegmentID]bool) {
	t.Helper()
	for id := range want {
		if !got[id] {
			t.Errorf("%s: missing segment %v", label, id)
		}
	}
	for id := range got {
		if !want[id] {
			t.Errorf("%s: unexpected segment %v", label, id)
		}
	}
}

// TestUDPSWIMDifferentialZeroLoss runs the same bounded collection twice —
// once over statically-wired TCP streams (the golden reference), once over
// UDP datagrams with SWIM-discovered membership — and requires both to
// deliver exactly the same segment set. The datagram run has no static
// topology at all: if discovery, route learning, or the datagram codec
// lose anything the streams carry, the sets diverge.
func TestUDPSWIMDifferentialZeroLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket differential test")
	}
	const peers, perPeer = 5, 2
	want := expectedSegments(peers, perPeer)
	tcpSet := runTCPGolden(t, peers, perPeer)
	udpSet := runUDPSwim(t, peers, perPeer, 0, false)
	diffSegSets(t, "tcp vs expected", tcpSet, want)
	diffSegSets(t, "udp vs expected", udpSet, want)
	diffSegSets(t, "udp vs tcp", udpSet, tcpSet)
}

// TestUDPSWIMLossAndCrashFullDelivery reruns the datagram collection with
// 20% seeded send-side loss on every endpoint and the highest-ID peer
// crashed (no leave) mid-run, and still requires the full delivered set:
// coded blocks are fungible, so dropped datagrams and a dead gossip
// partner only delay convergence, never prevent it.
func TestUDPSWIMLossAndCrashFullDelivery(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket chaos test")
	}
	const peers, perPeer = 5, 2
	udpSet := runUDPSwim(t, peers, perPeer, 0.2, true)
	diffSegSets(t, "udp under loss vs expected", udpSet, expectedSegments(peers, perPeer))
}
