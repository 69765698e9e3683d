package live

import (
	"testing"
	"time"

	"p2pcollect/internal/membership"
	"p2pcollect/internal/rlnc"
	"p2pcollect/internal/transport"
)

// TestMembershipChurnFullDelivery runs a membership-mode cluster (no
// static topology at all) through 20% churn: of ten peers, one leaves
// gracefully and one crashes mid-collection, and both later rejoin under
// their old identities. The collector must still reach full delivery of
// every injected segment, the observer's view must walk the crashed
// victim through suspect before dead, and the suspect→dead gap must match
// the configured SuspectTimeout.
func TestMembershipChurnFullDelivery(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock churn test")
	}
	const (
		peers          = 10
		perPeer        = 2
		leaverID       = transport.NodeID(9)  // graceful leave
		crasherID      = transport.NodeID(10) // no goodbye
		period         = 0.25
		suspectTimeout = 0.75
	)
	got := newSegSet()
	cluster, err := StartCluster(ClusterConfig{
		Peers:      peers,
		Servers:    1,
		Node:       boundedNodeConfig(perPeer),
		Server:     ServerConfig{PullRate: 240},
		Membership: &membership.Config{Period: period, SuspectTimeout: suspectTimeout},
		Seed:       42,
		OnSegment:  got.observe,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()

	// Let both victims' segments land first, so "full delivery" stays an
	// exact 20-segment set whatever happens to their buffers afterwards.
	waitFor(t, 60*time.Second, "victims' segments delivered", func() bool {
		for _, origin := range []uint64{uint64(leaverID), uint64(crasherID)} {
			for seq := 0; seq < perPeer; seq++ {
				if !got.has(rlnc.SegmentID{Origin: origin, Seq: uint64(seq)}) {
					return false
				}
			}
		}
		return true
	})

	observer := cluster.Nodes[0]
	cluster.Nodes[leaverID-1].Stop()
	cluster.Nodes[crasherID-1].Crash()
	crashAt := time.Now()

	// The graceful leaver said goodbye: the observer must learn the left
	// verdict by rumor, with no suspicion detour.
	waitFor(t, 15*time.Second, "observer sees the leaver as left", func() bool {
		st, ok := observer.MemberStatus(leaverID)
		return ok && st == membership.StatusLeft
	})

	// The crasher said nothing: the observer must walk it alive → suspect
	// → dead on the detector's clock.
	var suspectAt, deadAt time.Time
	deadline := time.Now().Add(20 * time.Second)
	for deadAt.IsZero() {
		if time.Now().After(deadline) {
			st, ok := observer.MemberStatus(crasherID)
			t.Fatalf("observer never saw the crasher dead (status %v, known %v)", st, ok)
		}
		if st, ok := observer.MemberStatus(crasherID); ok {
			switch st {
			case membership.StatusSuspect:
				if suspectAt.IsZero() {
					suspectAt = time.Now()
				}
			case membership.StatusDead:
				deadAt = time.Now()
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	if suspectAt.IsZero() {
		t.Fatal("crasher went dead without an observed suspect phase")
	}
	// Dead is declared SuspectTimeout after suspicion began somewhere, so
	// the crash→dead span has a hard config-derived floor; the observed
	// suspect→dead gap tracks SuspectTimeout up to rumor-propagation skew
	// and scheduling slack.
	if e := deadAt.Sub(crashAt).Seconds(); e < suspectTimeout {
		t.Errorf("crash→dead took %.2fs, below the %.2fs SuspectTimeout floor", e, suspectTimeout)
	}
	if gap := deadAt.Sub(suspectAt).Seconds(); gap < suspectTimeout-0.5 || gap > suspectTimeout+8 {
		t.Errorf("suspect→dead gap %.2fs, want about %.2fs", gap, suspectTimeout)
	}

	// Both victims rejoin under their old identities and configs (fresh
	// seeds): the in-memory fabric hands out fresh mailboxes, and the
	// detector must revive them by direct contact against the left/dead
	// tombstones.
	var rejoined []*Node
	for _, id := range []transport.NodeID{leaverID, crasherID} {
		cfg := cluster.Nodes[id-1].Config()
		cfg.Seed = 10000 + int64(id)
		n, err := NewNode(cluster.Network.Join(id), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := n.Start(); err != nil {
			t.Fatal(err)
		}
		rejoined = append(rejoined, n)
	}
	defer func() {
		for _, n := range rejoined {
			n.Stop()
		}
	}()
	waitFor(t, 30*time.Second, "observer sees both victims alive again", func() bool {
		for _, id := range []transport.NodeID{leaverID, crasherID} {
			if st, ok := observer.MemberStatus(id); !ok || st != membership.StatusAlive {
				return false
			}
		}
		return true
	})
	waitFor(t, 30*time.Second, "rejoined node rebuilds a full view", func() bool {
		return len(rejoined[0].AliveMembers()) >= peers-2
	})

	waitFor(t, 60*time.Second, "full delivery through churn", func() bool {
		return got.len() >= peers*perPeer
	})
	diffSegSets(t, "churn vs expected", got.snapshot(), expectedSegments(peers, perPeer))
}
