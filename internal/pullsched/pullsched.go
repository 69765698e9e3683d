// Package pullsched is the server-side pull-scheduling subsystem: it
// decides, for every pull a logging server issues, which peer to probe and
// (optionally) which segment to ask for, and it consumes feedback from pull
// outcomes so later decisions improve.
//
// The paper's servers pull blindly — a uniformly random non-empty peer, a
// uniformly random buffered segment — so useful-pull efficiency decays like
// a coupon collector as collections approach full rank: near the end most
// pulls land on segments the servers have already completed. Scheduling
// which segment a collector requests is known to cut that overhead
// dramatically (Li–Soljanin–Spasojević, "Collecting Coded Coupons over
// Generations", arXiv:1002.1406). This package provides the paper baseline
// and one feedback-driven alternative behind one Policy interface:
//
//   - Blind: the paper's §2 behavior, byte-for-byte. It consults only
//     Env.SamplePeer (the driver's own RNG draw) and never hints, so a
//     seeded run with Blind is indistinguishable from one without the
//     scheduler.
//   - RarestFirst: maintains compact per-peer inventory digests (a full
//     one piggybacked on a pull reply on request, kept current by deltas
//     in between) and pulls the undelivered segment with the fewest known
//     holders, from a peer known to hold it.
//
// The subsystem is clock- and transport-agnostic: time is an opaque float64
// supplied by the driver (simulated time or wall seconds), peers are opaque
// PeerRef handles (slot indices in the DES simulator, transport node IDs in
// the live runtime), and all I/O is mediated by the driver through
// Decision, Feedback, and ObserveInventory. Policies are not safe for
// concurrent use; drivers serialize calls (the simulator is
// single-threaded, the live server holds its mutex).
package pullsched

import (
	"fmt"

	"p2pcollect/internal/rlnc"
)

// PeerRef is an opaque peer handle. The DES simulator uses peer slot
// indices; the live runtime uses transport node IDs. A policy only ever
// compares PeerRefs and echoes them back in decisions.
type PeerRef uint64

// Decision is one scheduled pull: the target peer, an optional segment
// hint (the peer falls back to a uniformly random buffered segment when it
// no longer holds the hinted one), and whether the peer should piggyback
// its full inventory digest on its reply. A policy sets WantInventory only
// when it needs the whole listing, to start a digest or to refresh one: once
// it has been given one, the driver asks the peer on every later pull for
// what is new since and delivers that unasked (see ObserveDigest).
type Decision struct {
	Peer          PeerRef
	Hint          rlnc.SegmentID
	HasHint       bool
	WantInventory bool
}

// Feedback reports the outcome of one pull in the driver's own collection
// accounting (the simulator's state-based delivery, the live server's
// rank-based decode): Useful means the block advanced the collection, and
// Done means the segment is complete and needs no further pulls.
type Feedback struct {
	Peer   PeerRef
	Time   float64
	Empty  bool // the peer had nothing buffered; Seg and the rest are unset
	Seg    rlnc.SegmentID
	Useful bool
	Done   bool
}

// InventoryEntry is one line of a peer's inventory digest: a buffered
// segment and how many coded blocks of it the peer holds.
type InventoryEntry struct {
	Seg    rlnc.SegmentID
	Blocks int
}

// Env is the driver-side view a policy consults while choosing a pull.
// SamplePeer draws a uniformly random pull-eligible peer using the driver's
// RNG — the blind baseline choice. Policies that target peers themselves
// (RarestFirst with a populated inventory) may not call it at all.
type Env interface {
	SamplePeer() (PeerRef, bool)
}

// Policy schedules a server's pulls. Implementations are single-threaded;
// the driver serializes Choose, Feedback, and ObserveInventory.
type Policy interface {
	// Name returns the policy's registry name.
	Name() string
	// Choose picks the next pull target. ok=false means no pull can be
	// issued right now (no eligible peer).
	Choose(now float64, env Env) (Decision, bool)
	// Feedback reports what one pull produced.
	Feedback(f Feedback)
	// ObserveInventory adds lines to what the policy knows the peer holds
	// and leaves the age of that knowledge alone; with no lines it instead
	// records that the peer holds nothing as of now. Drivers deliver
	// digests through ObserveDigest, which turns a full one into the two
	// calls. inv is not retained after the call: drivers reuse its backing
	// array, so a policy that keeps lines copies them.
	ObserveInventory(now float64, peer PeerRef, inv []InventoryEntry)
}

// ObserveDigest delivers one peer digest to a policy. A delta is lines to
// add. A full digest replaces what the policy knew: clear, which also marks
// the digest fresh as of now, then add.
func ObserveDigest(pol Policy, now float64, peer PeerRef, inv []InventoryEntry, delta bool) {
	if !delta {
		pol.ObserveInventory(now, peer, nil)
	}
	if len(inv) > 0 {
		pol.ObserveInventory(now, peer, inv)
	}
}

// Policy registry names accepted by New.
const (
	NameBlind       = "blind"
	NameRarestFirst = "rarest"
)

// Names lists the registered policy names, Blind first.
func Names() []string { return []string{NameBlind, NameRarestFirst} }

// New builds a policy by registry name. The empty name selects Blind (the
// paper-faithful default). The seed drives only policy-internal tie-breaks
// (RarestFirst's holder choice); it is independent of the driver's RNG so
// Blind never perturbs a seeded run.
func New(name string, seed int64) (Policy, error) {
	switch name {
	case "", NameBlind:
		return Blind{}, nil
	case NameRarestFirst:
		return NewRarestFirst(RarestConfig{Seed: seed}), nil
	default:
		return nil, fmt.Errorf("pullsched: unknown policy %q (have %v)", name, Names())
	}
}

// Known reports whether name resolves to a registered policy.
func Known(name string) bool {
	_, err := New(name, 0)
	return err == nil
}
