package peercore

import "p2pcollect/internal/obs"

// Event enumerates the shared protocol counter vocabulary. The peer and
// collection state machines emit the events they can observe locally
// (stores, redundant blocks, TTL losses, pull accounting); drivers emit the
// events that depend on their clock or transport (gossip sends, pull
// requests, departures). Both the DES simulator and the live runtime count
// into the same vocabulary, which is what lets the differential test compare
// them field by field.
type Event int

const (
	// EvInjectedSegment counts segments a peer injected into its buffer.
	EvInjectedSegment Event = iota
	// EvInjectedBlock counts source blocks injected (s per segment).
	EvInjectedBlock
	// EvSuppressedInjection counts injections skipped because the buffer
	// was above B−s (the paper's Y_(f) exclusion).
	EvSuppressedInjection
	// EvBlockStored counts coded blocks stored as innovative.
	EvBlockStored
	// EvRedundantBlock counts offered blocks rejected as linearly redundant.
	EvRedundantBlock
	// EvBlockReceived counts blocks arriving over a transport (live only).
	EvBlockReceived
	// EvBlockLostTTL counts blocks removed by TTL expiry.
	EvBlockLostTTL
	// EvBlockLostExit counts blocks lost when their holder departed.
	EvBlockLostExit
	// EvBlockPurged counts blocks evicted by server feedback.
	EvBlockPurged
	// EvGossipSend counts gossip transmissions.
	EvGossipSend
	// EvRedundantGossip counts gossiped blocks the target rejected as
	// redundant (observable only when the driver sees the target's store).
	EvRedundantGossip
	// EvNoTargetGossip counts gossip attempts with no eligible target.
	EvNoTargetGossip
	// EvPullServed counts pull requests a peer answered with a block.
	EvPullServed
	// EvPullSent counts pull requests a server issued (live only).
	EvPullSent
	// EvEmptyReply counts pulls answered with an empty notice (live only).
	EvEmptyReply
	// EvServerPull counts blocks entering a server collection domain.
	EvServerPull
	// EvInnovativePull counts pulls that increased a server decoder's rank.
	EvInnovativePull
	// EvDecodedSegment counts server decoders reaching full rank s.
	EvDecodedSegment
	// EvDeparture counts peer departures (driver-emitted).
	EvDeparture

	numEvents
)

var eventNames = [numEvents]string{
	EvInjectedSegment:     "injectedSegments",
	EvInjectedBlock:       "injectedBlocks",
	EvSuppressedInjection: "suppressedInjections",
	EvBlockStored:         "blocksStored",
	EvRedundantBlock:      "redundantBlocks",
	EvBlockReceived:       "blocksReceived",
	EvBlockLostTTL:        "blocksLostToTTL",
	EvBlockLostExit:       "blocksLostToExit",
	EvBlockPurged:         "blocksPurgedByFeedback",
	EvGossipSend:          "gossipSends",
	EvRedundantGossip:     "redundantGossip",
	EvNoTargetGossip:      "noTargetGossip",
	EvPullServed:          "pullsServed",
	EvPullSent:            "pullsSent",
	EvEmptyReply:          "emptyReplies",
	EvServerPull:          "serverPulls",
	EvInnovativePull:      "innovativePulls",
	EvDecodedSegment:      "decodedSegments",
	EvDeparture:           "departures",
}

// String returns the counter name used in snapshots.
func (e Event) String() string {
	if e < 0 || e >= numEvents {
		return "unknownEvent"
	}
	return eventNames[e]
}

// EventSink receives protocol counter increments. Implementations must
// tolerate concurrent calls when shared across goroutines.
type EventSink interface {
	Count(ev Event, n int64)
}

// NopSink discards every event.
type NopSink struct{}

// Count implements EventSink.
func (NopSink) Count(Event, int64) {}

// Counters is the standard EventSink: one atomic counter per event, backed
// by an obs.CounterSet so snapshots come with stable names.
type Counters struct {
	set *obs.CounterSet
}

// NewCounters returns a zeroed counter sink.
func NewCounters() *Counters {
	names := make([]string, numEvents)
	for i := range names {
		names[i] = Event(i).String()
	}
	return &Counters{set: obs.NewCounterSet(names)}
}

// Count implements EventSink.
func (c *Counters) Count(ev Event, n int64) { c.set.Add(int(ev), n) }

// Get returns the current value of one event counter.
func (c *Counters) Get(ev Event) int64 { return c.set.Get(int(ev)) }

// Snapshot returns a name→value copy of every counter.
func (c *Counters) Snapshot() map[string]int64 { return c.set.Snapshot() }

// Range visits every counter in event order without allocating; the shape
// matches what the observability registry scrapes.
func (c *Counters) Range(f func(name string, v int64)) { c.set.Range(f) }
