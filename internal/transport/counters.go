package transport

import "p2pcollect/internal/obs"

// Transport health counters. Every instrumented transport counts into the
// same fixed vocabulary (an obs.CounterSet), so the live runtime can
// report transport health in its registry and Stats().Protocol next to the
// peercore protocol counters. Names are prefixed "transport"
// to keep the two vocabularies disjoint.
const (
	// ctrSendsEnqueued counts messages accepted by Send (handed to the
	// transport, not necessarily delivered).
	ctrSendsEnqueued = iota
	// ctrFramesDelivered counts frames actually written to the network (or,
	// for the in-memory fabric, placed in the destination mailbox).
	ctrFramesDelivered
	// ctrDialFailures counts failed outbound connection attempts.
	ctrDialFailures
	// ctrWriteTimeouts counts writes cut off by the write deadline.
	ctrWriteTimeouts
	// ctrWriteErrors counts non-timeout write failures (peer reset, encode
	// rejection, ...).
	ctrWriteErrors
	// ctrDropsOverflow counts messages evicted from a full outbox
	// (drop-oldest backpressure).
	ctrDropsOverflow
	// ctrDropsDown counts messages dropped because the destination is
	// unreachable and the sender is backing off before re-dialing.
	ctrDropsDown
	// ctrReconnects counts successful re-dials after a connection was lost
	// (the first connection to a destination is not a reconnect).
	ctrReconnects
	// ctrInboxDrops counts inbound messages dropped because the local inbox
	// was full.
	ctrInboxDrops
	// ctrDropsOversize counts messages dropped because their encoded frame
	// exceeded the datagram size limit (MTU guard on connectionless
	// transports).
	ctrDropsOversize
	// ctrFaultLossDrops counts messages dropped by injected random loss.
	ctrFaultLossDrops
	// ctrFaultPartitionDrops counts messages dropped by an injected
	// partition window.
	ctrFaultPartitionDrops
	// ctrFaultDelayed counts messages delayed by injected latency.
	ctrFaultDelayed

	numTransportCounters
)

var transportCounterNames = [numTransportCounters]string{
	ctrSendsEnqueued:       "transportSendsEnqueued",
	ctrFramesDelivered:     "transportFramesDelivered",
	ctrDialFailures:        "transportDialFailures",
	ctrWriteTimeouts:       "transportWriteTimeouts",
	ctrWriteErrors:         "transportWriteErrors",
	ctrDropsOverflow:       "transportDropsOverflow",
	ctrDropsDown:           "transportDropsDown",
	ctrReconnects:          "transportReconnects",
	ctrInboxDrops:          "transportInboxDrops",
	ctrDropsOversize:       "transportDropsOversize",
	ctrFaultLossDrops:      "transportFaultLossDrops",
	ctrFaultPartitionDrops: "transportFaultPartitionDrops",
	ctrFaultDelayed:        "transportFaultDelayed",
}

// transportCounterIndex maps counter names back to their slot, for merging
// wrapper and inner counter sets without intermediate maps.
var transportCounterIndex = func() map[string]int {
	m := make(map[string]int, numTransportCounters)
	for i, n := range transportCounterNames {
		m[n] = i
	}
	return m
}()

// newTransportCounters returns a zeroed health counter set.
func newTransportCounters() *obs.CounterSet {
	return obs.NewCounterSet(transportCounterNames[:])
}

// CounterRanger is implemented by transports that track health counters:
// RangeCounters visits every one, under the shared "transport*"-prefixed
// vocabulary, without building a map — the shape an observability registry
// takes as a counter source. Wrapping transports (Faulty) fold their inner
// transport's counters into the same visit.
type CounterRanger interface {
	RangeCounters(f func(name string, v int64))
}

// DepthReporter is implemented by transports with internal send queues.
// OutboxDepth returns the messages currently enqueued and not yet written
// to the network — the live counterpart of the simulator's instantaneous
// state, and the first thing to look at when a destination is slow.
type DepthReporter interface {
	OutboxDepth() int
}
