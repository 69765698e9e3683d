package obs

import (
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"sync"

	"p2pcollect/internal/rlnc"
)

// TraceKind labels one milestone in a segment's life.
type TraceKind uint8

const (
	// TraceInject: the segment entered the system at its origin node.
	TraceInject TraceKind = iota
	// TraceGossipHop: a node stored a coded block it had not seen before.
	TraceGossipHop
	// TraceServerRank: a server pull raised the segment's decoder rank; N
	// carries the new rank.
	TraceServerRank
	// TraceDelivered (simulator only): a server pull brought the segment's
	// collection-state counter to s, the paper's delivery. State counts
	// pulls, not innovative blocks, so this can come before full rank. Live
	// servers deliver at decode and never emit it; the kind keeps its number
	// because flight dumps store it.
	TraceDelivered
	// TraceDecoded: the segment reached full rank and the server decoded it.
	TraceDecoded
	// TracePurged: a node dropped its holding for the segment.
	TracePurged
	// TraceExchanged: a fleet shard absorbed a recoded block forwarded by
	// another shard; N carries the collection rank after the absorb.
	TraceExchanged
	// TraceServerStart: a server started; Seg is zero.
	TraceServerStart
	// TraceServerStop: a server shut down cleanly; Seg is zero.
	TraceServerStop
	// TraceServerCrash: a server hard-stopped (CrashStop or panic); Seg is
	// zero. In a flight-recorder dump this is normally the last event.
	TraceServerCrash

	numTraceKinds
)

var traceKindNames = [numTraceKinds]string{
	"inject", "gossipHop", "serverRank", "delivered", "decoded", "purged",
	"exchanged", "serverStart", "serverStop", "serverCrash",
}

// String names the kind for logs and JSON.
func (k TraceKind) String() string {
	if int(k) < len(traceKindNames) {
		return traceKindNames[k]
	}
	return fmt.Sprintf("traceKind(%d)", uint8(k))
}

// MarshalJSON encodes the kind as its name.
func (k TraceKind) MarshalJSON() ([]byte, error) {
	return []byte(`"` + k.String() + `"`), nil
}

// UnmarshalJSON decodes a kind name produced by MarshalJSON.
func (k *TraceKind) UnmarshalJSON(data []byte) error {
	var name string
	if err := json.Unmarshal(data, &name); err != nil {
		return err
	}
	for i, n := range traceKindNames {
		if n == name {
			*k = TraceKind(i)
			return nil
		}
	}
	return fmt.Errorf("obs: unknown trace kind %q", name)
}

// TraceContext is the sampled causal lineage a coded block carries across
// the wire: a cluster-unique trace ID minted when the segment is injected,
// and the hop count at the sender. The zero value means "not sampled" — an
// ID of zero is never minted, so Valid is a single compare and absent
// contexts cost nothing on the wire.
type TraceContext struct {
	// ID is the cluster-unique lineage identifier, nonzero when sampled.
	ID uint64 `json:"id"`
	// Hop counts forwarding steps since injection, saturating at 255.
	Hop uint8 `json:"hop"`
}

// Valid reports whether the context carries a sampled lineage.
func (c TraceContext) Valid() bool { return c.ID != 0 }

// Next returns the context one forwarding step later (hop saturates).
func (c TraceContext) Next() TraceContext {
	if c.Hop < 255 {
		c.Hop++
	}
	return c
}

// TraceEvent is one recorded milestone.
type TraceEvent struct {
	// Seg identifies the segment the milestone belongs to.
	Seg rlnc.SegmentID `json:"seg"`
	// Kind is the milestone type.
	Kind TraceKind `json:"kind"`
	// T is the driver's clock at the milestone (simulated time or wall
	// seconds — same convention as everything else in this package).
	T float64 `json:"t"`
	// Actor is the node or server the milestone happened at.
	Actor uint64 `json:"actor"`
	// N is kind-specific: the rank after a TraceServerRank, the holding's
	// block count at a TraceGossipHop/TracePurged, else 0.
	N int `json:"n,omitempty"`
	// TraceID is the sampled cluster-unique lineage the triggering block
	// carried, zero when the segment was not sampled for tracing.
	TraceID uint64 `json:"traceID,omitempty"`
	// Hop is the block's forwarding depth when the milestone fired, only
	// meaningful when TraceID is nonzero.
	Hop uint8 `json:"hop,omitempty"`
}

// Tracer receives segment milestones. The nop implementation is the
// default everywhere, so tracing is strictly opt-in and the hot path pays
// one interface call when disabled. Implementations must be safe for
// concurrent use: live nodes trace from multiple goroutines.
type Tracer interface {
	Trace(ev TraceEvent)
}

// NopTracer discards every event; it is the zero-cost default.
type NopTracer struct{}

// Trace implements Tracer by doing nothing.
func (NopTracer) Trace(TraceEvent) {}

// multiTracer fans one event out to several tracers.
type multiTracer []Tracer

// Trace implements Tracer.
func (m multiTracer) Trace(ev TraceEvent) {
	for _, t := range m {
		t.Trace(ev)
	}
}

// Tee combines tracers into one that forwards every event to all of them.
// Nil and nop entries are dropped; zero live entries yield a NopTracer and
// a single live entry is returned unwrapped, so the common cases pay no
// fan-out overhead.
func Tee(tracers ...Tracer) Tracer {
	live := make(multiTracer, 0, len(tracers))
	for _, t := range tracers {
		if t == nil {
			continue
		}
		if _, nop := t.(NopTracer); nop {
			continue
		}
		live = append(live, t)
	}
	switch len(live) {
	case 0:
		return NopTracer{}
	case 1:
		return live[0]
	}
	return live
}

// RingTracer keeps the last max events in a ring that grows by append
// until it holds max events and then overwrites the oldest, so it costs
// memory for the events it has seen, not for its bound, and queries see a
// sliding window. Trace is O(1), takes one short mutex hold and is
// allocation-free once the ring has grown, cheap enough to leave on: every
// live server keeps one as its crash flight recorder, dumped by WriteTo and
// DumpFile (see flight.go).
type RingTracer struct {
	mu   sync.Mutex
	buf  []TraceEvent
	head int // oldest event, once len(buf) == max
	max  int
}

// NewRingTracer returns a tracer retaining the last cap events
// (minimum 1).
func NewRingTracer(cap int) *RingTracer {
	return &RingTracer{max: max(cap, 1)}
}

// Trace implements Tracer.
func (rt *RingTracer) Trace(ev TraceEvent) {
	rt.mu.Lock()
	if len(rt.buf) < rt.max {
		rt.buf = append(rt.buf, ev)
	} else {
		rt.buf[rt.head] = ev
		if rt.head++; rt.head == rt.max {
			rt.head = 0
		}
	}
	rt.mu.Unlock()
}

// Len returns the number of retained events.
func (rt *RingTracer) Len() int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return len(rt.buf)
}

// Tail returns up to n most recent events, oldest-first.
func (rt *RingTracer) Tail(n int) []TraceEvent {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	n = min(n, len(rt.buf))
	if n <= 0 {
		return nil
	}
	out := make([]TraceEvent, n)
	first := len(rt.buf) - n // skip the oldest len(buf)-n events
	for i := range out {
		out[i] = rt.buf[(rt.head+first+i)%len(rt.buf)]
	}
	return out
}

// ActorTail returns up to n most recent events whose Actor is actor,
// oldest-first, walking back from the newest and copying only those.
func (rt *RingTracer) ActorTail(actor uint64, n int) (out []TraceEvent) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for i := len(rt.buf) - 1; i >= 0 && len(out) < n; i-- {
		if ev := rt.buf[(rt.head+i)%len(rt.buf)]; ev.Actor == actor {
			out = append(out, ev)
		}
	}
	slices.Reverse(out)
	return out
}

// Query collects every retained event for one segment, in time order,
// reconstructing where that segment's time went. It scans the whole
// window: queries are for tests and debugging, and an index would tax
// every Trace.
func (rt *RingTracer) Query(seg rlnc.SegmentID) SegmentTrace {
	var events []TraceEvent
	rt.mu.Lock()
	for _, part := range [2][]TraceEvent{rt.buf[rt.head:], rt.buf[:rt.head]} {
		for _, ev := range part {
			if ev.Seg == seg {
				events = append(events, ev)
			}
		}
	}
	rt.mu.Unlock()
	// The ring is insertion-ordered; live clusters may interleave clocks
	// slightly across goroutines, so sort by time for a stable story.
	sort.SliceStable(events, func(i, j int) bool { return events[i].T < events[j].T })
	return SegmentTrace{Seg: seg, Events: events}
}

// SegmentTrace is one segment's milestone history.
type SegmentTrace struct {
	Seg    rlnc.SegmentID `json:"seg"`
	Events []TraceEvent   `json:"events"`
}

// Phase is one span of a segment's life between two milestones.
type Phase struct {
	// Name describes the span, e.g. "inject→firstHop" or "delivered→decoded".
	Name string `json:"name"`
	// Dur is the span's length on the driver's clock.
	Dur float64 `json:"dur"`
}

// Phases breaks the trace into the spans that answer "where did the time
// go": injection to first gossip hop, first hop to delivery, delivery to
// decode. A trace with a decode but no earlier delivery (a live server
// delivers at decode) takes the decode as its delivery. Spans whose
// endpoints were not captured (event evicted from the ring, or not reached
// yet) are omitted.
func (st SegmentTrace) Phases() []Phase {
	var inject, firstHop, delivered, decoded *TraceEvent
	for i := range st.Events {
		ev := &st.Events[i]
		switch ev.Kind {
		case TraceInject:
			if inject == nil {
				inject = ev
			}
		case TraceGossipHop:
			if firstHop == nil {
				firstHop = ev
			}
		case TraceDelivered:
			if delivered == nil {
				delivered = ev
			}
		case TraceDecoded:
			if decoded == nil {
				decoded = ev
			}
		}
	}
	if delivered == nil {
		delivered, decoded = decoded, nil
	}
	var phases []Phase
	add := func(name string, from, to *TraceEvent) {
		// A span is only meaningful when both milestones were captured and in
		// order — a segment pulled straight off its origin can be delivered
		// before its first replication hop.
		if from != nil && to != nil && to.T >= from.T {
			phases = append(phases, Phase{Name: name, Dur: to.T - from.T})
		}
	}
	add("inject→firstHop", inject, firstHop)
	add("firstHop→delivered", firstHop, delivered)
	add("inject→delivered", inject, delivered)
	add("delivered→decoded", delivered, decoded)
	return phases
}
