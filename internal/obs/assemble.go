package obs

import (
	"fmt"
	"sort"
	"strings"
)

// ProcessDump is one process's contribution to a cluster-wide trace: the
// events its tracer retained, labeled so stitched spans can attribute each
// milestone to the process it happened in. Dumps come from RingTracer.Tail,
// a /debug/snapshot traceTail, or a flight-recorder file — the assembler
// does not care which.
type ProcessDump struct {
	// Label names the process, e.g. "node-3" or "server-0".
	Label string `json:"label"`
	// Events are the process's retained trace events, any order.
	Events []TraceEvent `json:"events"`
}

// SpanEvent is one milestone inside a stitched span, tagged with the
// process that recorded it.
type SpanEvent struct {
	TraceEvent
	// Process is the label of the dump the event came from.
	Process string `json:"process"`
}

// SpanHop attributes the latency between two consecutive milestones of a
// span: where the segment's time went, process to process.
type SpanHop struct {
	// From and To are the process labels of the two milestones.
	From string `json:"from"`
	To   string `json:"to"`
	// Kind is the milestone reached at To.
	Kind TraceKind `json:"kind"`
	// Dur is the elapsed driver-clock time between the milestones.
	Dur float64 `json:"dur"`
}

// Span is one segment's stitched end-to-end story across every process
// that touched it: inject → gossip hops → server rank/pull → exchange →
// delivered → decoded, time-ordered, with per-hop latency attribution.
type Span struct {
	// TraceID is the sampled lineage that ties the events together.
	TraceID uint64 `json:"traceID"`
	// Seg is the traced segment.
	Seg struct {
		Origin uint64 `json:"origin"`
		Seq    uint64 `json:"seq"`
	} `json:"seg"`
	// Events are every milestone observed for the lineage, time-ordered.
	Events []SpanEvent `json:"events"`
	// Hops attribute the latency between consecutive milestones.
	Hops []SpanHop `json:"hops"`
}

// Complete reports whether the span tells the whole story: it starts at
// an inject and reaches delivery (or decode, which implies delivery).
func (s Span) Complete() bool {
	var inject, done bool
	for i := range s.Events {
		switch s.Events[i].Kind {
		case TraceInject:
			inject = true
		case TraceDelivered, TraceDecoded:
			done = true
		}
	}
	return inject && done
}

// Processes returns the distinct process labels the span crossed, in
// first-touch order.
func (s Span) Processes() []string {
	var out []string
	seen := make(map[string]bool)
	for i := range s.Events {
		if p := s.Events[i].Process; !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	return out
}

// Duration is the elapsed driver-clock time from the span's first to last
// milestone.
func (s Span) Duration() float64 {
	if len(s.Events) == 0 {
		return 0
	}
	return s.Events[len(s.Events)-1].T - s.Events[0].T
}

// String renders the span as a human-readable timeline.
func (s Span) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "trace %016x seg %d/%d (%d events, %d processes, %.3fs)\n",
		s.TraceID, s.Seg.Origin, s.Seg.Seq, len(s.Events), len(s.Processes()), s.Duration())
	if len(s.Events) == 0 {
		return b.String()
	}
	t0 := s.Events[0].T
	for i := range s.Events {
		ev := &s.Events[i]
		fmt.Fprintf(&b, "  +%8.3fs  %-11s %-10s hop=%d", ev.T-t0, ev.Kind, ev.Process, ev.Hop)
		if ev.N != 0 {
			fmt.Fprintf(&b, " n=%d", ev.N)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Assembler stitches per-process event dumps into end-to-end spans, one
// per sampled lineage. Feed it one dump per process (Add) and call
// Assemble; only events with a nonzero TraceID participate — unsampled
// traffic never shows up, by design.
type Assembler struct {
	dumps []ProcessDump
}

// NewAssembler returns an empty assembler.
func NewAssembler() *Assembler { return &Assembler{} }

// Add contributes one process's dump.
func (a *Assembler) Add(d ProcessDump) { a.dumps = append(a.dumps, d) }

// Assemble groups every sampled event across all dumps by trace ID and
// returns one time-ordered span per lineage, earliest span first. Within
// a span, ties on the clock break on hop count then kind, so the causal
// order survives processes whose clocks coincide.
func (a *Assembler) Assemble() []Span {
	byID := make(map[uint64][]SpanEvent)
	for _, d := range a.dumps {
		for _, ev := range d.Events {
			if ev.TraceID == 0 {
				continue
			}
			byID[ev.TraceID] = append(byID[ev.TraceID], SpanEvent{TraceEvent: ev, Process: d.Label})
		}
	}
	spans := make([]Span, 0, len(byID))
	for id, events := range byID {
		sort.SliceStable(events, func(i, j int) bool {
			if events[i].T != events[j].T {
				return events[i].T < events[j].T
			}
			if events[i].Hop != events[j].Hop {
				return events[i].Hop < events[j].Hop
			}
			return events[i].Kind < events[j].Kind
		})
		sp := Span{TraceID: id, Events: events}
		sp.Seg.Origin = events[0].Seg.Origin
		sp.Seg.Seq = events[0].Seg.Seq
		for i := 1; i < len(events); i++ {
			sp.Hops = append(sp.Hops, SpanHop{
				From: events[i-1].Process,
				To:   events[i].Process,
				Kind: events[i].Kind,
				Dur:  events[i].T - events[i-1].T,
			})
		}
		spans = append(spans, sp)
	}
	sort.Slice(spans, func(i, j int) bool {
		ti, tj := spans[i].Events[0].T, spans[j].Events[0].T
		if ti != tj {
			return ti < tj
		}
		return spans[i].TraceID < spans[j].TraceID
	})
	return spans
}
