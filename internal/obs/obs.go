// Package obs is the clock-agnostic observability layer shared by the
// discrete-event simulator and the live runtime. The protocol's event
// counters (a CounterSet behind peercore.EventSink) answer "how many",
// but the paper's core claims are distributional — collection
// delay percentiles (Theorems 1-2), the buffer-occupancy trajectory Y(t)
// of the ODE in §IV, useful-pull throughput over time — and "how many"
// cannot answer "how long" or "why was this one slow". This package adds
// the three missing instruments:
//
//   - Distribution metrics: a fixed-bucket, atomically updated Histogram
//     (p50/p90/p99, mergeable across nodes) and a Gauge for spot values.
//     Time is an opaque float64 supplied by the driver — simulated time in
//     internal/sim, wall seconds in internal/live — exactly like the
//     peercore state machines.
//
//   - Segment-lifecycle tracing: a Tracer interface with a nop
//     implementation (the default; it keeps the hot path and all golden
//     seeded runs byte-identical) and a bounded ring implementation that
//     records per-segment milestones — injection, gossip hops, server rank
//     increments, delivery, decode, purge — cheap enough to leave on. A
//     trace query reconstructs "where did segment X's time go", and the
//     same ring, kept by every live server, is dumped as the crash flight
//     recorder (RingTracer.DumpFile, ReadFlightDump).
//
//   - One read path: a Registry bundles an endpoint's counters,
//     histograms, gauges and trace tail, and the only way out of it
//     is Registry.Snapshot. Everything downstream is a function of
//     snapshots: the JSON document (/debug/snapshot), the Prometheus text
//     (WriteExposition, behind /metrics and obstool), the cluster view
//     (MergeSnapshots) and quantiles (HistogramSnapshot.Quantile).
//     Instantaneous state — buffer occupancy, queue depths — is a GaugeFunc
//     evaluated when a snapshot is taken, not a value pushed on a timer.
//
// Nothing in this package draws from the protocol's random streams, so
// enabling any of it never perturbs a seeded run; the golden tests in
// internal/sim pin that contract.
package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// promPrefix namespaces every exposed metric name.
const promPrefix = "p2p_"

// traceTailLen is how many trailing trace events a snapshot carries.
const traceTailLen = 64

// Registry is one endpoint's scrape surface: every counter source,
// histogram, gauge, and optional tracer registered on it
// appears in its Snapshot. Registration usually happens at endpoint
// construction; all methods are safe for concurrent use with scrapes.
type Registry struct {
	label string

	// mu guards the instrument lists, never their evaluation: Snapshot and
	// RangeCounters copy a list under it and read the instruments after
	// releasing it, so a gauge function or counter source may take any lock
	// of its owner's.
	mu       sync.Mutex
	counters []func(func(name string, v int64))
	hists    []*Histogram
	gauges   []gaugeFunc
	tracer   *RingTracer
	info     map[string]string
}

type gaugeFunc struct {
	name string
	read func() float64
}

// NewRegistry returns an empty registry. The label identifies the endpoint
// when several registries share one debug server (e.g. "node-3",
// "server-1"); it becomes the Prometheus endpoint label and the snapshot's
// Label field.
func NewRegistry(label string) *Registry {
	return &Registry{label: label, info: make(map[string]string)}
}

// RegisterCounters adds an alloc-free counter source: rangeFn must call its
// callback once per counter with a stable name. CounterSet.Range and
// peercore.Counters.Range have exactly this shape.
func (r *Registry) RegisterCounters(rangeFn func(func(name string, v int64))) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counters = append(r.counters, rangeFn)
}

// RangeCounters visits every counter of every registered source, in
// registration order: the Counters of a Snapshot without the rest. An
// endpoint's Stats().Protocol is filled from it, so the two can never list
// different counters.
func (r *Registry) RangeCounters(f func(name string, v int64)) {
	r.mu.Lock()
	sources := r.counters // appends never touch what a copied header sees
	r.mu.Unlock()
	for _, rangeFn := range sources {
		rangeFn(f)
	}
}

// Histogram creates a histogram with the given bucket upper bounds and
// registers it.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	h := NewHistogram(name, bounds)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.hists = append(r.hists, h)
	return h
}

// Gauge creates a named gauge — a value its owner pushes — and registers it.
func (r *Registry) Gauge(name string) *Gauge {
	g := NewGauge(name)
	r.GaugeFunc(name, g.Value)
	return g
}

// GaugeFunc registers a gauge that is read, not pushed: fn is evaluated
// each time a snapshot is taken, outside the registry's lock, and must be
// safe to call from any goroutine.
func (r *Registry) GaugeFunc(name string, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gauges = append(r.gauges, gaugeFunc{name, fn})
}

// SetTracer attaches a ring tracer whose tail appears in snapshots.
func (r *Registry) SetTracer(t *RingTracer) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.tracer = t
}

// SetInfo attaches a static key→value annotation (policy name, config
// digest); it appears in the snapshot's Info map.
func (r *Registry) SetInfo(key, value string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.info[key] = value
}

// Snapshot is the JSON shape of one registry scrape.
type Snapshot struct {
	Label      string              `json:"label,omitempty"`
	Info       map[string]string   `json:"info,omitempty"`
	Counters   map[string]int64    `json:"counters"`
	Histograms []HistogramSnapshot `json:"histograms,omitempty"`
	Gauges     map[string]float64  `json:"gauges,omitempty"`
	TraceTail  []TraceEvent        `json:"traceTail,omitempty"`
}

// Snapshot captures the registry's current state. The instrument lists
// are copied under the registry's lock and evaluated after it is released.
func (r *Registry) Snapshot() Snapshot {
	snap := Snapshot{
		Label:    r.label,
		Counters: make(map[string]int64),
		Gauges:   make(map[string]float64),
	}
	r.mu.Lock()
	if len(r.info) > 0 {
		snap.Info = make(map[string]string, len(r.info))
		for k, v := range r.info {
			snap.Info[k] = v
		}
	}
	hists, gauges, tracer := r.hists, r.gauges, r.tracer
	r.mu.Unlock()
	r.RangeCounters(func(name string, v int64) { snap.Counters[name] = v })
	for _, h := range hists {
		snap.Histograms = append(snap.Histograms, h.Snapshot())
	}
	for _, g := range gauges {
		snap.Gauges[g.name] = g.read()
	}
	if tracer != nil {
		snap.TraceTail = tracer.Tail(traceTailLen)
	}
	return snap
}

// WriteExposition renders any number of snapshots as one valid Prometheus
// text exposition — the only writer of that format in the tree, behind
// /metrics and obstool alike. Samples are grouped by metric family, one
// "# TYPE" line each (a TYPE line per endpoint is a format violation real
// servers reject), with each snapshot's Label as the endpoint label.
// Families are sorted by name within kind: counters, gauges, histograms.
// Counter names keep their Go-side camelCase, which the format allows.
func WriteExposition(w io.Writer, snaps ...Snapshot) {
	type family struct{ kind, name string }
	lines := make(map[family][]string)
	add := func(kind, name, suffix, labels string, v any) {
		if labels != "" {
			labels = "{" + labels + "}"
		}
		fam := family{kind, name}
		lines[fam] = append(lines[fam], fmt.Sprintf("%s%s%s %v\n", name, suffix, labels, v))
	}
	for _, s := range snaps {
		ep, sep := "", ""
		if s.Label != "" {
			ep, sep = `endpoint="`+labelEscaper.Replace(s.Label)+`"`, ","
		}
		for name, v := range s.Counters {
			add("counter", promName(name), "", ep, v)
		}
		for name, v := range s.Gauges {
			add("gauge", promName(name), "", ep, v)
		}
		for _, h := range s.Histograms {
			name := promName(h.Name)
			var cum int64
			for _, b := range h.Buckets {
				cum += b.Count
				le := "+Inf"
				if !isInfBound(b.LE) {
					le = strconv.FormatFloat(b.LE, 'g', -1, 64)
				}
				add("histogram", name, "_bucket", ep+sep+`le="`+le+`"`, cum)
			}
			add("histogram", name, "_sum", ep, h.Sum)
			add("histogram", name, "_count", ep, cum)
		}
	}
	fams := make([]family, 0, len(lines))
	for fam := range lines {
		fams = append(fams, fam)
	}
	// The kind names happen to sort in the order they are emitted.
	sort.Slice(fams, func(i, j int) bool {
		if fams[i].kind != fams[j].kind {
			return fams[i].kind < fams[j].kind
		}
		return fams[i].name < fams[j].name
	})
	for _, fam := range fams {
		fmt.Fprintf(w, "# TYPE %s %s\n", fam.name, fam.kind)
		for _, line := range lines[fam] {
			io.WriteString(w, line) //nolint:errcheck // best-effort scrape write
		}
	}
}

// labelEscaper escapes a label value the way the exposition format
// requires, so an operator-supplied label can never break out of its quotes.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// promName sanitizes a metric name for the exposition format and applies
// the package prefix (which also guarantees a non-digit first character).
func promName(name string) string {
	var b strings.Builder
	b.WriteString(promPrefix)
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c >= '0' && c <= '9':
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}
