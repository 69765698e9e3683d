package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"p2pcollect/internal/obs"
	"p2pcollect/internal/pullsched"
	"p2pcollect/internal/rlnc"
	"p2pcollect/internal/transport"
)

// samples keeps the most recent measurements of one span kind in a ring, so
// a long window cannot grow it.
type samples struct {
	mu sync.Mutex
	v  []float64
	n  int64
}

const sampleCap = 1 << 16

func (s *samples) add(x float64) {
	s.mu.Lock()
	if len(s.v) < sampleCap {
		s.v = append(s.v, x)
	} else {
		s.v[s.n%sampleCap] = x
	}
	s.n++
	s.mu.Unlock()
}

// quantile returns the q-quantile of the retained samples, 0 when empty.
func (s *samples) quantile(q float64) float64 {
	s.mu.Lock()
	v := append([]float64(nil), s.v...)
	s.mu.Unlock()
	return quantile(v, q)
}

// median sorts v in place and returns its median, 0 when empty.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	return (v[(len(v)-1)/2] + v[len(v)/2]) / 2
}

// quantile sorts v in place and returns its q-quantile (nearest rank).
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	i := int(q * float64(len(v)))
	if i >= len(v) {
		i = len(v) - 1
	}
	return v[i]
}

// segSpan is one segment's milestones on the harness wall clock, in
// nanoseconds since the tracing origin (0 = not seen).
type segSpan struct {
	Seg       string `json:"seg"`
	Inject    int64  `json:"inject_ns,omitempty"`
	FirstRank int64  `json:"first_rank_ns,omitempty"`
	Decoded   int64  `json:"decoded_ns,omitempty"`
	Delivered int64  `json:"delivered_ns,omitempty"`
}

// tracing is everything a traced run installs around the program from
// outside: the tap on every endpoint's transport, the timing decorator
// around each server's pull policy, and an obs.Tracer that stamps segment
// milestones with the harness clock. Spans stay in memory until the run
// ends.
type tracing struct {
	origin time.Time

	// stamps is a direct-mapped table from a coded block's content hash to
	// its Send time: a colliding or dropped block costs a sample, never a
	// wrong match beyond a 64-bit hash collision.
	stamps [1 << 16]struct{ key, at atomic.Uint64 }

	sendNS      samples // duration of each inner Send
	waitUS      samples // Send → consumer took it off Receive
	sent, recvd atomic.Int64
	wireBytes   atomic.Int64 // encoded size of every 64th accepted message
	wireSampled atomic.Int64

	chooseNS, feedbackNS samples
	decisions, hinted    atomic.Int64
	inventories          atomic.Int64

	mu       sync.Mutex
	captured []*transport.Message // MsgBlocks that reached a server
	spans    map[rlnc.SegmentID]*segSpan
}

func newTracing() *tracing {
	return &tracing{origin: time.Now(), spans: make(map[rlnc.SegmentID]*segSpan)}
}

func (t *tracing) since() int64 { return int64(time.Since(t.origin)) }

// span returns the segment's record; callers hold t.mu.
func (t *tracing) span(seg rlnc.SegmentID) *segSpan {
	sp := t.spans[seg]
	if sp == nil {
		sp = &segSpan{Seg: seg.String()}
		t.spans[seg] = sp
	}
	return sp
}

// Trace implements obs.Tracer. Nodes report injections, servers rank
// growth and decode; the clocks inside the events are the endpoints' own,
// so the harness stamps its own.
func (t *tracing) Trace(ev obs.TraceEvent) {
	switch ev.Kind {
	case obs.TraceInject, obs.TraceServerRank, obs.TraceDecoded:
	default:
		return
	}
	now := t.since()
	t.mu.Lock()
	sp := t.span(ev.Seg)
	switch {
	case ev.Kind == obs.TraceInject:
		sp.Inject = now
	case ev.Kind == obs.TraceServerRank && sp.FirstRank == 0:
		sp.FirstRank = now
	case ev.Kind == obs.TraceDecoded && sp.Decoded == 0:
		sp.Decoded = now
	}
	t.mu.Unlock()
}

// delivered is the oracle's hook: OnSegment fired for the segment.
func (t *tracing) delivered(seg rlnc.SegmentID, at time.Time) {
	t.mu.Lock()
	t.span(seg).Delivered = int64(at.Sub(t.origin))
	t.mu.Unlock()
}

// blockKey hashes what identifies one coded block in flight (FNV-1a).
func blockKey(from, to transport.NodeID, cb *rlnc.CodedBlock) uint64 {
	h := uint64(14695981039346656037)
	mix := func(x uint64) {
		for i := 0; i < 8; i++ {
			h = (h ^ (x & 0xff)) * 1099511628211
			x >>= 8
		}
	}
	mix(uint64(from))
	mix(uint64(to))
	mix(cb.Seg.Origin)
	mix(cb.Seg.Seq)
	for _, c := range cb.Coeffs {
		h = (h ^ uint64(c)) * 1099511628211
	}
	for i := 0; i < len(cb.Payload) && i < 16; i++ {
		h = (h ^ uint64(cb.Payload[i])) * 1099511628211
	}
	if h == 0 {
		h = 1
	}
	return h
}

// tap wraps one endpoint's transport. Send is timed and stamped; Receive is
// re-published through an unbuffered channel so the hand-off time is the
// moment the endpoint's loop actually took the message.
type tap struct {
	inner   transport.Transport
	t       *tracing
	capture bool // this endpoint is a server: keep its inbound MsgBlocks
	out     chan *transport.Message
	done    chan struct{}
	once    sync.Once
	exited  chan struct{}
}

// wrap taps one endpoint. capture marks a server, whose inbound MsgBlocks
// are kept for the replays.
func (t *tracing) wrap(inner transport.Transport, capture bool) *tap {
	tp := &tap{
		inner: inner, t: t, capture: capture,
		// The hand-off queue: deep enough that the endpoint's loop rarely
		// finds it empty while the inner inbox is not, shallow enough that
		// the measured wait misses at most 16 hand-offs.
		out:    make(chan *transport.Message, 16),
		done:   make(chan struct{}),
		exited: make(chan struct{}),
	}
	go tp.forward()
	return tp
}

func (tp *tap) LocalID() transport.NodeID          { return tp.inner.LocalID() }
func (tp *tap) Receive() <-chan *transport.Message { return tp.out }

func (tp *tap) Send(to transport.NodeID, m *transport.Message) error {
	t := tp.t
	isBlock := m.Block != nil && (m.Type == transport.MsgBlock || m.Type == transport.MsgExchange)
	var slot *struct{ key, at atomic.Uint64 }
	var key uint64
	if isBlock {
		key = blockKey(tp.inner.LocalID(), to, m.Block)
		slot = &t.stamps[key%uint64(len(t.stamps))]
		slot.key.Store(0)
	}
	t0 := time.Now()
	if slot != nil {
		slot.at.Store(uint64(t0.Sub(t.origin)))
		slot.key.Store(key)
	}
	err := tp.inner.Send(to, m)
	t.sendNS.add(float64(time.Since(t0)))
	if err != nil {
		return err
	}
	if n := t.sent.Add(1); n%64 == 0 {
		if b, encErr := transport.EncodeMessage(m); encErr == nil {
			t.wireBytes.Add(int64(len(b)))
			t.wireSampled.Add(1)
		}
	}
	return nil
}

func (tp *tap) forward() {
	defer close(tp.exited)
	defer close(tp.out)
	t := tp.t
	for m := range tp.inner.Receive() {
		select {
		case tp.out <- m:
		case <-tp.done:
			return
		}
		now := t.since()
		t.recvd.Add(1)
		if m.Block == nil || (m.Type != transport.MsgBlock && m.Type != transport.MsgExchange) {
			continue
		}
		key := blockKey(m.From, tp.inner.LocalID(), m.Block)
		slot := &t.stamps[key%uint64(len(t.stamps))]
		if slot.key.Load() == key {
			t.waitUS.add(float64(now-int64(slot.at.Load())) / 1e3)
		}
		if tp.capture && m.Type == transport.MsgBlock {
			t.mu.Lock()
			if len(t.captured) < captureBlocks {
				t.captured = append(t.captured, m)
			}
			t.mu.Unlock()
		}
	}
}

func (tp *tap) Close() error {
	tp.once.Do(func() { close(tp.done) })
	err := tp.inner.Close()
	<-tp.exited
	return err
}

// timedPolicy decorates a server's pull policy with spans around every
// call. The server serializes policy calls under its mutex, so the
// decorator adds no locking of its own beyond the sample rings'.
type timedPolicy struct {
	inner pullsched.Policy
	t     *tracing
}

func (p *timedPolicy) Name() string { return p.inner.Name() }

func (p *timedPolicy) Choose(now float64, env pullsched.Env) (pullsched.Decision, bool) {
	t0 := time.Now()
	d, ok := p.inner.Choose(now, env)
	p.t.chooseNS.add(float64(time.Since(t0)))
	if ok {
		p.t.decisions.Add(1)
		if d.HasHint {
			p.t.hinted.Add(1)
		}
	}
	return d, ok
}

func (p *timedPolicy) Feedback(f pullsched.Feedback) {
	t0 := time.Now()
	p.inner.Feedback(f)
	p.t.feedbackNS.add(float64(time.Since(t0)))
}

func (p *timedPolicy) ObserveInventory(now float64, peer pullsched.PeerRef, inv []pullsched.InventoryEntry) {
	p.t.inventories.Add(1)
	p.inner.ObserveInventory(now, peer, inv)
}
