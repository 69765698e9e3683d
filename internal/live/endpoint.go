package live

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"p2pcollect/internal/membership"
	"p2pcollect/internal/obs"
	"p2pcollect/internal/peercore"
	"p2pcollect/internal/randx"
	"p2pcollect/internal/transport"
)

// memberSeedSalt derives an endpoint's membership RNG stream from its
// protocol seed when the Membership config leaves Seed zero — same
// decoupling as traceSeedSalt, so probe schedules never perturb protocol
// draws.
const memberSeedSalt = 0x5317b007

// swimTicksPerPeriod is how often the detector is advanced per probe
// period: often enough that ping timeouts (a third of a period by default)
// are noticed promptly.
const swimTicksPerPeriod = 4

// serverIDBase offsets server IDs above any peer ID.
const serverIDBase = 1 << 32

// endpointLabel names an endpoint's registry for exposition. Server IDs sit
// above serverIDBase so cluster servers read "server-0", "server-1", ...
// instead of "node-4294967296".
func endpointLabel(id transport.NodeID) string {
	if id >= serverIDBase {
		return fmt.Sprintf("server-%d", id-serverIDBase)
	}
	return fmt.Sprintf("node-%d", id)
}

// addressed and router are the two optional halves of an address-book
// transport (TCP, UDP, and a Faulty around either): where it listens, and
// how it is told where someone else does.
type (
	addressed interface{ Addr() string }
	router    interface {
		AddRoute(transport.NodeID, string)
	}
)

// endpoint is the wall-clock runtime a Node and a Server share: one
// transport, one lock around one seeded RNG and one protocol state machine,
// the contact set that membership keeps current, the telemetry wiring, the
// clock, and the goroutine lifecycle. It is the only code in the package
// that reads the wall clock or runs a loop; the two embedders contribute
// protocol handlers and nothing else, so putting the runtime under a
// virtual clock means changing this file alone.
type endpoint struct {
	tr transport.Transport

	// mu serializes the protocol: the RNG, the counters' writers, the
	// contact set and whatever state machine the embedder drives.
	mu       sync.Mutex
	rng      *randx.Rand
	counters *peercore.Counters
	// peers is who this endpoint contacts at random — gossip targets for a
	// node, pull targets for a server: fixed under a static topology,
	// tracking the live view when the SWIM detector runs.
	peers *peercore.PeerSet
	// onLeave, when set by the embedder, runs under mu as a peer leaves the
	// contact set, to drop whatever per-peer state was kept for it.
	onLeave func(transport.NodeID)

	// swim is the failure detector, nil under a static topology. swimMu
	// serializes it and may be held when mu is taken (a status transition
	// reaches onMember from inside the core), never the other way round.
	swimMu sync.Mutex
	swim   *membership.SWIM

	// The registry is always built (scraping it is free when nobody asks);
	// the debug server only exists when debugAddr is set. A scrape reads
	// the registry's lists and then, with no registry lock held, takes mu
	// inside a gauge function; Stats holds mu and reads the registry's
	// counter list. The registry lock is never held while mu is taken.
	reg       *obs.Registry
	tracer    obs.Tracer
	debugAddr string
	debug     *obs.DebugServer

	started time.Time
	stop    chan struct{}
	wg      sync.WaitGroup
	startMu sync.Mutex
	running bool
}

// init builds the shared half of an endpoint. The protocol RNG is created
// here and nothing else draws from it, so the embedder's own construction
// order (peercore.NewPeer, then Fork, on a node) decides the seeded stream.
func (e *endpoint) init(tr transport.Transport, role membership.Role, seed int64,
	contacts []transport.NodeID, swim *membership.Config,
	tracer obs.Tracer, debugAddr string) {
	e.tr = tr
	e.rng = randx.New(seed)
	e.counters = peercore.NewCounters()
	e.peers = peercore.NewPeerSet()
	for _, id := range contacts {
		e.peers.Add(uint64(id))
	}
	if swim != nil {
		e.swim = e.newSWIM(role, *swim, seed)
	}
	e.tracer = tracer
	if tracer == nil {
		e.tracer = obs.NopTracer{}
	}
	e.reg = obs.NewRegistry(endpointLabel(tr.LocalID()))
	e.reg.RegisterCounters(e.counters.Range)
	if cr, ok := tr.(transport.CounterRanger); ok {
		e.reg.RegisterCounters(cr.RangeCounters)
	}
	// The transport's send-queue depth, when it has one: the first thing to
	// look at when a destination is slow.
	e.reg.GaugeFunc("outboxDepth", func() float64 {
		if dr, ok := tr.(transport.DepthReporter); ok {
			return float64(dr.OutboxDepth())
		}
		return 0
	})
	if rt, ok := tracer.(*obs.RingTracer); ok {
		e.reg.SetTracer(rt)
	}
	e.debugAddr = debugAddr
	e.stop = make(chan struct{})
}

// newSWIM builds the failure detector for this endpoint. Every status
// transition first feeds the transport's address book when it has one (an
// alive member or seed with an address becomes dialable), then onMember,
// then any user callback from the config. The detector's RNG is decoupled
// from the protocol seed via memberSeedSalt unless the config pins its own.
func (e *endpoint) newSWIM(role membership.Role, mcfg membership.Config, seed int64) *membership.SWIM {
	self := membership.Member{ID: e.tr.LocalID(), Role: role}
	if a, ok := e.tr.(addressed); ok {
		self.Addr = a.Addr()
	}
	if mcfg.Seed == 0 {
		mcfg.Seed = seed ^ memberSeedSalt
	}
	book, _ := e.tr.(router)
	userUpdate := mcfg.OnUpdate
	mcfg.OnUpdate = func(m membership.Member, st membership.Status) {
		if st == membership.StatusAlive && m.Addr != "" && book != nil {
			book.AddRoute(m.ID, m.Addr)
		}
		e.onMember(m, st)
		if userUpdate != nil {
			userUpdate(m, st)
		}
	}
	return membership.New(self, mcfg)
}

// stepSWIM runs one step of the detector on the endpoint's clock and sends
// the packets it emits as MsgSwim frames, outside the detector's lock so a
// slow transport never stalls it.
func (e *endpoint) stepSWIM(step func(now float64) []membership.Packet) {
	e.swimMu.Lock()
	pkts := step(e.now())
	e.swimMu.Unlock()
	self := e.tr.LocalID()
	for _, p := range pkts {
		e.tr.Send(p.To, &transport.Message{Type: transport.MsgSwim, From: self, To: p.To, Raw: p.Raw}) //nolint:errcheck // best-effort probe
	}
}

// onMember folds membership transitions into the contact set: alive peers
// are contacted, the dead and the departed are not. Suspects stay — SWIM
// suspicion is a grace period, not a verdict — and servers never enter the
// set (gossip flows peer-to-peer and servers pull from peers only; fellow
// servers are tracked by the detector, nothing more).
func (e *endpoint) onMember(m membership.Member, st membership.Status) {
	if m.Role != membership.RolePeer || m.ID == e.tr.LocalID() {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	switch st {
	case membership.StatusAlive:
		e.peers.Add(uint64(m.ID))
	case membership.StatusDead, membership.StatusLeft:
		e.peers.Remove(uint64(m.ID))
		if e.onLeave != nil {
			e.onLeave(m.ID)
		}
	}
}

// Registry exposes the endpoint's observability registry, for scraping it
// directly or serving it with others on one shared port (obs.Serve).
func (e *endpoint) Registry() *obs.Registry { return e.reg }

// ID returns the endpoint's network identity.
func (e *endpoint) ID() transport.NodeID { return e.tr.LocalID() }

// AliveMembers snapshots the members the SWIM detector currently considers
// alive (self excluded), in unspecified order; nil under a static topology.
func (e *endpoint) AliveMembers() []membership.Member {
	if e.swim == nil {
		return nil
	}
	e.swimMu.Lock()
	defer e.swimMu.Unlock()
	return e.swim.Alive()
}

// MemberStatus reports the detector's local view of one member; false when
// it has never heard of it, or under a static topology.
func (e *endpoint) MemberStatus(id transport.NodeID) (membership.Status, bool) {
	if e.swim == nil {
		return 0, false
	}
	e.swimMu.Lock()
	defer e.swimMu.Unlock()
	return e.swim.Status(id)
}

// DebugURL returns the debug endpoint's base URL, or "" when no DebugAddr
// was configured (or the endpoint is not running).
func (e *endpoint) DebugURL() string {
	if e.debug == nil {
		return ""
	}
	return e.debug.URL()
}

// protocolCounters is Stats().Protocol: every counter the registry exposes
// — protocol, transport health, and whatever the embedder registered —
// read from the registry's own sources in one hold of mu, in which
// alongside reads the embedder's state that must agree with them. Only the
// reads happen under mu; the map is built after it is released. A caller
// that polls Stats in a tight loop (bench/ does, waiting for a cluster's
// first pull) would otherwise hold mu most of the time and starve the very
// loops it is waiting on.
func (e *endpoint) protocolCounters(alongside func()) map[string]int64 {
	type counter struct {
		name string
		v    int64
	}
	read := make([]counter, 0, 64)
	e.mu.Lock()
	e.reg.RangeCounters(func(name string, v int64) { read = append(read, counter{name, v}) })
	alongside()
	e.mu.Unlock()
	out := make(map[string]int64, len(read))
	for _, c := range read {
		out[c.name] = c.v
	}
	return out
}

// now is the one clock of the endpoint, protocol and failure detector
// alike: wall seconds since start.
func (e *endpoint) now() float64 { return time.Since(e.started).Seconds() }

// start brings the endpoint up: the debug server, the clock, ready (the
// embedder's last step before traffic, nil for none), and one goroutine per
// loop, the SWIM detector's ticker among them. It is an error to start
// twice.
func (e *endpoint) start(ready func(), loops ...func()) error {
	e.startMu.Lock()
	defer e.startMu.Unlock()
	if e.running {
		return errors.New("live: endpoint already running")
	}
	if e.debugAddr != "" {
		debug, err := obs.Serve(e.debugAddr, e.reg)
		if err != nil {
			return err
		}
		e.debug = debug
	}
	e.running = true
	e.started = time.Now()
	if ready != nil {
		ready()
	}
	if e.swim != nil {
		period := time.Duration(e.swim.Period() / swimTicksPerPeriod * float64(time.Second))
		loops = append(loops, func() {
			e.every(max(period, time.Millisecond), func() { e.stepSWIM(e.swim.Tick) })
		})
	}
	e.wg.Add(len(loops))
	for _, loop := range loops {
		go func() {
			defer e.wg.Done()
			loop()
		}()
	}
	return nil
}

// shutdown brings the endpoint down and waits for every loop: gracefully
// (the detector broadcasts a leave while the transport can still carry it) or
// the way a killed process would go (no goodbye; the cluster must detect
// the death by probing). The debug server closes before after runs, so a
// postmortem scraper gets a clean connection error, never a half-dead
// endpoint's stale snapshot. after (nil for none) is the embedder's own
// teardown, run once the loops are gone. Calls after the first are no-ops.
func (e *endpoint) shutdown(graceful bool, after func()) {
	e.startMu.Lock()
	defer e.startMu.Unlock()
	if !e.running {
		return
	}
	e.running = false
	if e.swim != nil && graceful {
		e.stepSWIM(e.swim.Leave)
	}
	close(e.stop)
	e.tr.Close() //nolint:errcheck // shutdown path
	e.wg.Wait()
	if e.debug != nil {
		e.debug.Close() //nolint:errcheck // shutdown path
		e.debug = nil
	}
	if after != nil {
		after()
	}
}

// paced runs fn as a Poisson process of the given rate until the endpoint
// stops or fn returns false. Inter-event times come from the protocol RNG,
// drawn under mu: one before the first event and one after each event, so
// a run of k events costs exactly k+1 draws. A zero rate parks the timer
// effectively forever.
func (e *endpoint) paced(rate float64, fn func() bool) {
	delay := func() time.Duration {
		e.mu.Lock()
		v := e.rng.Exp(rate)
		e.mu.Unlock()
		if v > 3600 {
			v = 3600
		}
		return time.Duration(v * float64(time.Second))
	}
	timer := time.NewTimer(delay())
	defer timer.Stop()
	for {
		select {
		case <-e.stop:
			return
		case <-timer.C:
			if !fn() {
				return
			}
			timer.Reset(delay())
		}
	}
}

// every runs fn on a fixed period until the endpoint stops.
func (e *endpoint) every(period time.Duration, fn func()) {
	ticker := time.NewTicker(period)
	defer ticker.Stop()
	for {
		select {
		case <-e.stop:
			return
		case <-ticker.C:
			fn()
		}
	}
}

// receive feeds every inbound message to handle until the endpoint stops
// or the transport closes. Membership packets go to the SWIM detector.
func (e *endpoint) receive(handle func(*transport.Message)) {
	for {
		select {
		case <-e.stop:
			return
		case m, ok := <-e.tr.Receive():
			switch {
			case !ok:
				return
			case m.Type != transport.MsgSwim:
				handle(m)
			case e.swim != nil:
				e.stepSWIM(func(now float64) []membership.Packet {
					return e.swim.Handle(now, m.From, m.Raw)
				})
			}
		}
	}
}
