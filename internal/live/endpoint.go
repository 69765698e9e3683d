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

// obsSeriesCap bounds each endpoint's retained time-series samples. At the
// default 1s sample interval this is over an hour of history.
const obsSeriesCap = 4096

// defaultSampleInterval spaces observability samples when the config leaves
// SampleInterval zero.
const defaultSampleInterval = 1.0

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
	// tracking the live view when the SWIM agent runs.
	peers *peercore.PeerSet
	agent *membership.Agent // nil under a static topology

	// The registry is always built (scraping it is free when nobody asks);
	// the debug server only exists when debugAddr is set.
	reg         *obs.Registry
	tracer      obs.Tracer
	obsOutbox   *obs.Gauge
	sampleEvery time.Duration
	debugAddr   string
	debug       *obs.DebugServer

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
	tracer obs.Tracer, sampleInterval float64, debugAddr string) {
	e.tr = tr
	e.rng = randx.New(seed)
	e.counters = peercore.NewCounters()
	e.peers = peercore.NewPeerSet()
	for _, id := range contacts {
		e.peers.Add(uint64(id))
	}
	if swim != nil {
		e.agent = e.newAgent(role, *swim, seed)
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
	e.obsOutbox = e.reg.Gauge("outboxDepth")
	if rt, ok := tracer.(*obs.RingTracer); ok {
		e.reg.SetTracer(rt)
	}
	if sampleInterval <= 0 {
		sampleInterval = defaultSampleInterval
	}
	e.sampleEvery = time.Duration(sampleInterval * float64(time.Second))
	e.debugAddr = debugAddr
	e.stop = make(chan struct{})
}

// newAgent wires a SWIM agent to the transport: outbound packets ride
// MsgSwim frames, learned member addresses feed the transport's address
// book when it has one, and every status transition reaches onMember before
// any user callback from the config. The agent's RNG is decoupled from the
// protocol seed via memberSeedSalt unless the config pins its own.
func (e *endpoint) newAgent(role membership.Role, mcfg membership.Config, seed int64) *membership.Agent {
	tr := e.tr
	self := membership.Member{ID: tr.LocalID(), Role: role}
	if a, ok := tr.(addressed); ok {
		self.Addr = a.Addr()
	}
	if mcfg.Seed == 0 {
		mcfg.Seed = seed ^ memberSeedSalt
	}
	userUpdate := mcfg.OnUpdate
	mcfg.OnUpdate = func(m membership.Member, st membership.Status) {
		e.onMember(m, st)
		if userUpdate != nil {
			userUpdate(m, st)
		}
	}
	var addRoute func(transport.NodeID, string)
	if r, ok := tr.(router); ok {
		addRoute = r.AddRoute
	}
	send := func(to transport.NodeID, raw []byte) {
		tr.Send(to, &transport.Message{Type: transport.MsgSwim, Raw: raw}) //nolint:errcheck // best-effort probe
	}
	return membership.NewAgent(self, mcfg, send, addRoute)
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
	}
}

// Registry exposes the endpoint's observability registry, for scraping it
// directly or folding it into an obs.Group served on one shared port.
func (e *endpoint) Registry() *obs.Registry { return e.reg }

// ID returns the endpoint's network identity.
func (e *endpoint) ID() transport.NodeID { return e.tr.LocalID() }

// Membership returns the endpoint's SWIM agent, or nil when it runs a
// static topology.
func (e *endpoint) Membership() *membership.Agent { return e.agent }

// DebugURL returns the debug endpoint's base URL, or "" when no DebugAddr
// was configured (or the endpoint is not running).
func (e *endpoint) DebugURL() string {
	if e.debug == nil {
		return ""
	}
	return e.debug.URL()
}

// withTransportCounters copies an instrumented transport's health counters
// (the "transport*" keys) into a protocol counter snapshot, so one snapshot
// reports protocol progress and transport liveness side by side.
func (e *endpoint) withTransportCounters(protocol map[string]int64) map[string]int64 {
	if ic, ok := e.tr.(transport.Instrumented); ok {
		for k, v := range ic.Counters() {
			protocol[k] = v
		}
	}
	return protocol
}

// sampleOutbox publishes the transport's send-queue depth, when it has one.
func (e *endpoint) sampleOutbox() {
	if dr, ok := e.tr.(transport.DepthReporter); ok {
		e.obsOutbox.Set(float64(dr.OutboxDepth()))
	}
}

// now is the protocol clock: wall seconds since start. Callers hold mu
// (the state machines are single-threaded under it).
func (e *endpoint) now() float64 { return time.Since(e.started).Seconds() }

// start brings the endpoint up: the debug server, the clock, ready (the
// embedder's last step before traffic, nil for none), one goroutine per
// loop, and finally the SWIM agent. It is an error to start twice.
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
	e.wg.Add(len(loops))
	for _, loop := range loops {
		go func() {
			defer e.wg.Done()
			loop()
		}()
	}
	if e.agent != nil {
		e.agent.Start()
	}
	return nil
}

// shutdown brings the endpoint down and waits for every loop: gracefully
// (the agent broadcasts a leave while the transport can still carry it) or
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
	if e.agent != nil {
		if graceful {
			e.agent.Stop()
		} else {
			e.agent.Kill()
		}
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
// or the transport closes. Membership packets go to the SWIM agent.
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
			case e.agent != nil:
				e.agent.Deliver(m.From, m.Raw)
			}
		}
	}
}
