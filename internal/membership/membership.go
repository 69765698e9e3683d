// Package membership implements SWIM-style gossip membership: periodic
// ping / ping-req / ack failure detection with join, leave, and suspect
// rumors piggybacked on every packet. It replaces the static topology file
// as the source of a node's gossip target set — nodes discover each other
// by rumor, failures are detected by randomized probing with indirect
// confirmation, and a refuted suspicion heals through incarnation numbers
// — which is what lets the collection protocol keep its delivery
// guarantees under churn (Zhu & Hajek) without any coordinator.
//
// The core type, SWIM, is deterministic and single-threaded: it is driven
// by an explicit clock (seconds, any epoch) and a seeded RNG, so tests can
// replay exact probe and timeout schedules. The package never reads a
// clock itself: the live endpoint runtime (internal/live) ticks the core
// and feeds it packets on its own clock and under its own lock.
package membership

import (
	"fmt"

	"p2pcollect/internal/randx"
	"p2pcollect/internal/transport"
)

// Role distinguishes collection peers from logging servers in the
// membership view, so a node can gossip to peers and a server can pull
// from peers without a separate directory.
type Role uint8

// Member roles.
const (
	RolePeer Role = iota
	RoleServer
)

// Status is a member's lifecycle state in the local view.
type Status uint8

// Member statuses, in rumor-precedence order: a suspect rumor overrides
// alive at the same incarnation, dead and left override both.
const (
	StatusAlive Status = iota
	StatusSuspect
	StatusDead
	StatusLeft
)

// String names the status for logs.
func (s Status) String() string {
	switch s {
	case StatusAlive:
		return "alive"
	case StatusSuspect:
		return "suspect"
	case StatusDead:
		return "dead"
	case StatusLeft:
		return "left"
	default:
		return fmt.Sprintf("status(%d)", uint8(s))
	}
}

// Member identifies one participant: its transport node ID, dialable
// address (empty on transports without addressing, e.g. the in-memory
// fabric), and role.
type Member struct {
	ID   transport.NodeID
	Addr string
	Role Role
}

// Fixed protocol parameters. A direct ping unacknowledged for a third of
// the probe period is retried indirectly through proxies.
const (
	// indirectProxies is how many members relay an indirect ping when the
	// direct one times out.
	indirectProxies = 3
	// maxPiggyback bounds the rumors attached to one packet.
	maxPiggyback = 8
	// rumorTransmits is how many packets each rumor rides before it is
	// retired.
	rumorTransmits = 6
)

// Config tunes the failure detector. The zero value of each field selects
// the documented default.
type Config struct {
	// Seeds are the members contacted to join the cluster. At least one
	// live seed is needed to discover anyone; seeds are admitted to the
	// view immediately as alive.
	Seeds []Member
	// Period is the probe interval in seconds: every Period one member is
	// pinged, and an unacknowledged probe becomes a suspicion at the end of
	// its period. Default 1.0.
	Period float64
	// SuspectTimeout is how long a suspect may linger before it is declared
	// dead. Longer tolerates slow refutations; shorter evicts crashed nodes
	// faster. Default 3×Period.
	SuspectTimeout float64
	// Seed seeds the probe-order and proxy-choice RNG.
	Seed int64
	// OnUpdate, if set, is called on every status transition of a remote
	// member (never for self). Alive means the member should be in the
	// gossip target set; dead and left mean it should not. Called from
	// whatever goroutine drives Tick/Handle.
	OnUpdate func(Member, Status)
}

func (c Config) withDefaults() Config {
	if c.Period <= 0 {
		c.Period = 1.0
	}
	if c.SuspectTimeout <= 0 {
		c.SuspectTimeout = 3 * c.Period
	}
	return c
}

// Packet is one outbound SWIM message: raw bytes for the transport to
// carry to a destination (inside a MsgSwim frame).
type Packet struct {
	To  transport.NodeID
	Raw []byte
}

// memberState is the local view of one remote member.
type memberState struct {
	Member
	status Status
	inc    uint32
	// since is when status last changed — the suspect clock.
	since float64
}

// rumor is one pending membership update with its remaining transmission
// budget.
type rumor struct {
	m         Member
	status    Status
	inc       uint32
	transmits int
}

// probeState tracks the probe in flight.
type probeState struct {
	target       transport.NodeID
	started      float64
	indirectSent bool
	acked        bool
}

// proxyEntry remembers who asked for an indirect ping, keyed by the seq of
// the ping this node sent on their behalf.
type proxyEntry struct {
	requester transport.NodeID
	seq       uint32 // the requester's original seq, echoed in the relayed ack
	expires   float64
}

// SWIM is the deterministic failure-detector core. It is NOT safe for
// concurrent use — drive it from one goroutine, or under one lock, with a
// monotonic clock in seconds.
type SWIM struct {
	self Member
	cfg  Config
	rng  *randx.Rand

	inc     uint32 // own incarnation, bumped to refute suspicion
	members map[transport.NodeID]*memberState
	rumors  map[transport.NodeID]*rumor

	ring    []transport.NodeID // shuffled probe order
	ringPos int

	probe     *probeState
	nextProbe float64
	seq       uint32
	proxied   map[uint32]proxyEntry
	left      bool
}

// New builds a detector for self. Seeds (minus self) are admitted as alive
// immediately, so probing — and therefore joining — starts on the first
// Tick.
func New(self Member, cfg Config) *SWIM {
	cfg = cfg.withDefaults()
	s := &SWIM{
		self:    self,
		cfg:     cfg,
		rng:     randx.New(cfg.Seed),
		members: make(map[transport.NodeID]*memberState),
		rumors:  make(map[transport.NodeID]*rumor),
		proxied: make(map[uint32]proxyEntry),
	}
	for _, m := range cfg.Seeds {
		if m.ID == self.ID {
			continue
		}
		s.setStatus(&memberState{Member: m}, StatusAlive, 0)
	}
	return s
}

// Self returns this detector's own member record.
func (s *SWIM) Self() Member { return s.self }

// Period returns the probe interval in seconds, defaults applied; a driver
// calls Tick a few times per Period.
func (s *SWIM) Period() float64 { return s.cfg.Period }

// Incarnation returns the current self incarnation number.
func (s *SWIM) Incarnation() uint32 { return s.inc }

// Status reports the local view of a member.
func (s *SWIM) Status(id transport.NodeID) (Status, bool) {
	ms, ok := s.members[id]
	if !ok {
		return 0, false
	}
	return ms.status, true
}

// Alive snapshots the members currently considered alive (self excluded),
// in unspecified order.
func (s *SWIM) Alive() []Member {
	out := make([]Member, 0, len(s.members))
	for _, ms := range s.members {
		if ms.status == StatusAlive {
			out = append(out, ms.Member)
		}
	}
	return out
}

// Tick advances the detector to now (seconds, same clock as every other
// call) and returns the packets to send: new probes, indirect ping-reqs
// for a stalled probe, and the rumors they piggyback. Call it a few times
// per Period.
func (s *SWIM) Tick(now float64) []Packet {
	if s.left {
		return nil
	}
	var out []Packet

	// Advance the in-flight probe: escalate to indirect pings a third of
	// the way through its period, suspect the target at the end of it.
	if p := s.probe; p != nil {
		switch {
		case p.acked:
			s.probe = nil
		case now-p.started >= s.cfg.Period:
			if ms, ok := s.members[p.target]; ok && ms.status == StatusAlive {
				s.applySuspect(ms.Member, ms.inc, now)
			}
			s.probe = nil
		case !p.indirectSent && now-p.started >= s.cfg.Period/3:
			p.indirectSent = true
			for _, proxy := range s.pickProxies(p.target) {
				out = append(out, s.buildPacket(proxy, kindPingReq, s.nextSeq(), p.target))
			}
		}
	}

	// Expire suspects into deaths.
	for _, ms := range s.members {
		if ms.status == StatusSuspect && now-ms.since >= s.cfg.SuspectTimeout {
			s.applyDead(ms.Member, ms.inc, StatusDead, now)
		}
	}

	// Expire stale proxy entries so an ack that never comes doesn't leak.
	for seq, pe := range s.proxied {
		if now >= pe.expires {
			delete(s.proxied, seq)
		}
	}

	// Start the next probe on the period boundary.
	if s.probe == nil && now >= s.nextProbe {
		s.nextProbe = now + s.cfg.Period
		if target, ok := s.nextTarget(); ok {
			s.probe = &probeState{target: target, started: now}
			out = append(out, s.buildPacket(target, kindPing, s.nextSeq(), target))
		}
	}
	return out
}

// Handle processes one inbound SWIM packet and returns any replies or
// relays it provokes. Undecodable packets are dropped silently — over UDP
// they are indistinguishable from loss.
func (s *SWIM) Handle(now float64, from transport.NodeID, raw []byte) []Packet {
	if s.left {
		return nil
	}
	p, err := decodePacket(raw)
	if err != nil || from == s.self.ID {
		return nil
	}

	// A sender we don't currently count alive is (re)joining: its reply
	// gets a state sync — a snapshot of the membership view — because the
	// budgeted rumor stream only carries recent news, never history.
	ms, known := s.members[from]
	joining := !known || ms.status != StatusAlive

	// The sender introduced itself: direct contact is ground truth, so it
	// revives a suspect or tombstoned entry even if its claimed incarnation
	// is stale (a rejoined process restarts at zero).
	sender := Member{ID: from, Addr: p.senderAddr, Role: p.senderRole}
	inc := p.senderInc
	if known && ms.status != StatusAlive && inc <= ms.inc {
		inc = ms.inc + 1
	}
	s.applyAlive(sender, inc, now)

	for _, r := range p.rumors {
		s.applyRumor(r, now)
	}

	var sync []wireRumor
	if joining {
		sync = s.stateSync(from)
	}

	var out []Packet
	switch p.kind {
	case kindPing:
		out = append(out, s.buildPacketExtra(from, kindAck, p.seq, s.self.ID, sync))
	case kindPingReq:
		// Relay a ping to the target on the requester's behalf; the ack
		// comes back to us and is forwarded in the ack case below.
		if p.about != s.self.ID {
			relaySeq := s.nextSeq()
			s.proxied[relaySeq] = proxyEntry{requester: from, seq: p.seq, expires: now + s.cfg.Period}
			out = append(out, s.buildPacket(p.about, kindPing, relaySeq, p.about))
		} else {
			out = append(out, s.buildPacketExtra(from, kindAck, p.seq, s.self.ID, sync))
		}
	case kindAck:
		if pe, ok := s.proxied[p.seq]; ok {
			delete(s.proxied, p.seq)
			out = append(out, s.buildPacket(pe.requester, kindAck, pe.seq, from))
		}
		if s.probe != nil && p.about == s.probe.target {
			s.probe.acked = true
		}
	}
	return out
}

// Leave marks self as departed and returns farewell packets carrying the
// leave rumor to a handful of alive members. The detector goes inert: all
// later Tick/Handle calls return nil.
func (s *SWIM) Leave(now float64) []Packet {
	if s.left {
		return nil
	}
	s.queueRumor(rumor{m: s.self, status: StatusLeft, inc: s.inc})
	alive := s.Alive()
	s.shuffleMembers(alive)
	if len(alive) > indirectProxies {
		alive = alive[:indirectProxies]
	}
	var out []Packet
	for _, m := range alive {
		out = append(out, s.buildPacket(m.ID, kindAck, s.nextSeq(), s.self.ID))
	}
	s.left = true
	return out
}

// --- status transitions ---

// setStatus records a transition and notifies OnUpdate.
func (s *SWIM) setStatus(ms *memberState, st Status, now float64) {
	fresh := s.members[ms.ID] == nil
	if fresh {
		s.members[ms.ID] = ms
	} else if ms.status == st {
		return
	}
	ms.status = st
	ms.since = now
	if s.cfg.OnUpdate != nil {
		s.cfg.OnUpdate(ms.Member, st)
	}
}

func (s *SWIM) applyAlive(m Member, inc uint32, now float64) {
	ms, ok := s.members[m.ID]
	if !ok {
		ms = &memberState{Member: m, inc: inc}
		s.setStatus(ms, StatusAlive, now)
		s.queueRumor(rumor{m: m, status: StatusAlive, inc: inc})
		return
	}
	// Alive overrides only with a strictly newer incarnation, except that
	// an equal incarnation confirms an already-alive member (no-op).
	if inc < ms.inc || (inc == ms.inc && ms.status != StatusAlive) {
		return
	}
	newer := inc > ms.inc
	ms.inc = inc
	if m.Addr != "" {
		ms.Addr = m.Addr
	}
	ms.Role = m.Role
	if ms.status != StatusAlive {
		s.setStatus(ms, StatusAlive, now)
	}
	if newer {
		s.queueRumor(rumor{m: ms.Member, status: StatusAlive, inc: inc})
	}
}

func (s *SWIM) applySuspect(m Member, inc uint32, now float64) {
	if m.ID == s.self.ID {
		s.refute(inc)
		return
	}
	ms, ok := s.members[m.ID]
	if !ok {
		ms = &memberState{Member: m, inc: inc}
		s.setStatus(ms, StatusSuspect, now)
		s.queueRumor(rumor{m: m, status: StatusSuspect, inc: inc})
		return
	}
	if inc < ms.inc || ms.status != StatusAlive {
		return
	}
	ms.inc = inc
	s.setStatus(ms, StatusSuspect, now)
	s.queueRumor(rumor{m: ms.Member, status: StatusSuspect, inc: inc})
}

// applyDead handles both dead and left verdicts.
func (s *SWIM) applyDead(m Member, inc uint32, st Status, now float64) {
	if m.ID == s.self.ID {
		s.refute(inc)
		return
	}
	ms, ok := s.members[m.ID]
	if !ok {
		// A verdict about a stranger: record the tombstone (so stale alive
		// rumors can't resurrect it) but don't gossip what we can't vouch
		// for beyond the rumor budget.
		ms = &memberState{Member: m, inc: inc}
		s.setStatus(ms, st, now)
		s.queueRumor(rumor{m: m, status: st, inc: inc})
		return
	}
	if inc < ms.inc || ms.status == StatusDead || ms.status == StatusLeft {
		return
	}
	ms.inc = inc
	s.setStatus(ms, st, now)
	s.queueRumor(rumor{m: ms.Member, status: st, inc: inc})
}

// refute answers a suspicion (or premature obituary) about self by bumping
// the incarnation past the rumor's and gossiping the new one.
func (s *SWIM) refute(rumorInc uint32) {
	if rumorInc >= s.inc {
		s.inc = rumorInc + 1
	}
	s.queueRumor(rumor{m: s.self, status: StatusAlive, inc: s.inc})
}

func (s *SWIM) applyRumor(r wireRumor, now float64) {
	switch r.status {
	case StatusAlive:
		if r.m.ID == s.self.ID {
			return // we are the authority on ourselves
		}
		s.applyAlive(r.m, r.inc, now)
	case StatusSuspect:
		s.applySuspect(r.m, r.inc, now)
	case StatusDead, StatusLeft:
		s.applyDead(r.m, r.inc, r.status, now)
	}
}

// --- rumor queue ---

// queueRumor replaces any pending rumor about the same member with this
// one at a full transmission budget — the newest verdict wins the wire.
func (s *SWIM) queueRumor(r rumor) {
	r.transmits = rumorTransmits
	s.rumors[r.m.ID] = &r
}

// takeRumors selects up to maxPiggyback rumors with the largest remaining
// budgets and charges one transmission each.
func (s *SWIM) takeRumors() []wireRumor {
	if len(s.rumors) == 0 {
		return nil
	}
	pending := make([]*rumor, 0, len(s.rumors))
	for _, r := range s.rumors {
		pending = append(pending, r)
	}
	// Highest budget first (freshest rumors spread fastest); ID breaks
	// ties for determinism.
	for i := 1; i < len(pending); i++ {
		for j := i; j > 0 && less(pending[j], pending[j-1]); j-- {
			pending[j], pending[j-1] = pending[j-1], pending[j]
		}
	}
	n := len(pending)
	if n > maxPiggyback {
		n = maxPiggyback
	}
	out := make([]wireRumor, 0, n)
	for _, r := range pending[:n] {
		out = append(out, wireRumor{status: r.status, m: r.m, inc: r.inc})
		r.transmits--
		if r.transmits <= 0 {
			delete(s.rumors, r.m.ID)
		}
	}
	return out
}

func less(a, b *rumor) bool {
	if a.transmits != b.transmits {
		return a.transmits > b.transmits
	}
	return a.m.ID < b.m.ID
}

// --- probe plumbing ---

// nextTarget picks the next probe target round-robin over a shuffled ring
// of probeable (alive or suspect) members, reshuffling each lap so probe
// order never settles into a pattern.
func (s *SWIM) nextTarget() (transport.NodeID, bool) {
	for tries := 0; tries < 2; tries++ {
		for s.ringPos < len(s.ring) {
			id := s.ring[s.ringPos]
			s.ringPos++
			if ms, ok := s.members[id]; ok && (ms.status == StatusAlive || ms.status == StatusSuspect) {
				return id, true
			}
		}
		s.rebuildRing()
	}
	return 0, false
}

func (s *SWIM) rebuildRing() {
	s.ring = s.ring[:0]
	for id, ms := range s.members {
		if ms.status == StatusAlive || ms.status == StatusSuspect {
			s.ring = append(s.ring, id)
		}
	}
	// Map order is random but not seeded; sort before shuffling so the
	// seeded RNG alone decides probe order.
	for i := 1; i < len(s.ring); i++ {
		for j := i; j > 0 && s.ring[j] < s.ring[j-1]; j-- {
			s.ring[j], s.ring[j-1] = s.ring[j-1], s.ring[j]
		}
	}
	for i := len(s.ring) - 1; i > 0; i-- {
		j := s.rng.Intn(i + 1)
		s.ring[i], s.ring[j] = s.ring[j], s.ring[i]
	}
	s.ringPos = 0
}

// pickProxies chooses up to indirectProxies alive members other than the
// probe target to relay an indirect ping.
func (s *SWIM) pickProxies(target transport.NodeID) []transport.NodeID {
	cand := make([]Member, 0, len(s.members))
	for _, ms := range s.members {
		if ms.status == StatusAlive && ms.ID != target {
			cand = append(cand, ms.Member)
		}
	}
	s.shuffleMembers(cand)
	if len(cand) > indirectProxies {
		cand = cand[:indirectProxies]
	}
	out := make([]transport.NodeID, len(cand))
	for i, m := range cand {
		out[i] = m.ID
	}
	return out
}

// shuffleMembers seed-shuffles in place after sorting by ID, so map
// iteration order never leaks into the packet schedule.
func (s *SWIM) shuffleMembers(ms []Member) {
	for i := 1; i < len(ms); i++ {
		for j := i; j > 0 && ms[j].ID < ms[j-1].ID; j-- {
			ms[j], ms[j-1] = ms[j-1], ms[j]
		}
	}
	for i := len(ms) - 1; i > 0; i-- {
		j := s.rng.Intn(i + 1)
		ms[i], ms[j] = ms[j], ms[i]
	}
}

func (s *SWIM) nextSeq() uint32 {
	s.seq++
	return s.seq
}

// maxStateSync caps the membership snapshot attached to a joiner's reply,
// keeping the packet inside one conservative-MTU datagram (~27 bytes per
// rumor with a host:port address). Beyond the cap a seeded random subset
// is sent; the joiner completes its view by probing what it learned.
const maxStateSync = 32

// stateSync snapshots the membership view (excluding the joiner itself)
// as rumor entries, without charging any transmission budget.
func (s *SWIM) stateSync(exclude transport.NodeID) []wireRumor {
	snap := make([]Member, 0, len(s.members))
	statuses := make(map[transport.NodeID]*memberState, len(s.members))
	for id, ms := range s.members {
		if id == exclude {
			continue
		}
		snap = append(snap, ms.Member)
		statuses[id] = ms
	}
	s.shuffleMembers(snap)
	if len(snap) > maxStateSync {
		snap = snap[:maxStateSync]
	}
	out := make([]wireRumor, 0, len(snap))
	for _, m := range snap {
		ms := statuses[m.ID]
		out = append(out, wireRumor{status: ms.status, m: ms.Member, inc: ms.inc})
	}
	return out
}

// buildPacket assembles one outbound packet with the self-introduction and
// the current piggyback batch.
func (s *SWIM) buildPacket(to transport.NodeID, kind uint8, seq uint32, about transport.NodeID) Packet {
	return s.buildPacketExtra(to, kind, seq, about, nil)
}

// buildPacketExtra is buildPacket plus un-budgeted extra rumors (the join
// state sync).
func (s *SWIM) buildPacketExtra(to transport.NodeID, kind uint8, seq uint32, about transport.NodeID, extra []wireRumor) Packet {
	p := &packet{
		kind:       kind,
		seq:        seq,
		about:      about,
		senderRole: s.self.Role,
		senderInc:  s.inc,
		senderAddr: s.self.Addr,
		rumors:     append(s.takeRumors(), extra...),
	}
	raw, err := encodePacket(p)
	if err != nil {
		// Only reachable with an oversized self/rumor addr, which New's
		// caller controls; drop to an empty packet rather than panic.
		raw, _ = encodePacket(&packet{kind: kind, seq: seq, about: about})
	}
	return Packet{To: to, Raw: raw}
}
