package membership

import (
	"testing"

	"p2pcollect/internal/transport"
)

// bus wires SWIM cores together deterministically: every emitted packet is
// delivered immediately (or dropped, per the drop filter) at the same
// logical time, so tests control the clock completely.
type bus struct {
	nodes map[transport.NodeID]*SWIM
	// drop, if set, filters deliveries: return true to lose the packet.
	drop func(from, to transport.NodeID) bool
}

func newBus() *bus {
	return &bus{nodes: make(map[transport.NodeID]*SWIM)}
}

func (b *bus) add(s *SWIM) { b.nodes[s.Self().ID] = s }

// step ticks every node at now and delivers all resulting traffic —
// including replies to replies — to quiescence.
func (b *bus) step(now float64) {
	type envelope struct {
		from transport.NodeID
		p    Packet
	}
	var queue []envelope
	for id, s := range b.nodes {
		for _, p := range s.Tick(now) {
			queue = append(queue, envelope{from: id, p: p})
		}
	}
	for len(queue) > 0 {
		e := queue[0]
		queue = queue[1:]
		if b.drop != nil && b.drop(e.from, e.p.To) {
			continue
		}
		dst, ok := b.nodes[e.p.To]
		if !ok {
			continue
		}
		for _, p := range dst.Handle(now, e.from, e.p.Raw) {
			queue = append(queue, envelope{from: e.p.To, p: p})
		}
	}
}

// run steps the bus from 0 to seconds in dt increments.
func (b *bus) run(seconds, dt float64) {
	for now := dt; now <= seconds; now += dt {
		b.step(now)
	}
}

func member(id transport.NodeID) Member {
	return Member{ID: id, Addr: "", Role: RolePeer}
}

func cfg(seed int64, seeds ...Member) Config {
	return Config{Seeds: seeds, Period: 1.0, Seed: seed}
}

// TestJoinBySeedAndRumor boots five nodes that each know only node 1 and
// asserts rumors give every node the full membership view.
func TestJoinBySeedAndRumor(t *testing.T) {
	b := newBus()
	ids := []transport.NodeID{1, 2, 3, 4, 5}
	for i, id := range ids {
		var seeds []Member
		if id != 1 {
			seeds = []Member{member(1)}
		}
		b.add(New(member(id), cfg(int64(i+1), seeds...)))
	}
	b.run(10, 0.25)
	for _, id := range ids {
		alive := b.nodes[id].Alive()
		if len(alive) != len(ids)-1 {
			t.Fatalf("node %d sees %d alive members, want %d: %+v", id, len(alive), len(ids)-1, alive)
		}
	}
}

// TestSuspectDeadTiming kills one member of a three-node cluster and
// asserts the survivors' failure detector hits suspect and dead on the
// schedule its config promises: suspect within one probe of the target's
// turn, dead exactly SuspectTimeout later (within one tick step).
func TestSuspectDeadTiming(t *testing.T) {
	const (
		period         = 1.0
		suspectTimeout = 3.0
		dt             = 0.25
	)
	var cur, suspectAt, deadAt float64
	c := Config{
		Seeds:          []Member{member(2)},
		Period:         period,
		SuspectTimeout: suspectTimeout,
		Seed:           7,
	}
	// OnUpdate fires synchronously inside Tick, so cur is the tick's clock.
	c.OnUpdate = func(m Member, st Status) {
		if m.ID != 2 {
			return
		}
		switch st {
		case StatusSuspect:
			suspectAt = cur
		case StatusDead:
			deadAt = cur
		}
	}
	s := New(member(1), c)
	for tick := dt; tick <= 12; tick += dt {
		cur = tick
		s.Tick(tick) // node 2 never answers
	}
	if suspectAt == 0 {
		t.Fatal("target never suspected")
	}
	if deadAt == 0 {
		t.Fatal("target never declared dead")
	}
	// The first probe starts at the first tick and runs one period before
	// the verdict, so suspicion lands within [period, period+2*dt].
	if suspectAt < period || suspectAt > period+2*dt {
		t.Errorf("suspected at %.2fs, want ≈%.2fs", suspectAt, period+dt)
	}
	gap := deadAt - suspectAt
	if gap < suspectTimeout || gap > suspectTimeout+2*dt {
		t.Errorf("suspect→dead took %.2fs, config says %.2fs", gap, suspectTimeout)
	}
}

// TestRefutation delivers a suspect rumor about self and asserts the
// incarnation jumps past the rumor's and an alive rumor goes out.
func TestRefutation(t *testing.T) {
	s := New(member(1), cfg(1, member(2)))
	raw, err := encodePacket(&packet{
		kind: kindAck, seq: 1, about: 2,
		rumors: []wireRumor{{status: StatusSuspect, m: member(1), inc: 5}},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Handle(0.1, 2, raw)
	if s.Incarnation() != 6 {
		t.Fatalf("incarnation %d after refuting inc-5 suspicion, want 6", s.Incarnation())
	}
	// The refutation must ride the next outbound packet.
	pkts := s.Tick(0.2)
	if len(pkts) == 0 {
		t.Fatal("no outbound packet after refutation")
	}
	p, err := decodePacket(pkts[0].Raw)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range p.rumors {
		if r.m.ID == 1 && r.status == StatusAlive && r.inc == 6 {
			return
		}
	}
	t.Fatalf("alive(self, inc=6) rumor missing from piggyback: %+v", p.rumors)
}

// TestIndirectProbeSavesPartitionedPath drops the direct a→b path both
// ways but leaves proxy c connected to both; the indirect ping-req must
// keep b alive in a's view.
func TestIndirectProbeSavesPartitionedPath(t *testing.T) {
	b := newBus()
	all := []Member{member(1), member(2), member(3)}
	for i, m := range all {
		b.add(New(m, cfg(int64(i+1), all...)))
	}
	b.drop = func(from, to transport.NodeID) bool {
		return (from == 1 && to == 2) || (from == 2 && to == 1)
	}
	b.run(12, 0.25)
	if st, ok := b.nodes[1].Status(2); !ok || st != StatusAlive {
		t.Fatalf("node 1 sees node 2 as %v despite live proxy path", st)
	}
	if st, ok := b.nodes[2].Status(1); !ok || st != StatusAlive {
		t.Fatalf("node 2 sees node 1 as %v despite live proxy path", st)
	}
}

// TestLeaveSpreads has one node leave gracefully and asserts the others
// converge on StatusLeft without a suspicion detour.
func TestLeaveSpreads(t *testing.T) {
	b := newBus()
	all := []Member{member(1), member(2), member(3)}
	for i, m := range all {
		b.add(New(m, cfg(int64(i+1), all...)))
	}
	b.run(4, 0.25)
	// Node 3 leaves: its farewell packets are delivered by hand, then it
	// goes silent.
	leaver := b.nodes[3]
	delete(b.nodes, 3)
	for _, p := range leaver.Leave(4.25) {
		if dst, ok := b.nodes[p.To]; ok {
			dst.Handle(4.25, 3, p.Raw)
		}
	}
	b.run(8, 0.25) // note: run restarts at dt; harmless, states persist
	for _, id := range []transport.NodeID{1, 2} {
		if st, _ := b.nodes[id].Status(3); st != StatusLeft {
			t.Fatalf("node %d sees the leaver as %v, want left", id, st)
		}
	}
}

// TestRejoinAfterDeath kills a node, waits for the dead verdict, then has
// a fresh incarnation of the same ID rejoin through a seed and asserts it
// returns to the alive set.
func TestRejoinAfterDeath(t *testing.T) {
	b := newBus()
	all := []Member{member(1), member(2), member(3)}
	for i, m := range all {
		b.add(New(m, cfg(int64(i+1), all...)))
	}
	b.run(3, 0.25)
	delete(b.nodes, 3) // crash
	b.run(15, 0.25)
	if st, _ := b.nodes[1].Status(3); st != StatusDead {
		t.Fatalf("crashed node is %v, want dead", st)
	}
	// Rejoin: a new process with the same ID and zero incarnation.
	b.add(New(member(3), cfg(99, member(1))))
	b.run(10, 0.25)
	for _, id := range []transport.NodeID{1, 2} {
		if st, _ := b.nodes[id].Status(3); st != StatusAlive {
			t.Fatalf("node %d sees the rejoined node as %v, want alive", id, st)
		}
	}
}

// TestCodecRoundTrip round-trips a representative packet.
func TestCodecRoundTrip(t *testing.T) {
	in := &packet{
		kind:       kindPingReq,
		seq:        0xDEAD,
		about:      42,
		senderRole: RoleServer,
		senderInc:  7,
		senderAddr: "127.0.0.1:9999",
		rumors: []wireRumor{
			{status: StatusSuspect, m: Member{ID: 9, Addr: "10.0.0.1:1", Role: RolePeer}, inc: 3},
			{status: StatusLeft, m: Member{ID: 11, Role: RoleServer}, inc: 0},
		},
	}
	raw, err := encodePacket(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := decodePacket(raw)
	if err != nil {
		t.Fatal(err)
	}
	if out.kind != in.kind || out.seq != in.seq || out.about != in.about {
		t.Fatalf("header changed: %+v vs %+v", out, in)
	}
	if out.senderRole != in.senderRole || out.senderInc != in.senderInc || out.senderAddr != in.senderAddr {
		t.Fatalf("sender intro changed: %+v vs %+v", out, in)
	}
	if len(out.rumors) != len(in.rumors) {
		t.Fatalf("rumor count changed: %d vs %d", len(out.rumors), len(in.rumors))
	}
	for i := range in.rumors {
		if out.rumors[i] != in.rumors[i] {
			t.Fatalf("rumor %d changed: %+v vs %+v", i, out.rumors[i], in.rumors[i])
		}
	}
}

// TestDecodeRejectsGarbage spot-checks the strict-decode contract.
func TestDecodeRejectsGarbage(t *testing.T) {
	good, err := encodePacket(&packet{kind: kindPing, seq: 1, about: 2})
	if err != nil {
		t.Fatal(err)
	}
	bad := [][]byte{
		nil,
		{},
		{0xFF},
		append([]byte{}, good[:len(good)-1]...), // truncated
		append(append([]byte{}, good...), 0xCC), // trailing byte
		func() []byte { b := append([]byte{}, good...); b[0] = 2; return b }(),     // bad version
		func() []byte { b := append([]byte{}, good...); b[1] = 9; return b }(),     // bad kind
		func() []byte { b := append([]byte{}, good...); b[14] = 0xFF; return b }(), // bad sender role
	}
	for i, raw := range bad {
		if _, err := decodePacket(raw); err == nil {
			t.Errorf("case %d: garbage decoded", i)
		}
	}
}

// swimTick is one detector tick, 4× per period, over a 64-member view in
// which no member answers. Every probe ends in a suspicion and every
// suspicion in a death, so after about 70 simulated seconds the tick only
// sweeps 64 tombstones: the steady state a long benchmark times, reached
// here before the first timed tick.
func swimTick(tb testing.TB) func() {
	seeds := make([]Member, 64)
	for i := range seeds {
		seeds[i] = Member{ID: transport.NodeID(i + 2), Addr: "127.0.0.1:9999"}
	}
	s := New(Member{ID: 1, Addr: "127.0.0.1:1"}, Config{Seeds: seeds, Period: 1.0, Seed: 1})
	now := 0.0
	tick := func() {
		now += 0.25
		s.Tick(now)
	}
	for _, m := range seeds {
		for st, _ := s.Status(m.ID); st != StatusDead; st, _ = s.Status(m.ID) {
			if now > 1000 {
				tb.Fatalf("member %d still %v at t=%v", m.ID, st, now)
			}
			tick()
		}
	}
	return tick
}

func TestSWIMTickAllocatesNothing(t *testing.T) {
	if n := testing.AllocsPerRun(100, swimTick(t)); n != 0 {
		t.Errorf("a tick over 64 members: %v allocations, want 0", n)
	}
}

func BenchmarkSWIMTick(b *testing.B) {
	tick := swimTick(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tick()
	}
}
