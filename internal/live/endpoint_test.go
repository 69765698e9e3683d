package live

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"p2pcollect/internal/membership"
	"p2pcollect/internal/randx"
	"p2pcollect/internal/transport"
)

// newTestEndpoint builds a bare endpoint — no Node, no Server — on a fresh
// in-memory network.
func newTestEndpoint(seed int64) *endpoint {
	e := &endpoint{}
	e.init(transport.NewNetwork().Join(1), membership.RolePeer, seed, nil, nil, nil, "")
	return e
}

// TestEndpointPacedDraws pins the pacing contract the seeded streams rest
// on: one rng.Exp before the first event and one after each event that
// asks to continue, nothing else — whether the loop ends because fn said
// so or because the endpoint stopped.
func TestEndpointPacedDraws(t *testing.T) {
	const seed, rate, events = 42, 5000.0, 40
	// nextAfter is the protocol RNG's next output once draws Exp samples
	// have been taken from a fresh stream.
	nextAfter := func(draws int) int64 {
		ref := randx.New(seed)
		for i := 0; i < draws; i++ {
			ref.Exp(rate)
		}
		return ref.Int63()
	}

	t.Run("fn returns false", func(t *testing.T) {
		e := newTestEndpoint(seed)
		fired := 0
		done := make(chan struct{})
		err := e.start(nil, func() {
			defer close(done)
			e.paced(rate, func() bool { fired++; return fired < events })
		})
		if err != nil {
			t.Fatal(err)
		}
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("paced never ended after fn returned false")
		}
		e.shutdown(true, nil)
		// The last event drew nothing: 1 up front + (events-1) continues.
		if fired != events {
			t.Fatalf("fn ran %d times, want %d", fired, events)
		}
		if got, want := e.rng.Int63(), nextAfter(events); got != want {
			t.Errorf("RNG is not %d Exp draws into its stream", events)
		}
	})

	t.Run("endpoint stops", func(t *testing.T) {
		e := newTestEndpoint(seed)
		fired := 0
		reached := make(chan struct{})
		err := e.start(nil, func() {
			e.paced(rate, func() bool {
				if fired++; fired == events {
					close(reached)
				}
				return true
			})
		})
		if err != nil {
			t.Fatal(err)
		}
		select {
		case <-reached:
		case <-time.After(10 * time.Second):
			t.Fatal("paced fired too few events")
		}
		e.shutdown(true, nil) // returns only once the loop has exited
		if got, want := e.rng.Int63(), nextAfter(fired+1); got != want {
			t.Errorf("after %d events the RNG is not %d Exp draws into its stream", fired, fired+1)
		}
	})

	t.Run("zero rate parks", func(t *testing.T) {
		e := newTestEndpoint(seed)
		if err := e.start(nil, func() { e.paced(0, func() bool { t.Error("event at rate 0"); return true }) }); err != nil {
			t.Fatal(err)
		}
		time.Sleep(20 * time.Millisecond)
		e.shutdown(true, nil)
	})
}

// TestEndpointLifecycle: a second start is refused, every loop has exited
// when shutdown returns, and shutdown is idempotent in both flavours.
func TestEndpointLifecycle(t *testing.T) {
	for _, graceful := range []bool{true, false} {
		e := newTestEndpoint(1)
		var mu sync.Mutex
		running, ticks := 0, 0
		loop := func(body func()) func() {
			return func() {
				mu.Lock()
				running++
				mu.Unlock()
				body()
				mu.Lock()
				running--
				mu.Unlock()
			}
		}
		readied := false
		err := e.start(func() { readied = e.now() >= 0 && !e.started.IsZero() },
			loop(func() { e.receive(func(*transport.Message) {}) }),
			loop(func() {
				e.every(time.Millisecond, func() {
					mu.Lock()
					ticks++
					mu.Unlock()
				})
			}),
			loop(func() { e.paced(100, func() bool { return true }) }),
		)
		if err != nil {
			t.Fatal(err)
		}
		if !readied {
			t.Error("ready did not run with the clock started")
		}
		if err := e.start(nil); err == nil {
			t.Error("second start succeeded")
		}
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
			mu.Lock()
			ok := running == 3 && ticks > 0
			mu.Unlock()
			if ok {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("loops never came up")
			}
		}
		afters := 0
		e.shutdown(graceful, func() { afters++ })
		mu.Lock()
		if running != 0 {
			t.Errorf("graceful=%v: %d loops still running after shutdown returned", graceful, running)
		}
		mu.Unlock()
		e.shutdown(graceful, func() { afters++ })
		e.shutdown(!graceful, func() { afters++ })
		if afters != 1 {
			t.Errorf("graceful=%v: teardown ran %d times, want once", graceful, afters)
		}
		if _, open := <-e.tr.Receive(); open {
			t.Errorf("graceful=%v: transport left open", graceful)
		}
	}
}

// TestEndpointShutdownLeaveVsCrash: a graceful shutdown says goodbye — the
// other member hears "left" — and a crash says nothing, so the other member
// has to find out by probing and hears "dead", never "left". Either way the
// shared onMember drops the departed from the survivor's contact set.
func TestEndpointShutdownLeaveVsCrash(t *testing.T) {
	for _, graceful := range []bool{true, false} {
		net := transport.NewNetwork()
		swim := func(other transport.NodeID, onUpdate func(membership.Member, membership.Status)) *membership.Config {
			return &membership.Config{
				Seeds:          []membership.Member{{ID: other, Role: membership.RolePeer}},
				Period:         0.04,
				SuspectTimeout: 0.12,
				OnUpdate:       onUpdate,
			}
		}
		heard := make(chan membership.Status, 16) // b's view of a; ample for alive→suspect→dead
		a, b := &endpoint{}, &endpoint{}
		a.init(net.Join(1), membership.RolePeer, 1, nil, swim(2, nil), nil, "")
		b.init(net.Join(2), membership.RolePeer, 2, nil, swim(1, func(m membership.Member, st membership.Status) {
			if m.ID == 1 {
				heard <- st
			}
		}), nil, "")
		for _, e := range []*endpoint{a, b} {
			if err := e.start(nil, func() { e.receive(func(*transport.Message) {}) }); err != nil {
				t.Fatal(err)
			}
		}
		defer b.shutdown(true, nil)
		b.mu.Lock()
		seeded := b.peers.Len() == 1 && b.peers.At(0) == 1
		b.mu.Unlock()
		if !seeded {
			t.Fatal("seed member never reached the contact set")
		}
		time.Sleep(100 * time.Millisecond) // a few probe rounds: both sides alive and acked

		a.shutdown(graceful, nil)
		want, never := membership.StatusLeft, membership.StatusDead
		if !graceful {
			want, never = never, want
		}
		for deadline := time.After(10 * time.Second); ; {
			var st membership.Status
			select {
			case st = <-heard:
			case <-deadline:
				t.Fatalf("graceful=%v: survivor never heard %v", graceful, want)
			}
			if st == never {
				t.Fatalf("graceful=%v: survivor heard %v", graceful, never)
			}
			if st == want {
				break
			}
		}
		b.mu.Lock()
		if n := b.peers.Len(); n != 0 {
			t.Errorf("graceful=%v: departed member still in the contact set (%d entries)", graceful, n)
		}
		b.mu.Unlock()
	}
}

// routeRecorder is an in-memory transport with an address book that only
// remembers what it was told.
type routeRecorder struct {
	transport.Transport
	mu     sync.Mutex
	routes map[transport.NodeID]string
}

func (r *routeRecorder) AddRoute(id transport.NodeID, addr string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.routes[id] = addr
}

// TestEndpointMemberUpdateOrder: by the time a user's OnUpdate hears that a
// member is alive, the transport can already dial it and the contact set
// already holds it — for a seed, that is during construction.
func TestEndpointMemberUpdateOrder(t *testing.T) {
	tr := &routeRecorder{Transport: transport.NewNetwork().Join(1), routes: map[transport.NodeID]string{}}
	e := &endpoint{}
	calls := 0
	e.init(tr, membership.RolePeer, 1, nil, &membership.Config{
		Seeds: []membership.Member{{ID: 2, Addr: "10.0.0.2:7000", Role: membership.RolePeer}},
		OnUpdate: func(m membership.Member, st membership.Status) {
			calls++
			tr.mu.Lock()
			addr := tr.routes[m.ID]
			tr.mu.Unlock()
			e.mu.Lock()
			contact := e.peers.Len() == 1 && e.peers.At(0) == uint64(m.ID)
			e.mu.Unlock()
			if st != membership.StatusAlive || addr != m.Addr || !contact {
				t.Errorf("OnUpdate(%v, %v): route %q, in contact set %v", m, st, addr, contact)
			}
		},
	}, nil, "")
	if calls != 1 {
		t.Errorf("OnUpdate ran %d times for one seed", calls)
	}
	if st, ok := e.MemberStatus(2); !ok || st != membership.StatusAlive || len(e.AliveMembers()) != 1 {
		t.Errorf("seed not alive in the local view: %v %v", st, ok)
	}
}

// TestWallClockConfinedToEndpoint keeps the clock seam one file wide: no
// non-test file of this package other than endpoint.go may read the wall
// clock, sleep, or create a timer (durations and time constants are fine;
// it is the calls that tie code to real time), and endpoint.go itself holds
// one clock read, one elapsed-time read, one timer and one ticker. The
// membership package, which the endpoint drives on that clock, holds none.
func TestWallClockConfinedToEndpoint(t *testing.T) {
	banned := map[string]bool{
		"Now": true, "Since": true, "NewTimer": true, "NewTicker": true,
		"After": true, "AfterFunc": true, "Sleep": true,
	}
	var names []string
	for _, dir := range []string{".", "../membership"} {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, entry := range entries {
			names = append(names, filepath.Join(dir, entry.Name()))
		}
	}
	fset := token.NewFileSet()
	inEndpoint := map[string]int{}
	for _, name := range names {
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		timePkg := ""
		for _, imp := range file.Imports {
			if imp.Path.Value != `"time"` {
				continue
			}
			timePkg = "time"
			if imp.Name != nil {
				timePkg = imp.Name.Name
			}
		}
		if timePkg == "." || timePkg == "_" {
			t.Errorf("%s imports time as %q; the guard cannot see through that", name, timePkg)
		}
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != timePkg || !banned[sel.Sel.Name] {
				return true
			}
			if name == "endpoint.go" {
				inEndpoint[sel.Sel.Name]++
			} else {
				t.Errorf("%s: time.%s outside endpoint.go", fset.Position(sel.Pos()), sel.Sel.Name)
			}
			return true
		})
	}
	want := map[string]int{"Now": 1, "Since": 1, "NewTimer": 1, "NewTicker": 1}
	if !reflect.DeepEqual(inEndpoint, want) {
		t.Errorf("endpoint.go wall-clock sites = %v, want %v", inEndpoint, want)
	}
}
