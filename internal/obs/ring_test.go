package obs

import (
	"bytes"
	"reflect"
	"testing"
)

// TestRingUsersOldestFirstAcrossGrowAndWrap drives the package's one ring
// through the three regimes of a small bound — still growing, exactly
// full, wrapped several times over — and checks after every append that
// the window is the last min(i, cap) events, oldest first, both as Tail
// and as a flight dump.
func TestRingUsersOldestFirstAcrossGrowAndWrap(t *testing.T) {
	const capacity = 5
	rt := NewRingTracer(capacity)
	if rt.Len() != 0 || len(rt.Tail(capacity)) != 0 {
		t.Fatal("fresh ring is not empty")
	}
	for i := 1; i <= 3*capacity+2; i++ {
		rt.Trace(TraceEvent{Kind: TraceGossipHop, N: i})

		n := min(i, capacity)
		var wantN []int
		for v := i - n + 1; v <= i; v++ {
			wantN = append(wantN, v)
		}
		dump, err := ReadFlightDump(bytes.NewReader(rt.encode()))
		if err != nil {
			t.Fatal(err)
		}
		var gotN, dumpN []int
		for _, ev := range rt.Tail(capacity) {
			gotN = append(gotN, ev.N)
		}
		for _, ev := range dump {
			dumpN = append(dumpN, ev.N)
		}
		if !reflect.DeepEqual(gotN, wantN) || !reflect.DeepEqual(dumpN, wantN) || rt.Len() != n {
			t.Fatalf("after %d events: Tail = %v, dump = %v (Len %d), want %v", i, gotN, dumpN, rt.Len(), wantN)
		}
	}
}

// TestRingTracerStorageFollowsEvents requires a large bound to cost
// nothing up front: storage arrives with events, not with the bound.
func TestRingTracerStorageFollowsEvents(t *testing.T) {
	rt := NewRingTracer(1 << 18)
	if c := cap(rt.buf); c != 0 {
		t.Fatalf("fresh 1<<18-bound ring holds %d slots before any event, want 0", c)
	}
	for i := 0; i < 3; i++ {
		rt.Trace(TraceEvent{Kind: TraceGossipHop, N: i})
	}
	if c := cap(rt.buf); c > 64 {
		t.Fatalf("ring holds %d slots after 3 events, want storage for what it has seen", c)
	}
}
