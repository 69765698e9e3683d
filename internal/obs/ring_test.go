package obs

import (
	"reflect"
	"testing"
)

// TestRingUsersOldestFirstAcrossGrowAndWrap drives the flight recorder, the
// package's one grow-then-wrap ring, through the three regimes of a small
// bound — still growing, exactly full, wrapped several times over — and
// checks after every append that the window is the last min(i, cap) events,
// oldest first, and that nothing was preallocated beyond what was seen.
func TestRingUsersOldestFirstAcrossGrowAndWrap(t *testing.T) {
	const capacity = 5
	fr := NewFlightRecorder(capacity)
	if fr.Len() != 0 || len(fr.Events()) != 0 {
		t.Fatal("fresh recorder is not empty")
	}
	for i := 1; i <= 3*capacity+2; i++ {
		fr.Trace(TraceEvent{Kind: TraceGossipHop, N: i})

		n := i
		if n > capacity {
			n = capacity
		}
		var wantN []int
		for v := i - n + 1; v <= i; v++ {
			wantN = append(wantN, v)
		}
		var gotN []int
		for _, ev := range fr.Events() {
			gotN = append(gotN, ev.N)
		}
		if !reflect.DeepEqual(gotN, wantN) || fr.Len() != n {
			t.Fatalf("after %d events: Events = %v (Len %d), want %v", i, gotN, fr.Len(), wantN)
		}
	}
	if c := cap(NewFlightRecorder(4096).buf); c != 0 {
		t.Errorf("fresh 4096-bound recorder holds %d preallocated slots, want 0", c)
	}
}
