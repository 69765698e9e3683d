package obs

import (
	"reflect"
	"testing"
)

// TestRingUsersOldestFirstAcrossGrowAndWrap drives both ring users through
// the three regimes of a small bound — still growing, exactly full, wrapped
// several times over — and checks after every append that the window is the
// last min(i, cap) values, oldest first, and that nothing was preallocated
// beyond what was seen.
func TestRingUsersOldestFirstAcrossGrowAndWrap(t *testing.T) {
	const capacity = 5
	ts := NewTimeSeries("s", capacity)
	fr := NewFlightRecorder(capacity)
	if ts.Len() != 0 || fr.Len() != 0 || len(ts.Points()) != 0 || len(fr.Events()) != 0 {
		t.Fatal("fresh instruments are not empty")
	}
	for i := 1; i <= 3*capacity+2; i++ {
		ts.Observe(float64(i), float64(10*i))
		fr.Trace(TraceEvent{Kind: TraceGossipHop, N: i})

		n := i
		if n > capacity {
			n = capacity
		}
		var wantPts []Point
		var wantN []int
		for v := i - n + 1; v <= i; v++ {
			wantPts = append(wantPts, Point{T: float64(v), V: float64(10 * v)})
			wantN = append(wantN, v)
		}
		if got := ts.Points(); !reflect.DeepEqual(got, wantPts) || ts.Len() != n {
			t.Fatalf("after %d samples: Points = %v (Len %d), want %v", i, got, ts.Len(), wantPts)
		}
		var gotN []int
		for _, ev := range fr.Events() {
			gotN = append(gotN, ev.N)
		}
		if !reflect.DeepEqual(gotN, wantN) || fr.Len() != n {
			t.Fatalf("after %d events: Events = %v (Len %d), want %v", i, gotN, fr.Len(), wantN)
		}
	}
	if c := cap(NewTimeSeries("s", 4096).ring.buf) + cap(NewFlightRecorder(4096).ring.buf); c != 0 {
		t.Errorf("fresh 4096-bound instruments hold %d preallocated slots, want 0", c)
	}
}
