package obs

import (
	"math/rand"
	"reflect"
	"testing"

	"p2pcollect/internal/rlnc"
)

func TestTraceContext(t *testing.T) {
	var zero TraceContext
	if zero.Valid() {
		t.Fatal("zero context reports valid")
	}
	c := TraceContext{ID: 7, Hop: 0}
	if !c.Valid() {
		t.Fatal("minted context reports invalid")
	}
	if n := c.Next(); n.ID != 7 || n.Hop != 1 {
		t.Fatalf("Next = %+v, want hop 1 same ID", n)
	}
	sat := TraceContext{ID: 7, Hop: 255}
	if n := sat.Next(); n.Hop != 255 {
		t.Fatalf("hop did not saturate: %d", n.Hop)
	}
	ev := TraceEvent{TraceID: 9, Hop: 3}
	if got := ev.Context(); got != (TraceContext{ID: 9, Hop: 3}) {
		t.Fatalf("Context = %+v", got)
	}
}

func TestTee(t *testing.T) {
	a := NewRingTracer(8)
	b := NewRingTracer(8)
	ev := TraceEvent{Kind: TraceInject, T: 1}

	Tee(a, b).Trace(ev)
	if a.Len() != 1 || b.Len() != 1 {
		t.Fatalf("tee did not fan out: %d, %d", a.Len(), b.Len())
	}
	// Nils collapse away: a single live tracer comes back unwrapped, and
	// no live tracer at all degrades to the nop tracer.
	if got := Tee(nil, a, nil); got != Tracer(a) {
		t.Fatalf("Tee(nil, a, nil) = %T, want the tracer itself", got)
	}
	if got := Tee(nil, nil); got == nil {
		t.Fatal("Tee of nothing returned nil instead of a nop tracer")
	} else {
		got.Trace(ev) // must not panic
	}
}

// TestRingTracerQueryMatchesScan drives a ring through an event stream long
// enough to wrap it several times and requires Query to return, for every
// segment at several checkpoints, exactly what a brute-force filter over
// the whole retained window (Tail(Len())) finds, in the same order; any
// divergence from the filter is a bug.
func TestRingTracerQueryMatchesScan(t *testing.T) {
	const cap, segs, events = 64, 7, 1000
	rt := NewRingTracer(cap)
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < events; i++ {
		rt.Trace(TraceEvent{
			Seg:   rlnc.SegmentID{Origin: uint64(rng.Intn(segs)), Seq: uint64(rng.Intn(3))},
			Kind:  TraceKind(rng.Intn(int(numTraceKinds))),
			T:     float64(i),
			Actor: uint64(rng.Intn(5)),
		})
		if i%97 != 0 {
			continue
		}
		window := rt.Tail(rt.Len())
		for o := 0; o < segs; o++ {
			for q := 0; q < 3; q++ {
				seg := rlnc.SegmentID{Origin: uint64(o), Seq: uint64(q)}
				var want []TraceEvent
				for _, ev := range window {
					if ev.Seg == seg {
						want = append(want, ev)
					}
				}
				if got := rt.Query(seg).Events; !reflect.DeepEqual(got, want) {
					t.Fatalf("event %d seg %v: query diverged from scan\nscan:  %+v\nquery: %+v",
						i, seg, want, got)
				}
			}
		}
	}
}
