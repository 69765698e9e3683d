package obs

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"p2pcollect/internal/rlnc"
)

func TestRingTracerWrapAndTail(t *testing.T) {
	rt := NewRingTracer(4)
	for i := 0; i < 10; i++ {
		rt.Trace(TraceEvent{Seg: rlnc.SegmentID{Origin: 1, Seq: uint64(i)}, T: float64(i)})
	}
	if rt.Len() != 4 {
		t.Fatalf("Len = %d, want 4", rt.Len())
	}
	tail := rt.Tail(10)
	if len(tail) != 4 {
		t.Fatalf("Tail returned %d events", len(tail))
	}
	// The oldest six wrapped out; events 6..9 remain, oldest-first.
	for i, ev := range tail {
		if want := float64(6 + i); ev.T != want {
			t.Errorf("tail[%d].T = %g, want %g", i, ev.T, want)
		}
	}
	if short := rt.Tail(2); len(short) != 2 || short[0].T != 8 || short[1].T != 9 {
		t.Errorf("Tail(2) = %+v", short)
	}
}

func TestRingTracerQueryAndPhases(t *testing.T) {
	rt := NewRingTracer(64)
	seg := rlnc.SegmentID{Origin: 3, Seq: 7}
	other := rlnc.SegmentID{Origin: 9, Seq: 1}
	rt.Trace(TraceEvent{Seg: seg, Kind: TraceInject, T: 1.0, Actor: 3})
	rt.Trace(TraceEvent{Seg: other, Kind: TraceInject, T: 1.5, Actor: 9})
	rt.Trace(TraceEvent{Seg: seg, Kind: TraceGossipHop, T: 2.0, Actor: 5, N: 1})
	rt.Trace(TraceEvent{Seg: seg, Kind: TraceServerRank, T: 3.0, Actor: 0, N: 1})
	rt.Trace(TraceEvent{Seg: seg, Kind: TraceDelivered, T: 4.0, Actor: 0})
	rt.Trace(TraceEvent{Seg: seg, Kind: TraceDecoded, T: 4.5, Actor: 0})

	st := rt.Query(seg)
	if len(st.Events) != 5 {
		t.Fatalf("Query returned %d events, want 5 (other segment filtered)", len(st.Events))
	}
	phases := st.Phases()
	want := map[string]float64{
		"inject→firstHop":    1.0,
		"firstHop→delivered": 2.0,
		"inject→delivered":   3.0,
		"delivered→decoded":  0.5,
	}
	if len(phases) != len(want) {
		t.Fatalf("Phases = %+v, want %d spans", phases, len(want))
	}
	for _, p := range phases {
		if w, ok := want[p.Name]; !ok || p.Dur != w {
			t.Errorf("phase %q = %g, want %g", p.Name, p.Dur, w)
		}
	}
}

func TestSegmentTracePhasesPartial(t *testing.T) {
	for _, tc := range []struct {
		name   string
		events []TraceEvent
		want   []Phase
	}{
		// A trace missing the decode milestone omits that span, not a zero.
		{"no decode", []TraceEvent{
			{Kind: TraceInject, T: 0},
			{Kind: TraceDelivered, T: 2},
		}, []Phase{{"inject→delivered", 2}}},
		// A live server delivers at decode: the decode is the delivery.
		{"decode without delivery", []TraceEvent{
			{Kind: TraceInject, T: 0},
			{Kind: TraceGossipHop, T: 1},
			{Kind: TraceDecoded, T: 3},
		}, []Phase{{"inject→firstHop", 1}, {"firstHop→delivered", 2}, {"inject→delivered", 3}}},
	} {
		if got := (SegmentTrace{Events: tc.events}).Phases(); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: Phases = %+v, want %+v", tc.name, got, tc.want)
		}
	}
}

func TestTraceKindJSON(t *testing.T) {
	b, err := json.Marshal(TraceEvent{Kind: TraceServerRank, N: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"kind":"serverRank"`) {
		t.Errorf("kind not serialized by name: %s", b)
	}
}

func TestNopTracerSatisfiesInterface(t *testing.T) {
	var tr Tracer = NopTracer{}
	tr.Trace(TraceEvent{}) // must not panic
	if _, ok := tr.(*RingTracer); ok {
		t.Fatal("NopTracer is a RingTracer?")
	}
}

func TestRingTracerConcurrent(t *testing.T) {
	// Concurrent traces and queries under -race.
	rt := NewRingTracer(128)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 1000; i++ {
			rt.Trace(TraceEvent{Seg: rlnc.SegmentID{Seq: uint64(i)}, T: float64(i)})
		}
	}()
	for i := 0; i < 100; i++ {
		rt.Tail(16)
		rt.Query(rlnc.SegmentID{Seq: 1})
	}
	<-done
}
