package rlnc

import (
	"reflect"
	"testing"
)

func TestSegmentSet(t *testing.T) {
	id := func(seq uint64) SegmentID { return SegmentID{Origin: 1, Seq: seq} }
	ids := func(seqs ...uint64) []SegmentID {
		out := make([]SegmentID, len(seqs))
		for i, seq := range seqs {
			out[i] = id(seq)
		}
		return out
	}
	cases := []struct {
		name    string
		cap     int
		add     []uint64
		want    []uint64 // Range order, oldest first
		evicted []uint64
	}{
		{"empty", 3, nil, nil, []uint64{0}},
		{"grows by append below cap", 4, []uint64{5, 6}, []uint64{5, 6}, nil},
		{"exactly full", 3, []uint64{1, 2, 3}, []uint64{1, 2, 3}, nil},
		{"wraps, oldest evicted first", 3, []uint64{1, 2, 3, 4, 5}, []uint64{3, 4, 5}, []uint64{1, 2}},
		{"wraps more than once", 2, []uint64{1, 2, 3, 4, 5, 6, 7}, []uint64{6, 7}, []uint64{1, 2, 3, 4, 5}},
		{"repeated add keeps its slot", 3, []uint64{1, 1, 2, 3}, []uint64{1, 2, 3}, nil},
		{"repeated add after wrap does not refresh", 3, []uint64{1, 2, 3, 4, 2, 5}, []uint64{3, 4, 5}, []uint64{1, 2}},
		{"cap one", 1, []uint64{1, 2}, []uint64{2}, []uint64{1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := NewSegmentSet(tc.cap)
			seen := map[uint64]bool{}
			for _, seq := range tc.add {
				member := s.Has(id(seq))
				if added := s.Add(id(seq)); added == member {
					t.Fatalf("Add(%d) = %v with Has = %v before it", seq, added, member)
				}
				seen[seq] = true
			}
			var got []SegmentID
			s.Range(func(seg SegmentID) { got = append(got, seg) })
			if want := ids(tc.want...); !reflect.DeepEqual(got, want) && (len(got) != 0 || len(want) != 0) {
				t.Errorf("Range = %v, want %v", got, want)
			}
			if s.Len() != len(tc.want) {
				t.Errorf("Len = %d, want %d", s.Len(), len(tc.want))
			}
			for _, seq := range tc.want {
				if !s.Has(id(seq)) {
					t.Errorf("member %d missing", seq)
				}
			}
			for _, seq := range tc.evicted {
				if s.Has(id(seq)) {
					t.Errorf("%d still a member, want it forgotten", seq)
				}
			}

			// Range order is the eviction order: replaying it rebuilds the set.
			replay := NewSegmentSet(tc.cap)
			for _, seg := range got {
				replay.Add(seg)
			}
			replay.Add(id(100))
			s.Add(id(100))
			var a, b []SegmentID
			s.Range(func(seg SegmentID) { a = append(a, seg) })
			replay.Range(func(seg SegmentID) { b = append(b, seg) })
			if !reflect.DeepEqual(a, b) {
				t.Errorf("after one more Add the original holds %v, its replay %v", a, b)
			}

			s.Reset()
			if s.Len() != 0 || s.Has(id(100)) {
				t.Errorf("after Reset: Len %d, Has(100) %v", s.Len(), s.Has(id(100)))
			}
			if !s.Add(id(7)) || s.Len() != 1 {
				t.Error("set unusable after Reset")
			}
		})
	}

	// A full set trading its oldest member for a new one allocates nothing,
	// and neither does re-adding a member.
	t.Run("steady state allocates nothing", func(t *testing.T) {
		s := NewSegmentSet(64)
		var seq uint64
		add := func() {
			s.Add(id(seq))
			s.Add(id(seq))
			seq++
		}
		for i := 0; i < 1024; i++ {
			add()
		}
		if allocs := testing.AllocsPerRun(5000, add); allocs > 0.1 {
			t.Errorf("Add allocates %.2f times per call in steady state, want 0", allocs)
		}
		if s.Len() != 64 {
			t.Errorf("Len = %d, want 64", s.Len())
		}
	})
}
