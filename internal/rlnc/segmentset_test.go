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

// TestSegmentSetSince: the set read as a log. Positions count every new
// member, re-adds and Reset leave them alone, a read stops at its limit and
// resumes from the position it returned, and a cursor older than the
// oldest member reads from the oldest member on.
func TestSegmentSetSince(t *testing.T) {
	id := func(seq uint64) SegmentID { return SegmentID{Origin: 2, Seq: seq} }
	s := NewSegmentSet(3)
	if got, cur := s.Since(0, nil, 10); len(got) != 0 || cur != 0 {
		t.Fatalf("empty set: Since(0) = %v, %d", got, cur)
	}
	for _, seq := range []uint64{1, 2, 2, 3} {
		s.Add(id(seq))
	}
	if s.Added() != 3 {
		t.Fatalf("Added = %d after three new members and one re-add, want 3", s.Added())
	}
	got, cur := s.Since(0, nil, 2)
	if !reflect.DeepEqual(got, []SegmentID{id(1), id(2)}) || cur != 2 {
		t.Fatalf("Since(0, limit 2) = %v, %d; want [1 2], 2", got, cur)
	}
	if got, cur = s.Since(cur, got, 2); !reflect.DeepEqual(got, []SegmentID{id(1), id(2), id(3)}) || cur != 3 {
		t.Fatalf("Since(2) appended %v, %d; want 3 after [1 2], 3", got, cur)
	}
	if got, cur := s.Since(3, nil, 5); len(got) != 0 || cur != 3 {
		t.Fatalf("Since(head) = %v, %d; want nothing, 3", got, cur)
	}
	s.Add(id(4))
	s.Add(id(5)) // 1 and 2 are forgotten
	if got, cur := s.Since(1, nil, 5); !reflect.DeepEqual(got, []SegmentID{id(3), id(4), id(5)}) || cur != 5 {
		t.Fatalf("Since(1) past eviction = %v, %d; want [3 4 5], 5", got, cur)
	}
	if got, cur := s.Since(4, nil, 5); !reflect.DeepEqual(got, []SegmentID{id(5)}) || cur != 5 {
		t.Fatalf("Since(4) on a wrapped ring = %v, %d; want [5], 5", got, cur)
	}
	s.Reset()
	if got, cur := s.Since(2, nil, 5); s.Added() != 5 || len(got) != 0 || cur != 5 {
		t.Fatalf("after Reset: Added %d, Since(2) = %v, %d; want 5, nothing, 5", s.Added(), got, cur)
	}
	s.Add(id(6))
	if got, cur := s.Since(5, nil, 5); !reflect.DeepEqual(got, []SegmentID{id(6)}) || cur != 6 {
		t.Fatalf("after Reset and one Add: Since(5) = %v, %d; want [6], 6", got, cur)
	}
}
