package rlnc

// SegmentSet is a bounded FIFO set of segment IDs: it remembers the last
// cap distinct segments added and forgets the oldest first. Every layer
// that must recognise a finished segment without growing forever (a
// store's finished set, the fleet's delivery journal, a pull policy's
// delivered memory) is one of these. The ring grows by append until it
// holds cap entries, so a set costs memory for what it has seen, not for
// its bound, and from then on it is a circular buffer whose oldest entry
// sits at head. Not safe for concurrent use.
type SegmentSet struct {
	member map[SegmentID]struct{}
	ring   []SegmentID
	head   int
	cap    int
}

// NewSegmentSet returns an empty set remembering up to cap segments; cap
// must be positive.
func NewSegmentSet(cap int) *SegmentSet {
	if cap < 1 {
		panic("rlnc: SegmentSet capacity must be positive")
	}
	return &SegmentSet{member: make(map[SegmentID]struct{}), cap: cap}
}

// Add remembers seg, evicting the oldest member when the set is full, and
// reports whether seg was new. Adding a member again changes nothing: it
// keeps its place in the eviction order.
func (s *SegmentSet) Add(seg SegmentID) bool {
	if s.Has(seg) {
		return false
	}
	if len(s.ring) < s.cap {
		s.ring = append(s.ring, seg)
	} else {
		delete(s.member, s.ring[s.head])
		s.ring[s.head] = seg
		s.head = (s.head + 1) % s.cap
	}
	s.member[seg] = struct{}{}
	return true
}

// Has reports whether seg is remembered.
func (s *SegmentSet) Has(seg SegmentID) bool {
	_, ok := s.member[seg]
	return ok
}

// Len returns how many segments the set remembers.
func (s *SegmentSet) Len() int { return len(s.ring) }

// Range visits the members oldest first, which is the eviction order: a
// fresh set of the same capacity fed the visits through Add is identical.
// f must not mutate the set.
func (s *SegmentSet) Range(f func(seg SegmentID)) {
	for i := range s.ring {
		f(s.ring[(s.head+i)%len(s.ring)])
	}
}

// Reset forgets every member and releases the ring.
func (s *SegmentSet) Reset() {
	clear(s.member)
	s.ring = nil
	s.head = 0
}
