package rlnc

// SegmentSet is a bounded FIFO set of segment IDs: it remembers the last
// cap distinct segments added and forgets the oldest first. Every layer
// that must recognise a finished segment without growing forever (a
// store's finished set, the fleet's delivery journal, a pull policy's
// delivered memory) is one of these. The ring grows by append until it
// holds cap entries, so a set costs memory for what it has seen, not for
// its bound, and from then on it is a circular buffer whose oldest entry
// sits at head. The set is also a log: every new member takes the next
// position (Added), and Since reads the members after a position, so a
// reader that keeps a cursor learns what the set took since it last looked.
// Not safe for concurrent use.
type SegmentSet struct {
	member map[SegmentID]struct{}
	ring   []SegmentID
	head   int
	cap    int
	added  uint64 // position of the newest member
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
	s.added++
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

// Added returns how many segments Add has taken as new over the set's
// life: the log position of the newest member. It never goes back, not even
// on Reset, so a cursor taken from it stays meaningful.
func (s *SegmentSet) Added() uint64 { return s.added }

// Since appends to dst, oldest first, at most limit members added after
// position cursor, and returns dst with the position the read reached. A
// member the set has forgotten is skipped: a cursor older than the oldest
// member reads from the oldest member on.
func (s *SegmentSet) Since(cursor uint64, dst []SegmentID, limit int) ([]SegmentID, uint64) {
	oldest := s.added - uint64(len(s.ring)) // the position before the oldest member
	cursor = min(max(cursor, oldest), s.added)
	for ; cursor < s.added && limit > 0; limit-- {
		dst = append(dst, s.ring[(s.head+int(cursor-oldest))%len(s.ring)])
		cursor++
	}
	return dst, cursor
}

// Reset forgets every member and releases the ring.
func (s *SegmentSet) Reset() {
	clear(s.member)
	s.ring = nil
	s.head = 0
}
