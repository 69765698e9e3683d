package fleet

import (
	"sync"

	"p2pcollect/internal/rlnc"
)

// DefaultJournalCap bounds the journal's memory of delivered segments.
const DefaultJournalCap = 1 << 20

// Journal is the fleet's coordinator-free delivery dedup: a segment is
// delivered by whichever shard first reaches full rank, and Claim makes
// that race winner-take-all. Entries are bounded by a FIFO eviction ring
// (an evicted segment could at worst be delivered again — the same
// contract as the per-server finished set). Safe for concurrent use by
// all shards.
type Journal struct {
	mu        sync.Mutex
	delivered map[rlnc.SegmentID]bool
	// ring holds the remembered segments. It grows by append, oldest first,
	// until it reaches cap entries — a journal costs memory for what it has
	// seen, not for its bound — and from then on is a circular buffer whose
	// oldest entry sits at head.
	ring      []rlnc.SegmentID
	cap       int
	head      int
	persister JournalPersister
}

// JournalPersister records winning claims durably. Persist is called under
// the journal lock, before the claim is admitted in RAM and before Claim
// returns true — so a caller that goes on to deliver knows the claim is
// already on disk, and a crash between persist and delivery costs at most
// that one delivery (at-most-once), never a duplicate. On an error the
// journal is left untouched and the Claim is lost (the next full-rank shard
// retries it).
type JournalPersister interface {
	Persist(seg rlnc.SegmentID) error
}

// NewJournal builds a journal remembering up to cap deliveries; cap <= 0
// selects DefaultJournalCap.
func NewJournal(cap int) *Journal {
	return NewJournalBacked(cap, nil, nil)
}

// NewJournalBacked builds a journal preloaded with previously persisted
// claims (oldest first) and backed by p for new ones; both may be nil/empty.
// Durable fleets share one backed journal so a shard restarted after a
// crash cannot re-deliver a segment another shard (or its own pre-crash
// self) already claimed.
func NewJournalBacked(cap int, persisted []rlnc.SegmentID, p JournalPersister) *Journal {
	if cap <= 0 {
		cap = DefaultJournalCap
	}
	j := &Journal{
		delivered: make(map[rlnc.SegmentID]bool),
		cap:       cap,
	}
	for _, seg := range persisted {
		j.admit(seg)
	}
	j.persister = p
	return j
}

// Claim records the segment as delivered and reports whether this call won
// the claim (true exactly once per remembered segment). A backed journal
// persists the claim before returning true; if persistence fails false is
// returned and the journal is unchanged, leaving the segment claimable.
func (j *Journal) Claim(seg rlnc.SegmentID) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.delivered[seg] {
		return false
	}
	if j.persister != nil {
		if err := j.persister.Persist(seg); err != nil {
			return false
		}
	}
	j.admit(seg)
	return true
}

// admit places seg in the ring and map, evicting the oldest entry when
// full. Caller holds j.mu (or has exclusive access during construction).
func (j *Journal) admit(seg rlnc.SegmentID) {
	if j.delivered[seg] {
		return
	}
	if len(j.ring) < j.cap {
		j.ring = append(j.ring, seg)
	} else {
		delete(j.delivered, j.ring[j.head])
		j.ring[j.head] = seg
		j.head = (j.head + 1) % j.cap
	}
	j.delivered[seg] = true
}

// Delivered reports whether the segment has been claimed.
func (j *Journal) Delivered(seg rlnc.SegmentID) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.delivered[seg]
}

// Count returns how many deliveries the journal currently remembers.
func (j *Journal) Count() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.ring)
}
