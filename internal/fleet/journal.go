package fleet

import (
	"sync"

	"p2pcollect/internal/rlnc"
)

// DefaultJournalCap bounds the journal's memory of delivered segments.
const DefaultJournalCap = 1 << 20

// Journal is the fleet's coordinator-free delivery dedup: a segment is
// delivered by whichever shard first reaches full rank, and Claim makes
// that race winner-take-all. Entries live in a bounded segment set (an
// evicted segment could at worst be delivered again — the same contract as
// the per-server finished set). Safe for concurrent use by all shards.
type Journal struct {
	mu        sync.Mutex
	delivered *rlnc.SegmentSet
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
	j := &Journal{delivered: rlnc.NewSegmentSet(cap), persister: p}
	for _, seg := range persisted {
		j.delivered.Add(seg)
	}
	return j
}

// Claim records the segment as delivered and reports whether this call won
// the claim (true exactly once per remembered segment). A backed journal
// persists the claim before returning true; if persistence fails false is
// returned and the journal is unchanged, leaving the segment claimable.
func (j *Journal) Claim(seg rlnc.SegmentID) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.delivered.Has(seg) {
		return false
	}
	if j.persister != nil {
		if err := j.persister.Persist(seg); err != nil {
			return false
		}
	}
	j.delivered.Add(seg)
	return true
}

// Delivered reports whether the segment has been claimed.
func (j *Journal) Delivered(seg rlnc.SegmentID) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.delivered.Has(seg)
}

// Count returns how many deliveries the journal currently remembers.
func (j *Journal) Count() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.delivered.Len()
}
