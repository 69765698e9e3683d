package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"sync"

	"p2pcollect/internal/fleet"
	"p2pcollect/internal/rlnc"
)

// claimRecordSize frames one delivery claim: [8B LE origin][8B LE seq]
// [4B LE CRC32-IEEE of the first 16 bytes].
const claimRecordSize = 20

// JournalFile persists fleet delivery claims to an append-only file, one
// fixed-size CRC-guarded record per claim, fsynced before Persist returns —
// a claim the fleet acts on is on disk first. Safe for concurrent use.
type JournalFile struct {
	mu sync.Mutex
	f  *os.File
}

var _ fleet.JournalPersister = (*JournalFile)(nil)

// OpenJournal opens (or creates) a durable delivery journal at path and
// returns a fleet journal preloaded with every previously persisted claim,
// in claim order. A torn final record — a crash mid-claim — is truncated
// away; a corrupt record mid-file is an error. Close the JournalFile when
// the fleet shuts down.
func OpenJournal(path string, cap int) (*fleet.Journal, *JournalFile, error) {
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, fmt.Errorf("wal: journal: %w", err)
	}
	var persisted []rlnc.SegmentID
	valid := 0
	for off := 0; off+claimRecordSize <= len(data); off += claimRecordSize {
		rec := data[off : off+claimRecordSize]
		if crc32.ChecksumIEEE(rec[:16]) != binary.LittleEndian.Uint32(rec[16:]) {
			return nil, nil, fmt.Errorf("%w: journal claim at offset %d", ErrCorrupt, off)
		}
		persisted = append(persisted, rlnc.SegmentID{
			Origin: binary.LittleEndian.Uint64(rec),
			Seq:    binary.LittleEndian.Uint64(rec[8:]),
		})
		valid = off + claimRecordSize
	}
	if valid < len(data) {
		if err := os.Truncate(path, int64(valid)); err != nil {
			return nil, nil, fmt.Errorf("wal: journal: truncating torn claim: %w", err)
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: journal: %w", err)
	}
	jf := &JournalFile{f: f}
	return fleet.NewJournalBacked(cap, persisted, jf), jf, nil
}

// Persist implements fleet.JournalPersister: append one claim record and
// fsync it.
func (jf *JournalFile) Persist(seg rlnc.SegmentID) error {
	var rec [claimRecordSize]byte
	binary.LittleEndian.PutUint64(rec[:], seg.Origin)
	binary.LittleEndian.PutUint64(rec[8:], seg.Seq)
	binary.LittleEndian.PutUint32(rec[16:], crc32.ChecksumIEEE(rec[:16]))

	jf.mu.Lock()
	defer jf.mu.Unlock()
	if jf.f == nil {
		return fmt.Errorf("wal: journal closed")
	}
	if _, err := jf.f.Write(rec[:]); err != nil {
		return err
	}
	return jf.f.Sync()
}

// Close seals the journal file. Further Persist calls fail (and their
// claims are refused).
func (jf *JournalFile) Close() error {
	jf.mu.Lock()
	defer jf.mu.Unlock()
	if jf.f == nil {
		return nil
	}
	err := jf.f.Close()
	jf.f = nil
	return err
}
