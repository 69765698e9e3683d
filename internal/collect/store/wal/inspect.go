package wal

import (
	"fmt"
	"time"

	"p2pcollect/internal/collect/store"
)

// Inspect reconstructs what a crashed (or cleanly stopped) store left in a
// WAL directory and reports the same RecoveryStats a real Open would,
// without mutating anything. Open is a recovery-and-resume operation: it
// truncates at a stop point and starts a fresh active segment. Postmortem
// tooling must do neither, so Inspect runs the same walk with no stop
// action and throws the reconstructed state away. Having no config, it is
// the one place a segment size is read off the data: from the newest
// snapshot, else from the first block record it replays.
func Inspect(dir string) (RecoveryStats, error) {
	if dir == "" {
		return RecoveryStats{}, fmt.Errorf("wal: empty Dir")
	}
	start := time.Now()
	rec, err := recoverDir(dir, store.MemoryConfig{}, nil)
	if err != nil {
		return RecoveryStats{}, err
	}
	rec.mem.Close() //nolint:errcheck // in-memory close cannot fail
	rec.stats.Duration = time.Since(start)
	return rec.stats, nil
}
