package store_test

import (
	"testing"

	"p2pcollect/internal/collect/store"
	"p2pcollect/internal/collect/store/storetest"
)

// TestMemoryConformance runs the reference in-RAM store through the shared
// store.Store conformance suite (including the pinned golden differential
// stream every implementation must match byte-for-byte).
func TestMemoryConformance(t *testing.T) {
	storetest.Run(t, func(t *testing.T, s int) store.Store {
		m, err := store.NewMemory(store.MemoryConfig{SegmentSize: s})
		if err != nil {
			t.Fatal(err)
		}
		return m
	})
}
