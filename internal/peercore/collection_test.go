package peercore

import (
	"testing"

	"p2pcollect/internal/randx"
	"p2pcollect/internal/rlnc"
)

func TestCollectionDeficits(t *testing.T) {
	seg := rlnc.SegmentID{Origin: 1}
	col := NewCollection(seg, 3, 0)
	if col.RankDeficit() != 3 {
		t.Fatalf("fresh rank deficit = %d, want 3", col.RankDeficit())
	}
	b := &rlnc.CodedBlock{Seg: seg, Coeffs: []byte{1, 0, 0}}
	if _, err := col.Receive(b, NopSink{}); err != nil {
		t.Fatal(err)
	}
	if col.RankDeficit() != 2 {
		t.Fatalf("rank deficit after innovative pull = %d, want 2", col.RankDeficit())
	}
	// A duplicate leaves the deficit where it was.
	if _, err := col.Receive(b, NopSink{}); err != nil {
		t.Fatal(err)
	}
	if col.RankDeficit() != 2 {
		t.Fatalf("rank deficit after duplicate = %d, want 2", col.RankDeficit())
	}
}

// BenchmarkCollectionRecode measures the fleet-exchange hot path: producing
// one fresh combination of a partially collected segment to forward to the
// ring owner (s=16 received rows, 64-byte payloads).
func BenchmarkCollectionRecode(b *testing.B) {
	const s = 16
	seg := rlnc.SegmentID{Origin: 1}
	payload := make([]byte, 64)
	col := NewCollection(seg, s, len(payload))
	for i := 0; i < s-1; i++ { // mid-collection: the state exchange forwards from
		coeffs := make([]byte, s)
		coeffs[i] = 1
		if _, err := col.Receive(&rlnc.CodedBlock{Seg: seg, Coeffs: coeffs, Payload: payload}, NopSink{}); err != nil {
			b.Fatal(err)
		}
	}
	rng := randx.New(99)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if col.Recode(rng) == nil {
			b.Fatal("nil recode")
		}
	}
}
