package logdata

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"p2pcollect/internal/randx"
)

func TestMarshalUnmarshalRoundTrip(t *testing.T) {
	r := &Record{
		PeerID:       12345,
		SeqNo:        67,
		Timestamp:    89.5,
		ChannelID:    3,
		PartnerCount: 11,
		BufferLevel:  12.25,
		Continuity:   0.97,
		DownloadKbps: 512.5,
		UploadKbps:   128,
		LossRate:     0.03,
	}
	buf := r.Marshal()
	if len(buf) != RecordSize {
		t.Fatalf("Marshal length = %d, want %d", len(buf), RecordSize)
	}
	got, err := Unmarshal(buf)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if got.PeerID != r.PeerID || got.SeqNo != r.SeqNo || got.Timestamp != r.Timestamp ||
		got.ChannelID != r.ChannelID || got.PartnerCount != r.PartnerCount {
		t.Errorf("integer fields differ: %+v vs %+v", got, r)
	}
	approx := func(a, b, tol float64) bool { return math.Abs(a-b) <= tol }
	if !approx(got.Continuity, r.Continuity, 1e-6) || !approx(got.LossRate, r.LossRate, 1e-6) {
		t.Errorf("fraction fields differ: %+v", got)
	}
	if !approx(got.BufferLevel, r.BufferLevel, 1e-3) ||
		!approx(got.DownloadKbps, r.DownloadKbps, 1e-3) ||
		!approx(got.UploadKbps, r.UploadKbps, 1e-3) {
		t.Errorf("rate fields differ: %+v", got)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	if _, err := Unmarshal(make([]byte, 10)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("short buffer err = %v", err)
	}
	if _, err := Unmarshal(make([]byte, RecordSize)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("zero buffer err = %v", err)
	}
}

func TestMarshalClampsFractions(t *testing.T) {
	r := &Record{Continuity: 1.7, LossRate: -0.5}
	got, err := Unmarshal(r.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.Continuity != 1 || got.LossRate != 0 {
		t.Errorf("clamping failed: %+v", got)
	}
}

func TestGeneratorProducesPlausibleSeries(t *testing.T) {
	rng := randx.New(1)
	g := NewGenerator(42, rng)
	var prev *Record
	for i := 0; i < 200; i++ {
		r := g.Next(float64(i))
		if r.PeerID != 42 {
			t.Fatalf("PeerID = %d", r.PeerID)
		}
		if r.SeqNo != uint64(i) {
			t.Fatalf("SeqNo = %d, want %d", r.SeqNo, i)
		}
		if r.Continuity < 0 || r.Continuity > 1 || r.LossRate < 0 || r.LossRate > 1 {
			t.Fatalf("fractions out of range: %+v", r)
		}
		if r.BufferLevel < 0 || r.DownloadKbps < 0 || r.UploadKbps < 0 {
			t.Fatalf("negative metric: %+v", r)
		}
		if prev != nil && r.Timestamp <= prev.Timestamp && i > 0 {
			t.Fatalf("timestamps not increasing")
		}
		prev = r
	}
}

func TestGeneratorAutocorrelation(t *testing.T) {
	// AR(1) with phi=0.9 must show strong lag-1 correlation, which
	// distinguishes this workload from white noise.
	rng := randx.New(2)
	g := NewGenerator(1, rng)
	n := 2000
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = g.Next(float64(i)).DownloadKbps
	}
	var mean float64
	for _, x := range xs {
		mean += x
	}
	mean /= float64(n)
	var num, den float64
	for i := 0; i < n-1; i++ {
		num += (xs[i] - mean) * (xs[i+1] - mean)
	}
	for _, x := range xs {
		den += (x - mean) * (x - mean)
	}
	if corr := num / den; corr < 0.6 {
		t.Errorf("lag-1 autocorrelation = %v, want > 0.6", corr)
	}
}

func TestPackUnpackRecords(t *testing.T) {
	rng := randx.New(3)
	g := NewGenerator(7, rng)
	var records []*Record
	for i := 0; i < 5; i++ {
		records = append(records, g.Next(float64(i)))
	}
	blocks, err := PackRecords(records, 2*RecordSize)
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) != 3 {
		t.Fatalf("PackRecords produced %d blocks, want 3", len(blocks))
	}
	var got []*Record
	for _, b := range blocks {
		rs, err := UnpackRecords(b)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, rs...)
	}
	if len(got) != 5 {
		t.Fatalf("recovered %d records, want 5", len(got))
	}
	for i, r := range got {
		if r.SeqNo != records[i].SeqNo || r.PeerID != records[i].PeerID {
			t.Errorf("record %d identity mismatch", i)
		}
	}
}

func TestPackRecordsRejectsTinyBlocks(t *testing.T) {
	if _, err := PackRecords(nil, RecordSize-1); err == nil {
		t.Error("tiny block size accepted")
	}
}

func TestPackUnpackProperty(t *testing.T) {
	f := func(seed int64, count8, mult8 uint8) bool {
		count := int(count8 % 40)
		blockSize := (1 + int(mult8%4)) * RecordSize
		rng := randx.New(seed)
		g := NewGenerator(9, rng)
		var records []*Record
		for i := 0; i < count; i++ {
			records = append(records, g.Next(float64(i)))
		}
		blocks, err := PackRecords(records, blockSize)
		if err != nil {
			return false
		}
		var got []*Record
		for _, b := range blocks {
			rs, err := UnpackRecords(b)
			if err != nil {
				return false
			}
			got = append(got, rs...)
		}
		if len(got) != count {
			return false
		}
		for i := range got {
			if got[i].SeqNo != records[i].SeqNo {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestFlashCrowdRateShape(t *testing.T) {
	rate := FlashCrowdRate(1, 10, 100, 10, 200)
	tests := []struct {
		t    float64
		want float64
	}{
		{0, 1},
		{99, 1},
		{105, 5.5},
		{110, 10},
		{150, 10},
		{205, 5.5},
		{300, 1},
	}
	for _, tt := range tests {
		if got := rate(tt.t); math.Abs(got-tt.want) > 1e-9 {
			t.Errorf("rate(%v) = %v, want %v", tt.t, got, tt.want)
		}
	}
}
