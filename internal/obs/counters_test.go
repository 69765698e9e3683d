package obs

import (
	"strings"
	"testing"
)

func TestCounterSetRangeMatchesSnapshot(t *testing.T) {
	cs := NewCounterSet([]string{"a", "b", "c"})
	cs.Add(0, 5)
	cs.Add(2, 7)

	want := cs.Snapshot()
	got := map[string]int64{}
	order := []string{}
	cs.Range(func(name string, v int64) {
		got[name] = v
		order = append(order, name)
	})
	if len(got) != len(want) {
		t.Fatalf("Range visited %d counters, Snapshot has %d", len(got), len(want))
	}
	for name, v := range want {
		if got[name] != v {
			t.Errorf("Range %s = %d, Snapshot %d", name, got[name], v)
		}
	}
	if joined := strings.Join(order, ","); joined != "a,b,c" {
		t.Errorf("Range order = %s, want registration order a,b,c", joined)
	}
}

func TestCounterSetRangeDoesNotAllocate(t *testing.T) {
	cs := NewCounterSet([]string{"x", "y", "z"})
	cs.Add(1, 3)
	var sum int64
	f := func(name string, v int64) { sum += v }
	if allocs := testing.AllocsPerRun(100, func() { cs.Range(f) }); allocs != 0 {
		t.Errorf("Range allocates %.1f objects/op, want 0", allocs)
	}
}

func BenchmarkCounterSetRange(b *testing.B) {
	names := make([]string, 32)
	for i := range names {
		names[i] = "counter" + string(rune('a'+i%26))
	}
	cs := NewCounterSet(names)
	var sink int64
	f := func(name string, v int64) { sink += v }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cs.Range(f)
	}
	_ = sink
}

func BenchmarkCounterSetSnapshot(b *testing.B) {
	names := make([]string, 32)
	for i := range names {
		names[i] = "counter" + string(rune('a'+i%26))
	}
	cs := NewCounterSet(names)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = cs.Snapshot()
	}
}
