package obs

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"p2pcollect/internal/rlnc"
)

func flightEvent(i int) TraceEvent {
	return TraceEvent{
		Kind:    TraceKind(i % int(numTraceKinds)),
		T:       float64(i) * 0.5,
		Seg:     rlnc.SegmentID{Origin: uint64(i), Seq: uint64(i * 7)},
		Actor:   uint64(1000 + i),
		N:       i - 3, // negative values must survive the round trip
		TraceID: uint64(i) << 32,
		Hop:     uint8(i),
	}
}

func TestFlightRecorderRoundTrip(t *testing.T) {
	fr := NewRingTracer(64)
	var want []TraceEvent
	for i := 0; i < 10; i++ {
		ev := flightEvent(i)
		fr.Trace(ev)
		want = append(want, ev)
	}
	if fr.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", fr.Len(), len(want))
	}
	var buf bytes.Buffer
	if _, err := fr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFlightDump(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestFlightRecorderRingWraps dumps a ring that has wrapped and requires
// the dump to read back as the retained window, Tail(Len()), oldest first.
func TestFlightRecorderRingWraps(t *testing.T) {
	fr := NewRingTracer(4)
	for i := 0; i < 10; i++ {
		fr.Trace(flightEvent(i))
	}
	var buf bytes.Buffer
	if _, err := fr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFlightDump(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if want := fr.Tail(fr.Len()); !reflect.DeepEqual(got, want) {
		t.Fatalf("dump = %+v, want Tail(Len()) = %+v", got, want)
	}
	for i, ev := range got {
		if want := flightEvent(6 + i); ev != want {
			t.Fatalf("event %d = %+v, want %+v (oldest-first after wrap)", i, ev, want)
		}
	}
}

// TestFlightDumpBytesUnchanged pins the dump format byte for byte: a
// cap-4 ring fed six events must encode exactly as
// testdata/flight_cap4.bin, so dumps written by one build read back in
// every other.
func TestFlightDumpBytesUnchanged(t *testing.T) {
	fr := NewRingTracer(4)
	for i := 0; i < 6; i++ {
		fr.Trace(flightEvent(i))
	}
	var buf bytes.Buffer
	if _, err := fr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/flight_cap4.bin")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("dump bytes changed:\n got  %x\n want %x", buf.Bytes(), want)
	}
}

func TestFlightDumpTornTailTolerated(t *testing.T) {
	fr := NewRingTracer(8)
	for i := 0; i < 5; i++ {
		fr.Trace(flightEvent(i))
	}
	var buf bytes.Buffer
	if _, err := fr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Cut mid-record, the expected shape of a process dying mid-dump:
	// every complete prefix record must come back, without error.
	torn := full[:len(full)-13]
	got, err := ReadFlightDump(bytes.NewReader(torn))
	if err != nil {
		t.Fatalf("torn tail reported as error: %v", err)
	}
	if len(got) != 4 {
		t.Fatalf("torn dump decoded %d events, want the 4 complete ones", len(got))
	}
}

func TestFlightDumpCorruptionDetected(t *testing.T) {
	fr := NewRingTracer(8)
	for i := 0; i < 3; i++ {
		fr.Trace(flightEvent(i))
	}
	var buf bytes.Buffer
	if _, err := fr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	flip := append([]byte(nil), full...)
	flip[len(flightMagic)+flightFrameHeader+5] ^= 0xff // body byte of record 0
	got, err := ReadFlightDump(bytes.NewReader(flip))
	if !errors.Is(err, ErrFlightCorrupt) {
		t.Fatalf("CRC mismatch not reported: err = %v", err)
	}
	if len(got) != 0 {
		t.Fatalf("corrupt first record still yielded %d events", len(got))
	}

	if _, err := ReadFlightDump(bytes.NewReader([]byte("NOTMAGIC"))); !errors.Is(err, ErrFlightCorrupt) {
		t.Fatalf("bad magic not reported: err = %v", err)
	}
}

func TestFlightDumpFile(t *testing.T) {
	fr := NewRingTracer(8)
	for i := 0; i < 6; i++ {
		fr.Trace(flightEvent(i))
	}
	path := filepath.Join(t.TempDir(), "sub", "flight.bin")
	if err := fr.DumpFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFlightDumpFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 6 {
		t.Fatalf("decoded %d events, want 6", len(got))
	}
	// No temp file may be left behind next to the dump.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "flight.bin" {
		t.Fatalf("dump dir not clean: %v", entries)
	}
}

// TestFlightRecorderTraceDoesNotAllocate pins the always-on cost as a
// server pays it: its flight ring teed with a shared cluster ring. Once
// both rings have grown, a traced event must cost no allocation.
func TestFlightRecorderTraceDoesNotAllocate(t *testing.T) {
	flight, shared := NewRingTracer(1024), NewRingTracer(64)
	tr := Tee(shared, flight)
	for i := 0; i < 1024; i++ {
		tr.Trace(flightEvent(i))
	}
	ev := flightEvent(1)
	if avg := testing.AllocsPerRun(1000, func() { tr.Trace(ev) }); avg != 0 {
		t.Fatalf("teed flight ring allocates %.1f times per event, want 0", avg)
	}
}
