package obs

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"

	"p2pcollect/internal/durable"
	"p2pcollect/internal/rlnc"
)

// A flight dump is an always-on black box: every live server keeps a
// RingTracer of its most recent trace and lifecycle events, and when the
// process dies — CrashStop or a loop panic — writes it to a binary file
// next to the WAL directory, so `obstool postmortem` can decode it
// alongside the recovery stats and explain the crash after the fact.
//
// Dump format: the 8-byte magic "P2PCFLT1", then one durable frame per
// event (the frame WAL records use, see package durable), so a dump cut
// short by the dying process reads back as a torn tail, not corruption,
// and every complete prefix is decodable. Frame body (fixed 51 bytes, all
// little-endian):
//
//	u8 version (1) | u8 kind | u8 hop | u64 traceID | u64 origin |
//	u64 seq | u64 actor | f64 t | i64 n

// flightMagic heads every dump file.
const flightMagic = "P2PCFLT1"

// flightVersion is the current record body version.
const flightVersion = 1

// flightBodySize is the fixed encoded body length of one event.
const flightBodySize = 1 + 1 + 1 + 8 + 8 + 8 + 8 + 8 + 8

// flightFrameHeader is the per-record length+CRC prefix.
const flightFrameHeader = durable.FrameHeaderSize

// ErrFlightCorrupt reports a dump whose bytes are structurally wrong —
// bad magic, impossible length, CRC mismatch — as opposed to a tail torn
// by the dying process, which ReadFlightDump tolerates silently.
var ErrFlightCorrupt = errors.New("obs: corrupt flight dump")

// encode serializes the retained events oldest-first in the dump format.
func (rt *RingTracer) encode() []byte {
	events := rt.Tail(rt.Len())
	buf := make([]byte, 0, len(flightMagic)+len(events)*(flightFrameHeader+flightBodySize))
	buf = append(buf, flightMagic...)
	for i := range events {
		buf = appendFlightRecord(buf, &events[i])
	}
	return buf
}

// WriteTo writes the flight dump of the retained events to w.
func (rt *RingTracer) WriteTo(w io.Writer) (int64, error) {
	n, err := w.Write(rt.encode())
	return int64(n), err
}

// DumpFile atomically replaces path with the flight dump
// (durable.WriteFile), creating parent directories as needed. It is safe
// to call on a crash path: any existing dump stays intact until the new
// one is durably complete.
func (rt *RingTracer) DumpFile(path string) error {
	if err := durable.WriteFile(path, rt.encode()); err != nil {
		return fmt.Errorf("obs: flight dump: %w", err)
	}
	return nil
}

// appendFlightRecord frames one event onto dst.
func appendFlightRecord(dst []byte, ev *TraceEvent) []byte {
	return durable.AppendFrame(dst, flightBodySize, func(p []byte) {
		p[0] = flightVersion
		p[1] = byte(ev.Kind)
		p[2] = ev.Hop
		binary.LittleEndian.PutUint64(p[3:], ev.TraceID)
		binary.LittleEndian.PutUint64(p[11:], ev.Seg.Origin)
		binary.LittleEndian.PutUint64(p[19:], ev.Seg.Seq)
		binary.LittleEndian.PutUint64(p[27:], ev.Actor)
		binary.LittleEndian.PutUint64(p[35:], math.Float64bits(ev.T))
		binary.LittleEndian.PutUint64(p[43:], uint64(int64(ev.N)))
	})
}

// ReadFlightDump decodes a dump produced by WriteTo/DumpFile, returning
// the events oldest-first. A tail torn mid-frame (the expected shape when
// the process died while writing) is tolerated: every complete prefix
// record is returned without error. Structurally wrong bytes — bad magic,
// impossible length, CRC mismatch, unknown version — return the records
// decoded so far alongside ErrFlightCorrupt.
func ReadFlightDump(r io.Reader) ([]TraceEvent, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	if len(data) < len(flightMagic) || string(data[:len(flightMagic)]) != flightMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrFlightCorrupt)
	}
	data = data[len(flightMagic):]
	var events []TraceEvent
	for len(data) > 0 {
		p, n, err := durable.NextFrame(data, flightBodySize)
		switch {
		case err == durable.ErrTorn:
			return events, nil // torn tail
		case err != nil || len(p) != flightBodySize:
			return events, fmt.Errorf("%w: bad length or CRC", ErrFlightCorrupt)
		case p[0] != flightVersion:
			return events, fmt.Errorf("%w: record version %d", ErrFlightCorrupt, p[0])
		}
		events = append(events, TraceEvent{
			Kind:    TraceKind(p[1]),
			Hop:     p[2],
			TraceID: binary.LittleEndian.Uint64(p[3:]),
			Seg: rlnc.SegmentID{
				Origin: binary.LittleEndian.Uint64(p[11:]),
				Seq:    binary.LittleEndian.Uint64(p[19:]),
			},
			Actor: binary.LittleEndian.Uint64(p[27:]),
			T:     math.Float64frombits(binary.LittleEndian.Uint64(p[35:])),
			N:     int(int64(binary.LittleEndian.Uint64(p[43:]))),
		})
		data = data[n:]
	}
	return events, nil
}

// ReadFlightDumpFile is ReadFlightDump over a file path.
func ReadFlightDumpFile(path string) ([]TraceEvent, error) {
	file, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer file.Close() //nolint:errcheck // read-only
	return ReadFlightDump(file)
}
