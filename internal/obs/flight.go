package obs

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"

	"p2pcollect/internal/rlnc"
)

// FlightRecorder is an always-on black box: a bounded ring of the most
// recent trace and lifecycle events, kept cheap enough (one short mutex
// hold, no allocation once the ring has grown) to leave recording on every
// server in production. When a process dies — CrashStop, panic, SIGQUIT — the ring
// is dumped to a length+CRC framed binary file next to the WAL directory,
// and `obstool postmortem` decodes it alongside the recovery stats so the
// crash can be explained after the fact.
//
// Dump format:
//
//	8-byte magic "P2PCFLT1", then per event
//	[4B LE body length][4B LE CRC32-Castagnoli of body][body]
//
// Body (fixed 43 bytes, all little-endian):
//
//	u8 version (1) | u8 kind | u8 hop | u64 traceID | u64 origin |
//	u64 seq | u64 actor | f64 t | i64 n
//
// The framing matches WAL records on purpose: a dump cut short by the
// dying process reads back as a torn tail, not corruption, and every
// complete prefix is decodable.
type FlightRecorder struct {
	ring ring[TraceEvent]
}

// flightMagic heads every dump file.
const flightMagic = "P2PCFLT1"

// flightVersion is the current record body version.
const flightVersion = 1

// flightBodySize is the fixed encoded body length of one event.
const flightBodySize = 1 + 1 + 1 + 8 + 8 + 8 + 8 + 8 + 8

// flightFrameHeader is the per-record length+CRC prefix.
const flightFrameHeader = 8

// flightCRC is the record-framing CRC table, shared with WAL records
// (Castagnoli has a dedicated instruction on amd64/arm64).
var flightCRC = crc32.MakeTable(crc32.Castagnoli)

// ErrFlightCorrupt reports a dump whose bytes are structurally wrong —
// bad magic, impossible length, CRC mismatch — as opposed to a tail torn
// by the dying process, which ReadFlightDump tolerates silently.
var ErrFlightCorrupt = errors.New("obs: corrupt flight dump")

// NewFlightRecorder returns a recorder retaining the last cap events
// (minimum 1).
func NewFlightRecorder(cap int) *FlightRecorder {
	return &FlightRecorder{ring: ring[TraceEvent]{max: ringCap(cap)}}
}

// Trace implements Tracer: an O(1) ring append, allocation-free once the
// ring has grown to the events it holds.
func (f *FlightRecorder) Trace(ev TraceEvent) { f.ring.push(&ev) }

// Len returns the number of retained events.
func (f *FlightRecorder) Len() int { return f.ring.len() }

// Events returns the retained events, oldest-first.
func (f *FlightRecorder) Events() []TraceEvent { return f.ring.snapshot() }

// WriteTo serializes the retained events oldest-first in the dump format.
func (f *FlightRecorder) WriteTo(w io.Writer) (int64, error) {
	events := f.Events()
	buf := make([]byte, 0, len(flightMagic)+len(events)*(flightFrameHeader+flightBodySize))
	buf = append(buf, flightMagic...)
	for i := range events {
		buf = appendFlightRecord(buf, &events[i])
	}
	n, err := w.Write(buf)
	return int64(n), err
}

// DumpFile atomically writes the dump to path (tmp + rename), creating
// parent directories as needed. It is safe to call on a crash path: any
// existing dump stays intact until the new one is durably complete.
func (f *FlightRecorder) DumpFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("obs: flight dump: %w", err)
	}
	tmp := path + ".tmp"
	file, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("obs: flight dump: %w", err)
	}
	if _, err := f.WriteTo(file); err != nil {
		file.Close() //nolint:errcheck // write error wins
		os.Remove(tmp)
		return fmt.Errorf("obs: flight dump: %w", err)
	}
	if err := file.Sync(); err != nil {
		file.Close() //nolint:errcheck // sync error wins
		os.Remove(tmp)
		return fmt.Errorf("obs: flight dump: %w", err)
	}
	if err := file.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("obs: flight dump: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("obs: flight dump: %w", err)
	}
	return nil
}

// appendFlightRecord frames one event onto dst.
func appendFlightRecord(dst []byte, ev *TraceEvent) []byte {
	start := len(dst)
	dst = append(dst, make([]byte, flightFrameHeader+flightBodySize)...)
	b := dst[start:]
	binary.LittleEndian.PutUint32(b, flightBodySize)
	p := b[flightFrameHeader:]
	p[0] = flightVersion
	p[1] = byte(ev.Kind)
	p[2] = ev.Hop
	binary.LittleEndian.PutUint64(p[3:], ev.TraceID)
	binary.LittleEndian.PutUint64(p[11:], ev.Seg.Origin)
	binary.LittleEndian.PutUint64(p[19:], ev.Seg.Seq)
	binary.LittleEndian.PutUint64(p[27:], ev.Actor)
	binary.LittleEndian.PutUint64(p[35:], math.Float64bits(ev.T))
	binary.LittleEndian.PutUint64(p[43:], uint64(int64(ev.N)))
	binary.LittleEndian.PutUint32(b[4:], crc32.Checksum(p, flightCRC))
	return dst
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
		if len(data) < flightFrameHeader {
			return events, nil // torn tail
		}
		body := int(binary.LittleEndian.Uint32(data))
		if body != flightBodySize {
			return events, fmt.Errorf("%w: body length %d", ErrFlightCorrupt, body)
		}
		if len(data) < flightFrameHeader+body {
			return events, nil // torn tail
		}
		p := data[flightFrameHeader : flightFrameHeader+body]
		if crc32.Checksum(p, flightCRC) != binary.LittleEndian.Uint32(data[4:]) {
			return events, fmt.Errorf("%w: CRC mismatch", ErrFlightCorrupt)
		}
		if p[0] != flightVersion {
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
		data = data[flightFrameHeader+body:]
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
