package main

import (
	"fmt"
	"hash/crc32"
	"sync"
	"time"

	"p2pcollect/internal/logdata"
	"p2pcollect/internal/rlnc"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// oracle is the harness end of every delivery: it is installed as
// Server.OnSegment, checks each reconstructed segment against what was
// injected, and records the inject→deliver latency of segments delivered
// inside the measurement window. Any violation fails the run.
type oracle struct {
	w *workload

	mu sync.Mutex
	// clock maps an origin to the wall time its record timestamps count
	// from: the harness origin for scripted peers, the moment just before
	// Node.Start for live nodes (their clock starts inside Start, a few
	// microseconds later, so latencies read that much too long).
	clock map[uint64]time.Time
	// expect holds the CRC a scripted peer recorded at injection; nil on
	// the cluster workloads, where peers generate their own payload.
	expect map[rlnc.SegmentID]uint32
	seen   map[rlnc.SegmentID]struct{}

	recording  bool
	injected   int64 // scripted-peer segments injected in the window
	delivered  int64 // segments delivered in the window
	latencyMS  []float64
	checked    int64 // deliveries checked plus segments abandoned, window or not
	violations int64
	duplicates int64 // deliveries of an already delivered SegmentID
	firstBad   string

	// onDelivered tells the scripted peer that owns the segment to move on.
	onDelivered func(rlnc.SegmentID)
	// onTraced, set on traced runs, receives the delivery wall time.
	onTraced func(rlnc.SegmentID, time.Time)
}

func newOracle(w *workload) *oracle {
	o := &oracle{
		w:     w,
		clock: make(map[uint64]time.Time),
		seen:  make(map[rlnc.SegmentID]struct{}),
	}
	if w.scripted > 0 {
		o.expect = make(map[rlnc.SegmentID]uint32)
	}
	return o
}

func (o *oracle) setClock(origin uint64, t time.Time) {
	o.mu.Lock()
	o.clock[origin] = t
	o.mu.Unlock()
}

// injectedSegment records what a scripted peer put into the system.
func (o *oracle) injectedSegment(id rlnc.SegmentID, blocks [][]byte) {
	var crc uint32
	for _, b := range blocks {
		crc = crc32.Update(crc, castagnoli, b)
	}
	o.mu.Lock()
	o.expect[id] = crc
	if o.recording {
		o.injected++
	}
	o.mu.Unlock()
}

// abandoned forgets a segment a scripted peer gave up on.
func (o *oracle) abandoned(id rlnc.SegmentID) {
	o.mu.Lock()
	delete(o.expect, id)
	o.checked++
	o.violations++
	if o.firstBad == "" {
		o.firstBad = fmt.Sprintf("segment %v not delivered within %gs", id, segmentTimeout)
	}
	o.mu.Unlock()
}

// deliver is Server.OnSegment.
func (o *oracle) deliver(id rlnc.SegmentID, blocks [][]byte) {
	now := time.Now()
	injectT, err := o.check(id, blocks)
	var crc uint32
	if o.expect != nil {
		for _, b := range blocks {
			crc = crc32.Update(crc, castagnoli, b)
		}
	}
	o.mu.Lock()
	o.checked++
	if _, dup := o.seen[id]; dup {
		o.duplicates++
		if err == nil {
			err = fmt.Errorf("segment %v delivered twice", id)
		}
	}
	o.seen[id] = struct{}{}
	if o.expect != nil && err == nil {
		want, ok := o.expect[id]
		delete(o.expect, id)
		switch {
		case !ok:
			err = fmt.Errorf("segment %v delivered but never injected", id)
		case crc != want:
			err = fmt.Errorf("segment %v: CRC %08x, injected %08x", id, crc, want)
		}
	}
	if err != nil {
		o.violations++
		if o.firstBad == "" {
			o.firstBad = err.Error()
		}
	} else if o.recording {
		o.delivered++
		if origin, ok := o.clock[id.Origin]; ok {
			at := origin.Add(time.Duration(injectT * float64(time.Second)))
			o.latencyMS = append(o.latencyMS, float64(now.Sub(at))/float64(time.Millisecond))
		}
	}
	notify, traced := o.onDelivered, o.onTraced
	o.mu.Unlock()
	if traced != nil {
		traced(id, now)
	}
	if notify != nil {
		notify(id)
	}
}

// check validates shape and records of one delivered segment and returns
// the first record's timestamp, the segment's injection time on its
// origin's clock.
func (o *oracle) check(id rlnc.SegmentID, blocks [][]byte) (float64, error) {
	if len(blocks) != o.w.segmentSize {
		return 0, fmt.Errorf("segment %v: %d blocks, want %d", id, len(blocks), o.w.segmentSize)
	}
	perBlock := o.w.blockSize / logdata.RecordSize
	wantSeq := id.Seq * uint64(o.w.segmentSize*perBlock)
	injectT := -1.0
	for i, b := range blocks {
		if len(b) != o.w.blockSize {
			return 0, fmt.Errorf("segment %v block %d: %d bytes, want %d", id, i, len(b), o.w.blockSize)
		}
		for j := 0; j < perBlock; j++ {
			rec, err := logdata.Unmarshal(b[j*logdata.RecordSize:])
			if err != nil {
				return 0, fmt.Errorf("segment %v block %d record %d: %w", id, i, j, err)
			}
			if rec.PeerID != id.Origin {
				return 0, fmt.Errorf("segment %v block %d record %d: PeerID %d", id, i, j, rec.PeerID)
			}
			if rec.SeqNo != wantSeq {
				return 0, fmt.Errorf("segment %v block %d record %d: SeqNo %d, want %d", id, i, j, rec.SeqNo, wantSeq)
			}
			if injectT < 0 {
				injectT = rec.Timestamp
			}
			wantSeq++
		}
	}
	return injectT, nil
}

// cut hands over what was recorded since the previous cut and switches
// recording on or off for what follows.
func (o *oracle) cut(record bool) (injected, delivered int64, latencyMS []float64) {
	o.mu.Lock()
	injected, delivered, latencyMS = o.injected, o.delivered, o.latencyMS
	o.injected, o.delivered, o.latencyMS = 0, 0, nil
	o.recording = record
	o.mu.Unlock()
	return injected, delivered, latencyMS
}
