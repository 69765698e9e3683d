// Package logdata synthesizes the vital-statistics workload the paper
// collects from a commercial P2P live-streaming system. Production traces
// (UUSee logs) are proprietary, so we generate the closest synthetic
// equivalent: per-peer measurement records whose fields evolve as
// autocorrelated processes, serialized into the fixed-size blocks the
// collection protocol ships around. The collection protocol itself only
// depends on block arrival times and sizes, which follow the paper's model
// exactly; the payload here exists so that end-to-end examples decode real
// data.
package logdata

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"p2pcollect/internal/randx"
)

// RecordSize is the fixed wire size of a marshaled Record in bytes.
const RecordSize = 64

// recordMagic guards against decoding garbage.
const recordMagic = 0x564C4F47 // "VLOG"

// ErrCorrupt is returned when unmarshaling bytes that are not a Record.
var ErrCorrupt = errors.New("logdata: corrupt record")

// Record is one vital-statistics measurement at one peer: the performance
// metrics a streaming operator needs for postmortem diagnosis (§1 of the
// paper).
type Record struct {
	PeerID       uint64  // reporting peer
	SeqNo        uint64  // per-peer measurement sequence number
	Timestamp    float64 // measurement time, seconds since session start
	ChannelID    uint32  // streaming channel being watched
	PartnerCount uint32  // active data connections
	BufferLevel  float64 // playback buffer, seconds of media
	Continuity   float64 // fraction of frames played on time, 0..1
	DownloadKbps float64 // current download throughput
	UploadKbps   float64 // current upload throughput
	LossRate     float64 // packet loss fraction, 0..1
}

// Marshal encodes the record into exactly RecordSize bytes.
func (r *Record) Marshal() []byte {
	buf := make([]byte, RecordSize)
	binary.BigEndian.PutUint32(buf[0:], recordMagic)
	binary.BigEndian.PutUint32(buf[4:], r.ChannelID)
	binary.BigEndian.PutUint64(buf[8:], r.PeerID)
	binary.BigEndian.PutUint64(buf[16:], r.SeqNo)
	binary.BigEndian.PutUint64(buf[24:], math.Float64bits(r.Timestamp))
	binary.BigEndian.PutUint32(buf[32:], r.PartnerCount)
	binary.BigEndian.PutUint32(buf[36:], uint32(clamp01(r.Continuity)*math.MaxUint32))
	binary.BigEndian.PutUint32(buf[40:], uint32(clamp01(r.LossRate)*math.MaxUint32))
	binary.BigEndian.PutUint32(buf[44:], kbpsBits(r.BufferLevel))
	binary.BigEndian.PutUint32(buf[48:], kbpsBits(r.DownloadKbps))
	binary.BigEndian.PutUint32(buf[52:], kbpsBits(r.UploadKbps))
	// buf[56:64] reserved / zero padding.
	return buf
}

// Unmarshal decodes a record previously produced by Marshal.
func Unmarshal(buf []byte) (*Record, error) {
	if len(buf) < RecordSize {
		return nil, fmt.Errorf("%w: %d bytes", ErrCorrupt, len(buf))
	}
	if binary.BigEndian.Uint32(buf[0:]) != recordMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	r := &Record{
		ChannelID:    binary.BigEndian.Uint32(buf[4:]),
		PeerID:       binary.BigEndian.Uint64(buf[8:]),
		SeqNo:        binary.BigEndian.Uint64(buf[16:]),
		Timestamp:    math.Float64frombits(binary.BigEndian.Uint64(buf[24:])),
		PartnerCount: binary.BigEndian.Uint32(buf[32:]),
		Continuity:   float64(binary.BigEndian.Uint32(buf[36:])) / math.MaxUint32,
		LossRate:     float64(binary.BigEndian.Uint32(buf[40:])) / math.MaxUint32,
		BufferLevel:  kbpsFromBits(binary.BigEndian.Uint32(buf[44:])),
		DownloadKbps: kbpsFromBits(binary.BigEndian.Uint32(buf[48:])),
		UploadKbps:   kbpsFromBits(binary.BigEndian.Uint32(buf[52:])),
	}
	return r, nil
}

func kbpsBits(v float64) uint32     { return math.Float32bits(float32(v)) }
func kbpsFromBits(b uint32) float64 { return float64(math.Float32frombits(b)) }
func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// Generator produces an autocorrelated stream of records for one peer. Each
// metric follows an AR(1) process around a peer-specific operating point, so
// consecutive records look like a real monitoring time series rather than
// white noise.
type Generator struct {
	peerID  uint64
	channel uint32
	seq     uint64
	rng     *randx.Rand

	continuity float64
	buffer     float64
	down       float64
	up         float64
	loss       float64
	partners   float64

	// operating points
	downMean, upMean float64
}

// NewGenerator returns a generator for the given peer on a random channel.
func NewGenerator(peerID uint64, rng *randx.Rand) *Generator {
	g := &Generator{
		peerID:   peerID,
		channel:  uint32(rng.Intn(64)),
		rng:      rng,
		downMean: 300 + rng.Float64()*700, // 300-1000 kbps
		upMean:   100 + rng.Float64()*400,
	}
	g.continuity = 0.95
	g.buffer = 10
	g.down = g.downMean
	g.up = g.upMean
	g.loss = 0.01
	g.partners = 8
	return g
}

// Next advances the time series and returns the record at time t.
func (g *Generator) Next(t float64) *Record {
	const phi = 0.9 // AR(1) persistence
	step := func(cur, mean, vol float64) float64 {
		return mean + phi*(cur-mean) + vol*(g.rng.Float64()*2-1)
	}
	g.continuity = clamp01(step(g.continuity, 0.96, 0.02))
	g.buffer = math.Max(0, step(g.buffer, 12, 1.5))
	g.down = math.Max(0, step(g.down, g.downMean, 40))
	g.up = math.Max(0, step(g.up, g.upMean, 25))
	g.loss = clamp01(step(g.loss, 0.015, 0.005))
	g.partners = math.Max(1, step(g.partners, 9, 1))
	r := &Record{
		PeerID:       g.peerID,
		SeqNo:        g.seq,
		Timestamp:    t,
		ChannelID:    g.channel,
		PartnerCount: uint32(g.partners),
		BufferLevel:  g.buffer,
		Continuity:   g.continuity,
		DownloadKbps: g.down,
		UploadKbps:   g.up,
		LossRate:     g.loss,
	}
	g.seq++
	return r
}

// Payloads fabricates the s payload blocks of one new segment, each
// blockSize bytes: as many whole records at time t as fit, zero padding
// after them. A block too small for a single record is filled with opaque
// bytes drawn from fill (the driver's protocol stream), so undersized test
// blocks still carry distinguishable data.
func (g *Generator) Payloads(s, blockSize int, t float64, fill *randx.Rand) [][]byte {
	perBlock := blockSize / RecordSize
	blocks := make([][]byte, s)
	for i := range blocks {
		block := make([]byte, blockSize)
		for j := 0; j < perBlock; j++ {
			copy(block[j*RecordSize:], g.Next(t).Marshal())
		}
		if perBlock == 0 {
			fill.FillCoefficients(block)
		}
		blocks[i] = block
	}
	return blocks
}

// PackRecords marshals records into fixed-size blocks of blockSize bytes,
// zero-padding the tail of the last block. blockSize must hold at least one
// record.
func PackRecords(records []*Record, blockSize int) ([][]byte, error) {
	if blockSize < RecordSize {
		return nil, fmt.Errorf("logdata: block size %d < record size %d", blockSize, RecordSize)
	}
	perBlock := blockSize / RecordSize
	var blocks [][]byte
	for i := 0; i < len(records); i += perBlock {
		block := make([]byte, blockSize)
		for j := 0; j < perBlock && i+j < len(records); j++ {
			copy(block[j*RecordSize:], records[i+j].Marshal())
		}
		blocks = append(blocks, block)
	}
	return blocks, nil
}

// UnpackRecords recovers the records from a block produced by PackRecords.
// Zero padding (no magic) terminates the scan.
func UnpackRecords(block []byte) ([]*Record, error) {
	var out []*Record
	for off := 0; off+RecordSize <= len(block); off += RecordSize {
		if binary.BigEndian.Uint32(block[off:]) == 0 {
			break // padding
		}
		r, err := Unmarshal(block[off:])
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// FlashCrowdRate returns a rate function that sits at base, ramps linearly
// to peak over [t0, t0+ramp], holds until t1, then decays back to base over
// ramp. It models the flash-crowd arrival bursts that overload logging
// servers in the paper's motivation.
func FlashCrowdRate(base, peak, t0, ramp, t1 float64) func(float64) float64 {
	return func(t float64) float64 {
		switch {
		case t < t0:
			return base
		case t < t0+ramp:
			return base + (peak-base)*(t-t0)/ramp
		case t < t1:
			return peak
		case t < t1+ramp:
			return peak - (peak-base)*(t-t1)/ramp
		default:
			return base
		}
	}
}
