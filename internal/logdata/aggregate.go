package logdata

import (
	"sort"

	"p2pcollect/internal/obs"
)

// DefaultOutageThreshold is the playback continuity below which a record
// counts as degraded service, the condition operators hunt for.
const DefaultOutageThreshold = 0.85

// Aggregator consumes recovered statistics records and answers the
// operator-side questions the paper motivates collection with: per-channel
// health, degraded peers, and outage incidence. It is the consumer sitting
// behind the logging servers.
type Aggregator struct {
	// OutageThreshold overrides DefaultOutageThreshold when positive.
	OutageThreshold float64

	channels map[uint32]*channelAgg
	peers    map[uint64]*peerAgg
	records  int
}

type channelAgg struct {
	records    int
	peers      map[uint64]bool
	continuity obs.Mean
	buffer     obs.Mean
	download   obs.Mean
	loss       obs.Mean
	degraded   int
}

type peerAgg struct {
	records    int
	continuity obs.Mean
	loss       obs.Mean
}

// ChannelReport is the per-channel health summary.
type ChannelReport struct {
	ChannelID       uint32
	Records         int
	Peers           int
	MeanContinuity  float64
	MeanBufferLevel float64
	MeanDownload    float64
	MeanLoss        float64
	// DegradedFraction is the share of records below the outage threshold.
	DegradedFraction float64
}

// PeerReport summarizes one peer's observed quality.
type PeerReport struct {
	PeerID         uint64
	Records        int
	MeanContinuity float64
	MeanLoss       float64
}

// NewAggregator returns an empty aggregator.
func NewAggregator() *Aggregator {
	return &Aggregator{
		channels: make(map[uint32]*channelAgg),
		peers:    make(map[uint64]*peerAgg),
	}
}

// Add incorporates one record.
func (a *Aggregator) Add(r *Record) {
	a.records++
	ch := a.channels[r.ChannelID]
	if ch == nil {
		ch = &channelAgg{peers: make(map[uint64]bool)}
		a.channels[r.ChannelID] = ch
	}
	ch.records++
	ch.peers[r.PeerID] = true
	ch.continuity.Add(r.Continuity)
	ch.buffer.Add(r.BufferLevel)
	ch.download.Add(r.DownloadKbps)
	ch.loss.Add(r.LossRate)
	if r.Continuity < a.threshold() {
		ch.degraded++
	}
	p := a.peers[r.PeerID]
	if p == nil {
		p = &peerAgg{}
		a.peers[r.PeerID] = p
	}
	p.records++
	p.continuity.Add(r.Continuity)
	p.loss.Add(r.LossRate)
}

// AddBlock unpacks a decoded payload block and incorporates its records,
// returning how many were found.
func (a *Aggregator) AddBlock(block []byte) (int, error) {
	records, err := UnpackRecords(block)
	if err != nil {
		return 0, err
	}
	for _, r := range records {
		a.Add(r)
	}
	return len(records), nil
}

// Records returns the number of records consumed.
func (a *Aggregator) Records() int { return a.records }

// PeerCount returns the number of distinct reporting peers.
func (a *Aggregator) PeerCount() int { return len(a.peers) }

// Channels returns the per-channel reports sorted by channel ID.
func (a *Aggregator) Channels() []ChannelReport {
	out := make([]ChannelReport, 0, len(a.channels))
	for id, ch := range a.channels {
		out = append(out, ChannelReport{
			ChannelID:        id,
			Records:          ch.records,
			Peers:            len(ch.peers),
			MeanContinuity:   ch.continuity.Mean(),
			MeanBufferLevel:  ch.buffer.Mean(),
			MeanDownload:     ch.download.Mean(),
			MeanLoss:         ch.loss.Mean(),
			DegradedFraction: float64(ch.degraded) / float64(ch.records),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ChannelID < out[j].ChannelID })
	return out
}

// WorstPeers returns up to k peers with the lowest mean continuity,
// worst first — the ones an operator investigates.
func (a *Aggregator) WorstPeers(k int) []PeerReport {
	out := make([]PeerReport, 0, len(a.peers))
	for id, p := range a.peers {
		out = append(out, PeerReport{
			PeerID:         id,
			Records:        p.records,
			MeanContinuity: p.continuity.Mean(),
			MeanLoss:       p.loss.Mean(),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].MeanContinuity != out[j].MeanContinuity {
			return out[i].MeanContinuity < out[j].MeanContinuity
		}
		return out[i].PeerID < out[j].PeerID
	})
	if k < len(out) {
		out = out[:k]
	}
	return out
}

func (a *Aggregator) threshold() float64 {
	if a.OutageThreshold > 0 {
		return a.OutageThreshold
	}
	return DefaultOutageThreshold
}
