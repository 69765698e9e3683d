package live

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"p2pcollect/internal/randx"
	"p2pcollect/internal/rlnc"
	"p2pcollect/internal/transport"
)

// The golden stream pins the server's externally observable behavior —
// delivery order, decoded bytes, and every protocol counter — against a
// committed record, so the service/store/fleet decomposition can prove a
// 1-shard fleet is byte-identical to the legacy single server. Regenerate
// with -update-golden only for a deliberate protocol change.
var updateGolden = flag.Bool("update-golden", false, "rewrite the golden single-server stream record")

const goldenPath = "testdata/golden_single_server.json"

type goldenDelivery struct {
	Seg  string `json:"seg"`
	Hash string `json:"hash"`
}

type goldenRecord struct {
	Deliveries []goldenDelivery `json:"deliveries"`
	Counters   map[string]int64 `json:"counters"`
	Redundant  int64            `json:"redundantBlocks"`
	Decoded    int64            `json:"decodedSegments"`
}

// goldenStream builds the deterministic block stream: segments of size s
// with seeded payloads, each encoded into s innovative blocks plus one
// duplicate (non-innovative) and one post-completion block (finished-
// segment redundancy), interleaved round-robin across a window of open
// segments, with a couple of empty replies mixed in.
func goldenStream(seed int64) []*transport.Message {
	const (
		segments   = 24
		s          = 4
		payloadLen = 64
		window     = 3 // segments interleaved at a time
	)
	rng := randx.New(seed)
	var msgs []*transport.Message
	block := func(cb *rlnc.CodedBlock) *transport.Message {
		return &transport.Message{Type: transport.MsgBlock, Block: cb}
	}
	for base := 0; base < segments; base += window {
		n := window
		if base+n > segments {
			n = segments - base
		}
		segs := make([]*rlnc.Segment, n)
		for i := range segs {
			id := rlnc.SegmentID{Origin: uint64(100 + base + i), Seq: uint64(base + i)}
			payloads := make([][]byte, s)
			for j := range payloads {
				p := make([]byte, payloadLen)
				rng.FillCoefficients(p)
				payloads[j] = p
			}
			seg, err := rlnc.NewSegment(id, payloads)
			if err != nil {
				panic(err)
			}
			segs[i] = seg
		}
		// s rounds of one coded block per open segment; round 2 repeats
		// its block to exercise the non-innovative path.
		for round := 0; round < s; round++ {
			for _, seg := range segs {
				cb := seg.Encode(rng)
				msgs = append(msgs, block(cb))
				if round == 1 {
					msgs = append(msgs, block(cb.Clone()))
				}
			}
		}
		// One more block per segment after completion: the finished-
		// segment redundancy path.
		for _, seg := range segs {
			msgs = append(msgs, block(seg.Encode(rng)))
		}
		msgs = append(msgs, &transport.Message{Type: transport.MsgEmpty})
	}
	return msgs
}

// runGoldenStream replays the stream into a freshly built server (mutated
// by cfg, e.g. into 1-shard fleet mode) and records what comes out. Sends
// are paced against the server's receive counters, so the in-memory inbox
// never overflows and the arrival order is exactly the stream order.
func runGoldenStream(t *testing.T, mutate func(*ServerConfig)) goldenRecord {
	t.Helper()
	net := transport.NewNetwork()
	feeder := net.Join(777)
	cfg := ServerConfig{
		PullRate:    0, // receive-only: no pull loop, no RNG draws, no timing
		Peers:       []transport.NodeID{777},
		SegmentSize: 4, // goldenStream's s
		Seed:        1,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	srv, err := NewServer(net.Join(serverIDBase), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var deliveries []goldenDelivery
	srv.OnSegment = func(id rlnc.SegmentID, blocks [][]byte) {
		h := fnv.New64a()
		for _, b := range blocks {
			h.Write(b)
		}
		mu.Lock()
		deliveries = append(deliveries, goldenDelivery{
			Seg:  id.String(),
			Hash: fmt.Sprintf("%016x", h.Sum64()),
		})
		mu.Unlock()
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()

	waitFor := func(cond func(ServerStats) bool) {
		deadline := time.Now().Add(10 * time.Second)
		for !cond(srv.Stats()) {
			if time.Now().After(deadline) {
				t.Fatalf("golden stream stalled: %+v", srv.Stats())
			}
			time.Sleep(50 * time.Microsecond)
		}
	}
	var blocks, empties int64
	for _, m := range goldenStream(99) {
		if err := feeder.Send(serverIDBase, m); err != nil {
			t.Fatal(err)
		}
		switch m.Type {
		case transport.MsgBlock:
			blocks++
			waitFor(func(st ServerStats) bool { return st.BlocksReceived >= blocks })
		case transport.MsgEmpty:
			empties++
			waitFor(func(st ServerStats) bool { return st.EmptyReplies >= empties })
		}
	}
	st := srv.Stats()
	srv.Stop()

	// Transport counters depend on the harness endpoint, not the server's
	// protocol behavior; drop them from the pinned record.
	counters := make(map[string]int64)
	for k, v := range st.Protocol {
		if len(k) >= 9 && k[:9] == "transport" {
			continue
		}
		counters[k] = v
	}
	mu.Lock()
	defer mu.Unlock()
	return goldenRecord{
		Deliveries: deliveries,
		Counters:   counters,
		Redundant:  st.RedundantBlocks,
		Decoded:    st.DecodedSegments,
	}
}

func checkGolden(t *testing.T, got goldenRecord) {
	t.Helper()
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden updated: %d deliveries", len(got.Deliveries))
		return
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update-golden): %v", err)
	}
	var want goldenRecord
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got.Deliveries) != len(want.Deliveries) {
		t.Fatalf("delivered %d segments, golden has %d", len(got.Deliveries), len(want.Deliveries))
	}
	for i := range want.Deliveries {
		if got.Deliveries[i] != want.Deliveries[i] {
			t.Errorf("delivery %d: got %+v, want %+v", i, got.Deliveries[i], want.Deliveries[i])
		}
	}
	for k, v := range want.Counters {
		if got.Counters[k] != v {
			t.Errorf("counter %s: got %d, want %d", k, got.Counters[k], v)
		}
	}
	for k := range got.Counters {
		if _, ok := want.Counters[k]; !ok && got.Counters[k] != 0 {
			t.Errorf("unexpected nonzero counter %s = %d", k, got.Counters[k])
		}
	}
	if got.Redundant != want.Redundant {
		t.Errorf("redundant blocks: got %d, want %d", got.Redundant, want.Redundant)
	}
	if got.Decoded != want.Decoded {
		t.Errorf("decoded segments: got %d, want %d", got.Decoded, want.Decoded)
	}
}

// TestGoldenSingleServerStream pins the legacy single-server behavior.
func TestGoldenSingleServerStream(t *testing.T) {
	checkGolden(t, runGoldenStream(t, nil))
}
