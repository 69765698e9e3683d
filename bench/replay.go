package main

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"runtime"
	"time"

	"p2pcollect/internal/collect"
	"p2pcollect/internal/collect/store"
	"p2pcollect/internal/collect/store/wal"
	"p2pcollect/internal/fleet"
	"p2pcollect/internal/gf256"
	"p2pcollect/internal/logdata"
	"p2pcollect/internal/obs"
	"p2pcollect/internal/peercore"
	"p2pcollect/internal/pullsched"
	"p2pcollect/internal/randx"
	"p2pcollect/internal/rlnc"
	"p2pcollect/internal/transport"
)

// layerCosts is what replaying the captured blocks through each layer's
// public functions measured, one layer at a time with nothing else running.
type layerCosts struct {
	blocks int // captured MsgBlocks replayed

	handleBlockNS     float64 // collect.Service.HandleBlock + Flush, per block
	handleBlockAllocs float64
	insertNS          float64 // store.Memory.Receive, per block
	decodeUSPerSeg    float64 // Collection.Decode, per decoded segment
	decodedShare      float64 // decoded segments per replayed block
	walReceiveNS      float64 // wal.Store.Receive, per block
	walBytesPerBlock  float64
	addmulGBs         float64

	encodeNS, decodeNS float64 // frame codec, per block message
	frameOverhead      float64 // frame bytes beyond the block payload

	recodeNS, storeNS float64 // peercore.Peer
	ownerNS, claimNS  float64 // fleet.Ring / fleet.Journal

	peerReplyNS     float64 // scripted peer: one pull answer
	segmentGenNS    float64 // scripted peer: one segment injected
	oracleNSPerSeg  float64 // harness: one delivery verified
	harnessAllocs   float64 // generator + oracle allocations per source block
	replayWallClock float64 // seconds the replays took
}

// stopwatch times f once; allocs is the process-wide malloc count it
// caused, which is f's own as long as nothing else is running.
func stopwatch(f func()) (ns, allocs float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	f()
	ns = float64(time.Since(t0))
	runtime.ReadMemStats(&after)
	return ns, float64(after.Mallocs - before.Mallocs)
}

// replayRounds is how often a timed replay pass repeats; its fastest round
// counts.
const replayRounds = 3

// keepMin lowers *dst to v; zero means not measured yet.
func keepMin(dst *float64, v float64) {
	if *dst == 0 || v < *dst {
		*dst = v
	}
}

// replayStore drives a store the way collect.Service does, minus policy,
// tracing and delivery, and separates out the time spent in Decode.
func replayStore(st store.Store, blocks []*rlnc.CodedBlock) (totalNS, decodeNS float64, decoded int) {
	t0 := time.Now()
	for i, cb := range blocks {
		if st.Finished(cb.Seg) {
			continue
		}
		out, col, err := st.Receive(float64(i), cb)
		if err != nil || !out.Decoded {
			continue
		}
		st.MarkFinished(cb.Seg)
		st.Forget(cb.Seg)
		d0 := time.Now()
		col.Decode() //nolint:errcheck // timing only; the live run's oracle checks the bytes
		decodeNS += float64(time.Since(d0))
		col.Release()
		decoded++
	}
	return float64(time.Since(t0)), decodeNS, decoded
}

// generateBlocks fills one segment's source blocks with statistics records
// stamped t and numbered contiguously from firstSeq, like
// live.Node.makePayloads does.
func generateBlocks(gen *logdata.Generator, w *workload, t float64, firstSeq uint64) [][]byte {
	perBlock := w.blockSize / logdata.RecordSize
	blocks := make([][]byte, w.segmentSize)
	for i := range blocks {
		b := make([]byte, w.blockSize)
		for j := 0; j < perBlock; j++ {
			rec := gen.Next(t)
			rec.SeqNo = firstSeq
			firstSeq++
			copy(b[j*logdata.RecordSize:], rec.Marshal())
		}
		blocks[i] = b
	}
	return blocks
}

// seqNoOffset is where Record.Marshal puts SeqNo, found by marshaling a
// probe value; -1 if the format ever stops storing it as 8 big-endian
// bytes, in which case scripted peers generate every segment afresh.
var seqNoOffset = func() int {
	probe := logdata.Record{SeqNo: 0x1122334455667788}
	var want [8]byte
	binary.BigEndian.PutUint64(want[:], probe.SeqNo)
	return bytes.Index(probe.Marshal(), want[:])
}()

// restamp turns the source blocks of a finished segment into those of the
// next one in place: the first record becomes a fresh reading taken at t
// (the oracle reads the segment's injection time from it) and every record
// gets its new SeqNo. The other readings stay as they were; the coding
// layers never look at them. This keeps a scripted peer's cost of making
// a segment (23 us) an order of magnitude under what generateBlocks costs,
// and well under its cost of recoding the segment for the pulls.
func restamp(blocks [][]byte, gen *logdata.Generator, t float64, firstSeq uint64) {
	copy(blocks[0], gen.Next(t).Marshal())
	for _, b := range blocks {
		for at := 0; at+logdata.RecordSize <= len(b); at += logdata.RecordSize {
			binary.BigEndian.PutUint64(b[at+seqNoOffset:], firstSeq)
			firstSeq++
		}
	}
}

// replay measures every layer on the captured messages. scratch holds the
// temporary WAL.
func replay(w *workload, captured []*transport.Message, scratch string, seed int64) (layerCosts, error) {
	began := time.Now()
	lc := layerCosts{blocks: len(captured)}
	blocks := make([]*rlnc.CodedBlock, len(captured))
	for i, m := range captured {
		blocks[i] = m.Block
	}
	n := float64(len(blocks))
	runtime.GC()

	// The three passes whose difference the budget takes (collect, the
	// memory store under it, the WAL store beside it) run replayRounds
	// times in turn and keep their fastest round, so that a slow phase of
	// the host during one pass does not end up as a layer's cost.
	for round := 0; round < replayRounds && len(blocks) > 0; round++ {
		// collect: the whole server-side handling of one block.
		svc, err := collect.New(collect.Config{SegmentSize: w.segmentSize, Policy: pullsched.Blind{}})
		if err != nil {
			return lc, err
		}
		svc.Start(func(rlnc.SegmentID, [][]byte) {})
		ns, allocs := stopwatch(func() {
			for i, m := range captured {
				res := svc.HandleBlock(float64(i), pullsched.PeerRef(m.From), m.Block, true, obs.TraceContext{})
				if res.Flush != nil {
					res.Flush()
				}
			}
		})
		svc.Close()
		keepMin(&lc.handleBlockNS, ns/n)
		lc.handleBlockAllocs = allocs / n

		// gfmat/rlnc: the store under it.
		mem, err := store.NewMemory(store.MemoryConfig{SegmentSize: w.segmentSize})
		if err != nil {
			return lc, err
		}
		total, dec, decoded := replayStore(mem, blocks)
		mem.Close() //nolint:errcheck // in-memory close cannot fail
		keepMin(&lc.insertNS, (total-dec)/n)
		lc.decodedShare = float64(decoded) / n
		if decoded > 0 {
			keepMin(&lc.decodeUSPerSeg, dec/float64(decoded)/1e3)
		}

		// wal: the same store made durable, default sync mode, no snapshot
		// inside the replay so the byte count is the whole log.
		dir, err := os.MkdirTemp(scratch, "replay-wal-")
		if err != nil {
			return lc, err
		}
		bytes := obs.NewGauge("walBytes")
		durable, err := wal.Open(wal.Options{
			Config:      wal.Config{Dir: dir, SnapshotEvery: 1 << 30},
			SegmentSize: w.segmentSize, WALBytes: bytes,
		})
		if err != nil {
			return lc, err
		}
		total, dec, _ = replayStore(durable, blocks)
		keepMin(&lc.walReceiveNS, (total-dec)/n)
		lc.walBytesPerBlock = bytes.Value() / n
		durable.Close()   //nolint:errcheck // scratch data
		os.RemoveAll(dir) //nolint:errcheck // scratch data
	}

	if len(blocks) > 0 {
		// transport: the frame codec on the captured messages.
		frames := make([][]byte, 0, len(captured))
		var overhead int
		ns, _ := stopwatch(func() {
			for _, m := range captured {
				var b []byte
				if w.transport == "udp" {
					b, _ = transport.EncodeDatagram(m, 0)
				} else {
					b, _ = transport.EncodeMessage(m)
					b = b[4:] // DecodeMessage takes the body behind the length prefix
					overhead += 4
				}
				frames = append(frames, b)
			}
		})
		lc.encodeNS = ns / n
		for i, b := range frames {
			overhead += len(b) - len(captured[i].Block.Payload)
		}
		lc.frameOverhead = float64(overhead) / n
		ns, _ = stopwatch(func() {
			for _, b := range frames {
				transport.DecodeMessage(b) //nolint:errcheck // timing only
			}
		})
		lc.decodeNS = ns / n

		// peercore: what a peer does with the same blocks.
		peer := peercore.NewPeer(1, peercore.PeerConfig{
			SegmentSize: w.segmentSize, BufferCap: len(blocks) + w.segmentSize, Gamma: 1e-9,
		}, randx.New(seed), nil)
		ns, _ = stopwatch(func() {
			for i, cb := range blocks {
				peer.Store(float64(i), cb)
			}
		})
		lc.storeNS = ns / n
		if k := peer.NumSegments(); k > 0 {
			ns, _ = stopwatch(func() {
				for i := range blocks {
					peer.Recode(peer.SegmentAt(i % k))
				}
			})
			lc.recodeNS = ns / n
		}

		// fleet: ring lookup and journal claim per block.
		shards := w.servers
		if shards < 2 {
			shards = 2
		}
		ring, err := fleet.NewRing(shards, fleet.DefaultVnodes)
		if err != nil {
			return lc, err
		}
		var sink int
		ns, _ = stopwatch(func() {
			for _, cb := range blocks {
				sink += ring.Owner(cb.Seg)
			}
		})
		lc.ownerNS = ns / n
		journal := fleet.NewJournal(0)
		ns, _ = stopwatch(func() {
			for _, cb := range blocks {
				if journal.Claim(cb.Seg) {
					sink++
				}
			}
		})
		lc.claimNS = ns / n
		_ = sink
	}

	// gf256: the kernel at this workload's block size.
	dst, src := make([]byte, w.blockSize), make([]byte, w.blockSize)
	randx.New(seed).FillCoefficients(src)
	const addmulIters = 50000
	ns, _ := stopwatch(func() {
		for i := 0; i < addmulIters; i++ {
			gf256.AddMulSlice(dst, byte(i)|1, src)
		}
	})
	lc.addmulGBs = float64(w.blockSize) * addmulIters / ns

	// bench: the harness's own load generator and oracle, fastest round of
	// replayRounds like the store passes above.
	const harnessSegments = 200
	orc := newOracle(w)
	segments := make([][][]byte, harnessSegments)
	gen := logdata.NewGenerator(1, randx.New(seed))
	for i := range segments {
		segments[i] = generateBlocks(gen, w, 0, uint64(i*w.segmentSize*(w.blockSize/logdata.RecordSize)))
	}
	perBlock := float64(harnessSegments * w.segmentSize)
	for round := 0; round < replayRounds; round++ {
		var allocs float64
		if w.scripted > 0 {
			p := newScriptedPeer(&rig{w: w, orc: orc}, nopTransport{}, seed, time.Now())
			ns, a := stopwatch(func() {
				for i := 0; i < harnessSegments; i++ {
					p.inject()
				}
			})
			keepMin(&lc.segmentGenNS, ns/harnessSegments)
			allocs += a
			ns, a = stopwatch(func() {
				for i := 0; i < harnessSegments*w.segmentSize; i++ {
					p.answer()
				}
			})
			keepMin(&lc.peerReplyNS, ns/perBlock)
			allocs += a
		}
		ns, a := stopwatch(func() {
			for i, blocks := range segments {
				orc.check(rlnc.SegmentID{Origin: 1, Seq: uint64(i)}, blocks) //nolint:errcheck // timing only
				if w.scripted > 0 {
					var crc uint32
					for _, b := range blocks {
						crc = crc32.Update(crc, castagnoli, b)
					}
				}
			}
		})
		keepMin(&lc.oracleNSPerSeg, ns/harnessSegments)
		lc.harnessAllocs = (allocs + a) / perBlock
	}

	lc.replayWallClock = time.Since(began).Seconds()
	return lc, nil
}

// nopTransport is the replayed scripted peer's transport: it is never sent
// on or received from.
type nopTransport struct{}

func (nopTransport) LocalID() transport.NodeID                       { return 1 }
func (nopTransport) Send(transport.NodeID, *transport.Message) error { return nil }
func (nopTransport) Receive() <-chan *transport.Message              { return nil }
func (nopTransport) Close() error                                    { return nil }
