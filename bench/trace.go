package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"time"

	"p2pcollect/internal/collect/store/wal"
)

// budgetRow is one line of the per-block budget: what one block received
// by a server cost in that layer.
type budgetRow struct {
	Layer      string  `json:"layer"`
	NSPerBlock float64 `json:"ns_per_block"`
	How        string  `json:"how"`
}

// traceFile is what a traced run leaves in bench/out/<workload>.trace.json.
type traceFile struct {
	Workload        string             `json:"workload"`
	Seed            int64              `json:"seed"`
	UntracedSeconds float64            `json:"untraced_window_s"`
	TracedSeconds   float64            `json:"traced_window_s"`
	WallNSPerBlock  float64            `json:"wall_ns_per_received_block"`
	Budget          []budgetRow        `json:"budget"`
	Metrics         map[string]metric  `json:"metrics"`
	PhaseSamples    int                `json:"phase_samples"`
	Replay          map[string]float64 `json:"replay"`
	Spans           []*segSpan         `json:"spans"`
}

// maxSpansWritten bounds the trace file; the metrics use every span.
const maxSpansWritten = 2000

// runTraced is the run behind the per-layer metrics: an untraced reference
// window, then a window with the taps, the policy decorator and the
// harness tracer installed, then the layer replays on what the taps
// captured.
func runTraced(cfg runConfig) (*result, error) {
	w := cfg.w
	scratch, err := os.MkdirTemp(cfg.outDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch) //nolint:errcheck // scratch data

	ref, err := startRig(w, cfg.seed, scratch, nil, time.Now())
	if err != nil {
		return nil, err
	}
	ref.keepReplies.Store(w.scripted > 0)
	refWins := ref.measure(cfg.seconds*warmupShare, cfg.seconds*traceRefShare)
	ref.stop()

	trc := newTracing()
	r, err := startRig(w, cfg.seed, scratch, trc, time.Now())
	if err != nil {
		return nil, err
	}
	wins := r.measure(cfg.seconds*warmupShare, cfg.seconds*traceWindowShare)
	r.stop()

	// The replays run on what reached the servers' taps — except where the
	// harness owns the senders and the taps change the mix (ingest-*: a
	// closed loop whose redundancy follows the queue depths the taps add
	// to), where they run on the scripted peers' own untraced replies.
	captured := trc.captured
	if w.scripted > 0 {
		captured = ref.replies
	}
	lc, err := replay(w, captured, scratch, cfg.seed)
	if err != nil {
		return nil, err
	}

	// Counters come from the untraced window, spans from the traced one.
	win, traced := whole(refWins), whole(wins)
	T := win.seconds
	B, E := win.begin, win.end
	srv := func(key string) float64 { return delta(B.server, E.server, key) }
	node := func(key string) float64 { return delta(B.node, E.node, key) }
	tapped := func(key string) float64 { return delta(traced.begin.tap, traced.end.tap, key) }
	deliveredBlocks := float64(traced.delivered) * float64(w.segmentSize)
	recv := srv("blocksReceived")
	useful, redundant, empty := srv("pullschedFeedbackUseful"), srv("pullschedFeedbackRedundant"), srv("pullschedFeedbackEmpty")

	m := map[string]metric{}
	put := func(name string, v float64) { m[name] = metric{v, perLayerUnits[name]} }

	untraced, _ := endToEnd(w, refWins)
	put("latency.p99_ms", untraced["latency.p99_ms"].Value)
	put("cpu.s_per_gb", untraced["cpu.s_per_gb"].Value)

	put("live.pulls_per_s", srv("pullsSent")/T)
	put("live.pull_pacing_ratio", ratio(srv("pullsSent")/T, w.pullRate*float64(w.servers)))
	put("live.recv_per_s", recv/T)
	put("live.redundant_share", ratio(srv("redundantBlocksCoarse"), recv))
	put("live.empty_reply_share", ratio(srv("emptyReplies"), recv+srv("emptyReplies")))
	put("collect.useful_share", ratio(useful, useful+redundant+empty))

	put("live.gossip_per_s", node("gossipSends")/T)
	put("live.gossip_pacing_ratio", ratio(node("gossipSends")/T, float64(w.peers)*w.mu))
	put("live.inject_suppressed_share", ratio(node("suppressedInjections"), node("suppressedInjections")+node("injectedSegments")))
	put("peercore.ttl_expired_per_s", node("blocksLostToTTL")/T)
	put("peercore.redundant_store_share", ratio(node("redundantBlocks"), node("blocksReceived")))
	put("peercore.recode_ns_per_block", lc.recodeNS)
	put("peercore.store_ns_per_block", lc.storeNS)

	put("collect.handle_block_ns", lc.handleBlockNS)
	put("collect.handle_block_allocs", lc.handleBlockAllocs)
	put("collect.collection_time_p50_ms", 1e3*histQuantile(B.hists["collectionTime"], E.hists["collectionTime"], 0.5))

	put("gfmat.insert_ns_per_block", lc.insertNS)
	put("rlnc.decode_us_per_segment", lc.decodeUSPerSeg)
	put("rlnc.decode_latency_p50_us", 1e6*histQuantile(B.hists["decodeLatency"], E.hists["decodeLatency"], 0.5))
	put("gf256.addmul_gb_s", lc.addmulGBs)

	put("wal.append_ns_per_block", lc.walReceiveNS-lc.insertNS)
	put("wal.receive_overhead_ratio", ratio(lc.walReceiveNS, lc.insertNS))
	put("wal.append_latency_p99_us", 1e6*histQuantile(B.hists["walAppendLatency"], E.hists["walAppendLatency"], 0.99))
	put("wal.bytes_per_block", lc.walBytesPerBlock)
	var snapshots float64
	if w.wal {
		// The store snapshots every DefaultSnapshotEvery-th block that
		// enters a collection, which is what serverPulls counts.
		snapshots = float64(E.server["serverPulls"]/wal.DefaultSnapshotEvery - B.server["serverPulls"]/wal.DefaultSnapshotEvery)
	}
	put("wal.snapshots", snapshots)

	put("transport.encode_ns_per_block", lc.encodeNS)
	put("transport.decode_ns_per_block", lc.decodeNS)
	put("transport.frame_overhead_bytes", lc.frameOverhead)
	put("transport.send_ns_p50", trc.sendNS.quantile(0.5))
	put("transport.queue_wait_us_p50", trc.waitUS.quantile(0.5))
	put("transport.queue_wait_us_p99", trc.waitUS.quantile(0.99))
	drop := 1 - ratio(tapped("recvd"), tapped("sent"))
	if drop < 0 {
		drop = 0 // messages sent before the window and received inside it
	}
	put("transport.drop_share", drop)
	put("transport.msgs_per_delivered_block", ratio(tapped("sent"), deliveredBlocks))
	frameBytes := ratio(float64(trc.wireBytes.Load()), float64(trc.wireSampled.Load()))
	put("transport.wire_bytes_per_payload_byte", ratio(frameBytes*tapped("sent"), deliveredBlocks*float64(w.blockSize)))

	chooseNS, feedbackNS := trc.chooseNS.quantile(0.5), trc.feedbackNS.quantile(0.5)
	put("pullsched.choose_ns_p50", chooseNS)
	put("pullsched.feedback_ns_p50", feedbackNS)
	put("pullsched.hinted_share", ratio(tapped("hinted"), tapped("decisions")))
	put("pullsched.inventory_msgs_per_s", tapped("inventories")/traced.seconds)

	put("fleet.exchange_per_s", srv("fleetExchangeSent")/T)
	put("fleet.misrouted_share", ratio(srv("fleetMisroutedBlocks"), recv))
	put("fleet.duplicate_deliveries", float64(r.orc.duplicates+ref.orc.duplicates))
	put("fleet.owner_ns", lc.ownerNS)
	put("fleet.claim_ns", lc.claimNS)

	refMBs, tracedMBs := medianMBs(w, refWins), medianMBs(w, wins)
	put("obs.tracing_overhead_pct", 100*ratio(refMBs-tracedMBs, refMBs))
	put("bench.peer_reply_ns", lc.peerReplyNS)
	// Real nodes are the system, not the generator: only scripted peers and
	// the oracle count as harness.
	peersNS := float64(E.replies-B.replies)*lc.peerReplyNS + float64(win.injected)*lc.segmentGenNS
	if w.scripted == 0 {
		peersNS = 0
	}
	oracleNS := float64(win.delivered) * lc.oracleNSPerSeg
	put("bench.generator_cpu_share", ratio((peersNS+oracleNS)/1e9, E.cpu-B.cpu))
	put("bench.harness_allocs_per_block", lc.harnessAllocs)

	// Segment phases on the harness clock.
	var firstPull, collection, deliver []float64
	trc.mu.Lock()
	spans := make([]*segSpan, 0, len(trc.spans))
	for _, sp := range trc.spans {
		if sp.Delivered == 0 {
			continue
		}
		spans = append(spans, sp)
		if sp.Inject > 0 && sp.FirstRank >= sp.Inject {
			firstPull = append(firstPull, float64(sp.FirstRank-sp.Inject)/1e6)
		}
		if sp.FirstRank > 0 && sp.Decoded >= sp.FirstRank {
			collection = append(collection, float64(sp.Decoded-sp.FirstRank)/1e6)
		}
		if sp.Decoded > 0 && sp.Delivered >= sp.Decoded {
			deliver = append(deliver, float64(sp.Delivered-sp.Decoded)/1e3)
		}
	}
	trc.mu.Unlock()
	put("phase.first_pull_wait_ms_p50", quantile(firstPull, 0.5))
	put("phase.collection_ms_p50", quantile(collection, 0.5))
	put("phase.decode_deliver_us_p50", quantile(deliver, 0.5))

	// The per-block budget of a server: replayed layer self-times, the
	// decorator's policy spans, the harness's own oracle, and whatever is
	// left of the wall time between two received blocks.
	wall := ratio(1e9*float64(w.servers)*T, recv)
	decodeShare := lc.decodeUSPerSeg * 1e3 * lc.decodedShare
	budget := []budgetRow{
		{"gfmat.insert", lc.insertNS, "replay: store.Memory.Receive"},
		{"rlnc.decode", decodeShare, "replay: Collection.Decode, spread over the blocks of the mix"},
		{"collect.service", math.Max(0, lc.handleBlockNS-lc.insertNS-decodeShare), "replay: HandleBlock+Flush minus the two rows above"},
		{"pullsched.policy", chooseNS*ratio(srv("pullsSent"), recv) + feedbackNS, "decorator: Choose p50 per pull + Feedback p50"},
		{"bench.oracle", ratio(oracleNS, recv), "replay: oracle check per delivery (runs inside OnSegment)"},
	}
	if w.procs == 1 {
		// On one P the scripted peers' work is part of the wall time between
		// two received blocks; with more Ps peers run beside the server.
		budget = append(budget, budgetRow{"bench.scripted_peers", ratio(peersNS, recv), "replay: pull answers and segment set-up, sharing the one P"})
	}
	if w.transport != "chanmem" {
		budget = append(budget, budgetRow{"transport.decode", lc.decodeNS, "replay: DecodeMessage (read loop, off the server goroutine)"})
	}
	if w.wal {
		budget = append(budget, budgetRow{"wal.append", lc.walReceiveNS - lc.insertNS, "replay: wal.Store.Receive minus store.Memory.Receive"})
	}
	var accounted float64
	for _, row := range budget {
		accounted += row.NSPerBlock
	}
	residual := wall - accounted
	budget = append(budget, budgetRow{"live.server_residual", residual, "wall ns per received block minus every row above: lock wait, channel hops, timers, scheduler, idle"})
	put("live.server_residual_us_per_block", residual/1e3)

	res := &result{Metrics: m, info: hostInfo(cfg)}
	res.info["untraced_window_s"] = T
	res.info["traced_window_s"] = traced.seconds
	res.info["captured_blocks"] = lc.blocks
	res.info["segments_delivered"] = win.delivered
	res.info["phase_samples"] = len(collection)
	res.info["wall_ns_per_received_block"] = wall
	res.info["replay_s"] = lc.replayWallClock
	res.verdict(ref, r)

	if len(spans) > maxSpansWritten {
		spans = spans[:maxSpansWritten]
	}
	tf := traceFile{
		Workload: w.name, Seed: cfg.seed, UntracedSeconds: T, TracedSeconds: traced.seconds,
		WallNSPerBlock: wall, Budget: budget, Metrics: m,
		PhaseSamples: len(collection),
		Replay: map[string]float64{
			"captured_blocks":     float64(lc.blocks),
			"segment_gen_ns":      lc.segmentGenNS,
			"oracle_ns_per_seg":   lc.oracleNSPerSeg,
			"decoded_per_block":   lc.decodedShare,
			"wal_receive_ns":      lc.walReceiveNS,
			"reference_mb_s":      refMBs,
			"traced_mb_s":         tracedMBs,
			"frame_bytes_sampled": frameBytes,
		},
		Spans: spans,
	}
	data, err := json.MarshalIndent(tf, "", " ")
	if err != nil {
		return nil, err
	}
	path := filepath.Join(cfg.outDir, w.name+".trace.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return nil, err
	}
	res.info["trace_file"] = path
	return res, nil
}
