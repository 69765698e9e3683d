package main

// metricSpec names one metric the way BENCHMARK.json lists it; the smoke
// test keeps the two in step.
type metricSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEndSpecs are the metrics of a timed run, the same on every workload.
var endToEndSpecs = []metricSpec{
	{"delivered_mb_s", "MB/s", "higher"},
	{"delivered_ratio", "fraction", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"allocs_per_block", "count", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"setup_s", "s", "lower"},
}

// perLayerSpecs are the metrics of a traced run, named <layer>.<metric>.
// The first two are end-to-end numbers kept here because they do not
// repeat within any allowed bound on every workload: the tail latency on
// ingest-udp-wal, the CPU cost on fleet-tcp-paced (see README.md).
var perLayerSpecs = []metricSpec{
	{"latency.p99_ms", "ms", "lower"},
	{"cpu.s_per_gb", "CPU-s/GB", "lower"},
	{"live.pulls_per_s", "1/s", "higher"},
	{"live.pull_pacing_ratio", "fraction", "higher"},
	{"live.recv_per_s", "1/s", "higher"},
	{"live.redundant_share", "fraction", "lower"},
	{"live.empty_reply_share", "fraction", "lower"},
	{"live.server_residual_us_per_block", "us", "lower"},
	{"live.gossip_per_s", "1/s", "higher"},
	{"live.gossip_pacing_ratio", "fraction", "higher"},
	{"live.inject_suppressed_share", "fraction", "lower"},
	{"peercore.ttl_expired_per_s", "1/s", "lower"},
	{"peercore.redundant_store_share", "fraction", "lower"},
	{"peercore.recode_ns_per_block", "ns", "lower"},
	{"peercore.store_ns_per_block", "ns", "lower"},
	{"collect.useful_share", "fraction", "higher"},
	{"collect.handle_block_ns", "ns", "lower"},
	{"collect.handle_block_allocs", "count", "lower"},
	{"collect.collection_time_p50_ms", "ms", "lower"},
	{"gfmat.insert_ns_per_block", "ns", "lower"},
	{"rlnc.decode_us_per_segment", "us", "lower"},
	{"rlnc.decode_latency_p50_us", "us", "lower"},
	{"gf256.addmul_gb_s", "GB/s", "higher"},
	{"wal.append_ns_per_block", "ns", "lower"},
	{"wal.receive_overhead_ratio", "ratio", "lower"},
	{"wal.append_latency_p99_us", "us", "lower"},
	{"wal.bytes_per_block", "B", "lower"},
	{"wal.snapshots", "count", "lower"},
	{"transport.encode_ns_per_block", "ns", "lower"},
	{"transport.decode_ns_per_block", "ns", "lower"},
	{"transport.frame_overhead_bytes", "B", "lower"},
	{"transport.send_ns_p50", "ns", "lower"},
	{"transport.queue_wait_us_p50", "us", "lower"},
	{"transport.queue_wait_us_p99", "us", "lower"},
	{"transport.drop_share", "fraction", "lower"},
	{"transport.msgs_per_delivered_block", "count", "lower"},
	{"transport.wire_bytes_per_payload_byte", "ratio", "lower"},
	{"pullsched.choose_ns_p50", "ns", "lower"},
	{"pullsched.feedback_ns_p50", "ns", "lower"},
	{"pullsched.hinted_share", "fraction", "higher"},
	{"pullsched.inventory_msgs_per_s", "1/s", "lower"},
	{"fleet.exchange_per_s", "1/s", "lower"},
	{"fleet.misrouted_share", "fraction", "lower"},
	{"fleet.duplicate_deliveries", "count", "lower"},
	{"fleet.owner_ns", "ns", "lower"},
	{"fleet.claim_ns", "ns", "lower"},
	{"phase.first_pull_wait_ms_p50", "ms", "lower"},
	{"phase.collection_ms_p50", "ms", "lower"},
	{"phase.decode_deliver_us_p50", "us", "lower"},
	{"obs.tracing_overhead_pct", "%", "lower"},
	{"bench.peer_reply_ns", "ns", "lower"},
	{"bench.generator_cpu_share", "fraction", "lower"},
	{"bench.harness_allocs_per_block", "count", "lower"},
}

var perLayerUnits = func() map[string]string {
	m := make(map[string]string, len(perLayerSpecs))
	for _, s := range perLayerSpecs {
		m[s.Name] = s.Unit
	}
	return m
}()
