package main

// The metrics a run reports, in output order, with their units. The
// end-to-end set is measured with tracing off and the per-layer set by
// a traced run; BENCHMARK.json lists both with their directions and
// bounds, and the smoke test checks the two agree.
var (
	endToEndNames = []string{
		"setup_s",                // daemon exec until every listener is ready (recovery included); median of the boots
		"ingest_items_per_s",     // acknowledged items per second; median over the phase's slices
		"server_cpu_ns_per_item", // daemon utime+stime per acknowledged item; median over slices
		"ingest_p99_ms",          // wire: a 16-frame group up to its ack; HTTP: a write from its due time; median of per-slice p99
		"rss_peak_mb",            // the daemon's VmHWM after the measured phase
	}
	perLayerNames = []string{
		// The HTTP query plane. HTTP mix: from each query's due time under
		// ingest; wire workloads: the closed-loop probe after ingest. Too
		// noisy run to run on a shared host to carry a bound.
		"query.p50_ms",
		"query.p99_ms",
		"client.frame_build_ns_per_item",
		"client.flush_p50_ms",
		"client.flush_p99_ms",
		"transport.ns_per_item",
		"transport.bytes_per_item",
		"wire.parse_ns_per_item",
		"registry.decode_keys_ns_per_item",
		"registry.ingest_batch_ns_per_item",
		"registry.view_rebuild_p50_ms",
		"registry.view_rebuild_p99_ms",
		"registry.view_rebuilds_per_query",
		"registry.absorb_blob_ms",
		"persist.append_ns_per_item",
		"persist.wal_bytes_per_item",
		"persist.sync_p50_ms",
		"persist.sync_p99_ms",
		"persist.snapshot_ms",
		"persist.replay_items_per_s",
		"summary.update_batch_ns_per_item",
		"summary.top_after_write_us",
		"summary.heavyhitters_us",
		"merge.ms_1",
		"merge.ms_8",
		"merge.ms_64",
		"codec.encode_ms",
		"codec.decode_ms",
		"codec.blob_bytes",
		"arena.bytes_per_tracked_key",
		"arena.live_ratio",
		"gc.pause_p99_ms",
		"reconcile.residual_frac",
		"trace.overhead_frac",
	}
)

var units = map[string]string{
	"setup_s":                "s",
	"ingest_items_per_s":     "items/s",
	"server_cpu_ns_per_item": "ns",
	"ingest_p99_ms":          "ms",
	"rss_peak_mb":            "MB",

	"query.p50_ms":                      "ms",
	"query.p99_ms":                      "ms",
	"client.frame_build_ns_per_item":    "ns",
	"client.flush_p50_ms":               "ms",
	"client.flush_p99_ms":               "ms",
	"transport.ns_per_item":             "ns",
	"transport.bytes_per_item":          "bytes",
	"wire.parse_ns_per_item":            "ns",
	"registry.decode_keys_ns_per_item":  "ns",
	"registry.ingest_batch_ns_per_item": "ns",
	"registry.view_rebuild_p50_ms":      "ms",
	"registry.view_rebuild_p99_ms":      "ms",
	"registry.view_rebuilds_per_query":  "ratio",
	"registry.absorb_blob_ms":           "ms",
	"persist.append_ns_per_item":        "ns",
	"persist.wal_bytes_per_item":        "bytes",
	"persist.sync_p50_ms":               "ms",
	"persist.sync_p99_ms":               "ms",
	"persist.snapshot_ms":               "ms",
	"persist.replay_items_per_s":        "items/s",
	"summary.update_batch_ns_per_item":  "ns",
	"summary.top_after_write_us":        "us",
	"summary.heavyhitters_us":           "us",
	"merge.ms_1":                        "ms",
	"merge.ms_8":                        "ms",
	"merge.ms_64":                       "ms",
	"codec.encode_ms":                   "ms",
	"codec.decode_ms":                   "ms",
	"codec.blob_bytes":                  "bytes",
	"arena.bytes_per_tracked_key":       "bytes",
	"arena.live_ratio":                  "fraction",
	"gc.pause_p99_ms":                   "ms",
	"reconcile.residual_frac":           "fraction",
	"trace.overhead_frac":               "fraction",
}
