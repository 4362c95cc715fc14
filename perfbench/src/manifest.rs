//! Every metric the benchmark reports, with its unit. `BENCHMARK.json`
//! at the repository root lists the same names and units; a test keeps
//! the two in step.

/// Reported by every run with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("calls_per_sec", "ops/s"),
    ("p50_us", "us"),
    ("p99_us", "us"),
    ("mb_per_sec", "MiB/s"),
    ("cpu_us_per_op", "us"),
    ("peak_rss_mb", "MiB"),
    ("floor_ratio", "ratio"),
];

/// Reported by every run with `--trace 1`. A layer a workload does not
/// exercise reads 0 (see the README's glossary).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("fail_ratio", "ratio"),
    ("floor.rtt_p50_us", "us"),
    ("floor.mb_per_sec", "MiB/s"),
    ("wire.encode_ns", "ns"),
    ("wire.decode_ns", "ns"),
    ("wire.frame_ns", "ns"),
    ("wire.deframe_ns", "ns"),
    ("wire.frame_bytes", "bytes"),
    ("orb.marshal_us", "us"),
    ("orb.invoke_us", "us"),
    ("orb.resume_us", "us"),
    ("orb.unmarshal_us", "us"),
    ("call.request_path_us", "us"),
    ("call.reply_path_us", "us"),
    ("server.servant_us", "us"),
    ("server.dispatch_gap_us", "us"),
    ("router.tokened_p50_us", "us"),
    ("router.plain_p50_us", "us"),
    ("router.tokened_drift", "ratio"),
    ("router.threads_peak", "count"),
    ("router.busy", "count"),
    ("replay.dedup_replays", "count"),
    ("replay.evictions", "count"),
    ("replay.executions_per_token", "ratio"),
    ("stream.first_chunk_us", "us"),
    ("stream.chunk_wait_us", "us"),
    ("stream.high_water_bytes", "bytes"),
    ("stream.chunks_per_op", "count"),
    ("orb.oneway_send_us", "us"),
    ("orb.commit_wait_us", "us"),
    ("proc.allocs_per_op", "count"),
    ("proc.ctx_switches_per_op", "count"),
    ("proc.bytes_per_op", "bytes"),
    ("trace.overhead_pct", "%"),
];

/// The unit of metric `name`, from either list.
pub fn unit(name: &str) -> Option<&'static str> {
    END_TO_END.iter().chain(PER_LAYER).find(|(n, _)| *n == name).map(|(_, u)| *u)
}
