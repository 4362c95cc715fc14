//! # heidl-perfbench — the repository benchmark
//!
//! Three closed-loop workloads drive the public `heidl-rmi` and
//! `heidl-wire` API from one process, each beside a raw-socket floor
//! measured in the same run:
//!
//! * [`echo`] — per-call runtime cost, one caller, CDR;
//! * [`routed`] — a router hop, exactly-once tokens and the text
//!   protocol, two callers;
//! * [`bulk`] — oneway uploads and streamed downloads, two callers, CDR.
//!
//! [`runner::run`] measures one workload; the binary wraps it in the
//! command line `BENCHMARK.json` names. See `README.md` beside this
//! crate for the metric glossary and the reasons behind each workload.

pub mod alloc;
pub mod bulk;
pub mod echo;
pub mod floor;
pub mod gen;
pub mod manifest;
pub mod procfs;
pub mod routed;
pub mod runner;
pub mod stats;
pub mod system;
pub mod trace;
pub mod wirebench;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

pub use runner::{run, Config, Report, Workload};

/// The report's last line: one JSON object with exactly the keys
/// `correct`, `attempted`, `failed` and `metrics`.
pub fn result_json(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, unit, value)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}
