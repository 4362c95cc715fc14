//! One benchmark run: seeded inputs, repeated set-up, a warm-up, then
//! rounds that alternate the raw-socket floor with the closed-loop ORB
//! measurement, so drift in the machine moves both sides of
//! `floor_ratio` alike.
//!
//! With `--trace 0` the run measures the end-to-end metrics on an
//! untraced system. With `--trace 1` it sets up a second, traced system
//! (interceptors registered, servants stamping) beside an untraced one,
//! alternates between them, and reports the per-layer metrics; the gap
//! between the two is the tracing overhead.

use crate::bulk::{self, Bulk};
use crate::echo::{self, Echo};
use crate::floor::{Floor, Script};
use crate::manifest;
use crate::procfs;
use crate::routed::{self, Routed};
use crate::stats::{median_f64, median_u64, quantile, Hist};
use crate::system::{Issued, LayerCounters, Message, OpOutcome, System};
use crate::trace::{self, OpTrace, ServerStamps, Stages, Tracer};
use crate::wirebench::WireTimes;
use heidl_rmi::{Counter, RmiResult};
use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 21;
/// Floor and ORB measurement alternate this many times per run.
const ROUNDS: usize = 10;
/// Share of the measured time the floor gets in an untraced run.
const FLOOR_SHARE: f64 = 0.15;
/// Traced runs: shares of floor, untraced ORB, traced ORB, wire.
const TRACED_SHARES: [f64; 4] = [0.1, 0.35, 0.35, 0.2];
/// Traced operations whose span trees are written out.
const SPAN_OPS: usize = 2000;

/// The workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One caller, sequential CDR echo calls.
    Echo,
    /// Two callers, text protocol, through a router to two backends.
    Routed,
    /// Two callers, CDR, oneway upload plus streamed download.
    Bulk,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::Echo, Workload::Routed, Workload::Bulk];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Echo => "echo",
            Workload::Routed => "routed",
            Workload::Bulk => "bulk",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Closed-loop caller threads.
    pub fn callers(self) -> usize {
        match self {
            Workload::Echo => 1,
            Workload::Routed | Workload::Bulk => 2,
        }
    }

    fn method(self) -> &'static str {
        match self {
            Workload::Echo => echo::METHOD,
            Workload::Routed => routed::METHOD,
            Workload::Bulk => bulk::METHOD,
        }
    }

    /// Operations whose messages the floor and wire timings cycle over.
    fn sample_ops(self) -> u64 {
        match self {
            Workload::Echo | Workload::Routed => 256,
            Workload::Bulk => 1,
        }
    }
}

/// What to run.
#[derive(Debug, Clone)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    /// Measured time, set-up and warm-up excluded.
    pub seconds: f64,
    /// Report per-layer metrics from a traced run instead of end-to-end
    /// ones.
    pub trace: bool,
    /// Test hook: the echo servant answers some calls wrongly.
    pub corrupt_echo: bool,
    /// Where a traced run writes its spans, if anywhere.
    pub spans_path: Option<PathBuf>,
}

/// A finished run.
#[derive(Debug)]
pub struct Report {
    /// Every output matched and the ledger held.
    pub correct: bool,
    /// Operations issued after set-up.
    pub attempted: u64,
    /// Operations that failed, were refused, timed out or answered wrongly.
    pub failed: u64,
    /// `(name, unit, value)`, in manifest order.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    /// Human-readable report: provenance, sample counts, checks.
    pub lines: Vec<String>,
    /// Traced runs: `(sum of stage self times, caller-measured latency)`
    /// in nanoseconds for each traced two-way operation, plus how many
    /// had stamps out of order.
    pub tiling: Vec<(u64, u64)>,
    pub tiling_violations: u64,
}

enum Inputs {
    Echo(Arc<echo::Inputs>),
    Routed(Arc<routed::Inputs>),
    Bulk(Arc<bulk::Inputs>),
}

impl Inputs {
    fn generate(workload: Workload, seed: u64) -> Inputs {
        match workload {
            Workload::Echo => Inputs::Echo(Arc::new(echo::Inputs::generate(seed))),
            Workload::Routed => Inputs::Routed(Arc::new(routed::Inputs::generate(seed))),
            Workload::Bulk => Inputs::Bulk(Arc::new(bulk::Inputs::generate(seed))),
        }
    }

    fn build(&self, tracer: Option<Arc<Tracer>>, corrupt: bool) -> RmiResult<Box<dyn System>> {
        Ok(match self {
            Inputs::Echo(i) => Box::new(Echo::build(Arc::clone(i), tracer, corrupt)?),
            Inputs::Routed(i) => Box::new(Routed::build(Arc::clone(i), tracer)?),
            Inputs::Bulk(i) => Box::new(Bulk::build(Arc::clone(i), tracer)?),
        })
    }
}

/// A system plus its per-caller operation counters.
struct Sys {
    imp: Box<dyn System>,
    next: Vec<AtomicU64>,
    failed_ops: Mutex<Vec<u64>>,
    traced: bool,
}

impl Sys {
    /// Builds the system and makes each caller's first verified call.
    fn setup(
        inputs: &Inputs,
        callers: usize,
        tracer: Option<Arc<Tracer>>,
        corrupt: bool,
    ) -> Result<Sys, String> {
        let traced = tracer.is_some();
        let imp = inputs.build(tracer, corrupt).map_err(|e| format!("set-up failed: {e}"))?;
        let sys = Sys {
            imp,
            next: (0..callers).map(|_| AtomicU64::new(0)).collect(),
            failed_ops: Mutex::new(Vec::new()),
            traced,
        };
        for c in 0..callers {
            let op = sys.next_op(c);
            match sys.imp.op(c, op, None) {
                OpOutcome::Ok { .. } => {}
                OpOutcome::Failed(why) | OpOutcome::Wrong(why) => {
                    sys.imp.shutdown();
                    return Err(format!("set-up: first call of caller {c} failed: {why}"));
                }
            }
        }
        Ok(sys)
    }

    fn next_op(&self, caller: usize) -> u64 {
        self.next[caller].fetch_add(1, Ordering::Relaxed) * self.next.len() as u64 + caller as u64
    }

    fn issued(&self) -> Issued {
        let mut failed = self.failed_ops.lock().expect("caller panicked").clone();
        failed.sort_unstable();
        Issued { issued: self.next.iter().map(|n| n.load(Ordering::Relaxed)).collect(), failed }
    }

    fn client_bytes(&self) -> u64 {
        let m = self.imp.client().metrics();
        m.get(Counter::BytesIn) + m.get(Counter::BytesOut)
    }
}

#[derive(Debug, Clone, Copy)]
struct Sample {
    lat_ns: u64,
    /// Completion time since the run's epoch.
    done_ns: u64,
    tokened: bool,
}

/// What caller threads return from one slice.
#[derive(Default)]
struct SliceOut {
    /// Latency of every verified operation.
    hist: Hist,
    /// Per-operation samples, kept only in traced runs (the per-layer
    /// metrics split them by call class and time).
    samples: Vec<Sample>,
    traces: Vec<(OpTrace, u64)>,
    attempted: u64,
    /// Calls that failed, were refused or passed their deadline.
    failed: u64,
    /// Replies whose contents were wrong.
    wrong: u64,
    /// The first few failures, described.
    notes: Vec<String>,
    payload: u64,
}

impl SliceOut {
    fn absorb(&mut self, other: SliceOut) {
        self.hist.merge(&other.hist);
        self.samples.extend(other.samples);
        self.traces.extend(other.traces);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
        self.payload += other.payload;
        let room = 8usize.saturating_sub(self.notes.len());
        self.notes.extend(other.notes.into_iter().take(room));
    }
}

struct Job {
    sys: Arc<Sys>,
    until: Instant,
    keep_samples: bool,
}

/// One caller's closed loop until the job's deadline.
fn caller_slice(job: &Job, caller: usize, epoch: Instant) -> SliceOut {
    let mut out = SliceOut::default();
    loop {
        let started = Instant::now();
        if started >= job.until {
            break;
        }
        let op = job.sys.next_op(caller);
        let mut trace = job.sys.traced.then(OpTrace::default);
        let outcome = job.sys.imp.op(caller, op, trace.as_mut());
        let done = Instant::now();
        let lat_ns = (done - started).as_nanos() as u64;
        out.attempted += 1;
        let why = match outcome {
            OpOutcome::Ok { payload, tokened } => {
                out.hist.record(lat_ns);
                out.payload += payload;
                if job.keep_samples {
                    let done_ns = (done - epoch).as_nanos() as u64;
                    out.samples.push(Sample { lat_ns, done_ns, tokened });
                }
                if let Some(t) = trace {
                    out.traces.push((t, lat_ns));
                }
                continue;
            }
            OpOutcome::Failed(why) => {
                out.failed += 1;
                why
            }
            OpOutcome::Wrong(why) => {
                out.wrong += 1;
                why
            }
        };
        job.sys.failed_ops.lock().expect("caller panicked").push(op);
        if out.notes.len() < 8 {
            out.notes.push(why);
        }
    }
    out
}

/// The persistent caller threads of a run.
struct Callers {
    jobs: Vec<Sender<Arc<Job>>>,
    done: Receiver<SliceOut>,
}

impl Callers {
    /// Runs every caller against `sys` until `until`; returns the merged
    /// output and the slice's wall time.
    fn slice(&self, sys: &Arc<Sys>, until: Instant, keep_samples: bool) -> (SliceOut, f64) {
        let job = Arc::new(Job { sys: Arc::clone(sys), until, keep_samples });
        let started = Instant::now();
        for tx in &self.jobs {
            tx.send(Arc::clone(&job)).expect("caller thread exited early");
        }
        let mut out = SliceOut::default();
        for _ in &self.jobs {
            out.absorb(self.done.recv().expect("caller thread exited early"));
        }
        (out, started.elapsed().as_secs_f64())
    }
}

/// One round: its floor and its untraced ORB slice.
#[derive(Debug, Clone, Copy)]
struct Round {
    floor_p50_ns: f64,
    floor_mib_per_s: f64,
    p50_ns: f64,
    ops_per_s: f64,
    mib_per_s: f64,
    cpu_us_per_op: f64,
}

/// Process counters summed over the untraced ORB slices.
#[derive(Default)]
struct ProcTally {
    ops: u64,
    allocs: u64,
    ctx: u64,
    bytes: u64,
}

/// Runs the benchmark.
///
/// # Errors
///
/// Set-up failures and socket errors in the floor, described.
pub fn run(cfg: &Config) -> Result<Report, String> {
    let epoch = Instant::now();
    let workload = cfg.workload;
    let callers = workload.callers();
    let inputs = Inputs::generate(workload, cfg.seed);

    let reps = if cfg.trace { 1 } else { SETUP_REPS };
    let mut setup_s = Vec::new();
    let mut plain = None;
    for _ in 0..reps {
        let started = Instant::now();
        let sys = Sys::setup(&inputs, callers, None, cfg.corrupt_echo)?;
        setup_s.push(started.elapsed().as_secs_f64());
        if let Some(previous) = plain.replace(sys) {
            previous.imp.shutdown();
        }
    }
    let plain = Arc::new(plain.expect("at least one set-up"));
    let tracer = cfg.trace.then(|| Tracer::new(workload.method()));
    let traced = match &tracer {
        Some(t) => Some(Arc::new(Sys::setup(&inputs, callers, Some(Arc::clone(t)), false)?)),
        None => None,
    };

    let samples: Vec<Vec<Message>> =
        (0..workload.sample_ops()).map(|op| plain.imp.messages(op)).collect();
    let protocol = plain.imp.protocol();
    let scripts: Vec<Script> = samples.iter().map(|m| Script::new(protocol, m)).collect();
    let frame_bytes =
        scripts.iter().map(|s| s.frame_bytes as f64).sum::<f64>() / scripts.len() as f64;
    let floor_payload =
        scripts.iter().map(|s| s.payload as f64).sum::<f64>() / scripts.len() as f64;
    let mut floor = Floor::start(scripts).map_err(|e| format!("floor: {e}"))?;
    // End-to-end figures are medians over rounds, so a stretch in which
    // the scheduler co-locates a ping-pong pair on one CPU (about twice as
    // fast, with more samples per second) cannot outvote the other rounds.
    let mut rounds: Vec<Round> = Vec::new();
    let mut floor_samples = 0;
    let mut wire = WireTimes::default();

    let secs = cfg.seconds;
    let warmup = Duration::from_secs_f64((0.05 * secs).clamp(0.05, 1.0));
    let round = |share: f64| Duration::from_secs_f64(secs * share / ROUNDS as f64);
    let mut orb = SliceOut::default();
    let mut traced_out = SliceOut::default();
    let mut tally = ProcTally::default();
    let stop_sampler = AtomicBool::new(false);
    let mut threads_start = 0;
    let mut threads_peak = 0;

    std::thread::scope(|scope| -> Result<(), String> {
        let (done_tx, done) = channel();
        let mut jobs = Vec::new();
        for c in 0..callers {
            let (tx, rx): (Sender<Arc<Job>>, Receiver<Arc<Job>>) = channel();
            let done_tx = done_tx.clone();
            jobs.push(tx);
            scope.spawn(move || {
                while let Ok(job) = rx.recv() {
                    if done_tx.send(caller_slice(&job, c, epoch)).is_err() {
                        break;
                    }
                }
            });
        }
        let pool = Callers { jobs, done };

        for sys in std::iter::once(&plain).chain(&traced) {
            orb.absorb(pool.slice(sys, Instant::now() + warmup, false).0.without_samples());
        }
        let sampler = cfg.trace.then(|| {
            threads_start = procfs::threads();
            scope.spawn(|| {
                let mut peak = 0;
                while !stop_sampler.load(Ordering::Relaxed) {
                    peak = peak.max(procfs::threads());
                    std::thread::sleep(Duration::from_millis(5));
                }
                peak
            })
        });

        let shares =
            if cfg.trace { TRACED_SHARES } else { [FLOOR_SHARE, 1.0 - FLOOR_SHARE, 0.0, 0.0] };
        let mut floor_error = None;
        for _ in 0..ROUNDS {
            let mut ns = Vec::new();
            if let Err(e) = floor.run_until(Instant::now() + round(shares[0]), &mut ns) {
                floor_error = Some(format!("floor: {e}"));
                break;
            }
            ns.sort_unstable();
            floor_samples += ns.len();
            let floor_p50_ns = if ns.is_empty() { 1.0 } else { quantile(&ns, 0.5) as f64 };

            let (cpu, allocs, ctx, bytes) = (
                procfs::cpu_us(),
                crate::alloc::allocs(),
                if cfg.trace { procfs::ctx_switches() } else { 0 },
                plain.client_bytes(),
            );
            let (out, wall) = pool.slice(&plain, Instant::now() + round(shares[1]), cfg.trace);
            tally.allocs += crate::alloc::allocs() - allocs;
            let cpu_us = procfs::cpu_us() - cpu;
            if cfg.trace {
                tally.ctx += procfs::ctx_switches().saturating_sub(ctx);
            }
            tally.bytes += plain.client_bytes() - bytes;
            let ops = out.hist.count();
            tally.ops += ops;
            rounds.push(Round {
                floor_p50_ns,
                floor_mib_per_s: floor_payload / (floor_p50_ns / 1e9) / MIB,
                p50_ns: out.hist.quantile(0.5) as f64,
                ops_per_s: ops as f64 / wall,
                mib_per_s: out.payload as f64 / wall / MIB,
                cpu_us_per_op: cpu_us / ops.max(1) as f64,
            });
            orb.absorb(out);

            if let Some(sys) = &traced {
                traced_out.absorb(pool.slice(sys, Instant::now() + round(shares[2]), false).0);
                wire.run_until(protocol, &samples, Instant::now() + round(shares[3]));
            }
        }
        stop_sampler.store(true, Ordering::Relaxed);
        if let Some(h) = sampler {
            threads_peak = h.join().expect("thread sampler panicked");
        }
        floor_error.map_or(Ok(()), Err)
    })?;
    floor.finish().map_err(|e| format!("floor: {e}"))?;

    // Correctness: outputs, then the ledgers.
    let mut lines = vec![
        format!(
            "workload {}  seed {}  seconds {}  trace {}",
            workload.name(),
            cfg.seed,
            secs,
            u8::from(cfg.trace)
        ),
        format!(
            "transport_mode {:?}  nproc {}  callers {}",
            plain.imp.client().transport_mode(),
            procfs::nproc(),
            callers
        ),
    ];
    let attempted = orb.attempted + traced_out.attempted;
    let wrong = orb.wrong + traced_out.wrong + wire.mismatches;
    let failed = orb.failed + traced_out.failed + orb.wrong + traced_out.wrong;
    let mut counters = LayerCounters::default();
    let (mut tokens, mut tokens_once) = (0, 0);
    let mut ledger_ok = true;
    for sys in std::iter::once(&plain).chain(&traced) {
        let audit = sys.imp.audit(&sys.issued());
        tokens += audit.tokens;
        tokens_once += audit.tokens_once;
        ledger_ok &= audit.violations.is_empty();
        for v in audit.violations {
            lines.push(format!("LEDGER VIOLATION: {v}"));
        }
        let c = sys.imp.counters();
        counters.router_busy += c.router_busy;
        counters.dedup_replays += c.dedup_replays;
        counters.evictions += c.evictions;
    }
    for note in orb.notes.iter().chain(&traced_out.notes) {
        lines.push(format!("FAILED OP: {note}"));
    }
    if wire.mismatches > 0 {
        lines.push(format!("WIRE: {} messages decoded to other values", wire.mismatches));
    }
    let correct = ledger_ok && wrong == 0;
    lines.push(format!(
        "checks {}: attempted {attempted}, failed {failed} (wrong outputs {wrong}), \
         tokens {tokens}, executed exactly once {tokens_once}",
        if correct { "pass" } else { "FAIL" }
    ));

    for sys in std::iter::once(&plain).chain(&traced) {
        sys.imp.shutdown();
    }

    if orb.hist.count() == 0 || tally.ops == 0 {
        return Err("no operation completed".into());
    }
    lines.push(format!(
        "latency samples {}  ({} above p99)  rounds {}",
        orb.hist.count(),
        orb.hist.above_quantile(0.99),
        rounds.len()
    ));
    let med = |f: fn(&Round) -> f64| median_f64(&rounds.iter().map(f).collect::<Vec<_>>());
    let floor_p50_ns = med(|r| r.floor_p50_ns);
    let floor_mbps = med(|r| r.floor_mib_per_s);
    lines.push(format!(
        "floor samples {floor_samples}  p50 {} us  {floor_mbps:.1} MiB/s",
        floor_p50_ns / 1e3,
    ));
    let ok_ops = tally.ops as f64;

    let server = tracer.as_ref().map(|t| t.server_by_op()).unwrap_or_default();
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    m.insert("fail_ratio", failed as f64 / attempted.max(1) as f64);
    if cfg.trace {
        per_layer(&mut m, workload, &orb, &traced_out, &server);
        m.insert("floor.rtt_p50_us", floor_p50_ns / 1e3);
        m.insert("floor.mb_per_sec", floor_mbps);
        let w = wire.medians();
        m.insert("wire.encode_ns", w.encode_ns);
        m.insert("wire.decode_ns", w.decode_ns);
        m.insert("wire.frame_ns", w.frame_ns);
        m.insert("wire.deframe_ns", w.deframe_ns);
        m.insert("wire.frame_bytes", frame_bytes);
        m.insert("router.threads_peak", threads_peak.saturating_sub(threads_start + 1) as f64);
        m.insert("router.busy", counters.router_busy as f64);
        m.insert("replay.dedup_replays", counters.dedup_replays as f64);
        m.insert("replay.evictions", counters.evictions as f64);
        m.insert(
            "replay.executions_per_token",
            if tokens == 0 { 0.0 } else { tokens_once as f64 / tokens as f64 },
        );
        m.insert("proc.allocs_per_op", tally.allocs as f64 / ok_ops);
        m.insert("proc.ctx_switches_per_op", tally.ctx as f64 / ok_ops);
        m.insert("proc.bytes_per_op", tally.bytes as f64 / ok_ops);
    } else {
        m.insert("setup_s", median_f64(&setup_s));
        m.insert("calls_per_sec", med(|r| r.ops_per_s));
        m.insert("p50_us", med(|r| r.p50_ns) / 1e3);
        m.insert("p99_us", orb.hist.quantile(0.99) as f64 / 1e3);
        m.insert("mb_per_sec", med(|r| r.mib_per_s));
        m.insert("cpu_us_per_op", med(|r| r.cpu_us_per_op));
        m.insert("peak_rss_mb", procfs::peak_rss_kib() as f64 / 1024.0);
        let ratio = match workload {
            Workload::Bulk => med(|r| r.floor_mib_per_s / r.mib_per_s),
            Workload::Echo | Workload::Routed => med(|r| r.p50_ns / r.floor_p50_ns),
        };
        m.insert("floor_ratio", ratio);
        lines.push(format!("setup samples {}", setup_s.len()));
    }
    lines.push(format!("fail_ratio {} ratio", m["fail_ratio"]));

    let (mut tiling, mut tiling_violations) = (Vec::new(), 0);
    if cfg.trace {
        for (op, lat_ns) in &traced_out.traces {
            match server.get(&op.op).and_then(|s| Stages::of(&op.call, s)) {
                Some(st) if workload != Workload::Bulk => tiling.push((st.total(), *lat_ns)),
                Some(_) => {}
                None => tiling_violations += 1,
            }
        }
        lines.push(format!(
            "traced ops {}  stamps out of order {}",
            traced_out.traces.len(),
            tiling_violations
        ));
        if let Some(path) = &cfg.spans_path {
            let ops: Vec<OpTrace> =
                traced_out.traces.iter().take(SPAN_OPS).map(|(t, _)| *t).collect();
            match trace::write_spans(path, &ops, &server, workload == Workload::Bulk) {
                Ok(()) => {
                    lines.push(format!("spans of {} ops written to {}", ops.len(), path.display()))
                }
                Err(e) => lines.push(format!("spans not written: {e}")),
            }
        }
    }

    let list = if cfg.trace { manifest::PER_LAYER } else { manifest::END_TO_END };
    let metrics = list
        .iter()
        .map(|&(name, unit)| {
            let v = m.get(name).copied().unwrap_or_else(|| panic!("metric {name} not computed"));
            (name, unit, if v.is_finite() { v } else { 0.0 })
        })
        .collect();
    Ok(Report { correct, attempted, failed, metrics, lines, tiling, tiling_violations })
}

const MIB: f64 = 1024.0 * 1024.0;

impl SliceOut {
    /// Warm-up output: counted for failures, not for latency.
    fn without_samples(mut self) -> SliceOut {
        self.hist = Hist::default();
        self.samples.clear();
        self.traces.clear();
        self.payload = 0;
        self
    }
}

/// Per-layer metrics from the untraced (`plain`) and traced slices.
fn per_layer(
    m: &mut BTreeMap<&'static str, f64>,
    workload: Workload,
    plain: &SliceOut,
    traced: &SliceOut,
    server: &HashMap<u64, ServerStamps>,
) {
    let us = |v: f64| v / 1e3;
    let stages: Vec<Stages> =
        traced.traces.iter().filter_map(|(t, _)| Stages::of(&t.call, server.get(&t.op)?)).collect();
    let med = |f: fn(&Stages) -> u64| us(median_u64(&stages.iter().map(f).collect::<Vec<_>>()));
    m.insert("orb.marshal_us", med(|s| s.marshal));
    m.insert("orb.invoke_us", med(|s| s.invoke));
    m.insert("orb.resume_us", med(|s| s.resume));
    m.insert("orb.unmarshal_us", med(|s| s.unmarshal));
    m.insert("call.request_path_us", med(|s| s.request_path));
    m.insert("call.reply_path_us", med(|s| s.reply_path));
    m.insert("server.servant_us", med(|s| s.servant));
    m.insert("server.dispatch_gap_us", med(|s| s.dispatch_gap));

    let (traced_p50, plain_p50) = (traced.hist.quantile(0.5), plain.hist.quantile(0.5));
    m.insert("trace.overhead_pct", (traced_p50 as f64 / plain_p50.max(1) as f64 - 1.0) * 100.0);

    // Call classes, from the untraced system: p50 per class, and the
    // tokened p50 of the run's last tenth over its first tenth.
    let class_p50 = |tokened: bool| {
        let mut v: Vec<u64> =
            plain.samples.iter().filter(|s| s.tokened == tokened).map(|s| s.lat_ns).collect();
        v.sort_unstable();
        if v.is_empty() {
            0.0
        } else {
            us(quantile(&v, 0.5) as f64)
        }
    };
    m.insert("router.tokened_p50_us", class_p50(true));
    m.insert("router.plain_p50_us", class_p50(false));
    let mut tokened: Vec<Sample> = plain.samples.iter().filter(|s| s.tokened).copied().collect();
    tokened.sort_by_key(|s| s.done_ns);
    let tenth = tokened.len() / 10;
    let drift = if tenth == 0 {
        0.0
    } else {
        let p50 = |s: &[Sample]| median_u64(&s.iter().map(|x| x.lat_ns).collect::<Vec<_>>());
        p50(&tokened[tokened.len() - tenth..]) / p50(&tokened[..tenth])
    };
    m.insert("router.tokened_drift", drift);

    let bulk = workload == Workload::Bulk;
    let per_op = |f: fn(&OpTrace) -> f64| -> f64 {
        if !bulk {
            return 0.0;
        }
        let v: Vec<f64> = traced.traces.iter().map(|(t, _)| f(t)).collect();
        median_f64(&v)
    };
    m.insert(
        "stream.first_chunk_us",
        us(per_op(|t| (t.bulk.first_chunk - t.bulk.download_start) as f64)),
    );
    m.insert("stream.chunk_wait_us", us(per_op(|t| t.bulk.chunk_wait_ns as f64)));
    m.insert("stream.chunks_per_op", per_op(|t| t.bulk.chunks as f64));
    m.insert(
        "stream.high_water_bytes",
        traced.traces.iter().map(|(t, _)| t.bulk.high_water).max().unwrap_or(0) as f64,
    );
    m.insert(
        "orb.oneway_send_us",
        us(per_op(|t| t.bulk.oneway_ns as f64 / t.bulk.oneways.max(1) as f64)),
    );
    m.insert("orb.commit_wait_us", us(per_op(|t| (t.call.returned - t.call.invoke_start) as f64)));
}
