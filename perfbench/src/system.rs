//! What every workload provides to the runner, and the pieces the
//! workloads share: the traced two-way call and the execution ledger.

use crate::trace::{CallStamps, OpTrace, Tracer};
use heidl_rmi::{CallOptions, ObjectRef, Orb, RmiError};
use heidl_wire::{Decoder, Encoder, Protocol, WireResult};
use std::sync::Mutex;
use std::time::Duration;

/// Deadline on every two-way call and stream chunk wait: a hang becomes
/// a counted failure instead of a stuck run.
pub const DEADLINE: Duration = Duration::from_secs(2);

/// Result of one closed-loop operation.
#[derive(Debug)]
pub enum OpOutcome {
    /// Every output matched; `payload` bytes moved in both directions.
    Ok {
        /// Verified payload bytes, both directions, headers excluded.
        payload: u64,
        /// The operation carried an exactly-once token.
        tokened: bool,
    },
    /// The call failed, was refused or passed its deadline.
    Failed(String),
    /// A reply arrived but its contents were wrong.
    Wrong(String),
}

/// Which way a message travels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dir {
    /// Client to server.
    Up,
    /// Server to client.
    Down,
}

/// One argument or result value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Arg {
    U64(u64),
    U32(u32),
    Str(String),
}

/// One message of an operation, as the workload sends it.
#[derive(Debug, Clone)]
pub struct Message {
    pub dir: Dir,
    /// The marshaled values, for the encode/decode timings.
    pub args: Vec<Arg>,
    /// The whole body as the ORB frames it (header, values, suffixes).
    pub body: Vec<u8>,
    /// Payload bytes the message carries (what `mb_per_sec` counts).
    pub payload: u64,
}

impl Message {
    /// Puts `args` into `enc`.
    pub fn put(args: &[Arg], enc: &mut dyn Encoder) {
        for a in args {
            match a {
                Arg::U64(v) => enc.put_ulonglong(*v),
                Arg::U32(v) => enc.put_ulong(*v),
                Arg::Str(s) => enc.put_string(s),
            }
        }
    }

    /// Reads back values shaped like `shape`.
    pub fn read(shape: &[Arg], dec: &mut dyn Decoder) -> WireResult<Vec<Arg>> {
        shape
            .iter()
            .map(|a| {
                Ok(match a {
                    Arg::U64(_) => Arg::U64(dec.get_ulonglong()?),
                    Arg::U32(_) => Arg::U32(dec.get_ulong()?),
                    Arg::Str(_) => Arg::Str(dec.get_string()?),
                })
            })
            .collect()
    }
}

/// End-of-run counters a workload's layers expose.
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerCounters {
    /// Router requests shed with `Busy`.
    pub router_busy: u64,
    /// Backend exactly-once replays answered from the reply cache.
    pub dedup_replays: u64,
    /// Backend reply-cache evictions.
    pub evictions: u64,
}

/// The execution-ledger verdict over every issued operation.
#[derive(Debug, Default, Clone)]
pub struct Audit {
    /// Tokened operations issued.
    pub tokens: u64,
    /// Tokened operations executed exactly once.
    pub tokens_once: u64,
    /// Ledger violations (double executions, lost calls, phantom
    /// executions), described.
    pub violations: Vec<String>,
}

/// Operations issued against one system: `issued[c]` per caller `c`
/// (ids `k * callers + c` for `k < issued[c]`) and the ids that failed.
#[derive(Debug)]
pub struct Issued {
    pub issued: Vec<u64>,
    pub failed: Vec<u64>,
}

impl Issued {
    /// Every issued id, ascending.
    pub fn ids(&self) -> Vec<u64> {
        let callers = self.issued.len() as u64;
        let mut ids: Vec<u64> = (0..callers)
            .flat_map(|c| (0..self.issued[c as usize]).map(move |k| k * callers + c))
            .collect();
        ids.sort_unstable();
        ids
    }
}

/// A workload's running system: ORBs, servants and their references.
pub trait System: Send + Sync {
    /// Runs one closed-loop operation for `caller`. `trace` is `Some`
    /// exactly on a traced system.
    fn op(&self, caller: usize, op: u64, trace: Option<&mut OpTrace>) -> OpOutcome;

    /// The callers' ORB.
    fn client(&self) -> &Orb;

    /// The messages operation `op` sends and receives, built with the
    /// workload's own protocol and references.
    fn messages(&self, op: u64) -> Vec<Message>;

    /// The workload's protocol.
    fn protocol(&self) -> &dyn Protocol;

    /// Layer counters at the end of the run.
    fn counters(&self) -> LayerCounters {
        LayerCounters::default()
    }

    /// Checks the execution ledger against what was issued.
    fn audit(&self, issued: &Issued) -> Audit {
        let _ = issued;
        Audit::default()
    }

    /// Stops every ORB and router.
    fn shutdown(&self);
}

/// One marshal-invoke-unmarshal two-way call, with its stage boundaries
/// stamped when `tracer` is set. `get` returns `Ok(false)` for a reply
/// whose contents are wrong.
#[allow(clippy::too_many_arguments)]
pub fn two_way(
    orb: &Orb,
    target: &ObjectRef,
    method: &str,
    options: CallOptions,
    tracer: Option<&Tracer>,
    stamps: &mut CallStamps,
    put: impl FnOnce(&mut dyn Encoder),
    get: impl FnOnce(&mut dyn Decoder) -> WireResult<bool>,
) -> Result<(), OpOutcome> {
    let now = || tracer.map_or(0, Tracer::now);
    stamps.marshal_start = now();
    let mut call = orb.call(target, method);
    put(call.args());
    stamps.invoke_start = now();
    let reply = orb.invoke_with(call, options);
    stamps.returned = now();
    if tracer.is_some() {
        (stamps.send, stamps.receive) = Tracer::take_client();
    }
    let mut reply = reply.map_err(|e| failure(method, &e))?;
    let same = get(reply.results());
    stamps.end = now();
    match same {
        Ok(true) => Ok(()),
        Ok(false) => Err(OpOutcome::Wrong(format!("{method}: reply differs from the request"))),
        Err(e) => Err(OpOutcome::Wrong(format!("{method}: undecodable reply: {e}"))),
    }
}

/// A failed call as an outcome.
pub fn failure(what: &str, e: &RmiError) -> OpOutcome {
    OpOutcome::Failed(format!("{what}: {e}"))
}

/// Executions per operation id, as one backend's servant saw them.
#[derive(Debug, Default)]
pub struct Ledger {
    counts: Mutex<Vec<u8>>,
}

impl Ledger {
    /// Records one execution of `op`.
    pub fn record(&self, op: u64) {
        let mut counts = self.counts.lock().expect("ledger holder panicked");
        let i = op as usize;
        if counts.len() <= i {
            counts.resize((i + 1).next_power_of_two(), 0);
        }
        counts[i] = counts[i].saturating_add(1);
    }

    /// Executions of `op`.
    pub fn get(&self, op: u64) -> u8 {
        let counts = self.counts.lock().expect("ledger holder panicked");
        counts.get(op as usize).copied().unwrap_or(0)
    }

    /// Total executions recorded.
    pub fn total(&self) -> u64 {
        let counts = self.counts.lock().expect("ledger holder panicked");
        counts.iter().map(|&c| u64::from(c)).sum()
    }
}
