//! Spans recorded from the benchmark's own code, never from inside the
//! program: stamps around the calls the workloads make into each layer's
//! public functions, plus the public [`Interceptor`] hooks on the client
//! (`ClientSend`/`ClientReceive`) and server (`ServerDispatch`/
//! `ServerReply`) paths.
//!
//! Server-side stamps are joined to client-side ones through the
//! operation id each workload puts in its generated arguments: the
//! `ServerDispatch` hook and the servant run on the same worker thread,
//! so a thread-local carries the stamps from hook to servant to
//! `ServerReply`, which files them under the id the servant decoded.
//!
//! The stamps of one two-way call tile it: `orb.marshal`, `orb.invoke`
//! and `orb.unmarshal` cover the call back to back, and `orb.invoke`
//! holds `call.request_path`, `server.dispatch` (holding
//! `server.servant`), `call.reply_path` and `orb.resume`, so every
//! stage's self time is exact.

use heidl_rmi::{CallInfo, CallPhase, Interceptor};
use std::cell::Cell;
use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

thread_local! {
    /// `(ClientSend, ClientReceive)` stamps of the caller's current call.
    static CLIENT: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
    /// The worker thread's current dispatch.
    static SERVER: Cell<ServerStamps> = const { Cell::new(ServerStamps::ZERO) };
}

/// Server-side stamps of one dispatch (nanoseconds since the tracer's
/// epoch).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStamps {
    /// Operation id the servant decoded from the arguments.
    pub op: u64,
    /// `ServerDispatch` hook.
    pub dispatch: u64,
    /// The benchmark servant's first instruction.
    pub servant_start: u64,
    /// The benchmark servant's last instruction.
    pub servant_end: u64,
    /// `ServerReply` hook.
    pub reply: u64,
}

impl ServerStamps {
    const ZERO: ServerStamps =
        ServerStamps { op: 0, dispatch: 0, servant_start: 0, servant_end: 0, reply: 0 };
}

/// Client-side stamps of one two-way call.
#[derive(Debug, Clone, Copy, Default)]
pub struct CallStamps {
    /// Before `Orb::call`.
    pub marshal_start: u64,
    /// After the last `args()` put, before `invoke_with`.
    pub invoke_start: u64,
    /// `ClientSend` hook.
    pub send: u64,
    /// `ClientReceive` hook.
    pub receive: u64,
    /// `invoke_with` returned.
    pub returned: u64,
    /// After the last `results()` get.
    pub end: u64,
}

/// Stamps of the bulk workload's upload and download halves.
#[derive(Debug, Clone, Copy, Default)]
pub struct BulkStamps {
    /// Total time inside `invoke_oneway` for the operation's appends.
    pub oneway_ns: u64,
    /// Number of oneway appends sent.
    pub oneways: u64,
    /// Before `invoke_stream_with`.
    pub download_start: u64,
    /// The first `next_chunk` returned.
    pub first_chunk: u64,
    /// Total time blocked in `next_chunk`.
    pub chunk_wait_ns: u64,
    /// `ReplyStream::chunks` at the end.
    pub chunks: u64,
    /// `ReplyStream::high_water_bytes` at the end.
    pub high_water: u64,
}

/// Everything recorded client-side for one traced operation.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpTrace {
    /// Operation id (also in the call's arguments).
    pub op: u64,
    /// Operation start.
    pub start: u64,
    /// Operation end.
    pub end: u64,
    /// The operation's traced two-way call (`echo`, or the bulk `commit`).
    pub call: CallStamps,
    /// Bulk-only stamps.
    pub bulk: BulkStamps,
}

/// Self times of one two-way call's stages, in nanoseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct Stages {
    pub marshal: u64,
    /// `orb.invoke` self time: `invoke_with` entry to `ClientSend`.
    pub invoke: u64,
    pub request_path: u64,
    /// `server.dispatch` self time (dispatch minus servant).
    pub dispatch_gap: u64,
    pub servant: u64,
    pub reply_path: u64,
    pub resume: u64,
    pub unmarshal: u64,
}

impl Stages {
    /// Sum of all self times: the call's latency when the stages tile.
    pub fn total(&self) -> u64 {
        self.marshal
            + self.invoke
            + self.request_path
            + self.dispatch_gap
            + self.servant
            + self.reply_path
            + self.resume
            + self.unmarshal
    }

    /// Splits a call into stages, or `None` when the stamps are out of
    /// order (a stage would be negative).
    pub fn of(c: &CallStamps, s: &ServerStamps) -> Option<Stages> {
        let chain = [
            c.marshal_start,
            c.invoke_start,
            c.send,
            s.dispatch,
            s.servant_start,
            s.servant_end,
            s.reply,
            c.receive,
            c.returned,
            c.end,
        ];
        if chain.windows(2).any(|w| w[1] < w[0]) {
            return None;
        }
        Some(Stages {
            marshal: c.invoke_start - c.marshal_start,
            invoke: c.send - c.invoke_start,
            request_path: s.dispatch - c.send,
            dispatch_gap: (s.reply - s.dispatch) - (s.servant_end - s.servant_start),
            servant: s.servant_end - s.servant_start,
            reply_path: c.receive - s.reply,
            resume: c.returned - c.receive,
            unmarshal: c.end - c.returned,
        })
    }
}

/// The span store of one traced system.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    method: &'static str,
    server: Mutex<Vec<ServerStamps>>,
}

impl Tracer {
    /// A tracer recording calls to `method` (the workload's traced
    /// two-way operation).
    pub fn new(method: &'static str) -> Arc<Tracer> {
        Arc::new(Tracer { epoch: Instant::now(), method, server: Mutex::new(Vec::new()) })
    }

    /// Nanoseconds since the tracer's epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// The interceptor to register on every ORB of the traced system.
    pub fn hook(self: &Arc<Self>) -> Arc<dyn Interceptor> {
        Arc::new(Hook(Arc::clone(self)))
    }

    /// Called by a servant at its end: files its stamps under `op`.
    pub fn servant(&self, op: u64, started: u64) {
        let end = self.now();
        SERVER.with(|s| {
            let mut st = s.get();
            st.op = op;
            st.servant_start = started;
            st.servant_end = end;
            s.set(st);
        });
    }

    /// Takes the `(ClientSend, ClientReceive)` stamps of the caller
    /// thread's last traced call.
    pub fn take_client() -> (u64, u64) {
        CLIENT.with(|c| c.replace((0, 0)))
    }

    /// Server stamps recorded so far, by operation id.
    pub fn server_by_op(&self) -> HashMap<u64, ServerStamps> {
        let recs = self.server.lock().expect("a tracer hook panicked");
        recs.iter().map(|r| (r.op, *r)).collect()
    }
}

struct Hook(Arc<Tracer>);

impl Interceptor for Hook {
    fn intercept(&self, info: &CallInfo) {
        if info.method != self.0.method {
            return;
        }
        let now = self.0.now();
        match info.phase {
            CallPhase::ClientSend => CLIENT.with(|c| c.set((now, 0))),
            CallPhase::ClientReceive => CLIENT.with(|c| c.set((c.get().0, now))),
            CallPhase::ServerDispatch => {
                SERVER.with(|s| s.set(ServerStamps { dispatch: now, ..ServerStamps::ZERO }))
            }
            CallPhase::ServerReply => {
                let mut st = SERVER.with(|s| s.get());
                st.reply = now;
                self.0.server.lock().expect("a tracer hook panicked").push(st);
            }
            CallPhase::ClientRetry => {}
        }
    }
}

/// One span: name, interval, parent span name, operation id.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: Option<&'static str>,
    pub op: u64,
}

/// The span tree of one operation. `server` is `None` when no server
/// stamps were filed for it.
pub fn spans(t: &OpTrace, server: Option<&ServerStamps>, bulk: bool) -> Vec<Span> {
    let span = |name, start, end, parent| Span { name, start, end, parent, op: t.op };
    let c = &t.call;
    let mut out = vec![span("op", t.start, t.end, None)];
    if bulk {
        out.push(span("bulk.upload", t.start, c.marshal_start, Some("op")));
        out.push(span("bulk.download", t.bulk.download_start, t.end, Some("op")));
        out.push(span(
            "stream.first_chunk",
            t.bulk.download_start,
            t.bulk.first_chunk,
            Some("bulk.download"),
        ));
    }
    out.push(span("orb.marshal", c.marshal_start, c.invoke_start, Some("op")));
    out.push(span("orb.invoke", c.invoke_start, c.returned, Some("op")));
    if let Some(s) = server {
        out.push(span("call.request_path", c.send, s.dispatch, Some("orb.invoke")));
        out.push(span("server.dispatch", s.dispatch, s.reply, Some("orb.invoke")));
        out.push(span("server.servant", s.servant_start, s.servant_end, Some("server.dispatch")));
        out.push(span("call.reply_path", s.reply, c.receive, Some("orb.invoke")));
    }
    out.push(span("orb.resume", c.receive, c.returned, Some("orb.invoke")));
    out.push(span("orb.unmarshal", c.returned, c.end, Some("op")));
    out
}

/// Writes the span trees of `ops` as JSON lines to `path`.
pub fn write_spans(
    path: &Path,
    ops: &[OpTrace],
    server: &HashMap<u64, ServerStamps>,
    bulk: bool,
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for t in ops {
        for s in spans(t, server.get(&t.op), bulk) {
            writeln!(
                out,
                "{{\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{}}}",
                s.op,
                s.name,
                s.start,
                s.end,
                s.parent.map_or("null".to_owned(), |p| format!("\"{p}\""))
            )?;
        }
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stages_tile_a_well_ordered_call() {
        let c = CallStamps {
            marshal_start: 10,
            invoke_start: 12,
            send: 13,
            receive: 40,
            returned: 41,
            end: 45,
        };
        let s = ServerStamps { op: 1, dispatch: 20, servant_start: 22, servant_end: 25, reply: 26 };
        let st = Stages::of(&c, &s).expect("ordered");
        assert_eq!(st.total(), 35);
        assert_eq!(st.servant, 3);
        assert_eq!(st.dispatch_gap, 3);
        let late = ServerStamps { dispatch: 50, ..s };
        assert!(Stages::of(&c, &late).is_none());
    }
}
