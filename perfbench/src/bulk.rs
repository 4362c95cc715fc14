//! `bulk`: two callers share one CDR client `Orb`. One operation uploads
//! 1 MiB as 512 oneway `append` calls of 2 KiB (below the 4 KiB
//! coalescing threshold), closes the upload with a two-way `commit` that
//! returns the byte count and checksum, then pulls an 8 MiB
//! `invoke_stream` download from an `export_stream` servant and compares
//! it byte for byte. Bytes dominate here, not calls.

use crate::gen::{self, Rng};
use crate::system::{failure, two_way, Arg, Dir, Message, OpOutcome, System, DEADLINE};
use crate::trace::{OpTrace, Tracer};
use heidl_rmi::{
    CallOptions, DispatchKind, DispatchOutcome, ObjectRef, Orb, ReplyBuilder, RmiError, RmiResult,
    ServerPolicy, Skeleton, SkeletonBase, StreamBody, StreamServant,
};
use heidl_wire::{CdrProtocol, Decoder, Encoder, Protocol};
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Bytes per `append`.
pub const CHUNK_BYTES: usize = 2048;
/// `append` calls per upload.
pub const CHUNKS: usize = 512;
/// Bytes per download.
pub const DOWNLOAD_BYTES: usize = 8 << 20;
/// Downloads start at one of this many offsets into the blob.
const ROTATIONS: usize = 64 << 10;
const UPLOAD_TYPE: &str = "IDL:Perf/Upload:1.0";
const DOWNLOAD_TYPE: &str = "IDL:Perf/Download:1.0";
/// The traced two-way method.
pub const METHOD: &str = "commit";
/// How long `commit` waits for its appends before failing.
const COMMIT_WAIT: Duration = Duration::from_secs(2);

/// The seeded upload pool and download blob.
#[derive(Debug)]
pub struct Inputs {
    pool: String,
    chunk_sums: Vec<u64>,
    blob: Arc<str>,
}

impl Inputs {
    /// Generates the inputs for `seed`.
    pub fn generate(seed: u64) -> Inputs {
        let pool = gen::printable(&mut Rng::new(seed, 3), CHUNKS * CHUNK_BYTES);
        let chunk_sums = pool.as_bytes().chunks(CHUNK_BYTES).map(gen::checksum).collect();
        let blob = gen::printable(&mut Rng::new(seed, 4), DOWNLOAD_BYTES + ROTATIONS).into();
        Inputs { pool, chunk_sums, blob }
    }

    /// Pool chunk sent as append `i` of operation `op`.
    fn chunk(&self, op: u64, i: usize) -> &str {
        let at = (op as usize + i) % CHUNKS * CHUNK_BYTES;
        &self.pool[at..at + CHUNK_BYTES]
    }

    /// The checksum `commit` must return for operation `op`.
    fn upload_sum(&self, op: u64) -> u64 {
        (0..CHUNKS).fold(0u64, |acc, i| {
            let sum = self.chunk_sums[(op as usize + i) % CHUNKS];
            acc.wrapping_add(sum.wrapping_mul(i as u64 + 1))
        })
    }

    /// The bytes operation `op` downloads.
    fn download(&self, op: u64) -> &str {
        let at = (op.wrapping_mul(0x9E37_79B9) as usize) % ROTATIONS;
        &self.blob[at..at + DOWNLOAD_BYTES]
    }
}

#[derive(Default)]
struct Upload {
    appends: u32,
    bytes: u64,
    sum: u64,
}

/// Upload state by operation id; `commit` waits on the condvar until its
/// appends, which workers may run out of order, have all landed.
#[derive(Default)]
struct Uploads {
    state: Mutex<HashMap<u64, Upload>>,
    landed: Condvar,
}

struct UploadSkel {
    base: SkeletonBase,
    uploads: Uploads,
    tracer: Option<Arc<Tracer>>,
}

impl UploadSkel {
    fn commit(&self, op: u64, appends: u32) -> Option<Upload> {
        let deadline = Instant::now() + COMMIT_WAIT;
        let mut state = self.uploads.state.lock().expect("upload holder panicked");
        loop {
            if state.get(&op).is_some_and(|u| u.appends == appends) {
                return state.remove(&op);
            }
            let left = deadline.checked_duration_since(Instant::now())?;
            state =
                self.uploads.landed.wait_timeout(state, left).expect("upload holder panicked").0;
        }
    }
}

impl Skeleton for UploadSkel {
    fn type_id(&self) -> &str {
        self.base.type_id()
    }

    fn dispatch(
        &self,
        method: &str,
        args: &mut dyn Decoder,
        reply: &mut dyn Encoder,
    ) -> RmiResult<DispatchOutcome> {
        match self.base.find(method) {
            Some(0) => {
                let op = args.get_ulonglong()?;
                let i = args.get_ulong()?;
                let data = args.get_string()?;
                let sum = gen::checksum(data.as_bytes()).wrapping_mul(u64::from(i) + 1);
                let mut state = self.uploads.state.lock().expect("upload holder panicked");
                let upload = state.entry(op).or_default();
                upload.appends += 1;
                upload.bytes += data.len() as u64;
                upload.sum = upload.sum.wrapping_add(sum);
                drop(state);
                self.uploads.landed.notify_all();
                Ok(DispatchOutcome::Handled)
            }
            Some(1) => {
                let started = self.tracer.as_ref().map(|t| t.now());
                let op = args.get_ulonglong()?;
                let appends = args.get_ulong()?;
                let upload = self.commit(op, appends).ok_or_else(|| RmiError::Remote {
                    repo_id: "IDL:Perf/CommitTimeout:1.0".into(),
                    detail: format!("op {op}: appends missing after {COMMIT_WAIT:?}"),
                })?;
                reply.put_ulonglong(op);
                reply.put_ulonglong(upload.bytes);
                reply.put_ulonglong(upload.sum);
                if let (Some(t), Some(s)) = (&self.tracer, started) {
                    t.servant(op, s);
                }
                Ok(DispatchOutcome::Handled)
            }
            _ => self.base.dispatch_parents(method, args, reply),
        }
    }
}

struct DownloadServant {
    inputs: Arc<Inputs>,
}

impl StreamServant for DownloadServant {
    fn type_id(&self) -> &str {
        DOWNLOAD_TYPE
    }

    fn open(&self, method: &str, args: &mut dyn Decoder) -> RmiResult<StreamBody> {
        if method != "download" {
            return Err(RmiError::UnknownMethod {
                type_id: DOWNLOAD_TYPE.into(),
                method: method.into(),
            });
        }
        let op = args.get_ulonglong()?;
        let inputs = Arc::clone(&self.inputs);
        let mut sent = 0;
        Ok(StreamBody::from_fn(move |max| {
            let body = inputs.download(op);
            (sent < body.len()).then(|| {
                let end = body.len().min(sent + max);
                let fragment = body[sent..end].to_owned();
                sent = end;
                fragment
            })
        }))
    }
}

/// The running `bulk` system.
pub struct Bulk {
    server: Orb,
    client: Orb,
    upload: ObjectRef,
    download: ObjectRef,
    inputs: Arc<Inputs>,
    options: CallOptions,
    tracer: Option<Arc<Tracer>>,
}

impl Bulk {
    /// Builds and serves the system (no call made yet).
    ///
    /// # Errors
    ///
    /// Bind and export failures.
    pub fn build(inputs: Arc<Inputs>, tracer: Option<Arc<Tracer>>) -> RmiResult<Bulk> {
        let protocol: Arc<dyn Protocol> = Arc::new(CdrProtocol);
        let server = Orb::builder().protocol(Arc::clone(&protocol)).build();
        let client = Orb::builder().protocol(protocol).build();
        if let Some(t) = &tracer {
            server.add_interceptor(t.hook());
            client.add_interceptor(t.hook());
        }
        server.serve("127.0.0.1:0")?;
        let upload = server.export(Arc::new(UploadSkel {
            base: SkeletonBase::new(UPLOAD_TYPE, DispatchKind::Hash, ["append", METHOD], vec![]),
            uploads: Uploads::default(),
            tracer: tracer.clone(),
        }))?;
        let download =
            server.export_stream(Arc::new(DownloadServant { inputs: Arc::clone(&inputs) }))?;
        let options = CallOptions::builder().deadline(DEADLINE).build();
        Ok(Bulk { server, client, upload, download, inputs, options, tracer })
    }

    fn append(&self, op: u64, i: usize) -> Result<(), OpOutcome> {
        let mut call = self.client.call_oneway(&self.upload, "append");
        let args = call.args();
        args.put_ulonglong(op);
        args.put_ulong(i as u32);
        args.put_string(self.inputs.chunk(op, i));
        self.client.invoke_oneway(call).map_err(|e| failure("append", &e))
    }

    fn pull(&self, op: u64, t: &mut OpTrace) -> Result<(), OpOutcome> {
        let now = || self.tracer.as_deref().map_or(0, Tracer::now);
        let expected = self.inputs.download(op).as_bytes();
        let mut call = self.client.call(&self.download, "download");
        call.args().put_ulonglong(op);
        let mut stream = self
            .client
            .invoke_stream_with(call, self.options)
            .map_err(|e| failure("download", &e))?;
        let mut got = 0;
        loop {
            let waited = now();
            let chunk = stream.next_chunk().map_err(|e| failure("download", &e))?;
            let arrived = now();
            t.bulk.chunk_wait_ns += arrived - waited;
            if t.bulk.first_chunk == 0 {
                t.bulk.first_chunk = arrived;
            }
            let Some(chunk) = chunk else { break };
            let end = got + chunk.len();
            if expected.get(got..end) != Some(chunk.as_bytes()) {
                return Err(OpOutcome::Wrong(format!("download of op {op} differs at {got}")));
            }
            got = end;
        }
        if got != expected.len() {
            return Err(OpOutcome::Wrong(format!("download of op {op}: {got} bytes")));
        }
        t.bulk.chunks = stream.chunks();
        t.bulk.high_water = stream.high_water_bytes() as u64;
        Ok(())
    }

    fn run(&self, op: u64, t: &mut OpTrace) -> Result<(), OpOutcome> {
        let now = || self.tracer.as_deref().map_or(0, Tracer::now);
        t.start = now();
        for i in 0..CHUNKS {
            let sent = now();
            self.append(op, i)?;
            t.bulk.oneway_ns += now() - sent;
        }
        t.bulk.oneways = CHUNKS as u64;
        let (bytes, sum) = ((CHUNKS * CHUNK_BYTES) as u64, self.inputs.upload_sum(op));
        two_way(
            &self.client,
            &self.upload,
            METHOD,
            self.options,
            self.tracer.as_deref(),
            &mut t.call,
            |a| {
                a.put_ulonglong(op);
                a.put_ulong(CHUNKS as u32);
            },
            |r| {
                Ok(r.get_ulonglong()? == op
                    && r.get_ulonglong()? == bytes
                    && r.get_ulonglong()? == sum)
            },
        )?;
        t.bulk.download_start = now();
        self.pull(op, t)?;
        t.end = now();
        Ok(())
    }
}

impl System for Bulk {
    fn op(&self, _caller: usize, op: u64, trace: Option<&mut OpTrace>) -> OpOutcome {
        let mut local = OpTrace::default();
        let t = trace.unwrap_or(&mut local);
        t.op = op;
        match self.run(op, t) {
            Ok(()) => OpOutcome::Ok {
                payload: (CHUNKS * CHUNK_BYTES + DOWNLOAD_BYTES) as u64,
                tokened: false,
            },
            Err(outcome) => outcome,
        }
    }

    fn client(&self) -> &Orb {
        &self.client
    }

    fn messages(&self, op: u64) -> Vec<Message> {
        let protocol = self.protocol();
        let mut out = Vec::new();
        let mut up = |target: &ObjectRef, method: &str, oneway: bool, args: Vec<Arg>, payload| {
            let mut call = if oneway {
                self.client.call_oneway(target, method)
            } else {
                self.client.call(target, method)
            };
            Message::put(&args, call.args());
            let request_id = call.request_id();
            out.push(Message { dir: Dir::Up, args, body: call.into_body(), payload });
            request_id
        };
        for i in 0..CHUNKS {
            let args =
                vec![Arg::U64(op), Arg::U32(i as u32), Arg::Str(self.inputs.chunk(op, i).into())];
            up(&self.upload, "append", true, args, CHUNK_BYTES as u64);
        }
        let commit =
            up(&self.upload, METHOD, false, vec![Arg::U64(op), Arg::U32(CHUNKS as u32)], 0);
        let download = up(&self.download, "download", false, vec![Arg::U64(op)], 0);
        let mut reply = ReplyBuilder::ok(protocol, commit);
        let args = vec![
            Arg::U64(op),
            Arg::U64((CHUNKS * CHUNK_BYTES) as u64),
            Arg::U64(self.inputs.upload_sum(op)),
        ];
        Message::put(&args, reply.results());
        out.push(Message { dir: Dir::Down, args, body: reply.into_body(), payload: 0 });
        let chunk = ServerPolicy::default().stream_chunk_bytes;
        let body = self.inputs.download(op);
        let pieces = body.len().div_ceil(chunk);
        for (index, piece) in body.as_bytes().chunks(chunk).enumerate() {
            let text = std::str::from_utf8(piece).expect("ASCII blob");
            let args = vec![Arg::Str(text.to_owned())];
            let mut reply = ReplyBuilder::ok(protocol, download);
            Message::put(&args, reply.results());
            protocol.encode_chunk(reply.results(), index as u64, index + 1 == pieces);
            out.push(Message {
                dir: Dir::Down,
                args,
                body: reply.into_body(),
                payload: piece.len() as u64,
            });
        }
        out
    }

    fn protocol(&self) -> &dyn Protocol {
        self.client.protocol().as_ref()
    }

    fn shutdown(&self) {
        self.client.shutdown();
        self.server.shutdown();
    }
}
