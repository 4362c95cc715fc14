//! `routed`: two callers share one text-protocol client `Orb` and call
//! through a `Router` fronting two backend `Orb`s. A seeded 50/50 mix of
//! exactly-once (tokened) and safe (plain) calls carries printable
//! payloads of 64-512 bytes. The router hop, token parsing, the affinity
//! pin table, the backends' reply caches and the text tokenizer do most
//! of their work here.

use crate::gen::{self, Rng};
use crate::system::{
    two_way, Arg, Audit, Dir, Issued, LayerCounters, Ledger, Message, OpOutcome, System, DEADLINE,
};
use crate::trace::{OpTrace, Tracer};
use heidl_rmi::{
    BackendSource, CallOptions, Counter, DispatchKind, DispatchOutcome, InvocationToken, ObjectRef,
    Orb, ReplyBuilder, RetryClass, RmiError, RmiResult, Router, SharedBackends, Skeleton,
    SkeletonBase,
};
use heidl_wire::{Decoder, Encoder, Protocol};
use std::sync::Arc;

/// Shortest and longest payload.
pub const MIN_BYTES: usize = 64;
pub const MAX_BYTES: usize = 512;
/// Distinct generated payloads, cycled by operation id.
const INPUTS: usize = 4096;
const BACKENDS: usize = 2;
const TYPE_ID: &str = "IDL:Perf/Routed:1.0";
/// The traced two-way method.
pub const METHOD: &str = "echo";

/// The seeded payloads and call classes.
#[derive(Debug)]
pub struct Inputs {
    payloads: Vec<String>,
    tokened: Vec<bool>,
}

impl Inputs {
    /// Generates the inputs for `seed`.
    pub fn generate(seed: u64) -> Inputs {
        let mut rng = Rng::new(seed, 2);
        let mut payloads = Vec::with_capacity(INPUTS);
        let mut tokened = Vec::with_capacity(INPUTS);
        for _ in 0..INPUTS {
            let len = MIN_BYTES + rng.below((MAX_BYTES - MIN_BYTES + 1) as u64) as usize;
            payloads.push(gen::printable_with_specials(&mut rng, len));
            tokened.push(rng.below(2) == 0);
        }
        Inputs { payloads, tokened }
    }

    fn payload(&self, op: u64) -> &str {
        &self.payloads[op as usize % INPUTS]
    }

    /// Whether operation `op` is an exactly-once call.
    pub fn tokened(&self, op: u64) -> bool {
        self.tokened[op as usize % INPUTS]
    }
}

struct LedgerSkel {
    base: SkeletonBase,
    ledger: Arc<Ledger>,
    tracer: Option<Arc<Tracer>>,
}

impl Skeleton for LedgerSkel {
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
                let started = self.tracer.as_ref().map(|t| t.now());
                let op = args.get_ulonglong()?;
                let payload = args.get_string()?;
                self.ledger.record(op);
                reply.put_ulonglong(op);
                reply.put_string(&payload);
                if let (Some(t), Some(s)) = (&self.tracer, started) {
                    t.servant(op, s);
                }
                Ok(DispatchOutcome::Handled)
            }
            _ => self.base.dispatch_parents(method, args, reply),
        }
    }
}

/// The running `routed` system.
pub struct Routed {
    client: Orb,
    backends: Vec<Orb>,
    ledgers: Vec<Arc<Ledger>>,
    router: Router,
    target: ObjectRef,
    inputs: Arc<Inputs>,
    tokened: CallOptions,
    plain: CallOptions,
    tracer: Option<Arc<Tracer>>,
}

impl Routed {
    /// Builds the backends, starts the router, and builds the client.
    ///
    /// # Errors
    ///
    /// Bind, export and router start failures.
    pub fn build(inputs: Arc<Inputs>, tracer: Option<Arc<Tracer>>) -> RmiResult<Routed> {
        let mut backends = Vec::new();
        let mut ledgers = Vec::new();
        let mut endpoints = Vec::new();
        let mut object_id = None;
        for _ in 0..BACKENDS {
            let orb = Orb::new();
            if let Some(t) = &tracer {
                orb.add_interceptor(t.hook());
            }
            endpoints.push(orb.serve("127.0.0.1:0")?);
            let ledger = Arc::new(Ledger::default());
            let objref = orb.export(Arc::new(LedgerSkel {
                base: SkeletonBase::new(TYPE_ID, DispatchKind::Hash, [METHOD], vec![]),
                ledger: Arc::clone(&ledger),
                tracer: tracer.clone(),
            }))?;
            if *object_id.get_or_insert(objref.object_id) != objref.object_id {
                return Err(RmiError::Protocol("backends exported different object ids".into()));
            }
            backends.push(orb);
            ledgers.push(ledger);
        }
        let source = Arc::new(SharedBackends::with_endpoints(endpoints));
        let router = Router::builder(source as Arc<dyn BackendSource>).start("127.0.0.1:0")?;
        let target = router.service_ref(object_id.expect("at least one backend"), TYPE_ID);
        let client = Orb::new();
        if let Some(t) = &tracer {
            client.add_interceptor(t.hook());
        }
        let options = |class| CallOptions::builder().retry_class(class).deadline(DEADLINE).build();
        Ok(Routed {
            client,
            backends,
            ledgers,
            router,
            target,
            inputs,
            tokened: options(RetryClass::ExactlyOnce),
            plain: options(RetryClass::Safe),
            tracer,
        })
    }

    fn executions(&self, op: u64) -> u64 {
        self.ledgers.iter().map(|l| u64::from(l.get(op))).sum()
    }
}

impl System for Routed {
    fn op(&self, _caller: usize, op: u64, trace: Option<&mut OpTrace>) -> OpOutcome {
        let payload = self.inputs.payload(op);
        let tokened = self.inputs.tokened(op);
        let mut local = OpTrace::default();
        let t = trace.unwrap_or(&mut local);
        let result = two_way(
            &self.client,
            &self.target,
            METHOD,
            if tokened { self.tokened } else { self.plain },
            self.tracer.as_deref(),
            &mut t.call,
            |a| {
                a.put_ulonglong(op);
                a.put_string(payload);
            },
            |r| Ok(r.get_ulonglong()? == op && r.get_string()? == payload),
        );
        t.op = op;
        t.start = t.call.marshal_start;
        t.end = t.call.end;
        match result {
            Ok(()) => OpOutcome::Ok { payload: 2 * payload.len() as u64, tokened },
            Err(outcome) => outcome,
        }
    }

    fn client(&self) -> &Orb {
        &self.client
    }

    fn messages(&self, op: u64) -> Vec<Message> {
        let payload = self.inputs.payload(op).to_owned();
        let args = vec![Arg::U64(op), Arg::Str(payload.clone())];
        let mut call = self.client.call(&self.target, METHOD);
        Message::put(&args, call.args());
        if self.inputs.tokened(op) {
            let token = InvocationToken { session: self.client.session_id(), seq: op };
            call.attach_token(self.protocol(), token);
        }
        let request_id = call.request_id();
        let (_, _, up) = call.into_parts();
        let mut reply = ReplyBuilder::ok(self.protocol(), request_id);
        Message::put(&args, reply.results());
        let bytes = payload.len() as u64;
        vec![
            Message { dir: Dir::Up, args: args.clone(), body: up, payload: bytes },
            Message { dir: Dir::Down, args, body: reply.into_body(), payload: bytes },
        ]
    }

    fn protocol(&self) -> &dyn Protocol {
        self.client.protocol().as_ref()
    }

    fn counters(&self) -> LayerCounters {
        let sum = |c| self.backends.iter().map(|b| b.metrics().get(c)).sum();
        LayerCounters {
            router_busy: self.router.metrics().get(Counter::ShedRequests),
            dedup_replays: sum(Counter::DedupReplays),
            evictions: sum(Counter::ReplyCacheEvictions),
        }
    }

    fn audit(&self, issued: &Issued) -> Audit {
        let mut audit = Audit::default();
        let ids = issued.ids();
        let note = |audit: &mut Audit, what: String| {
            if audit.violations.len() < 8 {
                audit.violations.push(what);
            }
        };
        let mut executed = 0;
        for &op in &ids {
            let n = self.executions(op);
            executed += n;
            let failed = issued.failed.binary_search(&op).is_ok();
            if self.inputs.tokened(op) {
                audit.tokens += 1;
                if n == 1 {
                    audit.tokens_once += 1;
                }
                if n > 1 || (n == 0 && !failed) {
                    note(&mut audit, format!("token of op {op} executed {n} times"));
                }
            } else if n == 0 && !failed {
                note(&mut audit, format!("plain op {op} was lost (never executed)"));
            }
        }
        let total: u64 = self.ledgers.iter().map(|l| l.total()).sum();
        if total != executed {
            note(&mut audit, format!("{} executions of ops never issued", total - executed));
        }
        audit
    }

    fn shutdown(&self) {
        self.client.shutdown();
        self.router.shutdown();
        for b in &self.backends {
            b.shutdown();
        }
    }
}
