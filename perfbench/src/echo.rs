//! `echo`: one caller making sequential two-way CDR `echo` calls from a
//! client `Orb` to a separate server `Orb` over loopback. Nearly all of
//! each call is per-call runtime cost; the router, the reply cache and
//! streaming do no work here.

use crate::gen::{self, Rng};
use crate::system::{two_way, Arg, Dir, Message, OpOutcome, System, DEADLINE};
use crate::trace::{OpTrace, Tracer};
use heidl_rmi::{
    CallOptions, DispatchKind, DispatchOutcome, ObjectRef, Orb, ReplyBuilder, RmiResult, Skeleton,
    SkeletonBase,
};
use heidl_wire::{CdrProtocol, Decoder, Encoder, Protocol};
use std::sync::Arc;

/// Bytes of each echoed string.
pub const TEXT_BYTES: usize = 64;
/// Distinct generated strings, cycled by operation id.
const INPUTS: usize = 1024;
const TYPE_ID: &str = "IDL:Perf/Echo:1.0";
/// The traced two-way method.
pub const METHOD: &str = "echo";

/// The seeded strings.
#[derive(Debug)]
pub struct Inputs {
    texts: Vec<String>,
}

impl Inputs {
    /// Generates the inputs for `seed`.
    pub fn generate(seed: u64) -> Inputs {
        let mut rng = Rng::new(seed, 1);
        Inputs { texts: (0..INPUTS).map(|_| gen::printable(&mut rng, TEXT_BYTES)).collect() }
    }

    fn text(&self, op: u64) -> &str {
        &self.texts[op as usize % INPUTS]
    }
}

struct EchoSkel {
    base: SkeletonBase,
    tracer: Option<Arc<Tracer>>,
    /// Test hook: answer every seventh operation with a wrong string.
    corrupt: bool,
}

impl Skeleton for EchoSkel {
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
                let text = args.get_string()?;
                reply.put_ulonglong(op);
                if self.corrupt && op % 7 == 3 {
                    reply.put_string(&text.chars().rev().collect::<String>());
                } else {
                    reply.put_string(&text);
                }
                if let (Some(t), Some(s)) = (&self.tracer, started) {
                    t.servant(op, s);
                }
                Ok(DispatchOutcome::Handled)
            }
            _ => self.base.dispatch_parents(method, args, reply),
        }
    }
}

/// The running `echo` system.
pub struct Echo {
    server: Orb,
    client: Orb,
    target: ObjectRef,
    inputs: Arc<Inputs>,
    options: CallOptions,
    tracer: Option<Arc<Tracer>>,
}

impl Echo {
    /// Builds and serves the system (no call made yet).
    ///
    /// # Errors
    ///
    /// Bind and export failures.
    pub fn build(
        inputs: Arc<Inputs>,
        tracer: Option<Arc<Tracer>>,
        corrupt: bool,
    ) -> RmiResult<Echo> {
        let protocol: Arc<dyn Protocol> = Arc::new(CdrProtocol);
        let server = Orb::builder().protocol(Arc::clone(&protocol)).build();
        let client = Orb::builder().protocol(protocol).build();
        if let Some(t) = &tracer {
            server.add_interceptor(t.hook());
            client.add_interceptor(t.hook());
        }
        server.serve("127.0.0.1:0")?;
        let target = server.export(Arc::new(EchoSkel {
            base: SkeletonBase::new(TYPE_ID, DispatchKind::Hash, [METHOD], vec![]),
            tracer: tracer.clone(),
            corrupt,
        }))?;
        let options = CallOptions::builder().deadline(DEADLINE).build();
        Ok(Echo { server, client, target, inputs, options, tracer })
    }
}

impl System for Echo {
    fn op(&self, _caller: usize, op: u64, trace: Option<&mut OpTrace>) -> OpOutcome {
        let text = self.inputs.text(op);
        let mut local = OpTrace::default();
        let t = trace.unwrap_or(&mut local);
        let result = two_way(
            &self.client,
            &self.target,
            METHOD,
            self.options,
            self.tracer.as_deref(),
            &mut t.call,
            |a| {
                a.put_ulonglong(op);
                a.put_string(text);
            },
            |r| Ok(r.get_ulonglong()? == op && r.get_string()? == text),
        );
        t.op = op;
        t.start = t.call.marshal_start;
        t.end = t.call.end;
        match result {
            Ok(()) => OpOutcome::Ok { payload: 2 * text.len() as u64, tokened: false },
            Err(outcome) => outcome,
        }
    }

    fn client(&self) -> &Orb {
        &self.client
    }

    fn messages(&self, op: u64) -> Vec<Message> {
        let text = self.inputs.text(op).to_owned();
        let args = vec![Arg::U64(op), Arg::Str(text.clone())];
        let mut call = self.client.call(&self.target, METHOD);
        Message::put(&args, call.args());
        let request_id = call.request_id();
        let (_, _, up) = call.into_parts();
        let mut reply = ReplyBuilder::ok(self.protocol(), request_id);
        Message::put(&args, reply.results());
        let payload = text.len() as u64;
        vec![
            Message { dir: Dir::Up, args: args.clone(), body: up, payload },
            Message { dir: Dir::Down, args, body: reply.into_body(), payload },
        ]
    }

    fn protocol(&self) -> &dyn Protocol {
        self.client.protocol().as_ref()
    }

    fn shutdown(&self) {
        self.client.shutdown();
        self.server.shutdown();
    }
}
