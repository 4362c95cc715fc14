//! `wire.*`: the protocol layer alone, timed on the workload's own
//! generated messages — `Protocol::encoder` plus the puts, `peek_decoder`
//! plus the gets, `Protocol::frame` and `Protocol::deframe_pooled`.
//! Every figure is nanoseconds per operation: the sum over all messages
//! one operation sends and receives.

use crate::stats::median_f64;
use crate::system::Message;
use heidl_wire::{DecodeLimits, FrameBuf, Protocol};
use std::hint::black_box;
use std::time::Instant;

/// Per-batch timings, in nanoseconds per operation.
#[derive(Debug, Default)]
pub struct WireTimes {
    encode: Vec<f64>,
    decode: Vec<f64>,
    frame: Vec<f64>,
    deframe: Vec<f64>,
    /// Decoded values that did not match what was encoded.
    pub mismatches: u64,
}

/// Medians of the batches.
#[derive(Debug, Default, Clone, Copy)]
pub struct WireMedians {
    pub encode_ns: f64,
    pub decode_ns: f64,
    pub frame_ns: f64,
    pub deframe_ns: f64,
}

impl WireTimes {
    /// Times batches over `ops` (each an operation's messages) until
    /// `until`.
    pub fn run_until(&mut self, protocol: &dyn Protocol, ops: &[Vec<Message>], until: Instant) {
        let limits = DecodeLimits::default();
        let n = ops.len() as f64;
        let mut framed = Vec::new();
        while Instant::now() < until {
            let started = Instant::now();
            let mut encoded = Vec::with_capacity(ops.len());
            for op in ops {
                let bodies: Vec<Vec<u8>> = op
                    .iter()
                    .map(|m| {
                        let mut enc = protocol.encoder();
                        Message::put(&m.args, enc.as_mut());
                        enc.finish()
                    })
                    .collect();
                encoded.push(bodies);
            }
            self.encode.push(started.elapsed().as_nanos() as f64 / n);

            let started = Instant::now();
            let decoded: Vec<_> = ops
                .iter()
                .zip(&encoded)
                .flat_map(|(op, bodies)| op.iter().zip(bodies))
                .map(|(m, body)| {
                    let mut dec = protocol.peek_decoder(body, &limits)?;
                    Message::read(&m.args, dec.as_mut())
                })
                .collect();
            self.decode.push(started.elapsed().as_nanos() as f64 / n);
            for (m, got) in ops.iter().flatten().zip(decoded) {
                if got.as_ref() != Ok(&m.args) {
                    self.mismatches += 1;
                }
            }

            framed.clear();
            let started = Instant::now();
            for m in ops.iter().flatten() {
                protocol.frame(&m.body, &mut framed);
            }
            self.frame.push(started.elapsed().as_nanos() as f64 / n);

            let mut buf = FrameBuf::from_vec(black_box(framed.clone()));
            let started = Instant::now();
            let bodies: Vec<_> =
                ops.iter().flatten().map(|_| protocol.deframe_pooled(&mut buf, &limits)).collect();
            self.deframe.push(started.elapsed().as_nanos() as f64 / n);
            for (m, body) in ops.iter().flatten().zip(bodies) {
                if !matches!(body, Ok(Some(b)) if b.as_slice() == m.body.as_slice()) {
                    self.mismatches += 1;
                }
            }
            black_box(encoded);
        }
    }

    /// Medians over every batch so far.
    pub fn medians(&self) -> WireMedians {
        WireMedians {
            encode_ns: median_f64(&self.encode),
            decode_ns: median_f64(&self.decode),
            frame_ns: median_f64(&self.frame),
            deframe_ns: median_f64(&self.deframe),
        }
    }
}
