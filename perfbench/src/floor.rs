//! The raw-socket floor, measured in the same run as the ORB: a
//! `std::net::TcpStream` pair over loopback replays each operation's
//! exact framed bytes — request frames one way, reply frames back — with
//! no ORB in between. What remains is the kernel's cost for those bytes.

use crate::system::{Dir, Message};
use heidl_wire::Protocol;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// One operation's bytes: runs of same-direction frames, concatenated.
#[derive(Debug, Clone)]
pub struct Script {
    steps: Vec<(Dir, Vec<u8>)>,
    /// Payload bytes the operation carries.
    pub payload: u64,
    /// Framed bytes, both directions.
    pub frame_bytes: u64,
}

impl Script {
    /// Frames `messages` with `protocol` and merges same-direction runs.
    pub fn new(protocol: &dyn Protocol, messages: &[Message]) -> Script {
        let mut steps: Vec<(Dir, Vec<u8>)> = Vec::new();
        let mut payload = 0;
        for m in messages {
            payload += m.payload;
            match steps.last_mut() {
                Some((dir, bytes)) if *dir == m.dir => protocol.frame(&m.body, bytes),
                _ => {
                    let mut bytes = Vec::new();
                    protocol.frame(&m.body, &mut bytes);
                    steps.push((m.dir, bytes));
                }
            }
        }
        let frame_bytes = steps.iter().map(|(_, b)| b.len() as u64).sum();
        Script { steps, payload, frame_bytes }
    }
}

/// A connected floor pair: the client half runs on the caller's thread,
/// the server half on its own thread for the whole run.
pub struct Floor {
    client: TcpStream,
    server: Option<JoinHandle<io::Result<()>>>,
    scripts: Arc<Vec<Script>>,
    next: usize,
    buf: Vec<u8>,
}

impl Floor {
    /// Connects the pair; both halves replay `scripts` in a cycle.
    ///
    /// # Errors
    ///
    /// Socket failures.
    pub fn start(scripts: Vec<Script>) -> io::Result<Floor> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let client = TcpStream::connect(listener.local_addr()?)?;
        let (server_sock, _) = listener.accept()?;
        client.set_nodelay(true)?;
        server_sock.set_nodelay(true)?;
        let scripts = Arc::new(scripts);
        let theirs = Arc::clone(&scripts);
        let server = std::thread::Builder::new()
            .name("floor-server".into())
            .spawn(move || serve(server_sock, &theirs))?;
        Ok(Floor { client, server: Some(server), scripts, next: 0, buf: Vec::new() })
    }

    /// Replays operations until `until`; appends each one's duration in
    /// nanoseconds to `op_ns`.
    ///
    /// # Errors
    ///
    /// Socket failures.
    pub fn run_until(&mut self, until: Instant, op_ns: &mut Vec<u64>) -> io::Result<()> {
        while Instant::now() < until {
            let script = &self.scripts[self.next];
            let started = Instant::now();
            for (dir, bytes) in &script.steps {
                match dir {
                    Dir::Up => self.client.write_all(bytes)?,
                    Dir::Down => {
                        self.buf.resize(bytes.len(), 0);
                        self.client.read_exact(&mut self.buf)?;
                    }
                }
            }
            op_ns.push(started.elapsed().as_nanos() as u64);
            self.next = (self.next + 1) % self.scripts.len();
        }
        Ok(())
    }

    /// Closes the pair and joins the server half.
    ///
    /// # Errors
    ///
    /// A socket failure on either half.
    pub fn finish(mut self) -> io::Result<()> {
        self.client.shutdown(Shutdown::Write)?;
        match self.server.take().map(JoinHandle::join) {
            Some(Ok(result)) => result,
            Some(Err(_)) => Err(io::Error::other("floor server panicked")),
            None => Ok(()),
        }
    }
}

fn serve(mut sock: TcpStream, scripts: &[Script]) -> io::Result<()> {
    let mut buf = Vec::new();
    for script in scripts.iter().cycle() {
        for (dir, bytes) in &script.steps {
            match dir {
                Dir::Up => {
                    buf.resize(bytes.len(), 0);
                    match sock.read_exact(&mut buf) {
                        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(()),
                        other => other?,
                    }
                }
                Dir::Down => sock.write_all(bytes)?,
            }
        }
    }
    Ok(())
}
