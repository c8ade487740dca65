//! In-process driver for a [`Server`]: requests go in as protocol lines,
//! responses land in an in-memory sink and are awaited by id. The chaos
//! soak and the server integration tests share it.

use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::protocol::{parse_request, parse_response_stream, ResponseHeader};
use crate::server::{shared_writer, Server, ServerConfig, ServerSnapshot, SharedWriter};

/// How long any single wait may take before it reports a failure.
pub(crate) const WAIT: Duration = Duration::from_secs(120);

/// An in-memory response sink shared with the server's workers.
#[derive(Clone, Default)]
struct Sink(Arc<Mutex<Vec<u8>>>);

impl Sink {
    fn bytes(&self) -> Vec<u8> {
        self.0.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }
}

impl Write for Sink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// A running server plus the sink its responses are written to.
pub struct Harness {
    /// The server under test.
    pub server: Server,
    sink: Sink,
    out: SharedWriter,
    submitted: Vec<String>,
}

impl Harness {
    /// Start a server with `cfg`.
    pub fn new(cfg: ServerConfig) -> Self {
        let sink = Sink::default();
        Harness {
            server: Server::new(cfg),
            out: shared_writer(sink.clone()),
            sink,
            submitted: Vec::new(),
        }
    }

    /// Dispatch one request line, remembering its id when it parses.
    pub fn send(&mut self, line: &str) {
        if let Ok(Some(req)) = parse_request(line) {
            self.submitted.push(req.id().to_string());
        }
        self.server.dispatch_line(line, &self.out);
    }

    /// The writer responses go to, for requests dispatched other than by
    /// [`Harness::send`] (several client threads, a connection loop).
    pub fn out(&self) -> &SharedWriter {
        &self.out
    }

    /// Ids of every parsed request [`Harness::send`] dispatched, in order.
    pub(crate) fn submitted(&self) -> &[String] {
        &self.submitted
    }

    /// Every response written so far, in write order.
    pub fn responses(&self) -> Result<Vec<(ResponseHeader, Vec<u8>)>, String> {
        parse_response_stream(&self.sink.bytes()).map_err(|e| format!("bad response stream: {e}"))
    }

    /// Block until the (first) response for `id` arrives; responses are
    /// written on worker threads.
    pub fn wait_response(&self, id: &str) -> Result<(ResponseHeader, String), String> {
        let deadline = Instant::now() + WAIT;
        loop {
            let responses = self.responses()?;
            if let Some((h, body)) = responses.into_iter().find(|(h, _)| h.id == id) {
                let body =
                    String::from_utf8(body).map_err(|_| format!("non-UTF-8 payload for {id}"))?;
                return Ok((h, body));
            }
            if Instant::now() >= deadline {
                let seen: Vec<String> = self.responses()?.into_iter().map(|(h, _)| h.id).collect();
                return Err(format!(
                    "no response for request '{id}' within {WAIT:?}; responded so far: {seen:?}"
                ));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// Block until `pred` holds on the server snapshot.
    pub fn wait_state(
        &self,
        what: &str,
        pred: impl Fn(&ServerSnapshot) -> bool,
    ) -> Result<(), String> {
        let deadline = Instant::now() + WAIT;
        while !pred(&self.server.snapshot()) {
            if Instant::now() >= deadline {
                return Err(format!(
                    "timed out waiting for {what}; snapshot: {:?}",
                    self.server.snapshot()
                ));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Ok(())
    }

    /// The server's central promise: every request [`Harness::send`]
    /// dispatched got exactly one response.
    pub fn check_one_response_each(&self) -> Result<(), String> {
        let responses = self.responses()?;
        for id in &self.submitted {
            let n = responses.iter().filter(|(r, _)| &r.id == id).count();
            check(n == 1, &format!("request '{id}' got {n} responses, want 1"))?;
        }
        Ok(())
    }
}

/// `Err` naming `what` unless `cond` holds.
pub fn check(cond: bool, what: &str) -> Result<(), String> {
    if cond {
        Ok(())
    } else {
        Err(format!("check failed: {what}"))
    }
}
