//! A minimal blocking client for the service wire protocol.
//!
//! Used by the integration tests and the daemon's smoke workloads; it is
//! also the reference for speaking the protocol from other tooling: every
//! method is a thin line-in/line-out wrapper. Beyond the buffered socket
//! the client tracks just enough state to recover: the peer address,
//! tenant binding, a per-connection data-line counter mirroring the
//! server's shed indices, and the shed events collected off the wire.
//!
//! Recovery is deterministic and bounded: [`ServeClient::connect_with_retry`]
//! and [`ServeClient::reconnect`] back off exponentially under a
//! [`RetryPolicy`] through an injectable [`Clock`] (tests assert the
//! exact schedule without sleeping), and
//! [`ServeClient::send_lines_with_shed_retry`] honours the server's
//! `retry_after` hints, re-sending exactly the refused lines.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use tdgraph_graph::update::EdgeUpdate;
use tdgraph_graph::wire::{
    format_update_line, json_escape_wire, lookup, lookup_str, parse_flat_object,
};

use crate::backoff::Backoff;
use crate::clock::Clock;
use crate::protocol::END_EVENT;

pub use crate::backoff::RetryPolicy;

/// A parsed `{"ev":"shed",...}` overload refusal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShedEvent {
    /// 0-based per-connection index of the refused data line.
    pub line: u64,
    /// The shed reason label (`entry_budget`, `queue_full`).
    pub reason: String,
    /// The server's retry hint.
    pub retry_after: Duration,
}

/// Parses a shed event line; `None` when `line` is any other reply.
#[must_use]
pub fn parse_shed_event(line: &str) -> Option<ShedEvent> {
    if !line.starts_with("{\"ev\":\"shed\"") {
        return None;
    }
    let fields = parse_flat_object(line).ok()?;
    Some(ShedEvent {
        line: lookup(&fields, "line").ok()?.parse().ok()?,
        reason: lookup_str(&fields, "reason").ok()?,
        retry_after: Duration::from_millis(lookup(&fields, "retry_after_ms").ok()?.parse().ok()?),
    })
}

/// Client-side protocol errors.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// The server replied `{"ev":"error",...}`.
    Server(String),
    /// The server replied something the client did not expect.
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io error: {e}"),
            ClientError::Server(detail) => write!(f, "server error: {detail}"),
            ClientError::Protocol(detail) => write!(f, "unexpected reply: {detail}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// A blocking connection to a [`crate::server::TdServer`].
#[derive(Debug)]
pub struct ServeClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    peer: Option<SocketAddr>,
    tenant: Option<String>,
    overrides: Vec<(String, String)>,
    /// Data lines sent on the *current* connection — mirrors the server's
    /// per-connection shed indices.
    data_sent: u64,
    /// The `acked` offset from the latest hello reply.
    acked: u64,
    /// Shed events collected while reading other replies.
    sheds: Vec<ShedEvent>,
}

impl ServeClient {
    /// Connects to the server.
    ///
    /// # Errors
    ///
    /// Propagates the connect failure.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        let peer = stream.peer_addr().ok();
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Self {
            reader,
            writer: stream,
            peer,
            tenant: None,
            overrides: Vec::new(),
            data_sent: 0,
            acked: 0,
            sheds: Vec::new(),
        })
    }

    /// Connects with bounded deterministic retry: up to
    /// `policy.max_attempts` tries, exponential backoff through `clock`.
    ///
    /// # Errors
    ///
    /// The final connect failure after the budget is spent.
    pub fn connect_with_retry(
        addr: impl ToSocketAddrs + Copy,
        policy: &RetryPolicy,
        clock: &dyn Clock,
    ) -> Result<Self, ClientError> {
        Backoff::new(*policy).run(clock, || Self::connect(addr).map_err(ClientError::Io))
    }

    /// Binds this connection to `tenant` with the service's session
    /// defaults. Returns the server's `acked` resume offset: the count of
    /// clean lines this tenant has already durably accepted (0 for a new
    /// tenant; survives reconnects and — with a WAL — daemon restarts).
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] if the service rejects the session.
    pub fn hello(&mut self, tenant: &str) -> Result<u64, ClientError> {
        self.hello_with(tenant, &[])
    }

    /// Binds this connection to `tenant` with session overrides, e.g.
    /// `[("engine", "dzig"), ("dataset", "dblp")]`. Returns the `acked`
    /// resume offset (see [`ServeClient::hello`]).
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] if the service rejects the session.
    pub fn hello_with(
        &mut self,
        tenant: &str,
        overrides: &[(&str, &str)],
    ) -> Result<u64, ClientError> {
        let mut line = format!("{{\"req\":\"hello\",\"tenant\":\"{}\"", json_escape_wire(tenant));
        for (key, value) in overrides {
            line.push_str(&format!(
                ",\"{}\":\"{}\"",
                json_escape_wire(key),
                json_escape_wire(value)
            ));
        }
        line.push('}');
        self.send_line(&line)?;
        let reply = self.expect_ok_line()?;
        self.tenant = Some(tenant.to_string());
        self.overrides =
            overrides.iter().map(|(k, v)| ((*k).to_string(), (*v).to_string())).collect();
        self.acked = extract_u64(&reply, "\"acked\":").unwrap_or(0);
        Ok(self.acked)
    }

    /// The `acked` offset from the latest hello reply.
    #[must_use]
    pub fn acked(&self) -> u64 {
        self.acked
    }

    /// Tears the current socket down and reconnects to the same peer with
    /// bounded backoff, re-issuing the stored hello. Returns the fresh
    /// `acked` resume offset — the caller continues sending at that
    /// data-line index.
    ///
    /// # Errors
    ///
    /// The final connect failure, or the hello rejection.
    pub fn reconnect(
        &mut self,
        policy: &RetryPolicy,
        clock: &dyn Clock,
    ) -> Result<u64, ClientError> {
        let peer = self.peer.ok_or_else(|| ClientError::Protocol("no peer address".to_string()))?;
        let tenant = self
            .tenant
            .clone()
            .ok_or_else(|| ClientError::Protocol("no tenant bound".to_string()))?;
        let overrides = self.overrides.clone();
        let stream = Backoff::new(*policy)
            .run(clock, || TcpStream::connect(peer))
            .map_err(ClientError::Io)?;
        self.reader = BufReader::new(stream.try_clone()?);
        self.writer = stream;
        self.data_sent = 0;
        self.sheds.clear();
        let refs: Vec<(&str, &str)> =
            overrides.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
        self.hello_with(&tenant, &refs)
    }

    /// Severs the connection abruptly (both directions, no protocol
    /// goodbye) — the fault-injection path for disconnect tests.
    ///
    /// # Errors
    ///
    /// Propagates the socket shutdown failure.
    pub fn sever(&mut self) -> std::io::Result<()> {
        self.writer.shutdown(std::net::Shutdown::Both)
    }

    /// Sends only the first `keep_bytes` bytes of `line` — **without** a
    /// newline — then severs the connection: a torn write, exactly what a
    /// crash mid-`write` leaves on the wire.
    ///
    /// # Errors
    ///
    /// Socket-level failures.
    pub fn send_torn(&mut self, line: &str, keep_bytes: usize) -> Result<(), ClientError> {
        let cut = keep_bytes.min(line.len());
        self.writer.write_all(&line.as_bytes()[..cut])?;
        self.writer.flush()?;
        self.sever()?;
        Ok(())
    }

    /// Streams one edge update. Un-acked; backpressure arrives as a
    /// blocking write when the tenant queue is full.
    ///
    /// # Errors
    ///
    /// Socket-level failures only.
    pub fn send_update(&mut self, update: &EdgeUpdate) -> Result<(), ClientError> {
        self.send_line(&format_update_line(update))
    }

    /// Streams one raw line — the fault-injection path for tests that
    /// feed the server corrupt traffic.
    ///
    /// # Errors
    ///
    /// Socket-level failures only.
    pub fn send_line(&mut self, line: &str) -> Result<(), ClientError> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        if !line.starts_with("{\"req\":") {
            self.data_sent += 1;
        }
        Ok(())
    }

    /// Drains the shed events collected so far (in arrival order).
    pub fn take_shed_events(&mut self) -> Vec<ShedEvent> {
        std::mem::take(&mut self.sheds)
    }

    /// Sends `lines` as data, then re-sends any the server sheds, waiting
    /// out the server's `retry_after` hint (or the policy backoff,
    /// whichever is longer) between rounds through `clock`. A `flush`
    /// round-trip after each round acts as the barrier that surfaces the
    /// round's shed replies. Returns the number of re-sent lines.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] after `policy.max_attempts` rounds still
    /// leave lines shed, or socket/protocol failures.
    pub fn send_lines_with_shed_retry(
        &mut self,
        lines: &[String],
        policy: &RetryPolicy,
        clock: &dyn Clock,
    ) -> Result<u64, ClientError> {
        // Conn-index → line, so a shed reply can name what to re-send.
        let mut in_flight: HashMap<u64, String> = HashMap::new();
        for line in lines {
            in_flight.insert(self.data_sent, line.clone());
            self.send_line(line)?;
        }
        let mut resent = 0u64;
        let mut backoff = Backoff::new(*policy);
        loop {
            // The flush reply orders after every shed event for lines sent
            // before it on this connection.
            self.flush()?;
            let sheds = self.take_shed_events();
            if sheds.is_empty() {
                return Ok(resent);
            }
            let hint = sheds.iter().map(|s| s.retry_after).max().unwrap_or(Duration::ZERO);
            if !backoff.wait_at_least(hint, clock) {
                return Err(ClientError::Server(format!(
                    "{} line(s) still shed after {} round(s)",
                    sheds.len(),
                    backoff.attempts() + 1
                )));
            }
            for shed in &sheds {
                let Some(line) = in_flight.remove(&shed.line) else {
                    return Err(ClientError::Protocol(format!(
                        "shed reply for unknown line index {}",
                        shed.line
                    )));
                };
                in_flight.insert(self.data_sent, line.clone());
                self.send_line(&line)?;
                resent += 1;
            }
        }
    }

    /// Forces the open batch out; returns how many entries it held.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] / [`ClientError::Protocol`] on bad replies.
    pub fn flush(&mut self) -> Result<u64, ClientError> {
        self.send_line("{\"req\":\"flush\"}")?;
        let line = self.read_line()?;
        if let Some(detail) = error_detail(&line) {
            return Err(ClientError::Server(detail));
        }
        extract_u64(&line, "\"flushed\":").ok_or(ClientError::Protocol(line))
    }

    /// Reads the tenant's progress: the header line and the canonical
    /// snapshot line.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] / [`ClientError::Protocol`] on bad replies.
    pub fn snapshot(&mut self) -> Result<SnapshotReply, ClientError> {
        self.send_line("{\"req\":\"snapshot\"}")?;
        let header = self.read_line()?;
        if let Some(detail) = error_detail(&header) {
            return Err(ClientError::Server(detail));
        }
        let snapshot = self.read_line()?;
        let end = self.read_line()?;
        if end != END_EVENT {
            return Err(ClientError::Protocol(end));
        }
        Ok(SnapshotReply { header, snapshot })
    }

    /// Finishes the tenant and returns every reply line up to (excluding)
    /// the end marker: the report event, the recorded schedule, and the
    /// canonical snapshot — the byte-comparable determinism surface.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] if the service reports a failure.
    pub fn finish(&mut self) -> Result<Vec<String>, ClientError> {
        self.send_line("{\"req\":\"finish\"}")?;
        let first = self.read_line()?;
        if let Some(detail) = error_detail(&first) {
            return Err(ClientError::Server(detail));
        }
        let mut lines = vec![first];
        loop {
            let line = self.read_line()?;
            if line == END_EVENT {
                return Ok(lines);
            }
            lines.push(line);
        }
    }

    /// Asks the server to stop accepting connections.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] / socket-level failures.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        self.send_line("{\"req\":\"shutdown\"}")?;
        self.expect_ok()
    }

    fn expect_ok(&mut self) -> Result<(), ClientError> {
        self.expect_ok_line().map(|_| ())
    }

    fn expect_ok_line(&mut self) -> Result<String, ClientError> {
        let line = self.read_line()?;
        if let Some(detail) = error_detail(&line) {
            return Err(ClientError::Server(detail));
        }
        if line.starts_with("{\"ev\":\"ok\"") {
            Ok(line)
        } else {
            Err(ClientError::Protocol(line))
        }
    }

    /// Reads the next non-shed reply line; shed events are collected into
    /// the [`ServeClient::take_shed_events`] buffer so they never disturb
    /// the framing of flush/snapshot/finish replies.
    fn read_line(&mut self) -> Result<String, ClientError> {
        loop {
            let mut line = String::new();
            let n = self.reader.read_line(&mut line)?;
            if n == 0 {
                return Err(ClientError::Protocol("connection closed".to_string()));
            }
            let line = line.trim_end_matches('\n').to_string();
            if let Some(shed) = parse_shed_event(&line) {
                self.sheds.push(shed);
                continue;
            }
            return Ok(line);
        }
    }
}

/// A `snapshot` reply: the progress header plus the canonical snapshot
/// line.
#[derive(Debug, Clone)]
pub struct SnapshotReply {
    /// `{"ev":"snapshot","batches":...,"buffered":...,"quarantined":...}`.
    pub header: String,
    /// The tenant's canonical observability snapshot line.
    pub snapshot: String,
}

fn error_detail(line: &str) -> Option<String> {
    line.starts_with("{\"ev\":\"error\"").then(|| line.to_string())
}

fn extract_u64(line: &str, marker: &str) -> Option<u64> {
    let rest = &line[line.find(marker)? + marker.len()..];
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::TestClock;

    #[test]
    fn backoff_doubles_and_caps() {
        let policy = RetryPolicy {
            max_attempts: 8,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(50),
        };
        assert_eq!(policy.backoff(0), Duration::from_millis(10));
        assert_eq!(policy.backoff(1), Duration::from_millis(20));
        assert_eq!(policy.backoff(2), Duration::from_millis(40));
        assert_eq!(policy.backoff(3), Duration::from_millis(50));
        assert_eq!(policy.backoff(40), Duration::from_millis(50));
    }

    #[test]
    fn shed_events_parse_and_other_lines_do_not() {
        let shed = parse_shed_event(
            "{\"ev\":\"shed\",\"line\":7,\"reason\":\"entry_budget\",\"retry_after_ms\":25}",
        )
        .unwrap();
        assert_eq!(shed.line, 7);
        assert_eq!(shed.reason, "entry_budget");
        assert_eq!(shed.retry_after, Duration::from_millis(25));
        assert!(parse_shed_event("{\"ev\":\"ok\",\"req\":\"hello\",\"acked\":3}").is_none());
        assert!(parse_shed_event("not json").is_none());
    }

    #[test]
    fn connect_retry_follows_the_backoff_schedule_without_sleeping() {
        // Nothing listens on a reserved-then-released port, so every
        // attempt fails fast; the TestClock records the exact schedule.
        let addr = {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            listener.local_addr().unwrap()
        };
        let clock = TestClock::new();
        let policy = RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_millis(5),
            max_backoff: Duration::from_secs(1),
        };
        let err = ServeClient::connect_with_retry(addr, &policy, &clock).unwrap_err();
        assert!(matches!(err, ClientError::Io(_)), "got {err:?}");
        assert_eq!(
            clock.slept(),
            vec![Duration::from_millis(5), Duration::from_millis(10), Duration::from_millis(20),],
            "3 backoffs between 4 attempts"
        );
    }

    #[test]
    fn hello_parses_the_acked_offset() {
        assert_eq!(
            extract_u64("{\"ev\":\"ok\",\"req\":\"hello\",\"acked\":42}", "\"acked\":"),
            Some(42)
        );
        assert_eq!(extract_u64("{\"ev\":\"ok\",\"req\":\"hello\"}", "\"acked\":"), None);
    }
}
