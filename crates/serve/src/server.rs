//! The TCP front end: a listener, one handler thread per connection.
//!
//! Connections are tenant-scoped: the first request must be `hello`,
//! which binds the connection to a tenant (opening it if new, attaching
//! if already open). Data lines then stream into that tenant's bounded
//! queue — a full queue blocks the handler thread, TCP flow control
//! propagates the stall to the client, and backpressure is end-to-end
//! without any unbounded buffer in between.
//!
//! The runtime is plain `std::thread` + blocking I/O; the protocol is
//! connection-per-tenant and the tenant count is bounded by
//! [`crate::config::ServiceConfig::max_tenants`], so a thread per
//! connection is the right size and keeps the daemon dependency-free.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use tdgraph_graph::datasets::{Dataset, Sizing};

use crate::config::{AlgoChoice, SessionConfig};
use crate::protocol::{
    parse_client_line, render_error, render_hello_ok, render_ok, render_report, render_shed,
    ClientLine, HelloRequest, END_EVENT,
};
use crate::service::{Admission, Service, TenantReport};

/// Serializes the wire producers of one tenant: a connection must hold
/// the tenant's gate from `hello` until it disconnects, so a
/// reconnecting client's `hello` blocks until the previous connection's
/// handler has drained every byte it received. That ordering is what
/// makes the `acked` resume offset in the hello reply exact — without
/// it, a racing attach could read the offset before the dead
/// connection's tail (including its truncated fragment) was logged.
#[derive(Default)]
struct WriterGate {
    busy: Mutex<bool>,
    cv: Condvar,
}

impl WriterGate {
    /// Waits for the gate, polling the stop flag so shutdown can never
    /// deadlock behind a lingering holder. Returns `false` on stop.
    fn acquire(&self, stop: &AtomicBool) -> bool {
        let mut busy = self.busy.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        while *busy {
            if stop.load(Ordering::SeqCst) {
                return false;
            }
            let (guard, _) = self
                .cv
                .wait_timeout(busy, std::time::Duration::from_millis(200))
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            busy = guard;
        }
        *busy = true;
        true
    }

    fn release(&self) {
        *self.busy.lock().unwrap_or_else(std::sync::PoisonError::into_inner) = false;
        self.cv.notify_one();
    }
}

/// Releases the held gate when the connection handler exits by any path.
struct GateGuard(Arc<WriterGate>);

impl Drop for GateGuard {
    fn drop(&mut self) {
        self.0.release();
    }
}

type GateMap = Arc<Mutex<HashMap<String, Arc<WriterGate>>>>;

fn gate_for(gates: &GateMap, tenant: &str) -> Arc<WriterGate> {
    let mut map = gates.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    Arc::clone(map.entry(tenant.to_string()).or_default())
}

/// A running TCP server over a [`Service`].
pub struct TdServer {
    service: Arc<Service>,
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_join: JoinHandle<()>,
    conn_joins: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl TdServer {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts the
    /// accept loop.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(service: Service, addr: &str) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let service = Arc::new(service);
        let stop = Arc::new(AtomicBool::new(false));
        let conn_joins = Arc::new(Mutex::new(Vec::new()));

        let gates: GateMap = Arc::new(Mutex::new(HashMap::new()));
        let accept_service = Arc::clone(&service);
        let accept_stop = Arc::clone(&stop);
        let accept_conns = Arc::clone(&conn_joins);
        let accept_join = std::thread::spawn(move || {
            for stream in listener.incoming() {
                if accept_stop.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                // The accept loop only spawns — admission decisions,
                // blocking sends, and slow clients all live in handler
                // threads, so accepting never stalls behind one tenant.
                let service = Arc::clone(&accept_service);
                let conn_stop = Arc::clone(&accept_stop);
                let conn_gates = Arc::clone(&gates);
                let handle = std::thread::spawn(move || {
                    let _ = handle_connection(&service, stream, &conn_stop, &conn_gates);
                });
                if let Ok(mut joins) = accept_conns.lock() {
                    joins.push(handle);
                }
            }
        });

        Ok(Self { service, addr, stop, accept_join, conn_joins })
    }

    /// The bound address.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The service behind the listener (for in-process inspection, e.g.
    /// reading [`Service::stats`] while clients stream).
    #[must_use]
    pub fn service(&self) -> &Service {
        &self.service
    }

    /// Blocks until a client requests `{"req":"shutdown"}`, then performs
    /// the graceful [`TdServer::shutdown`] drain. This is the daemon
    /// binary's main loop.
    pub fn run_until_shutdown(self) -> Vec<TenantReport> {
        while !self.stop.load(Ordering::SeqCst) {
            std::thread::park_timeout(std::time::Duration::from_millis(200));
        }
        self.shutdown()
    }

    /// Graceful shutdown: stop accepting, unblock connection handlers
    /// (bounded reads let them observe the stop flag even under a
    /// lingering client), then drain every still-open tenant and return
    /// the reports.
    pub fn shutdown(self) -> Vec<TenantReport> {
        self.stop.store(true, Ordering::SeqCst);
        // Poke the blocking accept loop so it observes the stop flag.
        let _ = TcpStream::connect(self.addr);
        let _ = self.accept_join.join();
        let joins = match self.conn_joins.lock() {
            Ok(mut joins) => std::mem::take(&mut *joins),
            Err(poisoned) => std::mem::take(&mut *poisoned.into_inner()),
        };
        for join in joins {
            let _ = join.join();
        }
        self.service.shutdown()
    }
}

impl std::fmt::Debug for TdServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TdServer").field("addr", &self.addr).finish()
    }
}

/// Resolves a `hello` request against the service's session defaults.
///
/// # Errors
///
/// A bounded reason naming the unparseable field.
pub fn session_from_hello(
    defaults: SessionConfig,
    hello: &HelloRequest,
) -> Result<SessionConfig, String> {
    let mut sc = defaults;
    if let Some(engine) = &hello.engine {
        sc.engine.clone_from(engine);
    }
    if let Some(name) = &hello.dataset {
        sc.dataset = Dataset::from_name(name).ok_or_else(|| format!("unknown dataset {name:?}"))?;
    }
    if let Some(name) = &hello.sizing {
        sc.sizing = Sizing::from_name(name).ok_or_else(|| format!("unknown sizing {name:?}"))?;
    }
    if let Some(name) = &hello.algo {
        sc.algo = AlgoChoice::from_name(name).ok_or_else(|| format!("unknown algo {name:?}"))?;
    }
    Ok(sc)
}

fn handle_connection(
    service: &Service,
    stream: TcpStream,
    stop: &AtomicBool,
    gates: &GateMap,
) -> std::io::Result<()> {
    // Bounded reads: a handler must notice the stop flag even while its
    // client sits idle, or a lingering connection would block shutdown's
    // join forever. The timeout only paces the stop-flag poll — a slow
    // sender is retried, never dropped.
    stream.set_read_timeout(Some(std::time::Duration::from_millis(200)))?;
    if let Some(policy) = &service.config().overload {
        // A slow-reading client errors its own connection out instead of
        // wedging this handler on a blocking reply write.
        stream.set_write_timeout(policy.write_deadline)?;
    }
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    let mut tenant: Option<String> = None;
    let mut gate: Option<GateGuard> = None;
    // 0-based per-connection data-line counter; shed replies name the
    // exact index so the client knows which lines to re-send.
    let mut data_lines: u64 = 0;
    let mut pending = String::new();

    loop {
        // A timeout can interrupt mid-line; `pending` keeps the partial
        // prefix so the retry completes it instead of corrupting framing.
        match reader.read_line(&mut pending) {
            Ok(0) => break,
            // `read_line` returns without a trailing terminator only at
            // EOF: the connection died mid-line (torn write / cut cable).
            Ok(_) if !pending.ends_with('\n') => break,
            Ok(_) => {}
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                continue;
            }
            Err(e) => {
                flush_truncated(service, &tenant, &pending);
                return Err(e);
            }
        }
        let line = std::mem::take(&mut pending);
        let line = line.trim_end_matches('\n');
        if line.trim().is_empty() {
            continue;
        }
        let parsed = match parse_client_line(line) {
            Ok(p) => p,
            Err(detail) => {
                reply(&mut writer, &[render_error(&detail)])?;
                continue;
            }
        };
        match parsed {
            ClientLine::Hello(hello) => {
                match open_or_attach(service, &hello) {
                    Ok(()) => {
                        if tenant.as_deref() != Some(hello.tenant.as_str()) {
                            gate = None; // release any previous binding
                            let tenant_gate = gate_for(gates, &hello.tenant);
                            if !tenant_gate.acquire(stop) {
                                reply(&mut writer, &[render_error("server stopping")])?;
                                break;
                            }
                            gate = Some(GateGuard(tenant_gate));
                            tenant = Some(hello.tenant.clone());
                        }
                        // Read *after* the gate is held: the previous
                        // connection has fully drained, so the offset is
                        // exact.
                        let acked = service.acked(&hello.tenant).unwrap_or(0);
                        reply(&mut writer, &[render_hello_ok(acked)])?;
                    }
                    Err(detail) => reply(&mut writer, &[render_error(&detail)])?,
                }
            }
            ClientLine::Data(raw) => match &tenant {
                // Un-acked when admitted: data lines stream; a full queue
                // blocks here (backpressure) unless an overload policy
                // sheds, in which case the refusal is an explicit reply.
                Some(name) => {
                    let index = data_lines;
                    data_lines += 1;
                    match service.admit_line(name, raw) {
                        Ok(Admission::Accepted) => {}
                        Ok(Admission::Shed(shed)) => {
                            reply(&mut writer, &[render_shed(index, &shed)])?;
                        }
                        Err(e) => reply(&mut writer, &[render_error(&e.to_string())])?,
                    }
                }
                None => reply(&mut writer, &[render_error("no tenant bound; send hello first")])?,
            },
            ClientLine::Flush => match bound(&tenant).and_then(|name| {
                service.flush(name).map_err(|e| e.to_string())
            }) {
                Ok(n) => reply(
                    &mut writer,
                    &[format!("{{\"ev\":\"ok\",\"req\":\"flush\",\"flushed\":{n}}}")],
                )?,
                Err(detail) => reply(&mut writer, &[render_error(&detail)])?,
            },
            ClientLine::Snapshot => match bound(&tenant).and_then(|name| {
                service.snapshot(name).map_err(|e| e.to_string())
            }) {
                Ok(view) => reply(
                    &mut writer,
                    &[
                        format!(
                            "{{\"ev\":\"snapshot\",\"batches\":{},\"buffered\":{},\"quarantined\":{}}}",
                            view.batches_done, view.buffered, view.quarantined
                        ),
                        view.snapshot.canonical_json_line(),
                        END_EVENT.to_string(),
                    ],
                )?,
                Err(detail) => reply(&mut writer, &[render_error(&detail)])?,
            },
            ClientLine::Finish => match bound(&tenant).and_then(|name| {
                service.finish(name).map_err(|e| e.to_string())
            }) {
                Ok(report) => {
                    tenant = None;
                    reply(&mut writer, &render_report(&report))?;
                }
                Err(detail) => reply(&mut writer, &[render_error(&detail)])?,
            },
            ClientLine::Shutdown => {
                stop.store(true, Ordering::SeqCst);
                reply(&mut writer, &[render_ok("shutdown")])?;
                break;
            }
        }
    }
    // The connection is over; anything still pending is a line the wire
    // cut short. Flush it as a quarantined truncated fragment *before*
    // releasing the gate, so the next attach's resume offset orders
    // after it.
    flush_truncated(service, &tenant, &pending);
    drop(gate);
    Ok(())
}

/// Quarantines a partial final line instead of dropping it: the fragment
/// is WAL-logged and rides the batch path into the tenant's quarantine
/// ledger (excluded from the resume offset — the client re-sends the
/// whole line).
fn flush_truncated(service: &Service, tenant: &Option<String>, pending: &str) {
    if let Some(name) = tenant {
        if !pending.trim().is_empty() {
            let _ = service.ingest_truncated(name, pending);
        }
    }
}

fn open_or_attach(service: &Service, hello: &HelloRequest) -> Result<(), String> {
    if service.is_open(&hello.tenant) {
        // Attach: a reconnecting client resumes the existing session.
        return Ok(());
    }
    let sc = session_from_hello(service.session_defaults(), hello)?;
    service.open_tenant_with(&hello.tenant, sc).map_err(|e| e.to_string())
}

fn bound(tenant: &Option<String>) -> Result<&str, String> {
    tenant.as_deref().ok_or_else(|| "no tenant bound; send hello first".to_string())
}

fn reply(writer: &mut BufWriter<TcpStream>, lines: &[String]) -> std::io::Result<()> {
    for line in lines {
        writer.write_all(line.as_bytes())?;
        writer.write_all(b"\n")?;
    }
    writer.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hello_overrides_apply_over_defaults() {
        let hello = HelloRequest {
            tenant: "t".to_string(),
            engine: Some("dzig".to_string()),
            dataset: Some("dblp".to_string()),
            sizing: Some("tiny".to_string()),
            algo: Some("cc".to_string()),
        };
        let sc = session_from_hello(SessionConfig::default(), &hello).unwrap();
        assert_eq!(sc.engine, "dzig");
        assert_eq!(sc.dataset, Dataset::Dblp);
        assert_eq!(sc.sizing, Sizing::Tiny);
        assert!(matches!(sc.algo, AlgoChoice::Fixed(_)));
    }

    #[test]
    fn bad_hello_fields_are_reported() {
        let hello = HelloRequest {
            tenant: "t".to_string(),
            algo: Some("warp".to_string()),
            ..HelloRequest::default()
        };
        let err = session_from_hello(SessionConfig::default(), &hello).unwrap_err();
        assert!(err.contains("warp"));
    }
}
