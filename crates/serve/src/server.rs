//! The daemon: a TCP listener, one reader/writer thread pair per
//! connection, and the shared [`ServicePool`] + [`CacheStore`] behind
//! them.
//!
//! Connection life cycle: the accept loop admits up to
//! [`ServeConfig::max_conns`] concurrent connections (excess
//! connections get one `Error` line and are closed — load shedding, not
//! queueing). Each connection runs a reader thread (parses request
//! lines, serves cache hits inline, submits misses to the pool) and a
//! writer thread (writes all responses of the connection in order, so
//! pool workers never block on a slow client socket longer than the
//! channel hand-off). When a client disconnects, its still-queued jobs
//! are cancelled — work nobody will read is never run.
//!
//! The response path does only the work it must. A cell is serialized
//! once, into [`CellBytes`] pieces, when its run completes; the cache
//! keeps those pieces, and every response to the cell (cold or hit) is
//! spliced from them into one buffer holding all its lines. The writer
//! hands each buffer to the socket whole and flushes once per batch,
//! and every accepted socket has `TCP_NODELAY` set, so no part of a
//! response waits for the client's delayed ACK.
//!
//! Backpressure is layered: the pool's bounded queue blocks readers
//! once `queue_cap` jobs are waiting, which stops them draining their
//! sockets, which fills the kernel TCP window — the client's writes
//! stall. A request line is read only up to [`MAX_LINE_BYTES`]; a
//! longer one gets one `Error` line and closes its connection.
//!
//! Graceful drain (`Shutdown` request or [`Server::begin_shutdown`]):
//! stop accepting, refuse new engine work, finish in-flight jobs,
//! flush the cache manifest, join every thread.

use crate::cache::{cache_key, CacheStore};
use crate::proto::{compute_cell, encode, CellBytes, Request, Response, RunRequest, PROTO_VERSION};
use rmm_fleet::{JobTicket, ServicePool};
use rmm_mac::ProtocolKind;
use rmm_stats::{render_registry, MetricsRegistry};
use rmm_workload::scenario_schema_hash;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// The longest request line the server reads, newline included. A
/// longer line gets one `Error` line and its connection is closed, so a
/// client that never sends a newline cannot grow server memory past it.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// A connection prunes its settled job tickets once it holds this many.
const PRUNE_FLOOR: usize = 64;

/// How a [`Server`] is configured; `Default` is a loopback server on an
/// OS-assigned port with a memory-only cache.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:4860` (`:0` picks a free port).
    pub addr: String,
    /// Engine worker threads (0 = one per core).
    pub workers: usize,
    /// Concurrent-connection cap; connections beyond it are refused
    /// with an `Error` line.
    pub max_conns: usize,
    /// Bounded engine-queue depth; readers block (and TCP backpressure
    /// engages) once this many jobs are waiting.
    pub queue_cap: usize,
    /// On-disk result cache (manifest format). `None` = memory-only.
    pub cache_path: Option<PathBuf>,
    /// Suppress the startup line on stdout.
    pub quiet: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 0,
            max_conns: 64,
            queue_cap: 1024,
            cache_path: None,
            quiet: true,
        }
    }
}

struct Shared {
    pool: ServicePool,
    cache: CacheStore,
    draining: AtomicBool,
    conns_open: Mutex<usize>,
    conn_closed: Condvar,
    conns_accepted: AtomicU64,
    conns_rejected: AtomicU64,
    requests: AtomicU64,
    errors: AtomicU64,
    addr: SocketAddr,
}

impl Shared {
    fn begin_drain(&self) {
        if self.draining.swap(true, Ordering::SeqCst) {
            return;
        }
        // The accept loop is parked in `accept()`; poke it awake so it
        // observes the flag. The loop drops this connection on sight.
        let _ = TcpStream::connect(self.addr);
    }

    fn metrics_text(&self) -> String {
        let mut reg = MetricsRegistry::new();
        reg.add(
            "serve_requests_total",
            self.requests.load(Ordering::Relaxed),
        );
        reg.add("serve_cache_hits_total", self.cache.hits());
        reg.add("serve_cache_misses_total", self.cache.misses());
        reg.add("serve_cache_entries", self.cache.len() as u64);
        reg.add("serve_engine_runs_total", self.pool.executed());
        reg.add("serve_jobs_cancelled_total", self.pool.cancelled());
        reg.add(
            "serve_conns_accepted_total",
            self.conns_accepted.load(Ordering::Relaxed),
        );
        reg.add(
            "serve_conns_rejected_total",
            self.conns_rejected.load(Ordering::Relaxed),
        );
        reg.add("serve_errors_total", self.errors.load(Ordering::Relaxed));
        reg.add("serve_workers", self.pool.workers() as u64);
        render_registry(&reg, "rmm")
    }
}

/// A running serve daemon. Dropping the handle does *not* stop the
/// server; call [`Server::begin_shutdown`] (or send a `Shutdown`
/// request) and then [`Server::join`].
pub struct Server {
    shared: Arc<Shared>,
    accept: JoinHandle<()>,
    addr: SocketAddr,
}

impl Server {
    /// Binds, opens the cache, starts the worker pool and the accept
    /// loop, and returns immediately.
    pub fn start(config: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let cache = CacheStore::open(config.cache_path.as_deref(), scenario_schema_hash())?;
        let shared = Arc::new(Shared {
            pool: ServicePool::with_capacity(config.workers, config.queue_cap),
            cache,
            draining: AtomicBool::new(false),
            conns_open: Mutex::new(0),
            conn_closed: Condvar::new(),
            conns_accepted: AtomicU64::new(0),
            conns_rejected: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            addr,
        });
        if !config.quiet {
            println!(
                "rmm-serve listening on {addr} ({} workers, cache: {})",
                shared.pool.workers(),
                config
                    .cache_path
                    .as_deref()
                    .map_or("memory".to_string(), |p| p.display().to_string()),
            );
        }
        let max_conns = config.max_conns;
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(listener, shared, max_conns))
        };
        Ok(Server {
            shared,
            accept,
            addr,
        })
    }

    /// The address the server actually bound (resolves `:0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current metrics snapshot in Prometheus text format.
    pub fn metrics_text(&self) -> String {
        self.shared.metrics_text()
    }

    /// Starts a graceful drain: stop accepting connections and refuse
    /// new engine work. Idempotent.
    pub fn begin_shutdown(&self) {
        self.shared.begin_drain();
    }

    /// Waits for the drain to complete: accept loop exited, every
    /// connection closed, every in-flight job finished, workers joined.
    pub fn join(self) {
        let _ = self.accept.join();
        let mut open = self
            .shared
            .conns_open
            .lock()
            .expect("connection count poisoned");
        while *open > 0 {
            open = self
                .shared
                .conn_closed
                .wait(open)
                .expect("connection count poisoned");
        }
        drop(open);
        self.shared.pool.shutdown();
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>, max_conns: usize) {
    for stream in listener.incoming() {
        if shared.draining.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        // The writer hands the socket whole responses; Nagle's algorithm
        // would hold a response's tail until the client ACKs its head,
        // which a client with delayed ACKs does only after its timer.
        let _ = stream.set_nodelay(true);
        let over_cap = {
            let mut open = shared.conns_open.lock().expect("connection count poisoned");
            if *open >= max_conns {
                true
            } else {
                *open += 1;
                false
            }
        };
        if over_cap {
            shared.conns_rejected.fetch_add(1, Ordering::Relaxed);
            let mut stream = stream;
            let _ = writeln!(
                stream,
                "{}",
                encode(&Response::Error {
                    id: None,
                    message: format!("server at connection capacity ({max_conns})"),
                })
            );
            continue; // dropping the stream closes it
        }
        shared.conns_accepted.fetch_add(1, Ordering::Relaxed);
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || {
            handle_conn(stream, &shared);
            let mut open = shared.conns_open.lock().expect("connection count poisoned");
            *open -= 1;
            shared.conn_closed.notify_all();
        });
    }
}

/// Runs one connection to completion: spawns the writer, loops over
/// request lines, and on disconnect cancels whatever the client will
/// never read.
fn handle_conn(stream: TcpStream, shared: &Arc<Shared>) {
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let (out_tx, out_rx) = mpsc::channel::<String>();
    let writer = std::thread::spawn(move || writer_loop(write_half, out_rx));
    // Tickets of the jobs this connection may still cancel. Settled
    // ones are pruned each time the list doubles, so a long-lived
    // connection holds only its unsettled tickets, amortized O(1) each.
    let mut outstanding: Vec<JobTicket> = Vec::new();
    let mut prune_at = PRUNE_FLOOR;
    let mut reader = BufReader::new(stream);
    let mut line = Vec::new();
    loop {
        line.clear();
        let mut capped = (&mut reader).take(MAX_LINE_BYTES as u64 + 1);
        match capped.read_until(b'\n', &mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        if line.len() > MAX_LINE_BYTES {
            shared.errors.fetch_add(1, Ordering::Relaxed);
            let _ = out_tx.send(line_of(&Response::Error {
                id: None,
                message: format!("request line longer than {MAX_LINE_BYTES} bytes"),
            }));
            break;
        }
        let Ok(text) = std::str::from_utf8(&line) else {
            break;
        };
        let trimmed = text.trim();
        if trimmed.is_empty() {
            continue;
        }
        if trimmed.starts_with("GET ") {
            // Plain-HTTP scrape of the metrics endpoint: answer one
            // HTTP/1.0 response and close.
            let body = shared.metrics_text();
            let _ = out_tx.send(format!(
                "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}\n",
                body.len(),
                body
            ));
            break;
        }
        let request = match serde_json::from_str::<Request>(trimmed) {
            Ok(request) => request,
            Err(e) => {
                shared.errors.fetch_add(1, Ordering::Relaxed);
                let _ = out_tx.send(line_of(&Response::Error {
                    id: None,
                    message: format!("unparseable request: {e}"),
                }));
                continue;
            }
        };
        match request {
            Request::Ping => {
                let _ = out_tx.send(line_of(&Response::Pong {
                    version: PROTO_VERSION,
                }));
            }
            Request::Metrics => {
                let _ = out_tx.send(line_of(&Response::Metrics {
                    text: shared.metrics_text(),
                }));
            }
            Request::Shutdown => {
                let _ = out_tx.send(line_of(&Response::Draining));
                shared.begin_drain();
            }
            Request::Run(req) => {
                shared.requests.fetch_add(1, Ordering::Relaxed);
                if let Some(ticket) = serve_run(req, shared, &out_tx) {
                    outstanding.push(ticket);
                    if outstanding.len() >= prune_at {
                        outstanding.retain(|ticket| !ticket.is_settled());
                        prune_at = PRUNE_FLOOR.max(2 * outstanding.len());
                    }
                }
            }
        }
    }
    // The client is gone: queued jobs it will never read are cancelled
    // (running ones finish — cancellation is queue-removal). Dropping
    // our sender lets the writer drain and exit once the last in-flight
    // job drops its clone.
    for ticket in &outstanding {
        ticket.cancel();
    }
    drop(out_tx);
    let _ = writer.join();
}

/// Validates and serves one run request: cache hit replays inline, a
/// miss is scheduled on the pool (unless draining). Returns the
/// cancellation ticket of a scheduled job.
fn serve_run(
    req: RunRequest,
    shared: &Arc<Shared>,
    out_tx: &mpsc::Sender<String>,
) -> Option<JobTicket> {
    let id = req.id;
    let send_error = |message: String| {
        shared.errors.fetch_add(1, Ordering::Relaxed);
        let _ = out_tx.send(line_of(&Response::Error {
            id: Some(id),
            message,
        }));
    };
    let Some(protocol) = ProtocolKind::parse(&req.protocol) else {
        send_error(format!("unknown protocol {:?}", req.protocol));
        return None;
    };
    if req.scenario.n_nodes == 0 || req.scenario.n_runs == 0 {
        send_error("scenario needs n_nodes >= 1 and n_runs >= 1".into());
        return None;
    }
    if let Err(e) = req.scenario.faults.validate(req.scenario.n_nodes) {
        send_error(format!("invalid fault plan: {e}"));
        return None;
    }
    if let Err(e) = req.scenario.churn.validate(req.scenario.n_nodes) {
        send_error(format!("invalid churn plan: {e}"));
        return None;
    }
    if let Some(Err(e)) = req.scenario.mobility.map(|m| m.validate()) {
        send_error(format!("invalid mobility: {e}"));
        return None;
    }
    let key = cache_key(protocol, &req.scenario, req.seed, req.trace, req.profile);
    if let Some(bytes) = shared.cache.get_bytes(&key) {
        let _ = out_tx.send(bytes.render(id, true));
        return None;
    }
    if shared.draining.load(Ordering::SeqCst) {
        send_error("server is draining".into());
        return None;
    }
    let job_shared = Arc::clone(shared);
    let out_tx = out_tx.clone();
    Some(shared.pool.submit(move || {
        let cell = compute_cell(&req.scenario, protocol, req.seed, req.trace, req.profile);
        let bytes = Arc::new(CellBytes::of(&cell));
        job_shared
            .cache
            .put_bytes(&key, req.seed, Arc::clone(&bytes));
        let _ = out_tx.send(bytes.render(id, false));
    }))
}

/// One response line, newline included, as the writer takes it.
fn line_of(response: &Response) -> String {
    let mut line = encode(response);
    line.push('\n');
    line
}

/// Writes every response of one connection. Each message is one or
/// more whole lines, newlines included (a run's full response is one
/// message), so a response reaches the socket in as few writes as its
/// size allows. A dead socket drains the channel without writing, so
/// producers never block on it.
fn writer_loop(stream: TcpStream, out_rx: mpsc::Receiver<String>) {
    let mut out = std::io::BufWriter::new(stream);
    let mut broken = false;
    while let Ok(lines) = out_rx.recv() {
        if broken {
            continue;
        }
        if out.write_all(lines.as_bytes()).is_err() {
            broken = true;
            continue;
        }
        // Batch whatever is already queued before paying the flush.
        while let Ok(lines) = out_rx.try_recv() {
            if out.write_all(lines.as_bytes()).is_err() {
                broken = true;
                break;
            }
        }
        if !broken && out.flush().is_err() {
            broken = true;
        }
    }
}
