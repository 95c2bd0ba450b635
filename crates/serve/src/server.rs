//! The psi-serve server: per-connection reader threads feed an admission
//! queue; one batcher thread drains it per tick — round-robin across
//! connections — into [`IndexedTable::execute_batch_settled`].
//!
//! ## Admission control
//!
//! A request is **admitted** when it is decoded and both budgets have
//! room: the global in-flight cap (`max_inflight`) and the per-connection
//! cap (`max_inflight_per_conn`). A request over budget is **shed**
//! immediately with a typed `Overloaded` response — it never queues, so
//! a saturated server's queue length (and thus its tail latency) is
//! bounded by construction. The per-connection cap plus the batcher's
//! round-robin drain give fairness: one hot client can fill at most its
//! own slice of the global budget and is drained no faster than anyone
//! else.
//!
//! ## Invariants
//!
//! * **Exactly one response per request frame** — rows, a typed error,
//!   or `Overloaded`; enforced structurally (each decoded frame takes
//!   exactly one of the three paths, and a settled batch answers every
//!   slot, even panicked ones).
//! * **No panics on malformed input** — frames decode through the
//!   bounds-checked `MetaCursor`; a frame too garbled to carry an id is
//!   answered with [`UNKNOWN_ID`] and the connection closed (framing is
//!   lost), anything later is answered in place.
//! * **Backpressure, not buffering**: over-budget work is refused at the
//!   door. The server never holds more than
//!   `max_inflight + connections` decoded requests.

use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use psi_obs::{Counter, Gauge, Histogram, Registry, RingLog, Snapshot, Value};
use psi_query::{ConjunctiveQuery, IndexedTable, PlanTrace};

use crate::wire::{
    encode_error, encode_rows, read_frame, write_frame, FrameIn, WireError, MAX_REPLY_ROWS,
    UNKNOWN_ID,
};

/// Tuning knobs for [`Server::serve`].
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Most requests drained into one `execute_batch_settled` call.
    pub batch_window: usize,
    /// Global cap on admitted-but-unanswered requests.
    pub max_inflight: usize,
    /// Per-connection share of the in-flight budget.
    pub max_inflight_per_conn: usize,
    /// Largest accepted frame payload.
    pub max_frame_bytes: u32,
    /// Admission-to-response latency (nanoseconds) at or above which a
    /// request is recorded in the slow-query ring log.
    pub slow_query_ns: u64,
    /// Newest slow queries retained (`0` disables the ring).
    pub slow_log_capacity: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            batch_window: 32,
            max_inflight: 256,
            max_inflight_per_conn: 64,
            max_frame_bytes: crate::wire::MAX_FRAME_BYTES,
            slow_query_ns: 50_000_000,
            slow_log_capacity: 64,
        }
    }
}

/// A point-in-time read of the server's counters: the same instruments
/// the `serve/*` section of `STATS` ships.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeStats {
    /// Requests admitted past admission control.
    pub admitted: u64,
    /// Responses carrying rows.
    pub served_rows: u64,
    /// Responses carrying a typed execution error.
    pub served_errors: u64,
    /// Requests shed with `Overloaded`.
    pub shed: u64,
    /// Sheds caused by the global in-flight budget being full.
    pub shed_global: u64,
    /// Sheds caused by the offender's own per-connection cap
    /// (`shed == shed_global + shed_conn`).
    pub shed_conn: u64,
    /// Malformed frames answered with a protocol error.
    pub protocol_errors: u64,
    /// Ticks that executed at least one request.
    pub batches: u64,
    /// Largest single batch executed.
    pub max_batch: u64,
}

/// Per-connection admission totals, kept while the connection is open
/// (see [`Server::conn_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConnStats {
    /// Requests from this connection shed with `Overloaded`.
    pub shed: u64,
    /// Responses (rows or typed error) served to this connection.
    pub served: u64,
}

/// One slow request as retained by the ring log: everything needed to
/// explain the latency after the fact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlowQuery {
    /// Server-side connection id.
    pub conn: u64,
    /// Client-chosen request id.
    pub id: u64,
    /// Admission-to-response latency.
    pub elapsed_ns: u64,
    /// The executed plan — strategy, per-condition estimates vs.
    /// actuals, per-stage timings, blocks read, degraded fallbacks —
    /// when the request succeeded.
    pub trace: Option<PlanTrace>,
    /// The typed failure, when it did not.
    pub error: Option<String>,
}

/// The serve layer's own instruments, the one source of
/// [`Server::stats`] and the `serve/*` section of `STATS`. Owned per
/// server (not resolved from the global registry) so concurrent servers
/// in one process — the test suite, for instance — never bleed into each
/// other; they are injected into the [`Snapshot`] at `STATS` assembly
/// instead.
#[derive(Debug, Default)]
struct ServeObs {
    admitted: Counter,
    served_rows: Counter,
    served_errors: Counter,
    /// Sheds by cause; their sum is `serve/shed`.
    shed_global: Counter,
    shed_conn: Counter,
    protocol_errors: Counter,
    batches: Counter,
    /// Largest batch executed: a high-water mark, not a count.
    max_batch: AtomicU64,
    /// Requests queued for the batcher right now.
    queue_depth: Gauge,
    /// Requests per executed batch.
    batch_occupancy: Histogram,
    /// Admission-to-response latency per served request.
    request_ns: Histogram,
    /// Encoding one response frame, per response.
    encode_ns: Histogram,
    /// Writing one response frame to its connection, per response.
    write_ns: Histogram,
}

// ------------------------------------------------------------- transport

/// Either TCP or unix-domain; the protocol is transport-agnostic.
enum Listener {
    Tcp(TcpListener),
    Unix(UnixListener, PathBuf),
}

enum Stream {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Stream {
    fn try_clone(&self) -> io::Result<Stream> {
        Ok(match self {
            Stream::Tcp(s) => Stream::Tcp(s.try_clone()?),
            Stream::Unix(s) => Stream::Unix(s.try_clone()?),
        })
    }

    fn set_read_timeout(&self, d: Option<Duration>) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_read_timeout(d),
            Stream::Unix(s) => s.set_read_timeout(d),
        }
    }

    fn shutdown_both(&self) {
        let _ = match self {
            Stream::Tcp(s) => s.shutdown(std::net::Shutdown::Both),
            Stream::Unix(s) => s.shutdown(std::net::Shutdown::Both),
        };
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            Stream::Unix(s) => s.write(buf),
        }
    }
    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            Stream::Unix(s) => s.flush(),
        }
    }
}

// ----------------------------------------------------------- shared state

/// One admitted request waiting for the batcher.
struct Pending {
    conn: u64,
    id: u64,
    query: ConjunctiveQuery,
    /// Admission instant, for the request-latency histogram and the
    /// slow-query log.
    t0: Instant,
}

/// A connection's admission state.
struct ConnState {
    queue: VecDeque<Pending>,
    /// Admitted requests not yet answered (queued + executing).
    inflight: usize,
    /// Reader thread gone; entry removed once `inflight` drains to 0.
    closed: bool,
    /// Shed and served totals, updated under the inbox lock by
    /// admission and by the batcher; they end with the entry.
    totals: ConnStats,
    writer: Arc<Mutex<Stream>>,
}

#[derive(Default)]
struct Inbox {
    conns: HashMap<u64, ConnState>,
    /// Total queued (not yet drained) requests, for cheap emptiness.
    queued: usize,
    /// Total admitted (queued + executing), bounded by `max_inflight`.
    inflight: usize,
    /// Round-robin position: drain resumes after this connection id.
    rr_last: u64,
}

struct Shared {
    table: Arc<IndexedTable>,
    cfg: ServeConfig,
    shutdown: AtomicBool,
    /// Reader threads currently running — the batcher only exits once
    /// this reaches zero at shutdown, so every admitted request is
    /// answered even if it was queued in the shutdown window.
    active_readers: std::sync::atomic::AtomicUsize,
    inbox: Mutex<Inbox>,
    work: Condvar,
    obs: ServeObs,
    slow_log: RingLog<SlowQuery>,
}

impl Shared {
    fn stats(&self) -> ServeStats {
        let o = &self.obs;
        let (shed_global, shed_conn) = (o.shed_global.get(), o.shed_conn.get());
        ServeStats {
            admitted: o.admitted.get(),
            served_rows: o.served_rows.get(),
            served_errors: o.served_errors.get(),
            shed: shed_global + shed_conn,
            shed_global,
            shed_conn,
            protocol_errors: o.protocol_errors.get(),
            batches: o.batches.get(),
            max_batch: o.max_batch.load(Ordering::Relaxed),
        }
    }

    /// Totals of the connections still in the inbox (open, or owed
    /// responses) that were served or shed at least once, ascending.
    fn conn_stats(&self) -> Vec<(u64, ConnStats)> {
        let inbox = self.inbox.lock().expect("inbox");
        let mut out: Vec<(u64, ConnStats)> = inbox
            .conns
            .iter()
            .filter(|(_, c)| c.totals != ConnStats::default())
            .map(|(&id, c)| (id, c.totals))
            .collect();
        drop(inbox);
        out.sort_unstable_by_key(|&(id, _)| id);
        out
    }

    /// The full live-stats snapshot the `STATS` wire op ships: the
    /// global registry (pool, planner, WAL, scrubber) plus this
    /// server's own counters, gauges, histograms, the totals of its open
    /// connections, and the served table's quarantined-extent lists.
    fn snapshot(&self) -> Snapshot {
        let mut snap = Registry::global().snapshot();
        let s = self.stats();
        let o = &self.obs;
        for (name, value) in [
            ("serve/admitted", Value::Counter(s.admitted)),
            ("serve/served_rows", Value::Counter(s.served_rows)),
            ("serve/served_errors", Value::Counter(s.served_errors)),
            ("serve/shed", Value::Counter(s.shed)),
            ("serve/shed_global", Value::Counter(s.shed_global)),
            ("serve/shed_conn", Value::Counter(s.shed_conn)),
            ("serve/protocol_errors", Value::Counter(s.protocol_errors)),
            ("serve/batches", Value::Counter(s.batches)),
            ("serve/max_batch", Value::Counter(s.max_batch)),
            ("serve/queue_depth", Value::Gauge(o.queue_depth.get())),
            (
                "serve/batch_occupancy",
                Value::Histogram(o.batch_occupancy.snapshot()),
            ),
            (
                "serve/request_ns",
                Value::Histogram(o.request_ns.snapshot()),
            ),
            ("serve/encode_ns", Value::Histogram(o.encode_ns.snapshot())),
            ("serve/write_ns", Value::Histogram(o.write_ns.snapshot())),
            (
                "serve/slow_queries",
                Value::Counter(self.slow_log.len() as u64),
            ),
            (
                "serve/slow_queries_evicted",
                Value::Counter(self.slow_log.dropped()),
            ),
        ] {
            snap.set(name, value);
        }
        for (conn, cs) in self.conn_stats() {
            snap.set(&format!("serve/conn/{conn}/shed"), Value::Counter(cs.shed));
            snap.set(
                &format!("serve/conn/{conn}/served"),
                Value::Counter(cs.served),
            );
        }
        for (attr, extents) in self.table.quarantine_snapshot() {
            snap.set(
                &format!("quarantine/{attr}"),
                Value::List(extents.into_iter().map(u64::from).collect()),
            );
        }
        snap
    }
}

// ---------------------------------------------------------------- server

/// A running query server; dropping without [`Server::shutdown`] also
/// shuts down cleanly.
pub struct Server {
    shared: Arc<Shared>,
    listener_poke: Poke,
    accept: Option<std::thread::JoinHandle<()>>,
    batcher: Option<std::thread::JoinHandle<()>>,
    readers: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
    tcp_addr: Option<SocketAddr>,
}

/// How to unblock the accept loop at shutdown.
enum Poke {
    Tcp(SocketAddr),
    Unix(PathBuf),
}

impl Server {
    /// Binds a TCP listener on `127.0.0.1` (ephemeral port — read it back
    /// with [`Server::addr`]) and serves `table` until shutdown.
    pub fn serve(table: Arc<IndexedTable>, cfg: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        Self::run(
            table,
            cfg,
            Listener::Tcp(listener),
            Poke::Tcp(addr),
            Some(addr),
        )
    }

    /// Binds a unix-domain socket at `path` and serves `table`.
    pub fn serve_unix(
        table: Arc<IndexedTable>,
        cfg: ServeConfig,
        path: impl AsRef<Path>,
    ) -> io::Result<Server> {
        let path = path.as_ref().to_path_buf();
        let _ = std::fs::remove_file(&path);
        let listener = UnixListener::bind(&path)?;
        Self::run(
            table,
            cfg,
            Listener::Unix(listener, path.clone()),
            Poke::Unix(path),
            None,
        )
    }

    fn run(
        table: Arc<IndexedTable>,
        cfg: ServeConfig,
        listener: Listener,
        listener_poke: Poke,
        tcp_addr: Option<SocketAddr>,
    ) -> io::Result<Server> {
        // The `kernel/*` counters (which decode/intersect paths ran) live
        // in the global registry; resolving them here lists every one in
        // STATS even before the first query has run a kernel.
        psi_bits::kernel::metrics();
        let shared = Arc::new(Shared {
            table,
            cfg,
            shutdown: AtomicBool::new(false),
            active_readers: std::sync::atomic::AtomicUsize::new(0),
            inbox: Mutex::new(Inbox::default()),
            work: Condvar::new(),
            obs: ServeObs::default(),
            slow_log: RingLog::new(cfg.slow_log_capacity),
        });
        let readers: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>> =
            Arc::new(Mutex::new(Vec::new()));
        let accept = {
            let shared = Arc::clone(&shared);
            let readers = Arc::clone(&readers);
            std::thread::Builder::new()
                .name("psi-serve-accept".into())
                .spawn(move || accept_loop(listener, shared, readers))?
        };
        let batcher = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("psi-serve-batch".into())
                .spawn(move || batch_loop(shared))?
        };
        Ok(Server {
            shared,
            listener_poke,
            accept: Some(accept),
            batcher: Some(batcher),
            readers,
            tcp_addr,
        })
    }

    /// The TCP address being served (`None` for unix-domain servers).
    pub fn addr(&self) -> Option<SocketAddr> {
        self.tcp_addr
    }

    /// The server's counters now.
    pub fn stats(&self) -> ServeStats {
        self.shared.stats()
    }

    /// The same live metrics snapshot a `STATS` wire request returns —
    /// global registry plus this server's injected `serve/*` and
    /// `quarantine/*` entries.
    pub fn snapshot(&self) -> Snapshot {
        self.shared.snapshot()
    }

    /// Shed/served totals per connection id, ascending, for the
    /// connections that are open (or still owed responses) and were
    /// served or shed at least once. A connection's totals end with it;
    /// `stats()` keeps the server-wide sums.
    pub fn conn_stats(&self) -> Vec<(u64, ConnStats)> {
        self.shared.conn_stats()
    }

    /// The retained slow queries, oldest first.
    pub fn slow_queries(&self) -> Vec<SlowQuery> {
        self.shared.slow_log.snapshot()
    }

    /// Stops accepting, drains admitted work, joins every thread, and
    /// returns the final counters. Connected clients see EOF.
    pub fn shutdown(mut self) -> ServeStats {
        self.shutdown_inner();
        self.shared.stats()
    }

    fn shutdown_inner(&mut self) {
        if self.shared.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock accept with a throwaway connection; once it joins, no
        // new reader threads can appear.
        match &self.listener_poke {
            Poke::Tcp(addr) => drop(TcpStream::connect(addr)),
            Poke::Unix(path) => drop(UnixStream::connect(path)),
        }
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        // Readers first: each notices the flag within one read timeout,
        // finishing any admission in progress — only then may the
        // batcher see a finally-empty queue and exit.
        let handles: Vec<_> = std::mem::take(&mut *self.readers.lock().expect("readers"));
        for h in handles {
            let _ = h.join();
        }
        self.shared.work.notify_all();
        if let Some(h) = self.batcher.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

// ---------------------------------------------------------- accept loop

fn accept_loop(
    listener: Listener,
    shared: Arc<Shared>,
    readers: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
) {
    let mut next_conn: u64 = 1;
    loop {
        let stream = match &listener {
            // Nodelay on the server side too: response frames are small,
            // and Nagle + delayed ACK otherwise stalls a pipelined client
            // ~40ms per round (E19's closed loop hit exactly that wall).
            Listener::Tcp(l) => l.accept().map(|(s, _)| {
                let _ = s.set_nodelay(true);
                Stream::Tcp(s)
            }),
            Listener::Unix(l, _) => l.accept().map(|(s, _)| Stream::Unix(s)),
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let conn_id = next_conn;
        next_conn += 1;
        let shared = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name(format!("psi-serve-conn-{conn_id}"))
            .spawn(move || connection_loop(conn_id, stream, shared));
        if let Ok(h) = handle {
            // Join the readers that have exited (which does not block), so
            // the server holds one handle per live connection, not one per
            // connection ever accepted; shutdown joins the rest.
            let mut readers = readers.lock().expect("readers");
            for done in readers.extract_if(.., |r| r.is_finished()) {
                let _ = done.join();
            }
            readers.push(h);
        }
    }
    if let Listener::Unix(_, path) = listener {
        let _ = std::fs::remove_file(path);
    }
}

// ------------------------------------------------------ connection loop

/// Reads frames until EOF/shutdown. Every decoded frame is answered by
/// exactly one of: queue for the batcher (admitted), `Overloaded`
/// (shed), or a protocol error (malformed).
fn connection_loop(conn_id: u64, stream: Stream, shared: Arc<Shared>) {
    let writer = match stream.try_clone() {
        Ok(w) => Arc::new(Mutex::new(w)),
        Err(_) => return,
    };
    shared.active_readers.fetch_add(1, Ordering::SeqCst);
    // Decrements even if the loop below panics (it must not, but the
    // batcher's exit condition cannot hinge on that).
    struct ReaderGuard<'a>(&'a Shared);
    impl Drop for ReaderGuard<'_> {
        fn drop(&mut self) {
            self.0.active_readers.fetch_sub(1, Ordering::SeqCst);
            self.0.work.notify_all();
        }
    }
    let _guard = ReaderGuard(&shared);
    // Short read timeouts let the reader poll the shutdown flag without
    // losing stream sync (partial reads are resumed below).
    let _ = stream.set_read_timeout(Some(Duration::from_millis(25)));
    shared.inbox.lock().expect("inbox").conns.insert(
        conn_id,
        ConnState {
            queue: VecDeque::new(),
            inflight: 0,
            closed: false,
            totals: ConnStats::default(),
            writer: Arc::clone(&writer),
        },
    );

    let mut reader = stream;
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        // `read_frame` with a resumable fill: a timeout mid-buffer keeps
        // the bytes already read and re-checks the shutdown flag.
        let fill = |buf: &mut [u8], eof_ok: bool| -> io::Result<bool> {
            let mut filled = 0;
            while filled < buf.len() {
                match reader.read(&mut buf[filled..]) {
                    Ok(0) => {
                        if eof_ok && filled == 0 {
                            return Ok(false);
                        }
                        return Err(io::Error::new(
                            io::ErrorKind::UnexpectedEof,
                            "peer closed mid-frame",
                        ));
                    }
                    Ok(n) => filled += n,
                    Err(e)
                        if e.kind() == io::ErrorKind::WouldBlock
                            || e.kind() == io::ErrorKind::TimedOut =>
                    {
                        if shared.shutdown.load(Ordering::SeqCst) {
                            return Err(io::Error::new(
                                io::ErrorKind::ConnectionAborted,
                                "server shutting down",
                            ));
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(e),
                }
            }
            Ok(true)
        };
        let payload = match read_frame(fill, shared.cfg.max_frame_bytes) {
            Ok(FrameIn::Payload(p)) => p,
            Ok(FrameIn::Closed) => break,
            Ok(FrameIn::TooLarge(len)) => {
                // Framing is gone (we refused to read the body): answer
                // typed, then close.
                shared.obs.protocol_errors.inc();
                let err = WireError::protocol(format!(
                    "frame of {len} bytes exceeds cap {}",
                    shared.cfg.max_frame_bytes
                ));
                send(&writer, &encode_error(UNKNOWN_ID, &err));
                break;
            }
            Err(_) => break,
        };
        // STATS frames are answered inline, right here on the reader
        // thread: they bypass admission control and batching, so a
        // saturated (or even fully shedding) server still answers its
        // operator.
        if payload.first() == Some(&crate::wire::MSG_STATS) {
            match crate::wire::decode_stats_request(&payload) {
                Ok(id) => {
                    let reply = crate::wire::encode_stats_reply(id, &shared.snapshot());
                    send(&writer, &reply);
                }
                Err((id, err)) => {
                    shared.obs.protocol_errors.inc();
                    send(&writer, &encode_error(id, &err));
                }
            }
            continue;
        }
        match crate::wire::decode_request(&payload) {
            Ok(req) => admit(conn_id, req.id, req.query, &writer, &shared),
            Err((id, err)) => {
                shared.obs.protocol_errors.inc();
                send(&writer, &encode_error(id, &err));
                if id == UNKNOWN_ID {
                    // Could not even parse the header — close rather than
                    // risk misattributing later frames.
                    break;
                }
            }
        }
    }

    // Hand the entry's fate to the batcher if it still owes responses.
    let mut inbox = shared.inbox.lock().expect("inbox");
    if let Some(cs) = inbox.conns.get_mut(&conn_id) {
        cs.closed = true;
        if cs.inflight == 0 {
            inbox.conns.remove(&conn_id);
        }
    }
    drop(inbox);
    writer.lock().expect("writer").shutdown_both();
}

/// Admission control: shed over budget, queue otherwise.
fn admit(
    conn_id: u64,
    id: u64,
    query: ConjunctiveQuery,
    writer: &Arc<Mutex<Stream>>,
    shared: &Shared,
) {
    let t0 = Instant::now();
    let mut inbox = shared.inbox.lock().expect("inbox");
    let global_full = inbox.inflight >= shared.cfg.max_inflight;
    let Some(cs) = inbox.conns.get_mut(&conn_id) else {
        return;
    };
    if global_full || cs.inflight >= shared.cfg.max_inflight_per_conn {
        cs.totals.shed += 1;
        drop(inbox);
        // Causes are disjoint: the global budget is checked first, so a
        // request over both caps is accounted a global shed.
        if global_full {
            shared.obs.shed_global.inc();
        } else {
            shared.obs.shed_conn.inc();
        }
        send(writer, &encode_error(id, &WireError::overloaded()));
        return;
    }
    cs.inflight += 1;
    cs.queue.push_back(Pending {
        conn: conn_id,
        id,
        query,
        t0,
    });
    inbox.inflight += 1;
    inbox.queued += 1;
    shared.obs.queue_depth.set(inbox.queued as i64);
    shared.obs.admitted.inc();
    drop(inbox);
    shared.work.notify_one();
}

/// Writes one frame, swallowing errors (the peer may be gone — its
/// requests still settle, the responses just have nowhere to go).
fn send(writer: &Arc<Mutex<Stream>>, payload: &[u8]) {
    let mut w = writer.lock().expect("writer");
    let _ = write_frame(&mut *w, payload);
}

// ---------------------------------------------------------- batch loop

/// Drains up to `batch_window` requests per tick — round-robin across
/// connections — executes them as one settled batch, and answers each
/// slot.
fn batch_loop(shared: Arc<Shared>) {
    // One executor thread per batch. On a 2-vCPU host, running batches on
    // both cores bought +20% closed-loop qps for +27–35% peak RSS
    // (DESIGN.md, "Server architecture").
    const EXEC_THREADS: usize = 1;
    loop {
        let mut inbox = shared.inbox.lock().expect("inbox");
        while inbox.queued == 0 {
            if shared.shutdown.load(Ordering::SeqCst)
                && shared.active_readers.load(Ordering::SeqCst) == 0
            {
                return;
            }
            let (guard, _) = shared
                .work
                .wait_timeout(inbox, Duration::from_millis(25))
                .expect("inbox");
            inbox = guard;
        }
        let batch = drain_fair(&mut inbox, shared.cfg.batch_window);
        shared.obs.queue_depth.set(inbox.queued as i64);
        let writers: Vec<Arc<Mutex<Stream>>> = batch
            .iter()
            .map(|p| Arc::clone(&inbox.conns[&p.conn].writer))
            .collect();
        drop(inbox);

        let queries: Vec<ConjunctiveQuery> = batch.iter().map(|p| p.query.clone()).collect();
        let settled = shared.table.execute_batch_settled(&queries, EXEC_THREADS);
        let obs = &shared.obs;
        obs.batches.inc();
        obs.max_batch
            .fetch_max(batch.len() as u64, Ordering::Relaxed);
        obs.batch_occupancy.record(batch.len() as u64);

        for ((p, result), writer) in batch.iter().zip(&settled).zip(&writers) {
            let encode_start = Instant::now();
            let payload = match result {
                // Refused here, not after the client has read it: a
                // client expands at most `MAX_REPLY_ROWS` from one frame.
                Ok(outcome) if outcome.rows.cardinality() > MAX_REPLY_ROWS => {
                    obs.served_errors.inc();
                    let rows = outcome.rows.cardinality();
                    encode_error(p.id, &WireError::answer_too_large(rows))
                }
                Ok(outcome) => {
                    obs.served_rows.inc();
                    encode_rows(p.id, outcome)
                }
                Err(e) => {
                    obs.served_errors.inc();
                    encode_error(p.id, &WireError::from(e))
                }
            };
            let encoded = Instant::now();
            send(writer, &payload);
            obs.encode_ns
                .record(encoded.duration_since(encode_start).as_nanos() as u64);
            obs.write_ns.record_since(encoded);
            let elapsed_ns = p.t0.elapsed().as_nanos() as u64;
            obs.request_ns.record(elapsed_ns);
            if elapsed_ns >= shared.cfg.slow_query_ns {
                shared.slow_log.push(SlowQuery {
                    conn: p.conn,
                    id: p.id,
                    elapsed_ns,
                    trace: result.as_ref().ok().map(|o| o.trace.clone()),
                    error: result.as_ref().err().map(|e| e.to_string()),
                });
            }
        }

        // Release the in-flight budget only after the responses went out
        // (admission counts queued + executing), and count them to their
        // connections under the same lock.
        let mut inbox = shared.inbox.lock().expect("inbox");
        for p in &batch {
            inbox.inflight -= 1;
            if let Some(cs) = inbox.conns.get_mut(&p.conn) {
                cs.inflight -= 1;
                cs.totals.served += 1;
                if cs.closed && cs.inflight == 0 {
                    inbox.conns.remove(&p.conn);
                }
            }
        }
    }
}

/// Pops up to `window` pending requests, one per connection per round,
/// resuming after the connection the previous tick ended on.
fn drain_fair(inbox: &mut Inbox, window: usize) -> Vec<Pending> {
    let mut ids: Vec<u64> = inbox
        .conns
        .iter()
        .filter(|(_, c)| !c.queue.is_empty())
        .map(|(&id, _)| id)
        .collect();
    ids.sort_unstable();
    if ids.is_empty() {
        return Vec::new();
    }
    // Rotate so the first candidate is the lowest id after `rr_last`.
    let start = ids.partition_point(|&id| id <= inbox.rr_last) % ids.len();
    ids.rotate_left(start);
    let mut out = Vec::with_capacity(window.min(inbox.queued));
    'outer: loop {
        let mut any = false;
        for &id in &ids {
            let cs = inbox.conns.get_mut(&id).expect("listed conn");
            if let Some(p) = cs.queue.pop_front() {
                inbox.queued -= 1;
                inbox.rr_last = id;
                out.push(p);
                any = true;
                if out.len() >= window {
                    break 'outer;
                }
            }
        }
        if !any {
            break;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pending(conn: u64, id: u64) -> Pending {
        Pending {
            conn,
            id,
            query: ConjunctiveQuery {
                conditions: Vec::new(),
            },
            t0: Instant::now(),
        }
    }

    fn inbox_with(queues: &[(u64, &[u64])]) -> Inbox {
        let mut inbox = Inbox::default();
        for &(conn, ids) in queues {
            let queue: VecDeque<Pending> = ids.iter().map(|&id| pending(conn, id)).collect();
            inbox.queued += queue.len();
            inbox.inflight += queue.len();
            inbox.conns.insert(
                conn,
                ConnState {
                    inflight: queue.len(),
                    queue,
                    closed: false,
                    totals: ConnStats::default(),
                    writer: Arc::new(Mutex::new(Stream::Tcp(loopback_stream()))),
                },
            );
        }
        inbox
    }

    /// A connected-to-nowhere-in-particular TCP stream for tests.
    fn loopback_stream() -> TcpStream {
        let l = TcpListener::bind(("127.0.0.1", 0)).expect("bind");
        let s = TcpStream::connect(l.local_addr().expect("addr")).expect("connect");
        let _ = l.accept();
        s
    }

    #[test]
    fn drain_round_robins_across_connections() {
        let mut inbox = inbox_with(&[(1, &[10, 11, 12]), (2, &[20]), (3, &[30, 31])]);
        let got: Vec<(u64, u64)> = drain_fair(&mut inbox, 6)
            .iter()
            .map(|p| (p.conn, p.id))
            .collect();
        // One per connection per round: a 3-deep queue cannot starve the
        // 1-deep ones.
        assert_eq!(
            got,
            vec![(1, 10), (2, 20), (3, 30), (1, 11), (3, 31), (1, 12)]
        );
        assert_eq!(inbox.queued, 0);
    }

    #[test]
    fn drain_resumes_after_previous_position() {
        let mut inbox = inbox_with(&[(1, &[10, 11]), (2, &[20, 21]), (3, &[30, 31])]);
        let first: Vec<u64> = drain_fair(&mut inbox, 2).iter().map(|p| p.conn).collect();
        assert_eq!(first, vec![1, 2]);
        // The window cut mid-round at conn 2 — the next tick starts at 3.
        let second: Vec<u64> = drain_fair(&mut inbox, 2).iter().map(|p| p.conn).collect();
        assert_eq!(second, vec![3, 1]);
        let third: Vec<u64> = drain_fair(&mut inbox, 4).iter().map(|p| p.conn).collect();
        assert_eq!(third, vec![2, 3]);
    }

    #[test]
    fn drain_respects_window() {
        let mut inbox = inbox_with(&[(1, &[10, 11, 12, 13])]);
        assert_eq!(drain_fair(&mut inbox, 3).len(), 3);
        assert_eq!(inbox.queued, 1);
    }

    /// A server over one small column `v` with values 0..4.
    fn live_server() -> Server {
        let v: Vec<u32> = (0..256u32).map(|i| i % 4).collect();
        let index = psi_core::OptimalIndex::build(&v, 4, psi_io::IoConfig::with_block_bits(512));
        let table = IndexedTable::from_columns(vec![psi_query::IndexedColumn {
            name: "v".into(),
            sigma: 4,
            index: Box::new(index),
        }]);
        Server::serve(Arc::new(table), ServeConfig::default()).expect("serve")
    }

    fn point(v: u32) -> ConjunctiveQuery {
        psi_query::Predicate::point("v", v)
            .normalize()
            .expect("normalize")
    }

    /// Polls until `cond` holds, for at most five seconds.
    fn wait_for(what: &str, mut cond: impl FnMut() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while !cond() {
            assert!(Instant::now() < deadline, "timed out waiting: {what}");
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    #[test]
    fn finished_readers_are_reaped_as_connections_arrive() {
        let server = live_server();
        let addr = server.addr().expect("tcp addr");
        for conn in 1..=20u64 {
            let mut client = crate::Client::connect(addr).expect("connect");
            client
                .call(conn, &point(1))
                .expect("call")
                .body
                .expect("rows");
            drop(client);
            // Connection ids count up from 1, and a reader thread is named
            // after its connection.
            let name = format!("psi-serve-conn-{conn}");
            wait_for(&name, || {
                server
                    .readers
                    .lock()
                    .expect("readers")
                    .iter()
                    .any(|h| h.thread().name() == Some(name.as_str()) && h.is_finished())
            });
        }
        let held = server.readers.lock().expect("readers").len();
        assert!(
            held <= 1,
            "{held} reader handles held after 20 closed connections"
        );
        server.shutdown();
    }

    #[test]
    fn connection_totals_end_with_their_connection() {
        const CLIENTS: u64 = 4;
        const CALLS: u64 = 5;
        let server = live_server();
        let addr = server.addr().expect("tcp addr");
        let mut clients: Vec<crate::Client> = (0..CLIENTS)
            .map(|_| crate::Client::connect(addr).expect("connect"))
            .collect();
        for client in &mut clients {
            for id in 0..CALLS {
                client
                    .call(id, &point(2))
                    .expect("call")
                    .body
                    .expect("rows");
            }
        }
        wait_for("every response counted to its connection", || {
            server
                .conn_stats()
                .iter()
                .map(|(_, c)| c.served)
                .sum::<u64>()
                == CLIENTS * CALLS
        });
        assert_eq!(server.conn_stats().len() as u64, CLIENTS);

        drop(clients);
        wait_for("closed connections forgotten", || {
            server.conn_stats().is_empty()
        });
        let mut operator = crate::Client::connect(addr).expect("connect");
        let snap = operator.stats(1).expect("stats");
        let conn_entries: Vec<&str> = snap
            .entries
            .iter()
            .map(|(name, _)| name.as_str())
            .filter(|name| name.starts_with("serve/conn/"))
            .collect();
        assert!(conn_entries.is_empty(), "{conn_entries:?}");
        assert_eq!(snap.counter("serve/served_rows"), Some(CLIENTS * CALLS));
        assert_eq!(server.stats().served_rows, CLIENTS * CALLS);
        drop(operator);
        server.shutdown();
    }
}
