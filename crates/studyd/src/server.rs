//! The server: accept loop, per-connection reader threads, and the
//! worker pool draining the shared job queue into
//! [`simcore::Study::serve`].
//!
//! ## Threading
//!
//! One thread accepts connections (non-blocking, polling the shutdown
//! flag), one short-lived thread per connection reads request lines, and
//! a fixed pool of workers — fanned out through
//! [`simcore::parallel::map_ordered`], the workspace's single
//! thread-spawning primitive — executes jobs. The [`simcore::Study`]
//! inside the server runs with one engine thread: parallelism comes from
//! the pool, so concurrent requests interleave at job granularity while
//! each individual run stays deterministic.
//!
//! ## Cancellation
//!
//! Each connection carries a cancellation flag. A read *error* (reset,
//! protocol-level corruption) or a failed response write sets it, and
//! workers skip still-queued jobs from that connection. A clean EOF —
//! including a half-closed socket whose client shut down only its write
//! side — does **not** cancel: responses to everything already accepted
//! are still written, so `pipelined-requests; shutdown(WR); read replies`
//! is a supported client pattern.
//!
//! ## Shutdown
//!
//! [`Server::shutdown`] stops the accept loop, closes the queue (new
//! submissions are refused as shutting-down), waits for the workers to
//! drain every accepted job — each one still gets its response — and
//! returns the final [`StatsReport`].

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::{Arc, PoisonError};

// Under `model-check` the sync primitives come from the interleave
// checker; they delegate to std outside a checker run, so the swap is
// behaviorally inert (the default build does not compile it at all).
#[cfg(feature = "model-check")]
use interleave::sync::{atomic::AtomicBool, Mutex, MutexGuard};
#[cfg(not(feature = "model-check"))]
use std::sync::{atomic::AtomicBool, Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};

use simcore::{RequestKind, Study, StudyConfig, StudyRequest};

use crate::protocol::{self, Envelope, WireRequest, MAX_LINE_BYTES, RETRY_AFTER_MS};
use crate::queue::{JobQueue, PushError};
use crate::stats::{ServerStats, StatsReport};

/// How often blocked reads and the accept loop wake to check the
/// shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(50);

/// Server construction knobs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerConfig {
    /// Bind address. Port 0 picks an ephemeral port; read it back with
    /// [`Server::local_addr`].
    pub addr: String,
    /// Worker-pool size (≥ 1).
    pub workers: usize,
    /// Job-queue capacity (≥ 1); beyond it, requests get `busy`.
    pub queue_capacity: usize,
    /// Directory of the persistent run store, if any. When set, the
    /// server's study attaches a [`simcore::RunStore`] tier below its
    /// in-memory cache: timing runs persist across restarts, and a warm
    /// store serves repeat requests with zero simulator executions.
    pub store_path: Option<String>,
    /// Static fleet peer list (`host:port` each). When non-empty, the
    /// study attaches a [`fleet::FleetTier`] below the disk tier: a
    /// recall missing both memory and disk asks each peer in order and
    /// only computes when the whole fleet misses. Remote records pass
    /// the same read-back verification as local ones. The server also
    /// *serves* fleet requests whenever a store is attached, peers or
    /// not.
    pub peers: Vec<String>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: simcore::default_threads(),
            queue_capacity: 64,
            store_path: None,
            peers: Vec::new(),
        }
    }
}

/// See [`queue::lock`](crate::queue): the guarded state is never torn,
/// so a poisoned writer mutex only means some peer thread panicked.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Shared per-connection state: the response writer and the cancellation
/// flag. Jobs hold an `Arc` so responses outlive the reader thread.
struct Conn {
    writer: Mutex<TcpStream>,
    cancelled: AtomicBool,
}

impl Conn {
    /// Writes one already-rendered response line; on failure marks the
    /// connection cancelled so queued siblings are skipped.
    fn write_line(&self, line: &str) -> bool {
        let mut writer = lock(&self.writer);
        self.write_locked(&mut writer, line)
    }

    /// [`Conn::write_line`] through a writer the caller has locked, so it
    /// can count the outcome, or render the line, before another line
    /// goes out on this connection.
    fn write_locked(&self, writer: &mut TcpStream, line: &str) -> bool {
        // lint: allow(no-sleep-while-locked): the writer mutex exists to
        // make whole-line writes atomic; holding it across the write IS
        // the serialization, and each line is small and bounded.
        let ok = writer
            .write_all(line.as_bytes())
            .and_then(|()| writer.flush())
            .is_ok();
        if !ok {
            self.cancelled.store(true, Ordering::Relaxed);
        }
        ok
    }
}

/// One queued unit of work: the request, plus the connection and
/// correlation id its reply line goes to.
struct Job {
    kind: RequestKind,
    request: StudyRequest,
    conn: Arc<Conn>,
    id: u64,
}

/// State shared by every thread of one server.
struct Shared {
    study: Study,
    queue: JobQueue<Job>,
    stats: ServerStats,
    shutdown: AtomicBool,
    /// The run store, when one is attached — the same instance the
    /// study's disk tier uses, held here so fleet recalls can serve raw
    /// record bytes from it inline.
    store: Option<Arc<simcore::RunStore>>,
    /// The outbound fleet tier, when peers are configured; here for its
    /// counters in [`Shared::report`].
    fleet: Option<Arc<fleet::FleetTier>>,
    /// Seeded lost-reply bug (CI negative smoke): set once the server
    /// has dropped its first response.
    #[cfg(mutant = "dropped-response-bug")]
    dropped_one: AtomicBool,
}

impl Shared {
    /// A full observability snapshot.
    fn report(&self) -> StatsReport {
        self.stats.report(
            self.queue.depth(),
            self.study.cache().counters(),
            self.study.store_counters(),
            self.fleet.as_ref().map(|tier| tier.counters()),
        )
    }

    /// Queues a study job, translating queue refusals into counters.
    fn submit(&self, job: Job) -> Result<(), PushError> {
        match self.queue.try_push(job) {
            Ok(()) => {
                self.stats.accepted.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            Err(e) => {
                if matches!(e, PushError::Full { .. }) {
                    self.stats.rejected_busy.fetch_add(1, Ordering::Relaxed);
                }
                Err(e)
            }
        }
    }
}

/// A running study server. Dropping it signals shutdown but does not
/// wait; call [`Server::shutdown`] for the drained-and-joined exit.
pub struct Server {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    accept: Option<thread::JoinHandle<()>>,
    pool: Option<thread::JoinHandle<()>>,
}

impl Server {
    /// Binds, spawns the accept loop and the worker pool, and returns.
    ///
    /// # Errors
    ///
    /// Returns [`io::Error`] if the listener cannot bind.
    pub fn start(study_cfg: StudyConfig, cfg: &ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(cfg.addr.as_str())?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        // One engine thread per worker: the pool is the parallelism.
        let mut study = Study::with_threads(study_cfg, 1);
        let store = match &cfg.store_path {
            Some(path) => {
                let store = Arc::new(simcore::RunStore::open(path)?);
                study.attach_store(Arc::clone(&store));
                Some(store)
            }
            None => None,
        };
        let fleet_tier = if cfg.peers.is_empty() {
            None
        } else {
            let tier = Arc::new(fleet::FleetTier::new(cfg.peers.iter().cloned()));
            study.attach_fleet(Arc::clone(&tier) as Arc<dyn simcore::RemoteTier>);
            Some(tier)
        };
        let shared = Arc::new(Shared {
            study,
            queue: JobQueue::new(cfg.queue_capacity),
            stats: ServerStats::new(),
            shutdown: AtomicBool::new(false),
            store,
            fleet: fleet_tier,
            #[cfg(mutant = "dropped-response-bug")]
            dropped_one: AtomicBool::new(false),
        });
        let workers = cfg.workers.max(1);
        let pool = {
            let shared = Arc::clone(&shared);
            thread::spawn(move || run_pool(&shared, workers))
        };
        let accept = {
            let shared = Arc::clone(&shared);
            thread::spawn(move || accept_loop(&shared, &listener))
        };
        Ok(Server {
            shared,
            local_addr,
            accept: Some(accept),
            pool: Some(pool),
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The server's study (e.g. to compare served responses against
    /// direct engine calls over the very same cache).
    pub fn study(&self) -> &Study {
        &self.shared.study
    }

    /// A live observability snapshot.
    pub fn stats_report(&self) -> StatsReport {
        self.shared.report()
    }

    /// Graceful shutdown: stop accepting, refuse new submissions, drain
    /// and answer every queued job, join the pool, and return the final
    /// stats.
    pub fn shutdown(mut self) -> StatsReport {
        self.shared.shutdown.store(true, Ordering::Relaxed);
        self.shared.queue.close();
        if let Some(handle) = self.pool.take() {
            let _ = handle.join();
        }
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        // Make every write-behind spill durable before reporting: a
        // process restarted on the same store path must see every run
        // this server computed.
        self.shared.study.flush_store();
        self.shared.report()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Relaxed);
        self.shared.queue.close();
    }
}

/// Fans `workers` loops out through the workspace's one ordered-map
/// primitive; returns when the queue is closed and drained.
fn run_pool(shared: &Shared, workers: usize) {
    let seats: Vec<usize> = (0..workers).collect();
    let _ = simcore::parallel::map_ordered(workers, &seats, |_seat| -> Result<(), ()> {
        worker_loop(shared);
        Ok(())
    });
}

fn worker_loop(shared: &Shared) {
    while let Some(job) = shared.queue.pop() {
        if job.conn.cancelled.load(Ordering::Relaxed) {
            shared.stats.cancelled.fetch_add(1, Ordering::Relaxed);
            continue;
        }
        shared.stats.in_flight.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let outcome = shared.study.serve(&job.request);
        shared.stats.record_latency(job.kind, start.elapsed());
        shared.stats.in_flight.fetch_sub(1, Ordering::Relaxed);
        let line = match &outcome {
            Ok(response) => protocol::ok_line(job.id, response),
            Err(e) => protocol::err_line(job.id, &e.to_string()),
        };
        // Counted before the writer unlocks: a `stats` reply this
        // connection asks for after reading the line counts it too.
        let mut writer = lock(&job.conn.writer);
        #[cfg(not(mutant = "dropped-response-bug"))]
        let delivered = job.conn.write_locked(&mut writer, &line);
        // Seeded bug for the CI negative smoke: the first job each server
        // serves "forgets" to write its response yet counts it delivered.
        // The delivery test must turn this into a failure.
        #[cfg(mutant = "dropped-response-bug")]
        let delivered = !shared.dropped_one.swap(true, Ordering::SeqCst)
            || job.conn.write_locked(&mut writer, &line);
        let counter = match (delivered, &outcome) {
            (false, _) => &shared.stats.undelivered,
            (true, Ok(_)) => &shared.stats.completed,
            (true, Err(_)) => &shared.stats.failed,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        drop(writer);
    }
}

fn accept_loop(shared: &Arc<Shared>, listener: &TcpListener) {
    loop {
        if shared.shutdown.load(Ordering::Relaxed) {
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                let shared = Arc::clone(shared);
                thread::spawn(move || handle_connection(&shared, stream));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => thread::sleep(POLL_INTERVAL),
            Err(_) => return,
        }
    }
}

/// What one bounded line read produced.
enum ReadOutcome {
    /// A complete line (terminator stripped).
    Line(String),
    /// Clean end of stream (possibly after a final unterminated line,
    /// which is processed first).
    Eof,
    /// Read timeout with no complete line yet; poll shutdown and retry.
    Idle,
    /// The line exceeded [`MAX_LINE_BYTES`].
    Oversized,
    /// A hard transport error; the connection is dead.
    Dead,
}

/// Reads towards the next LF with the connection's read timeout as the
/// polling clock. Partial data accumulates in `buf` across calls, and
/// never past one byte over [`MAX_LINE_BYTES`]: the cap holds while the
/// line is being read, so a client streaming bytes with no LF costs the
/// server at most one line of memory.
fn read_bounded_line(reader: &mut BufReader<TcpStream>, buf: &mut Vec<u8>) -> ReadOutcome {
    #[cfg(not(mutant = "unbounded-line-bug"))]
    let limit = (MAX_LINE_BYTES + 1).saturating_sub(buf.len()) as u64;
    // Seeded bug for the CI negative smoke: the read is unbounded, so
    // the cap is checked only once the stream pauses or ends.
    #[cfg(mutant = "unbounded-line-bug")]
    let limit = u64::MAX;
    match Read::take(&mut *reader, limit).read_until(b'\n', buf) {
        Ok(0) => {
            if buf.is_empty() {
                ReadOutcome::Eof
            } else {
                // Final line without a terminator (netcat-style): serve it.
                ReadOutcome::Line(String::from_utf8_lossy(&std::mem::take(buf)).into_owned())
            }
        }
        Ok(_) => {
            if buf.len() > MAX_LINE_BYTES {
                return ReadOutcome::Oversized;
            }
            if buf.last() == Some(&b'\n') {
                buf.pop();
                if buf.last() == Some(&b'\r') {
                    buf.pop();
                }
                ReadOutcome::Line(String::from_utf8_lossy(&std::mem::take(buf)).into_owned())
            } else {
                // read_until only stops short of the delimiter at EOF,
                // error or the limit; treat an incomplete success as
                // more-to-come.
                ReadOutcome::Idle
            }
        }
        Err(e)
            if matches!(
                e.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            ) =>
        {
            if buf.len() > MAX_LINE_BYTES {
                ReadOutcome::Oversized
            } else {
                ReadOutcome::Idle
            }
        }
        Err(e) if e.kind() == io::ErrorKind::Interrupted => ReadOutcome::Idle,
        Err(_) => ReadOutcome::Dead,
    }
}

fn handle_connection(shared: &Arc<Shared>, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    if stream.set_read_timeout(Some(POLL_INTERVAL)).is_err() {
        return;
    }
    let writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let conn = Arc::new(Conn {
        writer: Mutex::new(writer),
        cancelled: AtomicBool::new(false),
    });
    let mut reader = BufReader::new(stream);
    let mut buf = Vec::new();
    loop {
        if shared.shutdown.load(Ordering::Relaxed) {
            // Stop reading; already-queued jobs still answer through the
            // writer Arc the workers hold.
            return;
        }
        match read_bounded_line(&mut reader, &mut buf) {
            ReadOutcome::Idle => continue,
            ReadOutcome::Eof => return, // clean (half-)close: no cancel
            ReadOutcome::Dead => {
                conn.cancelled.store(true, Ordering::Relaxed);
                return;
            }
            ReadOutcome::Oversized => {
                shared.stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
                conn.write_line(&protocol::err_line(
                    0,
                    &format!("request line exceeds {MAX_LINE_BYTES} bytes"),
                ));
                // Framing is lost; close rather than resynchronize.
                return;
            }
            ReadOutcome::Line(line) => {
                if line.trim().is_empty() {
                    continue;
                }
                if !serve_line(shared, &conn, line.trim()) {
                    return;
                }
            }
        }
    }
}

/// Renders the reply to one fleet recall, serving the raw record bytes
/// out of the run store. The server side ships records *unverified* —
/// the design point is that the requesting peer runs the full read-back
/// verification, so a damaged record here degrades to a peer-side miss,
/// never a wrong answer there.
fn serve_fleet(shared: &Shared, id: u64, request: &fleet::FleetRequest) -> String {
    let Some(store) = shared.store.as_deref() else {
        return fleet::wire::err_line(id, "no run store attached");
    };
    let fleet::FleetRequest::Recall { key, config_hash } = request;
    let record_id = simcore::RecordId::of(key, *config_hash);
    fleet::wire::record_line(id, store.export_record(record_id).as_deref())
}

/// Handles one complete request line; `false` ends the connection.
fn serve_line(shared: &Arc<Shared>, conn: &Arc<Conn>, line: &str) -> bool {
    match protocol::parse_line(line) {
        Err(message) => {
            shared.stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
            conn.write_line(&protocol::err_line(0, &message))
        }
        Ok(Envelope {
            id,
            request: WireRequest::Stats,
        }) => {
            // Rendered under the writer lock, so every reply this
            // connection has been sent is already counted (`worker_loop`).
            let mut writer = lock(&conn.writer);
            let line = protocol::stats_line(id, &shared.report());
            conn.write_locked(&mut writer, &line)
        }
        Ok(Envelope {
            id,
            request: WireRequest::Fleet(request),
        }) => conn.write_line(&serve_fleet(shared, id, &request)),
        Ok(Envelope {
            id,
            request: WireRequest::Study(request),
        }) => {
            let job = Job {
                kind: request.kind(),
                request,
                conn: Arc::clone(conn),
                id,
            };
            match shared.submit(job) {
                Ok(()) => true,
                Err(PushError::Full { depth }) => {
                    conn.write_line(&protocol::busy_line(id, RETRY_AFTER_MS, depth))
                }
                Err(PushError::Closed) => {
                    conn.write_line(&protocol::err_line(id, "server is shutting down"))
                }
            }
        }
    }
}
