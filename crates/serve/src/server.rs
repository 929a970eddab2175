//! The daemon: TCP accept loop, per-connection readers, and the
//! worker pool draining the admission queue.
//!
//! ## Concurrency policy
//!
//! `workers` jobs run at once. With more than one worker, each job is
//! wrapped in [`lily_par::sequential_scope`], so the *jobs* are the
//! parallelism and the process never oversubscribes the machine; with
//! exactly one worker, that single job gets the whole deterministic
//! pool. Either way every flow's result is byte-identical to a
//! standalone run — the workspace determinism contract makes worker
//! count an operational knob, not an observable one.
//!
//! ## Cancellation chain
//!
//! A process-wide [`CancelToken`] parents a per-request token (which
//! carries the request deadline), which in turn parents every stage
//! attempt's token inside the flow. Shutdown cancels the root;
//! disconnects cancel the request tokens a connection registered;
//! deadlines expire on their own — and all three reach into running
//! stage kernels through the same chain.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use lily_core::json::{JsonObject, ParseLimits};
use lily_core::mem::{estimate_peak_bytes, MemGauge, MemReservation};
use lily_core::{FlowOptions, FlowRun, MapError};
use lily_fault::{CancelToken, FaultKind, FaultPlan};
use lily_netlist::decompose::{decompose, DecomposeOrder};
use lily_netlist::{blif, Network};
use lily_workloads::scale::{scale_circuit, ScaleFamily};

use crate::admission::{Admission, SubmitError};
use crate::cache::LibraryCache;
use crate::clock::Stopwatch;
use crate::journal::{Journal, JournalRecord, Orphan};
use crate::protocol::{
    error_kind, reply, Event, FaultSpec, MapRequest, ProbeRequest, Request, Source,
};
use crate::wire::{read_frame, write_frame, WireError, DEFAULT_MAX_FRAME};
use crate::ServeError;

/// Server construction knobs; `Default` is a loopback server on an
/// OS-assigned port.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:0`.
    pub addr: String,
    /// Admission queue capacity (pending jobs beyond the running
    /// ones); submissions past it get typed `rejected` frames.
    pub queue_capacity: usize,
    /// Concurrent jobs. 0 means "the parallel runtime's effective
    /// thread count".
    pub workers: usize,
    /// Per-frame payload ceiling, both directions.
    pub max_frame: usize,
    /// Where checkpointed (resumable) jobs keep their artifacts;
    /// `None` rejects `checkpoint` requests as bad requests.
    pub checkpoint_root: Option<PathBuf>,
    /// How long a fresh connection may sit silent before its first
    /// frame; afterwards reads block indefinitely (jobs are slow).
    pub handshake_timeout: Duration,
    /// Where the write-ahead job journal lives; `None` disables
    /// durability (jobs orphaned by a crash are simply lost).
    pub journal_dir: Option<PathBuf>,
    /// Estimated-peak-bytes budget for concurrently admitted map jobs;
    /// jobs that do not fit get typed `rejected{reason:"memory"}`
    /// frames, jobs over half the budget degrade (audited) to
    /// checkpoint-every-stage streaming. `None` disables the gauge.
    pub memory_budget: Option<u64>,
    /// Watchdog slack added on top of a job's theoretical stage-
    /// deadline budget before the monitor cancels it as stuck.
    pub watchdog_grace: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            queue_capacity: 16,
            workers: 0,
            max_frame: DEFAULT_MAX_FRAME,
            checkpoint_root: None,
            handshake_timeout: Duration::from_secs(10),
            journal_dir: None,
            memory_budget: None,
            watchdog_grace: Duration::from_secs(2),
        }
    }
}

#[derive(Debug, Default)]
struct Stats {
    accepted: AtomicU64,
    rejected: AtomicU64,
    completed: AtomicU64,
    errored: AtomicU64,
    cancelled: AtomicU64,
    deadlines: AtomicU64,
    disconnects: AtomicU64,
    max_queue_wait_ns: AtomicU64,
    resumed: AtomicU64,
    watchdog_trips: AtomicU64,
    memory_rejections: AtomicU64,
    journal_torn: AtomicU64,
}

/// One point-in-time copy of the server counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Jobs admitted to the queue.
    pub accepted: u64,
    /// Jobs refused with a typed overload rejection.
    pub rejected: u64,
    /// Jobs that finished with a `done` frame.
    pub completed: u64,
    /// Jobs that finished with an `error` frame (other than
    /// cancellation/deadline).
    pub errored: u64,
    /// Jobs ended by cancellation (disconnect or shutdown).
    pub cancelled: u64,
    /// Jobs ended by their per-request deadline.
    pub deadlines: u64,
    /// Connections that dropped with requests still registered.
    pub disconnects: u64,
    /// Warm-cache hits.
    pub cache_hits: u64,
    /// Warm-cache misses (library builds).
    pub cache_misses: u64,
    /// Jobs currently waiting in the admission queue.
    pub queue_depth: u64,
    /// The admission queue capacity.
    pub queue_capacity: u64,
    /// Concurrent-job worker count.
    pub workers: u64,
    /// Longest observed queue wait, nanoseconds (wall clock; an
    /// operational observable, never an input to mapping).
    pub max_queue_wait_ns: u64,
    /// Orphaned jobs re-admitted from the journal at startup.
    pub resumed: u64,
    /// Stuck jobs the watchdog cancelled (journaled resumable).
    pub watchdog_trips: u64,
    /// Jobs refused because their estimate exceeded the memory budget.
    pub memory_rejections: u64,
    /// Torn journal tail records skipped (and truncated) at startup.
    pub journal_torn: u64,
}

impl StatsSnapshot {
    /// Renders the snapshot as a `stats` reply frame.
    #[must_use]
    pub fn to_frame(&self, id: u64) -> String {
        JsonObject::new()
            .uint("id", id)
            .string("event", "stats")
            .uint("accepted", self.accepted)
            .uint("rejected", self.rejected)
            .uint("completed", self.completed)
            .uint("errored", self.errored)
            .uint("cancelled", self.cancelled)
            .uint("deadlines", self.deadlines)
            .uint("disconnects", self.disconnects)
            .uint("cache_hits", self.cache_hits)
            .uint("cache_misses", self.cache_misses)
            .uint("queue_depth", self.queue_depth)
            .uint("queue_capacity", self.queue_capacity)
            .uint("workers", self.workers)
            .uint("max_queue_wait_ns", self.max_queue_wait_ns)
            .uint("resumed", self.resumed)
            .uint("watchdog_trips", self.watchdog_trips)
            .uint("memory_rejections", self.memory_rejections)
            .uint("journal_torn", self.journal_torn)
            .finish()
    }

    /// Parses a `stats` event body back into a snapshot (client side).
    #[must_use]
    pub fn from_event(e: &Event) -> Self {
        let get = |k: &str| e.body.get(k).and_then(lily_core::json::Json::as_u64).unwrap_or(0);
        Self {
            accepted: get("accepted"),
            rejected: get("rejected"),
            completed: get("completed"),
            errored: get("errored"),
            cancelled: get("cancelled"),
            deadlines: get("deadlines"),
            disconnects: get("disconnects"),
            cache_hits: get("cache_hits"),
            cache_misses: get("cache_misses"),
            queue_depth: get("queue_depth"),
            queue_capacity: get("queue_capacity"),
            workers: get("workers"),
            max_queue_wait_ns: get("max_queue_wait_ns"),
            resumed: get("resumed"),
            watchdog_trips: get("watchdog_trips"),
            memory_rejections: get("memory_rejections"),
            journal_torn: get("journal_torn"),
        }
    }
}

/// Per-connection shared state: the write half (workers interleave
/// reply frames through one mutex), the tokens of this connection's
/// in-flight requests (cancelled on disconnect), and liveness.
/// Jobs replayed from the journal run against a *detached* connection
/// (no writer): the client that submitted them is gone, so every
/// reply frame is a silent no-op while the journal records the truth.
#[derive(Debug)]
struct Conn {
    writer: Option<Mutex<TcpStream>>,
    tokens: Mutex<Vec<(u64, CancelToken)>>,
    alive: AtomicBool,
    max_frame: usize,
}

impl Conn {
    /// A connection with no peer, for jobs re-admitted from the
    /// journal after a crash.
    fn detached(max_frame: usize) -> Self {
        Self {
            writer: None,
            tokens: Mutex::new(Vec::new()),
            alive: AtomicBool::new(false),
            max_frame,
        }
    }

    /// Best-effort frame send; a write failure marks the connection
    /// dead (the peer is gone — nobody is listening for complaints).
    fn send(&self, frame: &str) {
        if !self.alive.load(Ordering::Acquire) {
            return;
        }
        let Some(writer) = &self.writer else { return };
        let mut w = writer.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        if write_frame(&mut *w, frame, self.max_frame).is_err() {
            self.alive.store(false, Ordering::Release);
        }
    }

    fn register(&self, id: u64, token: CancelToken) {
        self.tokens.lock().unwrap_or_else(std::sync::PoisonError::into_inner).push((id, token));
    }

    fn unregister(&self, id: u64) {
        let mut t = self.tokens.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        t.retain(|(tid, _)| *tid != id);
    }

    /// Disconnect: cancel everything this connection still has in
    /// flight. Returns how many requests were cut down.
    fn cancel_all(&self) -> usize {
        self.alive.store(false, Ordering::Release);
        let t = self.tokens.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        for (_, token) in t.iter() {
            token.cancel();
        }
        t.len()
    }
}

#[derive(Debug)]
enum JobKind {
    Map(MapRequest),
    Probe(ProbeRequest),
}

#[derive(Debug)]
struct Job {
    id: u64,
    /// Daemon-assigned monotone sequence number; the journal key.
    /// Client ids collide across connections, seqs never do.
    seq: u64,
    kind: JobKind,
    cancel: CancelToken,
    conn: Arc<Conn>,
    queued: Stopwatch,
    /// Set by the watchdog when it cancels this job as stuck; the
    /// worker's finish path reads it to journal `suspended` (resumable)
    /// instead of `failed`.
    tripped: Arc<AtomicBool>,
    /// Held for the job's lifetime; dropping it returns the estimated
    /// bytes to the gauge (RAII only, hence never read).
    _reservation: Option<MemReservation>,
    /// Whether this job wrote an `accepted` journal record (and so owes
    /// the journal exactly one terminal record).
    journaled: bool,
    /// The `torn-write` fault: the terminal journal record is written
    /// half-length, simulating a crash mid-append.
    torn_write: bool,
}

/// One watchdog registration: a running job, when it started, and how
/// long its stage-deadline arithmetic says it may possibly take.
#[derive(Debug)]
struct WatchEntry {
    seq: u64,
    started: Stopwatch,
    limit_ns: u64,
    token: CancelToken,
    tripped: Arc<AtomicBool>,
}

/// Removes the watch entry when the job finishes, however it finishes.
struct WatchGuard {
    inner: Arc<Inner>,
    seq: u64,
}

impl Drop for WatchGuard {
    fn drop(&mut self) {
        let mut w = self.inner.watch.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        w.retain(|e| e.seq != self.seq);
    }
}

#[derive(Debug)]
struct Inner {
    config: ServerConfig,
    addr: SocketAddr,
    admission: Admission<Job>,
    cache: LibraryCache,
    stats: Stats,
    process: CancelToken,
    shutdown: AtomicBool,
    workers: usize,
    collapse: bool,
    journal: Option<Journal>,
    gauge: Option<Arc<MemGauge>>,
    seq: AtomicU64,
    watch: Mutex<Vec<WatchEntry>>,
}

impl Inner {
    fn snapshot(&self) -> StatsSnapshot {
        let cache = self.cache.stats();
        StatsSnapshot {
            accepted: self.stats.accepted.load(Ordering::Relaxed),
            rejected: self.stats.rejected.load(Ordering::Relaxed),
            completed: self.stats.completed.load(Ordering::Relaxed),
            errored: self.stats.errored.load(Ordering::Relaxed),
            cancelled: self.stats.cancelled.load(Ordering::Relaxed),
            deadlines: self.stats.deadlines.load(Ordering::Relaxed),
            disconnects: self.stats.disconnects.load(Ordering::Relaxed),
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            queue_depth: self.admission.depth() as u64,
            queue_capacity: self.admission.capacity() as u64,
            workers: self.workers as u64,
            max_queue_wait_ns: self.stats.max_queue_wait_ns.load(Ordering::Relaxed),
            resumed: self.stats.resumed.load(Ordering::Relaxed),
            watchdog_trips: self.stats.watchdog_trips.load(Ordering::Relaxed),
            memory_rejections: self.stats.memory_rejections.load(Ordering::Relaxed),
            journal_torn: self.stats.journal_torn.load(Ordering::Relaxed),
        }
    }

    /// Appends a journal record for a job, honouring its torn-write
    /// fault. Journal I/O failures are swallowed: durability is
    /// best-effort once the job is running, and the client still gets
    /// its frames.
    fn journal_job(&self, job: &Job, record: &JournalRecord) {
        if !job.journaled {
            return;
        }
        let Some(journal) = &self.journal else { return };
        let _ = if job.torn_write && record.is_terminal() {
            journal.append_torn(record)
        } else {
            journal.append(record)
        };
    }

    fn begin_shutdown(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Root of the cancellation chain: every in-flight and queued
        // job observes this through its request token's parent.
        self.process.cancel();
        self.admission.close();
        // A throwaway connection unblocks the accept loop so it can
        // observe the flag.
        let _ = TcpStream::connect(self.addr);
    }
}

/// A bound (but not yet running) server, plus the journal orphans it
/// will re-admit once the worker pool is up.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    inner: Arc<Inner>,
    orphans: Vec<Orphan>,
}

impl Server {
    /// Binds the listener, sizes the worker pool, and — when a journal
    /// directory is configured — replays the journal, truncating any
    /// torn tail record left by a crash mid-append.
    ///
    /// # Errors
    ///
    /// [`ServeError::Bind`] when the address cannot be bound;
    /// [`ServeError::Journal`] when the journal cannot be opened.
    pub fn bind(config: ServerConfig) -> Result<Self, ServeError> {
        let listener = TcpListener::bind(&config.addr)
            .map_err(|e| ServeError::Bind { addr: config.addr.clone(), message: e.to_string() })?;
        let addr = listener
            .local_addr()
            .map_err(|e| ServeError::Bind { addr: config.addr.clone(), message: e.to_string() })?;
        let workers = if config.workers == 0 {
            lily_par::effective_threads()
        } else {
            config.workers.min(lily_par::MAX_THREADS)
        };
        let (journal, replay) = match &config.journal_dir {
            Some(dir) => {
                let (journal, replay) = Journal::open(dir).map_err(|e| ServeError::Journal {
                    path: dir.display().to_string(),
                    message: e.to_string(),
                })?;
                (Some(journal), Some(replay))
            }
            None => (None, None),
        };
        let stats = Stats::default();
        // A torn tail is an audited observable (`stats.journal_torn`),
        // never a startup failure: `Journal::open` already truncated
        // the file back to its valid prefix.
        stats.journal_torn.store(replay.as_ref().map_or(0, |r| r.torn as u64), Ordering::Relaxed);
        let next_seq = replay.as_ref().map_or(1, crate::journal::Replay::next_seq);
        let orphans = replay.map(|r| r.orphans()).unwrap_or_default();
        let gauge = config.memory_budget.map(MemGauge::new);
        let inner = Arc::new(Inner {
            admission: Admission::new(config.queue_capacity),
            cache: LibraryCache::new(),
            stats,
            process: CancelToken::new(),
            shutdown: AtomicBool::new(false),
            addr,
            workers,
            collapse: workers > 1,
            journal,
            gauge,
            seq: AtomicU64::new(next_seq),
            watch: Mutex::new(Vec::new()),
            config,
        });
        Ok(Self { listener, inner, orphans })
    }

    /// The bound address (useful with port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.inner.addr
    }

    /// Runs the daemon until a `shutdown` request arrives: spawns the
    /// worker pool, accepts connections, and drains in-flight jobs
    /// before returning the final counters.
    ///
    /// # Errors
    ///
    /// Currently infallible after a successful bind; the `Result`
    /// reserves room for fatal runtime conditions.
    pub fn run(self) -> Result<StatsSnapshot, ServeError> {
        let Server { listener, inner, orphans } = self;
        let workers: Vec<_> = (0..inner.workers)
            .map(|_| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || worker_loop(&inner))
            })
            .collect();
        let watchdog = {
            let inner = Arc::clone(&inner);
            std::thread::spawn(move || watchdog_loop(&inner))
        };
        // Re-admit jobs the previous process accepted but never
        // finished — before the first client connects, so recovery
        // needs no client participation.
        for orphan in &orphans {
            readmit_orphan(&inner, orphan);
        }
        for stream in listener.incoming() {
            if inner.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = stream else { continue };
            let inner = Arc::clone(&inner);
            std::thread::spawn(move || serve_conn(stream, &inner));
        }
        inner.admission.close();
        for w in workers {
            let _ = w.join();
        }
        inner.shutdown.store(true, Ordering::SeqCst);
        let _ = watchdog.join();
        Ok(inner.snapshot())
    }
}

fn worker_loop(inner: &Arc<Inner>) {
    while let Some(job) = inner.admission.next() {
        let conn = Arc::clone(&job.conn);
        let id = job.id;
        let wait = job.queued.elapsed_ns();
        inner.stats.max_queue_wait_ns.fetch_max(wait, Ordering::Relaxed);
        // A panicking job must cost exactly one error frame, never a
        // worker: the pool's size is part of the service contract.
        let outcome =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_job(inner, &job)));
        if outcome.is_err() {
            inner.stats.errored.fetch_add(1, Ordering::Relaxed);
            inner.journal_job(
                &job,
                &JournalRecord::Failed { seq: job.seq, kind: "internal-panic".to_string() },
            );
            conn.send(&reply::error(id, "internal-panic", "job panicked; worker recovered"));
        }
        conn.unregister(id);
    }
}

/// The stuck-job monitor: cancels any watched job that has outlived its
/// stage-deadline arithmetic plus the configured grace. It only sets
/// the trip flag and cancels the token — the worker running the job
/// remains the sole writer of its terminal journal record, so a trip
/// can never race a concurrent failure into two terminal records.
fn watchdog_loop(inner: &Arc<Inner>) {
    const POLL: Duration = Duration::from_millis(20);
    while !inner.shutdown.load(Ordering::SeqCst) {
        std::thread::sleep(POLL);
        let watch = inner.watch.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        for e in watch.iter() {
            if !e.tripped.load(Ordering::Acquire) && e.started.elapsed_ns() > e.limit_ns {
                // Flag before cancel: the finish path that the cancel
                // wakes must already see why it was woken.
                e.tripped.store(true, Ordering::Release);
                e.token.cancel();
                inner.stats.watchdog_trips.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// Registers a map job with the watchdog, if it has a stage deadline to
/// scale a stall bound from. The limit is deliberately generous — every
/// stage, every retry, both compare tails, plus grace — so it only
/// trips on jobs that are provably past any legitimate schedule.
fn register_watch(inner: &Arc<Inner>, job: &Job) -> Option<WatchGuard> {
    let JobKind::Map(req) = &job.kind else { return None };
    let ms = req.stage_deadline_ms?;
    let stages = lily_core::checkpoint::STAGE_NAMES.len() as u64 + 1;
    let attempts = u64::from(req.stage_retries.unwrap_or(0)) + 1;
    let tails = if req.compare { 2 } else { 1 };
    let grace = u64::try_from(inner.config.watchdog_grace.as_nanos()).unwrap_or(u64::MAX);
    let limit_ns = ms
        .saturating_mul(stages * attempts * tails)
        .saturating_mul(1_000_000)
        .saturating_add(grace);
    inner.watch.lock().unwrap_or_else(std::sync::PoisonError::into_inner).push(WatchEntry {
        seq: job.seq,
        started: Stopwatch::start(),
        limit_ns,
        token: job.cancel.clone(),
        tripped: Arc::clone(&job.tripped),
    });
    Some(WatchGuard { inner: Arc::clone(inner), seq: job.seq })
}

fn run_job(inner: &Arc<Inner>, job: &Job) {
    if job.cancel.is_cancelled() {
        finish_cancelled(inner, job);
        return;
    }
    let _watch = register_watch(inner, job);
    // Multi-tenancy: with several workers, each job runs its flow
    // sequentially so the jobs themselves are the parallelism.
    let _seq = inner.collapse.then(lily_par::sequential_scope);
    // Make the request token (deadline, disconnect, shutdown) the
    // ambient parent of every stage attempt inside the flow.
    let _ambient = lily_fault::set_ambient(job.cancel.clone());
    match &job.kind {
        JobKind::Map(req) => run_map(inner, job, req),
        JobKind::Probe(req) => run_probe(inner, job, req),
    }
}

/// The single classification point for a cancelled job, and with it the
/// shutdown-ordering invariant: the worker (the only caller) writes
/// exactly one terminal-or-suspended journal record, *before* the
/// terminal client frame. A watchdog trip or a shutdown journals the
/// job `suspended` — resumable at the next startup — while a deadline
/// or a disconnect journals it `failed`, so a job can never be both
/// journaled-resumable and genuinely failed.
fn finish_cancelled(inner: &Arc<Inner>, job: &Job) {
    if job.tripped.load(Ordering::Acquire) {
        inner.stats.cancelled.fetch_add(1, Ordering::Relaxed);
        inner.journal_job(
            job,
            &JournalRecord::Suspended { seq: job.seq, reason: "watchdog".to_string() },
        );
        job.conn.send(&reply::error(
            job.id,
            "watchdog",
            "watchdog cancelled a stuck job; journaled resumable",
        ));
    } else if job.cancel.deadline_expired() {
        inner.stats.deadlines.fetch_add(1, Ordering::Relaxed);
        inner.journal_job(
            job,
            &JournalRecord::Failed { seq: job.seq, kind: "deadline".to_string() },
        );
        job.conn.send(&reply::error(job.id, "deadline", "request deadline expired"));
    } else if inner.shutdown.load(Ordering::SeqCst) {
        inner.stats.cancelled.fetch_add(1, Ordering::Relaxed);
        inner.journal_job(
            job,
            &JournalRecord::Suspended { seq: job.seq, reason: "shutdown".to_string() },
        );
        job.conn.send(&reply::error(job.id, "cancelled", "request cancelled"));
    } else {
        inner.stats.cancelled.fetch_add(1, Ordering::Relaxed);
        inner.journal_job(
            job,
            &JournalRecord::Failed { seq: job.seq, kind: "cancelled".to_string() },
        );
        job.conn.send(&reply::error(job.id, "cancelled", "request cancelled"));
    }
}

/// Sends the terminal `error` frame for a failed flow, classifying a
/// cooperative cancellation against the *request*-level causes: the
/// request deadline, the peer vanishing, or server shutdown.
fn finish_error(inner: &Arc<Inner>, job: &Job, e: &MapError) {
    // A tripped job routes to the cancellation classifier whatever
    // error class the cancellation surfaced as (a stage deadline, a
    // cooperative cancel): the watchdog verdict — suspended, resumable
    // — must win, or the job would be reported failed *and* resumable.
    if matches!(e, MapError::Cancelled { .. }) || job.tripped.load(Ordering::Acquire) {
        finish_cancelled(inner, job);
        return;
    }
    inner.stats.errored.fetch_add(1, Ordering::Relaxed);
    inner
        .journal_job(job, &JournalRecord::Failed { seq: job.seq, kind: error_kind(e).to_string() });
    job.conn.send(&reply::error(job.id, error_kind(e), &e.to_string()));
}

/// Synthetic workload bounds for `scale:` sources: the generator
/// asserts below 64, and the ceiling keeps one wire-controlled integer
/// from conjuring an arbitrarily large job out of a 60-byte request.
const SCALE_MIN_NODES: usize = 64;
const SCALE_MAX_NODES: usize = 1 << 20;

/// Parses a `scale:<family>:<nodes>[:seed]` circuit spec, e.g.
/// `scale:random-dag:100000:7`. `None` when malformed or out of the
/// [`SCALE_MIN_NODES`]..=[`SCALE_MAX_NODES`] clamp.
fn parse_scale_spec(name: &str) -> Option<(ScaleFamily, usize, u64)> {
    let rest = name.strip_prefix("scale:")?;
    let mut parts = rest.split(':');
    let family = ScaleFamily::from_name(parts.next()?)?;
    let nodes: usize = parts.next()?.parse().ok()?;
    let seed: u64 = match parts.next() {
        None => 1,
        Some(s) => s.parse().ok()?,
    };
    if parts.next().is_some() {
        return None;
    }
    (SCALE_MIN_NODES..=SCALE_MAX_NODES).contains(&nodes).then_some((family, nodes, seed))
}

fn resolve_network(source: &Source) -> Result<Network, (&'static str, String)> {
    match source {
        Source::Blif(text) => blif::parse(text).map_err(|e| ("netlist", e.to_string())),
        Source::Circuit(name) if name.starts_with("scale:") => match parse_scale_spec(name) {
            Some((family, nodes, seed)) => Ok(scale_circuit(family, nodes, seed)),
            None => Err((
                "bad-request",
                format!(
                    "bad scale spec `{name}` (want scale:<family>:<nodes \
                     {SCALE_MIN_NODES}..={SCALE_MAX_NODES}>[:seed])"
                ),
            )),
        },
        Source::Circuit(name) => {
            if lily_workloads::circuits::circuit_names().contains(&name.as_str()) {
                Ok(lily_workloads::circuits::circuit(name))
            } else {
                Err(("bad-request", format!("unknown circuit `{name}`")))
            }
        }
    }
}

/// Estimated peak bytes for a map request, from the parsed node count
/// of its source through the [`estimate_peak_bytes`] model (decompose
/// expands up to ~4.2× on generated DAGs, priced at 5×; each subject
/// node costs ~512 B across the flow's live artifacts).
fn job_cost(req: &MapRequest) -> u64 {
    let nodes = match &req.source {
        Source::Blif(text) => (text.matches(".names").count() as u64).saturating_add(16),
        Source::Circuit(name) => match parse_scale_spec(name) {
            Some((_, nodes, _)) => nodes as u64,
            // The named benchmark corpus tops out well under this.
            None => 2_048,
        },
    };
    let per_flow = estimate_peak_bytes(nodes);
    if req.compare {
        per_flow.saturating_mul(2)
    } else {
        per_flow
    }
}

/// The middle rung of the memory-budget ladder: a job estimated over
/// half the budget is still admitted, but degraded to checkpoint-every-
/// stage streaming under a deterministic `auto-<seq>` checkpoint id so
/// a crash forfeits at most one stage of work. Returns the audit detail
/// when the degradation applies. The decision depends only on the
/// estimate and the budget, so a journal replay of the same request
/// reaches the same checkpoint directory. A comparison is never
/// streamed: checkpointing runs single flows only.
fn maybe_stream(inner: &Inner, req: &mut MapRequest, cost: u64, seq: u64) -> Option<String> {
    let gauge = inner.gauge.as_ref()?;
    let applies = cost.saturating_mul(2) > gauge.budget()
        && !req.compare
        && req.checkpoint.is_none()
        && req.kill_after.is_none()
        && matches!(req.faults, FaultSpec::None)
        && inner.config.checkpoint_root.is_some();
    if !applies {
        return None;
    }
    let name = format!("auto-{seq}");
    req.checkpoint = Some(name.clone());
    Some(format!(
        "estimated {cost} B exceeds half the {} B budget; degraded to \
         checkpoint-every-stage streaming as `{name}`",
        gauge.budget()
    ))
}

/// Whether the request's fault plan schedules the `torn-write` fault.
/// It is inert inside flows; the serve journal layer consumes it by
/// writing the job's terminal record half-length.
fn wants_torn_write(spec: &FaultSpec) -> bool {
    match spec {
        FaultSpec::Plan(plan) => plan.faults().iter().any(|f| f.kind == FaultKind::TornWrite),
        FaultSpec::None | FaultSpec::Seed { .. } => false,
    }
}

fn flow_options(req: &MapRequest) -> Result<FlowOptions, (&'static str, String)> {
    let mut options = match req.flow.as_str() {
        "mis-area" => FlowOptions::mis_area(),
        "lily-area" => FlowOptions::lily_area(),
        "mis-delay" => FlowOptions::mis_delay(),
        "lily-delay" => FlowOptions::lily_delay(),
        "cut-area" => FlowOptions::cut_area(),
        "cut-delay" => FlowOptions::cut_delay(),
        other => return Err(("bad-request", format!("unknown flow `{other}`"))),
    };
    // Service responses must not depend on the build profile, so pin
    // what `FlowOptions::base` derives from `debug_assertions`.
    options.verify = false;
    if let Some(ms) = req.stage_deadline_ms {
        options.stage_deadline = Some(Duration::from_millis(ms));
    }
    if let Some(n) = req.stage_retries {
        options.stage_retries = n;
    }
    Ok(options)
}

fn fault_plan(spec: &FaultSpec) -> FaultPlan {
    match spec {
        FaultSpec::None => FaultPlan::new(),
        FaultSpec::Plan(plan) => plan.clone(),
        FaultSpec::Seed { seed, benign } => FaultPlan::random(*seed, *benign),
    }
}

/// Checkpoint job ids become directory names; keep them boring.
fn sanitize_job_id(id: &str) -> Result<&str, (&'static str, String)> {
    let ok = !id.is_empty()
        && id.len() <= 64
        && id.chars().all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_');
    if ok {
        Ok(id)
    } else {
        Err(("bad-request", format!("checkpoint id `{id}` must be [A-Za-z0-9_-]{{1,64}}")))
    }
}

/// The run policies of a map request: its fault plan, or — for a
/// resumable job — its checkpoint directory and kill stage. A
/// checkpointed job takes neither a fault plan nor `compare` (a
/// comparison is three flow contexts, which one directory cannot
/// resume).
fn flow_run(inner: &Inner, req: &MapRequest) -> Result<FlowRun, (&'static str, String)> {
    let faults = fault_plan(&req.faults);
    let Some(ckpt_id) = &req.checkpoint else {
        return Ok(FlowRun { faults, ..FlowRun::default() });
    };
    let ckpt_id = sanitize_job_id(ckpt_id)?;
    let Some(root) = &inner.config.checkpoint_root else {
        return Err((
            "bad-request",
            "server started without --checkpoint-root; resumable jobs unavailable".to_string(),
        ));
    };
    if !faults.is_empty() {
        return Err((
            "bad-request",
            "checkpointed jobs do not accept fault plans (use kill_after)".to_string(),
        ));
    }
    if req.compare {
        return Err(("bad-request", "checkpointed jobs run a single flow (drop compare)".into()));
    }
    if let Some(stage) = &req.kill_after {
        if !lily_core::checkpoint::STAGE_NAMES.contains(&stage.as_str()) {
            return Err(("bad-request", format!("unknown kill_after stage `{stage}`")));
        }
    }
    Ok(FlowRun {
        faults,
        checkpoint: Some(root.join(ckpt_id)),
        interrupt_after: req.kill_after.clone(),
    })
}

fn run_map(inner: &Arc<Inner>, job: &Job, req: &MapRequest) {
    let step = (|| -> Result<(), (&'static str, String)> {
        let (entry, hit) =
            inner.cache.get(&req.library).map_err(|e| ("bad-request", e.to_string()))?;
        let cache_tag = if hit { "hit" } else { "miss" };
        let net = resolve_network(&req.source)?;
        let options = flow_options(req)?;
        let run = flow_run(inner, req)?;

        if req.compare {
            let (result, report) = run.compare(&net, &entry.library, &options);
            match result {
                Ok(cmp) => {
                    for r in cmp.mis.metrics.stages.records() {
                        job.conn.send(&reply::stage(job.id, "mis", r));
                    }
                    for r in cmp.lily.metrics.stages.records() {
                        job.conn.send(&reply::stage(job.id, "lily", r));
                    }
                    let metrics = JsonObject::new()
                        .raw("mis", &cmp.mis.metrics.to_json())
                        .raw("lily", &cmp.lily.metrics.to_json())
                        .finish();
                    inner.journal_job(job, &JournalRecord::Completed { seq: job.seq, metrics });
                    inner.stats.completed.fetch_add(1, Ordering::Relaxed);
                    job.conn.send(&reply::done_compare(
                        job.id,
                        cache_tag,
                        report.fired.len(),
                        &cmp.mis.metrics.to_json(),
                        &cmp.lily.metrics.to_json(),
                    ));
                }
                Err(e) => finish_error(inner, job, &e),
            }
        } else {
            let (result, report) = run.single(&net, &entry.library, &options);
            match result {
                Ok(flow_result) => {
                    let flow = req.flow.split('-').next().unwrap_or("mis");
                    for r in flow_result.metrics.stages.records() {
                        job.conn.send(&reply::stage(job.id, flow, r));
                    }
                    let metrics = flow_result.metrics.to_json();
                    inner.journal_job(
                        job,
                        &JournalRecord::Completed { seq: job.seq, metrics: metrics.clone() },
                    );
                    inner.stats.completed.fetch_add(1, Ordering::Relaxed);
                    job.conn.send(&reply::done_single(
                        job.id,
                        cache_tag,
                        report.fired.len(),
                        &metrics,
                    ));
                }
                Err(e) => finish_error(inner, job, &e),
            }
        }
        Ok(())
    })();
    if let Err((kind, message)) = step {
        inner.stats.errored.fetch_add(1, Ordering::Relaxed);
        inner.journal_job(job, &JournalRecord::Failed { seq: job.seq, kind: kind.to_string() });
        job.conn.send(&reply::error(job.id, kind, &message));
    }
}

fn run_probe(inner: &Arc<Inner>, job: &Job, req: &ProbeRequest) {
    let step = (|| -> Result<(usize, usize, &'static str), (&'static str, String)> {
        let (entry, hit) =
            inner.cache.get(&req.library).map_err(|e| ("bad-request", e.to_string()))?;
        let net = resolve_network(&req.source)?;
        let g =
            decompose(&net, DecomposeOrder::Balanced).map_err(|e| ("netlist", e.to_string()))?;
        // The build polls the ambient token, which is the job's.
        let total = match lily_core::MatchIndex::build(&g, &entry.library) {
            Ok(idx) => idx.total(),
            Err(lily_core::MapError::Cancelled { .. }) => {
                return Err(("cancelled-probe", String::new()))
            }
            Err(e) => return Err((error_kind(&e), e.to_string())),
        };
        Ok((g.node_count(), total, if hit { "hit" } else { "miss" }))
    })();
    match step {
        Ok((nodes, matches, cache_tag)) => {
            inner.stats.completed.fetch_add(1, Ordering::Relaxed);
            job.conn.send(&reply::probe_done(job.id, cache_tag, nodes, matches));
        }
        Err(("cancelled-probe", _)) => finish_cancelled(inner, job),
        Err((kind, message)) => {
            inner.stats.errored.fetch_add(1, Ordering::Relaxed);
            job.conn.send(&reply::error(job.id, kind, &message));
        }
    }
}

/// One connection's reader loop: frames in, dispatch, frames out.
fn serve_conn(stream: TcpStream, inner: &Arc<Inner>) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(inner.config.handshake_timeout));
    let Ok(writer) = stream.try_clone() else { return };
    let conn = Arc::new(Conn {
        writer: Some(Mutex::new(writer)),
        tokens: Mutex::new(Vec::new()),
        alive: AtomicBool::new(true),
        max_frame: inner.config.max_frame,
    });
    let mut reader = stream;
    let mut saw_frame = false;
    loop {
        match read_frame(&mut reader, inner.config.max_frame) {
            Ok(text) => {
                if !saw_frame {
                    saw_frame = true;
                    // Jobs can legitimately take a long time; only the
                    // pre-handshake silence is bounded.
                    let _ = reader.set_read_timeout(None);
                }
                if dispatch(inner, &conn, &text) == Dispatch::Stop {
                    return;
                }
            }
            Err(WireError::FrameTooLarge { size, limit }) => {
                // The oversized payload cannot be skipped; reject and
                // drop the connection.
                conn.send(&reply::error(
                    0,
                    "frame-too-large",
                    &format!("frame of {size} bytes exceeds the {limit}-byte limit"),
                ));
                break;
            }
            Err(WireError::BadUtf8 { offset }) => {
                // The full payload was consumed, so framing is still
                // in sync; answer and keep reading.
                conn.send(&reply::error(
                    0,
                    "bad-utf8",
                    &format!("payload is not UTF-8 (offset {offset})"),
                ));
            }
            // Clean EOF, truncation, reset, handshake timeout: all
            // mean the peer is gone.
            Err(_) => break,
        }
    }
    let in_flight = conn.cancel_all();
    if in_flight > 0 {
        inner.stats.disconnects.fetch_add(1, Ordering::Relaxed);
    }
}

#[derive(PartialEq, Eq)]
enum Dispatch {
    Continue,
    Stop,
}

fn dispatch(inner: &Arc<Inner>, conn: &Arc<Conn>, text: &str) -> Dispatch {
    let limits = ParseLimits { max_bytes: inner.config.max_frame, ..ParseLimits::default() };
    let request = match Request::from_json(text, limits) {
        Ok(r) => r,
        Err(e) => {
            let id = Request::salvage_id(text, limits);
            conn.send(&reply::error(id, "bad-request", &e.to_string()));
            return Dispatch::Continue;
        }
    };
    match request {
        Request::Ping { id } => conn.send(&reply::pong(id)),
        Request::Stats { id } => conn.send(&inner.snapshot().to_frame(id)),
        Request::Shutdown { id } => {
            conn.send(&reply::ok(id));
            inner.begin_shutdown();
            return Dispatch::Stop;
        }
        Request::Map(req) => enqueue(inner, conn, text, JobKind::Map(req)),
        Request::Probe(req) => enqueue(inner, conn, text, JobKind::Probe(req)),
    }
    Dispatch::Continue
}

fn enqueue(inner: &Arc<Inner>, conn: &Arc<Conn>, raw: &str, kind: JobKind) {
    let mut kind = kind;
    let seq = inner.seq.fetch_add(1, Ordering::Relaxed);
    let (id, deadline_ms) = match &kind {
        JobKind::Map(req) => (req.id, req.deadline_ms),
        JobKind::Probe(req) => (req.id, None),
    };
    let mut reservation = None;
    let mut stream_audit = None;
    let mut torn_write = false;
    if let JobKind::Map(req) = &mut kind {
        torn_write = wants_torn_write(&req.faults);
        if let Some(gauge) = &inner.gauge {
            let cost = job_cost(req);
            match gauge.try_reserve(cost) {
                Ok(r) => {
                    stream_audit = maybe_stream(inner, req, cost, seq);
                    reservation = Some(r);
                }
                // The top rung of the memory-budget ladder: typed load
                // shedding instead of an OOM kill.
                Err(_) => {
                    inner.stats.rejected.fetch_add(1, Ordering::Relaxed);
                    inner.stats.memory_rejections.fetch_add(1, Ordering::Relaxed);
                    conn.send(&reply::rejected(id, inner.admission.capacity(), "memory"));
                    return;
                }
            }
        }
    }
    let cancel = match deadline_ms {
        Some(ms) => inner.process.child_with_deadline(Duration::from_millis(ms)),
        None => inner.process.child(),
    };
    conn.register(id, cancel.clone());
    let journaled = inner.journal.is_some() && matches!(kind, JobKind::Map(_));
    let job = Job {
        id,
        seq,
        kind,
        cancel,
        conn: Arc::clone(conn),
        queued: Stopwatch::start(),
        tripped: Arc::new(AtomicBool::new(false)),
        _reservation: reservation,
        journaled,
        torn_write,
    };
    // Write-ahead: the accepted record (carrying the full request
    // bytes) hits disk before the job can run and before the client
    // hears anything, so a crash at any later point leaves a record to
    // resume from.
    if journaled {
        if let Some(journal) = &inner.journal {
            let _ = journal.append(&JournalRecord::Accepted { seq, request: raw.to_string() });
        }
    }
    match inner.admission.submit(job) {
        Ok(depth) => {
            inner.stats.accepted.fetch_add(1, Ordering::Relaxed);
            conn.send(&reply::accepted(id, depth));
            if let Some(detail) = stream_audit {
                conn.send(&reply::audit(id, "memory-stream", &detail));
            }
        }
        Err(SubmitError::Overloaded { capacity }) => {
            inner.stats.rejected.fetch_add(1, Ordering::Relaxed);
            conn.unregister(id);
            // The accepted record is already durable; close it out so
            // a restart does not resurrect a job the client saw
            // rejected.
            if journaled {
                if let Some(journal) = &inner.journal {
                    let _ = journal
                        .append(&JournalRecord::Failed { seq, kind: "overloaded".to_string() });
                }
            }
            conn.send(&reply::rejected(id, capacity, "overloaded"));
        }
        Err(SubmitError::Closed) => {
            conn.unregister(id);
            if journaled {
                if let Some(journal) = &inner.journal {
                    let _ = journal
                        .append(&JournalRecord::Failed { seq, kind: "shutting-down".to_string() });
                }
            }
            conn.send(&reply::error(id, "shutting-down", "server is shutting down"));
        }
    }
}

/// Re-admits one journal orphan — a job the previous process accepted
/// but never closed out — against a detached connection. The `resumed`
/// audit record lands before the job can produce its terminal record;
/// a full queue simply leaves the job orphaned for the next restart.
fn readmit_orphan(inner: &Arc<Inner>, orphan: &Orphan) {
    let limits = ParseLimits { max_bytes: inner.config.max_frame, ..ParseLimits::default() };
    let Ok(Request::Map(mut req)) = Request::from_json(&orphan.request, limits) else {
        // Unreplayable request bytes: close the job out so it cannot
        // orphan-loop across restarts.
        if let Some(journal) = &inner.journal {
            let _ = journal.append(&JournalRecord::Failed {
                seq: orphan.seq,
                kind: "bad-request".to_string(),
            });
        }
        return;
    };
    // The kill switch was a drill aid of the original submission; a
    // resumed job must run to completion.
    req.kill_after = None;
    let cost = job_cost(&req);
    let mut reservation = None;
    if let Some(gauge) = &inner.gauge {
        // Resumption outranks admission: reserve when possible, run
        // unmetered otherwise — the journal owes the client a result.
        reservation = gauge.try_reserve(cost).ok();
    }
    let stream_audit = maybe_stream(inner, &mut req, cost, orphan.seq);
    let cancel = match req.deadline_ms {
        Some(ms) => inner.process.child_with_deadline(Duration::from_millis(ms)),
        None => inner.process.child(),
    };
    let job = Job {
        id: req.id,
        seq: orphan.seq,
        kind: JobKind::Map(req),
        cancel,
        conn: Arc::new(Conn::detached(inner.config.max_frame)),
        queued: Stopwatch::start(),
        tripped: Arc::new(AtomicBool::new(false)),
        _reservation: reservation,
        journaled: true,
        // The torn-write fault has done its damage once; the resumed
        // run journals normally or the job would orphan-loop forever.
        torn_write: false,
    };
    let _ = stream_audit; // no peer to audit to; the journal has the request
    if let Some(journal) = &inner.journal {
        let _ = journal.append(&JournalRecord::Resumed { seq: orphan.seq });
    }
    if inner.admission.submit(job).is_ok() {
        inner.stats.resumed.fetch_add(1, Ordering::Relaxed);
    }
}
