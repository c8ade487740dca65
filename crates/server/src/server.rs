//! The resident mining service: bounded queue, worker pool, shared
//! dataset cache, request coalescing, and graceful degradation.
//!
//! # Robustness policy
//!
//! * **Backpressure, not unbounded queueing.** Work requests (`load`,
//!   `mine`, `freq`, `stats`) go through a bounded queue; when it is full
//!   the request is rejected *immediately* with `status=busy` and the
//!   current depth, so a client can back off. Control messages (`ping`,
//!   `cancel`, `shutdown`) never queue — they are handled on the reader
//!   thread, so a saturated server can still be probed, cancelled into
//!   headroom, or shut down. A busy-rejected request is never visible to
//!   `cancel`: its token is registered only after the capacity check
//!   admits it, so `found=true` always means "the server accepted this id".
//! * **Per-request governance.** Every queued request carries its own
//!   [`CancelToken`] and a [`Budget`] assembled from the request's
//!   `timeout_ms`/`max_steps`, clamped by the server's ceilings. Deadlines
//!   run from *submission*, so time spent queued counts — a request that
//!   waited out its deadline returns `truncated (deadline exceeded)`
//!   instead of silently mining stale work.
//! * **Request coalescing.** Concurrent `mine` requests over the same
//!   dataset version with the same resolved config share one governed run
//!   (single-flight, keyed on the [`WindowKey`](graphsig_core::WindowKey)
//!   the `PreparedCache` memoizes on plus the threshold/backend knobs —
//!   see [`crate::batch`]). The first request to reach a worker leads;
//!   later identical requests attach as riders and *do not occupy a
//!   worker*. Responses are byte-identical to solo runs (the pipeline is
//!   deterministic for a fixed config; only the per-rider `top=` render
//!   cap differs). Cancelling a rider detaches it immediately; the run is
//!   cancelled only when its last rider cancels. Explicitly budgeted
//!   requests (`timeout_ms`/`max_steps`) never coalesce — a step budget
//!   is a determinism contract and a deadline anchors to its own
//!   submission. `freq`/`sweep` requests over one dataset already
//!   coalesce their index and compiled-database builds structurally: both
//!   hang off `OnceLock`s in the shared [`Dataset`], so concurrent first
//!   uses perform exactly one build.
//! * **Sweep-aware scheduling.** A `sweep` fans out into one queued
//!   segment per threshold instead of looping inside a single worker.
//!   Segments run at *lower* priority than whole requests, so a long
//!   sweep cannot pin the pool: a `mine` submitted mid-sweep runs as soon
//!   as the current segments finish, not after the whole sweep. The last
//!   segment to finish assembles the response in threshold order —
//!   byte-identical to the old inline loop.
//! * **Panic isolation.** Request handlers and sweep segments run under
//!   [`try_par_map`](graphsig_core::try_par_map): a poisoned request
//!   (malformed data tripping a bug, injected faults in tests) produces a
//!   `status=error` response carrying the panic message; the worker and
//!   the server keep serving. A panicking coalesced leader fails every
//!   rider with that error — riders are never left waiting on a run that
//!   no longer exists.
//! * **Graceful shutdown.** `shutdown` stops intake, waits for queued and
//!   in-flight work under a drain deadline, cancels whatever outlives the
//!   deadline — individual tokens *and* coalesced group tokens (those
//!   requests respond `truncated (cancelled)` — still a structured
//!   response, never a silent drop) — and only then confirms.
//! * **One ordering rule.** A request naming dataset D observes every
//!   `load` of D submitted before it, and none submitted after it. The
//!   rule is enforced at dequeue (`State::take`): a worker takes the first
//!   queued job whose dataset has no `load` executing, and resolves that
//!   job's `Arc<Dataset>` in the same critical section. A held job waits
//!   in the queue like any other — it counts against `queue_capacity`, its
//!   deadline runs from submission, and `cancel` finds it.
//! * **Shared state with versioned invalidation.** Each resident dataset
//!   owns a [`PreparedCache`] (window passes) and a lazily built
//!   [`LabelPairIndex`] shared by `freq` requests. `load` replaces the
//!   whole entry under a bumped version: in-flight requests keep mining
//!   their pinned `Arc` snapshot, new requests see the new version, and
//!   the old caches die with their last reference.
//! * **Observability.** `stats` (no dataset) reports per-op acceptance
//!   counters, cumulative queue-wait and execute times, coalesce
//!   lead/rider counts, and queued segment depth alongside the original
//!   counters, so a load test can attribute latency to queueing vs work
//!   and prove coalescing happened.

use std::collections::{HashMap, HashSet, VecDeque};
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

use graphsig_core::{
    render_subgraphs, Budget, CacheDisposition, CancelToken, FsmBackend, GraphSigConfig,
    GraphSigResult, Outcome, PreparedCache,
};
use graphsig_fsg::{Fsg, FsgConfig};
use graphsig_graph::{parse_transactions_into, GraphDb, LabelPairIndex, MatcherKind};
use graphsig_gspan::{GSpan, MinerConfig, Pattern};

use crate::batch::{
    cancelled_mine_response, Coalescer, FlightCtx, Joined, MineKey, Rider, SweepFlight,
};
use crate::protocol::{
    parse_request, BackendKind, BudgetParams, FreqRequest, LoadFormat, LoadRequest, LoadSource,
    MineRequest, ProtocolError, Request, Response, Status, SweepRequest,
};

/// Tunables for one [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads processing queued requests (0 = one per core).
    pub workers: usize,
    /// Bounded queue capacity; submissions beyond it are rejected `busy`.
    pub queue_capacity: usize,
    /// Deadline applied to requests that do not ask for one (ms).
    pub default_timeout_ms: Option<u64>,
    /// Ceiling clamping every request deadline (ms). With
    /// `default_timeout_ms` unset this also applies to requests that did
    /// not ask for a deadline.
    pub max_timeout_ms: Option<u64>,
    /// Ceiling clamping *explicit* `max_steps` requests. Never imposed on
    /// requests without one: a blanket step budget would forfeit both
    /// byte-identity with the one-shot CLI and window-pass cache reuse
    /// (step-budgeted runs bypass the cache — see
    /// [`graphsig_core::cache`]).
    pub max_steps_ceiling: Option<u64>,
    /// Default drain deadline for shutdown (ms).
    pub drain_ms: u64,
    /// Honor the fault-injection request keys (`sleep_ms`, `inject=panic`).
    /// Off by default; smoke tests and CI turn it on.
    pub allow_inject: bool,
    /// Memory admission ceiling: `load`s that would push the approximate
    /// resident footprint (databases + prepared-window caches + built
    /// indexes) past this many bytes are rejected with a structured
    /// `code=resource_exhausted` error after LRU-evicting cold cache
    /// entries — the server never OOM-aborts on admission. `None`
    /// disables the governor.
    pub max_resident_bytes: Option<u64>,
    /// Connection auth token. When set, TCP connections must present it
    /// via `auth token=...` before any other op; stdio connections are
    /// exempt (local trust).
    pub auth_token: Option<String>,
    /// Emit one structured log line per completed request on stderr.
    pub log: bool,
    /// The store I/O seam every packed load goes through. Defaults to
    /// real I/O; the chaos harness swaps in a seeded fault plan.
    pub io: graphsig_store::Io,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            workers: 0,
            queue_capacity: 16,
            default_timeout_ms: None,
            max_timeout_ms: None,
            max_steps_ceiling: None,
            drain_ms: 5_000,
            allow_inject: false,
            max_resident_bytes: None,
            auth_token: None,
            log: false,
            io: graphsig_store::Io::real(),
        }
    }
}

/// Where responses go. Whole responses are written under the lock, so
/// concurrent workers interleave *responses*, never bytes.
pub type SharedWriter = Arc<Mutex<Box<dyn Write + Send>>>;

/// Wrap a sink as a [`SharedWriter`].
pub fn shared_writer(w: impl Write + Send + 'static) -> SharedWriter {
    Arc::new(Mutex::new(Box::new(w)))
}

/// One contiguous ingest segment of a dataset (a store shard, or one
/// text/generator load batch) with its lazily built slice of the
/// label-pair index. Slots are `Arc`-shared across `load append=`
/// versions: appending keeps every already-built segment index and only
/// the new graphs are ever indexed — per-shard, not wholesale,
/// invalidation.
struct IndexSlot {
    /// Graph index range within the dataset's db.
    range: std::ops::Range<usize>,
    index: OnceLock<Arc<LabelPairIndex>>,
}

impl IndexSlot {
    fn get(&self, db: &GraphDb) -> Arc<LabelPairIndex> {
        self.index
            .get_or_init(|| Arc::new(LabelPairIndex::build_range(db, self.range.clone())))
            .clone()
    }
}

/// Provenance of a dataset loaded from a packed store (`format=packed`).
/// Appends *merge* rather than replace this (see `exec_load`), so a
/// degraded store's quarantine disclosure survives later ingests.
#[derive(Clone)]
struct StoreInfo {
    /// Shards listed by the manifest(s) this dataset was assembled from.
    manifest_shards: usize,
    /// Shards quarantined by the lenient open (degraded when > 0).
    quarantined: usize,
    /// Bytes on disk across manifest and surviving shards.
    disk_bytes: u64,
    /// The (latest) store's ingest counter.
    store_version: u64,
}

/// One resident dataset version: the graphs plus every cache keyed to
/// exactly this data. Replaced on `load`; `append=true` carries the old
/// segment index slots into the new version.
pub(crate) struct Dataset {
    pub(crate) name: String,
    pub(crate) version: u64,
    pub(crate) db: Arc<GraphDb>,
    /// `db.approx_resident_bytes()`, computed once at load so admission
    /// checks never re-walk the graphs.
    db_bytes: u64,
    prepared: PreparedCache,
    /// Merged whole-dataset index, assembled from the slots on first use.
    index: OnceLock<Arc<LabelPairIndex>>,
    /// Per-segment lazy indexes, in deterministic segment (gid) order.
    slots: Vec<Arc<IndexSlot>>,
    /// Set when the dataset came (in part) from a packed store.
    store: Option<StoreInfo>,
}

impl Dataset {
    /// The shared label-pair index, built on first use by merging the
    /// per-segment indexes in segment order. Because segment ranges tile
    /// the db contiguously, the merge is exactly equal to a full build
    /// (unit-tested in `graphsig_graph::index`). The `OnceLock` is also
    /// the coalescing point for concurrent `freq`/`sweep` requests: the
    /// first builder runs alone, everyone else blocks briefly and shares
    /// the one build.
    fn index(&self) -> Arc<LabelPairIndex> {
        self.index
            .get_or_init(|| match self.slots.as_slice() {
                [] => Arc::new(LabelPairIndex::build(&self.db)),
                [only] => only.get(&self.db),
                slots => {
                    let parts: Vec<Arc<LabelPairIndex>> =
                        slots.iter().map(|s| s.get(&self.db)).collect();
                    let refs: Vec<&LabelPairIndex> = parts.iter().map(Arc::as_ref).collect();
                    Arc::new(LabelPairIndex::merge(&refs))
                }
            })
            .clone()
    }

    /// Approximate resident bytes this dataset version pins: the graphs,
    /// every initialized prepared-window cache entry, each built segment
    /// index, and the merged index (with its lazily compiled bitset
    /// database). Estimates, not an allocator audit — the governor's
    /// admission decisions only need relative magnitudes.
    fn resident_bytes(&self) -> u64 {
        let slots: u64 = self
            .slots
            .iter()
            .filter_map(|s| s.index.get())
            .map(|i| i.approx_resident_bytes())
            .sum();
        let merged = self.index.get().map_or(0, |i| i.approx_resident_bytes());
        self.db_bytes + self.prepared.approx_bytes() + slots + merged
    }

    /// `quarantined/total` when the backing store lost shards, else None.
    pub(crate) fn degraded(&self) -> Option<String> {
        match &self.store {
            Some(info) if info.quarantined > 0 => {
                Some(format!("{}/{}", info.quarantined, info.manifest_shards))
            }
            _ => None,
        }
    }
}

/// A queued unit of work.
struct Job {
    request: Request,
    out: SharedWriter,
    token: CancelToken,
    submitted: Instant,
}

/// One queued sweep threshold: everything needed to run `supports[idx]`
/// and, if last to finish, assemble the sweep response.
struct SegmentJob {
    flight: Arc<SweepFlight>,
    dataset: Arc<Dataset>,
    index: Arc<LabelPairIndex>,
    params: Arc<FreqParams>,
    budget: Budget,
    idx: usize,
}

/// What a worker can pick up. Whole requests outrank sweep segments so a
/// fanned-out sweep never starves fresh work (scheduling fairness).
enum Work {
    /// A request plus the resident version of the dataset it names, read
    /// when it was dequeued (`None`: it names none, or an unknown one).
    /// For a `load` this is the version an `append=true` extends.
    Request(Job, Option<Arc<Dataset>>),
    Segment(SegmentJob),
}

/// Everything the workers, the connection readers and `cancel` share,
/// behind [`ServerInner::state`] — the server's one lock.
///
/// The one lock rule: nothing writes a response, runs a handler, or
/// touches the store while holding it. Critical sections only move queue
/// entries, tokens, flights and `Arc`s, and take no other lock, so
/// lock-order deadlocks cannot occur.
#[derive(Default)]
struct State {
    jobs: VecDeque<Job>,
    /// Sweep segments, drained only when no job is eligible. Bounded by
    /// the threshold counts of accepted sweeps, not by `queue_capacity` —
    /// the capacity check already admitted the sweep as one request.
    segments: VecDeque<SegmentJob>,
    active: usize,
    datasets: HashMap<String, Arc<Dataset>>,
    /// Datasets with a `load` executing; jobs naming one stay queued.
    loading: HashSet<String>,
    /// Cancel tokens of every queued or executing request, by id.
    inflight: HashMap<String, CancelToken>,
    /// Single-flight registry for coalesced mine runs.
    coalescer: Coalescer,
}

impl State {
    /// Hand out the next unit of work. The ordering rule lives here and
    /// nowhere else: take the first queued job whose dataset has no
    /// `load` executing, mark a `load`'s dataset as loading, and resolve
    /// the job's dataset now. Jobs naming one dataset therefore start in
    /// submission order, and a `load` runs alone against its dataset.
    fn take(&mut self) -> Option<Work> {
        let loading = &self.loading;
        let pos = self
            .jobs
            .iter()
            .position(|j| j.request.dataset().is_none_or(|d| !loading.contains(d)));
        let work = match pos.and_then(|pos| self.jobs.remove(pos)) {
            Some(job) => {
                if let Request::Load(r) = &job.request {
                    self.loading.insert(r.dataset.clone());
                }
                let dataset = job
                    .request
                    .dataset()
                    .and_then(|d| self.datasets.get(d).cloned());
                Work::Request(job, dataset)
            }
            None => Work::Segment(self.segments.pop_front()?),
        };
        self.active += 1;
        Some(work)
    }

    fn idle(&self) -> bool {
        self.active == 0 && self.jobs.is_empty() && self.segments.is_empty()
    }
}

#[derive(Default)]
struct Counters {
    received: AtomicU64,
    served: AtomicU64,
    busy_rejected: AtomicU64,
    errors: AtomicU64,
    panics: AtomicU64,
    cancel_requests: AtomicU64,
    /// Prepared-cache entries evicted by the memory governor.
    evictions: AtomicU64,
    // Accepted (queued) submissions by op.
    op_load: AtomicU64,
    op_mine: AtomicU64,
    op_freq: AtomicU64,
    op_sweep: AtomicU64,
    op_stats: AtomicU64,
    /// Total microseconds requests spent queued before a worker picked
    /// them up (latency attribution: waiting vs working).
    queue_wait_us: AtomicU64,
    /// Total microseconds workers spent executing handlers and segments.
    exec_us: AtomicU64,
}

/// A point-in-time view of the server counters (smoke assertions, stats).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerSnapshot {
    /// Request lines received (including rejected and malformed ones).
    pub received: u64,
    /// Responses written for queued work (ok or error).
    pub served: u64,
    /// Submissions rejected with `status=busy`.
    pub busy_rejected: u64,
    /// Error responses (including panics and parse errors).
    pub errors: u64,
    /// Request handlers that panicked (isolated; server kept serving).
    pub panics: u64,
    /// Jobs currently queued.
    pub queued: usize,
    /// Jobs currently executing.
    pub active: usize,
    /// Sweep segments currently queued.
    pub segments: usize,
    /// Coalesced mine flights created (each ran the pipeline once).
    pub coalesce_leads: u64,
    /// Mine requests that attached to an in-flight run instead of
    /// executing (each is one whole pipeline run saved).
    pub coalesce_riders: u64,
    /// Cumulative queue wait across picked-up requests (µs).
    pub queue_wait_us: u64,
    /// Cumulative handler execution time (µs).
    pub exec_us: u64,
}

struct ServerInner {
    cfg: ServerConfig,
    state: Mutex<State>,
    /// Wakes workers when work is queued, a `load` finishes, or
    /// termination is flagged.
    work_cv: Condvar,
    /// Wakes the drain loop when the queue goes empty-and-idle.
    idle_cv: Condvar,
    /// Intake closed (shutdown requested).
    shutting_down: AtomicBool,
    /// Workers may exit once the queue is empty.
    terminated: AtomicBool,
    counters: Counters,
}

/// A running mining service. Workers start on construction; requests are
/// fed in as protocol lines via [`Server::dispatch_line`] or one of the
/// transport loops ([`Server::serve_connection`], the event-driven
/// [`crate::transport::serve`] behind `serve --tcp`).
pub struct Server {
    inner: Arc<ServerInner>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    // A worker panicking while holding a lock is already isolated by
    // try_par_map; a poisoned mutex here would only ever hold consistent
    // data, so recover rather than propagate.
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl Server {
    /// Start a server: spawns the worker pool immediately.
    pub fn new(cfg: ServerConfig) -> Self {
        let worker_count = graphsig_core::resolve_threads(cfg.workers);
        let inner = Arc::new(ServerInner {
            cfg,
            state: Mutex::new(State::default()),
            work_cv: Condvar::new(),
            idle_cv: Condvar::new(),
            shutting_down: AtomicBool::new(false),
            terminated: AtomicBool::new(false),
            counters: Counters::default(),
        });
        let workers = (0..worker_count)
            .map(|_| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || inner.worker_loop())
            })
            .collect();
        Server { inner, workers }
    }

    /// Feed one request line; any response is written to `out`. Returns
    /// `true` when the line was a completed `shutdown` — the caller should
    /// stop reading.
    pub fn dispatch_line(&self, line: &str, out: &SharedWriter) -> bool {
        self.inner.dispatch_line(line, out)
    }

    /// Whether connections must authenticate (`--auth-token` configured).
    pub fn requires_auth(&self) -> bool {
        self.inner.cfg.auth_token.is_some()
    }

    /// Feed one request line from a connection that may not have
    /// authenticated yet. Until `*authed` is true every op except a
    /// correct `auth` is rejected with `status=error code=unauthorized`
    /// (the connection stays open so the client can retry). A correct
    /// `auth` flips `*authed` for the rest of the connection. Used by the
    /// TCP transport; stdio uses [`Server::dispatch_line`] directly.
    pub fn dispatch_line_gated(&self, line: &str, authed: &mut bool, out: &SharedWriter) -> bool {
        if *authed {
            return self.inner.dispatch_line(line, out);
        }
        *authed = self.inner.gate_unauthenticated(line, out);
        false
    }

    /// Serve one connection: read request lines until EOF or shutdown.
    /// On EOF without a `shutdown` request the connection just closes;
    /// the server (and other connections) keep running.
    pub fn serve_connection(&self, reader: impl std::io::BufRead, out: SharedWriter) {
        for line in reader.lines() {
            let Ok(line) = line else { break };
            if self.inner.dispatch_line(&line, &out) {
                break;
            }
            if self.inner.terminated.load(Ordering::Relaxed) {
                break;
            }
        }
    }

    /// Whether a completed `shutdown` has terminated the worker pool.
    pub fn is_terminated(&self) -> bool {
        self.inner.terminated.load(Ordering::Relaxed)
    }

    /// Drain and stop without a client `shutdown` request (EOF on stdio,
    /// Ctrl-C handling, tests). Uses the configured drain deadline.
    pub fn shutdown_now(&self) {
        let drain = self.inner.cfg.drain_ms;
        self.inner.shutdown(drain);
    }

    /// Current counters.
    pub fn snapshot(&self) -> ServerSnapshot {
        self.inner.snapshot()
    }

    /// Wait for all workers to exit. Call after shutdown (a completed
    /// `shutdown` request or [`Server::shutdown_now`]).
    pub fn join(mut self) {
        // If nobody shut us down, do it now so join cannot hang.
        if !self.inner.terminated.load(Ordering::Relaxed) {
            self.shutdown_now();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if !self.inner.terminated.load(Ordering::Relaxed) {
            self.inner.shutdown(self.inner.cfg.drain_ms);
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl ServerInner {
    fn snapshot(&self) -> ServerSnapshot {
        let st = lock(&self.state);
        ServerSnapshot {
            received: self.counters.received.load(Ordering::Relaxed),
            served: self.counters.served.load(Ordering::Relaxed),
            busy_rejected: self.counters.busy_rejected.load(Ordering::Relaxed),
            errors: self.counters.errors.load(Ordering::Relaxed),
            panics: self.counters.panics.load(Ordering::Relaxed),
            queued: st.jobs.len(),
            active: st.active,
            segments: st.segments.len(),
            coalesce_leads: st.coalescer.leads,
            coalesce_riders: st.coalescer.riders,
            queue_wait_us: self.counters.queue_wait_us.load(Ordering::Relaxed),
            exec_us: self.counters.exec_us.load(Ordering::Relaxed),
        }
    }

    fn write_response(&self, out: &SharedWriter, resp: &Response) {
        if resp.status == Status::Error {
            self.counters.errors.fetch_add(1, Ordering::Relaxed);
        }
        let mut w = lock(out);
        let _ = w.write_all(resp.render().as_bytes());
        let _ = w.flush();
    }

    /// Complete one accepted request: release its id, count it, respond.
    /// The single completion path for solo requests, coalesced riders, and
    /// assembled sweeps. Removing the inflight entry is the claim — if the
    /// id is already gone (a cancel-detached rider whose leader then
    /// panicked, say), the exactly-one-response invariant holds by
    /// no-opping here rather than by every caller reasoning about races.
    fn finish(&self, id: &str, out: &SharedWriter, resp: &Response) {
        self.finish_as(id, out, resp, "solo", 0, 0);
    }

    /// [`ServerInner::finish`] with request-log attribution: how this
    /// request completed (`solo`, `lead`, `rider`, `sweep`) and its
    /// queue-wait / execution times where the completion path knows them
    /// (deferred completions — riders, sweep assembly — report zeros; the
    /// role field says why).
    fn finish_as(
        &self,
        id: &str,
        out: &SharedWriter,
        resp: &Response,
        role: &str,
        queue_wait_us: u64,
        exec_us: u64,
    ) {
        let claimed = lock(&self.state).inflight.remove(id).is_some();
        if !claimed {
            return;
        }
        self.counters.served.fetch_add(1, Ordering::Relaxed);
        self.log_request(resp, role, queue_wait_us, exec_us);
        self.write_response(out, resp);
    }

    /// One structured stderr line per completed request (`--log`).
    fn log_request(&self, resp: &Response, role: &str, queue_wait_us: u64, exec_us: u64) {
        if !self.cfg.log {
            return;
        }
        let f = |key: &str| resp.field(key).unwrap_or("-").to_string();
        eprintln!(
            "[graphsig] op={} id={} status={} dataset={} version={} degraded={} \
             completion={} role={role} queue_wait_us={queue_wait_us} exec_us={exec_us}",
            crate::protocol::escape(&resp.op),
            crate::protocol::escape(&resp.id),
            match resp.status {
                Status::Ok => "ok",
                Status::Error => "error",
                Status::Busy => "busy",
            },
            f("dataset"),
            f("version"),
            f("degraded"),
            f("completion"),
        );
    }

    /// Handle one line from a connection that has not authenticated.
    /// Returns the connection's new authed state. Everything except a
    /// correct `auth` gets `status=error code=unauthorized`; op and id are
    /// echoed where the line parses so the client can correlate.
    fn gate_unauthenticated(&self, line: &str, out: &SharedWriter) -> bool {
        let parsed = match parse_request(line) {
            Ok(None) => return false, // blank / comment
            Ok(Some(req)) => req,
            Err(ProtocolError { id, .. }) => {
                self.counters.received.fetch_add(1, Ordering::Relaxed);
                let id = id.as_deref().unwrap_or("-");
                self.write_response(
                    out,
                    &Response::error(id, "?", "authenticate first (auth token=...)")
                        .with_field("code", "unauthorized"),
                );
                return false;
            }
        };
        self.counters.received.fetch_add(1, Ordering::Relaxed);
        match &parsed {
            Request::Auth { id, token } => {
                let ok = self.cfg.auth_token.as_deref() == Some(token.as_str());
                if ok {
                    self.write_response(
                        out,
                        &Response::new(id, "auth", Status::Ok).with_field("authorized", true),
                    );
                } else {
                    self.write_response(
                        out,
                        &Response::error(id, "auth", "bad token")
                            .with_field("code", "unauthorized"),
                    );
                }
                ok
            }
            other => {
                self.write_response(
                    out,
                    &Response::error(
                        other.id(),
                        other.op(),
                        "authenticate first (auth token=...)",
                    )
                    .with_field("code", "unauthorized"),
                );
                false
            }
        }
    }

    fn dispatch_line(&self, line: &str, out: &SharedWriter) -> bool {
        let request = match parse_request(line) {
            Ok(None) => return false, // blank / comment
            Ok(Some(req)) => req,
            Err(ProtocolError { message, id }) => {
                self.counters.received.fetch_add(1, Ordering::Relaxed);
                let id = id.as_deref().unwrap_or("-");
                self.write_response(out, &Response::error(id, "?", message));
                return false;
            }
        };
        self.counters.received.fetch_add(1, Ordering::Relaxed);
        match &request {
            Request::Ping { id } => {
                self.write_response(out, &Response::new(id, "ping", Status::Ok));
                false
            }
            Request::Auth { id, token } => {
                // Reaching here means the connection is already trusted
                // (stdio, or a TCP connection past its gate). Re-auth is
                // validated anyway so a client can probe its token.
                match &self.cfg.auth_token {
                    Some(expected) if expected != token => self.write_response(
                        out,
                        &Response::error(id, "auth", "bad token")
                            .with_field("code", "unauthorized"),
                    ),
                    _ => self.write_response(
                        out,
                        &Response::new(id, "auth", Status::Ok).with_field("authorized", true),
                    ),
                }
                false
            }
            Request::Cancel { id, target } => {
                self.counters
                    .cancel_requests
                    .fetch_add(1, Ordering::Relaxed);
                let (found, detached) = {
                    let mut st = lock(&self.state);
                    let found = st.inflight.get(target).map(CancelToken::cancel).is_some();
                    // If the target rides a coalesced flight, detach it so
                    // it responds `truncated (cancelled)` right now; the
                    // shared run keeps going for the remaining riders (and
                    // is cancelled outright when none remain).
                    let detached = if found {
                        st.coalescer.on_cancel(target)
                    } else {
                        None
                    };
                    (found, detached)
                };
                if let Some((rider, ctx)) = detached {
                    let resp = cancelled_mine_response(
                        &rider.id,
                        &ctx.dataset,
                        ctx.version,
                        ctx.degraded.as_deref(),
                    );
                    self.finish_as(&rider.id, &rider.out, &resp, "rider", 0, 0);
                }
                self.write_response(
                    out,
                    &Response::new(id, "cancel", Status::Ok)
                        .with_field("target", target)
                        .with_field("found", found),
                );
                false
            }
            Request::Shutdown { id, drain_ms } => {
                let drain = drain_ms.unwrap_or(self.cfg.drain_ms);
                let forced = self.shutdown(drain);
                self.write_response(
                    out,
                    &Response::new(id, "shutdown", Status::Ok)
                        .with_field("served", self.counters.served.load(Ordering::Relaxed))
                        .with_field("forced", forced),
                );
                true
            }
            Request::Load(_)
            | Request::Mine(_)
            | Request::Freq(_)
            | Request::Sweep(_)
            | Request::Stats { .. } => {
                self.submit(request, out);
                false
            }
        }
    }

    /// Queue a work request, or reject it (`busy` / shutdown / duplicate).
    fn submit(&self, request: Request, out: &SharedWriter) {
        let (id, op) = (request.id().to_string(), request.op());
        if self.shutting_down.load(Ordering::Relaxed) {
            self.write_response(out, &Response::error(&id, op, "server is shutting down"));
            return;
        }
        let mut st = lock(&self.state);
        if st.jobs.len() >= self.cfg.queue_capacity {
            // Rejected before the id is ever registered: a racing `cancel`
            // for a busy-rejected request always reports found=false.
            let depth = st.jobs.len();
            drop(st);
            self.counters.busy_rejected.fetch_add(1, Ordering::Relaxed);
            self.write_response(
                out,
                &Response::new(&id, op, Status::Busy)
                    .with_field("queue", depth)
                    .with_field("capacity", self.cfg.queue_capacity),
            );
            return;
        }
        if st.inflight.contains_key(&id) {
            drop(st);
            self.write_response(
                out,
                &Response::error(&id, op, format!("request id '{id}' already in flight")),
            );
            return;
        }
        // Registered in the same critical section that queues the job, so
        // the admitted id exists before any worker could complete it.
        let token = CancelToken::new();
        st.inflight.insert(id.clone(), token.clone());
        self.count_op(op);
        st.jobs.push_back(Job {
            request,
            out: Arc::clone(out),
            token,
            submitted: Instant::now(),
        });
        drop(st);
        self.work_cv.notify_one();
    }

    fn count_op(&self, op: &str) {
        let counter = match op {
            "load" => &self.counters.op_load,
            "mine" => &self.counters.op_mine,
            "freq" => &self.counters.op_freq,
            "sweep" => &self.counters.op_sweep,
            "stats" => &self.counters.op_stats,
            _ => return,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    fn worker_loop(&self) {
        loop {
            let work = {
                let mut st = lock(&self.state);
                loop {
                    // Whole requests first: sweep segments are the one kind
                    // of work that arrives in bulk, so they yield to fresh
                    // requests (fairness under fan-out).
                    if let Some(work) = st.take() {
                        break work;
                    }
                    if self.terminated.load(Ordering::Relaxed) {
                        return;
                    }
                    st = self.work_cv.wait(st).unwrap_or_else(|e| e.into_inner());
                }
            };
            match work {
                Work::Request(job, dataset) => self.process(job, dataset),
                Work::Segment(seg) => self.process_segment(seg),
            }
            let mut st = lock(&self.state);
            st.active -= 1;
            if st.idle() {
                self.idle_cv.notify_all();
            }
        }
    }

    /// Execute one job with panic isolation and always respond — directly,
    /// or through whichever deferred path (`finish` by a coalescing leader
    /// or a last sweep segment) the handler armed.
    fn process(&self, job: Job, dataset: Option<Arc<Dataset>>) {
        let Job {
            request,
            out,
            token,
            submitted,
        } = job;
        let (id, op) = (request.id().to_string(), request.op());
        let waited_us = submitted.elapsed().as_micros() as u64;
        self.counters
            .queue_wait_us
            .fetch_add(waited_us, Ordering::Relaxed);
        let exec_started = Instant::now();
        // try_par_map with a single item runs inline under catch_unwind:
        // a panicking handler yields a structured error, not a dead worker.
        let result = graphsig_core::try_par_map(1, std::slice::from_ref(&request), |req| {
            self.execute(req, dataset.clone(), &token, submitted, &out)
        });
        let exec_us = exec_started.elapsed().as_micros() as u64;
        self.counters.exec_us.fetch_add(exec_us, Ordering::Relaxed);
        match result {
            // `None` means deferred: this request attached to a coalesced
            // run, led one (and already finished every rider), or fanned
            // out into sweep segments. Someone else owns the response.
            Ok(mut v) => {
                if let Some(resp) = v.pop().flatten() {
                    self.finish_as(&id, &out, &resp, "solo", waited_us, exec_us);
                }
            }
            Err(panicked) => {
                self.counters.panics.fetch_add(1, Ordering::Relaxed);
                let msg = format!("request handler panicked: {}", panicked.message);
                // A panicking leader takes its whole flight down: every
                // rider gets the error, none is left waiting forever.
                let riders = lock(&self.state).coalescer.fail_leader(&id);
                match riders {
                    Some(riders) => {
                        for rider in riders {
                            let resp = Response::error(&rider.id, op, msg.clone());
                            let role = if rider.id == id { "lead" } else { "rider" };
                            self.finish_as(&rider.id, &rider.out, &resp, role, 0, 0);
                        }
                    }
                    None => self.finish(&id, &out, &Response::error(&id, op, msg)),
                }
            }
        }
        if let Request::Load(r) = &request {
            // The load committed or failed: jobs held behind it may run.
            lock(&self.state).loading.remove(&r.dataset);
            self.work_cv.notify_all();
        }
    }

    /// Run one sweep segment; the last segment to finish assembles and
    /// writes the sweep response.
    fn process_segment(&self, seg: SegmentJob) {
        let exec_started = Instant::now();
        let result = graphsig_core::try_par_map(1, std::slice::from_ref(&seg), |s| {
            run_freq(
                &s.dataset.db,
                &s.index,
                s.flight.supports[s.idx],
                &s.params,
                s.budget.clone(),
            )
        });
        self.counters
            .exec_us
            .fetch_add(exec_started.elapsed().as_micros() as u64, Ordering::Relaxed);
        let outcome = match result {
            Ok(mut v) => Ok(v.pop().expect("one segment in, one outcome out")),
            Err(panicked) => {
                self.counters.panics.fetch_add(1, Ordering::Relaxed);
                Err(panicked.message)
            }
        };
        if !seg.flight.record(seg.idx, outcome) {
            return;
        }
        let flight = &seg.flight;
        let resp = match flight.assemble(|patterns| render_patterns(&seg.dataset.db, patterns)) {
            Err(msg) => Response::error(
                &flight.id,
                "sweep",
                format!("request handler panicked: {msg}"),
            ),
            Ok((completion, total, payload)) => with_degraded(
                Response::new(&flight.id, "sweep", Status::Ok)
                    .with_field("dataset", &seg.dataset.name)
                    .with_field("version", seg.dataset.version),
                &seg.dataset,
            )
            .with_field("completion", completion)
            .with_field("supports", flight.supports.len())
            .with_field("patterns", total)
            .with_field("index_types", seg.index.len())
            .with_payload(payload),
        };
        self.finish_as(&flight.id, &flight.out, &resp, "sweep", 0, 0);
    }

    /// Stop intake and drain. Returns whether the drain deadline forced
    /// cancellation of remaining work.
    fn shutdown(&self, drain_ms: u64) -> bool {
        self.shutting_down.store(true, Ordering::Relaxed);
        let deadline = Instant::now() + Duration::from_millis(drain_ms);
        let mut forced = false;
        let mut st = lock(&self.state);
        while !st.idle() {
            if !forced && Instant::now() >= deadline {
                // Drain deadline passed: cancel everything still in
                // flight. Each cancelled request still gets a structured
                // `truncated (cancelled)` response — then we keep waiting
                // (cooperative cancellation is fast but not instant).
                for token in st.inflight.values() {
                    token.cancel();
                }
                // Coalesced runs listen to their *group* token, which only
                // falls when every rider cancels through `cancel`; a
                // forced drain fells them all directly.
                st.coalescer.cancel_all();
                forced = true;
            }
            let wait = if forced {
                Duration::from_millis(50)
            } else {
                deadline
                    .saturating_duration_since(Instant::now())
                    .min(Duration::from_millis(50))
                    .max(Duration::from_millis(1))
            };
            let (guard, _) = self
                .idle_cv
                .wait_timeout(st, wait)
                .unwrap_or_else(|e| e.into_inner());
            st = guard;
        }
        drop(st);
        self.terminated.store(true, Ordering::Relaxed);
        self.work_cv.notify_all();
        forced
    }

    /// Build the effective budget for a request: request limits clamped by
    /// server ceilings, deadline measured from submission, and always the
    /// given cancel token (a request's own, or a coalesced group's).
    fn budget_for(&self, params: &BudgetParams, token: &CancelToken, submitted: Instant) -> Budget {
        let mut budget = Budget::unlimited().with_cancel(token.clone());
        let timeout_ms = params.timeout_ms.or(self.cfg.default_timeout_ms);
        let timeout_ms = match (timeout_ms, self.cfg.max_timeout_ms) {
            (Some(t), Some(ceiling)) => Some(t.min(ceiling)),
            (None, ceiling) => ceiling,
            (t, None) => t,
        };
        if let Some(ms) = timeout_ms {
            budget = budget.with_deadline_at(submitted + Duration::from_millis(ms));
        }
        let max_steps = match (params.max_steps, self.cfg.max_steps_ceiling) {
            (Some(s), Some(ceiling)) => Some(s.min(ceiling)),
            (s, _) => s,
        };
        if let Some(steps) = max_steps {
            budget = budget.with_max_steps(steps);
        }
        budget
    }

    /// Every resident dataset except `except`, cloned out of the lock so
    /// callers can walk their caches unlocked.
    fn resident_except(&self, except: Option<&str>) -> Vec<Arc<Dataset>> {
        lock(&self.state)
            .datasets
            .values()
            .filter(|d| Some(d.name.as_str()) != except)
            .cloned()
            .collect()
    }

    /// Evict one cold prepared-cache entry under memory pressure: the
    /// least-recently-used initialized entry of whichever dataset frees
    /// the most bytes (deterministic name tiebreak). Returns the bytes
    /// freed, or `None` when no dataset has an evictable entry left.
    fn evict_coldest_prepared(&self, except: &str) -> Option<u64> {
        let mut candidates = self.resident_except(Some(except));
        candidates.sort_by(|a, b| {
            b.prepared
                .approx_bytes()
                .cmp(&a.prepared.approx_bytes())
                .then_with(|| a.name.cmp(&b.name))
        });
        for d in candidates {
            if let Some(freed) = d.prepared.evict_lru() {
                self.counters.evictions.fetch_add(1, Ordering::Relaxed);
                return Some(freed);
            }
        }
        None
    }

    /// Run one request. `Some` is the response for *this* request id;
    /// `None` means the handler deferred — it attached to a coalesced run,
    /// led one and already responded to every rider via `finish`, or
    /// queued sweep segments that will.
    fn execute(
        &self,
        request: &Request,
        dataset: Option<Arc<Dataset>>,
        token: &CancelToken,
        submitted: Instant,
        out: &SharedWriter,
    ) -> Option<Response> {
        // Every handler runs against the version `State::take` resolved.
        let resolved = |name: &str| dataset.clone().ok_or_else(|| unknown_dataset(name));
        match request {
            Request::Load(r) => Some(self.exec_load(r, dataset.clone())),
            Request::Mine(r) => self.exec_mine(r, resolved(&r.dataset), token, submitted, out),
            Request::Freq(r) => Some(self.exec_freq(r, resolved(&r.dataset), token, submitted)),
            Request::Sweep(r) => self.exec_sweep(r, resolved(&r.dataset), token, submitted, out),
            Request::Stats { id, dataset: name } => Some(match name.as_deref().map(resolved) {
                None => self.exec_stats(id),
                Some(Ok(d)) => dataset_stats(id, &d),
                Some(Err(e)) => Response::error(id, "stats", e),
            }),
            // Control ops never reach the queue.
            other => Some(Response::error(
                other.id(),
                other.op(),
                "internal: control op queued",
            )),
        }
    }

    fn exec_load(&self, r: &LoadRequest, current: Option<Arc<Dataset>>) -> Response {
        let started = Instant::now();
        // Appends extend the current version's graphs and keep its built
        // segment indexes; a plain load starts from nothing.
        let prior = match (r.append, current) {
            (false, _) => None,
            (true, Some(d)) => Some(d),
            (true, None) => {
                let e = unknown_dataset(&r.dataset);
                return Response::error(&r.id, "load", format!("append failed: {e}"));
            }
        };
        let mut db = match &prior {
            Some(d) => (*d.db).clone(),
            None => GraphDb::new(),
        };
        let base_len = db.len();
        let mut store = None;
        // Transient-fault retries spent on this load's store I/O.
        let mut retries: Option<u64> = None;
        // Shard boundaries of this load's packed ingest (absolute gids),
        // so appended shards get per-shard slots exactly like fresh ones.
        let mut shard_ranges: Option<Vec<std::ops::Range<usize>>> = None;
        match (&r.source, r.format) {
            (LoadSource::Path(path), LoadFormat::Text) => {
                let text = match std::fs::read_to_string(path) {
                    Ok(t) => t,
                    Err(e) => {
                        return Response::error(&r.id, "load", format!("cannot read {path}: {e}"))
                    }
                };
                if let Err(e) = parse_transactions_into(&mut db, &text) {
                    return Response::error(&r.id, "load", format!("{path}: {e}"));
                }
            }
            (LoadSource::Path(path), LoadFormat::Packed) => {
                // Lenient open through the server's I/O seam: damaged
                // shards are quarantined (moved aside, reported) and the
                // dataset serves the survivors in an explicitly degraded
                // state; transient faults are retried with backoff and
                // surface only as a `retries=` count on the response.
                let retries_before = self.cfg.io.retries();
                let opened = match graphsig_store::open_lenient_with(
                    std::path::Path::new(path),
                    &self.cfg.io,
                ) {
                    Ok(o) => o,
                    Err(e) => return Response::error(&r.id, "load", e.to_string()),
                };
                retries = Some(self.cfg.io.retries() - retries_before);
                store = Some(StoreInfo {
                    manifest_shards: opened.manifest.shards.len(),
                    quarantined: opened.report.quarantined.len(),
                    disk_bytes: opened.disk_bytes(),
                    store_version: opened.manifest.store_version,
                });
                // Surviving shards tile the opened db contiguously; offset
                // by base_len they tile the tail of the combined db.
                shard_ranges = Some(
                    opened
                        .shards
                        .iter()
                        .map(|s| base_len + s.db_start..base_len + s.db_start + s.graph_count)
                        .collect(),
                );
                if prior.is_some() {
                    db.absorb(&opened.db);
                } else {
                    db = opened.db;
                }
            }
            (LoadSource::AidsLike { count, seed }, _) => {
                let gen = graphsig_datagen::aids_like(*count, *seed).db;
                if prior.is_some() {
                    db.absorb(&gen);
                } else {
                    db = gen;
                }
            }
        }
        let graphs = db.len();
        let loaded = graphs - base_len;
        // Store provenance survives appends: a text/generator append onto
        // a packed dataset keeps the prior quarantine disclosure, and a
        // packed append merges shard/quarantine counts — `degraded=` never
        // silently disappears while quarantined data is still being served.
        let store = match (prior.as_ref().and_then(|d| d.store.as_ref()), store) {
            (None, current) => current,
            (Some(prior_info), None) => Some(prior_info.clone()),
            (Some(prior_info), Some(current)) => Some(StoreInfo {
                manifest_shards: prior_info.manifest_shards + current.manifest_shards,
                quarantined: prior_info.quarantined + current.quarantined,
                disk_bytes: prior_info.disk_bytes + current.disk_bytes,
                store_version: current.store_version,
            }),
        };
        // Segment slots: appended datasets keep the prior version's slots
        // (their built indexes stay valid — old graphs and label ids are
        // untouched) and gain one slot per new shard (packed) or one slot
        // for the new batch (text/generator), so later invalidation stays
        // shard-grained no matter how the dataset was assembled.
        let mut slots: Vec<Arc<IndexSlot>> =
            prior.as_ref().map_or_else(Vec::new, |d| d.slots.clone());
        if let Some(ranges) = shard_ranges {
            slots.extend(ranges.into_iter().map(|range| {
                Arc::new(IndexSlot {
                    range,
                    index: OnceLock::new(),
                })
            }));
        } else if loaded > 0 || slots.is_empty() {
            slots.push(Arc::new(IndexSlot {
                range: base_len..graphs,
                index: OnceLock::new(),
            }));
        }
        let store_fields = store.as_ref().map(|s| {
            (
                s.manifest_shards - s.quarantined,
                s.quarantined,
                s.disk_bytes,
                s.store_version,
            )
        });
        let degraded = store
            .as_ref()
            .filter(|s| s.quarantined > 0)
            .map(|s| format!("{}/{}", s.quarantined, s.manifest_shards));
        let db_bytes = db.approx_resident_bytes();
        // Memory admission: would making this version resident push the
        // server past its ceiling? Cold prepared-cache entries are LRU
        // evicted first; if the graphs alone still do not fit, the load is
        // rejected with a structured error — the server never OOM-aborts
        // and the previous dataset version (if any) keeps serving.
        if let Some(max) = self.cfg.max_resident_bytes {
            // The version this load replaces is freed by the replacement,
            // so it does not count against the new one.
            let mut resident: u64 = self
                .resident_except(Some(&r.dataset))
                .iter()
                .map(|d| d.resident_bytes())
                .sum();
            while resident + db_bytes > max {
                match self.evict_coldest_prepared(&r.dataset) {
                    Some(freed) => resident = resident.saturating_sub(freed),
                    None => break,
                }
            }
            if resident + db_bytes > max {
                return Response::error(
                    &r.id,
                    "load",
                    format!(
                        "resident ceiling exceeded: loading {db_bytes} bytes over \
                         {resident} resident would pass max_resident_bytes={max}"
                    ),
                )
                .with_field("code", "resource_exhausted")
                .with_field("requested_bytes", db_bytes)
                .with_field("resident_bytes", resident)
                .with_field("max_resident_bytes", max);
            }
        }
        let version = {
            let mut st = lock(&self.state);
            let version = st.datasets.get(&r.dataset).map_or(1, |d| d.version + 1);
            // Versioned invalidation: the new Arc replaces the old entry;
            // requests already holding the old version finish against it,
            // and its caches are freed with the last reference.
            st.datasets.insert(
                r.dataset.clone(),
                Arc::new(Dataset {
                    name: r.dataset.clone(),
                    version,
                    db: Arc::new(db),
                    db_bytes,
                    prepared: PreparedCache::new(),
                    index: OnceLock::new(),
                    slots,
                    store,
                }),
            );
            version
        };
        let mut resp = Response::new(&r.id, "load", Status::Ok)
            .with_field("dataset", &r.dataset)
            .with_field("version", version)
            .with_field("graphs", graphs)
            .with_field("loaded", loaded)
            .with_field("resident_bytes", db_bytes)
            .with_field("parse_ms", started.elapsed().as_millis());
        if let Some(n) = retries {
            resp = resp.with_field("retries", n);
        }
        if let Some((shards, quarantined, disk_bytes, store_version)) = store_fields {
            resp = resp
                .with_field("shards", shards)
                .with_field("quarantined", quarantined)
                .with_field("disk_bytes", disk_bytes)
                .with_field("store_version", store_version);
        }
        if let Some(d) = degraded {
            resp = resp.with_field("degraded", d);
        }
        resp
    }

    /// `mine`: coalescing entry point. Unbudgeted requests single-flight
    /// on [`MineKey`]; the leader runs once and responds to every rider.
    fn exec_mine(
        &self,
        r: &MineRequest,
        dataset: Result<Arc<Dataset>, String>,
        token: &CancelToken,
        submitted: Instant,
        out: &SharedWriter,
    ) -> Option<Response> {
        if (r.inject_panic || r.sleep_ms.is_some()) && !self.cfg.allow_inject {
            return Some(Response::error(
                &r.id,
                "mine",
                "fault-injection keys are disabled",
            ));
        }
        let dataset = match dataset {
            Ok(d) => d,
            Err(e) => return Some(Response::error(&r.id, "mine", e)),
        };
        let defaults = GraphSigConfig::default();
        let cfg = GraphSigConfig {
            max_pvalue: r.max_pvalue.unwrap_or(defaults.max_pvalue),
            min_freq: r.min_freq.unwrap_or(defaults.min_freq),
            radius: r.radius.unwrap_or(defaults.radius),
            fsm_freq: r.fsm_freq.unwrap_or(defaults.fsm_freq),
            threads: r.threads.unwrap_or(defaults.threads),
            fsm_backend: match r.backend {
                None | Some(BackendKind::Fsg) => FsmBackend::Fsg,
                Some(BackendKind::GSpan) => FsmBackend::GSpan,
            },
            matcher: r.matcher.unwrap_or_default(),
            ..defaults
        };
        if let Err(e) = cfg.check() {
            // GraphSig::new panics on these; reject structured instead.
            return Some(Response::error(&r.id, "mine", e));
        }
        let top = r.top.unwrap_or(usize::MAX);
        let degraded = dataset.degraded();
        // Cancelled while queued: respond now. Without this, a cancelled
        // request could still lead a flight under a fresh group token and
        // mine to completion as if the cancel never happened.
        if token.is_cancelled() {
            return Some(cancelled_mine_response(
                &r.id,
                &dataset.name,
                dataset.version,
                degraded.as_deref(),
            ));
        }
        if r.budget.timeout_ms.is_some() || r.budget.max_steps.is_some() {
            // Explicit budgets run solo: a step budget is a determinism
            // contract with this request, and a deadline anchors to this
            // request's own submission instant.
            let budget = self.budget_for(&r.budget, token, submitted);
            return Some(match self.run_mine(r, &cfg, budget, token, &dataset) {
                MineRun::Cancelled => cancelled_mine_response(
                    &r.id,
                    &dataset.name,
                    dataset.version,
                    degraded.as_deref(),
                ),
                MineRun::Done(outcome, disposition) => {
                    mine_response(&r.id, &dataset, &outcome, disposition, top)
                }
            });
        }
        let key = MineKey::of(&dataset.name, dataset.version, &cfg, r);
        let rider = Rider {
            id: r.id.clone(),
            out: Arc::clone(out),
            top,
        };
        let ctx = FlightCtx {
            dataset: dataset.name.clone(),
            version: dataset.version,
            degraded: degraded.clone(),
        };
        let joined = lock(&self.state).coalescer.join(&key, rider, ctx);
        match joined {
            // An identical run is in flight; its leader answers for us.
            // This worker is free immediately — riders cost no execution.
            Joined::Attached => None,
            Joined::Lead { group } => {
                // Run under the *group* token (falls only when every rider
                // cancels, or on forced drain). Server default ceilings
                // still apply, anchored to the leader's submission.
                let budget = self.budget_for(&r.budget, &group, submitted);
                let waited_us = submitted.elapsed().as_micros() as u64;
                let run_started = Instant::now();
                let run = self.run_mine(r, &cfg, budget, &group, &dataset);
                let exec_us = run_started.elapsed().as_micros() as u64;
                // Closing the flight is the linearization point: riders
                // collected here get their response below; a cancel racing
                // past it finds no flight and the rider responds normally.
                let riders = lock(&self.state).coalescer.finish(&key);
                let role_of = |rider: &Rider| if rider.id == r.id { "lead" } else { "rider" };
                let times_of = |rider: &Rider| {
                    if rider.id == r.id {
                        (waited_us, exec_us)
                    } else {
                        (0, 0)
                    }
                };
                match run {
                    MineRun::Cancelled => {
                        for rider in riders {
                            let resp = cancelled_mine_response(
                                &rider.id,
                                &dataset.name,
                                dataset.version,
                                degraded.as_deref(),
                            );
                            let (w, e) = times_of(&rider);
                            self.finish_as(&rider.id, &rider.out, &resp, role_of(&rider), w, e);
                        }
                    }
                    MineRun::Done(outcome, disposition) => {
                        for rider in riders {
                            let resp = mine_response(
                                &rider.id,
                                &dataset,
                                &outcome,
                                disposition,
                                rider.top,
                            );
                            let (w, e) = times_of(&rider);
                            self.finish_as(&rider.id, &rider.out, &resp, role_of(&rider), w, e);
                        }
                    }
                }
                None
            }
        }
    }

    /// The governed pipeline run shared by solo and coalesced mines.
    /// Fault injection happens here, under the run's own token, so an
    /// injected sleep is cancellable exactly like real work — and its
    /// cancelled response carries the same dataset fields as any other.
    fn run_mine(
        &self,
        r: &MineRequest,
        cfg: &GraphSigConfig,
        budget: Budget,
        token: &CancelToken,
        dataset: &Dataset,
    ) -> MineRun {
        if let Some(ms) = r.sleep_ms {
            if !sleep_cancellable(ms, token) {
                return MineRun::Cancelled;
            }
        }
        if r.inject_panic {
            panic!("injected fault (inject=panic)");
        }
        let cfg = GraphSigConfig {
            budget: Some(budget),
            ..cfg.clone()
        };
        let (outcome, disposition) = dataset.prepared.mine_outcome(&cfg, &dataset.db);
        MineRun::Done(outcome, disposition)
    }

    fn exec_freq(
        &self,
        r: &FreqRequest,
        dataset: Result<Arc<Dataset>, String>,
        token: &CancelToken,
        submitted: Instant,
    ) -> Response {
        let dataset = match dataset {
            Ok(d) => d,
            Err(e) => return Response::error(&r.id, "freq", e),
        };
        if r.min_support == 0 {
            return Response::error(&r.id, "freq", "min_support must be >= 1");
        }
        let budget = self.budget_for(&r.budget, token, submitted);
        let index = dataset.index();
        let params = FreqParams {
            backend: r.backend,
            matcher: r.matcher.unwrap_or_default(),
            max_edges: r.max_edges.unwrap_or(8),
            max_patterns: r.max_patterns.unwrap_or(10_000),
            threads: r.threads.unwrap_or(0),
        };
        let outcome = run_freq(&dataset.db, &index, r.min_support, &params, budget);
        let payload = render_patterns(&dataset.db, &outcome.result);
        with_degraded(
            Response::new(&r.id, "freq", Status::Ok)
                .with_field("dataset", &dataset.name)
                .with_field("version", dataset.version),
            &dataset,
        )
        .with_field("completion", outcome.completion)
        .with_field("patterns", outcome.result.len())
        .with_field("index_types", index.len())
        .with_payload(payload)
    }

    /// `sweep`: validate, then fan the thresholds out as individually
    /// queued segments (lower priority than whole requests) and return.
    /// The last segment to finish assembles and writes the response.
    fn exec_sweep(
        &self,
        r: &SweepRequest,
        dataset: Result<Arc<Dataset>, String>,
        token: &CancelToken,
        submitted: Instant,
        out: &SharedWriter,
    ) -> Option<Response> {
        let dataset = match dataset {
            Ok(d) => d,
            Err(e) => return Some(Response::error(&r.id, "sweep", e)),
        };
        if r.supports.is_empty() {
            return Some(Response::error(
                &r.id,
                "sweep",
                "supports must name at least one threshold",
            ));
        }
        if r.supports.contains(&0) {
            return Some(Response::error(
                &r.id,
                "sweep",
                "every support must be >= 1",
            ));
        }
        // One budget governs the whole sweep: the deadline spans every
        // threshold, cancelling the sweep's token stops every segment, and
        // step allowances stay per-work-unit (each segment clones the
        // budget, so unbudgeted sweeps match individual calls).
        let budget = self.budget_for(&r.budget, token, submitted);
        // One index build (and one lazily compiled bitset database hanging
        // off it) shared by every threshold — the whole point of the op.
        let index = dataset.index();
        let params = Arc::new(FreqParams {
            backend: r.backend,
            matcher: r.matcher.unwrap_or_default(),
            max_edges: r.max_edges.unwrap_or(8),
            max_patterns: r.max_patterns.unwrap_or(10_000),
            threads: r.threads.unwrap_or(0),
        });
        let flight = Arc::new(SweepFlight::new(
            r.id.clone(),
            Arc::clone(out),
            r.supports.clone(),
        ));
        {
            let mut st = lock(&self.state);
            for idx in 0..flight.supports.len() {
                st.segments.push_back(SegmentJob {
                    flight: Arc::clone(&flight),
                    dataset: Arc::clone(&dataset),
                    index: Arc::clone(&index),
                    params: Arc::clone(&params),
                    budget: budget.clone(),
                    idx,
                });
            }
        }
        self.work_cv.notify_all();
        None
    }

    /// Global `stats`: server counters plus residency.
    fn exec_stats(&self, id: &str) -> Response {
        let snap = self.snapshot();
        let resident = self.resident_except(None);
        let mut resp = Response::new(id, "stats", Status::Ok)
            .with_field("datasets", resident.len())
            .with_field("received", snap.received)
            .with_field("served", snap.served)
            .with_field("busy_rejected", snap.busy_rejected)
            .with_field("errors", snap.errors)
            .with_field("panics", snap.panics)
            .with_field("queued", snap.queued)
            .with_field("active", snap.active)
            .with_field("queue_capacity", self.cfg.queue_capacity)
            .with_field("workers", graphsig_core::resolve_threads(self.cfg.workers))
            .with_field("segments_queued", snap.segments)
            .with_field("coalesce_leads", snap.coalesce_leads)
            .with_field("coalesce_riders", snap.coalesce_riders)
            .with_field("queue_wait_us", snap.queue_wait_us)
            .with_field("exec_us", snap.exec_us)
            .with_field("op_load", self.counters.op_load.load(Ordering::Relaxed))
            .with_field("op_mine", self.counters.op_mine.load(Ordering::Relaxed))
            .with_field("op_freq", self.counters.op_freq.load(Ordering::Relaxed))
            .with_field("op_sweep", self.counters.op_sweep.load(Ordering::Relaxed))
            .with_field("op_stats", self.counters.op_stats.load(Ordering::Relaxed))
            .with_field(
                "resident_bytes",
                resident.iter().map(|d| d.resident_bytes()).sum::<u64>(),
            )
            .with_field("evictions", self.counters.evictions.load(Ordering::Relaxed))
            .with_field("store_retries", self.cfg.io.retries());
        if let Some(max) = self.cfg.max_resident_bytes {
            resp = resp.with_field("max_resident_bytes", max);
        }
        resp
    }
}

/// `stats dataset=D`: one resident version's shape, caches and store
/// provenance.
fn dataset_stats(id: &str, d: &Dataset) -> Response {
    let s = d.db.stats();
    let cache = d.prepared.stats();
    let mut resp = Response::new(id, "stats", Status::Ok)
        .with_field("dataset", &d.name)
        .with_field("version", d.version)
        .with_field("graphs", s.graph_count)
        .with_field("nodes", s.total_nodes)
        .with_field("edges", s.total_edges)
        .with_field("segments", d.slots.len())
        .with_field(
            "segments_indexed",
            d.slots.iter().filter(|s| s.index.get().is_some()).count(),
        )
        .with_field("prepared_hits", cache.hits)
        .with_field("prepared_misses", cache.misses)
        .with_field("prepared_bypasses", cache.bypasses)
        .with_field("prepared_entries", cache.entries)
        .with_field("resident_bytes", d.resident_bytes());
    if let Some(info) = &d.store {
        resp = resp
            .with_field("shards", info.manifest_shards - info.quarantined)
            .with_field("quarantined", info.quarantined)
            .with_field("disk_bytes", info.disk_bytes)
            .with_field("store_version", info.store_version);
    }
    if let Some(flag) = d.degraded() {
        resp = resp.with_field("degraded", flag);
    }
    // The shared index is only reported once built — its presence is
    // itself the observability signal that `freq` requests are reusing one
    // build.
    if let Some(index) = d.index.get() {
        resp = resp
            .with_field("index_types", index.len())
            .with_field("index_occurrences", index.total_occurrences());
    }
    resp
}

/// The error a request naming a non-resident dataset gets.
fn unknown_dataset(name: &str) -> String {
    format!("unknown dataset '{name}' (load it first)")
}

/// How one governed pipeline run ended.
enum MineRun {
    /// The run's token fell before (injected sleep) or during the work.
    Cancelled,
    /// The pipeline produced an outcome (complete or truncated).
    Done(Outcome<GraphSigResult>, CacheDisposition),
}

/// Render one mine response from a (possibly shared) outcome. Rendering is
/// the only per-rider step of a coalesced run — `top` caps the payload —
/// so identical `top`s produce byte-identical responses up to the id.
fn mine_response(
    id: &str,
    dataset: &Dataset,
    outcome: &Outcome<GraphSigResult>,
    disposition: CacheDisposition,
    top: usize,
) -> Response {
    let payload = render_subgraphs(&dataset.db, &outcome.result, top);
    with_degraded(
        Response::new(id, "mine", Status::Ok)
            .with_field("dataset", &dataset.name)
            .with_field("version", dataset.version),
        dataset,
    )
    .with_field("completion", outcome.completion)
    .with_field("cached", disposition)
    .with_field("subgraphs", outcome.result.subgraphs.len())
    .with_payload(payload)
}

/// Tack the `degraded=K/N` flag onto a response when the dataset's backing
/// store lost shards — every answer over partial data says so explicitly.
fn with_degraded(resp: Response, dataset: &Dataset) -> Response {
    match dataset.degraded() {
        Some(flag) => resp.with_field("degraded", flag),
        None => resp,
    }
}

/// The per-threshold knobs shared by `freq` and `sweep`.
struct FreqParams {
    backend: Option<BackendKind>,
    matcher: MatcherKind,
    max_edges: usize,
    max_patterns: usize,
    threads: usize,
}

/// One indexed frequent-mining run — the single implementation behind both
/// `freq` and each `sweep` threshold, so their results (and rendered
/// payloads) agree byte-for-byte.
fn run_freq(
    db: &GraphDb,
    index: &LabelPairIndex,
    min_support: usize,
    params: &FreqParams,
    budget: Budget,
) -> Outcome<Vec<Pattern>> {
    match params.backend {
        None | Some(BackendKind::Fsg) => Fsg::new(
            FsgConfig::new(min_support)
                .with_max_edges(params.max_edges)
                .with_max_patterns(params.max_patterns)
                .with_matcher(params.matcher)
                .with_threads(params.threads)
                .with_budget(budget),
        )
        .mine_indexed_outcome(db, index),
        Some(BackendKind::GSpan) => GSpan::new(
            MinerConfig::new(min_support)
                .with_max_edges(params.max_edges)
                .with_max_patterns(params.max_patterns)
                .with_threads(params.threads)
                .with_budget(budget),
        )
        .mine_indexed_outcome(db, index),
    }
}

/// Render `freq` results: a stats comment plus a transaction block per
/// pattern (same shape as the `mine` payload).
fn render_patterns(db: &GraphDb, patterns: &[Pattern]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for (i, p) in patterns.iter().enumerate() {
        let _ = writeln!(
            out,
            "# pattern {i}: support {} graphs ({:.3}%), {} edges",
            p.support,
            100.0 * p.frequency(db.len()),
            p.graph.edge_count()
        );
        let one = GraphDb::from_parts(vec![p.graph.clone()], db.labels().clone());
        out.push_str(&graphsig_graph::write_transactions(&one));
    }
    out
}

/// Sleep in small cancellable slices. Returns `false` when cancelled.
fn sleep_cancellable(ms: u64, token: &CancelToken) -> bool {
    let deadline = Instant::now() + Duration::from_millis(ms);
    while Instant::now() < deadline {
        if token.is_cancelled() {
            return false;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    !token.is_cancelled()
}
