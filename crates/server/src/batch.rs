//! Request coalescing: concurrent identical work shares one governed run.
//!
//! Two mechanisms live here, both keyed to the insight that a read-heavy
//! serving workload repeats itself — many clients ask the same question of
//! the same dataset version at the same time:
//!
//! * [`Coalescer`] — single-flight for `mine`. While a mine runs, every
//!   concurrent request with the same [`MineKey`] (dataset name plus
//!   version plus the full resolved mining config, *including* the
//!   [`WindowKey`](graphsig_core::WindowKey) the `PreparedCache` memoizes
//!   on) attaches to the in-flight run as a *rider* instead of executing.
//!   One worker (the *leader*) runs the pipeline once; on completion every
//!   rider's response is rendered from the shared outcome — byte-identical
//!   to what a solo run would have produced, because the pipeline output
//!   for a fixed config is deterministic and only the rendering cap
//!   (`top=`) differs per rider.
//! * [`SweepFlight`] — a `sweep` split into per-threshold segments that
//!   queue individually (see `server.rs`), accumulating results here until
//!   the last segment assembles the response in submission order.
//!
//! # Rider cancellation semantics
//!
//! Each rider keeps its own [`CancelToken`] (the one registered in the
//! server's inflight table). Cancelling a rider detaches it immediately —
//! it responds `truncated (cancelled)` right away — but the *run* keeps
//! going for the remaining riders. Only when the last live rider cancels
//! is the flight's group token cancelled, which truncates the run itself.
//! This is exactly the refcounted-cancellation contract the tentpole
//! requires: a shared run dies only when nobody is left waiting for it.
//!
//! # What does NOT coalesce
//!
//! Requests carrying an explicit `timeout_ms` or `max_steps` run solo.
//! Step budgets are deterministic by contract (they bypass the
//! `PreparedCache` for the same reason), and explicit deadlines are
//! anchored to each request's own submission instant — sharing a run would
//! silently substitute the leader's deadline. Requests without explicit
//! budgets adopt the leader's effective budget (server default ceilings),
//! which is within the documented best-effort deadline contract.

use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard};

use graphsig_core::{CancelToken, WindowKey};
use graphsig_graph::control::Outcome;
use graphsig_graph::Completion;
use graphsig_gspan::Pattern;

use crate::protocol::{MineRequest, Response, Status};
use crate::server::SharedWriter;

/// Everything a coalesced `mine` run depends on. Two requests with equal
/// keys would run the exact same pipeline over the exact same data, so
/// they may share one execution. `top=` is absent (rendering-only, applied
/// per rider); budgets are absent because budgeted requests never coalesce
/// (see the module docs). The fault-injection keys are *included*: two
/// identical injected requests may share a (deterministically faulty) run,
/// but an injected request never shares with a clean one.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct MineKey {
    dataset: String,
    version: u64,
    /// The `PreparedCache` fingerprint — proves key-compatibility with the
    /// window-pass cache the run will consult.
    window: WindowKey,
    max_pvalue_bits: u64,
    min_freq_bits: u64,
    fsm_freq_bits: u64,
    radius: usize,
    backend: graphsig_core::FsmBackend,
    matcher: graphsig_graph::MatcherKind,
    threads: usize,
    sleep_ms: Option<u64>,
    inject_panic: bool,
}

impl MineKey {
    /// Key for `r` resolved against `cfg` (the fully defaulted config the
    /// run will use) over dataset `name`/`version`.
    pub(crate) fn of(
        name: &str,
        version: u64,
        cfg: &graphsig_core::GraphSigConfig,
        r: &MineRequest,
    ) -> Self {
        MineKey {
            dataset: name.to_string(),
            version,
            window: WindowKey::of(cfg),
            max_pvalue_bits: cfg.max_pvalue.to_bits(),
            min_freq_bits: cfg.min_freq.to_bits(),
            fsm_freq_bits: cfg.fsm_freq.to_bits(),
            radius: cfg.radius,
            backend: cfg.fsm_backend,
            matcher: cfg.matcher,
            threads: cfg.threads,
            sleep_ms: r.sleep_ms,
            inject_panic: r.inject_panic,
        }
    }
}

/// One request attached to a flight: where its response goes and the one
/// parameter that may differ between coalesced requests (the render cap).
pub(crate) struct Rider {
    /// Request id (still registered in the server's inflight table).
    pub id: String,
    /// The rider's connection writer.
    pub out: SharedWriter,
    /// Per-rider `top=` render cap.
    pub top: usize,
}

/// The dataset identity a flight runs over — everything a cancelled
/// rider's response needs besides its own id (see
/// [`cancelled_mine_response`]).
#[derive(Clone)]
pub(crate) struct FlightCtx {
    pub dataset: String,
    pub version: u64,
    pub degraded: Option<String>,
}

struct FlightEntry {
    leader_id: String,
    group: CancelToken,
    ctx: FlightCtx,
    riders: Vec<Rider>,
}

/// Outcome of [`Coalescer::join`].
pub(crate) enum Joined {
    /// This request leads a new flight: run the pipeline under `group`,
    /// then call [`Coalescer::finish`] to collect everyone's responses.
    Lead {
        /// The flight's shared cancel token; cancelled only when every
        /// rider has individually cancelled (or on forced drain).
        group: CancelToken,
    },
    /// Attached to an in-flight run; the leader owns the response.
    Attached,
}

/// Single-flight registry for `mine` requests. Plain data: it lives in
/// the server's one locked `State`, so every method runs under that lock
/// and no flight can be observed half-updated.
#[derive(Default)]
pub(crate) struct Coalescer {
    flights: HashMap<MineKey, FlightEntry>,
    /// Rider id -> the flight it is attached to (for cancel routing).
    by_rider: HashMap<String, MineKey>,
    /// Flights created (a coalesce "miss": someone had to run it).
    pub(crate) leads: u64,
    /// Requests attached to an existing flight (a coalesce "hit").
    pub(crate) riders: u64,
}

impl Coalescer {
    /// Join the flight for `key`, creating it (with `rider` as leader) if
    /// none is in flight.
    pub(crate) fn join(&mut self, key: &MineKey, rider: Rider, ctx: FlightCtx) -> Joined {
        self.by_rider.insert(rider.id.clone(), key.clone());
        if let Some(entry) = self.flights.get_mut(key) {
            entry.riders.push(rider);
            self.riders += 1;
            return Joined::Attached;
        }
        let group = CancelToken::new();
        self.flights.insert(
            key.clone(),
            FlightEntry {
                leader_id: rider.id.clone(),
                group: group.clone(),
                ctx,
                riders: vec![rider],
            },
        );
        self.leads += 1;
        Joined::Lead { group }
    }

    /// Close the flight for `key` and hand back every rider still attached
    /// (riders that cancelled individually already responded and are gone).
    /// After this returns, new identical requests start a fresh flight.
    pub(crate) fn finish(&mut self, key: &MineKey) -> Vec<Rider> {
        let Some(entry) = self.flights.remove(key) else {
            return Vec::new();
        };
        for r in &entry.riders {
            self.by_rider.remove(&r.id);
        }
        entry.riders
    }

    /// The flight led by `leader_id`, torn down because its leader
    /// panicked: every remaining rider must receive an error response.
    /// `None` when `leader_id` does not lead a flight (solo request).
    pub(crate) fn fail_leader(&mut self, leader_id: &str) -> Option<Vec<Rider>> {
        let key = self.by_rider.get(leader_id)?.clone();
        if self.flights.get(&key)?.leader_id != leader_id {
            return None;
        }
        Some(self.finish(&key))
    }

    /// A `cancel` hit rider `target`: detach it so it can respond
    /// `truncated (cancelled)` immediately, and cancel the whole run if it
    /// was the last rider standing. Returns the detached rider plus the
    /// flight's dataset context, or `None` when `target` is not attached
    /// to any flight.
    pub(crate) fn on_cancel(&mut self, target: &str) -> Option<(Rider, FlightCtx)> {
        let key = self.by_rider.remove(target)?;
        let entry = self.flights.get_mut(&key)?;
        let pos = entry.riders.iter().position(|r| r.id == target)?;
        let rider = entry.riders.remove(pos);
        let ctx = entry.ctx.clone();
        if entry.riders.is_empty() {
            // Last rider gone: nobody is waiting — truncate the run, and
            // drop the flight so a *new* identical request leads a fresh
            // run instead of attaching to a doomed one. The leader's
            // `finish` then finds nothing and writes nothing.
            entry.group.cancel();
            self.flights.remove(&key);
        }
        Some((rider, ctx))
    }

    /// Forced drain: cancel every flight's group token so hung shared runs
    /// terminate. Riders stay attached — they get their structured
    /// `truncated (cancelled)` responses from the leader's `finish`.
    pub(crate) fn cancel_all(&self) {
        for entry in self.flights.values() {
            entry.group.cancel();
        }
    }
}

/// A sweep split into per-threshold segments that queue as individual work
/// units. Segments record their outcomes here (in threshold order, however
/// they interleave with other work); the last one to finish assembles the
/// response — byte-identical to the old inline loop, because assembly
/// iterates `supports` order and each segment runs the same `run_freq`.
pub(crate) struct SweepFlight {
    /// The sweep request id (registered inflight until the response).
    pub id: String,
    /// Where the assembled response goes.
    pub out: SharedWriter,
    /// Thresholds in request order; segment `i` runs `supports[i]`.
    pub supports: Vec<usize>,
    progress: Mutex<SweepProgress>,
}

/// What the segments have reported so far.
struct SweepProgress {
    results: Vec<Option<Outcome<Vec<Pattern>>>>,
    /// First panic message, if any segment panicked.
    panic_msg: Option<String>,
    remaining: usize,
}

impl SweepFlight {
    pub(crate) fn new(id: String, out: SharedWriter, supports: Vec<usize>) -> Self {
        let n = supports.len();
        SweepFlight {
            id,
            out,
            supports,
            progress: Mutex::new(SweepProgress {
                results: (0..n).map(|_| None).collect(),
                panic_msg: None,
                remaining: n,
            }),
        }
    }

    fn progress(&self) -> MutexGuard<'_, SweepProgress> {
        // Every update below leaves the progress consistent, so a guard
        // poisoned by an unrelated panic is safe to recover.
        self.progress.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Record segment `idx`'s outcome (`Err` carries a panic message).
    /// Returns `true` when this was the last outstanding segment — the
    /// caller then assembles the response. The first panic message wins
    /// (deterministic enough for an error response — any panic fails the
    /// whole sweep).
    pub(crate) fn record(
        &self,
        idx: usize,
        outcome: Result<Outcome<Vec<Pattern>>, String>,
    ) -> bool {
        let mut p = self.progress();
        match outcome {
            Ok(outcome) => p.results[idx] = Some(outcome),
            Err(msg) => {
                p.panic_msg.get_or_insert(msg);
            }
        }
        p.remaining -= 1;
        p.remaining == 0
    }

    /// Assemble `(completion, total patterns, payload)` in `supports`
    /// order, using `render` to produce each segment's payload bytes, or
    /// the first panic message if any segment panicked. Call only after
    /// the last `record`.
    pub(crate) fn assemble(
        &self,
        mut render: impl FnMut(&[Pattern]) -> String,
    ) -> Result<(Completion, usize, String), String> {
        use std::fmt::Write as _;
        let p = self.progress();
        if let Some(msg) = &p.panic_msg {
            return Err(msg.clone());
        }
        let mut payload = String::new();
        let mut completion = Completion::Complete;
        let mut total = 0usize;
        for (outcome, &support) in p.results.iter().zip(&self.supports) {
            let outcome = outcome.as_ref().expect("every segment recorded");
            completion = completion.merge(outcome.completion);
            total += outcome.result.len();
            // Marker line, then the exact bytes an individual `freq` call
            // at this threshold would have produced as its payload.
            let _ = writeln!(
                payload,
                "# sweep support {support}: {} patterns ({})",
                outcome.result.len(),
                outcome.completion
            );
            payload.push_str(&render(&outcome.result));
        }
        Ok((completion, total, payload))
    }
}

/// Build the cancelled-mine response shape shared by detached riders and
/// riders of a cancelled run: the same header fields every other `mine`
/// response carries (dataset identity and degradation state included —
/// response shape is uniform across outcomes).
pub(crate) fn cancelled_mine_response(
    id: &str,
    dataset: &str,
    version: u64,
    degraded: Option<&str>,
) -> Response {
    let mut resp = Response::new(id, "mine", Status::Ok)
        .with_field("dataset", dataset)
        .with_field("version", version);
    if let Some(flag) = degraded {
        resp = resp.with_field("degraded", flag);
    }
    resp.with_field("completion", "truncated (cancelled)")
        .with_field("cached", "none")
        .with_field("subgraphs", 0)
}
