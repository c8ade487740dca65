//! Deterministic dynamically-scheduled parallel execution.
//!
//! Every parallel phase of the workspace — the GraphSig pipeline (RWR
//! extraction, FVMine per label group, CutGraph + maximal FSM per region
//! set) and the baseline miners (gSpan per-seed DFS subtrees, FSG
//! per-parent candidate generation and per-candidate support counting) —
//! runs through this one executor. It lives in `graphsig-graph`, the
//! workspace's root crate, so both the pipeline (`graphsig-core`, which
//! re-exports it as `core::par`) and the miners it drives can share it
//! without a dependency cycle. The design is deliberately tiny —
//! `std::thread::scope` workers pulling item indices from a shared
//! `AtomicUsize` — and has two properties its users depend on:
//!
//! * **Dynamic scheduling.** Workers claim the next unprocessed index as
//!   they finish, so skewed item costs (a giant label group, one dense
//!   region set, one explosive gSpan seed subtree) do not leave threads
//!   idle the way static contiguous chunking does.
//! * **Determinism by index merge.** Each worker tags results with their
//!   item index and the executor reassembles them in index order, so the
//!   output of [`par_map`] is *identical* to the sequential map for any
//!   thread count — byte-for-byte, not just set-equal. Downstream
//!   dedup/sort passes therefore see the exact sequential order.
//!
//! Calls **nest and lend cores**. The caller of a map is one of its
//! workers. The outermost map owns `resolve_threads(threads)` cores; those
//! it has no items for start out idle. A worker that runs out of items
//! gives its core back, and so does the outermost caller once only its
//! join is left. A map called inside a task (FSG's per-level maps or
//! gSpan's seed map inside the pipeline's per-region-set map) starts on
//! that task's core and, each time its caller claims an item, borrows
//! idle cores for helpers, up to its own `threads` and item count. Each
//! helper gives its core back when it runs out of items. So:
//!
//! * **Thread cap.** Across a whole call tree, at most the outermost
//!   call's `resolve_threads(threads)` tasks run at once. A nested call at
//!   `threads = 1` never borrows.
//! * **`threads = 1` spawns nothing.** Such a call (and an empty one) is
//!   a plain loop on the caller's thread; it neither opens a call tree
//!   nor hides the one it runs in.
//! * **Borrowing only at claims.** A map whose caller is inside one long
//!   item (one giant gSpan seed subtree) takes no cores until that item
//!   ends.
//!
//! The executor also provides **panic isolation**: every task runs under
//! `catch_unwind`, so one poisoned item surfaces as a structured
//! [`TaskPanicked`] error (carrying the *lowest* panicking index,
//! deterministically — see [`try_par_map_range`]) instead of tearing down
//! the process. The infallible [`par_map`]/[`par_map_range`] re-raise that
//! structured error as a panic on the caller's thread.
//!
//! No external dependencies (see DESIGN.md §6); scoped threads have been
//! stable since Rust 1.63.

use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// A parallel task panicked. `index` is the lowest item index that
/// panicked — deterministic across thread counts — and `message` is its
/// panic payload (when it was a string).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskPanicked {
    /// Lowest panicking item index.
    pub index: usize,
    /// The panic payload, if it was a `&str` or `String`.
    pub message: String,
}

impl std::fmt::Display for TaskPanicked {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "parallel task {} panicked: {}", self.index, self.message)
    }
}

impl std::error::Error for TaskPanicked {}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Resolve a `threads` configuration value: `0` means "auto", i.e.
/// [`std::thread::available_parallelism`] (falling back to 1 if the
/// parallelism cannot be determined).
pub fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        threads
    }
}

/// Map `f` over `0..n` with `threads` workers (`0` = auto) and return the
/// results in index order. Equivalent to
/// `(0..n).map(f).collect()` for every thread count.
///
/// Workers (the caller's thread among them) self-schedule over a shared
/// atomic index (dynamic scheduling), collect `(index, result)` pairs
/// locally, and the caller's thread merges them into index order — no
/// locks on the hot path, no nondeterminism in the output. Called inside
/// another call's task, it borrows that call tree's idle cores (see the
/// module docs).
pub fn par_map_range<U, F>(threads: usize, n: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    match try_par_map_range(threads, n, f) {
        Ok(v) => v,
        Err(e) => panic!("{e}"),
    }
}

/// Fallible variant of [`par_map_range`]: each task runs under
/// `catch_unwind`, and a panicking task yields `Err(TaskPanicked)` instead
/// of unwinding through the executor.
///
/// The reported index is **deterministic**: it is always the lowest item
/// index that panics. Indices are claimed from the shared atomic counter in
/// strictly increasing order and workers stop claiming new items once a
/// panic is observed, so every item below the first panicker has already
/// been claimed and runs to completion — any panic among them is recorded,
/// and skipped items all lie above the first panicker. On `Err`, results of
/// successfully completed items are discarded.
pub fn try_par_map_range<U, F>(threads: usize, n: usize, f: F) -> Result<Vec<U>, TaskPanicked>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    let cap = resolve_threads(threads);
    let call = Call {
        n,
        f: &f,
        next: AtomicUsize::new(0),
        poisoned: AtomicBool::new(false),
    };
    let nested = IDLE.with(|idle| idle.borrow().clone());
    if cap <= 1 || n == 0 {
        // Runs inline on the caller's core and leaves the call tree (if
        // any) as it is: a nested call here can still borrow.
        let mut inline = Worker::default();
        while call.step(&mut inline) {}
        return inline.finish(n);
    }
    let (idle, outermost) = match nested {
        Some(idle) => (idle, false),
        // The outermost call owns `cap` cores; the caller's is one of
        // them, so the other `cap - 1` start out idle.
        None => (Arc::new(AtomicUsize::new(cap - 1)), true),
    };
    let width = cap.min(n);
    std::thread::scope(|s| {
        let _tree = InTree::enter(&idle);
        let mut helpers = Vec::new();
        let mut caller = Worker::default();
        loop {
            // Top up with idle cores before every claim, so a call that
            // started while every core was busy still picks up the cores
            // its siblings give back.
            while helpers.len() + 1 < width && call.remaining() > 1 && borrow(&idle) {
                let (call, idle) = (&call, &idle);
                helpers.push(s.spawn(move || {
                    let _tree = InTree::enter(idle);
                    let mut helper = Worker::default();
                    while call.step(&mut helper) {}
                    idle.fetch_add(1, Ordering::Relaxed);
                    helper
                }));
            }
            if !call.step(&mut caller) {
                break;
            }
        }
        if outermost {
            // Nothing waits on this core but the join below: lend it to
            // the calls still running inside this one.
            idle.fetch_add(1, Ordering::Relaxed);
        }
        for h in helpers {
            caller.absorb(h.join().expect("parallel worker panicked"));
        }
        caller.finish(n)
    })
}

thread_local! {
    /// Idle-core count of the call tree whose task this thread is running;
    /// `None` outside any parallel call.
    static IDLE: RefCell<Option<Arc<AtomicUsize>>> = const { RefCell::new(None) };
}

/// Marks the current thread as running tasks of the call tree whose idle
/// cores are `idle`, until dropped.
struct InTree(Option<Arc<AtomicUsize>>);

impl InTree {
    fn enter(idle: &Arc<AtomicUsize>) -> Self {
        Self(IDLE.with(|cell| cell.replace(Some(Arc::clone(idle)))))
    }
}

impl Drop for InTree {
    fn drop(&mut self) {
        IDLE.with(|cell| *cell.borrow_mut() = self.0.take());
    }
}

/// Take one idle core. The count is the only shared data, so relaxed
/// ordering suffices: the compare-and-swap alone keeps it from going
/// below zero.
fn borrow(idle: &AtomicUsize) -> bool {
    idle.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |k| k.checked_sub(1))
        .is_ok()
}

/// One `try_par_map_range` call's shared state.
struct Call<'a, F> {
    n: usize,
    f: &'a F,
    next: AtomicUsize,
    poisoned: AtomicBool,
}

impl<F> Call<'_, F> {
    fn remaining(&self) -> usize {
        self.n.saturating_sub(self.next.load(Ordering::Relaxed))
    }

    /// Claim and run the next item; `false` once none is left or a task
    /// of this call has panicked.
    fn step<U>(&self, w: &mut Worker<U>) -> bool
    where
        F: Fn(usize) -> U,
    {
        if self.poisoned.load(Ordering::Relaxed) {
            return false;
        }
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        if i >= self.n {
            return false;
        }
        match catch_unwind(AssertUnwindSafe(|| (self.f)(i))) {
            Ok(v) => {
                w.done.push((i, v));
                true
            }
            Err(p) => {
                w.panicked = Some(TaskPanicked {
                    index: i,
                    message: panic_message(p),
                });
                self.poisoned.store(true, Ordering::Relaxed);
                false
            }
        }
    }
}

/// One worker's results, tagged with their item indices.
struct Worker<U> {
    done: Vec<(usize, U)>,
    panicked: Option<TaskPanicked>,
}

impl<U> Default for Worker<U> {
    fn default() -> Self {
        Self {
            done: Vec::new(),
            panicked: None,
        }
    }
}

impl<U> Worker<U> {
    fn absorb(&mut self, other: Worker<U>) {
        self.done.extend(other.done);
        if let Some(p) = other.panicked {
            if self.panicked.as_ref().is_none_or(|q| p.index < q.index) {
                self.panicked = Some(p);
            }
        }
    }

    /// Results in index order, or the lowest panic.
    fn finish(mut self, n: usize) -> Result<Vec<U>, TaskPanicked> {
        if let Some(p) = self.panicked {
            return Err(p);
        }
        // Each worker claimed its indices in increasing order, so this
        // only merges sorted runs.
        self.done.sort_by_key(|&(i, _)| i);
        assert_eq!(self.done.len(), n, "all indices claimed exactly once");
        Ok(self.done.into_iter().map(|(_, v)| v).collect())
    }
}

/// Map `f` over a slice with `threads` workers (`0` = auto), returning
/// results in item order. See [`par_map_range`] for the scheduling and
/// determinism guarantees.
pub fn par_map<T, U, F>(threads: usize, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    par_map_range(threads, items.len(), |i| f(&items[i]))
}

/// Fallible variant of [`par_map`]; see [`try_par_map_range`] for the
/// panic-isolation and determinism guarantees.
pub fn try_par_map<T, U, F>(threads: usize, items: &[T], f: F) -> Result<Vec<U>, TaskPanicked>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    try_par_map_range(threads, items.len(), |i| f(&items[i]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_sequential_for_any_thread_count() {
        let items: Vec<usize> = (0..257).collect();
        let expected: Vec<usize> = items.iter().map(|&x| x * x).collect();
        for threads in [1, 2, 3, 4, 8, 64] {
            let got = par_map(threads, &items, |&x| x * x);
            assert_eq!(got, expected, "threads={threads}");
        }
    }

    #[test]
    fn auto_threads_resolves_to_at_least_one() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(3), 3);
    }

    #[test]
    fn handles_empty_and_single_item() {
        assert_eq!(par_map_range(4, 0, |i| i), Vec::<usize>::new());
        assert_eq!(par_map_range(4, 1, |i| i + 10), vec![10]);
    }

    #[test]
    fn skewed_workloads_keep_order() {
        // Item cost varies by orders of magnitude; output order must not.
        let n = 40;
        let out = par_map_range(4, n, |i| {
            let spins = if i % 7 == 0 { 200_000 } else { 10 };
            let mut acc = i as u64;
            for k in 0..spins {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
            }
            (i, acc)
        });
        for (i, item) in out.iter().enumerate() {
            assert_eq!(item.0, i);
        }
        let seq = par_map_range(1, n, |i| {
            let spins = if i % 7 == 0 { 200_000 } else { 10 };
            let mut acc = i as u64;
            for k in 0..spins {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
            }
            (i, acc)
        });
        assert_eq!(out, seq);
    }

    #[test]
    fn more_threads_than_items_is_safe() {
        let got = par_map_range(16, 3, |i| i * 2);
        assert_eq!(got, vec![0, 2, 4]);
    }

    #[test]
    fn try_variants_match_infallible_on_success() {
        let items: Vec<usize> = (0..57).collect();
        for threads in [1, 2, 4, 8] {
            let got = try_par_map(threads, &items, |&x| x + 1).unwrap();
            assert_eq!(got, (1..58).collect::<Vec<_>>(), "threads={threads}");
        }
    }

    #[test]
    fn panicking_task_yields_lowest_index_at_every_thread_count() {
        for threads in [1, 2, 4, 8] {
            let err = try_par_map_range(threads, 64, |i| {
                if i == 13 || i == 40 {
                    panic!("boom at {i}");
                }
                i
            })
            .unwrap_err();
            assert_eq!(err.index, 13, "threads={threads}");
            assert_eq!(err.message, "boom at 13", "threads={threads}");
        }
    }

    #[test]
    fn infallible_map_reraises_structured_panic() {
        let caught = std::panic::catch_unwind(|| {
            par_map_range(4, 8, |i| {
                if i == 3 {
                    panic!("poisoned item");
                }
                i
            })
        })
        .unwrap_err();
        let msg = caught.downcast_ref::<String>().cloned().unwrap_or_default();
        assert_eq!(msg, "parallel task 3 panicked: poisoned item");
    }

    #[test]
    fn task_panicked_display_and_error() {
        let e = TaskPanicked {
            index: 5,
            message: "oops".into(),
        };
        assert_eq!(e.to_string(), "parallel task 5 panicked: oops");
        let _: &dyn std::error::Error = &e;
    }

    /// Run `f` while counting this task in `running`, recording the most
    /// tasks ever seen running at once in `high`.
    fn counted<T>(running: &AtomicUsize, high: &AtomicUsize, f: impl FnOnce() -> T) -> T {
        let now = running.fetch_add(1, Ordering::SeqCst) + 1;
        high.fetch_max(now, Ordering::SeqCst);
        let out = f();
        running.fetch_sub(1, Ordering::SeqCst);
        out
    }

    fn spin(rounds: u64) -> u64 {
        let mut acc = rounds;
        for k in 0..rounds {
            acc = std::hint::black_box(acc.wrapping_mul(6364136223846793005).wrapping_add(k));
        }
        acc
    }

    #[test]
    fn nested_maps_match_sequential_for_any_thread_count() {
        let inner = |i: usize| -> Vec<usize> { par_map_range(4, i % 9, |j| i * 100 + j) };
        let expected: Vec<Vec<usize>> = (0..61).map(inner).collect();
        for threads in [1, 2, 3, 4, 8] {
            let got = par_map_range(threads, 61, |i| {
                par_map_range(threads, i % 9, |j| i * 100 + j)
            });
            assert_eq!(got, expected, "threads={threads}");
        }
    }

    #[test]
    fn nested_call_tree_never_exceeds_outer_threads() {
        // Three levels of maps, every one asking for 8 workers; a task
        // only counts while it runs its own code, not while its thread
        // works inside a nested call. Item 0 is far larger than its
        // siblings, so its nested calls borrow the cores they give back.
        for threads in [2, 3, 4] {
            let (running, high) = (AtomicUsize::new(0), AtomicUsize::new(0));
            let task = |rounds: u64| counted(&running, &high, || spin(rounds));
            par_map_range(threads, 12, |i| {
                let fan = if i == 0 { 16 } else { 4 };
                task(2_000);
                par_map_range(8, fan, |_| {
                    task(2_000);
                    par_map_range(8, fan, |_| task(50_000));
                    task(2_000);
                });
            });
            let high = high.load(Ordering::SeqCst);
            assert!(
                high <= threads,
                "threads={threads}: {high} tasks ran at once"
            );
        }
    }

    #[test]
    fn outer_threads_one_spawns_no_thread() {
        let me = std::thread::current().id();
        let ids = par_map_range(1, 8, |_| {
            par_map_range(1, 8, |_| std::thread::current().id())
        });
        assert!(ids.iter().flatten().all(|&id| id == me));
    }

    fn idle_cores() -> usize {
        IDLE.with(|idle| {
            idle.borrow()
                .as_ref()
                .map_or(0, |k| k.load(Ordering::SeqCst))
        })
    }

    /// Spin until `cond` holds or 10 s pass (a failing test then fails
    /// its assertion instead of hanging).
    fn wait_until(cond: impl Fn() -> bool) {
        let start = std::time::Instant::now();
        while !cond() && start.elapsed().as_secs() < 10 {
            std::thread::yield_now();
        }
    }

    /// Outer map at 2 threads. One item of the designated worker (the
    /// caller's thread, or else the helper's) waits until the other worker
    /// has run out of items and given its core back, then runs `late`.
    fn after_siblings<T: Send>(late_on_caller: bool, late: impl Fn() -> T + Sync) -> T {
        let caller = std::thread::current().id();
        let holding = AtomicBool::new(false);
        par_map_range(2, 64, |_| {
            let designated = (std::thread::current().id() == caller) == late_on_caller;
            if designated && !holding.swap(true, Ordering::SeqCst) {
                wait_until(|| idle_cores() > 0);
                Some(late())
            } else {
                // The other worker must not run out of items before the
                // designated one holds its own.
                wait_until(|| holding.load(Ordering::SeqCst));
                None
            }
        })
        .into_iter()
        .flatten()
        .next()
        .expect("late() ran")
    }

    /// Distinct threads running a 2-item nested map whose items each wait
    /// until both items have started.
    fn distinct_threads_of_nested_call() -> usize {
        let seen = std::sync::Mutex::new(std::collections::HashSet::new());
        par_map_range(2, 2, |_| {
            seen.lock().unwrap().insert(std::thread::current().id());
            wait_until(|| seen.lock().unwrap().len() == 2);
        });
        let n = seen.lock().unwrap().len();
        n
    }

    #[test]
    fn late_nested_call_borrows_the_returned_core() {
        // The helper gives its core back when it runs out of items; the
        // outermost caller gives its own back while it waits on the join.
        for late_on_caller in [true, false] {
            let threads = after_siblings(late_on_caller, distinct_threads_of_nested_call);
            assert_eq!(
                threads, 2,
                "late_on_caller={late_on_caller}: nested call ran on {threads} thread(s)"
            );
        }
    }

    #[test]
    fn nested_panic_reports_lowest_index_and_cores_come_back() {
        let (err, threads) = after_siblings(true, || {
            let err = try_par_map_range(2, 64, |i| {
                if i == 13 || i == 40 {
                    panic!("boom at {i}");
                }
                i
            })
            .unwrap_err();
            (err, distinct_threads_of_nested_call())
        });
        assert_eq!(err.index, 13);
        assert_eq!(err.message, "boom at 13");
        assert_eq!(
            threads, 2,
            "call after the panic ran on {threads} thread(s)"
        );
    }

    #[test]
    fn nested_panic_surfaces_through_the_outer_call() {
        let err = try_par_map_range(2, 8, |i| {
            par_map_range(2, 8, |j| {
                if i >= 3 && j == 5 {
                    panic!("inner {j}");
                }
                j
            })
        })
        .unwrap_err();
        assert_eq!(err.index, 3);
        assert_eq!(err.message, "parallel task 5 panicked: inner 5");
    }
}
