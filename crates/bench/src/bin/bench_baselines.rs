//! Sequential-vs-parallel benchmark for the baseline miners (gSpan, FSG).
//!
//! Runs both miners at the operating points of the paper's scalability
//! figures — a frequency-threshold sweep (Fig. 9) and a database-size
//! sweep (Fig. 11) — once with `threads = 1` and once with `threads = N`
//! (default: one per core, floored at 2 so the parallel code path always
//! runs). FSG points run under both isomorphism engines (`fast` compiled
//! bitset matcher and the `vf2` reference), asserting identical pattern
//! lists across engines on ungoverned runs. Every point asserts the
//! seq/par arms produce byte-identical pattern lists, then the timings go
//! to `BENCH_baselines.json` (with `cores` and per-run `matcher` fields)
//! so speedups can be tracked across commits.
//!
//! Usage: `bench_baselines [--scale f] [--seed u] [--threads n] [--smoke]`
//! where `--threads` sets the parallel arm (`0` = auto) and `--smoke` runs
//! a tiny dataset, asserts equality, and writes nothing (the CI gate).

use std::fmt::Write as _;
use std::time::Duration;

use graphsig_bench::{secs, timed, Cli};
use graphsig_datagen::aids_like;
use graphsig_fsg::{Fsg, FsgConfig};
use graphsig_graph::{resolve_threads, Budget, GraphDb, LabelPairIndex, MatcherKind};
use graphsig_gspan::{GSpan, MinerConfig, Pattern};

/// Abort cap shared by every run: the low-frequency points explode by
/// design (that is the paper's argument for GraphSig), so the miners stop
/// after this many patterns. Identical caps on both arms keep the
/// byte-identity assertion meaningful.
const MAX_PATTERNS: usize = 20_000;
const MAX_EDGES: usize = 8;

#[derive(Clone, Copy)]
enum Miner {
    GSpan,
    Fsg,
}

impl Miner {
    fn name(self) -> &'static str {
        match self {
            Miner::GSpan => "gspan",
            Miner::Fsg => "fsg",
        }
    }

    fn mine(
        self,
        db: &GraphDb,
        index: &LabelPairIndex,
        support: usize,
        threads: usize,
        budget: Option<&Budget>,
        matcher: MatcherKind,
    ) -> (Vec<Pattern>, Duration) {
        match self {
            Miner::GSpan => {
                // gSpan extends embeddings directly; its mining loop never
                // calls the subgraph matcher, so `matcher` is moot here.
                let mut cfg = MinerConfig::new(support)
                    .with_max_edges(MAX_EDGES)
                    .with_max_patterns(MAX_PATTERNS)
                    .with_threads(threads);
                if let Some(b) = budget {
                    cfg = cfg.with_budget(b.clone());
                }
                timed(|| GSpan::new(cfg.clone()).mine_indexed(db, index))
            }
            Miner::Fsg => {
                let mut cfg = FsgConfig::new(support)
                    .with_max_edges(MAX_EDGES)
                    .with_max_patterns(MAX_PATTERNS)
                    .with_threads(threads)
                    .with_matcher(matcher);
                if let Some(b) = budget {
                    cfg = cfg.with_budget(b.clone());
                }
                timed(|| Fsg::new(cfg.clone()).mine_indexed(db, index))
            }
        }
    }
}

/// Stable fingerprint of a mined pattern list: every code, support and gid
/// list, in order. Byte-identical across runs iff the output is.
fn fingerprint(pats: &[Pattern]) -> String {
    let mut s = String::new();
    for p in pats {
        let _ = writeln!(s, "{:?} sup={} gids={:?}", p.code, p.support, p.gids);
    }
    s
}

/// One benchmark point: both thread arms under one isomorphism engine,
/// determinism assert, JSON fragment plus the sequential fingerprint (so
/// the caller can cross-check engines against each other).
#[allow(clippy::too_many_arguments)]
fn run_point(
    miner: Miner,
    sweep: &str,
    param: f64,
    db: &GraphDb,
    support: usize,
    par_threads: usize,
    budget: Option<&Budget>,
    matcher: MatcherKind,
) -> (String, String) {
    let index = LabelPairIndex::build(db);
    let (seq, seq_t) = miner.mine(db, &index, support, 1, budget, matcher);
    let (par, par_t) = miner.mine(db, &index, support, par_threads, budget, matcher);
    // Step-budget truncation is deterministic, so the byte-identity gate
    // holds under `--max-steps`; a wall-clock deadline makes the stop
    // point scheduling-dependent, so only then is the gate waived.
    if budget.is_none_or(|b| b.deadline().is_none()) {
        assert_eq!(
            fingerprint(&seq),
            fingerprint(&par),
            "{} {sweep}={param} matcher={matcher}: parallel output differs from sequential",
            miner.name()
        );
    }
    let speedup = secs(seq_t) / secs(par_t).max(1e-9);
    // On a single-core box the "parallel" arm only measures scheduling
    // overhead: its speedup (typically 0.8–1.1x) is noise, not signal.
    // Record the core count per run and flag such speedups not-meaningful
    // so downstream comparisons never chart them as regressions.
    let cores = resolve_threads(0);
    let meaningful = cores > 1;
    let note = if meaningful { "" } else { " (1 core: noise)" };
    println!(
        "{:<5} {sweep}={param:<6} matcher={matcher:<4} |D|={:<5} support={:<4} patterns={:<6} seq {}s, par {}s, speedup {:.2}x{note}",
        miner.name(),
        db.len(),
        support,
        seq.len(),
        secs(seq_t),
        secs(par_t),
        speedup
    );
    let json = format!(
        "    {{ \"miner\": \"{}\", \"matcher\": \"{matcher}\", \"sweep\": \"{sweep}\", \"param\": {param}, \"molecules\": {}, \"min_support\": {support}, \"patterns\": {}, \"truncated\": {}, \"seq_s\": {}, \"par_s\": {}, \"speedup\": {:.3}, \"cores\": {cores}, \"speedup_meaningful\": {meaningful}, \"outputs_identical\": true }}",
        miner.name(),
        db.len(),
        seq.len(),
        seq.len() >= MAX_PATTERNS,
        secs(seq_t),
        secs(par_t),
        speedup
    );
    (json, fingerprint(&seq))
}

/// Run one operating point across miners and engines: gSpan once (its
/// mining loop is matcher-independent), FSG under both engines with a
/// cross-engine byte-identity assert on ungoverned runs. Step budgets are
/// spent per-engine (the engines count candidate work differently), so the
/// cross-engine gate only applies when no budget governs the run.
fn run_matrix(
    runs: &mut Vec<String>,
    sweep: &str,
    param: f64,
    db: &GraphDb,
    support: usize,
    par_threads: usize,
    budget: Option<&Budget>,
) {
    let (json, _) = run_point(
        Miner::GSpan,
        sweep,
        param,
        db,
        support,
        par_threads,
        budget,
        MatcherKind::default(),
    );
    runs.push(json);
    let (json_fast, fp_fast) = run_point(
        Miner::Fsg,
        sweep,
        param,
        db,
        support,
        par_threads,
        budget,
        MatcherKind::Fast,
    );
    runs.push(json_fast);
    let (json_vf2, fp_vf2) = run_point(
        Miner::Fsg,
        sweep,
        param,
        db,
        support,
        par_threads,
        budget,
        MatcherKind::Vf2,
    );
    runs.push(json_vf2);
    if budget.is_none() {
        assert_eq!(
            fp_fast, fp_vf2,
            "fsg {sweep}={param}: fast and vf2 engines mined different patterns"
        );
    }
}

fn main() {
    let cli = Cli::parse(1.0);
    let par_threads = resolve_threads(cli.threads).max(2);
    let cores = resolve_threads(0);

    let budget = cli.budget();
    if cli.smoke {
        // CI gate: tiny dataset, assert sequential == parallel for both
        // miners at a couple of thread counts, fast == vf2 for FSG, and
        // FSG == gSpan; write nothing. With budget flags this doubles as fault
        // injection: a step-budgeted run must stay byte-identical across
        // thread counts even while truncated (engines spend budgets
        // differently, so the cross-engine gate is ungoverned-only).
        let data = aids_like(60, cli.seed);
        let index = LabelPairIndex::build(&data.db);
        let mut sequential = Vec::new();
        for miner in [Miner::GSpan, Miner::Fsg] {
            let (seq, _) = miner.mine(
                &data.db,
                &index,
                6,
                1,
                budget.as_ref(),
                MatcherKind::default(),
            );
            if budget.is_none() {
                assert!(!seq.is_empty(), "smoke workload mined nothing");
            }
            if budget.as_ref().is_none_or(|b| b.deadline().is_none()) {
                for threads in [2, 4] {
                    let (par, _) = miner.mine(
                        &data.db,
                        &index,
                        6,
                        threads,
                        budget.as_ref(),
                        MatcherKind::default(),
                    );
                    assert_eq!(
                        fingerprint(&seq),
                        fingerprint(&par),
                        "smoke: {} threads={threads} output differs",
                        miner.name()
                    );
                }
            }
            if matches!(miner, Miner::Fsg) && budget.is_none() {
                let (vf2, _) = miner.mine(&data.db, &index, 6, 1, None, MatcherKind::Vf2);
                assert_eq!(
                    fingerprint(&seq),
                    fingerprint(&vf2),
                    "smoke: fsg fast vs vf2 output differs"
                );
            }
            println!("smoke: {} OK ({} patterns)", miner.name(), seq.len());
            sequential.push(seq);
        }
        // gSpan is FSG's independent oracle: two unrelated search orders
        // and canonicalization paths must mine the same (code, support,
        // gids) set. Only an uncapped, unbudgeted run is a complete set.
        if budget.is_none() {
            let sorted: Vec<String> = sequential
                .into_iter()
                .map(|mut pats| {
                    assert!(pats.len() < MAX_PATTERNS, "smoke: pattern cap reached");
                    pats.sort_by_cached_key(|p| {
                        p.code
                            .edges()
                            .iter()
                            .map(|e| (e.from, e.to, e.from_label, e.edge_label, e.to_label))
                            .collect::<Vec<_>>()
                    });
                    fingerprint(&pats)
                })
                .collect();
            assert_eq!(
                sorted[0], sorted[1],
                "smoke: fsg and gspan mined different patterns"
            );
            println!("smoke: fsg == gspan");
        }
        println!("smoke: outputs identical at threads 1/2/4 and across engines");
        return;
    }

    let n = (800.0 * cli.scale).round() as usize;
    let data = aids_like(n, cli.seed);
    println!(
        "# bench_baselines — {} molecules, sequential vs {} threads ({} core(s) available)",
        data.len(),
        par_threads,
        cores
    );
    if cores == 1 {
        println!(
            "# NOTE: single core — par_s/speedup measure scheduling overhead only; \
             compare seq_s across commits and ignore sub-1.0 speedups"
        );
    }

    let mut runs: Vec<String> = Vec::new();

    // Fig. 9 operating points: runtime vs frequency threshold, full DB.
    for freq in [0.10, 0.07, 0.05] {
        let support = ((freq * data.len() as f64).ceil() as usize).max(1);
        run_matrix(
            &mut runs,
            "frequency",
            freq,
            &data.db,
            support,
            par_threads,
            budget.as_ref(),
        );
    }

    // Fig. 11 operating points: runtime vs database size, fixed frequency.
    let freq = 0.08;
    for frac in [0.25, 0.5, 1.0] {
        let m = ((data.len() as f64 * frac).round() as usize).max(1);
        let sub = aids_like(m, cli.seed);
        let support = ((freq * sub.len() as f64).ceil() as usize).max(1);
        run_matrix(
            &mut runs,
            "db_size",
            frac,
            &sub.db,
            support,
            par_threads,
            budget.as_ref(),
        );
    }

    let json = format!(
        "{{\n  \"bench\": \"baselines\",\n  \"molecules\": {},\n  \"seed\": {},\n  \"cores\": {},\n  \"parallel_threads\": {},\n  \"max_patterns_cap\": {},\n  \"runs\": [\n{}\n  ],\n  \"outputs_identical\": true\n}}\n",
        data.len(),
        cli.seed,
        cores,
        par_threads,
        MAX_PATTERNS,
        runs.join(",\n")
    );
    std::fs::write("BENCH_baselines.json", &json).expect("write BENCH_baselines.json");
    println!("wrote BENCH_baselines.json");
}
