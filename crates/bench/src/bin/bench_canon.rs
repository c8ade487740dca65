//! Canonicalization microbenchmark: how many full min-code computations
//! each miner pays on the Fig. 9 operating points (frequency-threshold
//! sweep over the AIDS-like generator).
//!
//! * **FSG**: the certificate level pipeline (dedup + downward closure
//!   through 1-WL certificates, `min_dfs_code` only on emitted survivors)
//!   — wall time, canonicalization calls, certificate hits.
//! * **gSpan**: the `is_min` gate at every search node — wall time and
//!   canonicalization calls, for scale.
//!
//! Both miners run sequentially with counters attached. Full mode writes
//! `BENCH_canon.json` (with the machine's `cores`). `--smoke` is the CI
//! regression gate: at the Fig. 9 freq=0.07 point it asserts the exact
//! property the certificate pipeline promises — FSG canonicalization calls
//! equal the number of patterns emitted — so a change that canonicalizes
//! any candidate that is not emitted fails CI.
//!
//! Usage: `bench_canon [--scale f] [--seed u] [--smoke]`

use std::time::Duration;

use graphsig_bench::{secs, timed, Cli};
use graphsig_datagen::aids_like;
use graphsig_fsg::{Fsg, FsgConfig};
use graphsig_graph::{resolve_threads, Budget, GraphDb, LabelPairIndex};
use graphsig_gspan::{GSpan, MinerConfig, Pattern};

/// Same caps as `bench_baselines`, so the counts are comparable.
const MAX_PATTERNS: usize = 20_000;
const MAX_EDGES: usize = 8;

struct Run {
    pats: Vec<Pattern>,
    time: Duration,
    canon_calls: u64,
    cert_hits: u64,
}

impl Run {
    /// The certificate pipeline's contract: one canonicalization per
    /// emitted pattern. Only a run below the pattern cap emits every
    /// survivor it canonicalized, so only such a run is checked.
    fn assert_one_canon_per_pattern(&self, freq: f64) {
        assert!(
            self.pats.len() < MAX_PATTERNS,
            "fsg freq={freq}: pattern cap reached"
        );
        assert_eq!(
            self.canon_calls,
            self.pats.len() as u64,
            "fsg freq={freq}: canonicalization calls != patterns emitted"
        );
    }
}

fn run_fsg(db: &GraphDb, index: &LabelPairIndex, support: usize) -> Run {
    let budget = Budget::unlimited();
    let cfg = FsgConfig::new(support)
        .with_max_edges(MAX_EDGES)
        .with_max_patterns(MAX_PATTERNS)
        .with_budget(budget.clone());
    let (pats, time) = timed(|| Fsg::new(cfg.clone()).mine_indexed(db, index));
    Run {
        pats,
        time,
        canon_calls: budget.canon_calls(),
        cert_hits: budget.cert_hits(),
    }
}

fn run_gspan(db: &GraphDb, index: &LabelPairIndex, support: usize) -> Run {
    let budget = Budget::unlimited();
    let cfg = MinerConfig::new(support)
        .with_max_edges(MAX_EDGES)
        .with_max_patterns(MAX_PATTERNS)
        .with_budget(budget.clone());
    let (pats, time) = timed(|| GSpan::new(cfg.clone()).mine_indexed(db, index));
    Run {
        pats,
        time,
        canon_calls: budget.canon_calls(),
        cert_hits: budget.cert_hits(),
    }
}

/// One Fig. 9 point: both miners, counters attached. Returns the JSON
/// fragment.
fn run_point(freq: f64, db: &GraphDb, support: usize) -> String {
    let index = LabelPairIndex::build(db);
    let fsg = run_fsg(db, &index, support);
    fsg.assert_one_canon_per_pattern(freq);
    let gsp = run_gspan(db, &index, support);

    println!(
        "freq={freq:<5} fsg {}s ({} patterns, {} canon, {} cert hits) | gspan {}s ({} patterns, {} canon)",
        secs(fsg.time),
        fsg.pats.len(),
        fsg.canon_calls,
        fsg.cert_hits,
        secs(gsp.time),
        gsp.pats.len(),
        gsp.canon_calls,
    );

    format!(
        "    {{ \"frequency\": {freq}, \"min_support\": {support}, \"patterns\": {}, \
\"fsg_s\": {}, \"fsg_canon_calls\": {}, \"fsg_cert_hits\": {}, \
\"gspan_s\": {}, \"gspan_canon_calls\": {} }}",
        fsg.pats.len(),
        secs(fsg.time),
        fsg.canon_calls,
        fsg.cert_hits,
        secs(gsp.time),
        gsp.canon_calls,
    )
}

fn main() {
    let cli = Cli::parse(1.0);
    let n = (800.0 * cli.scale).round() as usize;
    let data = aids_like(n, cli.seed);

    if cli.smoke {
        let freq = 0.07;
        let support = ((freq * data.len() as f64).ceil() as usize).max(1);
        let index = LabelPairIndex::build(&data.db);
        let fsg = run_fsg(&data.db, &index, support);
        fsg.assert_one_canon_per_pattern(freq);
        println!(
            "smoke: freq={freq} OK — {} patterns, {} canon calls, {} cert hits",
            fsg.pats.len(),
            fsg.canon_calls,
            fsg.cert_hits
        );
        return;
    }

    let cores = resolve_threads(0);
    println!(
        "# bench_canon — {} molecules, Fig. 9 frequency sweep, sequential ({} core(s))",
        data.len(),
        cores
    );
    let mut runs = Vec::new();
    for freq in [0.10, 0.07, 0.05] {
        let support = ((freq * data.len() as f64).ceil() as usize).max(1);
        runs.push(run_point(freq, &data.db, support));
    }

    let json = format!(
        "{{\n  \"bench\": \"canon\",\n  \"molecules\": {},\n  \"seed\": {},\n  \"cores\": {},\n  \"max_patterns_cap\": {},\n  \"runs\": [\n{}\n  ]\n}}\n",
        data.len(),
        cli.seed,
        cores,
        MAX_PATTERNS,
        runs.join(",\n")
    );
    std::fs::write("BENCH_canon.json", &json).expect("write BENCH_canon.json");
    println!("wrote BENCH_canon.json");
}
