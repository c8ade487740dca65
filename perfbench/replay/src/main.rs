//! `gsbench` — the native half of the GraphSig end-to-end benchmark.
//!
//! ```text
//! gsbench gen screen <NAME> <SCALE> <SEED>     # Table V screen, permuted by SEED
//! gsbench gen aids <N> <GEN_SEED> <SEED>       # aids_like(N, GEN_SEED), permuted by SEED
//! gsbench replay --text FILE [--store DIR] [--mine MF,PV,R,BACKEND]... \
//!                [--freq SUPPORT,BACKEND]... [--quick]
//! ```
//!
//! `gen` writes a transaction file to stdout. The molecule population is
//! fixed by the generator seed; the benchmark seed only shuffles molecule
//! order and atom numbering, so every seed is a different input with the
//! same mining cost profile. Seed 0 is the identity: `gen screen OVCAR-8
//! 0.01 0` is byte-identical to `graphsig generate screen OVCAR-8 0.01`.
//!
//! `replay` re-runs a workload's mining work in process at one thread,
//! calling each layer's public entry point in pipeline order and recording
//! one span per call. It then runs the same work untraced through
//! `GraphSig::prepare` / `mine_prepared` and checks that both give the same
//! rendered answer. Spans stay in memory until the end, then go to stdout
//! as `span` lines followed by one `summary` JSON line.

use std::collections::hash_map::{Entry, HashMap};
use std::path::Path;
use std::time::{Duration, Instant};

use graphsig_core::{
    compute_all_window_vectors, group_by_label, render_subgraphs, FsmBackend, GraphSig,
    GraphSigConfig, GraphSigResult, Profile, RunStats, SignificantSubgraph, WindowKind,
};
use graphsig_datagen::{aids_like, cancer_screen, cancer_screen_names};
use graphsig_features::FeatureSet;
use graphsig_fsg::{Fsg, FsgConfig};
use graphsig_fvmine::{FvMineConfig, FvMiner, SignificantVector};
use graphsig_graph::{
    cut_graph, parse_transactions, write_transactions, Budget, Graph, GraphBuilder, GraphDb,
    LabelPairIndex, NodeLabel,
};
use graphsig_gspan::{filter_maximal_with, DfsCode, GSpan, MinerConfig, Pattern};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("gen") => cmd_gen(&args[1..]),
        Some("replay") => cmd_replay(&args[1..]),
        _ => Err("usage: gsbench gen ... | gsbench replay ...".to_string()),
    };
    if let Err(e) = result {
        eprintln!("gsbench: {e}");
        std::process::exit(2);
    }
}

fn parse<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("bad {what} '{s}'"))
}

// ---------------------------------------------------------------- gen ----

fn cmd_gen(args: &[String]) -> Result<(), String> {
    let (db, seed) = match args {
        [kind, name, scale, seed] if kind == "screen" => {
            if !cancer_screen_names().contains(&name.as_str()) {
                return Err(format!("unknown screen {name}"));
            }
            (
                cancer_screen(name, parse(scale, "scale")?).db,
                parse::<u64>(seed, "seed")?,
            )
        }
        [kind, n, gen_seed, seed] if kind == "aids" => (
            aids_like(parse(n, "count")?, parse(gen_seed, "generator seed")?).db,
            parse::<u64>(seed, "seed")?,
        ),
        _ => {
            return Err(
                "gen needs: screen <NAME> <SCALE> <SEED> | aids <N> <GEN_SEED> <SEED>".into(),
            )
        }
    };
    print!("{}", write_transactions(&permuted(&db, seed)));
    Ok(())
}

/// FNV-1a 64, the digest of a rendered answer.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf29ce484222325u64, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x100000001b3)
    })
}

/// SplitMix64 step.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Fisher-Yates permutation of `0..n`.
fn shuffle(n: usize, state: &mut u64) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (splitmix(state) % (i as u64 + 1)) as usize;
        p.swap(i, j);
    }
    p
}

/// Shuffle molecule order and renumber every molecule's atoms. Seed 0
/// returns the database unchanged.
fn permuted(db: &GraphDb, seed: u64) -> GraphDb {
    if seed == 0 {
        return db.clone();
    }
    let mut state = seed;
    let order = shuffle(db.len(), &mut state);
    let graphs: Vec<Graph> = order
        .iter()
        .map(|&gid| {
            let g = db.graph(gid);
            let perm = shuffle(g.node_count(), &mut state);
            let mut new_id = vec![0u32; perm.len()];
            let mut b = GraphBuilder::with_capacity(perm.len(), g.edge_count());
            for &old in &perm {
                new_id[old] = b.add_node(g.node_label(old as u32));
            }
            for e in g.edges() {
                b.add_edge(new_id[e.u as usize], new_id[e.v as usize], e.label);
            }
            b.build()
        })
        .collect();
    GraphDb::from_parts(graphs, db.labels().clone())
}

// ------------------------------------------------------------- tracer ----

/// One recorded call: layer name, interval, causing span, request id.
struct Span {
    name: &'static str,
    start: Instant,
    end: Instant,
    parent: Option<usize>,
    req: usize,
}

/// In-memory span recorder. Spans nest through an explicit stack; nothing
/// is written until the replay ends.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    req: usize,
}

impl Tracer {
    fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            stack: Vec::new(),
            req: 0,
        }
    }

    fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let idx = self.spans.len();
        let start = Instant::now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.stack.last().copied(),
            req: self.req,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end = Instant::now();
        out
    }

    fn ns(&self, t: Instant) -> u128 {
        t.duration_since(self.origin).as_nanos()
    }
}

// ------------------------------------------------------------- replay ----

/// One `mine` setting from the command line.
struct MineKey {
    text: String,
    cfg: GraphSigConfig,
}

fn parse_mine_key(s: &str) -> Result<MineKey, String> {
    let parts: Vec<&str> = s.split(',').collect();
    let [mf, pv, r, backend] = parts.as_slice() else {
        return Err(format!("--mine wants MF,PV,R,BACKEND, got '{s}'"));
    };
    Ok(MineKey {
        text: s.to_string(),
        cfg: GraphSigConfig {
            min_freq: parse(mf, "min_freq")?,
            max_pvalue: parse(pv, "max_pvalue")?,
            radius: parse(r, "radius")?,
            fsm_backend: match *backend {
                "fsg" => FsmBackend::Fsg,
                "gspan" => FsmBackend::GSpan,
                other => return Err(format!("unknown backend {other}")),
            },
            threads: 1,
            ..GraphSigConfig::default()
        },
    })
}

/// Counters gathered alongside the spans.
#[derive(Default)]
struct Counts {
    vectors: u64,
    groups: u64,
    significant_vectors: u64,
    cut_calls: u64,
    fsg_calls: u64,
    fsg_patterns: u64,
    fsg_match_steps: u64,
    fsg_canon_calls: u64,
    fsg_cert_hits: u64,
    gspan_calls: u64,
    gspan_patterns: u64,
    gspan_canon_calls: u64,
    disk_bytes: u64,
}

/// Run one FSM call the way `GraphSig::maximal_fsm` does at one thread,
/// but through the index-build / mine / maximal-filter entry points so
/// each gets its own span. A fresh unlimited budget fills the counters.
fn traced_fsm(
    t: &mut Tracer,
    c: &mut Counts,
    cfg: &GraphSigConfig,
    regions: &GraphDb,
    support: usize,
) -> Vec<Pattern> {
    if regions.len() < support {
        return Vec::new();
    }
    let cap = cfg.max_patterns_per_set;
    let budget = Budget::unlimited();
    let index = t.span("graph.index_build", |_| LabelPairIndex::build(regions));
    let all = match cfg.fsm_backend {
        FsmBackend::Fsg => {
            let fsg = Fsg::new(
                FsgConfig::new(support)
                    .with_max_edges(cfg.max_pattern_edges)
                    .with_max_patterns(cap)
                    .with_matcher(cfg.matcher)
                    .with_threads(1)
                    .with_budget(budget.clone()),
            );
            let out = t
                .span("fsg", |_| fsg.mine_indexed_outcome(regions, &index))
                .result;
            c.fsg_calls += 1;
            c.fsg_patterns += out.len() as u64;
            c.fsg_match_steps += budget.match_steps_spent();
            c.fsg_canon_calls += budget.canon_calls();
            c.fsg_cert_hits += budget.cert_hits();
            out
        }
        FsmBackend::GSpan => {
            let gspan = GSpan::new(
                MinerConfig::new(support)
                    .with_max_edges(cfg.max_pattern_edges)
                    .with_max_patterns(cap)
                    .with_threads(1)
                    .with_budget(budget.clone()),
            );
            let out = t
                .span("gspan", |_| gspan.mine_indexed_outcome(regions, &index))
                .result;
            c.gspan_calls += 1;
            c.gspan_patterns += out.len() as u64;
            c.gspan_canon_calls += budget.canon_calls();
            out
        }
    };
    t.span("gspan.maximal_filter", |_| {
        filter_maximal_with(all, cfg.matcher)
    })
}

type WorkItem = (NodeLabel, SignificantVector, Vec<(u32, u32)>);

/// Phases 2–3 of Algorithm 2 over a prepared window pass, one span per
/// layer call. Returns the answer in the pipeline's final order.
fn traced_mine(
    t: &mut Tracer,
    c: &mut Counts,
    cfg: &GraphSigConfig,
    db: &GraphDb,
    groups: &[graphsig_core::LabelGroup],
) -> GraphSigResult {
    // (group label, significant vector, the (gid, node) pairs it describes)
    let mut work: Vec<WorkItem> = Vec::new();
    for group in groups {
        c.groups += 1;
        let min_support = cfg.fvmine_support(group.vectors.len());
        if group.vectors.len() < min_support {
            continue;
        }
        let miner = FvMiner::new(FvMineConfig::new(min_support, cfg.max_pvalue));
        let found = t.span("fvmine", |_| miner.mine(&group.vectors));
        for sv in found {
            let nodes = sv
                .support_ids
                .iter()
                .map(|&i| group.members[i as usize])
                .collect();
            work.push((group.label, sv, nodes));
        }
    }
    c.significant_vectors += work.len() as u64;

    let mut best: HashMap<DfsCode, SignificantSubgraph> = HashMap::new();
    for (label, sv, nodes) in &work {
        if nodes.len() < 2 {
            continue;
        }
        let mut regions = GraphDb::from_parts(Vec::new(), db.labels().clone());
        let mut sources: Vec<u32> = Vec::with_capacity(nodes.len());
        for &(gid, node) in nodes {
            let (region, _) = t.span("graph.cut", |_| {
                cut_graph(db.graph(gid as usize), node, cfg.radius)
            });
            c.cut_calls += 1;
            regions.push(region);
            sources.push(gid);
        }
        let support = cfg.fsm_support(regions.len());
        let patterns = t.span("fsm.set", |t| traced_fsm(t, c, cfg, &regions, support));
        // The pipeline's merge: the lowest vector p-value wins per code.
        for p in patterns {
            let mut gids: Vec<u32> = p.gids.iter().map(|&r| sources[r as usize]).collect();
            gids.sort_unstable();
            gids.dedup();
            let sg = SignificantSubgraph {
                graph: p.graph,
                code: p.code.clone(),
                source_vector: sv.vector.clone(),
                vector_pvalue: sv.p_value,
                vector_support: sv.support(),
                group_label: *label,
                set_size: nodes.len(),
                fsm_support: p.support,
                gids,
            };
            match best.entry(p.code) {
                Entry::Occupied(mut o) if sg.vector_pvalue < o.get().vector_pvalue => {
                    o.insert(sg);
                }
                Entry::Occupied(_) => {}
                Entry::Vacant(v) => {
                    v.insert(sg);
                }
            }
        }
    }
    let key = |c: &DfsCode| {
        c.edges()
            .iter()
            .map(|e| (e.from, e.to, e.from_label, e.edge_label, e.to_label))
            .collect::<Vec<_>>()
    };
    let mut decorated: Vec<_> = best.into_values().map(|sg| (key(&sg.code), sg)).collect();
    decorated.sort_by(|(ka, a), (kb, b)| {
        a.vector_pvalue
            .partial_cmp(&b.vector_pvalue)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| b.graph.edge_count().cmp(&a.graph.edge_count()))
            .then_with(|| ka.cmp(kb))
    });
    let subgraphs: Vec<SignificantSubgraph> = decorated.into_iter().map(|(_, sg)| sg).collect();
    GraphSigResult {
        subgraphs,
        profile: Profile::default(),
        stats: RunStats::default(),
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn cmd_replay(args: &[String]) -> Result<(), String> {
    let (mut text, mut store, mut quick) = (None, None, false);
    let (mut mines, mut freqs) = (Vec::new(), Vec::new());
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            quick = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--text" => text = Some(value.clone()),
            "--store" => store = Some(value.clone()),
            "--mine" => mines.push(parse_mine_key(value)?),
            "--freq" => {
                let (s, b) = value
                    .split_once(',')
                    .ok_or_else(|| format!("--freq wants SUPPORT,BACKEND, got '{value}'"))?;
                if b != "fsg" && b != "gspan" {
                    return Err(format!("unknown backend {b}"));
                }
                freqs.push((parse::<usize>(s, "support")?, b == "gspan"));
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let text = text.ok_or("replay needs --text")?;
    let defaults = GraphSigConfig {
        threads: 1,
        ..GraphSigConfig::default()
    };

    // ---- traced pass -----------------------------------------------------
    let mut t = Tracer::new();
    let mut c = Counts::default();
    let mut rendered: Vec<String> = Vec::new();
    // Input decode: the text the workload starts from, then (for served
    // workloads) the packed store the server loads. Mining runs on the
    // store's graphs when there is one.
    let raw = std::fs::read_to_string(&text).map_err(|e| format!("{text}: {e}"))?;
    let text_db = t
        .span("graph.parse", |_| parse_transactions(&raw))
        .map_err(|e| e.to_string())?;
    let db = match &store {
        Some(dir) => {
            let opened = t
                .span("store.open", |_| {
                    graphsig_store::open_strict(Path::new(dir))
                })
                .map_err(|e| e.to_string())?;
            c.disk_bytes += opened.disk_bytes();
            opened.db
        }
        None => text_db,
    };
    if !mines.is_empty() {
        t.req += 1;
        let groups = t.span("core.prepare", |t| {
            let fs = t.span("features.select", |_| {
                FeatureSet::for_chemical(&db, defaults.top_k_atoms)
            });
            let all = t.span("features.rwr", |_| {
                compute_all_window_vectors(&db, &fs, &defaults.rwr, WindowKind::Rwr, 1)
            });
            c.vectors += all.iter().map(|g| g.vectors.len() as u64).sum::<u64>();
            t.span("core.group", |_| group_by_label(&all))
        });
        for key in &mines {
            t.req += 1;
            let result = t.span("core.mine", |t| {
                traced_mine(t, &mut c, &key.cfg, &db, &groups)
            });
            rendered.push(t.span("cli.render", |_| render_subgraphs(&db, &result, usize::MAX)));
        }
    }
    // Whole-database frequent mining (`freq` / `sweep`): one index build
    // per dataset version, then one indexed run per threshold.
    let mut freq_counts: Vec<usize> = Vec::new();
    if !freqs.is_empty() {
        t.req += 1;
        let index = t.span("graph.index_build", |_| LabelPairIndex::build(&db));
        for &(support, gspan) in &freqs {
            t.req += 1;
            let budget = Budget::unlimited();
            let n = if gspan {
                let n = t
                    .span("gspan", |_| {
                        freq_gspan(support, &budget).mine_indexed_outcome(&db, &index)
                    })
                    .result
                    .len();
                c.gspan_calls += 1;
                c.gspan_patterns += n as u64;
                c.gspan_canon_calls += budget.canon_calls();
                n
            } else {
                let n = t
                    .span("fsg", |_| {
                        freq_fsg(support, &budget).mine_indexed_outcome(&db, &index)
                    })
                    .result
                    .len();
                c.fsg_calls += 1;
                c.fsg_patterns += n as u64;
                c.fsg_match_steps += budget.match_steps_spent();
                c.fsg_canon_calls += budget.canon_calls();
                c.fsg_cert_hits += budget.cert_hits();
                n
            };
            freq_counts.push(n);
        }
    }
    // Traced wall time of the mining work: every root span except input
    // decode and rendering.
    let traced_work_ms: f64 = t
        .spans
        .iter()
        .filter(|s| {
            s.parent.is_none() && !matches!(s.name, "graph.parse" | "store.open" | "cli.render")
        })
        .map(|s| ms(s.end.duration_since(s.start)))
        .sum();

    // ---- untraced pass: the same work through the public pipeline -------
    let mut untraced_ms = 0.0;
    let mut fingerprints_match = true;
    if !quick && !mines.is_empty() {
        let started = Instant::now();
        let prepared = GraphSig::new(defaults.clone()).prepare(&db);
        let mut results = Vec::new();
        for key in &mines {
            results.push(GraphSig::new(key.cfg.clone()).mine_prepared(&db, &prepared));
        }
        untraced_ms += ms(started.elapsed());
        let outs: Vec<String> = results
            .iter()
            .map(|r| render_subgraphs(&db, r, usize::MAX))
            .collect();
        // `mine` is `prepare` + `mine_prepared`; check the composition on
        // the first setting against the one-call entry point anyway.
        let whole = GraphSig::new(mines[0].cfg.clone()).mine(&db);
        fingerprints_match =
            outs == rendered && render_subgraphs(&db, &whole, usize::MAX) == outs[0];
    }
    if !quick && !freqs.is_empty() {
        let started = Instant::now();
        let index = LabelPairIndex::build(&db);
        let mut counts = Vec::new();
        for &(support, gspan) in &freqs {
            let budget = Budget::unlimited();
            counts.push(if gspan {
                freq_gspan(support, &budget)
                    .mine_indexed_outcome(&db, &index)
                    .result
                    .len()
            } else {
                freq_fsg(support, &budget)
                    .mine_indexed_outcome(&db, &index)
                    .result
                    .len()
            });
        }
        untraced_ms += ms(started.elapsed());
        fingerprints_match &= counts == freq_counts;
    }

    // ---- write out -------------------------------------------------------
    let mut out = String::with_capacity(t.spans.len() * 48);
    for (i, s) in t.spans.iter().enumerate() {
        let parent = s.parent.map_or(-1, |p| p as i64);
        out.push_str(&format!(
            "span {i} {} {} {} {parent} {}\n",
            s.name,
            t.ns(s.start),
            t.ns(s.end),
            s.req
        ));
    }
    let fps: Vec<String> = rendered
        .iter()
        .zip(&mines)
        .map(|(r, k)| format!("\"{}\": \"{:016x}\"", k.text, fnv1a(r.as_bytes())))
        .collect();
    let fields: [(&str, u64); 13] = [
        ("vectors", c.vectors),
        ("groups", c.groups),
        ("significant_vectors", c.significant_vectors),
        ("cut_calls", c.cut_calls),
        ("fsg_calls", c.fsg_calls),
        ("fsg_patterns", c.fsg_patterns),
        ("fsg_match_steps", c.fsg_match_steps),
        ("fsg_canon_calls", c.fsg_canon_calls),
        ("fsg_cert_hits", c.fsg_cert_hits),
        ("gspan_calls", c.gspan_calls),
        ("gspan_patterns", c.gspan_patterns),
        ("gspan_canon_calls", c.gspan_canon_calls),
        ("disk_bytes", c.disk_bytes),
    ];
    let freq_patterns: Vec<String> = freqs
        .iter()
        .zip(&freq_counts)
        .map(|(&(support, gspan), n)| {
            let backend = if gspan { "gspan" } else { "fsg" };
            format!("\"{support},{backend}\": {n}")
        })
        .collect();
    let counters: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    out.push_str(&format!(
        "summary {{\"spans\": {}, \"verified\": {}, \"fingerprints_match\": {fingerprints_match}, \
         \"traced_work_ms\": {traced_work_ms:.6}, \"untraced_ms\": {untraced_ms:.6}, \
         \"fingerprints\": {{{}}}, \"freq_patterns\": {{{}}}, {}}}\n",
        t.spans.len(),
        !quick,
        fps.join(", "),
        freq_patterns.join(", "),
        counters.join(", "),
    ));
    print!("{out}");
    if !fingerprints_match {
        return Err("traced replay differs from the untraced pipeline".into());
    }
    Ok(())
}

/// The FSG miner a server `freq` request runs with the server's defaults
/// (at most 8 edges and 10,000 patterns), at one thread. The traced run
/// checks each count against the `patterns=` of the server's reply.
fn freq_fsg(support: usize, budget: &Budget) -> Fsg {
    Fsg::new(
        FsgConfig::new(support)
            .with_max_edges(8)
            .with_max_patterns(10_000)
            .with_threads(1)
            .with_budget(budget.clone()),
    )
}

/// The gSpan counterpart of [`freq_fsg`].
fn freq_gspan(support: usize, budget: &Budget) -> GSpan {
    GSpan::new(
        MinerConfig::new(support)
            .with_max_edges(8)
            .with_max_patterns(10_000)
            .with_threads(1)
            .with_budget(budget.clone()),
    )
}
