//! Property-based invariants across the workspace (proptest).
#![allow(clippy::needless_range_loop)]

use proptest::prelude::*;

use graphsig_fvmine::{ceiling_of, floor_of, is_sub_vector};
use graphsig_graph::invariant::certificate;
use graphsig_graph::{
    are_isomorphic, CompiledGraph, Graph, GraphBuilder, MatchOutcome, MatcherKind, MultiMatcher,
    SubgraphMatcher,
};
use graphsig_gspan::{is_min, min_dfs_code};
use graphsig_stats::{binomial_tail_upper, Binomial};

/// Strategy: a small random connected labeled graph (tree + extra edges).
fn connected_graph() -> impl Strategy<Value = Graph> {
    (2usize..9, any::<u64>()).prop_map(|(n, seed)| {
        let mut state = seed | 1;
        let mut next = move |m: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % m
        };
        let mut b = GraphBuilder::new();
        for _ in 0..n {
            let label = next(4) as u16;
            b.add_node(label);
        }
        // Spanning tree.
        let mut edges = std::collections::HashSet::new();
        for i in 1..n as u32 {
            let parent = next(i as u64) as u32;
            b.add_edge(parent, i, next(3) as u16);
            edges.insert((parent.min(i), parent.max(i)));
        }
        // A few extra edges.
        for _ in 0..next(3) {
            let u = next(n as u64) as u32;
            let v = next(n as u64) as u32;
            if u != v && !edges.contains(&(u.min(v), u.max(v))) {
                edges.insert((u.min(v), u.max(v)));
                b.add_edge(u, v, next(3) as u16);
            }
        }
        b.build()
    })
}

/// A small random connected graph built directly from an LCG seed (for
/// tests that need several graphs per proptest case).
fn lcg_graph(seed: u64) -> Graph {
    let mut state = seed | 1;
    let mut next = move |m: u64| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) % m
    };
    let n = 2 + next(7) as usize;
    let mut b = GraphBuilder::new();
    for _ in 0..n {
        let label = next(4) as u16;
        b.add_node(label);
    }
    for i in 1..n as u32 {
        let parent = next(i as u64) as u32;
        b.add_edge(parent, i, next(3) as u16);
    }
    b.build()
}

/// Relabel a graph's node ids by a permutation derived from `seed`.
fn permuted(g: &Graph, seed: u64) -> Graph {
    let n = g.node_count();
    let mut perm: Vec<usize> = (0..n).collect();
    let mut state = seed | 1;
    for i in (1..n).rev() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let j = ((state >> 33) as usize) % (i + 1);
        perm.swap(i, j);
    }
    let mut b = GraphBuilder::new();
    // new id of old node i is perm[i]; add nodes in new-id order.
    let mut inv = vec![0usize; n];
    for (old, &new) in perm.iter().enumerate() {
        inv[new] = old;
    }
    for new in 0..n {
        b.add_node(g.node_label(inv[new] as u32));
    }
    for e in g.edges() {
        b.add_edge(
            perm[e.u as usize] as u32,
            perm[e.v as usize] as u32,
            e.label,
        );
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn min_code_invariant_under_permutation(g in connected_graph(), seed in any::<u64>()) {
        let p = permuted(&g, seed);
        prop_assert!(are_isomorphic(&g, &p));
        prop_assert_eq!(min_dfs_code(&g), min_dfs_code(&p));
    }

    #[test]
    fn certificate_invariant_under_permutation(g in connected_graph(), seed in any::<u64>()) {
        // Same isomorphism class (node/edge permutation) ⇒ same certificate;
        // this is the direction every certificate consumer relies on.
        let p = permuted(&g, seed);
        prop_assert_eq!(certificate(&g), certificate(&p));
    }

    #[test]
    fn certificate_separates_distinct_min_codes(ga in connected_graph(), gb in connected_graph()) {
        // Contrapositive on arbitrary pairs: equal certificates must never
        // be contradicted by a *provable* non-isomorphism witness the other
        // way round — different certificates ⇒ different canonical codes.
        if certificate(&ga) != certificate(&gb) {
            prop_assert_ne!(min_dfs_code(&ga), min_dfs_code(&gb));
            prop_assert!(!are_isomorphic(&ga, &gb));
        }
    }

    #[test]
    fn is_min_agrees_with_min_code_on_path_codes(
        labels in prop::collection::vec((0u16..3, 0u16..2), 1..7),
    ) {
        use graphsig_gspan::{DfsCode, DfsEdge};
        // Random path codes are valid DFS codes but often rooted at the
        // wrong end (non-minimal), exercising the rejection branch: the
        // early-exit verdict must match a full canonicalization exactly.
        let mut path = DfsCode::from_initial(labels[0].0, labels[0].1, labels.get(1).map_or(0, |l| l.0));
        for (i, w) in labels.windows(2).enumerate() {
            let next_label = labels.get(i + 2).map_or(0, |l| l.0);
            path.push(DfsEdge::new(
                (i + 1) as u32,
                (i + 2) as u32,
                w[1].0,
                w[1].1,
                next_label,
            ));
        }
        prop_assert_eq!(is_min(&path), min_dfs_code(&path.to_graph()) == path);
    }

    #[test]
    fn min_code_roundtrips(g in connected_graph()) {
        let code = min_dfs_code(&g);
        prop_assert!(is_min(&code));
        let rebuilt = code.to_graph();
        prop_assert!(are_isomorphic(&g, &rebuilt));
    }

    #[test]
    fn graph_contains_itself_and_its_edges(g in connected_graph()) {
        prop_assert!(SubgraphMatcher::new(&g, &g).exists());
        for e in g.edges() {
            let mut b = GraphBuilder::new();
            let u = b.add_node(g.node_label(e.u));
            let v = b.add_node(g.node_label(e.v));
            b.add_edge(u, v, e.label);
            prop_assert!(SubgraphMatcher::new(&b.build(), &g).exists());
        }
    }

    #[test]
    fn floor_ceiling_lattice(vs in prop::collection::vec(prop::collection::vec(0u8..6, 5), 1..8)) {
        let floor = floor_of(vs.iter().map(|v| v.as_slice()));
        let ceiling = ceiling_of(vs.iter().map(|v| v.as_slice()));
        prop_assert!(is_sub_vector(&floor, &ceiling));
        for v in &vs {
            prop_assert!(is_sub_vector(&floor, v));
            prop_assert!(is_sub_vector(v, &ceiling));
        }
        // Floor is the greatest lower bound: raising any coordinate breaks it.
        for i in 0..floor.len() {
            let mut raised = floor.clone();
            raised[i] += 1;
            prop_assert!(!vs.iter().all(|v| is_sub_vector(&raised, v)));
        }
    }

    #[test]
    fn binomial_tail_is_a_probability(n in 1u64..500, p in 0.0f64..1.0, k in 0u64..500) {
        let t = binomial_tail_upper(n, p, k);
        prop_assert!((0.0..=1.0).contains(&t));
    }

    #[test]
    fn binomial_pmf_sums_to_tail(n in 1u64..40, p in 0.01f64..0.99, k in 0u64..40) {
        prop_assume!(k <= n);
        let b = Binomial::new(n, p);
        let brute: f64 = (k..=n).map(|i| b.pmf(i)).sum();
        prop_assert!((b.tail_upper(k) - brute).abs() < 1e-9);
    }

    // ---- parser robustness: arbitrary input is Err, never a panic ----

    #[test]
    fn transaction_parser_never_panics_on_byte_soup(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        // Total function: any byte soup yields Ok or a line-numbered Err.
        let text = String::from_utf8_lossy(&bytes);
        if let Err(e) = graphsig_graph::parse_transactions(&text) {
            prop_assert!(e.line >= 1, "error line numbers are 1-based");
        }
    }

    #[test]
    fn transaction_parser_never_panics_on_token_soup(
        tokens in prop::collection::vec(
            prop::collection::vec(0usize..12, 1..6), 0..40),
        seed in any::<u64>(),
    ) {
        // Structured-ish soup: lines assembled from the grammar's own
        // vocabulary reach deeper parser states than raw bytes do.
        let vocab = ["t", "v", "e", "#", "0", "1", "9999999999999999999", "-3", "C", "", " ", "\u{fffd}"];
        let mut state = seed | 1;
        let mut text = String::new();
        for line in &tokens {
            for &tok in line {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                text.push_str(vocab[(tok + (state >> 33) as usize) % vocab.len()]);
                text.push(' ');
            }
            text.push('\n');
        }
        let _ = graphsig_graph::parse_transactions(&text);
    }

    #[test]
    fn request_parser_never_panics_on_byte_soup(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let line = String::from_utf8_lossy(&bytes);
        let _ = graphsig_server::parse_request(&line);
    }

    #[test]
    fn request_parser_never_panics_on_token_soup(
        tokens in prop::collection::vec(0usize..64, 0..24),
        seed in any::<u64>(),
    ) {
        // Soup from the protocol's own vocabulary: real ops, real keys,
        // stray `=`, over/underflowing numbers, escape fragments.
        let vocab = [
            "mine", "freq", "load", "stats", "cancel", "ping", "shutdown",
            "id=", "id=x", "dataset=d", "radius=3", "radius=", "=", "==",
            "max_steps=18446744073709551616", "timeout_ms=-1", "min_freq=0.05",
            "path=%", "path=%2", "path=%zz", "gen=aids", "count=10", "seed=1",
            "target=x", "drain_ms=0", "bogus=1", "%0a", "#",
        ];
        let mut state = seed | 1;
        let mut line = String::new();
        for &tok in &tokens {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            line.push_str(vocab[(tok + (state >> 33) as usize) % vocab.len()]);
            line.push(' ');
        }
        let _ = graphsig_server::parse_request(&line);
    }

    #[test]
    fn protocol_escape_roundtrips(bytes in prop::collection::vec(any::<u8>(), 0..128)) {
        let value = String::from_utf8_lossy(&bytes).into_owned();
        let escaped = graphsig_server::escape(&value);
        // Escaped form is single-token (no whitespace) and decodes back.
        prop_assert!(!escaped.chars().any(|c| c.is_whitespace()));
        let decoded = graphsig_server::unescape(&escaped);
        prop_assert_eq!(decoded.as_deref().ok(), Some(value.as_str()));
    }

    #[test]
    fn response_stream_parser_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let _ = graphsig_server::protocol::parse_response_stream(&bytes);
    }

    // ---- isomorphism engines: vf2 and fast must agree ----

    #[test]
    fn iso_backends_agree_on_random_pairs(
        pseed in any::<u64>(),
        tseed in any::<u64>(),
        steps in 0u64..400,
    ) {
        let pattern = lcg_graph(pseed);
        let target = lcg_graph(tseed);
        let mut vf2 = MultiMatcher::with_kind(&pattern, MatcherKind::Vf2);
        let mut fast = MultiMatcher::with_kind(&pattern, MatcherKind::Fast);
        // Unbudgeted existence agrees across engines, and the compiled
        // target entry point agrees with the plain one.
        let expect = vf2.exists_in(&target);
        prop_assert_eq!(fast.exists_in(&target), expect);
        let compiled = CompiledGraph::compile(&target);
        prop_assert_eq!(fast.exists_in_compiled(&compiled), expect);
        // Budgeted runs: per-engine deterministic, never overspend, and a
        // decided outcome must agree with the unbudgeted answer. (Step
        // counts are engine-specific by design, so the engines may decide
        // at different budgets — but never differently.)
        for m in [&mut vf2, &mut fast] {
            let first = m.exists_in_counted(&target, steps);
            prop_assert_eq!(m.exists_in_counted(&target, steps), first);
            let (outcome, used) = first;
            prop_assert!(used <= steps);
            match outcome {
                MatchOutcome::Matched => prop_assert!(expect),
                MatchOutcome::Unmatched => prop_assert!(!expect),
                MatchOutcome::Indeterminate => prop_assert_eq!(used, steps),
            }
        }
        // Compiled targets cost exactly what plain targets cost.
        prop_assert_eq!(
            fast.exists_in_counted_compiled(&compiled, steps),
            fast.exists_in_counted(&target, steps)
        );
    }

    #[test]
    fn iso_backends_agree_on_support_counts(seed in any::<u64>()) {
        // The quantity every miner derives from the matcher: how many of a
        // database's graphs contain the pattern.
        let pattern = lcg_graph(seed ^ 0x00C0FFEE);
        let targets: Vec<Graph> = (0..8u64)
            .map(|i| lcg_graph(seed ^ i.wrapping_mul(0x9E3779B97F4A7C15)))
            .collect();
        let count = |kind: MatcherKind| {
            let mut m = MultiMatcher::with_kind(&pattern, kind);
            targets.iter().filter(|t| m.exists_in(t)).count()
        };
        prop_assert_eq!(count(MatcherKind::Vf2), count(MatcherKind::Fast));
    }

    #[test]
    fn fsg_matches_gspan_on_random_databases(seed in any::<u64>()) {
        use graphsig_fsg::{Fsg, FsgConfig};
        use graphsig_gspan::{GSpan, MinerConfig};
        // Breadth-first certificate levels and depth-first `is_min` growth
        // share no search code: each is the other's oracle. Sorted by code,
        // both must mine the same (code, support, gids) set.
        let mut db = graphsig_graph::GraphDb::new();
        for i in 0..6u64 {
            db.push(lcg_graph(seed ^ (i.wrapping_mul(0x9E3779B97F4A7C15))));
        }
        let sorted = |pats: Vec<graphsig_gspan::Pattern>| {
            let mut keys: Vec<_> = pats
                .into_iter()
                .map(|p| (format!("{:?}", p.code), p.support, p.gids))
                .collect();
            keys.sort();
            keys
        };
        let fsg = Fsg::new(FsgConfig::new(2).with_max_edges(4)).mine(&db);
        let gsp = GSpan::new(MinerConfig::new(2).with_max_edges(4)).mine(&db);
        prop_assert_eq!(sorted(fsg), sorted(gsp));
    }

    #[test]
    fn gspan_patterns_verified_by_vf2(seed in any::<u64>()) {
        use graphsig_gspan::{GSpan, MinerConfig};
        // Tiny random database of 6 graphs derived from the seed.
        let mut db = graphsig_graph::GraphDb::new();
        for i in 0..6u64 {
            db.push(lcg_graph(seed ^ (i.wrapping_mul(0x9E3779B97F4A7C15))));
        }
        let pats = GSpan::new(MinerConfig::new(2).with_max_edges(4)).mine(&db);
        for p in &pats {
            let real = db
                .graphs()
                .iter()
                .filter(|g| SubgraphMatcher::new(&p.graph, g).exists())
                .count();
            prop_assert_eq!(real, p.support);
        }
    }
}
