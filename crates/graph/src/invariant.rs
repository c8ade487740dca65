//! Isomorphism-invariant certificates via 1-WL partition refinement.
//!
//! `min_dfs_code` canonicalization is the FSG baseline's dominant cost once
//! matching is cheap (DESIGN §5d/§5e): every candidate — and, in the
//! downward-closure check, every (k−1)-edge subgraph of every candidate —
//! pays for a full restricted self-projection. Almost all of those calls
//! answer a much weaker question than "what is the canonical code": they
//! ask "have I seen this structure before?". This module answers that
//! question with a *certificate*: iterative label/degree partition
//! refinement (one-dimensional Weisfeiler–Leman color refinement) run to a
//! fixed point and hashed into a single `u64`.
//!
//! Properties the rest of the workspace relies on:
//!
//! * **Isomorphism-invariant.** Colors are computed from node labels and
//!   the multiset of `(edge label, neighbor color)` pairs only — never from
//!   node ids — so isomorphic graphs get identical certificates and
//!   identical color multisets. Consequently *different* certificates prove
//!   non-isomorphism, which is the direction the miners exploit.
//! * **One-sided.** Equal certificates do *not* prove isomorphism (1-WL
//!   cannot distinguish certain regular graphs, and the hash itself could
//!   collide). Every consumer treats certificate equality as "possibly
//!   isomorphic — verify exactly" (via [`crate::are_isomorphic`] or a full
//!   `min_dfs_code`), never as a final answer.
//! * **Deterministic.** Hashing is a fixed splitmix64-style mix — no
//!   `RandomState`, no per-process seeds — so certificates are stable
//!   across runs, threads, and platforms, and safe to persist in bench
//!   JSON or compare across processes.
//!
//! The per-node stable colors are exposed too: within one graph, two nodes
//! with different colors provably lie in different automorphism orbits.

use crate::control::Meter;
use crate::graph::{Graph, NodeId};

/// A deterministic isomorphism-invariant hash of a labeled graph.
///
/// Equal certificates mean *possibly* isomorphic; different certificates
/// mean *provably not* isomorphic. See the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Certificate(pub u64);

impl std::fmt::Display for Certificate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// The result of running color refinement to its fixed point.
#[derive(Debug, Clone)]
pub struct Refinement {
    /// Stable color per node (indexed by node id). Equal colors ⇒ possibly
    /// same orbit; different colors ⇒ provably different orbits.
    pub colors: Vec<u64>,
    /// Number of refinement rounds until the partition stabilized.
    pub rounds: usize,
    /// The graph's certificate, derived from the stable colors.
    pub certificate: Certificate,
}

/// splitmix64 finalizer: the deterministic scrambling primitive all
/// certificate hashing is built from.
#[inline]
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Order-sensitive combine; callers sort multisets before folding.
#[inline]
fn fold(h: u64, x: u64) -> u64 {
    mix(h.rotate_left(7) ^ x)
}

fn distinct_count(colors: &[u64], scratch: &mut Vec<u64>) -> usize {
    scratch.clear();
    scratch.extend_from_slice(colors);
    scratch.sort_unstable();
    scratch.dedup();
    scratch.len()
}

/// Run 1-WL color refinement to a fixed point, charging the meter one step
/// up front plus one per refinement round. Returns `None` iff the meter's
/// budget ran out mid-refinement (the certificate would be truncated at a
/// nondeterministic round count, so no partial answer is returned).
pub fn refine_metered(g: &Graph, meter: &mut Meter<'_>) -> Option<Refinement> {
    if !meter.tick() {
        return None;
    }
    let n = g.node_count();
    let mut colors: Vec<u64> = (0..n as NodeId)
        .map(|v| mix(0xC010_4EF1_4E5E_ED00 ^ u64::from(g.node_label(v))))
        .collect();
    let mut scratch = Vec::with_capacity(n);
    let mut distinct = distinct_count(&colors, &mut scratch);
    let mut rounds = 0usize;

    // Each round either splits at least one color class or stabilizes, so
    // at most n-1 productive rounds are possible (plus the round that
    // observes stability).
    let mut next = vec![0u64; n];
    let mut sig = Vec::new();
    while distinct < n {
        if !meter.tick() {
            return None;
        }
        rounds += 1;
        for v in 0..n as NodeId {
            sig.clear();
            for a in g.neighbors(v) {
                sig.push(mix(
                    u64::from(a.label).rotate_left(32) ^ colors[a.to as usize]
                ));
            }
            sig.sort_unstable();
            let mut h = mix(colors[v as usize]);
            for &s in &sig {
                h = fold(h, s);
            }
            next[v as usize] = h;
        }
        std::mem::swap(&mut colors, &mut next);
        let new_distinct = distinct_count(&colors, &mut scratch);
        if new_distinct == distinct {
            break;
        }
        distinct = new_distinct;
    }

    // Certificate: counts plus the sorted multiset of stable colors.
    let mut sorted = colors.clone();
    sorted.sort_unstable();
    let mut cert = fold(mix(n as u64), g.edge_count() as u64);
    for &c in &sorted {
        cert = fold(cert, c);
    }
    Some(Refinement {
        colors,
        rounds,
        certificate: Certificate(cert),
    })
}

/// [`refine_metered`] without a budget.
pub fn refine(g: &Graph) -> Refinement {
    refine_metered(g, &mut Meter::unbudgeted()).expect("unbudgeted refinement cannot stop")
}

/// The certificate of `g` (unbudgeted convenience form).
pub fn certificate(g: &Graph) -> Certificate {
    refine(g).certificate
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;
    use crate::Budget;

    fn cycle(labels: &[u16], el: u16) -> Graph {
        let mut b = GraphBuilder::new();
        let n: Vec<_> = labels.iter().map(|&l| b.add_node(l)).collect();
        for i in 0..n.len() {
            b.add_edge(n[i], n[(i + 1) % n.len()], el);
        }
        b.build()
    }

    fn path(labels: &[u16], elabels: &[u16]) -> Graph {
        let mut b = GraphBuilder::new();
        let n: Vec<_> = labels.iter().map(|&l| b.add_node(l)).collect();
        for (i, &el) in elabels.iter().enumerate() {
            b.add_edge(n[i], n[i + 1], el);
        }
        b.build()
    }

    #[test]
    fn isomorphic_builds_share_certificate() {
        let a = cycle(&[3, 1, 2], 9);
        let b = cycle(&[1, 2, 3], 9);
        let c = cycle(&[2, 3, 1], 9);
        assert_eq!(certificate(&a), certificate(&b));
        assert_eq!(certificate(&a), certificate(&c));
    }

    #[test]
    fn structural_differences_change_certificate() {
        assert_ne!(
            certificate(&cycle(&[0, 0, 0], 1)),
            certificate(&path(&[0, 0, 0], &[1, 1]))
        );
        assert_ne!(
            certificate(&path(&[0, 0, 0], &[1, 2])),
            certificate(&path(&[0, 0, 0], &[1, 1]))
        );
        assert_ne!(
            certificate(&path(&[0, 1, 0], &[1, 1])),
            certificate(&path(&[0, 0, 1], &[1, 1]))
        );
    }

    #[test]
    fn colors_distinguish_orbits_on_labeled_path() {
        // Path 0-1-2 with distinct end labels: all three orbits singleton.
        let g = path(&[5, 1, 7], &[2, 2]);
        let r = refine(&g);
        assert_eq!(
            r.colors
                .iter()
                .collect::<std::collections::HashSet<_>>()
                .len(),
            3
        );
        // Palindromic path: the two ends share an orbit, middle is alone.
        let g = path(&[5, 1, 5], &[2, 2]);
        let r = refine(&g);
        assert_eq!(r.colors[0], r.colors[2]);
        assert_ne!(r.colors[0], r.colors[1]);
    }

    #[test]
    fn refinement_rounds_are_metered() {
        let g = path(&[0, 0, 0, 0, 0], &[1, 1, 1, 1]);
        let budget = Budget::unlimited();
        let mut meter = budget.meter();
        let r = refine_metered(&g, &mut meter).unwrap();
        drop(meter);
        // One upfront step plus one per round.
        assert_eq!(budget.steps_spent(), 1 + r.rounds as u64);
        assert!(r.rounds >= 1);

        // An exhausted budget stops refinement instead of returning a
        // partial certificate.
        let tight = Budget::unlimited().with_max_steps(1);
        let mut meter = tight.meter();
        assert!(refine_metered(&g, &mut meter).is_none());
        assert!(meter.truncated());
    }

    #[test]
    fn empty_and_single_node_graphs_have_certificates() {
        let empty = GraphBuilder::new().build();
        let mut b = GraphBuilder::new();
        b.add_node(4);
        let single = b.build();
        assert_ne!(certificate(&empty), certificate(&single));
        let mut b2 = GraphBuilder::new();
        b2.add_node(5);
        assert_ne!(certificate(&single), certificate(&b2.build()));
    }
}
