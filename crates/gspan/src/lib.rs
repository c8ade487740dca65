//! gSpan — graph-based substructure pattern mining (Yan & Han, ICDM 2002).
//!
//! A from-scratch reimplementation of the gSpan frequent-subgraph miner, one
//! of the two baselines GraphSig is evaluated against (Figs. 2, 9, 11 of the
//! paper) and a candidate implementation of the `MaximalFSM` subroutine in
//! Algorithm 2.
//!
//! gSpan explores the pattern space by *pattern growth* over canonical
//! **DFS codes**: each connected labeled subgraph is identified with the
//! lexicographically minimum sequence of DFS edges that can generate it, and
//! the search tree only extends patterns along the rightmost path of their
//! DFS tree. Every search node whose code is not minimal is a duplicate of
//! an already-explored pattern and is pruned. Support counting is performed
//! on *projections* — per-graph embedding lists threaded through the
//! recursion, so no subgraph isomorphism tests are needed during mining.
//!
//! Modules:
//! * [`dfs_code`] — [`DfsEdge`], [`DfsCode`], the gSpan edge order,
//!   rightmost-path computation, and code → graph reconstruction.
//! * [`min_code`] — canonical (minimum) DFS code of a graph by restricted
//!   self-projection, and the `is_min` test that runs the same projection
//!   against a candidate code with early exit at the first divergence. The
//!   miner calls `is_min` directly at every search node; there is no cache
//!   or embedding pruning in front of it (DESIGN.md §5e says why).
//! * [`miner`] — the projected pattern-growth search over a [`GraphDb`](graphsig_graph::GraphDb).
//! * [`pattern`] — mined [`Pattern`]s and closed / maximal post-filters.
//!
//! # Example
//!
//! ```
//! use graphsig_graph::parse_transactions;
//! use graphsig_gspan::{GSpan, MinerConfig};
//!
//! let db = parse_transactions(
//!     "t # 0\nv 0 C\nv 1 C\nv 2 O\ne 0 1 s\ne 1 2 s\n\
//!      t # 1\nv 0 C\nv 1 C\nv 2 N\ne 0 1 s\ne 1 2 s\n",
//! )
//! .unwrap();
//! let patterns = GSpan::new(MinerConfig::new(2)).mine(&db);
//! // The C-C edge is frequent in both graphs (gSpan patterns have >= 1 edge).
//! assert!(patterns.iter().any(|p| p.graph.edge_count() == 1 && p.support == 2));
//! ```

pub mod dfs_code;
mod extend;
pub mod min_code;
pub mod miner;
pub mod pattern;

pub use dfs_code::{DfsCode, DfsEdge};
pub use min_code::{is_min, min_dfs_code};
pub use miner::{GSpan, MinerConfig};
pub use pattern::{
    filter_closed, filter_closed_with, filter_maximal, filter_maximal_with, Pattern,
};
