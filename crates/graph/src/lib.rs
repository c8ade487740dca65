//! Labeled-graph substrate for GraphSig.
//!
//! GraphSig operates over *databases of small labeled undirected graphs* —
//! in the paper, chemical compounds where vertices carry atom types and
//! edges carry bond types. This crate is the shared foundation used by every
//! other crate in the workspace:
//!
//! * [`labels`] — string-interned vertex/edge label tables shared across a
//!   database, so miners work on dense `u16` ids.
//! * [`graph`] — the [`Graph`] type: compact adjacency representation,
//!   builder, and structural accessors.
//! * [`database`] — [`GraphDb`]: a collection of graphs plus the label
//!   table, with summary statistics (the paper's Table V reports these).
//! * [`neighborhood`] — BFS balls and `CutGraph(n, radius)` (Algorithm 2,
//!   line 12): extracting the induced subgraph within a hop radius.
//! * [`iso`] — subgraph isomorphism: existence, embedding enumeration, and
//!   whole-graph isomorphism tests, behind two engines (`MatcherKind`):
//!   the VF2-style reference matcher and the default fast path-at-a-time
//!   bitset matcher. Used for support counting in the FSG baseline,
//!   maximality filtering, classification features, and verifying that
//!   mined patterns really occur where claimed.
//! * [`compiled`] — [`CompiledGraph`]/[`CompiledDb`]: label-bucketed bitset
//!   target representation the fast matcher searches over, built once per
//!   database and cached on the [`LabelPairIndex`].
//! * [`invariant`] — isomorphism-invariant [`Certificate`]s via 1-WL
//!   label/degree partition refinement, plus per-node orbit colors. The
//!   FSG miner uses certificates to canonicalize only emitted patterns.
//! * [`index`] — [`LabelPairIndex`]: a database-wide index from
//!   (node-label, edge-label, node-label) triples to per-graph edge
//!   occurrence lists. Both baseline miners seed from it instead of
//!   rescanning the database.
//! * [`io`] — the line-oriented graph transaction format used by the
//!   original gSpan/FSG tools (`t # id` / `v id label` / `e u v label`).
//! * [`algorithms`] — components, eccentricity/diameter, cycle rank.
//! * [`edit`] — edge/node removal and induced subgraphs (new graphs).
//! * [`par`] — the deterministic dynamically-scheduled parallel executor
//!   shared by the GraphSig pipeline and the baseline miners, with
//!   per-task panic isolation ([`try_par_map`] / [`TaskPanicked`]).
//! * [`control`] — request-level resource governance: [`Budget`] /
//!   [`CancelToken`] / per-work-unit [`Meter`], and the
//!   [`Outcome`]/[`Completion`] types miners report truncation through.
//!   Step-budget truncation is deterministic across thread counts;
//!   deadline/cancellation are best-effort (see the module docs).
//!
//! # Example
//!
//! ```
//! use graphsig_graph::{GraphBuilder, Graph};
//!
//! // Benzene-like ring: 6 carbons joined by aromatic bonds (Fig. 5).
//! let mut b = GraphBuilder::new();
//! let c: Vec<_> = (0..6).map(|_| b.add_node(0)).collect();
//! for i in 0..6 {
//!     b.add_edge(c[i], c[(i + 1) % 6], 1);
//! }
//! let benzene: Graph = b.build();
//! assert_eq!(benzene.node_count(), 6);
//! assert_eq!(benzene.edge_count(), 6);
//! assert!(benzene.is_connected());
//! ```

pub mod algorithms;
pub mod compiled;
pub mod control;
pub mod database;
pub mod display;
pub mod edit;
pub mod graph;
pub mod index;
pub mod invariant;
pub mod io;
pub mod iso;
pub mod labels;
pub mod neighborhood;
pub mod par;

pub use algorithms::{connected_components, cycle_rank, diameter, eccentricity};
pub use compiled::{CompiledDb, CompiledGraph};
pub use control::{Budget, CancelToken, Completion, Meter, Outcome, StopReason};
pub use database::{DbStats, GraphDb};
pub use display::{display_with, DisplayWith};
pub use edit::{induced_subgraph, remove_edge, remove_node};
pub use graph::{Edge, Graph, GraphBuilder, NodeId};
pub use index::{EdgeOccurrence, LabelPairEntry, LabelPairIndex, LabelTriple};
pub use invariant::{certificate, refine, refine_metered, Certificate, Refinement};
pub use io::{parse_transactions, parse_transactions_into, write_transactions, ParseError};
pub use iso::{are_isomorphic, MatchOutcome, MatcherKind, MultiMatcher, SubgraphMatcher};
pub use labels::{EdgeLabel, LabelTable, NodeLabel};
pub use neighborhood::cut_graph;
pub use par::{
    par_map, par_map_range, resolve_threads, try_par_map, try_par_map_range, TaskPanicked,
};
