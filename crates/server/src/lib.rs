//! `graphsig-server` — the long-lived GraphSig mining service.
//!
//! The CLI re-parses and re-prepares the database on every invocation;
//! this crate keeps datasets *resident* and answers `mine` / `freq` /
//! `stats` requests over a hand-rolled line protocol (stdio for tests and
//! pipelines, `std::net::TcpListener` for network mode — see the
//! `graphsig serve` subcommand).
//!
//! The pieces:
//!
//! * [`protocol`] — the wire format: whitespace-separated `key=value`
//!   request lines, `bytes=`-framed responses, percent escaping. Total
//!   parsers, no serde.
//! * [`server`] — the engine: a bounded work queue with `busy`
//!   load-shedding, per-request [`Budget`](graphsig_core::Budget)s and
//!   [`CancelToken`](graphsig_core::CancelToken)s under server-enforced
//!   ceilings, panic isolation per request, single-flight coalescing of
//!   identical concurrent `mine` runs (see `batch`), sweep segmentation
//!   for scheduling fairness, one ordering rule for requests that name a
//!   dataset (each sees exactly the `load`s submitted before it), a shared
//!   [`PreparedCache`](graphsig_core::PreparedCache) +
//!   [`LabelPairIndex`](graphsig_graph::LabelPairIndex) per dataset with
//!   versioned invalidation on `load`, and graceful drain on shutdown.
//! * [`transport`] — the event-driven TCP front end: one readiness loop
//!   (`poll(2)`) multiplexes every connection, so idle connections cost a
//!   file descriptor and a buffer, not a thread, and slow consumers are
//!   bounded by per-connection write buffers instead of blocking workers.
//!
//! [`chaos::run`] is the soak CI gates on via `bench_chaos --smoke`:
//! seeded randomized schedules driving the store fault plane, mid-ingest
//! kills, the memory admission governor, pipelined reloads under a seeded
//! worker count, and connection lifecycle deadlines. [`harness`] is the
//! in-process driver it shares with the integration tests.

pub(crate) mod batch;
pub mod chaos;
pub mod harness;
pub mod protocol;
pub mod server;
pub mod transport;

pub use protocol::{
    escape, parse_request, parse_response_header, unescape, ProtocolError, Request, Response,
    ResponseHeader, Status,
};
pub use server::{shared_writer, Server, ServerConfig, ServerSnapshot, SharedWriter};
pub use transport::TransportConfig;
