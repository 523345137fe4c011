//! # musa-serve
//!
//! The serving layer of the MUSA design-space campaign: a **columnar
//! in-memory query engine** over a completed (or in-progress) campaign
//! store, fronted by a **std-only concurrent HTTP/1.1 service** — the
//! piece that turns a finished 864×5 sweep from a directory of JSONL
//! shards into something an analyst (or a plotting script, or a CI
//! gate) can interrogate with `curl`.
//!
//! Three layers, no external dependencies:
//!
//! * [`engine`] — [`engine::QueryEngine`] loads the store **once**
//!   (read-only, via [`musa_store::CampaignStore::open_read_only`]) and
//!   decomposes rows into per-metric columns and per-dimension posting
//!   lists; filter / top-k / aggregate / Pareto queries run against
//!   the index, never rescanning rows, and reproduce
//!   [`musa_core::Campaign`] semantics exactly (tie-breaks included);
//! * [`http`] — hand-rolled HTTP/1.1 over [`std::net::TcpListener`]:
//!   request-head reading with a size cap, strict parsing, percent
//!   decoding, deterministic JSON responses via [`musa_obs::json`];
//! * [`server`] — a fixed worker pool fed by a **bounded** queue;
//!   overflow is answered `503` by the accept thread (load shedding,
//!   never an unbounded queue), slow peers are bounded by socket
//!   timeouts (`408`), and shutdown drains everything already queued.
//!
//! Endpoints: `/healthz`, `/metrics` (the JSON metrics snapshot),
//! `/rows`, `/best`, `/pareto`, `/summary` (and `/quit` when
//! explicitly enabled). See `DESIGN.md` for schemas and the
//! load-shedding policy.
//!
//! Observability rides on `musa-obs` and compiles out with
//! `--no-default-features` like everywhere else in the workspace; the
//! server itself works identically either way.

pub mod api;
pub mod engine;
pub mod http;
pub mod server;
pub mod synth;

pub use engine::{Dim, DistStatus, QueryEngine, RowFilter};
pub use http::{Request, Response};
pub use server::{Server, ServerConfig, ServerHandle};
