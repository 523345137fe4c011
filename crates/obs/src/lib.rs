//! # musa-obs
//!
//! The measurement substrate of the MUSA pipeline: structured
//! instrumentation for answering *where did the simulation time go* and
//! *is the campaign actually progressing* — the two questions a
//! week-long 864×5 design-space sweep lives or dies by (the paper's
//! §IV reports per-phase simulation cost for exactly this reason).
//!
//! Four cooperating pieces, all std-only:
//!
//! * [`span`] — hierarchical wall-clock **spans** for the pipeline
//!   phases ([`phase::TRACE_GEN`], [`phase::DETAILED_SIM`],
//!   [`phase::DRAM`], [`phase::POWER`], [`phase::NET_REPLAY`],
//!   [`phase::STORE_FLUSH`]), labelled per application, aggregated
//!   into the end-of-run "where did the time go" table;
//! * [`metrics`] — a registry of named **counters / gauges /
//!   histograms** backed by *thread-local shards merged on drop*, so
//!   the DSE hot loop never touches a shared atomic; the disabled
//!   path is a single branch on a relaxed load (its cost is
//!   `platform.hooks_share` in `benchmark/`);
//! * [`sink`] — levelled **structured events**: a human line on stderr
//!   filtered by `MUSA_LOG` (default `warn`), plus an opt-in **JSONL
//!   file sink** (`--log-json PATH` / `MUSA_LOG_JSON`) that records
//!   every event with its span path and fields;
//! * [`progress`] — a rate-limited **heartbeat** for long fills
//!   (points done/total, rows/s, ETA).
//!
//! The crate also holds the two dependency-free primitives the whole
//! workspace shares: the JSON codec ([`json`]; emitted lines are
//! byte-deterministic, keys in fixed order, so logs and stored rows
//! diff cleanly) and the seeded PRNG ([`rng`]).
//!
//! ## Zero interference guarantee
//!
//! Instrumentation only ever *reads* simulation state. Nothing here
//! feeds back into a result: wall-clock never enters a content-addressed
//! [`musa-store` key](../musa_store/index.html) or a stored row —
//! `crates/store/tests/obs_identity.rs` asserts rows are byte-identical
//! with observability on and off.
//!
//! ## Feature gate
//!
//! Built with `--no-default-features` (no `runtime`), every entry point
//! compiles to a no-op behind [`COMPILED`]`== false`; call sites need no
//! `cfg`. With the feature on (default), everything is still off until
//! [`enable_metrics`]`(true)` (or `MUSA_METRICS=1`) — the disabled path
//! is branch-and-return.

pub mod json;
pub mod level;
pub mod metrics;
pub mod progress;
pub mod report;
pub mod rng;
pub mod sink;
pub mod span;

/// `true` when the `runtime` feature is compiled in. Every public entry
/// point branches on this constant first, so a `--no-default-features`
/// build dead-code-eliminates the whole instrumentation layer.
pub const COMPILED: bool = cfg!(feature = "runtime");

pub use level::{log_enabled, set_max_level, Level};
pub use metrics::{
    counter_add, enable_metrics, gauge_set, hist_observe, metrics_enabled, reset_metrics, snapshot,
};
pub use progress::Progress;
pub use report::{phase_table, HistSummary, MetricsSnapshot, PhaseRow, METRICS_SCHEMA};
pub use sink::{close_json, debug, error, event, info, set_json_path, warn, FieldValue};
pub use span::{current_path, phase, set_span_listener, span, span_app, SpanGuard, SpanListener};

/// Initialise from the environment: `MUSA_LOG` (level), `MUSA_METRICS=1`
/// (metrics registry on) and `MUSA_LOG_JSON` (JSONL sink path).
/// Idempotent; binaries call it once before parsing their own flags.
pub fn init_from_env() {
    if !COMPILED {
        return;
    }
    level::force_env_init();
    if std::env::var("MUSA_METRICS")
        .map(|v| v == "1")
        .unwrap_or(false)
    {
        enable_metrics(true);
    }
    if let Ok(path) = std::env::var("MUSA_LOG_JSON") {
        if !path.is_empty() {
            if let Err(e) = set_json_path(&path) {
                eprintln!("[musa-obs] cannot open MUSA_LOG_JSON={path}: {e}");
            }
        }
    }
}
