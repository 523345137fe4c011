//! musa-search: adaptive Pareto-front search over parameterized design
//! spaces.
//!
//! The paper's 864-configuration sweep can be exhausted; the expanded
//! spaces the ROADMAP targets cannot. This crate recovers the
//! Pareto-front configurations while *simulating only a small fraction
//! of the space*, with three hard guarantees:
//!
//! * **Deterministic.** Every decision is a pure function of the seed
//!   and the (deterministic) simulator results, driven by a hand-rolled
//!   SplitMix64 PRNG ([`rng::SearchRng`]) — no `StdRng`, no wall-clock,
//!   no thread-order dependence. Same seed → byte-identical journal,
//!   report and evaluated-point set, on any platform, at any thread
//!   count.
//! * **Resumable.** Progress is journaled append-only next to the
//!   store ([`journal::SearchJournal`]); a killed search replays its
//!   decision loop (evaluations are memoized, so replay is cheap),
//!   verifies the journal prefix byte-for-byte, and continues.
//! * **Pluggable.** Strategies implement [`strategy::SearchStrategy`]
//!   (`random`, `stratified`, `anneal` ship — see
//!   [`strategy::STRATEGIES`]); evaluation backends implement
//!   [`driver::Evaluator`] (the `dse` binary evaluates each generation
//!   through the campaign store's threaded fill, so every searched
//!   point lands as a normal schema-versioned row).
//!
//! Search quality is scored by dominated hypervolume in the
//! (time, energy) plane, normalized per application against
//! [`musa_arch::NodeConfig::REFERENCE`]
//! (see [`musa_core::dominated_hypervolume`]).

pub mod driver;
pub mod journal;
pub mod report;
pub mod rng;
pub mod space;
pub mod strategy;

pub use driver::{
    run_search, Evaluator, GenerationRecord, MemEvaluator, SearchConfig, SearchError, SearchOutcome,
};
pub use journal::{JournalMismatch, SearchJournal, JOURNAL_FILE, JOURNAL_SCHEMA, SEARCH_DIR};
pub use report::{front_rows, render_report, write_report, FrontRow, REPORT_SCHEMA};
pub use rng::SearchRng;
pub use space::{PointSpace, SearchSpace, SpaceId, EXPANDED_CHANNELS};
pub use strategy::{strategy_by_name, SearchState, SearchStrategy, STRATEGIES};
