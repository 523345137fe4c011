//! # musa-prof
//!
//! The per-point **flight recorder** of the MUSA campaign pipeline:
//! every simulated point leaves one durable, schema-versioned,
//! CRC-sealed JSONL record in `<store-dir>/profiles.jsonl` — its
//! per-phase wall-clock breakdown, worker identity and
//! peak RSS — so "where did the time go" can be answered **per point**,
//! and long after the run finished. ROADMAP item 3
//! (profile-driven rewrite of the tasksim/mem inner loops) starts from
//! this data: nobody optimises the hot points before the recorder has
//! named them.
//!
//! Four cooperating pieces:
//!
//! * [`record`] — the [`PointProfile`] schema and its sealed JSONL
//!   serialisation, the same CRC-32 discipline the campaign store uses
//!   for rows ([`musa_fault::integrity::crc32`] over the canonical
//!   JSON, checksum appended as the last field);
//! * [`recorder`] — the process-global recorder: a thread-local
//!   accumulator fed by the `musa-obs` span layer (every pipeline span
//!   completion is offered to an installed listener, so trace-gen,
//!   detailed-sim, burst, dram, power, net-replay and store-flush all
//!   land in the active point without the simulator knowing the
//!   recorder exists), flushed as one line per point;
//! * [`harvest`] — torn-tail-tolerant reading and the repair pass the
//!   next fill runs first: it rewrites the file atomically
//!   (tmp+fsync+rename), deduplicated by point fingerprint, so the
//!   records of a batch a kill -9 cut short and its re-simulation fold
//!   into one per point;
//! * [`report`] / [`trace`] — offline analysis: p50/p95/max per phase
//!   and per app, top-k slowest points, and
//!   a Chrome Trace Event Format export (one track per simulating
//!   thread, one slice per phase, instant events for poisonings)
//!   loadable in Perfetto or `chrome://tracing`.
//!
//! ## Zero interference guarantee
//!
//! Like `musa-obs`, the recorder only *reads* simulation state:
//! wall-clock never enters a content-addressed key or a stored row,
//! and `crates/store/tests/obs_identity.rs` plus the profiling e2e
//! suite prove rows are byte-identical with profiling on and off.
//!
//! ## Feature gate
//!
//! Recording is compiled in behind the `runtime` feature (default on,
//! forwarded from the workspace `prof` feature). With
//! `--no-default-features` every recording entry point folds to a
//! no-op behind [`COMPILED`]` == false`; reading and exporting
//! existing profile files keeps working in every build.

pub mod harvest;
pub mod record;
pub mod recorder;
pub mod report;
pub mod trace;

/// `true` when the `runtime` feature is compiled in. Recording entry
/// points branch on this constant first, so a `--no-default-features`
/// build dead-code-eliminates the whole recording layer.
pub const COMPILED: bool = cfg!(feature = "runtime");

pub use harvest::{classify_profile, harvest, load_profiles, read_profile_file, HarvestReport};
pub use record::{PointProfile, PROFILES_FILE, PROF_SCHEMA};
pub use recorder::{
    enabled_from_env, install_store_recorder, point_begin, point_carry, point_finish, recording,
    uninstall_recorder, ProfileSink,
};
pub use report::{render_summary, ProfileSummary};
pub use trace::export_trace;
