//! # musa-cache
//!
//! Content-addressed cache for the pipeline's expensive intermediate
//! artifacts: detailed tasksim windows and burst-mode baselines,
//! computed once and reused everywhere — across the points of one
//! sweep, across `--resume`, and across the processes of a
//! `--workers N` pool sharing one store directory. Generated traces
//! are memoised per process only: regenerating one costs milliseconds,
//! less than parsing it back from disk would.
//!
//! ## Why this is sound
//!
//! The design space is enormously redundant: one trace feeds every
//! configuration of an application; the detailed window depends on the
//! trace and the node configuration but *not* on the replay mode; the
//! burst baseline depends only on the trace's sampled region and the
//! core count (so at paper scale 288 of the 864 configurations share
//! each one). The cache keys ([`trace_key`], [`detail_key`],
//! [`burst_key`]) fingerprint exactly those determining inputs — built
//! by exhaustive struct destructuring, so *adding a field to
//! [`musa_apps::GenParams`] or [`musa_arch::NodeConfig`] is a compile
//! error here* until the new field's cache relevance is decided.
//!
//! ## Why this is safe
//!
//! Cached data is never trusted. Artifacts live in
//! `<store-dir>/artifacts/`, written with the store's durability
//! discipline (tmp + fsync + rename), each sealed by a header carrying
//! its schema, kind, key, payload length and CRC-32. Every read
//! re-verifies all of it; a torn, rotted or mislabelled artifact is
//! quarantined with a provenance note and recomputed. A cache failure
//! of any sort degrades to computing — it can cost time, never
//! correctness: rows derived from cached artifacts are byte-identical
//! to uncached ones (`musa_obs::json` round-trips `f64` exactly), which
//! the end-to-end suite asserts at paper scale.
//!
//! ## Observability
//!
//! Hits, misses and byte traffic tick the `cache.hit` / `cache.miss` /
//! `cache.bytes` counters; each process appends its labelled tallies
//! to `artifacts/sessions.jsonl` on exit so `dse doctor` can
//! attribute reuse to the sequential and pool paths after the fact.
//! `dse doctor` also re-checks every artifact; `dse cache gc` reclaims
//! litter, stale schemas and quarantined evidence.

pub mod admin;
pub mod artifact;
pub mod cache;
pub mod fp;
pub mod integrity;

pub use admin::{gc, inventory, GcReport, Inventory, InventoryEntry};
pub use artifact::{
    artifact_file_name, parse_file_name, quarantine, read_artifact, verify_bytes, write_artifact,
    ArtifactHeader, ArtifactKind, ArtifactRead, BurstArtifact, DetailArtifact,
    CACHE_WRITE_FAILPOINT,
};
pub use cache::{
    enabled_from_env, human_bytes, load_sessions, ArtifactCache, SessionStats, ARTIFACT_DIR,
    SESSIONS_FILE,
};
pub use fp::{burst_key, detail_key, fnv1a_64, trace_key, ArtifactKey, CACHE_SCHEMA_VERSION};
pub use integrity::{atomic_write, crc32, seal_line, unseal_line};
