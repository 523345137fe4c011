//! # musa-store
//!
//! Persistent, resumable storage for DSE campaigns — the
//! substrate under the 864-configuration × 5-application sweep (§IV–V
//! of the paper) and everything that serves its results.
//!
//! * [`key`] — content-addressed [`PointKey`] fingerprints of
//!   `(app, NodeConfig, GenParams, replay mode, schema version)`;
//!   changing any coordinate changes the key, so stale results are
//!   structurally unservable;
//! * [`executor`] — [`PointExecutor`], the one place a point is
//!   simulated: one application's shared trace and memo, panic
//!   containment, profile record, sealed row bytes;
//! * [`store`] — the append-only JSONL [`CampaignStore`]: an in-memory
//!   `HashMap` index over durable rows, with [`CampaignStore::fill`]
//!   simulating only missing points on every thread the machine gives
//!   it (batched flushes in point order, progress/ETA on stderr) and
//!   [`Campaign`](musa_core::Campaign) views for `dse report`'s figures;
//! * [`integrity`] — CRC32 row checksums and crash-atomic file
//!   replacement (tmp + fsync + rename);
//! * [`export`] — CSV/JSON file exports (written atomically).
//!
//! ## Failure model
//!
//! Rows carry a CRC32 sealed at append time and verified on load.
//! Opening a writable store self-heals: torn final lines (interrupted
//! appends) are truncated away, corrupt rows are moved to
//! `quarantine.jsonl` with provenance and the row file is rewritten
//! atomically. A read-only open never writes — it skips the same rows,
//! degrades past unreadable files and reports it all via
//! [`CampaignStore::health`]. See [`store`] for the full model and
//! `musa-fault` for the failpoints that chaos-test it.
//!
//! ## Example
//!
//! ```no_run
//! use musa_apps::AppId;
//! use musa_arch::DesignSpace;
//! use musa_core::SweepOptions;
//! use musa_store::{CampaignStore, FillOptions};
//!
//! let mut store = CampaignStore::open("target/musa-store-small").unwrap();
//! let opts = SweepOptions::default();
//! // First call simulates all missing points; a re-run (or a run after
//! // a crash) only simulates what is not yet on disk.
//! store
//!     .fill(&AppId::ALL, &DesignSpace::all(), &FillOptions::new(opts))
//!     .unwrap();
//! let campaign = store.campaign_for(&AppId::ALL, &DesignSpace::all(), &opts);
//! ```

pub mod executor;
pub mod export;
pub mod integrity;
pub mod key;
pub mod store;

pub use executor::{PointExecutor, PointOutput, SealedRow};
pub use export::{write_csv, write_json};
pub use integrity::{atomic_write, crc32};
pub use key::{fnv1a_64, PointKey, SCHEMA_VERSION};
pub use store::{
    classify_row, is_quarantine_file, quarantine_rotation_path, row_files, set_aside,
    CampaignStore, FillOptions, FillReport, PoisonedPoint, QuarantineRecord, StoreHealth, StoreRow,
    DEFAULT_BATCH, DEFAULT_MAX_RETRIES, DEFAULT_WRITE_FILE, QUARANTINE_FILE, QUARANTINE_KEEP,
    QUARANTINE_ROTATE_BYTES,
};
