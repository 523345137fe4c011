//! The append-only campaign store.
//!
//! On disk a store is a directory of JSON-lines files (`*.jsonl`), one
//! row per simulated point. Rows are content-addressed by [`PointKey`]
//! — see [`crate::key`] — so re-opening a directory after a crash
//! always reconstructs exactly the set of completed points, whichever
//! of its `*.jsonl` row files hold them (a store an older multi-process
//! fill wrote holds one `dist-l….jsonl` shard per lease beside
//! `rows.jsonl`). Appends are flushed once per batch: an interrupted
//! sweep loses at most one batch of results.
//!
//! ## Failure model
//!
//! Every written row carries a CRC32 of its canonical JSON, verified
//! on load over the line's own bytes. Opening a store **repairs** what a crash can legitimately
//! leave behind and **quarantines** what it cannot:
//!
//! * a torn final line (interrupted append, no trailing newline) is
//!   truncated away and re-simulated on the next fill — a normal crash
//!   artifact, not corruption;
//! * a row that parses but fails its checksum or key fingerprint, or a
//!   mid-file line that does not parse at all, is moved to
//!   [`QUARANTINE_FILE`] with its provenance and the row file is rewritten
//!   atomically without it — reopening is then stable (quarantine runs
//!   at most once per bad row);
//! * rows written by a newer or older schema stay on disk untouched and
//!   are skipped in memory.
//!
//! A read-only open ([`CampaignStore::open_read_only`]) never writes:
//! it skips the same rows, counts them in [`StoreHealth`], and
//! degrades past unreadable files instead of failing the whole load.

use std::collections::{HashMap, HashSet};
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use musa_obs::json::{FromJson, JsonValue};
use musa_obs::Progress;

use musa_apps::{AppId, GenParams};
use musa_arch::NodeConfig;
use musa_core::{Campaign, ConfigResult, SweepOptions};

use crate::executor::{PointExecutor, PointOutput, SealedRow};
use crate::integrity::{crc32, read_log, scan, unseal_line, BadLine, Verdict};
use crate::key::{PointKey, SCHEMA_VERSION};

/// Name of the JSONL file every writable store appends to.
pub const DEFAULT_WRITE_FILE: &str = "rows.jsonl";

/// File corrupt rows are moved to on open (one [`QuarantineRecord`]
/// per line). Never loaded as campaign data.
pub const QUARANTINE_FILE: &str = "quarantine.jsonl";

/// Size cap (bytes) at which [`QUARANTINE_FILE`] rotates to
/// `quarantine.1.jsonl` before the next append: existing rotations
/// shift up and the one past [`QUARANTINE_KEEP`] is dropped (its loss
/// recorded on the `store.quarantine_dropped` counter). `dse doctor`'s
/// `quarantine` family counts the lines in the rotations.
/// `MUSA_QUARANTINE_CAP` (bytes) overrides the cap — tests use tiny
/// ones to exercise rotation cheaply.
pub const QUARANTINE_ROTATE_BYTES: u64 = 1 << 20;

/// Rotated quarantine files kept beside the primary
/// (`quarantine.1.jsonl` … `quarantine.K.jsonl`, newest first).
pub const QUARANTINE_KEEP: u32 = 3;

/// `true` for the quarantine file and its rotations — provenance
/// evidence, never loaded as campaign rows. The prefix test matters:
/// a rotation (`quarantine.1.jsonl`) mistaken for a row shard would
/// flood the quarantine with its own records on the next open.
pub fn is_quarantine_file(name: &str) -> bool {
    name == QUARANTINE_FILE || (name.starts_with("quarantine.") && name.ends_with(".jsonl"))
}

/// Path of the `i`-th rotation (1 = newest) of [`QUARANTINE_FILE`].
pub fn quarantine_rotation_path(dir: &Path, i: u32) -> PathBuf {
    dir.join(format!("quarantine.{i}.jsonl"))
}

fn quarantine_cap() -> u64 {
    std::env::var("MUSA_QUARANTINE_CAP")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(QUARANTINE_ROTATE_BYTES)
}

/// The row files of a store directory, sorted: every `*.jsonl` that is
/// not quarantine evidence (corrupt rows set aside by repair) and not
/// the profiling flight record.
pub fn row_files(dir: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "jsonl"))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_none_or(|n| !is_quarantine_file(n) && n != musa_prof::PROFILES_FILE)
        })
        .collect();
    files.sort();
    Ok(files)
}

/// Default number of points simulated between flushes.
pub const DEFAULT_BATCH: usize = 64;

/// Default flush retry budget for transient I/O errors.
pub const DEFAULT_MAX_RETRIES: u32 = 2;

/// One persisted campaign row: the simulation result plus everything
/// that went into its fingerprint, so stores are self-describing and
/// every row can be integrity-checked on load.
#[derive(Debug, Clone, PartialEq)]
pub struct StoreRow {
    /// Hex [`PointKey`] of this row.
    pub key: String,
    /// Row schema version at write time.
    pub schema: u32,
    /// Trace-generation parameters the row was simulated at.
    pub gen: GenParams,
    /// Whether the full-application replay (step 3) ran.
    pub full_replay: bool,
    /// The simulation result.
    pub result: ConfigResult,
}

// On disk a row is this object sealed by a trailing `"crc"` member
// (`seal_line`); the checksum lives in the line, not in the struct.
musa_obs::json_struct!(StoreRow {
    key,
    schema,
    gen,
    full_replay,
    result
});

impl StoreRow {
    /// Build a row (and its key) from a freshly simulated result.
    pub fn new(gen: GenParams, full_replay: bool, result: ConfigResult) -> StoreRow {
        let key = PointKey::of(&result.app, &result.config, &gen, full_replay);
        StoreRow {
            key: key.to_hex(),
            schema: SCHEMA_VERSION,
            gen,
            full_replay,
            result,
        }
    }

    /// The parsed key, if the hex field is well-formed.
    pub fn point_key(&self) -> Option<PointKey> {
        PointKey::from_hex(&self.key)
    }

    /// A row is consistent when its schema is current and its stored
    /// key matches the fingerprint recomputed from its own contents.
    pub fn is_consistent(&self) -> bool {
        self.schema == SCHEMA_VERSION
            && self.point_key()
                == Some(PointKey::of(
                    &self.result.app,
                    &self.result.config,
                    &self.gen,
                    self.full_replay,
                ))
    }
}

/// Whether a parsed row line's bytes match its seal. A line with no
/// `"crc"` member passes: the field was introduced after the first
/// campaigns shipped and those rows are grandfathered in unverified.
/// A `"crc"` member that is not the line's final, numeric one is a
/// broken seal, not a missing one.
fn seal_holds(line: &str, parsed: &JsonValue) -> bool {
    match unseal_line(line) {
        Some((canonical, crc)) => crc32(canonical.as_bytes()) == crc,
        None => parsed.get("crc").is_none(),
    }
}

/// How the reason of a line that is not a JSON row at all begins —
/// the only kind of line a crash can leave as a torn tail.
const UNPARSABLE: &str = "unparsable row";

/// The row family's line classifier for [`scan`]: a consistent,
/// sealed row of this schema is a record; another schema's row is
/// foreign (counted in `health` and warned about here, where its
/// schema is known); anything else is corrupt.
pub fn classify_row(
    path: &Path,
    line_no: usize,
    line: &str,
    health: &mut StoreHealth,
) -> Verdict<StoreRow> {
    let parsed = JsonValue::parse(line);
    let sealed = parsed.as_ref().is_ok_and(|v| seal_holds(line, v));
    match parsed.and_then(|v| StoreRow::read_json(&v)) {
        Ok(row) if row.is_consistent() && sealed => Verdict::Record(row),
        // Forward compatibility: a row written by a *newer* musa-store
        // (a store directory a newer build also filled) is healthy data
        // this binary cannot interpret —
        // skip it with its own message and counter so the operator sees
        // an upgrade hint, not a corruption scare.
        Ok(row) if row.schema > SCHEMA_VERSION => {
            health.rows_newer_schema += 1;
            musa_obs::counter_add("store.rows_newer_schema", 1);
            musa_obs::warn(
                "musa-store",
                "row written by a newer musa-store, skipped (upgrade this binary to read it)",
                &[
                    ("file", path.display().to_string().into()),
                    ("line", line_no.into()),
                    ("row_schema", row.schema.into()),
                    ("supported_schema", SCHEMA_VERSION.into()),
                ],
            );
            Verdict::Foreign
        }
        Ok(row) if row.schema < SCHEMA_VERSION => {
            health.rows_stale_schema += 1;
            musa_obs::warn(
                "musa-store",
                "stale-schema row skipped",
                &[
                    ("file", path.display().to_string().into()),
                    ("line", line_no.into()),
                    ("row_schema", row.schema.into()),
                ],
            );
            Verdict::Foreign
        }
        // Current schema but provably wrong content: the key fingerprint
        // or the checksum does not match. Corruption, not a crash
        // artifact.
        Ok(_) if sealed => {
            Verdict::Corrupt("stored key does not match the recomputed fingerprint".to_string())
        }
        Ok(_) => Verdict::Corrupt("checksum mismatch (row bytes altered after write)".to_string()),
        Err(e) => Verdict::Corrupt(format!("{UNPARSABLE}: {e}")),
    }
}

/// Identity of a quarantine record for dedupe purposes: content
/// fingerprints of the raw line and the reason (the same FNV used by
/// musa-fault keys). File and line number are deliberately excluded —
/// the *same* bad row re-encountered at a shifted offset is still the
/// same incident.
fn quarantine_fingerprint(raw: &str, reason: &str) -> u64 {
    musa_fault::key_of(&[raw.as_bytes(), b"\0", reason.as_bytes()])
}

/// Fingerprints of every record already in the quarantine file.
/// Unparsable lines are ignored (the quarantine file is advisory
/// provenance, not campaign data).
fn existing_quarantine_fingerprints(path: &Path) -> HashSet<u64> {
    let mut seen = HashSet::new();
    let Ok(text) = std::fs::read_to_string(path) else {
        return seen;
    };
    for line in text.lines() {
        if let Ok(v) = JsonValue::parse(line) {
            if let (Some(raw), Some(reason)) = (
                v.get("raw").and_then(|x| x.as_str()),
                v.get("reason").and_then(|x| x.as_str()),
            ) {
                seen.insert(quarantine_fingerprint(raw, reason));
            }
        }
    }
    seen
}

fn file_name_of(path: &Path) -> String {
    path.file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| path.display().to_string())
}

/// Provenance of one quarantined row: where it sat, why it was pulled,
/// and its raw bytes (nothing is silently destroyed — an operator can
/// still inspect or salvage the line).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantineRecord {
    /// File the row was quarantined from.
    pub file: String,
    /// 1-based line number at quarantine time.
    pub line: usize,
    /// Why the row was rejected.
    pub reason: String,
    /// The verbatim rejected line.
    pub raw: String,
}

musa_obs::json_struct!(QuarantineRecord {
    file,
    line,
    reason,
    raw
});

/// Put the lines a repair is about to remove from `file` on record in
/// `<dir>/quarantine.jsonl` — the one quarantine appender, for the row
/// loader and the doctor alike. Returns the records appended; the rest
/// were already on file.
///
/// Dedupes against what is already quarantined — primary file and
/// rotations alike: a line that keeps reappearing (same raw bytes,
/// same reason — e.g. a corrupt shard recreated by a buggy sync job)
/// must not grow the quarantine file without bound across repeated
/// opens. Suppressed duplicates tick `store.quarantine_suppressed`.
pub fn set_aside(dir: &Path, file: &str, lines: &[BadLine]) -> std::io::Result<u64> {
    let mut appended = 0;
    if lines.is_empty() {
        return Ok(appended);
    }
    let path = dir.join(QUARANTINE_FILE);
    let mut seen = existing_quarantine_fingerprints(&path);
    for i in 1..=QUARANTINE_KEEP {
        seen.extend(existing_quarantine_fingerprints(&quarantine_rotation_path(
            dir, i,
        )));
    }
    let mut out = String::new();
    for bad in lines {
        if !seen.insert(quarantine_fingerprint(&bad.raw, &bad.reason)) {
            continue;
        }
        appended += 1;
        out.push_str(&musa_obs::json::to_string(&QuarantineRecord {
            file: file.to_string(),
            line: bad.line,
            reason: bad.reason.clone(),
            raw: bad.raw.clone(),
        }));
        out.push('\n');
    }
    let suppressed = lines.len() as u64 - appended;
    if suppressed > 0 {
        musa_obs::counter_add("store.quarantine_suppressed", suppressed);
        musa_obs::debug(
            "musa-store",
            "duplicate quarantine records suppressed",
            &[("rows", suppressed.into())],
        );
    }
    if out.is_empty() {
        return Ok(appended);
    }
    // Rotate before the append would push the primary past the size
    // cap; a non-empty primary is required so a single oversized
    // batch still lands somewhere instead of rotating forever.
    let current_len = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
    if current_len > 0 && current_len + out.len() as u64 > quarantine_cap() {
        rotate_quarantine(dir)?;
    }
    let mut file = OpenOptions::new().create(true).append(true).open(path)?;
    file.write_all(out.as_bytes())?;
    file.sync_all()?;
    Ok(appended)
}

/// Shift `quarantine.jsonl` → `quarantine.1.jsonl` → … and drop the
/// rotation past [`QUARANTINE_KEEP`] (its lines tick the
/// `store.quarantine_dropped` counter).
fn rotate_quarantine(dir: &Path) -> std::io::Result<()> {
    let oldest = quarantine_rotation_path(dir, QUARANTINE_KEEP);
    if let Ok(text) = std::fs::read_to_string(&oldest) {
        let dropped = text.lines().count() as u64;
        std::fs::remove_file(&oldest)?;
        musa_obs::counter_add("store.quarantine_dropped", dropped);
        musa_obs::warn(
            "musa-store",
            "oldest quarantine rotation dropped",
            &[("rows", dropped.into())],
        );
    }
    for i in (1..QUARANTINE_KEEP).rev() {
        let from = quarantine_rotation_path(dir, i);
        if from.exists() {
            std::fs::rename(&from, quarantine_rotation_path(dir, i + 1))?;
        }
    }
    let primary = dir.join(QUARANTINE_FILE);
    let rotated_lines = std::fs::read_to_string(&primary)
        .map(|t| t.lines().count() as u64)
        .unwrap_or(0);
    std::fs::rename(&primary, quarantine_rotation_path(dir, 1))?;
    musa_obs::counter_add("store.quarantine_rotations", 1);
    musa_obs::info(
        "musa-store",
        "quarantine file rotated",
        &[("rows", rotated_lines.into())],
    );
    Ok(())
}

/// What loading found wrong with the on-disk store. `dse doctor`'s
/// `rows` family reports it (its `quarantine` family counts rotated
/// evidence from the files themselves).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StoreHealth {
    /// Corrupt rows moved to [`QUARANTINE_FILE`] (write mode) or
    /// skipped in memory (read-only).
    pub quarantined: u64,
    /// Torn final lines truncated away (write mode) or skipped
    /// (read-only).
    pub tails_repaired: u64,
    /// Unreadable result files skipped (read-only opens only; a write
    /// open fails instead).
    pub files_skipped: u64,
    /// Rows written by a newer schema, skipped in memory.
    pub rows_newer_schema: u64,
    /// Rows written by an older schema, skipped in memory.
    pub rows_stale_schema: u64,
}

impl StoreHealth {
    /// `true` when the loaded campaign is incomplete for reasons a
    /// resume cannot heal on its own: corrupt rows or unreadable files.
    /// A repaired torn tail is a *normal* crash artifact and does not
    /// degrade the store.
    pub fn degraded(&self) -> bool {
        self.quarantined > 0 || self.files_skipped > 0
    }
}

/// One simulation point that panicked during [`CampaignStore::fill`]:
/// recorded (and skipped) instead of aborting the other 863 points.
/// Poisoned points are absent from the store, so a later `--resume`
/// re-attempts exactly these.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoisonedPoint {
    /// Application label.
    pub app: String,
    /// Configuration label.
    pub config: String,
    /// Hex [`PointKey`] of the point.
    pub key: String,
    /// The caught panic payload.
    pub reason: String,
}

/// Options for [`CampaignStore::fill`].
#[derive(Debug, Clone, Copy)]
pub struct FillOptions {
    /// Simulation scale and mode (part of every point's fingerprint).
    pub sweep: SweepOptions,
    /// Points simulated between flushes (crash loses at most one batch).
    pub batch: usize,
    /// Report per-batch progress and ETA on stderr.
    pub progress: bool,
    /// Flush retries (with backoff) before a transient I/O error is
    /// fatal.
    pub max_retries: u32,
    /// Abort the sweep on the first poisoned point instead of
    /// recording it and continuing. Rows already simulated in the
    /// failing batch are persisted first.
    pub fail_fast: bool,
    /// Cooperative cancellation, polled between batches: when it
    /// returns `true`, the in-flight batch is flushed and [`fill`]
    /// returns early with [`FillReport::interrupted`] set. A plain fn
    /// pointer (typically backed by a signal-set atomic) keeps the
    /// options `Copy`.
    ///
    /// [`fill`]: CampaignStore::fill
    pub cancel: Option<fn() -> bool>,
}

impl FillOptions {
    /// Defaults: [`DEFAULT_BATCH`], progress on,
    /// [`DEFAULT_MAX_RETRIES`], keep going past poisoned points.
    pub fn new(sweep: SweepOptions) -> FillOptions {
        FillOptions {
            sweep,
            batch: DEFAULT_BATCH,
            progress: true,
            max_retries: DEFAULT_MAX_RETRIES,
            fail_fast: false,
            cancel: None,
        }
    }
}

impl Default for FillOptions {
    fn default() -> Self {
        FillOptions::new(SweepOptions::default())
    }
}

/// What one [`CampaignStore::fill`] call did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FillReport {
    /// Points requested (`apps × configs`).
    pub requested: usize,
    /// Requested points already present in the store.
    pub cached: usize,
    /// Requested points simulated (and persisted) by this call.
    pub simulated: usize,
    /// Points whose simulation panicked — recorded, skipped, healed by
    /// a later `--resume`.
    pub poisoned: Vec<PoisonedPoint>,
    /// Flush retries spent on transient I/O errors.
    pub retries: u32,
    /// The fill stopped early because [`FillOptions::cancel`] fired
    /// (e.g. SIGINT). Every completed batch was flushed first; a
    /// `--resume` picks up exactly the un-simulated remainder.
    pub interrupted: bool,
}

/// A persistent, resumable campaign result store.
///
/// Lookups go through an in-memory index — `HashMap` by [`PointKey`]
/// plus a secondary index by application — instead of the O(n) linear
/// scans of [`Campaign`].
pub struct CampaignStore {
    dir: PathBuf,
    write_path: PathBuf,
    rows: Vec<StoreRow>,
    index: HashMap<u64, usize>,
    by_app: HashMap<String, Vec<usize>>,
    writer: Option<BufWriter<File>>,
    /// A read-only open never writes: no appends, and no repairs
    /// (torn tails and corrupt rows are skipped in memory, not
    /// rewritten on disk).
    read_only: bool,
    health: StoreHealth,
    flush_seq: u64,
}

impl CampaignStore {
    /// Open (or create) the store at `dir`, loading every `*.jsonl`
    /// file in it. New rows are appended to [`DEFAULT_WRITE_FILE`]
    /// (created on first append).
    pub fn open(dir: impl AsRef<Path>) -> std::io::Result<CampaignStore> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        Self::open_impl(dir, false)
    }

    /// Open the store **read-only** — the serving path. Unlike
    /// [`Self::open`], a missing directory is an error (a query service
    /// pointed at the wrong path should fail loudly, not silently serve
    /// an empty campaign it just created), and every append is refused.
    /// Nothing on disk is repaired: corrupt rows, torn tails and even
    /// unreadable files are skipped and counted in [`Self::health`] so
    /// the service can come up degraded instead of not at all.
    pub fn open_read_only(dir: impl AsRef<Path>) -> std::io::Result<CampaignStore> {
        let dir = dir.as_ref();
        if !dir.is_dir() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::NotFound,
                format!("campaign store directory {} does not exist", dir.display()),
            ));
        }
        Self::open_impl(dir.to_path_buf(), true)
    }

    fn open_impl(dir: PathBuf, read_only: bool) -> std::io::Result<CampaignStore> {
        let mut store = CampaignStore {
            write_path: dir.join(DEFAULT_WRITE_FILE),
            dir,
            rows: Vec::new(),
            index: HashMap::new(),
            by_app: HashMap::new(),
            writer: None,
            read_only,
            health: StoreHealth::default(),
            flush_seq: 0,
        };
        for file in row_files(&store.dir)? {
            store.load_file(&file)?;
        }
        Ok(store)
    }

    /// Load one result file; in write mode, repair it afterwards
    /// (truncate a torn tail, quarantine corrupt rows) so the next open
    /// is clean.
    fn load_file(&mut self, path: &Path) -> std::io::Result<()> {
        let log = match read_log(path) {
            Ok(log) => log,
            Err(e) if self.read_only => {
                self.health.files_skipped += 1;
                musa_obs::warn(
                    "musa-store",
                    "unreadable result file skipped (lenient open serves the rest, degraded)",
                    &[
                        ("file", path.display().to_string().into()),
                        ("error", e.to_string().into()),
                    ],
                );
                return Ok(());
            }
            Err(e) => return Err(e),
        };
        let health = &mut self.health;
        let mut scan = scan(&log, |line_no, line| {
            classify_row(path, line_no, line, health)
        });
        // A fragment cut short by a crash never parses. An unterminated
        // final line that parses and fails its seal or key is
        // corruption like any other: evidence, not residue.
        if let Some(torn) = scan.torn.take_if(|t| !t.reason.starts_with(UNPARSABLE)) {
            scan.bad.push(torn);
        }
        if let Some(torn) = &scan.torn {
            self.health.tails_repaired += 1;
            musa_obs::counter_add("store.tail_truncated", 1);
            musa_obs::warn(
                "musa-store",
                "torn final line from an interrupted write, truncated",
                &[
                    ("file", path.display().to_string().into()),
                    ("line", torn.line.into()),
                ],
            );
        }
        let file = file_name_of(path);
        if let Some(first) = scan.bad.first() {
            self.health.quarantined += scan.bad.len() as u64;
            musa_obs::counter_add("store.quarantined", scan.bad.len() as u64);
            // One warning per file, not one per row: a file with a
            // thousand corrupt rows is one incident, and a log flooded
            // by it buries every other signal.
            musa_obs::warn(
                "musa-store",
                if !self.read_only {
                    "corrupt rows quarantined"
                } else {
                    "corrupt rows skipped (lenient open; a repairing open would quarantine them)"
                },
                &[
                    ("file", file.clone().into()),
                    ("rows", scan.bad.len().into()),
                    ("first_line", first.line.into()),
                    ("first_reason", first.reason.clone().into()),
                ],
            );
        }
        if !self.read_only && scan.needs_rewrite() {
            // Corrupt rows go on record first (a crash between the two
            // steps loses nothing), then the shard is replaced by its
            // surviving lines.
            set_aside(&self.dir, &file, &scan.bad)?;
            scan.rewrite(path, "store.rewrite")?;
        }
        for row in scan.records {
            self.insert_mem(row);
        }
        Ok(())
    }

    /// Directory this store lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of (distinct) rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Is the store empty?
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// All rows, in load/insertion order.
    pub fn rows(&self) -> &[StoreRow] {
        &self.rows
    }

    /// O(1): is this point already simulated?
    pub fn contains(&self, app: AppId, config: &NodeConfig, opts: &SweepOptions) -> bool {
        self.index
            .contains_key(&PointKey::for_point(app, config, opts).0)
    }

    /// O(1) lookup of one point's result.
    pub fn get(
        &self,
        app: AppId,
        config: &NodeConfig,
        opts: &SweepOptions,
    ) -> Option<&ConfigResult> {
        self.get_by_key(PointKey::for_point(app, config, opts))
    }

    /// O(1) lookup by precomputed key.
    pub fn get_by_key(&self, key: PointKey) -> Option<&ConfigResult> {
        self.index.get(&key.0).map(|&i| &self.rows[i].result)
    }

    /// All rows of one application (secondary index, no full scan).
    pub fn rows_for_app(&self, app: AppId) -> impl Iterator<Item = &StoreRow> {
        self.by_app
            .get(app.label())
            .into_iter()
            .flatten()
            .map(|&i| &self.rows[i])
    }

    /// Insert into the in-memory index only. Returns false on duplicate
    /// key (the existing row wins; simulations are deterministic, so
    /// duplicates are identical).
    fn insert_mem(&mut self, row: StoreRow) -> bool {
        let Some(key) = row.point_key() else {
            return false;
        };
        if self.index.contains_key(&key.0) {
            return false;
        }
        let idx = self.rows.len();
        self.index.insert(key.0, idx);
        self.by_app
            .entry(row.result.app.clone())
            .or_default()
            .push(idx);
        self.rows.push(row);
        true
    }

    fn writer(&mut self) -> std::io::Result<&mut BufWriter<File>> {
        if self.writer.is_none() {
            let file = OpenOptions::new()
                .create(true)
                .append(true)
                .open(&self.write_path)?;
            self.writer = Some(BufWriter::new(file));
        }
        Ok(self.writer.as_mut().expect("writer just created"))
    }

    /// Append one row (persisted on the next [`Self::flush`]). Returns
    /// false if the key was already present.
    pub fn append(&mut self, row: StoreRow) -> std::io::Result<bool> {
        self.append_sealed(SealedRow::seal(row))
    }

    /// [`Self::append`] for a row that is already sealed: its line is
    /// written verbatim.
    pub fn append_sealed(&mut self, SealedRow { row, line }: SealedRow) -> std::io::Result<bool> {
        if self.read_only {
            return Err(std::io::Error::new(
                std::io::ErrorKind::PermissionDenied,
                "campaign store opened read-only",
            ));
        }
        if !self.insert_mem(row) {
            return Ok(false);
        }
        let w = self.writer()?;
        w.write_all(line.as_bytes())?;
        w.write_all(b"\n")?;
        Ok(true)
    }

    /// Append a batch of rows and flush them to disk in one go.
    pub fn append_batch(
        &mut self,
        rows: impl IntoIterator<Item = StoreRow>,
    ) -> std::io::Result<usize> {
        self.append_batch_retrying(rows, 0).map(|(added, _)| added)
    }

    /// [`Self::append_batch`] with a flush retry budget: a transient
    /// flush error is retried with exponential backoff up to
    /// `max_retries` times before it propagates. Returns the rows
    /// added and the retries spent.
    pub fn append_batch_retrying(
        &mut self,
        rows: impl IntoIterator<Item = StoreRow>,
        max_retries: u32,
    ) -> std::io::Result<(usize, u32)> {
        self.append_sealed_retrying(rows.into_iter().map(SealedRow::seal), max_retries)
    }

    fn append_sealed_retrying(
        &mut self,
        rows: impl IntoIterator<Item = SealedRow>,
        max_retries: u32,
    ) -> std::io::Result<(usize, u32)> {
        let _flush = musa_obs::span(musa_obs::phase::STORE_FLUSH);
        let mut added = 0;
        for row in rows {
            if self.append_sealed(row)? {
                added += 1;
            }
        }
        let mut retries = 0u32;
        loop {
            match self.flush() {
                Ok(()) => break,
                Err(e) if retries < max_retries => {
                    retries += 1;
                    musa_obs::counter_add("fill.retries", 1);
                    musa_obs::warn(
                        "musa-store",
                        "flush failed, retrying",
                        &[
                            ("error", e.to_string().into()),
                            ("attempt", retries.into()),
                            ("max_retries", max_retries.into()),
                        ],
                    );
                    // Exponential with a deterministic jitter salted by
                    // the write file's name, so a chaos run's retry
                    // schedule is replayable.
                    let salt = musa_fault::key_of(&[DEFAULT_WRITE_FILE.as_bytes()]);
                    std::thread::sleep(musa_fault::jittered_backoff(retries, salt));
                }
                Err(e) => return Err(e),
            }
        }
        musa_obs::counter_add("store.rows_appended", added as u64);
        musa_obs::counter_add("store.flushes", 1);
        musa_obs::hist_observe("store.batch_rows", added as f64);
        Ok((added, retries))
    }

    /// Flush buffered appends to disk.
    ///
    /// Carries the `store.flush` failpoint; the fault-decision key is
    /// the flush sequence number, so under a partial-probability I/O
    /// fault each retry rolls a fresh (but deterministic) decision.
    pub fn flush(&mut self) -> std::io::Result<()> {
        if self.writer.is_some() {
            self.flush_seq += 1;
            musa_fault::fail_io("store.flush", self.flush_seq)?;
        }
        if let Some(w) = self.writer.as_mut() {
            w.flush()?;
        }
        Ok(())
    }

    /// What loading found wrong with the on-disk store.
    pub fn health(&self) -> &StoreHealth {
        &self.health
    }

    /// Simulate **only the missing points** of `apps × configs` on
    /// every thread the machine gives this process
    /// ([`std::thread::available_parallelism`]: sched affinity and
    /// cgroup quotas count, so `taskset -c 0 dse` is a one-thread run),
    /// persisting after every batch and reporting progress/ETA on
    /// stderr. See [`Self::fill_on`] for what the thread count may and
    /// may not change.
    pub fn fill(
        &mut self,
        apps: &[AppId],
        configs: &[NodeConfig],
        opts: &FillOptions,
    ) -> std::io::Result<FillReport> {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        self.fill_on(apps, configs, opts, threads)
    }

    /// [`Self::fill`] on `threads` worker threads. Each application's
    /// trace is generated once, on the calling thread; each batch of
    /// its missing points is then simulated by up to `threads` scoped
    /// threads that share the trace and its memo, each point's output
    /// in its own slot. The calling thread alone appends, flushes,
    /// counts poison, applies `fail_fast` and polls `cancel`, in batch
    /// order, so the thread count changes neither a byte of the row
    /// file nor where a `fail_fast` abort or a cancellation stops.
    pub(crate) fn fill_on(
        &mut self,
        apps: &[AppId],
        configs: &[NodeConfig],
        opts: &FillOptions,
        threads: usize,
    ) -> std::io::Result<FillReport> {
        let mut report = FillReport {
            requested: apps.len() * configs.len(),
            ..FillReport::default()
        };
        let mut work: Vec<(AppId, Vec<NodeConfig>)> = Vec::new();
        for &app in apps {
            let mut missing = Vec::new();
            for cfg in configs {
                let key = PointKey::for_point(app, cfg, &opts.sweep);
                if self.index.contains_key(&key.0) {
                    report.cached += 1;
                } else {
                    missing.push(*cfg);
                }
            }
            if !missing.is_empty() {
                work.push((app, missing));
            }
        }

        musa_obs::counter_add("store.cached_points", report.cached as u64);

        let total: usize = work.iter().map(|(_, m)| m.len()).sum();
        if total == 0 {
            return Ok(report);
        }
        let heartbeat = opts.progress.then(|| Progress::new("fill", total as u64));
        let mut done = 0usize;
        for (app, missing) in work {
            let mut exec = None;
            for chunk in missing.chunks(opts.batch.max(1)) {
                if opts.cancel.is_some_and(|cancelled| cancelled()) {
                    report.interrupted = true;
                    musa_obs::warn(
                        "musa-store",
                        "fill interrupted, stopping after the flushed batch",
                        &[("done", done.into()), ("total", total.into())],
                    );
                    if let Some(hb) = &heartbeat {
                        hb.finish(done as u64);
                    }
                    return Ok(report);
                }
                let exec = exec.get_or_insert_with(|| PointExecutor::new(app, opts.sweep));
                // A poisoned point never reaches the store, so the
                // other points of the chunk are still persisted and
                // `--resume` re-attempts exactly the poisoned set.
                let mut rows = Vec::with_capacity(chunk.len());
                let mut poisoned = Vec::new();
                for out in run_chunk(exec, chunk, threads) {
                    if let Some(hb) = &heartbeat {
                        hb.observe(out.secs);
                    }
                    match out.row {
                        Ok(row) => rows.push(row),
                        Err(p) => poisoned.push(p),
                    }
                }
                done += chunk.len();
                musa_obs::counter_add("store.simulated_points", rows.len() as u64);
                let (added, retries) = self.append_sealed_retrying(rows, opts.max_retries)?;
                report.simulated += added;
                report.retries += retries;
                for p in &poisoned {
                    musa_obs::counter_add("fill.poisoned", 1);
                    musa_obs::warn(
                        "musa-store",
                        "simulation panicked, point poisoned (re-attempted on --resume)",
                        &[
                            ("app", p.app.clone().into()),
                            ("config", p.config.clone().into()),
                            ("reason", p.reason.clone().into()),
                        ],
                    );
                }
                let abort = opts.fail_fast && !poisoned.is_empty();
                report.poisoned.extend(poisoned);
                if abort {
                    let p = report.poisoned.last().expect("nonempty");
                    return Err(std::io::Error::other(format!(
                        "--fail-fast: simulation of {}/{} panicked: {}",
                        p.app, p.config, p.reason
                    )));
                }
                if let Some(hb) = &heartbeat {
                    hb.tick(done as u64);
                }
            }
        }
        if let Some(hb) = &heartbeat {
            hb.finish(done as u64);
        }
        Ok(report)
    }

    /// Every stored row as a [`Campaign`], sorted by (app, config
    /// label) so the result is independent of file and insertion order.
    /// Note this includes rows of *all* generation scales present in
    /// the directory; use [`Self::campaign_for`] to select one sweep.
    pub fn campaign(&self) -> Campaign {
        let mut results: Vec<ConfigResult> = self.rows.iter().map(|r| r.result.clone()).collect();
        results.sort_by(|a, b| {
            a.app
                .cmp(&b.app)
                .then_with(|| a.config.label().cmp(&b.config.label()))
        });
        Campaign { results }
    }

    /// The [`Campaign`] view of one sweep: the stored results of
    /// exactly `apps × configs` under `opts`, in enumeration order
    /// (app-major). Points not yet simulated are omitted — call
    /// [`Self::fill`] first for a complete campaign.
    pub fn campaign_for(
        &self,
        apps: &[AppId],
        configs: &[NodeConfig],
        opts: &SweepOptions,
    ) -> Campaign {
        let mut results = Vec::with_capacity(apps.len() * configs.len());
        for &app in apps {
            for cfg in configs {
                if let Some(r) = self.get(app, cfg, opts) {
                    results.push(r.clone());
                }
            }
        }
        Campaign { results }
    }
}

/// Simulate `chunk` on up to `threads` scoped threads, which take point
/// indices from one counter. The outputs come back in `chunk` order.
fn run_chunk(exec: &PointExecutor, chunk: &[NodeConfig], threads: usize) -> Vec<PointOutput> {
    let next = AtomicUsize::new(0);
    let slots: Vec<OnceLock<PointOutput>> = chunk.iter().map(|_| OnceLock::new()).collect();
    std::thread::scope(|s| {
        for _ in 0..threads.clamp(1, chunk.len()) {
            // The counter only hands out indices; each output is
            // published through its own `OnceLock`, and the scope's
            // join orders every slot before the reads below.
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(config) = chunk.get(i) else { break };
                let _ = slots[i].set(exec.run(config));
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("every index was taken"))
        .collect()
}

impl Drop for CampaignStore {
    fn drop(&mut self) {
        if self.flush().is_err() {
            // The caller was told these rows did not persist. Take the
            // buffer apart unflushed, or `BufWriter`'s own drop would
            // write them after all.
            if let Some(w) = self.writer.take() {
                let _ = w.into_parts();
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use musa_apps::GenParams;
    use musa_arch::DesignSpace;
    use std::sync::{Mutex, MutexGuard};

    static FAULT_LOCK: Mutex<()> = Mutex::new(());

    /// Held by every test in this crate that fills: the fault plan is
    /// process-global, and a panic plan would poison a neighbour's
    /// points.
    pub(crate) fn fault_lock() -> MutexGuard<'static, ()> {
        FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// What one fill left: the row file's bytes, the poisoned points
    /// in report order, and the error a `fail_fast` abort returned.
    type Outcome = (Vec<u8>, Vec<PoisonedPoint>, Option<String>);

    fn fill_at(threads: usize, fail_fast: bool) -> Outcome {
        let dir = std::env::temp_dir().join(format!(
            "musa-store-threads-{threads}-{fail_fast}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let configs: Vec<NodeConfig> = DesignSpace::all().into_iter().step_by(97).collect();
        let opts = FillOptions {
            batch: 4,
            progress: false,
            fail_fast,
            ..FillOptions::new(SweepOptions {
                gen: GenParams::tiny(),
                full_replay: true,
            })
        };
        let mut store = CampaignStore::open(&dir).unwrap();
        let filled = store.fill_on(&[AppId::Hydro, AppId::Spmz], &configs, &opts, threads);
        drop(store);
        let rows = std::fs::read(dir.join(DEFAULT_WRITE_FILE)).unwrap_or_default();
        let _ = std::fs::remove_dir_all(&dir);
        match filled {
            Ok(report) => (rows, report.poisoned, None),
            Err(e) => (rows, Vec::new(), Some(e.to_string())),
        }
    }

    /// One, two and five threads fill the same slice into the same
    /// bytes, under a plan that panics some points: the same rows in
    /// the same order, the same poisoned set, and with `fail_fast` the
    /// same abort at the same point over the same persisted prefix.
    /// A fault keys on `(seed, point, site key)`, never on which thread
    /// reaches the point first.
    #[test]
    fn rows_poison_and_fail_fast_do_not_depend_on_the_thread_count() {
        let _lock = fault_lock();
        musa_fault::set_plan(Some(
            musa_fault::FaultPlan::parse("seed=5,sim.point=panic@0.25").unwrap(),
        ));
        let runs: Vec<(usize, Outcome, Outcome)> = [1, 2, 5]
            .into_iter()
            .map(|threads| (threads, fill_at(threads, false), fill_at(threads, true)))
            .collect();
        musa_fault::set_plan(None);

        let (_, kept, aborted) = &runs[0];
        assert!(!kept.0.is_empty(), "every point poisoned: a wasted drill");
        if musa_fault::COMPILED {
            assert!(!kept.1.is_empty(), "no point poisoned: a wasted drill");
            let abort = aborted.2.as_deref().expect("fail_fast aborts");
            assert!(abort.starts_with("--fail-fast: simulation of"), "{abort}");
            assert!(aborted.0.len() < kept.0.len(), "the abort stops early");
        }
        for (threads, k, a) in &runs[1..] {
            assert!(k.0 == kept.0, "{threads} threads: rows.jsonl differs");
            assert_eq!(k.1, kept.1, "{threads} threads: poisoned set differs");
            assert_eq!(a.2, aborted.2, "{threads} threads: fail_fast differs");
            assert!(
                a.0 == aborted.0,
                "{threads} threads: persisted prefix differs"
            );
        }
    }
}
