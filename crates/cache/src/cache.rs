//! The artifact cache: an in-process memo layer in front of a shared
//! on-disk artifact directory.
//!
//! One [`ArtifactCache`] serves a whole process. Lookups hit the memo
//! first (a mutexed map per artifact kind), then disk
//! (`<store-dir>/artifacts/`), then recompute; the disk layer is what
//! different processes — a `--resume`, a fleet of pool workers — share.
//! Traces are the exception: memo only, never on disk.
//! Every disk read is verified (schema, kind, key, length, CRC) before
//! use; failures quarantine the file and fall through to recompute, so
//! the cache can never change a result, only the time it takes.
//!
//! Cache *failures* are warnings, not errors: a full disk or a
//! read-only artifact directory degrades the campaign to uncached,
//! it does not abort it.

use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use musa_apps::{generate, AppId, GenParams};
use musa_trace::AppTrace;

use crate::artifact::{
    artifact_file_name, decode, quarantine, read_artifact, write_artifact, ArtifactKind,
    ArtifactRead, BurstArtifact, DetailArtifact,
};
use crate::fp::{trace_key, ArtifactKey};
use crate::integrity::{read_log, scan};

/// Name of the artifact directory under the campaign store directory.
pub const ARTIFACT_DIR: &str = "artifacts";

/// Per-process session tallies, appended under the artifact directory
/// so `dse doctor` can attribute hits to the sequential and pool paths
/// after the processes are gone.
pub const SESSIONS_FILE: &str = "sessions.jsonl";

/// `MUSA_CACHE=0` disables the cache (the `--no-cache` flag sets it for
/// re-exec'd pool workers). Anything else — including unset — enables.
pub fn enabled_from_env() -> bool {
    std::env::var("MUSA_CACHE").map_or(true, |v| v != "0")
}

/// One process's cache activity, as persisted to [`SESSIONS_FILE`] and
/// aggregated per label by `dse doctor`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SessionStats {
    /// Which pipeline wrote this line: `"sequential"`, `"search"` or
    /// `"dist-worker"`.
    pub label: String,
    /// Writer's process id (diagnostic only).
    pub pid: u32,
    /// Trace lookups served from the in-process memo.
    pub trace_hits: u64,
    /// Trace lookups that had to generate.
    pub trace_misses: u64,
    /// Detail-window lookups served from memo or disk.
    pub detail_hits: u64,
    /// Detail-window lookups that had to simulate.
    pub detail_misses: u64,
    /// Burst-baseline lookups served from memo or disk.
    pub burst_hits: u64,
    /// Burst-baseline lookups that had to simulate.
    pub burst_misses: u64,
    /// Artifacts quarantined after failing verification.
    pub quarantined: u64,
    /// Verified payload bytes read from disk.
    pub bytes_read: u64,
    /// Payload bytes written to disk.
    pub bytes_written: u64,
}

musa_obs::json_struct!(SessionStats {
    label,
    pid,
    trace_hits,
    trace_misses,
    detail_hits,
    detail_misses,
    burst_hits,
    burst_misses,
    quarantined,
    bytes_read,
    bytes_written
});

impl SessionStats {
    /// Total hits across kinds.
    pub fn hits(&self) -> u64 {
        self.trace_hits + self.detail_hits + self.burst_hits
    }

    /// Total misses across kinds.
    pub fn misses(&self) -> u64 {
        self.trace_misses + self.detail_misses + self.burst_misses
    }

    /// Fold another snapshot into this one (labels are kept by caller).
    pub fn absorb(&mut self, other: &SessionStats) {
        self.trace_hits += other.trace_hits;
        self.trace_misses += other.trace_misses;
        self.detail_hits += other.detail_hits;
        self.detail_misses += other.detail_misses;
        self.burst_hits += other.burst_hits;
        self.burst_misses += other.burst_misses;
        self.quarantined += other.quarantined;
        self.bytes_read += other.bytes_read;
        self.bytes_written += other.bytes_written;
    }

    /// Overall hit rate across kinds, `None` when nothing was looked
    /// up (a 0/0 session has no rate, not a 0% one).
    pub fn hit_rate(&self) -> Option<f64> {
        let lookups = self.hits() + self.misses();
        (lookups > 0).then(|| self.hits() as f64 / lookups as f64)
    }

    /// One-line human form for the end-of-run reuse report.
    pub fn report(&self) -> String {
        let rate = self
            .hit_rate()
            .map(|r| format!(" ({:.1}% hit rate)", r * 100.0))
            .unwrap_or_default();
        format!(
            "trace {}/{} · detail {}/{} · burst {}/{} hits/lookups{rate} · {} read, {} written{}",
            self.trace_hits,
            self.trace_hits + self.trace_misses,
            self.detail_hits,
            self.detail_hits + self.detail_misses,
            self.burst_hits,
            self.burst_hits + self.burst_misses,
            human_bytes(self.bytes_read),
            human_bytes(self.bytes_written),
            if self.quarantined > 0 {
                format!(" · {} quarantined", self.quarantined)
            } else {
                String::new()
            }
        )
    }
}

/// Render a byte count with a binary-unit suffix.
pub fn human_bytes(n: u64) -> String {
    const UNITS: [&str; 4] = ["B", "KiB", "MiB", "GiB"];
    let mut v = n as f64;
    let mut unit = 0;
    while v >= 1024.0 && unit < UNITS.len() - 1 {
        v /= 1024.0;
        unit += 1;
    }
    if unit == 0 {
        format!("{n} B")
    } else {
        format!("{v:.1} {}", UNITS[unit])
    }
}

#[derive(Default)]
struct Counters {
    trace_hits: AtomicU64,
    trace_misses: AtomicU64,
    detail_hits: AtomicU64,
    detail_misses: AtomicU64,
    burst_hits: AtomicU64,
    burst_misses: AtomicU64,
    quarantined: AtomicU64,
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
}

/// The process-wide artifact cache. Cheap to share (`Arc`), safe to
/// hit from several threads.
pub struct ArtifactCache {
    dir: PathBuf,
    traces: Mutex<HashMap<ArtifactKey, Arc<AppTrace>>>,
    details: Mutex<HashMap<ArtifactKey, DetailArtifact>>,
    bursts: Mutex<HashMap<ArtifactKey, BurstArtifact>>,
    counters: Counters,
}

impl std::fmt::Debug for ArtifactCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ArtifactCache")
            .field("dir", &self.dir)
            .finish_non_exhaustive()
    }
}

impl ArtifactCache {
    /// Open (creating if necessary) the artifact directory under
    /// `store_dir`.
    pub fn open(store_dir: &Path) -> io::Result<Arc<ArtifactCache>> {
        let dir = store_dir.join(ARTIFACT_DIR);
        std::fs::create_dir_all(&dir)?;
        Ok(Arc::new(ArtifactCache {
            dir,
            traces: Mutex::new(HashMap::new()),
            details: Mutex::new(HashMap::new()),
            bursts: Mutex::new(HashMap::new()),
            counters: Counters::default(),
        }))
    }

    /// The artifact directory this cache reads and writes.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The trace of `(app, gen)`: memo, then generate. Always returns
    /// the trace plus its key — the key seeds every detail and burst
    /// key downstream. Traces never touch disk: regenerating one costs
    /// milliseconds, less than parsing it back would.
    pub fn trace(&self, app: AppId, gen: &GenParams) -> (Arc<AppTrace>, ArtifactKey) {
        let key = trace_key(app, gen);
        if let Some(t) = self.memo_get(&self.traces, key) {
            self.tally(&self.counters.trace_hits, true);
            return (t, key);
        }
        let t = {
            let _gen = musa_obs::span_app(musa_obs::phase::TRACE_GEN, app.label());
            Arc::new(generate(app, gen))
        };
        self.tally(&self.counters.trace_misses, false);
        self.memo_put(&self.traces, key, Arc::clone(&t));
        (t, key)
    }

    /// Look up a detailed-simulation window.
    pub fn detail(&self, key: ArtifactKey) -> Option<DetailArtifact> {
        let c = &self.counters;
        self.lookup(
            &self.details,
            ArtifactKind::Detail,
            key,
            &c.detail_hits,
            &c.detail_misses,
        )
    }

    /// Record a freshly computed detailed-simulation window.
    pub fn put_detail(&self, key: ArtifactKey, artifact: &DetailArtifact) {
        self.memo_put(&self.details, key, *artifact);
        self.disk_put(
            ArtifactKind::Detail,
            key,
            musa_obs::json::to_string(artifact).as_bytes(),
        );
    }

    /// Look up a burst baseline.
    pub fn burst(&self, key: ArtifactKey) -> Option<BurstArtifact> {
        let c = &self.counters;
        self.lookup(
            &self.bursts,
            ArtifactKind::Burst,
            key,
            &c.burst_hits,
            &c.burst_misses,
        )
    }

    /// Record a freshly computed burst baseline.
    pub fn put_burst(&self, key: ArtifactKey, artifact: &BurstArtifact) {
        self.memo_put(&self.bursts, key, *artifact);
        self.disk_put(
            ArtifactKind::Burst,
            key,
            musa_obs::json::to_string(artifact).as_bytes(),
        );
    }

    /// Memo, then verified disk; a payload that passed its CRC but is
    /// not the JSON of a `V` is quarantined like any other corruption.
    fn lookup<V: Copy + musa_obs::json::FromJson>(
        &self,
        memo: &Mutex<HashMap<ArtifactKey, V>>,
        kind: ArtifactKind,
        key: ArtifactKey,
        hits: &AtomicU64,
        misses: &AtomicU64,
    ) -> Option<V> {
        if let Some(v) = self.memo_get(memo, key) {
            self.tally(hits, true);
            return Some(v);
        }
        if let Some(payload) = self.disk_get(kind, key) {
            match decode::<V>(&payload) {
                Ok(v) => {
                    self.memo_put(memo, key, v);
                    self.tally(hits, true);
                    return Some(v);
                }
                Err(e) => self.quarantine_slot(kind, key, &e),
            }
        }
        self.tally(misses, false);
        None
    }

    /// Snapshot of this process's tallies (label left for the caller).
    pub fn stats(&self) -> SessionStats {
        let c = &self.counters;
        let get = |a: &AtomicU64| a.load(Ordering::Relaxed);
        SessionStats {
            label: String::new(),
            pid: std::process::id(),
            trace_hits: get(&c.trace_hits),
            trace_misses: get(&c.trace_misses),
            detail_hits: get(&c.detail_hits),
            detail_misses: get(&c.detail_misses),
            burst_hits: get(&c.burst_hits),
            burst_misses: get(&c.burst_misses),
            quarantined: get(&c.quarantined),
            bytes_read: get(&c.bytes_read),
            bytes_written: get(&c.bytes_written),
        }
    }

    /// Append this process's tallies (labelled with the pipeline that
    /// ran) to [`SESSIONS_FILE`] in the artifact directory, so hits
    /// from every process sharing the directory stay attributable
    /// after the fact. A single `O_APPEND` write of one line; losing it
    /// loses bookkeeping, never results.
    pub fn persist_session(&self, label: &str) {
        let mut stats = self.stats();
        stats.label = label.to_string();
        let mut line = musa_obs::json::to_string(&stats).into_bytes();
        line.push(b'\n');
        let path = self.dir.join(SESSIONS_FILE);
        let appended = std::fs::OpenOptions::new()
            .append(true)
            .create(true)
            .open(&path)
            .and_then(|mut f| io::Write::write_all(&mut f, &line));
        if let Err(e) = appended {
            musa_obs::warn(
                "musa-cache",
                "failed to persist session stats",
                &[
                    ("path", path.display().to_string().into()),
                    ("error", e.to_string().into()),
                ],
            );
        }
    }

    fn memo_get<V: Clone>(
        &self,
        memo: &Mutex<HashMap<ArtifactKey, V>>,
        key: ArtifactKey,
    ) -> Option<V> {
        memo.lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(&key)
            .cloned()
    }

    fn memo_put<V>(&self, memo: &Mutex<HashMap<ArtifactKey, V>>, key: ArtifactKey, value: V) {
        memo.lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(key, value);
    }

    fn artifact_path(&self, kind: ArtifactKind, key: ArtifactKey) -> PathBuf {
        self.dir.join(artifact_file_name(kind, key))
    }

    /// Verified payload from disk, or `None` (quarantining en route if
    /// the file is corrupt).
    fn disk_get(&self, kind: ArtifactKind, key: ArtifactKey) -> Option<Vec<u8>> {
        let path = self.artifact_path(kind, key);
        match read_artifact(&path, kind, key) {
            ArtifactRead::Payload(p) => {
                self.counters
                    .bytes_read
                    .fetch_add(p.len() as u64, Ordering::Relaxed);
                musa_obs::counter_add("cache.bytes", p.len() as u64);
                Some(p)
            }
            ArtifactRead::Absent | ArtifactRead::Newer | ArtifactRead::Stale => None,
            ArtifactRead::Corrupt(why) => {
                self.quarantine_slot(kind, key, &why);
                None
            }
        }
    }

    /// Best-effort durable write; failure degrades to uncached.
    fn disk_put(&self, kind: ArtifactKind, key: ArtifactKey, payload: &[u8]) {
        let path = self.artifact_path(kind, key);
        match write_artifact(&path, kind, key, payload) {
            Ok(()) => {
                self.counters
                    .bytes_written
                    .fetch_add(payload.len() as u64, Ordering::Relaxed);
                musa_obs::counter_add("cache.bytes", payload.len() as u64);
            }
            Err(e) => {
                musa_obs::warn(
                    "musa-cache",
                    "artifact write failed; continuing uncached",
                    &[
                        ("path", path.display().to_string().into()),
                        ("error", e.to_string().into()),
                    ],
                );
            }
        }
    }

    fn quarantine_slot(&self, kind: ArtifactKind, key: ArtifactKey, why: &str) {
        let path = self.artifact_path(kind, key);
        let dest = quarantine(&path, why);
        self.counters.quarantined.fetch_add(1, Ordering::Relaxed);
        musa_obs::counter_add("cache.quarantined", 1);
        musa_obs::warn(
            "musa-cache",
            "corrupt artifact quarantined; recomputing",
            &[
                ("artifact", artifact_file_name(kind, key).into()),
                ("reason", why.to_string().into()),
                ("moved_to", dest.display().to_string().into()),
            ],
        );
    }

    fn tally(&self, slot: &AtomicU64, hit: bool) {
        slot.fetch_add(1, Ordering::Relaxed);
        musa_obs::counter_add(if hit { "cache.hit" } else { "cache.miss" }, 1);
    }
}

/// Read every session line under `dir` (the artifact directory).
/// Each line is parsed on its own: one that does not parse (a torn
/// tail after a crash, a byte that is not UTF-8) costs that line only.
pub fn load_sessions(dir: &Path) -> Vec<SessionStats> {
    let log = read_log(&dir.join(SESSIONS_FILE)).unwrap_or_default();
    scan(&log, |_, line| musa_obs::json::from_str(line).into()).records
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fp::{burst_key, detail_key};
    use musa_arch::NodeConfig;

    fn tmp_store(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("musa-cache-eng-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn trace_generate_then_hit_memo_never_disk() {
        let store = tmp_store("trace");
        let gen = GenParams::tiny();

        let cache = ArtifactCache::open(&store).unwrap();
        let (t1, k1) = cache.trace(AppId::Hydro, &gen);
        let (t2, k2) = cache.trace(AppId::Hydro, &gen);
        assert_eq!(k1, k2);
        assert!(Arc::ptr_eq(&t1, &t2), "second lookup must hit the memo");
        let s = cache.stats();
        assert_eq!((s.trace_hits, s.trace_misses), (1, 1));
        assert_eq!(s.bytes_written, 0, "traces are not persisted");
        assert_eq!(cache.dir().read_dir().unwrap().count(), 0);

        // A fresh cache (new process, same directory) regenerates.
        let cache2 = ArtifactCache::open(&store).unwrap();
        let (t3, _) = cache2.trace(AppId::Hydro, &gen);
        assert_eq!(*t1, *t3, "generation is deterministic");
        let s2 = cache2.stats();
        assert_eq!((s2.trace_hits, s2.trace_misses), (0, 1));

        let _ = std::fs::remove_dir_all(&store);
    }

    #[test]
    fn detail_and_burst_roundtrip_across_instances() {
        let store = tmp_store("db");
        let t = trace_key(AppId::Spmz, &GenParams::tiny());
        let dk = detail_key(t, &NodeConfig::REFERENCE);
        let bk = burst_key(t, 32);

        let cache = ArtifactCache::open(&store).unwrap();
        assert!(cache.detail(dk).is_none());
        assert!(cache.burst(bk).is_none());
        let d = DetailArtifact {
            region_ns: 1.5,
            busy_ns: 2.5,
            efficiency: 0.5,
            mem_stretch: 1.1,
            stats: Default::default(),
            dram: Default::default(),
        };
        cache.put_detail(dk, &d);
        cache.put_burst(bk, &BurstArtifact { makespan_ns: 9.0 });
        assert_eq!(cache.detail(dk), Some(d));
        assert_eq!(cache.burst(bk).unwrap().makespan_ns, 9.0);

        let cache2 = ArtifactCache::open(&store).unwrap();
        assert_eq!(
            cache2.detail(dk),
            Some(d),
            "disk hit from a second instance"
        );
        assert_eq!(cache2.burst(bk).unwrap().makespan_ns, 9.0);
        let s2 = cache2.stats();
        assert_eq!((s2.detail_hits, s2.burst_hits), (1, 1));

        let _ = std::fs::remove_dir_all(&store);
    }

    #[test]
    fn corrupt_artifact_is_quarantined_and_recomputed_value_wins() {
        let store = tmp_store("corrupt");
        let t = trace_key(AppId::Btmz, &GenParams::tiny());
        let bk = burst_key(t, 64);

        let cache = ArtifactCache::open(&store).unwrap();
        cache.put_burst(bk, &BurstArtifact { makespan_ns: 4.0 });
        // Corrupt it on disk behind the memo's back, then read through
        // a fresh instance (no memo).
        let path = cache
            .dir()
            .join(artifact_file_name(ArtifactKind::Burst, bk));
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();

        let cache2 = ArtifactCache::open(&store).unwrap();
        assert!(cache2.burst(bk).is_none(), "corrupt artifact must miss");
        assert!(!path.exists(), "corrupt artifact must leave the slot");
        assert_eq!(cache2.stats().quarantined, 1);
        let qdir = cache2.dir().join("quarantine");
        assert!(qdir.read_dir().unwrap().next().is_some(), "evidence kept");
        // Recompute fills the slot again.
        cache2.put_burst(bk, &BurstArtifact { makespan_ns: 4.0 });
        assert!(path.exists());

        let _ = std::fs::remove_dir_all(&store);
    }

    #[test]
    fn sessions_append_and_aggregate() {
        let store = tmp_store("sessions");
        let cache = ArtifactCache::open(&store).unwrap();
        let t = trace_key(AppId::Hydro, &GenParams::tiny());
        cache.put_burst(burst_key(t, 32), &BurstArtifact { makespan_ns: 1.0 });
        cache.burst(burst_key(t, 32));
        cache.persist_session("sequential");
        cache.persist_session("dist-worker");

        let sessions = load_sessions(cache.dir());
        assert_eq!(sessions.len(), 2);
        assert_eq!(sessions[0].label, "sequential");
        assert_eq!(sessions[1].label, "dist-worker");
        assert_eq!(sessions[0].burst_hits, 1);
        assert!(sessions[0].report().contains("burst 1/1"));

        let mut total = SessionStats::default();
        for s in &sessions {
            total.absorb(s);
        }
        assert_eq!(total.burst_hits, 2);

        let _ = std::fs::remove_dir_all(&store);
    }

    #[test]
    fn a_non_utf8_session_line_costs_that_line_only() {
        let store = tmp_store("sessions-utf8");
        let cache = ArtifactCache::open(&store).unwrap();
        cache.persist_session("sequential");
        let path = cache.dir().join(SESSIONS_FILE);
        let mut ledger = std::fs::read(&path).unwrap();
        ledger.extend_from_slice(b"{\"label\":\"x\xFF\"}\n");
        ledger.extend_from_slice(&std::fs::read(&path).unwrap());
        std::fs::write(&path, &ledger).unwrap();

        let sessions = load_sessions(cache.dir());
        assert_eq!(sessions.len(), 2, "the lines around the bad one load");
        assert!(sessions.iter().all(|s| s.label == "sequential"));

        let _ = std::fs::remove_dir_all(&store);
    }

    #[test]
    fn env_gate_parses() {
        // Not testing via set_var (process-global, racy across tests);
        // the semantics are: only the literal "0" disables.
        assert!(enabled_from_env() || std::env::var("MUSA_CACHE").as_deref() == Ok("0"));
    }

    #[test]
    fn human_bytes_renders() {
        assert_eq!(human_bytes(0), "0 B");
        assert_eq!(human_bytes(512), "512 B");
        assert_eq!(human_bytes(2048), "2.0 KiB");
        assert_eq!(human_bytes(3 * 1024 * 1024), "3.0 MiB");
    }
}
