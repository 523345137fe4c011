//! Offline administration of an artifact directory: the [`inventory`]
//! `dse doctor` grades and the [`gc`] behind `dse cache gc`.
//!
//! Everything here works on the directory alone — no campaign, no
//! simulator — so both run instantly against stores of any size and
//! can be pointed at a directory whose writers are long gone.

use std::io;
use std::path::{Path, PathBuf};

use crate::artifact::{parse_file_name, verify_bytes, ArtifactKind, ArtifactRead};
use crate::cache::{load_sessions, SessionStats};
use crate::fp::ArtifactKey;

/// One artifact file found on disk.
#[derive(Debug, Clone)]
pub struct InventoryEntry {
    /// File name within the artifact directory.
    pub name: String,
    /// Kind parsed from the name.
    pub kind: ArtifactKind,
    /// Key parsed from the name: what the header must say.
    pub key: ArtifactKey,
    /// Whole-file size in bytes.
    pub bytes: u64,
}

/// What a directory scan found.
#[derive(Debug, Clone, Default)]
pub struct Inventory {
    /// Well-formed artifact files, sorted by name.
    pub entries: Vec<InventoryEntry>,
    /// Stranded temp files (crashed writers).
    pub tmp_litter: Vec<String>,
    /// Files quarantined by earlier runs (excluding `.reason` notes).
    pub quarantined: usize,
    /// Per-process session lines found beside the artifacts.
    pub sessions: Vec<SessionStats>,
}

impl Inventory {
    /// Number of artifacts of one kind.
    pub fn count(&self, kind: ArtifactKind) -> usize {
        self.entries.iter().filter(|e| e.kind == kind).count()
    }

    /// Total bytes across all artifact files.
    pub fn total_bytes(&self) -> u64 {
        self.entries.iter().map(|e| e.bytes).sum()
    }

    /// Session tallies aggregated per label, sorted by label.
    pub fn sessions_by_label(&self) -> Vec<SessionStats> {
        let mut by_label: Vec<SessionStats> = Vec::new();
        for s in &self.sessions {
            match by_label.iter_mut().find(|t| t.label == s.label) {
                Some(t) => t.absorb(s),
                None => by_label.push(s.clone()),
            }
        }
        by_label.sort_by(|a, b| a.label.cmp(&b.label));
        by_label
    }
}

/// Scan `dir` (an artifact directory; missing means empty).
pub fn inventory(dir: &Path) -> io::Result<Inventory> {
    let mut inv = Inventory {
        sessions: load_sessions(dir),
        ..Inventory::default()
    };
    let iter = match std::fs::read_dir(dir) {
        Ok(it) => it,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(inv),
        Err(e) => return Err(e),
    };
    for entry in iter {
        let entry = entry?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if entry.file_type()?.is_dir() {
            if name == "quarantine" {
                inv.quarantined = std::fs::read_dir(entry.path())?
                    .filter_map(|e| e.ok())
                    .filter(|e| !e.file_name().to_string_lossy().ends_with(".reason"))
                    .count();
            }
            continue;
        }
        if name.ends_with(".tmp") {
            inv.tmp_litter.push(name);
            continue;
        }
        if let Some((kind, key)) = parse_file_name(&name) {
            inv.entries.push(InventoryEntry {
                bytes: entry.metadata()?.len(),
                name,
                kind,
                key,
            });
        }
    }
    inv.entries.sort_by(|a, b| a.name.cmp(&b.name));
    inv.tmp_litter.sort();
    Ok(inv)
}

/// What `gc` removed.
#[derive(Debug, Clone, Default)]
pub struct GcReport {
    /// Artifact files removed.
    pub removed: usize,
    /// Bytes reclaimed (artifacts + litter + quarantine).
    pub bytes: u64,
    /// Stranded temp files removed.
    pub tmp_removed: usize,
    /// Quarantined files removed.
    pub quarantine_removed: usize,
}

/// Reclaim space in `dir`.
///
/// Default scope: stranded temp files, stale-schema artifacts, and
/// corrupt artifacts (with their quarantine evidence) — everything a
/// current-schema run can never use again. With `all`, every artifact
/// and the session ledger go too, leaving an empty directory (a cache
/// reset; the next run recomputes from scratch).
pub fn gc(dir: &Path, all: bool) -> io::Result<GcReport> {
    let mut report = GcReport::default();
    let inv = inventory(dir)?;

    let remove = |path: PathBuf| -> io::Result<u64> {
        let bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
        match std::fs::remove_file(&path) {
            Ok(()) => Ok(bytes),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(0),
            Err(e) => Err(e),
        }
    };

    for name in &inv.tmp_litter {
        report.bytes += remove(dir.join(name))?;
        report.tmp_removed += 1;
    }
    for e in &inv.entries {
        let reclaim = all
            || match std::fs::read(dir.join(&e.name)) {
                Err(_) => false,
                Ok(bytes) => matches!(
                    verify_bytes(&bytes, Some((e.kind, e.key))),
                    ArtifactRead::Stale | ArtifactRead::Corrupt(_)
                ),
            };
        if reclaim {
            report.bytes += remove(dir.join(&e.name))?;
            report.removed += 1;
        }
    }
    let qdir = dir.join("quarantine");
    if qdir.is_dir() {
        for entry in std::fs::read_dir(&qdir)? {
            let entry = entry?;
            let is_note = entry.file_name().to_string_lossy().ends_with(".reason");
            report.bytes += remove(entry.path())?;
            if !is_note {
                report.quarantine_removed += 1;
            }
        }
        let _ = std::fs::remove_dir(&qdir);
    }
    if all {
        report.bytes += remove(dir.join(crate::cache::SESSIONS_FILE))?;
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::{artifact_file_name, write_artifact, BurstArtifact, DetailArtifact};
    use crate::cache::ArtifactCache;
    use crate::fp::{burst_key, detail_key, trace_key};
    use musa_apps::{AppId, GenParams};

    fn tmp_store(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("musa-cache-admin-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn populated(tag: &str) -> (PathBuf, PathBuf) {
        let store = tmp_store(tag);
        let cache = ArtifactCache::open(&store).unwrap();
        let t = trace_key(AppId::Hydro, &GenParams::tiny());
        cache.put_detail(
            detail_key(t, &musa_arch::NodeConfig::REFERENCE),
            &DetailArtifact::default(),
        );
        cache.put_burst(burst_key(t, 32), &BurstArtifact { makespan_ns: 1.0 });
        cache.put_burst(burst_key(t, 64), &BurstArtifact { makespan_ns: 2.0 });
        cache.persist_session("sequential");
        let dir = cache.dir().to_path_buf();
        (store, dir)
    }

    #[test]
    fn inventory_counts_kinds_and_sessions() {
        let (store, dir) = populated("inv");
        std::fs::write(dir.join(".stranded.123.0.tmp"), b"junk").unwrap();
        std::fs::write(dir.join("README"), b"not an artifact").unwrap();

        let inv = inventory(&dir).unwrap();
        assert_eq!(inv.count(ArtifactKind::Detail), 1);
        assert_eq!(inv.count(ArtifactKind::Burst), 2);
        assert!(inv.total_bytes() > 0);
        assert_eq!(inv.tmp_litter, vec![".stranded.123.0.tmp".to_string()]);
        let by_label = inv.sessions_by_label();
        assert_eq!(by_label.len(), 1);
        assert_eq!(by_label[0].label, "sequential");

        // A missing directory is just empty.
        let empty = inventory(&store.join("nonexistent")).unwrap();
        assert!(empty.entries.is_empty());

        let _ = std::fs::remove_dir_all(&store);
    }

    #[test]
    fn gc_default_reclaims_litter_and_corruption_only() {
        let (store, dir) = populated("gc");
        std::fs::write(dir.join(".stranded.9.9.tmp"), b"junk").unwrap();
        // One corrupt artifact + a quarantined file from an old run.
        let victim = inventory(&dir)
            .unwrap()
            .entries
            .into_iter()
            .find(|e| e.kind == ArtifactKind::Burst)
            .unwrap();
        std::fs::write(dir.join(&victim.name), b"garbage").unwrap();
        std::fs::create_dir_all(dir.join("quarantine")).unwrap();
        std::fs::write(dir.join("quarantine/old.art.1"), b"evidence").unwrap();
        std::fs::write(dir.join("quarantine/old.art.1.reason"), b"why").unwrap();

        let report = gc(&dir, false).unwrap();
        assert_eq!(report.tmp_removed, 1);
        assert_eq!(report.removed, 1, "only the corrupt artifact");
        assert_eq!(report.quarantine_removed, 1);
        assert!(report.bytes > 0);

        let inv = inventory(&dir).unwrap();
        assert_eq!(inv.entries.len(), 2, "healthy artifacts survive");
        assert!(inv.tmp_litter.is_empty());
        assert_eq!(inv.quarantined, 0);
        assert_eq!(inv.sessions.len(), 1, "sessions ledger survives");

        let _ = std::fs::remove_dir_all(&store);
    }

    #[test]
    fn gc_all_resets_the_directory() {
        let (store, dir) = populated("gcall");
        let report = gc(&dir, true).unwrap();
        assert_eq!(report.removed, 3);
        let inv = inventory(&dir).unwrap();
        assert!(inv.entries.is_empty());
        assert!(inv.sessions.is_empty());
        let _ = std::fs::remove_dir_all(&store);
    }

    #[test]
    fn gc_reclaims_stale_schema_artifacts() {
        let store = tmp_store("stale");
        let dir = store.join("artifacts");
        std::fs::create_dir_all(&dir).unwrap();
        let t = trace_key(AppId::Spmz, &GenParams::tiny());
        let key = burst_key(t, 32);
        // Hand-craft a schema-0 artifact.
        let payload = b"{\"makespan_ns\":1.0}";
        let header = format!(
            "{{\"schema\":0,\"kind\":\"burst\",\"key\":\"{}\",\"len\":{},\"crc\":{}}}\n",
            key.to_hex(),
            payload.len(),
            crate::integrity::crc32(payload),
        );
        let mut bytes = header.into_bytes();
        bytes.extend_from_slice(payload);
        let path = dir.join(artifact_file_name(ArtifactKind::Burst, key));
        std::fs::write(&path, &bytes).unwrap();
        // And one current-schema neighbour that must survive.
        write_artifact(
            &dir.join(artifact_file_name(ArtifactKind::Burst, burst_key(t, 64))),
            ArtifactKind::Burst,
            burst_key(t, 64),
            payload,
        )
        .unwrap();

        assert!(matches!(
            verify_bytes(&bytes, Some((ArtifactKind::Burst, key))),
            ArtifactRead::Stale
        ));
        let report = gc(&dir, false).unwrap();
        assert_eq!(report.removed, 1);
        assert!(!path.exists());
        assert_eq!(inventory(&dir).unwrap().entries.len(), 1);
        let _ = std::fs::remove_dir_all(&store);
    }
}
