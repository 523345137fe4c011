//! On-disk artifact format and payload types.
//!
//! Every artifact is a single file under `artifacts/`:
//!
//! ```text
//! {kind}-{key:016x}.art = header-JSON '\n' payload-bytes
//! header = {"schema":1,"kind":"detail","key":"…16 hex…","len":N,"crc":C}
//! ```
//!
//! The header seals the payload: `len` detects torn (truncated or
//! over-long) files, `crc` detects bit rot and interleaved writes, and
//! `kind`/`key` detect a file renamed over the wrong name. Cached data
//! is **never trusted**: every read re-verifies all four before a
//! single payload byte is deserialised, and anything that fails is
//! moved to `artifacts/quarantine/` with a provenance note and
//! recomputed — a corrupt cache can cost time, never correctness.

use std::io;
use std::path::{Path, PathBuf};

use crate::fp::{ArtifactKey, CACHE_SCHEMA_VERSION};
use crate::integrity::{atomic_write, crc32};

/// Failpoint fired just before an artifact's tmp file is renamed into
/// place — the window the CHAOS drill widens with a `delay:` action to
/// land a `kill -9` mid-write.
pub const CACHE_WRITE_FAILPOINT: &str = "cache.write";

/// The two artifact species the pipeline caches on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ArtifactKind {
    /// One detailed-simulation window ([`DetailArtifact`] JSON).
    Detail,
    /// One burst-mode baseline makespan ([`BurstArtifact`] JSON).
    Burst,
}

impl ArtifactKind {
    /// All kinds, in inventory-listing order.
    pub const ALL: [ArtifactKind; 2] = [ArtifactKind::Detail, ArtifactKind::Burst];

    /// Stable name used in file names and headers.
    pub fn label(self) -> &'static str {
        match self {
            ArtifactKind::Detail => "detail",
            ArtifactKind::Burst => "burst",
        }
    }

    /// Parse a [`Self::label`] back.
    pub fn parse(s: &str) -> Option<ArtifactKind> {
        ArtifactKind::ALL.into_iter().find(|k| k.label() == s)
    }
}

impl std::fmt::Display for ArtifactKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// File name of the artifact `(kind, key)` within the artifact
/// directory.
pub fn artifact_file_name(kind: ArtifactKind, key: ArtifactKey) -> String {
    format!("{}-{}.art", kind.label(), key.to_hex())
}

/// Parse an artifact file name back into `(kind, key)`; `None` for
/// anything that is not a well-formed artifact name (tmp litter,
/// quarantine directories, foreign files).
pub fn parse_file_name(name: &str) -> Option<(ArtifactKind, ArtifactKey)> {
    let stem = name.strip_suffix(".art")?;
    let (kind, hex) = stem.split_once('-')?;
    Some((ArtifactKind::parse(kind)?, ArtifactKey::from_hex(hex)?))
}

/// The first line of every artifact file.
#[derive(Debug, Clone, PartialEq)]
pub struct ArtifactHeader {
    /// [`CACHE_SCHEMA_VERSION`] at write time.
    pub schema: u32,
    /// [`ArtifactKind::label`] of the payload.
    pub kind: String,
    /// Hex [`ArtifactKey`] the payload was computed for.
    pub key: String,
    /// Exact payload length in bytes.
    pub len: u64,
    /// CRC-32/ISO-HDLC of the payload bytes.
    pub crc: u32,
}

musa_obs::json_struct!(ArtifactHeader {
    schema,
    kind,
    key,
    len,
    crc
});

/// Everything the multiscale pipeline derives from one detailed
/// tasksim window of `(trace, NodeConfig)` — exactly the fields
/// `MultiscaleSim::simulate` reads from a fresh `NodeSim` run, so a
/// result derived from a cached artifact is *the same arithmetic on
/// the same numbers* as an uncached one. `musa_obs::json` round-trips
/// `f64` exactly (shortest-representation printing), so cached and
/// fresh rows are byte-identical, not merely close.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DetailArtifact {
    /// Detailed makespan of the sampled region (ns).
    pub region_ns: f64,
    /// Total busy core-time across the schedule (ns) — the power
    /// model's utilisation input.
    pub busy_ns: f64,
    /// Parallel efficiency of the schedule in `[0, 1]`.
    pub efficiency: f64,
    /// Memory-contention stretch factor (≥ 1).
    pub mem_stretch: f64,
    /// Cache/vector/IPC statistics of the window.
    pub stats: musa_tasksim::SimStats,
    /// DRAM channel statistics of the window.
    pub dram: musa_mem::ChannelStats,
}

musa_obs::json_struct!(DetailArtifact {
    region_ns,
    busy_ns,
    efficiency,
    mem_stretch,
    stats,
    dram
});

/// One burst-mode baseline: the sampled region's makespan under the
/// burst (analytical) simulator at a given core count.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct BurstArtifact {
    /// Burst makespan of the sampled region (ns).
    pub makespan_ns: f64,
}

musa_obs::json_struct!(BurstArtifact { makespan_ns });

/// Outcome of reading one artifact file.
#[derive(Debug)]
pub enum ArtifactRead {
    /// Header verified; here is the payload.
    Payload(Vec<u8>),
    /// No file at the path — a plain miss.
    Absent,
    /// Written by a *newer* schema. Treated as a miss but left on disk
    /// untouched: a newer writer sharing the directory owns it.
    Newer,
    /// Written by an older schema. Treated as a miss; `gc` reclaims it.
    Stale,
    /// Torn, bit-rotted or mislabelled — the reason says which check
    /// failed. The caller quarantines and recomputes.
    Corrupt(String),
}

/// Parse the JSON bytes of a header or payload.
pub(crate) fn decode<T: musa_obs::json::FromJson>(bytes: &[u8]) -> Result<T, String> {
    let text = std::str::from_utf8(bytes).map_err(|e| e.to_string())?;
    musa_obs::json::from_str(text)
}

/// Serialise `(kind, key, payload)` into the on-disk byte format.
pub fn encode_artifact(kind: ArtifactKind, key: ArtifactKey, payload: &[u8]) -> Vec<u8> {
    let header = ArtifactHeader {
        schema: CACHE_SCHEMA_VERSION,
        kind: kind.label().to_string(),
        key: key.to_hex(),
        len: payload.len() as u64,
        crc: crc32(payload),
    };
    let mut bytes = musa_obs::json::to_string(&header).into_bytes();
    bytes.push(b'\n');
    bytes.extend_from_slice(payload);
    bytes
}

/// Durably write the artifact `(kind, key)` at `path`
/// (tmp + fsync + rename; the [`CACHE_WRITE_FAILPOINT`] fires before
/// the rename).
pub fn write_artifact(
    path: &Path,
    kind: ArtifactKind,
    key: ArtifactKey,
    payload: &[u8],
) -> io::Result<()> {
    atomic_write(
        path,
        &encode_artifact(kind, key, payload),
        CACHE_WRITE_FAILPOINT,
    )
}

/// Verify the artifact bytes at `path` against the expected
/// `(kind, key)` and hand back the payload — or say precisely why not.
pub fn read_artifact(path: &Path, kind: ArtifactKind, key: ArtifactKey) -> ArtifactRead {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return ArtifactRead::Absent,
        Err(e) => return ArtifactRead::Corrupt(format!("unreadable: {e}")),
    };
    verify_bytes(&bytes, Some((kind, key)))
}

/// Verify raw artifact bytes. With `expect`, the header's kind and key
/// must match (cache reads, and `dse doctor` against each file's
/// name); without, any internally-consistent artifact passes.
pub fn verify_bytes(bytes: &[u8], expect: Option<(ArtifactKind, ArtifactKey)>) -> ArtifactRead {
    let Some(nl) = bytes.iter().position(|&b| b == b'\n') else {
        return ArtifactRead::Corrupt("no header line (torn write?)".into());
    };
    let header: ArtifactHeader = match decode(&bytes[..nl]) {
        Ok(h) => h,
        Err(e) => return ArtifactRead::Corrupt(format!("bad header: {e}")),
    };
    match header.schema.cmp(&CACHE_SCHEMA_VERSION) {
        std::cmp::Ordering::Greater => return ArtifactRead::Newer,
        std::cmp::Ordering::Less => return ArtifactRead::Stale,
        std::cmp::Ordering::Equal => {}
    }
    if let Some((kind, key)) = expect {
        if header.kind != kind.label() {
            return ArtifactRead::Corrupt(format!(
                "kind mismatch: header says {:?}, expected {:?}",
                header.kind,
                kind.label()
            ));
        }
        if header.key != key.to_hex() {
            return ArtifactRead::Corrupt(format!(
                "key mismatch: header says {}, expected {}",
                header.key, key
            ));
        }
    } else if ArtifactKind::parse(&header.kind).is_none() {
        return ArtifactRead::Corrupt(format!("unknown kind {:?}", header.kind));
    }
    let payload = &bytes[nl + 1..];
    if payload.len() as u64 != header.len {
        return ArtifactRead::Corrupt(format!(
            "length mismatch: header says {}, file holds {} (torn write?)",
            header.len,
            payload.len()
        ));
    }
    let crc = crc32(payload);
    if crc != header.crc {
        return ArtifactRead::Corrupt(format!(
            "checksum mismatch: header says {:#010x}, payload is {crc:#010x}",
            header.crc
        ));
    }
    ArtifactRead::Payload(payload.to_vec())
}

/// Move a failed artifact into `quarantine/` beside it (with a
/// `.reason` provenance note) so the evidence survives for post-mortem
/// while the cache slot frees up for recomputation. Best-effort: if
/// even the move fails, delete — a corrupt artifact must never be
/// offered again.
pub fn quarantine(path: &Path, reason: &str) -> PathBuf {
    let dir = path
        .parent()
        .map(|p| p.join("quarantine"))
        .unwrap_or_else(|| PathBuf::from("quarantine"));
    let name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "artifact".into());
    let dest = dir.join(format!("{name}.{}", std::process::id()));
    let moved = std::fs::create_dir_all(&dir)
        .and_then(|_| std::fs::rename(path, &dest))
        .is_ok();
    if moved {
        let note = format!("{reason}\n");
        let _ = std::fs::write(dest.with_extension("reason"), note);
    } else {
        let _ = std::fs::remove_file(path);
    }
    dest
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fp::{burst_key, trace_key};
    use musa_apps::{AppId, GenParams};

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("musa-cache-art-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn some_key() -> ArtifactKey {
        trace_key(AppId::Hydro, &GenParams::tiny())
    }

    #[test]
    fn file_name_roundtrip() {
        let key = some_key();
        for kind in ArtifactKind::ALL {
            let name = artifact_file_name(kind, key);
            assert_eq!(parse_file_name(&name), Some((kind, key)));
        }
        assert_eq!(parse_file_name("notes.txt"), None);
        assert_eq!(parse_file_name("burst-xyz.art"), None);
        assert_eq!(parse_file_name("bogus-0123456789abcdef.art"), None);
        assert_eq!(parse_file_name(".burst-0123456789abcdef.art.1.0.tmp"), None);
    }

    #[test]
    fn write_read_roundtrip() {
        let dir = tmp_dir("roundtrip");
        let key = some_key();
        let path = dir.join(artifact_file_name(ArtifactKind::Detail, key));
        let payload = musa_obs::json::to_string(&DetailArtifact {
            region_ns: 123.456,
            busy_ns: 99.0,
            efficiency: 0.75,
            mem_stretch: 1.25,
            stats: Default::default(),
            dram: Default::default(),
        })
        .into_bytes();
        write_artifact(&path, ArtifactKind::Detail, key, &payload).unwrap();
        match read_artifact(&path, ArtifactKind::Detail, key) {
            ArtifactRead::Payload(p) => {
                let back: DetailArtifact = decode(&p).unwrap();
                assert_eq!(back.region_ns, 123.456);
                assert_eq!(back.efficiency, 0.75);
            }
            other => panic!("expected payload, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn absent_is_a_plain_miss() {
        let dir = tmp_dir("absent");
        let key = some_key();
        let path = dir.join(artifact_file_name(ArtifactKind::Burst, key));
        assert!(matches!(
            read_artifact(&path, ArtifactKind::Burst, key),
            ArtifactRead::Absent
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncation_is_detected() {
        let dir = tmp_dir("torn");
        let key = some_key();
        let path = dir.join(artifact_file_name(ArtifactKind::Burst, key));
        let payload = musa_obs::json::to_string(&BurstArtifact { makespan_ns: 7.0 }).into_bytes();
        write_artifact(&path, ArtifactKind::Burst, key, &payload).unwrap();
        // Chop the tail off, as a torn write would.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        match read_artifact(&path, ArtifactKind::Burst, key) {
            ArtifactRead::Corrupt(why) => assert!(why.contains("length mismatch"), "{why}"),
            other => panic!("expected corrupt, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bit_rot_is_detected() {
        let dir = tmp_dir("rot");
        let key = some_key();
        let path = dir.join(artifact_file_name(ArtifactKind::Burst, key));
        let payload = musa_obs::json::to_string(&BurstArtifact { makespan_ns: 7.0 }).into_bytes();
        write_artifact(&path, ArtifactKind::Burst, key, &payload).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01; // flip one payload bit, length unchanged
        std::fs::write(&path, &bytes).unwrap();
        match read_artifact(&path, ArtifactKind::Burst, key) {
            ArtifactRead::Corrupt(why) => assert!(why.contains("checksum mismatch"), "{why}"),
            other => panic!("expected corrupt, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wrong_kind_or_key_is_rejected() {
        let dir = tmp_dir("mislabel");
        let key = some_key();
        let other_key = burst_key(key, 32);
        let path = dir.join(artifact_file_name(ArtifactKind::Burst, key));
        let payload = musa_obs::json::to_string(&BurstArtifact { makespan_ns: 7.0 }).into_bytes();
        write_artifact(&path, ArtifactKind::Burst, key, &payload).unwrap();
        assert!(matches!(
            read_artifact(&path, ArtifactKind::Detail, key),
            ArtifactRead::Corrupt(_)
        ));
        assert!(matches!(
            read_artifact(&path, ArtifactKind::Burst, other_key),
            ArtifactRead::Corrupt(_)
        ));
        // Without an expectation the artifact is internally fine.
        let bytes = std::fs::read(&path).unwrap();
        assert!(matches!(
            verify_bytes(&bytes, None),
            ArtifactRead::Payload(_)
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn schema_skew_is_a_miss_not_corruption() {
        let key = some_key();
        let payload = b"{}";
        let mut newer = musa_obs::json::to_string(&ArtifactHeader {
            schema: CACHE_SCHEMA_VERSION + 1,
            kind: "burst".into(),
            key: key.to_hex(),
            len: payload.len() as u64,
            crc: crc32(payload),
        })
        .into_bytes();
        newer.push(b'\n');
        newer.extend_from_slice(payload);
        assert!(matches!(
            verify_bytes(&newer, Some((ArtifactKind::Burst, key))),
            ArtifactRead::Newer
        ));
        // Same artifact, schema 0 header.
        let mut h = musa_obs::json::to_string(&ArtifactHeader {
            schema: 0,
            kind: "burst".into(),
            key: key.to_hex(),
            len: payload.len() as u64,
            crc: crc32(payload),
        })
        .into_bytes();
        h.push(b'\n');
        h.extend_from_slice(payload);
        assert!(matches!(
            verify_bytes(&h, Some((ArtifactKind::Burst, key))),
            ArtifactRead::Stale
        ));
    }

    #[test]
    fn quarantine_preserves_evidence_and_frees_the_slot() {
        let dir = tmp_dir("quarantine");
        let key = some_key();
        let path = dir.join(artifact_file_name(ArtifactKind::Burst, key));
        std::fs::write(&path, b"garbage").unwrap();
        let dest = quarantine(&path, "length mismatch: test");
        assert!(!path.exists(), "slot must be free for recomputation");
        assert!(dest.exists(), "evidence must survive");
        let reason = std::fs::read_to_string(dest.with_extension("reason")).unwrap();
        assert!(reason.contains("length mismatch"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
