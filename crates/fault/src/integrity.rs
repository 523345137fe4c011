//! File integrity primitives: CRC-32 checksums, crash-atomic file
//! replacement and the line-log rule.
//!
//! These are the store's durability discipline, hoisted below it in the
//! crate graph so the profile recorder, the store and the doctor share
//! one implementation (`musa-store` re-exports it). It lives here
//! because [`atomic_write`] fires a failpoint. The checksum is the table-driven
//! CRC-32/ISO-HDLC (the zlib/PNG polynomial, reflected 0xEDB88320), and
//! atomic replacement is the classic tmp-in-same-directory + fsync +
//! rename + fsync-parent sequence, so a crash at any instruction leaves
//! either the old file or the new file, never a torn mixture.
//!
//! Every durable family (rows, profiles, search journal) is an
//! append-only log of one record per line, and [`scan`] is the
//! one place that decides which line is a record, which a torn tail and
//! which corruption. A family supplies its `classify`; what it then
//! does with the result — count, warn, set aside, rewrite — is its
//! policy and stays with it.

use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC32_TABLE: [u32; 256] = crc32_table();

/// CRC-32/ISO-HDLC of `bytes` (the checksum `crc32(1)` and zlib
/// compute).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC32_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// Append the CRC-32 of `canonical` — one JSON object, ending in `}` —
/// as its final `"crc"` member: the sealed line store rows and profile
/// records are written as.
pub fn seal_line(canonical: &str) -> String {
    debug_assert!(canonical.ends_with('}'));
    let crc = crc32(canonical.as_bytes());
    format!("{},\"crc\":{crc}}}", &canonical[..canonical.len() - 1])
}

/// Split a sealed line into the canonical JSON it was sealed over and
/// the stored CRC. `None` when the line does not end in a `"crc"`
/// member; whether the CRC *matches* is the caller's check
/// (`crc32(canonical.as_bytes()) == crc`), made over the bytes on disk
/// and not over a re-serialisation of what they parse to.
pub fn unseal_line(line: &str) -> Option<(String, u32)> {
    let body = line.trim_end().strip_suffix('}')?;
    let idx = body.rfind(",\"crc\":")?;
    let crc = body[idx + 7..].parse().ok()?;
    Some((format!("{}}}", &body[..idx]), crc))
}

/// What a family's classifier says about one line of its log.
pub enum Verdict<R> {
    /// One of the family's records, parsed.
    Record(R),
    /// Healthy data that is not ours to load (a newer- or stale-schema
    /// line): kept verbatim by a rewrite.
    Foreign,
    /// Neither; the reason goes on record with the line.
    Corrupt(String),
}

/// A validator's answer as a verdict: `Ok` is a record, `Err` carries
/// the reason the line is corrupt.
impl<R> From<Result<R, String>> for Verdict<R> {
    fn from(checked: Result<R, String>) -> Verdict<R> {
        match checked {
            Ok(record) => Verdict::Record(record),
            Err(reason) => Verdict::Corrupt(reason),
        }
    }
}

/// A line that is not a record, where it sat and why it was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BadLine {
    /// 1-based line number.
    pub line: usize,
    /// The verbatim line; a line that is not UTF-8 holds U+FFFD where
    /// its bad bytes were.
    pub raw: String,
    /// The classifier's reason.
    pub reason: String,
}

/// What [`scan`] found in one log.
pub struct Scan<'a, R> {
    /// The records, in file order.
    pub records: Vec<R>,
    /// The lines a rewrite keeps, verbatim: records and foreign lines.
    pub kept: Vec<&'a str>,
    /// Complete (newline-terminated) corrupt lines: damage, since no
    /// crash leaves them.
    pub bad: Vec<BadLine>,
    /// A corrupt final line with no newline: an append cut short by a
    /// crash, dropped by a rewrite.
    pub torn: Option<BadLine>,
    /// The final line has no newline, whatever it classified as (a
    /// crash can cut exactly between a record's `}` and its `\n`): a
    /// later append would concatenate onto it.
    pub unterminated: bool,
}

/// Classify every line of `log`, split on `\n` (a `\r` before it is
/// dropped, as `str::lines` does). Whitespace-only lines are skipped
/// (and dropped by a rewrite). A line that is not UTF-8 is corrupt
/// before any family sees it, its evidence decoded lossily; one bad
/// byte costs its line, never the file. `classify` sees the 1-based
/// line number and the line.
pub fn scan<R>(log: &[u8], mut classify: impl FnMut(usize, &str) -> Verdict<R>) -> Scan<'_, R> {
    let mut out = Scan {
        records: Vec::new(),
        kept: Vec::new(),
        bad: Vec::new(),
        torn: None,
        unterminated: !log.is_empty() && !log.ends_with(b"\n"),
    };
    let mut lines = log
        .split_inclusive(|&b| b == b'\n')
        .map(|l| match l.strip_suffix(b"\n") {
            Some(l) => l.strip_suffix(b"\r").unwrap_or(l),
            None => l,
        })
        .enumerate()
        .peekable();
    while let Some((i, bytes)) = lines.next() {
        let (line, verdict) = match std::str::from_utf8(bytes) {
            Ok(line) if line.trim().is_empty() => continue,
            Ok(line) => (line, classify(i + 1, line)),
            Err(_) => ("", Verdict::Corrupt("invalid UTF-8".to_string())),
        };
        match verdict {
            Verdict::Record(record) => {
                out.records.push(record);
                out.kept.push(line);
            }
            Verdict::Foreign => out.kept.push(line),
            Verdict::Corrupt(reason) => {
                let bad = BadLine {
                    line: i + 1,
                    raw: String::from_utf8_lossy(bytes).into_owned(),
                    reason,
                };
                if out.unterminated && lines.peek().is_none() {
                    out.torn = Some(bad);
                } else {
                    out.bad.push(bad);
                }
            }
        }
    }
    out
}

impl<R> Scan<'_, R> {
    /// Whether the file must be rewritten before it is appended to
    /// again: it holds corrupt lines or does not end in a newline.
    pub fn needs_rewrite(&self) -> bool {
        !self.bad.is_empty() || self.unterminated
    }

    /// Atomically replace `path` with the kept lines, each
    /// newline-terminated. The caller sets [`Scan::bad`] aside first,
    /// so a crash between the two steps loses nothing.
    pub fn rewrite(&self, path: &Path, failpoint: &str) -> io::Result<()> {
        let mut text = String::new();
        for line in &self.kept {
            text.push_str(line);
            text.push('\n');
        }
        atomic_write(path, text.as_bytes(), failpoint)
    }
}

/// Read a log whole, as bytes: [`scan`] judges each line's encoding, so
/// one bad byte costs its line and not the file. A log never written
/// is an empty log.
pub fn read_log(path: &Path) -> io::Result<Vec<u8>> {
    match std::fs::read(path) {
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(Vec::new()),
        other => other,
    }
}

/// Distinguishes concurrent `atomic_write` calls *within* one process:
/// two threads can write the same destination at once, and a pid-only
/// temp name would make them clobber each other's half-written bytes.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Replace `path` with `bytes` atomically: write a hidden temp file in
/// the same directory, fsync it, rename it over `path`, then fsync the
/// parent directory (best effort — some filesystems refuse directory
/// handles). A crash mid-call leaves the previous `path` intact; an
/// injected `failpoint` fault (fired just before the rename) must too.
///
/// Temp names carry the pid *and* a process-global sequence number, so
/// concurrent writers — across processes sharing a directory and
/// across threads of one process — never collide. Two racers producing the same content
/// both rename complete files; last rename wins, harmlessly.
pub fn atomic_write(path: &Path, bytes: &[u8], failpoint: &str) -> io::Result<()> {
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => std::path::PathBuf::from("."),
    };
    let name = path
        .file_name()
        .and_then(|n| n.to_str())
        .ok_or_else(|| io::Error::other(format!("bad export path {}", path.display())))?;
    // `.tmp` suffix keeps the temp file out of every load glob even if
    // a crash strands it.
    let seq = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
    let tmp = parent.join(format!(".{name}.{}.{seq}.tmp", std::process::id()));

    let write_and_sync = || -> io::Result<()> {
        let mut file = std::fs::File::create(&tmp)?;
        io::Write::write_all(&mut file, bytes)?;
        file.sync_all()?;
        crate::fail_io(failpoint, crate::key_of(&[name.as_bytes()]))?;
        std::fs::rename(&tmp, path)
    };
    if let Err(e) = write_and_sync() {
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }
    if let Ok(dir) = std::fs::File::open(&parent) {
        let _ = dir.sync_all();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // The IEEE check value, plus edges.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_ne!(crc32(b"musa"), crc32(b"musb"));
    }

    #[test]
    fn seal_then_unseal_returns_the_canonical_bytes() {
        let canonical = r#"{"a":1,"b":"x,\"crc\":7}"}"#;
        let line = seal_line(canonical);
        let (back, crc) = unseal_line(&line).unwrap();
        assert_eq!(back, canonical);
        assert_eq!(crc, crc32(canonical.as_bytes()));
        assert_eq!(unseal_line(&format!("{line}\n")), Some((back, crc)));
        // Not sealed: no crc member, a non-numeric one, or a torn tail.
        assert_eq!(unseal_line(canonical), None);
        assert_eq!(unseal_line(r#"{"a":1,"crc":x}"#), None);
        assert_eq!(unseal_line(&line[..line.len() - 1]), None);
        assert_eq!(unseal_line(""), None);
    }

    #[test]
    fn atomic_write_replaces_and_cleans_up() {
        let dir = std::env::temp_dir().join(format!("musa-fault-atomic-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.json");
        atomic_write(&path, b"first", "export.write").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"first");
        atomic_write(&path, b"second", "export.write").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second");
        // No temp litter.
        let stray: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(stray.is_empty(), "temp files left behind: {stray:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_writers_to_one_path_never_tear() {
        let dir = std::env::temp_dir().join(format!("musa-fault-race-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("contended.json");
        std::thread::scope(|s| {
            for t in 0..8u8 {
                let path = &path;
                s.spawn(move || {
                    // All writers produce the same content, as two
                    // exporters of one deterministic file do.
                    let body = vec![t % 2 + b'x'; 4096];
                    for _ in 0..16 {
                        atomic_write(path, &body, "export.write").unwrap();
                    }
                });
            }
        });
        let got = std::fs::read(&path).unwrap();
        assert_eq!(got.len(), 4096);
        assert!(
            got.iter().all(|&b| b == got[0]),
            "torn mixture of two writers' bytes"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
