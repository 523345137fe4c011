//! The append-only search journal: one hand-rolled JSON line per
//! completed generation, living next to the store
//! (`<store-dir>/search/search.journal`).
//!
//! ## Role
//!
//! The journal is *not* the source of truth for evaluations — rows in
//! the campaign store are. It records the *decision trajectory*
//! (generation, temperature, cumulative evaluations, front size,
//! hypervolume) for three purposes:
//!
//! 1. **Progress** — a killed search shows how far it got.
//! 2. **Determinism proof** — two same-seed runs must produce
//!    byte-identical journals; the reproducibility tests diff them.
//! 3. **Resume verification** — `--resume` replays the decision loop
//!    from generation zero (cheap: evaluations are memoized in the
//!    store) and *verifies* each regenerated line against the journal
//!    prefix before appending new ones. A mismatch means the resumed
//!    flags differ from the original run — refused, instead of
//!    silently forking history.
//!
//! ## Format
//!
//! Line 1 is a header pinning everything that shapes the trajectory
//! (schema, strategy, seed, space, apps, budget, batch, hv_ref,
//! scale). Subsequent lines are `"kind":"gen"` records, and a final
//! `"kind":"done"` seals a completed search. All floats go through
//! [`musa_obs::json::fmt_f64`] so the bytes are platform-independent.
//! Values that depend on store warmth (memo hits, wall-clock) are
//! deliberately excluded — they would break byte-identity across
//! reruns — and live in the obs metrics snapshot instead.
//!
//! ## Durability
//!
//! Lines are appended with `write + fsync` before the driver moves on,
//! so a `kill -9` loses at most the in-flight generation — whose
//! evaluations are themselves durably memoized by the store as they
//! flush. On open, a torn final line (no trailing newline) is dropped
//! and the file truncated back to the last complete line.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, Write};
use std::path::{Path, PathBuf};

use musa_obs::json::{JsonObj, JsonValue};

/// Journal line schema version.
pub const JOURNAL_SCHEMA: u64 = 1;

/// Subdirectory of the campaign store holding search scratch (the
/// journal; reports go wherever `--search-report` points). A fresh
/// (non-resume) search discards this directory only — campaign rows
/// are memoization, not search state, and always survive.
pub const SEARCH_DIR: &str = "search";

/// Journal file name inside [`SEARCH_DIR`].
pub const JOURNAL_FILE: &str = "search.journal";

/// Build the header line for a search (no trailing newline).
#[allow(clippy::too_many_arguments)]
pub fn header_line(
    strategy: &str,
    seed: u64,
    space: &str,
    apps: &str,
    budget: u64,
    batch: u64,
    hv_ref: f64,
    scale: &str,
) -> String {
    JsonObj::new()
        .field_u64("v", JOURNAL_SCHEMA)
        .field_str("kind", "header")
        .field_str("strategy", strategy)
        .field_u64("seed", seed)
        .field_str("space", space)
        .field_str("apps", apps)
        .field_u64("budget", budget)
        .field_u64("batch", batch)
        .field_f64("hv_ref", hv_ref)
        .field_str("scale", scale)
        .finish()
}

/// Build one generation line (no trailing newline).
pub fn gen_line(
    generation: u64,
    temperature: f64,
    proposed: u64,
    evaluated: u64,
    total: u64,
    front: u64,
    hypervolume: f64,
) -> String {
    JsonObj::new()
        .field_u64("v", JOURNAL_SCHEMA)
        .field_str("kind", "gen")
        .field_u64("gen", generation)
        .field_f64("temp", temperature)
        .field_u64("proposed", proposed)
        .field_u64("evaluated", evaluated)
        .field_u64("total", total)
        .field_u64("front", front)
        .field_f64("hv", hypervolume)
        .finish()
}

/// Build the final line sealing a completed search (no trailing
/// newline).
pub fn done_line(evaluated: u64, front: u64, hypervolume: f64) -> String {
    JsonObj::new()
        .field_u64("v", JOURNAL_SCHEMA)
        .field_str("kind", "done")
        .field_u64("evaluated", evaluated)
        .field_u64("front", front)
        .field_f64("hv", hypervolume)
        .finish()
}

/// Whether `line` is a record this journal may hold where it sits: the
/// current schema, the header on line 1 (`first`) and only there, a
/// `gen` or `done` record after it. `Err` carries the reason — the
/// journal's classifier for the line rule `dse doctor` audits it by.
pub fn validate_search_line(line: &str, first: bool) -> Result<(), String> {
    let v = JsonValue::parse(line).map_err(|e| format!("unparsable JSON ({e})"))?;
    let ver = v
        .get("v")
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| "missing \"v\" schema field".to_string())?;
    if ver != JOURNAL_SCHEMA {
        return Err(format!("foreign schema v{ver}"));
    }
    let kind = v
        .get("kind")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| "missing \"kind\" field".to_string())?;
    match (first, kind) {
        (true, "header") => Ok(()),
        (true, other) => Err(format!("first line is {other:?}, expected the header")),
        (false, "header") => Err("duplicate header past line 1".to_string()),
        (false, "gen" | "done") => Ok(()),
        (false, other) => Err(format!("unknown record kind {other:?}")),
    }
}

/// A journal opened for verified append: the existing complete lines
/// plus a cursor-writer that checks replayed lines against them before
/// appending anything new.
#[derive(Debug)]
pub struct SearchJournal {
    path: PathBuf,
    file: File,
    /// Complete lines found on open (torn tail already dropped).
    existing: Vec<String>,
    /// How many of `existing` have been matched by replay so far.
    cursor: usize,
}

/// A replayed line disagreed with what the journal recorded.
#[derive(Debug)]
pub struct JournalMismatch {
    /// 1-based line number.
    pub line: usize,
    /// What the journal holds.
    pub recorded: String,
    /// What the replay produced.
    pub replayed: String,
}

impl std::fmt::Display for JournalMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "search journal line {} does not match the resumed run\n  recorded: {}\n  replayed: {}\n\
             (resume must use the same strategy/seed/space/budget flags as the original run)",
            self.line, self.recorded, self.replayed
        )
    }
}

impl SearchJournal {
    /// Open (creating if missing) the journal at `path`, dropping any
    /// torn final line by truncating the file back to the last
    /// complete line.
    pub fn open(path: impl AsRef<Path>) -> std::io::Result<SearchJournal> {
        let path = path.as_ref().to_path_buf();
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let mut file = OpenOptions::new()
            .read(true)
            .create(true)
            .append(true)
            .open(&path)?;
        let mut buf = String::new();
        file.read_to_string(&mut buf)?;
        let complete_len = match buf.rfind('\n') {
            Some(last_nl) => last_nl + 1,
            None => 0,
        };
        if complete_len < buf.len() {
            // Torn tail from a kill mid-append: drop it.
            file.set_len(complete_len as u64)?;
            file.seek(std::io::SeekFrom::End(0))?;
        }
        let existing: Vec<String> = buf[..complete_len].lines().map(str::to_string).collect();
        Ok(SearchJournal {
            path,
            file,
            existing,
            cursor: 0,
        })
    }

    /// The journal path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Complete lines present when the journal was opened.
    pub fn existing(&self) -> &[String] {
        &self.existing
    }

    /// How many existing lines the replay has matched.
    pub fn replayed(&self) -> usize {
        self.cursor
    }

    /// Record one replayed line: if the journal already holds a line
    /// at this position it must match byte-for-byte (else
    /// `Err(JournalMismatch)` — the caller aborts); past the recorded
    /// prefix the line is appended and fsynced.
    pub fn record(&mut self, line: &str) -> std::io::Result<Result<(), Box<JournalMismatch>>> {
        debug_assert!(!line.contains('\n'), "journal lines are single lines");
        if self.cursor < self.existing.len() {
            let recorded = &self.existing[self.cursor];
            if recorded != line {
                return Ok(Err(Box::new(JournalMismatch {
                    line: self.cursor + 1,
                    recorded: recorded.clone(),
                    replayed: line.to_string(),
                })));
            }
            self.cursor += 1;
            return Ok(Ok(()));
        }
        self.file.write_all(line.as_bytes())?;
        self.file.write_all(b"\n")?;
        self.file.sync_data()?;
        self.cursor += 1;
        Ok(Ok(()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("musa-search-journal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("search.journal")
    }

    #[test]
    fn duplicate_search_header_is_corrupt() {
        assert!(validate_search_line("{\"v\":1,\"kind\":\"header\"}", false).is_err());
        assert!(validate_search_line("{\"v\":1,\"kind\":\"gen\"}", true).is_err());
        assert!(validate_search_line("{\"v\":1,\"kind\":\"header\"}", true).is_ok());
        assert!(validate_search_line("{\"v\":9,\"kind\":\"gen\"}", false).is_err());
    }

    #[test]
    fn append_then_reopen_verifies_prefix() {
        let path = tmp("prefix");
        let lines = [
            header_line("anneal", 42, "paper", "hydro", 86, 16, 8.0, "tiny"),
            gen_line(0, 1.0, 16, 17, 864, 4, 1.25),
            gen_line(1, 0.9, 16, 33, 864, 6, 1.5),
        ];
        {
            let mut j = SearchJournal::open(&path).unwrap();
            for l in &lines {
                j.record(l).unwrap().unwrap();
            }
        }
        // Replay matches the prefix, then extends.
        let mut j = SearchJournal::open(&path).unwrap();
        assert_eq!(j.existing().len(), 3);
        for l in &lines {
            j.record(l).unwrap().unwrap();
        }
        assert_eq!(j.replayed(), 3);
        j.record(&done_line(33, 6, 1.5)).unwrap().unwrap();
        let j = SearchJournal::open(&path).unwrap();
        assert_eq!(j.existing().len(), 4);
    }

    #[test]
    fn mismatched_replay_is_refused() {
        let path = tmp("mismatch");
        {
            let mut j = SearchJournal::open(&path).unwrap();
            j.record(&header_line(
                "anneal", 42, "paper", "hydro", 86, 16, 8.0, "tiny",
            ))
            .unwrap()
            .unwrap();
        }
        let mut j = SearchJournal::open(&path).unwrap();
        let err = j
            .record(&header_line(
                "anneal", 43, "paper", "hydro", 86, 16, 8.0, "tiny",
            ))
            .unwrap()
            .unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.recorded.contains("\"seed\":42"));
        assert!(err.replayed.contains("\"seed\":43"));
        let msg = err.to_string();
        assert!(msg.contains("line 1"), "{msg}");
    }

    #[test]
    fn torn_tail_is_truncated_on_open() {
        let path = tmp("torn");
        {
            let mut j = SearchJournal::open(&path).unwrap();
            j.record(&gen_line(0, 1.0, 16, 16, 864, 3, 0.5))
                .unwrap()
                .unwrap();
        }
        // Simulate a kill mid-append: a partial second line.
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(b"{\"v\":1,\"kind\":\"gen\",\"ge").unwrap();
        }
        let mut j = SearchJournal::open(&path).unwrap();
        assert_eq!(j.existing().len(), 1, "torn tail dropped");
        // And the file is clean again: appending yields valid lines.
        j.record(&j.existing()[0].clone()).unwrap().unwrap();
        j.record(&gen_line(1, 0.9, 16, 32, 864, 4, 0.75))
            .unwrap()
            .unwrap();
        let j = SearchJournal::open(&path).unwrap();
        assert_eq!(j.existing().len(), 2);
        assert!(j.existing()[1].ends_with('}'));
    }

    #[test]
    fn lines_are_deterministic_bytes() {
        let a = gen_line(3, 0.729, 16, 65, 103_680, 9, 2.625);
        let b = gen_line(3, 0.729, 16, 65, 103_680, 9, 2.625);
        assert_eq!(a, b);
        assert_eq!(
            a,
            "{\"v\":1,\"kind\":\"gen\",\"gen\":3,\"temp\":0.729,\"proposed\":16,\
             \"evaluated\":65,\"total\":103680,\"front\":9,\"hv\":2.625}"
        );
    }
}
