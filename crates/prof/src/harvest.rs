//! Reading profile files and the cross-process merge.
//!
//! A profile file is append-only JSONL of sealed [`PointProfile`]
//! lines. Reads are lenient: a torn final line (a kill -9 mid-append) is expected crash residue, a
//! corrupt interior line is counted and skipped — profiles are
//! telemetry, and refusing to start a campaign over a damaged one
//! would invert the priorities.
//!
//! [`harvest`] is the repair the next fill runs first: rewrite
//! `<dir>/profiles.jsonl` deduplicated and chronologically sorted,
//! atomically (tmp + fsync + rename). Dedup is by point fingerprint,
//! keeping the **latest attempt** — when a run died after profiling a
//! point but before its batch was flushed, the re-simulation's record
//! is the one that matches the surviving row.

use std::path::Path;

use musa_fault::integrity::{atomic_write, read_log, scan, Verdict};

use crate::record::{PointProfile, PROFILES_FILE};

/// What reading / merging profile data found.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HarvestReport {
    /// Valid records after dedup.
    pub records: usize,
    /// Records dropped as duplicate attempts of the same point.
    pub duplicates: usize,
    /// Torn final lines dropped (normal crash residue).
    pub torn_tails: usize,
    /// Corrupt interior lines skipped (checksum or parse failure).
    pub corrupt: usize,
}

impl HarvestReport {
    /// True when a harvest has anything to rewrite.
    pub fn repaired_anything(&self) -> bool {
        self.duplicates > 0 || self.torn_tails > 0 || self.corrupt > 0
    }
}

/// The profile family's line classifier for [`scan`].
pub fn classify_profile(_line_no: usize, line: &str) -> Verdict<PointProfile> {
    match PointProfile::parse(line) {
        Some(p) => Verdict::Record(p),
        None => Verdict::Corrupt("profile record failed checksum or parse".to_string()),
    }
}

/// Read one profile file leniently. Missing file ⇒ empty. Records come
/// back in file order.
pub fn read_profile_file(path: &Path) -> std::io::Result<(Vec<PointProfile>, HarvestReport)> {
    let log = read_log(path)?;
    let scan = scan(&log, classify_profile);
    let report = HarvestReport {
        records: scan.records.len(),
        duplicates: 0,
        torn_tails: usize::from(scan.torn.is_some()),
        corrupt: scan.bad.len(),
    };
    Ok((scan.records, report))
}

/// Read, dedup and sort every profile record under `dir` **in
/// memory** — the read path of `dse profile`, which must work on a
/// store directory another process is still writing to.
pub fn load_profiles(dir: &Path) -> std::io::Result<(Vec<PointProfile>, HarvestReport)> {
    let (records, mut report) = read_profile_file(&dir.join(PROFILES_FILE))?;
    let total = records.len();
    let records = dedup_latest(records);
    report.duplicates = total - records.len();
    report.records = records.len();
    Ok((records, report))
}

/// Keep the latest attempt per point fingerprint, then sort
/// chronologically (start, pid, tid, key) so the merged file is a
/// deterministic timeline.
fn dedup_latest(mut records: Vec<PointProfile>) -> Vec<PointProfile> {
    records.sort_by(|a, b| {
        (a.start_us, a.pid, a.tid, &a.key).cmp(&(b.start_us, b.pid, b.tid, &b.key))
    });
    let mut by_key: std::collections::HashMap<String, PointProfile> =
        std::collections::HashMap::new();
    for r in records {
        by_key.insert(r.key.clone(), r); // later (sorted) attempt wins
    }
    let mut out: Vec<PointProfile> = by_key.into_values().collect();
    out.sort_by(|a, b| (a.start_us, a.pid, a.tid, &a.key).cmp(&(b.start_us, b.pid, b.tid, &b.key)));
    out
}

/// Repair on disk: rewrite `<dir>/profiles.jsonl` without its crash
/// residue (torn tail, corrupt lines) and duplicate attempts.
/// Idempotent; a no-op (no rewrite) when there is nothing to repair.
/// Survives kill -9 at any instruction: the rewrite is tmp + fsync +
/// rename.
pub fn harvest(dir: &Path) -> std::io::Result<HarvestReport> {
    let (records, report) = load_profiles(dir)?;
    if !report.repaired_anything() {
        return Ok(report);
    }
    let mut text = String::new();
    for r in &records {
        text.push_str(&r.to_line());
        text.push('\n');
    }
    atomic_write(&dir.join(PROFILES_FILE), text.as_bytes(), "prof.rewrite")?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::tests::sample;

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("musa-prof-h-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn write_lines(path: &Path, records: &[PointProfile], torn: Option<&str>) {
        let mut text = String::new();
        for r in records {
            text.push_str(&r.to_line());
            text.push('\n');
        }
        if let Some(tail) = torn {
            text.push_str(tail); // no newline: a torn final append
        }
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(path, text).unwrap();
    }

    #[test]
    fn missing_files_read_as_empty() {
        let dir = tmp_dir("empty");
        let (records, report) = load_profiles(&dir).unwrap();
        assert!(records.is_empty());
        assert_eq!(report, HarvestReport::default());
        // Harvest of an empty dir creates nothing.
        harvest(&dir).unwrap();
        assert!(!dir.join(PROFILES_FILE).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn harvest_dedups_and_repairs_torn_tail() {
        let dir = tmp_dir("merge");
        let mut a = sample("aaaa", "hydro", "c64", 100);
        a.start_us = 1000;
        let mut b = sample("bbbb", "hydro", "c128", 200);
        b.start_us = 2000;
        // A requeued lease re-simulated b (later attempt) and added c.
        let mut b2 = sample("bbbb", "hydro", "c128", 999);
        b2.start_us = 5000;
        b2.worker = "l0001-a1".into();
        let mut c = sample("cccc", "spmz", "c64", 300);
        c.start_us = 3000;
        write_lines(
            &dir.join(PROFILES_FILE),
            &[a.clone(), b.clone(), b2.clone(), c.clone()],
            Some("{\"schema\":1,\"key\":\"tor"),
        );

        let report = harvest(&dir).unwrap();
        assert_eq!(report.torn_tails, 1);
        assert_eq!(report.duplicates, 1);
        assert_eq!(report.records, 3);
        // The rewritten file is clean and chronologically sorted.
        let (records, clean) = load_profiles(&dir).unwrap();
        assert_eq!(clean.torn_tails + clean.corrupt + clean.duplicates, 0);
        assert_eq!(
            records.iter().map(|r| r.key.as_str()).collect::<Vec<_>>(),
            ["aaaa", "cccc", "bbbb"]
        );
        // The later attempt of b won.
        assert_eq!(records[2].wall_ns, 999);
        assert_eq!(records[2].worker, "l0001-a1");

        // Idempotent: a second harvest changes nothing.
        let again = harvest(&dir).unwrap();
        assert!(!again.repaired_anything());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_interior_lines_are_skipped_not_fatal() {
        let dir = tmp_dir("corrupt");
        let a = sample("aaaa", "hydro", "c64", 100);
        let b = sample("bbbb", "hydro", "c128", 200);
        let mut text = a.to_line();
        text.push('\n');
        text.push_str("this is not json\n");
        text.push_str(&b.to_line());
        text.push('\n');
        std::fs::write(dir.join(PROFILES_FILE), text).unwrap();
        let (records, report) = load_profiles(&dir).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(report.corrupt, 1);
        assert_eq!(report.torn_tails, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
