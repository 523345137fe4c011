//! # musa-doctor
//!
//! Store-wide integrity audit and repair for DSE campaign directories,
//! plus the seeded multi-fault [`torture`] harness that proves the
//! repairs under composed failure.
//!
//! A campaign directory accumulates durable state from every subsystem:
//! CRC-sealed result rows (`musa-store`), the search journal
//! (`musa-search`), the flight recorder (`musa-prof`), and the
//! quarantine evidence files all of them feed. Each subsystem
//! self-heals the slice it owns when *it* next runs — but nothing
//! walked the whole directory at once. [`audit`] does exactly that, with the real parsers, and
//! grades every family:
//!
//! | severity | meaning | exit code |
//! |---|---|---|
//! | `ok` | healthy, or residue a normal resume absorbs | 0 |
//! | `degraded` | crash residue worth repairing (torn tails, litter) | 1 |
//! | `corrupt` | damaged bytes: rows, journal lines | 2 |
//!
//! Each family is stated once, in one table (`FAMILIES`): its name and
//! a read-only check that fills its counters and graded notes and
//! hands back the owner's repair, closed over what the check read.
//! [`audit`] runs the checks; [`repair`] runs the same loop and applies
//! each fix in table order — the subsystems' own atomic repair paths
//! (tmp + fsync + rename throughout) — then re-audits. It is:
//!
//! * **idempotent** — `repair(repair(x))` changes no further bytes
//!   (property-tested in `tests/repair_props.rs`);
//! * **never destructive** — every removed byte lands in quarantine
//!   with provenance: corrupt rows and journal lines are appended to
//!   `quarantine.jsonl` via [`musa_store::set_aside`] (a line that is
//!   not UTF-8 holds U+FFFD where its bad bytes were), and a corrupt
//!   search journal is preserved whole under a fingerprinted name.
//!
//! An `artifacts/` directory left by an older build (which cached
//! detailed windows on disk) is no family: the doctor neither reads nor
//! touches it, and `rm -rf <store>/artifacts` reclaims its space. The
//! same holds for the `doctor-status` verdict file older builds wrote
//! on `--repair` (the report on stdout is the verdict), and for the
//! lease journal and status beacon of the multi-process fill older
//! builds ran. The row shards that fill wrote are rows like any other:
//! the `rows` family reads every row file.

pub mod torture;

use std::io;
use std::path::{Path, PathBuf};

use musa_fault::integrity::{read_log, scan};
use musa_obs::json::{to_string, JsonObj, JsonValue};
use musa_search::journal::validate_search_line;
use musa_search::{JOURNAL_FILE, SEARCH_DIR};
use musa_store::{QUARANTINE_FILE, QUARANTINE_KEEP};

/// Health grade of one artifact family (and, via `max`, of the store).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Healthy, or residue the next resume absorbs on its own.
    Ok,
    /// Crash residue worth repairing: torn tails, stranded temp files.
    /// Campaign data is intact.
    Degraded,
    /// Damaged bytes: corrupt rows, unparsable journal lines,
    /// unreadable files.
    Corrupt,
}

impl Severity {
    /// Stable lowercase label used in text and JSON reports.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Ok => "ok",
            Severity::Degraded => "degraded",
            Severity::Corrupt => "corrupt",
        }
    }
}

/// Audit result for one family of durable state.
#[derive(Debug, Clone)]
pub struct FamilyReport {
    /// Stable family name: `rows`, `search`, `profiles`, `quarantine`.
    pub family: &'static str,
    /// Worst grade among this family's findings.
    pub severity: Severity,
    /// Counters, in presentation order.
    pub counts: Vec<(&'static str, u64)>,
    /// Human-readable findings behind the grade.
    pub notes: Vec<String>,
}

impl FamilyReport {
    fn new(family: &'static str) -> FamilyReport {
        FamilyReport {
            family,
            severity: Severity::Ok,
            counts: Vec::new(),
            notes: Vec::new(),
        }
    }

    fn count(&mut self, name: &'static str, value: u64) -> &mut Self {
        self.counts.push((name, value));
        self
    }

    fn note(&mut self, severity: Severity, msg: impl Into<String>) -> &mut Self {
        self.severity = self.severity.max(severity);
        self.notes.push(msg.into());
        self
    }

    /// A finding counted `n` times: graded and noted only when `n > 0`.
    fn note_if(
        &mut self,
        n: u64,
        severity: Severity,
        msg: impl FnOnce(u64) -> String,
    ) -> &mut Self {
        if n > 0 {
            self.note(severity, msg(n));
        }
        self
    }

    /// Value of a counter by name (0 when absent) — convenient in tests.
    pub fn counter(&self, name: &str) -> u64 {
        self.counts
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }
}

/// The full audit: one [`FamilyReport`] per durable surface, plus the
/// repair actions applied when this report came from [`repair`].
#[derive(Debug, Clone)]
pub struct DoctorReport {
    /// Store directory audited.
    pub dir: PathBuf,
    /// `true` when produced by [`repair`] (a post-repair re-audit).
    pub repaired: bool,
    /// Repair actions applied, in order (empty for plain audits).
    pub actions: Vec<String>,
    /// Per-family findings, in fixed presentation order.
    pub families: Vec<FamilyReport>,
}

impl DoctorReport {
    /// Worst severity across all families.
    pub fn severity(&self) -> Severity {
        self.families
            .iter()
            .map(|f| f.severity)
            .max()
            .unwrap_or(Severity::Ok)
    }

    /// Process exit code: ok → 0, degraded → 1, corrupt → 2.
    pub fn exit_code(&self) -> i32 {
        match self.severity() {
            Severity::Ok => 0,
            Severity::Degraded => 1,
            Severity::Corrupt => 2,
        }
    }

    /// Find one family's report by name.
    pub fn family(&self, name: &str) -> Option<&FamilyReport> {
        self.families.iter().find(|f| f.family == name)
    }

    /// Multi-line human report.
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "doctor {} of {}",
            if self.repaired { "repair" } else { "audit" },
            self.dir.display()
        );
        for fam in &self.families {
            let counts = fam
                .counts
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect::<Vec<_>>()
                .join(" ");
            let _ = writeln!(
                out,
                "  {:<10} {:<9} {counts}",
                fam.family,
                fam.severity.label()
            );
            for note in &fam.notes {
                let _ = writeln!(out, "             - {note}");
            }
        }
        if !self.actions.is_empty() {
            let _ = writeln!(out, "repairs applied:");
            for action in &self.actions {
                let _ = writeln!(out, "  * {action}");
            }
        }
        let _ = writeln!(
            out,
            "overall: {} (exit {})",
            self.severity().label(),
            self.exit_code()
        );
        out
    }

    /// Compact JSON report.
    pub fn render_json(&self) -> String {
        let families: Vec<String> = self
            .families
            .iter()
            .map(|fam| {
                let counts = fam
                    .counts
                    .iter()
                    .fold(JsonObj::new(), |obj, (k, v)| obj.field_u64(k, *v));
                JsonObj::new()
                    .field_str("family", fam.family)
                    .field_str("severity", fam.severity.label())
                    .field_raw("counts", &counts.finish())
                    .field_raw("notes", &to_string(&fam.notes))
                    .finish()
            })
            .collect();
        JsonObj::new()
            .field_str("dir", &self.dir.display().to_string())
            .field_bool("repaired", self.repaired)
            .field_str("severity", self.severity().label())
            .field_u64("exit_code", self.exit_code() as u64)
            .field_raw("actions", &to_string(&self.actions))
            .field_raw("families", &format!("[{}]", families.join(",")))
            .finish()
    }
}

/// Walk every durable surface of the store directory with the real
/// parsers and grade what it finds. Read-only: never writes a byte.
/// Fires the `doctor.scan` failpoint once on entry so chaos tests can
/// prove a crashed audit changes nothing.
pub fn audit(dir: &Path) -> io::Result<DoctorReport> {
    Ok(DoctorReport {
        dir: dir.to_path_buf(),
        repaired: false,
        actions: Vec::new(),
        families: walk(dir, "doctor.scan", None)?,
    })
}

/// Apply every family's own atomic repair path, then re-audit. The
/// returned report reflects the store *after* repair, with the actions
/// taken attached. Fires the `doctor.repair` failpoint once on entry.
///
/// Idempotent by construction — each repair step is "quarantine the
/// damaged bytes, rewrite the survivors atomically", so a second pass
/// finds nothing to do — and never destructive.
pub fn repair(dir: &Path) -> io::Result<DoctorReport> {
    let mut actions = Vec::new();
    walk(dir, "doctor.repair", Some(&mut actions))?;
    Ok(DoctorReport {
        repaired: true,
        actions,
        ..audit(dir)?
    })
}

/// The one loop behind [`audit`] and [`repair`]: fire `failpoint`, then
/// check each family in table order and — when `actions` collects them
/// — apply its fix before the next family is checked.
fn walk(
    dir: &Path,
    failpoint: &str,
    mut actions: Option<&mut Vec<String>>,
) -> io::Result<Vec<FamilyReport>> {
    if !dir.is_dir() {
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!("store directory {} does not exist", dir.display()),
        ));
    }
    let lossy = dir.to_string_lossy();
    musa_fault::fail_io(failpoint, musa_fault::key_of(&[lossy.as_bytes()]))?;
    FAMILIES
        .iter()
        .map(|family| {
            let mut report = FamilyReport::new(family.name);
            let fix = (family.check)(dir, &mut report)?;
            if let (Some(actions), Some(fix)) = (actions.as_deref_mut(), fix) {
                fix(dir, actions)?;
            }
            Ok(report)
        })
        .collect()
}

/// A family's repair: its owner's own path, run on the store directory,
/// pushing the action lines it applied.
type Fix = Box<dyn FnOnce(&Path, &mut Vec<String>) -> io::Result<()>>;

fn fix(f: impl FnOnce(&Path, &mut Vec<String>) -> io::Result<()> + 'static) -> Fix {
    Box::new(f)
}

/// One family of durable state: its stable name and its read-only
/// check, which fills the family's counters and graded notes and
/// returns the repair to run, if any.
struct Family {
    name: &'static str,
    check: fn(&Path, &mut FamilyReport) -> io::Result<Option<Fix>>,
}

/// Every family, in presentation and repair order. The line-oriented
/// ones classify with their owner's rule (`classify_row`,
/// `validate_search_line`, `classify_profile`) through
/// [`scan`]; what follows here is only each family's grading and which
/// owner call repairs it.
const FAMILIES: [Family; 4] = [
    Family {
        name: "rows",
        check: |dir, fam| {
            let store = musa_store::CampaignStore::open_read_only(dir)?;
            let health = store.health();
            fam.count("rows", store.len() as u64)
                .count("corrupt_rows", health.quarantined)
                .count("torn_tails", health.tails_repaired)
                .count("files_skipped", health.files_skipped)
                .count("stale_schema", health.rows_stale_schema)
                .count("newer_schema", health.rows_newer_schema)
                .note_if(health.quarantined, Severity::Corrupt, |n| {
                    format!(
                        "{n} row(s) failed CRC or parse; repair moves them to {QUARANTINE_FILE}"
                    )
                })
                .note_if(health.files_skipped, Severity::Corrupt, |n| {
                    format!("{n} unreadable result file(s) skipped")
                })
                .note_if(health.tails_repaired, Severity::Degraded, |n| {
                    format!("{n} torn final line(s) (interrupted append; repair truncates)")
                })
                .note_if(health.rows_stale_schema, Severity::Ok, |n| {
                    format!(
                        "{n} stale-schema row(s) (skipped in memory; a resume re-simulates them)"
                    )
                })
                .note_if(health.rows_newer_schema, Severity::Ok, |n| {
                    format!("{n} newer-schema row(s) (owned by a newer writer; left alone)")
                });
            // A writable open IS the row repair path: torn tails
            // truncated, corrupt rows quarantined with provenance,
            // shards rewritten atomically. It runs whatever the check
            // found: it also terminates a final row no counter flags.
            Ok(Some(fix(|dir, actions| {
                let health = musa_store::CampaignStore::open(dir)?.health().clone();
                if health.quarantined > 0 {
                    actions.push(format!(
                        "rows: quarantined {} corrupt row(s) to {QUARANTINE_FILE}",
                        health.quarantined
                    ));
                }
                if health.tails_repaired > 0 {
                    actions.push(format!(
                        "rows: truncated {} torn final line(s)",
                        health.tails_repaired
                    ));
                }
                Ok(())
            })))
        },
    },
    Family {
        name: "search",
        check: |dir, fam| {
            let path = dir.join(SEARCH_DIR).join(JOURNAL_FILE);
            let log = read_log(&path)?;
            let newer = std::str::from_utf8(log.split(|&b| b == b'\n').next().unwrap_or_default())
                .ok()
                .and_then(|first| JsonValue::parse(first).ok())
                .and_then(|v| v.get("v").and_then(JsonValue::as_u64))
                .is_some_and(|s| s > musa_search::JOURNAL_SCHEMA);
            if newer {
                let lines = log.split_inclusive(|&b| b == b'\n').count() as u64;
                fam.count("journal_lines", lines).note(
                    Severity::Ok,
                    "journal written by a newer schema; left alone",
                );
                return Ok(None);
            }
            let scan = scan(&log, |line_no, line| {
                validate_search_line(line, line_no == 1).into()
            });
            let (unterminated, kept) = (scan.unterminated, scan.kept.len() as u64);
            if let Some(mut bad) = scan.bad.into_iter().next() {
                fam.count("journal_lines", 0).note(
                    Severity::Corrupt,
                    format!(
                        "journal line {} corrupt ({}); repair preserves the file and quarantines the evidence",
                        bad.line, bad.reason
                    ),
                );
                // Interior corruption means the replay cursor cannot
                // trust anything after the damage. Preserve the whole
                // file under a content-fingerprinted name (never delete
                // evidence), leave a provenance record, and let the next
                // search start fresh — its evaluated rows are still in
                // the store, so re-searching only replays cached points.
                return Ok(Some(fix(move |dir, actions| {
                    let preserved = format!(
                        "{JOURNAL_FILE}.quarantined-{:016x}",
                        musa_store::fnv1a_64(&log)
                    );
                    std::fs::rename(&path, path.with_file_name(&preserved))?;
                    bad.reason = format!(
                        "search journal corrupt ({}); full file preserved as {SEARCH_DIR}/{preserved}",
                        bad.reason
                    );
                    musa_store::set_aside(dir, &format!("{SEARCH_DIR}/{JOURNAL_FILE}"), &[bad])?;
                    actions.push(format!(
                        "search: preserved corrupt journal as {SEARCH_DIR}/{preserved} and quarantined the evidence"
                    ));
                    Ok(())
                })));
            }
            if !unterminated {
                fam.count("journal_lines", kept);
                return Ok(None);
            }
            // An unterminated final line is torn residue whether or not
            // it parses — `SearchJournal::open` truncates it identically
            // (a resumed search re-records the step).
            let prefix = log.iter().rposition(|&b| b == b'\n').map_or(0, |nl| nl + 1);
            let complete = log[..prefix].iter().filter(|&&b| b == b'\n').count() as u64;
            fam.count("journal_lines", complete).note(
                Severity::Degraded,
                "torn final journal line (crash residue; repair truncates, a resumed search re-records it)",
            );
            Ok(Some(fix(move |_, actions| {
                musa_store::atomic_write(&path, &log[..prefix], "doctor.repair")?;
                actions.push(format!(
                    "search: truncated torn journal tail ({complete} complete line(s) kept)"
                ));
                Ok(())
            })))
        },
    },
    Family {
        name: "profiles",
        check: |dir, fam| {
            let (_, rep) = musa_prof::load_profiles(dir)?;
            fam.count("records", rep.records as u64)
                .count("duplicates", rep.duplicates as u64)
                .count("torn_tails", rep.torn_tails as u64)
                .count("corrupt", rep.corrupt as u64)
                // Telemetry, not campaign data — degraded, not corrupt.
                .note_if(rep.corrupt as u64, Severity::Degraded, |n| {
                    format!("{n} profile line(s) failed checksum or parse; repair quarantines them before rewriting")
                })
                .note_if(rep.torn_tails as u64, Severity::Degraded, |n| {
                    format!("{n} torn profile tail(s) (crash residue; harvest drops them)")
                });
            Ok(rep.repaired_anything().then(|| {
                fix(move |dir, actions| {
                    // `harvest` rewrites the recorder file without its
                    // corrupt lines — set those bytes aside first. (Its
                    // torn tail is crash residue.)
                    let log = read_log(&dir.join(musa_prof::PROFILES_FILE))?;
                    let bad = scan(&log, musa_prof::classify_profile).bad;
                    let quarantined =
                        musa_store::set_aside(dir, musa_prof::PROFILES_FILE, &bad)?;
                    musa_prof::harvest(dir)?;
                    actions.push(format!(
                        "profiles: rewrote the flight record without {} torn/{} corrupt line(s) and {} duplicate(s) ({} quarantined first)",
                        rep.torn_tails, rep.corrupt, rep.duplicates, quarantined
                    ));
                    Ok(())
                })
            }))
        },
    },
    Family {
        name: "quarantine",
        check: |dir, fam| {
            let lines = |path: &Path| {
                std::fs::read_to_string(path).map_or(0, |text| text.lines().count() as u64)
            };
            let rotations: Vec<PathBuf> = (1..=QUARANTINE_KEEP)
                .map(|i| musa_store::quarantine_rotation_path(dir, i))
                .filter(|path| path.is_file())
                .collect();
            let primary = lines(&dir.join(QUARANTINE_FILE));
            let rotated: u64 = rotations.iter().map(|path| lines(path)).sum();
            fam.count("evidence_lines", primary)
                .count("rotated_lines", rotated)
                .count("rotations", rotations.len() as u64)
                .note_if(primary + rotated, Severity::Ok, |n| {
                    format!("{n} quarantine record(s) on file (advisory: evidence of past repairs, never auto-deleted)")
                });
            Ok(None)
        },
    },
];

#[cfg(test)]
mod tests {
    use super::*;
    use musa_fault::integrity::{BadLine, Verdict};
    use std::sync::Mutex;

    static FAULT_LOCK: Mutex<()> = Mutex::new(());

    /// Held by every test that calls [`audit`] or [`repair`]:
    /// `doctor_failpoints_fire` installs a process-wide fault plan that
    /// would fail them.
    fn fault_lock() -> std::sync::MutexGuard<'static, ()> {
        FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn tdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("musa-doctor-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn empty_store_audits_clean() {
        let _lock = fault_lock();
        let dir = tdir("empty");
        let report = audit(&dir).unwrap();
        assert_eq!(report.severity(), Severity::Ok);
        assert_eq!(report.exit_code(), 0);
        assert_eq!(report.families.len(), 4);
        // JSON renders and parses with the crate's own parser.
        let parsed = JsonValue::parse(&report.render_json()).unwrap();
        assert_eq!(
            parsed.get("severity").and_then(JsonValue::as_str),
            Some("ok")
        );
        assert_eq!(
            parsed
                .get("families")
                .and_then(JsonValue::as_arr)
                .map(<[JsonValue]>::len),
            Some(4)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_dir_is_an_error() {
        let _lock = fault_lock();
        let dir = std::env::temp_dir().join(format!("musa-doctor-nope-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        assert!(audit(&dir).is_err());
        assert!(repair(&dir).is_err());
    }

    #[test]
    fn search_journal_torn_tail_is_truncated() {
        let _lock = fault_lock();
        let dir = tdir("search-torn");
        let sdir = dir.join(musa_search::SEARCH_DIR);
        std::fs::create_dir_all(&sdir).unwrap();
        let path = sdir.join(musa_search::JOURNAL_FILE);
        std::fs::write(
            &path,
            "{\"v\":1,\"kind\":\"header\"}\n{\"v\":1,\"kind\":\"gen\"}\n{\"v\":1,\"ki",
        )
        .unwrap();
        let report = audit(&dir).unwrap();
        assert_eq!(
            report.severity(),
            Severity::Degraded,
            "{}",
            report.render_text()
        );
        let repaired = repair(&dir).unwrap();
        assert_eq!(repaired.exit_code(), 0, "{}", repaired.render_text());
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(
            text,
            "{\"v\":1,\"kind\":\"header\"}\n{\"v\":1,\"kind\":\"gen\"}\n"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn search_journal_interior_corruption_is_preserved_whole() {
        let _lock = fault_lock();
        let dir = tdir("search-corrupt");
        let sdir = dir.join(musa_search::SEARCH_DIR);
        std::fs::create_dir_all(&sdir).unwrap();
        let path = sdir.join(musa_search::JOURNAL_FILE);
        let body = "{\"v\":1,\"kind\":\"header\"}\ngarbage\n{\"v\":1,\"kind\":\"done\"}\n";
        std::fs::write(&path, body).unwrap();
        let report = audit(&dir).unwrap();
        assert_eq!(report.severity(), Severity::Corrupt);

        let repaired = repair(&dir).unwrap();
        assert_eq!(repaired.exit_code(), 0, "{}", repaired.render_text());
        assert!(
            !path.exists(),
            "corrupt journal should have been moved aside"
        );
        // The whole file survives under a fingerprinted name...
        let preserved: Vec<_> = std::fs::read_dir(&sdir)
            .unwrap()
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().contains("quarantined"))
            .collect();
        assert_eq!(preserved.len(), 1);
        assert_eq!(std::fs::read_to_string(preserved[0].path()).unwrap(), body);
        // ...and the evidence line names it.
        let evidence = std::fs::read_to_string(dir.join(QUARANTINE_FILE)).unwrap();
        assert!(evidence.contains("garbage"), "{evidence}");
        assert!(evidence.contains("search journal corrupt"), "{evidence}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_profile_lines_are_quarantined_then_harvested() {
        let _lock = fault_lock();
        let dir = tdir("profiles");
        std::fs::write(
            dir.join(musa_prof::PROFILES_FILE),
            "definitely not a sealed profile record\n",
        )
        .unwrap();
        let report = audit(&dir).unwrap();
        assert_eq!(
            report.severity(),
            Severity::Degraded,
            "{}",
            report.render_text()
        );
        assert_eq!(report.family("profiles").unwrap().counter("corrupt"), 1);

        let repaired = repair(&dir).unwrap();
        assert_eq!(repaired.exit_code(), 0, "{}", repaired.render_text());
        let evidence = std::fs::read_to_string(dir.join(QUARANTINE_FILE)).unwrap();
        assert!(evidence.contains("definitely not a sealed profile record"));
        assert!(evidence.contains(musa_prof::PROFILES_FILE));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The line rule, checked with one family's classifier over a log
    /// of its own records (`lines`, one record each).
    ///
    /// The journal's truncation property, now the scanner's: a cut at
    /// **every** byte offset keeps exactly the fully written lines
    /// (plus the fragment iff it is itself a record — a crash exactly
    /// between a line's last byte and its newline), flags a torn tail
    /// iff the fragment is not a record, never reports interior
    /// corruption, and a repair followed by an append never merges two
    /// lines. Exhaustive rather than sampled: the log is small enough
    /// to try every cut.
    fn check_line_rule<R: PartialEq + std::fmt::Debug>(
        tag: &str,
        lines: &[String],
        classify: impl Fn(usize, &str) -> Verdict<R>,
    ) {
        let dir = tdir(tag);
        let path = dir.join("log");
        let full: String = lines.iter().map(|l| format!("{l}\n")).collect();
        assert!(full.is_ascii(), "{tag}: every byte offset must be a cut");
        let whole = scan(full.as_bytes(), &classify);
        assert_eq!(whole.kept, lines, "{tag}: the fixture must be records");
        assert!(whole.bad.is_empty() && whole.torn.is_none() && !whole.needs_rewrite());

        for n in 0..=full.len() {
            let cut = &full[..n];
            let tail = &cut[cut.rfind('\n').map_or(0, |nl| nl + 1)..];
            let complete = cut.matches('\n').count();
            let tail_is_record =
                !tail.is_empty() && matches!(classify(complete + 1, tail), Verdict::Record(_));
            let expected = complete + usize::from(tail_is_record);

            let found = scan(cut.as_bytes(), &classify);
            assert_eq!(
                found.records,
                whole.records[..expected],
                "{tag}: cut at {n}"
            );
            assert_eq!(found.kept, lines[..expected], "{tag}: cut at {n}");
            assert!(found.bad.is_empty(), "{tag}: cut at {n}: {:?}", found.bad);
            let torn = !tail.is_empty() && !tail_is_record;
            assert_eq!(found.torn.is_some(), torn, "{tag}: cut at {n}");
            assert_eq!(found.unterminated, !tail.is_empty(), "{tag}: cut at {n}");

            // Repairing before the next append keeps it from
            // concatenating onto an unterminated line.
            std::fs::write(&path, cut).unwrap();
            if found.needs_rewrite() {
                found.rewrite(&path, "store.rewrite").unwrap();
            }
            let probe = &lines[expected.min(lines.len() - 1)];
            let mut repaired = std::fs::read_to_string(&path).unwrap();
            repaired.push_str(probe);
            repaired.push('\n');
            let after = scan(repaired.as_bytes(), &classify);
            assert!(
                after.torn.is_none() && !after.needs_rewrite(),
                "{tag}: cut at {n}"
            );
            assert_eq!(
                after.kept[..expected],
                lines[..expected],
                "{tag}: cut at {n}"
            );
            assert_eq!(
                after.kept[expected..],
                [probe.as_str()],
                "{tag}: cut at {n}"
            );
        }

        // The two cases the hand-rolled loops disagreed on. A *complete*
        // garbage final line (its newline is there) is corruption, not
        // a torn tail: no crash writes a whole wrong line.
        let garbled = format!("{full}not a record of any family\n");
        let found = scan(garbled.as_bytes(), &classify);
        assert_eq!(found.kept, lines, "{tag}");
        assert!(found.torn.is_none() && !found.unterminated, "{tag}");
        assert_eq!(found.bad.len(), 1, "{tag}");
        assert_eq!(found.bad[0].line, lines.len() + 1, "{tag}");
        assert_eq!(found.bad[0].raw, "not a record of any family", "{tag}");
        // An unterminated final line that is a record is a record.
        let unterminated = full.trim_end_matches('\n');
        let found = scan(unterminated.as_bytes(), &classify);
        assert_eq!(found.records, whole.records, "{tag}");
        assert!(found.torn.is_none() && found.bad.is_empty(), "{tag}");
        assert!(found.unterminated && found.needs_rewrite(), "{tag}");

        // One byte that is not UTF-8 costs exactly its line: line k is
        // bad, its evidence holds U+FFFD where the byte was, and every
        // other line is kept verbatim.
        for k in 0..lines.len() {
            let mid = lines[k].len() / 2;
            let mut log = Vec::new();
            for (i, line) in lines.iter().enumerate() {
                let mut bytes = line.as_bytes().to_vec();
                if i == k {
                    bytes.insert(mid, 0xFF);
                }
                log.extend_from_slice(&bytes);
                log.push(b'\n');
            }
            let found = scan(&log, &classify);
            let others: Vec<&str> = (0..lines.len())
                .filter(|&i| i != k)
                .map(|i| lines[i].as_str())
                .collect();
            assert_eq!(found.kept, others, "{tag}: 0xFF in line {}", k + 1);
            assert!(found.torn.is_none(), "{tag}: 0xFF in line {}", k + 1);
            let raw = format!("{}\u{FFFD}{}", &lines[k][..mid], &lines[k][mid..]);
            let expected = BadLine {
                line: k + 1,
                raw,
                reason: "invalid UTF-8".to_string(),
            };
            assert_eq!(found.bad, [expected], "{tag}: 0xFF in line {}", k + 1);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_family_classifier_obeys_the_line_rule() {
        let rows: Vec<String> = (0..3u32)
            .map(|i| {
                let x = f64::from(i);
                let result = musa_core::ConfigResult {
                    app: musa_apps::AppId::Hydro.label().to_string(),
                    config: musa_arch::DesignSpace::all()[i as usize],
                    time_ns: 1.0 + x,
                    region_ns: 0.5 + x,
                    power: Default::default(),
                    energy_j: x / 5.0,
                    l1_mpki: x,
                    l2_mpki: x / 2.0,
                    l3_mpki: x / 4.0,
                    mem_mpki: x / 8.0,
                    gmemreq_per_s: x,
                    mem_stretch: 1.0,
                    region_efficiency: 0.5,
                };
                let row = musa_store::StoreRow::new(musa_apps::GenParams::tiny(), false, result);
                musa_store::SealedRow::seal(row).line
            })
            .collect();
        check_line_rule("rule-rows", &rows, |line_no, line| {
            let mut health = musa_store::StoreHealth::default();
            musa_store::classify_row(Path::new("rows.jsonl"), line_no, line, &mut health)
        });

        let profiles: Vec<String> = ["aaaa", "bbbb", "cccc"]
            .iter()
            .map(|key| {
                musa_prof::PointProfile {
                    schema: musa_prof::PROF_SCHEMA,
                    key: key.to_string(),
                    app: "hydro".into(),
                    config: "c64".into(),
                    worker: "fill".into(),
                    phases: [("burst".to_string(), 7)].into(),
                    ..Default::default()
                }
                .to_line()
            })
            .collect();
        check_line_rule("rule-profiles", &profiles, musa_prof::classify_profile);

        let search = [
            musa_search::journal::header_line("anneal", 9, "tiny", "hydro", 24, 8, 1.5, "tiny"),
            musa_search::journal::gen_line(0, 1.0, 8, 8, 8, 3, 0.25),
            musa_search::journal::gen_line(1, 0.5, 8, 6, 14, 4, 0.5),
            musa_search::journal::done_line(14, 4, 0.5),
        ];
        check_line_rule("rule-search", &search, |line_no, line| {
            validate_search_line(line, line_no == 1).into()
        });
    }

    #[test]
    fn corrupt_rows_end_in_quarantine() {
        let _lock = fault_lock();
        let dir = tdir("rows");
        // A row shard an older multi-process fill wrote is a row file
        // like `rows.jsonl`.
        std::fs::write(dir.join("dist-l0001-a1.jsonl"), "garbage row\n").unwrap();
        let report = audit(&dir).unwrap();
        assert_eq!(
            report.severity(),
            Severity::Corrupt,
            "{}",
            report.render_text()
        );
        let repaired = repair(&dir).unwrap();
        assert_eq!(repaired.exit_code(), 0, "{}", repaired.render_text());
        let evidence = std::fs::read_to_string(dir.join(QUARANTINE_FILE)).unwrap();
        assert!(evidence.contains("garbage row"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn doctor_failpoints_fire() {
        if !musa_fault::COMPILED {
            // Without the runtime the failpoints fold to constant
            // no-ops by design; nothing to observe.
            return;
        }
        let _lock = fault_lock();
        let dir = tdir("faults");
        musa_fault::set_plan(Some(
            musa_fault::FaultPlan::parse("seed=1,doctor.scan=io@1.0").unwrap(),
        ));
        let err = audit(&dir).unwrap_err();
        assert!(err.to_string().contains("doctor.scan"), "{err}");
        musa_fault::set_plan(Some(
            musa_fault::FaultPlan::parse("seed=1,doctor.repair=io@1.0").unwrap(),
        ));
        let err = repair(&dir).unwrap_err();
        assert!(err.to_string().contains("doctor.repair"), "{err}");
        musa_fault::set_plan(None);
        // With the plan cleared both paths run clean.
        assert_eq!(audit(&dir).unwrap().exit_code(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
