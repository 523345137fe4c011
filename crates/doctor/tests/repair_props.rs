//! Property tests of `musa_doctor::repair`: for any mix of injected
//! corruption across the durable families (CRC-broken rows in a lease
//! shard an older multi-process fill wrote, garbage row lines — one of
//! them not UTF-8 —, search journal, profiles), one repair pass converges to a clean store
//! (exit 0), a second pass is a byte-identical no-op, and every
//! complete garbage line ends up as quarantine evidence — repair never
//! silently destroys data.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use musa_obs::rng::{check_cases, SplitMix64};

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

fn tmp_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "musa-doctor-prop-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// What to do to the search journal, if anything. Valid header/gen
/// lines are written first in every non-`Absent` variant.
#[derive(Clone, Copy, Debug)]
enum SearchHarm {
    Absent,
    Clean,
    /// Unterminated garbage fragment after the valid lines.
    TornTail,
    /// Terminated garbage line between valid lines (whole-file
    /// quarantine path).
    Interior,
    /// A second header line (structural corruption).
    DupHeader,
}

/// One generated corruption mix.
#[derive(Clone, Debug)]
struct Harm {
    row_garbage: Vec<String>,
    row_torn: bool,
    search: SearchHarm,
    profile_garbage: Vec<String>,
    /// A row line holding a 0xFF byte (not UTF-8).
    row_ff: bool,
    /// Sealed rows in a lease shard, each with one digit flipped so its
    /// CRC fails, beside one intact row.
    broken_rows: u8,
}

/// Letters only: never parses as a row, a profile record, or JSON, and never collides with blank-line handling.
fn garbage_line(rng: &mut SplitMix64) -> String {
    let len = 3 + (rng.next_u64() % 14) as usize;
    (0..len)
        .map(|_| (b'a' + (rng.next_u64() % 26) as u8) as char)
        .collect()
}

impl Harm {
    fn sample(rng: &mut SplitMix64) -> Harm {
        let row_garbage = (0..rng.next_u64() % 4).map(|_| garbage_line(rng)).collect();
        let row_torn = rng.next_u64() & 1 == 1;
        let search = match rng.next_u64() % 5 {
            0 => SearchHarm::Absent,
            1 => SearchHarm::Clean,
            2 => SearchHarm::TornTail,
            3 => SearchHarm::Interior,
            _ => SearchHarm::DupHeader,
        };
        let profile_garbage = (0..rng.next_u64() % 3).map(|_| garbage_line(rng)).collect();
        Harm {
            row_garbage,
            row_torn,
            search,
            profile_garbage,
            row_ff: rng.next_u64() & 1 == 1,
            broken_rows: (rng.next_u64() % 3) as u8,
        }
    }
}

const SEARCH_HEADER: &str = r#"{"v":1,"kind":"header","space":"tiny","seed":9,"budget":24}"#;
const SEARCH_GEN: &str = r#"{"v":1,"kind":"gen","gen":0,"evaluated":8}"#;

const SHARD: &str = "dist-l0001-a1.jsonl";

/// The sealed line of one real row, for design point `i`.
fn sealed_row(i: usize) -> String {
    let x = i as f64;
    let result = musa_core::ConfigResult {
        app: musa_apps::AppId::Hydro.label().to_string(),
        config: musa_arch::DesignSpace::all()[i],
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
}

fn inject(dir: &Path, harm: &Harm) {
    if !harm.row_garbage.is_empty() || harm.row_torn || harm.row_ff {
        let mut log = Vec::new();
        for line in &harm.row_garbage {
            log.extend_from_slice(line.as_bytes());
            log.push(b'\n');
        }
        if harm.row_ff {
            log.extend_from_slice(b"{\"key\":\"\xff\"}\n");
        }
        if harm.row_torn {
            log.extend_from_slice(b"torn-frag"); // no trailing newline
        }
        std::fs::write(dir.join(musa_store::DEFAULT_WRITE_FILE), log).unwrap();
    }

    if harm.broken_rows > 0 {
        let mut text = format!("{}\n", sealed_row(0));
        for i in 1..=usize::from(harm.broken_rows) {
            let line = sealed_row(i);
            let at = line.find("\"time_ns\":").unwrap() + "\"time_ns\":".len();
            let digit = if &line[at..=at] == "7" { "3" } else { "7" };
            text.push_str(&format!("{}{digit}{}\n", &line[..at], &line[at + 1..]));
        }
        std::fs::write(dir.join(SHARD), text).unwrap();
    }

    let search_dir = dir.join(musa_search::SEARCH_DIR);
    let journal = search_dir.join(musa_search::JOURNAL_FILE);
    match harm.search {
        SearchHarm::Absent => {}
        SearchHarm::Clean => {
            std::fs::create_dir_all(&search_dir).unwrap();
            std::fs::write(&journal, format!("{SEARCH_HEADER}\n{SEARCH_GEN}\n")).unwrap();
        }
        SearchHarm::TornTail => {
            std::fs::create_dir_all(&search_dir).unwrap();
            std::fs::write(
                &journal,
                format!("{SEARCH_HEADER}\n{SEARCH_GEN}\n{{\"v\":1,\"ki"),
            )
            .unwrap();
        }
        SearchHarm::Interior => {
            std::fs::create_dir_all(&search_dir).unwrap();
            std::fs::write(
                &journal,
                format!("{SEARCH_HEADER}\nnot json at all\n{SEARCH_GEN}\n"),
            )
            .unwrap();
        }
        SearchHarm::DupHeader => {
            std::fs::create_dir_all(&search_dir).unwrap();
            std::fs::write(&journal, format!("{SEARCH_HEADER}\n{SEARCH_HEADER}\n")).unwrap();
        }
    }

    if !harm.profile_garbage.is_empty() {
        let mut text = String::new();
        for line in &harm.profile_garbage {
            text.push_str(line);
            text.push('\n');
        }
        std::fs::write(dir.join(musa_prof::PROFILES_FILE), text).unwrap();
    }
}

/// Recursive byte snapshot of the store directory, keyed by relative
/// path — the idempotence oracle.
fn snapshot(dir: &Path) -> BTreeMap<PathBuf, Vec<u8>> {
    let mut out = BTreeMap::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                stack.push(path);
            } else {
                let rel = path.strip_prefix(dir).unwrap().to_path_buf();
                out.insert(rel, std::fs::read(&path).unwrap());
            }
        }
    }
    out
}

/// Evidence lines across the active quarantine ledger and every
/// retained rotation.
fn evidence_lines(report: &musa_doctor::DoctorReport) -> u64 {
    let q = report.family("quarantine").expect("quarantine family");
    q.counter("evidence_lines") + q.counter("rotated_lines")
}

const CASES: u64 = 48;

/// Repair converges in one pass, is a byte-identical no-op on the
/// second, and quarantines (never destroys) every complete
/// garbage line it removes.
#[test]
fn repair_is_idempotent_and_never_worse() {
    check_cases(CASES, |rng| {
        let harm = Harm::sample(rng);
        let dir = tmp_dir();
        inject(&dir, &harm);

        let before = musa_doctor::audit(&dir).unwrap();

        let first = musa_doctor::repair(&dir).unwrap();
        assert_eq!(
            first.exit_code(),
            0,
            "one repair pass must converge: {}",
            first.render_text()
        );
        // Repair never makes the grade worse than the pre-repair audit.
        assert!(first.severity() <= before.severity());

        // Every complete garbage line (row + profile), every broken
        // row and every interior-corrupt search journal must survive
        // as evidence.
        let expected = harm.row_garbage.len() as u64
            + u64::from(harm.row_ff)
            + u64::from(harm.broken_rows)
            + harm.profile_garbage.len() as u64
            + matches!(harm.search, SearchHarm::Interior | SearchHarm::DupHeader) as u64;
        assert!(
            evidence_lines(&first) >= expected,
            "expected >= {} evidence lines, got {}",
            expected,
            evidence_lines(&first)
        );
        // The shard keeps its intact row, verbatim.
        if harm.broken_rows > 0 {
            let text = std::fs::read_to_string(dir.join(SHARD)).unwrap();
            assert_eq!(text, format!("{}\n", sealed_row(0)));
        }

        // A clean search journal is untouched by repair.
        if matches!(harm.search, SearchHarm::Clean) {
            let text = std::fs::read_to_string(
                dir.join(musa_search::SEARCH_DIR)
                    .join(musa_search::JOURNAL_FILE),
            )
            .unwrap();
            assert_eq!(text, format!("{SEARCH_HEADER}\n{SEARCH_GEN}\n"));
        }
        // A torn tail is truncated back to the valid prefix, keeping
        // every complete line.
        if matches!(harm.search, SearchHarm::TornTail) {
            let text = std::fs::read_to_string(
                dir.join(musa_search::SEARCH_DIR)
                    .join(musa_search::JOURNAL_FILE),
            )
            .unwrap();
            assert_eq!(text, format!("{SEARCH_HEADER}\n{SEARCH_GEN}\n"));
        }

        let after_first = snapshot(&dir);
        let second = musa_doctor::repair(&dir).unwrap();
        assert_eq!(second.exit_code(), 0);
        let after_second = snapshot(&dir);
        assert_eq!(
            &after_first, &after_second,
            "second repair must be a byte-identical no-op"
        );
        assert!(evidence_lines(&second) >= evidence_lines(&first));

        std::fs::remove_dir_all(&dir).unwrap();
    });
}

/// Auditing never mutates the store, whatever state it is in.
#[test]
fn audit_is_read_only() {
    check_cases(CASES, |rng| {
        let harm = Harm::sample(rng);
        let dir = tmp_dir();
        inject(&dir, &harm);

        let before = snapshot(&dir);
        let report = musa_doctor::audit(&dir).unwrap();
        let after = snapshot(&dir);
        assert_eq!(
            &before,
            &after,
            "audit must not write: {}",
            report.render_text()
        );

        std::fs::remove_dir_all(&dir).unwrap();
    });
}
