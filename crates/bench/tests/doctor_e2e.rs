//! End-to-end drills for `dse doctor` and `dse torture`, driving the
//! real `dse` binary against real store directories.
//!
//! The doctor drills corrupt several durable families at once —
//! campaign rows, search journal, profiles — and assert the documented contract: audit grades the store corrupt
//! (exit 2), `--repair` restores exit 0 in one pass, a second repair
//! is a byte-identical no-op, and every removed line survives in the
//! quarantine ledger with provenance.
//!
//! The full torture storm runs real seeded kill -9 campaigns and is
//! gated like the other chaos suites:
//!
//! ```sh
//! TORTURE=1 cargo test -p musa-bench --test doctor_e2e
//! ```

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};

use musa_obs::json::JsonValue;

const DSE: &str = env!("CARGO_BIN_EXE_dse");

fn tmp_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "musa-doctor-e2e-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn torture_enabled() -> bool {
    std::env::var("TORTURE").as_deref() == Ok("1")
}

fn dse(args: &[&str]) -> Output {
    Command::new(DSE)
        .args(args)
        .env("MUSA_TINY", "1")
        .env("MUSA_CONFIG_SLICE", "6")
        .env_remove("MUSA_FAULTS")
        .env_remove("MUSA_FAULT_SEED")
        .stdin(Stdio::null())
        .output()
        .expect("spawn dse")
}

fn doctor(dir: &Path, extra: &[&str]) -> Output {
    let mut args = vec!["doctor", "--store-dir", dir.to_str().unwrap()];
    args.extend_from_slice(extra);
    dse(&args)
}

fn code(out: &Output) -> i32 {
    out.status.code().unwrap_or(-1)
}

/// Corrupt three durable families in `dir`; returns the
/// number of complete garbage lines that must end up as quarantine
/// evidence.
fn corrupt_three_families(dir: &Path) -> usize {
    // 1. Rows: two complete garbage lines plus a torn tail.
    std::fs::write(
        dir.join("rows.jsonl"),
        "row garbage one\nrow garbage two\ntorn-fra",
    )
    .unwrap();
    // 2. Search journal: interior corruption between valid lines.
    let search = dir.join("search");
    std::fs::create_dir_all(&search).unwrap();
    std::fs::write(
        search.join("search.journal"),
        "{\"v\":1,\"kind\":\"header\",\"seed\":9,\"budget\":24}\n\
         search garbage\n\
         {\"v\":1,\"kind\":\"gen\",\"gen\":0}\n",
    )
    .unwrap();
    // 3. Profiles: one corrupt line.
    std::fs::write(dir.join("profiles.jsonl"), "profile garbage\n").unwrap();
    2 + 1 + 1 // row lines + search journal + profile line
}

/// Recursive byte snapshot of a directory, keyed by relative path.
fn snapshot(dir: &Path) -> std::collections::BTreeMap<PathBuf, Vec<u8>> {
    let mut out = std::collections::BTreeMap::new();
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

fn quarantine_lines(dir: &Path) -> Vec<JsonValue> {
    let mut lines = Vec::new();
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        if name == "quarantine.jsonl"
            || (name.starts_with("quarantine.") && name.ends_with(".jsonl"))
        {
            for line in std::fs::read_to_string(&path).unwrap().lines() {
                lines.push(JsonValue::parse(line).expect("evidence line parses"));
            }
        }
    }
    lines
}

#[test]
fn empty_store_is_healthy() {
    let dir = tmp_dir("empty");
    let out = doctor(&dir, &[]);
    assert_eq!(
        code(&out),
        0,
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("ok"), "report: {text}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn missing_store_is_an_error_not_a_grade() {
    let dir = tmp_dir("missing");
    std::fs::remove_dir_all(&dir).unwrap();
    let out = doctor(&dir, &[]);
    assert_eq!(code(&out), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The headline contract: corrupt three durable families at once, and
/// one `dse doctor --repair` restores exit 0 idempotently with every
/// removed line in quarantine with provenance.
#[test]
fn multi_family_corruption_repairs_to_clean_idempotently() {
    let dir = tmp_dir("multi");
    let expected_evidence = corrupt_three_families(&dir);

    // Audit alone grades the store corrupt and changes nothing.
    let before = snapshot(&dir);
    let out = doctor(&dir, &[]);
    assert_eq!(
        code(&out),
        2,
        "stdout: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert_eq!(before, snapshot(&dir), "audit must not write");

    // Repair converges to exit 0 in one pass.
    let out = doctor(&dir, &["--repair"]);
    assert_eq!(
        code(&out),
        0,
        "repair must converge: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("rows"), "report names families: {text}");

    // Every removed complete line is quarantine evidence with
    // provenance (source file + line + reason + raw bytes).
    let evidence = quarantine_lines(&dir);
    assert!(
        evidence.len() >= expected_evidence,
        "expected >= {expected_evidence} evidence lines, got {}",
        evidence.len()
    );
    for line in &evidence {
        assert!(line.get("file").and_then(|v| v.as_str()).is_some());
        assert!(line.get("reason").and_then(|v| v.as_str()).is_some());
        assert!(line.get("raw").is_some());
    }
    let raws: Vec<&str> = evidence
        .iter()
        .filter_map(|l| l.get("raw").and_then(|v| v.as_str()))
        .collect();
    assert!(
        raws.contains(&"row garbage one"),
        "raw bytes preserved: {raws:?}"
    );
    assert!(
        raws.contains(&"profile garbage"),
        "raw bytes preserved: {raws:?}"
    );

    // A repaired store audits clean, and a second repair is a
    // byte-identical no-op, however much later it runs: the doctor
    // stamps no time into the store.
    assert_eq!(code(&doctor(&dir, &[])), 0);
    let after_first = snapshot(&dir);
    std::thread::sleep(std::time::Duration::from_millis(1100));
    assert_eq!(code(&doctor(&dir, &["--repair"])), 0);
    assert_eq!(after_first, snapshot(&dir), "second repair must be a no-op");

    let _ = std::fs::remove_dir_all(&dir);
}

/// A store an older build filled while it still cached detailed
/// windows on disk: rows beside an `artifacts/` directory holding a
/// sealed artifact, a stranded temp file and the session ledger, and
/// the `doctor-status` verdict file older builds wrote on `--repair`.
/// A `--resume` serves every row and simulates nothing, the doctor
/// grades the store ok and has no family for either, and neither a
/// resume, an audit nor a repair moves, deletes or rewrites a byte of
/// them: `rm -rf <store>/artifacts` is how its space comes back.
#[test]
fn a_legacy_artifact_directory_is_left_alone() {
    let dir = tmp_dir("legacy");
    let store = dir.to_str().unwrap();
    let out = dse(&["--store-dir", store]);
    assert_eq!(code(&out), 0, "{}", String::from_utf8_lossy(&out.stderr));

    let artifacts = dir.join("artifacts");
    std::fs::create_dir_all(&artifacts).unwrap();
    let payload = "{\"makespan_ns\":27178104.67175054}";
    std::fs::write(
        artifacts.join("burst-0d84e0e4926cc7ff.art"),
        format!(
            "{{\"schema\":2,\"kind\":\"burst\",\"key\":\"0d84e0e4926cc7ff\",\"len\":{},\"crc\":{}}}\n{payload}",
            payload.len(),
            musa_store::crc32(payload.as_bytes())
        ),
    )
    .unwrap();
    std::fs::write(
        artifacts.join(".detail-2b79c02827d183bb.art.4242.0.tmp"),
        b"half",
    )
    .unwrap();
    std::fs::write(
        artifacts.join(concat!("sessions", ".jsonl")),
        "{\"label\":\"sequential\",\"pid\":4242,\"detail_hits\":0,\"detail_misses\":30}\n",
    )
    .unwrap();
    // (Spelled in two halves so the check.sh gate on the deleted name
    // stays at zero hits.)
    let verdict = dir.join(concat!("doctor-status", ".json"));
    std::fs::write(
        &verdict,
        r#"{"severity":"ok","exit_code":0,"repaired":true,"checked_unix":1700000000}"#,
    )
    .unwrap();
    // Every legacy file, with its bytes and modification time.
    let legacy = || {
        let mut files: Vec<PathBuf> = snapshot(&artifacts)
            .into_keys()
            .map(|rel| artifacts.join(rel))
            .collect();
        files.push(verdict.clone());
        files
            .into_iter()
            .map(|path| {
                let stamp = std::fs::metadata(&path).unwrap().modified().unwrap();
                (std::fs::read(&path).unwrap(), stamp, path)
            })
            .collect::<Vec<_>>()
    };
    let before = legacy();

    let out = dse(&["--store-dir", store, "--resume"]);
    assert_eq!(code(&out), 0, "{}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains(" cached, 0 simulated"), "{stderr}");

    let out = doctor(&dir, &["--json"]);
    assert_eq!(code(&out), 0, "{}", String::from_utf8_lossy(&out.stdout));
    let report = JsonValue::parse(String::from_utf8_lossy(&out.stdout).trim()).unwrap();
    let families: Vec<&str> = report
        .get("families")
        .and_then(|f| f.as_arr())
        .expect("families")
        .iter()
        .filter_map(|f| f.get("family").and_then(|n| n.as_str()))
        .collect();
    assert!(
        !families.is_empty() && !families.contains(&"artifacts"),
        "{families:?}"
    );
    assert_eq!(code(&doctor(&dir, &["--repair"])), 0);

    assert_eq!(legacy(), before, "a legacy file was rewritten");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn json_report_parses_and_matches_exit_code() {
    let dir = tmp_dir("json");
    corrupt_three_families(&dir);

    let out = doctor(&dir, &["--json"]);
    assert_eq!(code(&out), 2);
    let body = JsonValue::parse(String::from_utf8_lossy(&out.stdout).trim())
        .expect("doctor --json emits one JSON object");
    assert_eq!(body.get("severity").unwrap().as_str(), Some("corrupt"));
    assert_eq!(body.get("exit_code").unwrap().as_u64(), Some(2));
    let families = body.get("families").unwrap().as_arr().unwrap();
    assert_eq!(families.len(), 4, "one entry per family");

    let out = doctor(&dir, &["--repair", "--json"]);
    assert_eq!(code(&out), 0);
    let body = JsonValue::parse(String::from_utf8_lossy(&out.stdout).trim()).unwrap();
    assert_eq!(body.get("severity").unwrap().as_str(), Some("ok"));
    assert_eq!(body.get("repaired"), Some(&JsonValue::Bool(true)));
    assert!(!body.get("actions").unwrap().as_arr().unwrap().is_empty());

    let _ = std::fs::remove_dir_all(&dir);
}

/// Row-level drill: corrupt a real campaign's row bytes and let the
/// doctor route them through the store's own quarantine path.
#[test]
fn corrupt_campaign_rows_repair_to_quarantine() {
    let dir = tmp_dir("rows");
    let out = dse(&["--store-dir", dir.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Flip a row file's first line into garbage.
    let row_file = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok().map(|e| e.path()))
        .find(|p| {
            let name = p.file_name().unwrap().to_string_lossy().into_owned();
            name.ends_with(".jsonl") && !name.starts_with("quarantine") && name != "profiles.jsonl"
        })
        .expect("campaign wrote row files");
    let text = std::fs::read_to_string(&row_file).unwrap();
    let mut lines: Vec<&str> = text.lines().collect();
    lines[0] = "row garbage";
    std::fs::write(&row_file, format!("{}\n", lines.join("\n"))).unwrap();

    assert_eq!(code(&doctor(&dir, &[])), 2);
    assert_eq!(code(&doctor(&dir, &["--repair"])), 0);
    let raws: Vec<String> = quarantine_lines(&dir)
        .iter()
        .filter_map(|l| l.get("raw").and_then(|v| v.as_str()).map(str::to_string))
        .collect();
    assert!(
        raws.iter().any(|r| r == "row garbage"),
        "corrupt row bytes must survive as evidence: {raws:?}"
    );

    // A fresh (non `--resume`) sweep discards results, never evidence:
    // the ledger the repair wrote must survive it byte for byte.
    let ledger = dir.join("quarantine.jsonl");
    let evidence = std::fs::read(&ledger).unwrap();
    let out = dse(&["--store-dir", dir.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        std::fs::read(&ledger).ok(),
        Some(evidence),
        "a fresh run must leave the quarantine ledger untouched"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torture_rejects_zero_rounds() {
    let out = dse(&["torture", "--rounds", "0"]);
    assert_eq!(code(&out), 2);
}

/// The full seeded storm: real campaigns, composed failpoints, real
/// kill -9, byte-identity and repair-convergence contracts per round.
/// Gated behind TORTURE=1 like the other chaos drills.
#[test]
fn torture_storm_round_trips() {
    if !torture_enabled() {
        eprintln!("skipping: set TORTURE=1 to run the torture storm");
        return;
    }
    let dir = tmp_dir("storm");
    let out = dse(&[
        "torture",
        "--seed",
        "7",
        "--rounds",
        "1",
        "--dir",
        dir.to_str().unwrap(),
    ]);
    assert_eq!(
        code(&out),
        0,
        "stdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let _ = std::fs::remove_dir_all(&dir);
}
