//! End-to-end drills for `dse search`, driving the real binary: CLI
//! strictness, journal + report determinism across runs and worker
//! counts, resume semantics (pure replay, flag-change refusal), and —
//! under `CHAOS=1` — surviving a SIGKILL mid-search.

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

const DSE: &str = env!("CARGO_BIN_EXE_dse");

fn tmp_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "musa-search-e2e-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn chaos_enabled() -> bool {
    std::env::var("CHAOS").as_deref() == Ok("1")
}

/// `dse search --store-dir <dir> <extra>` at tiny scale.
fn search_command(dir: &Path, extra: &[&str]) -> Command {
    let mut cmd = Command::new(DSE);
    cmd.arg("search")
        .arg("--store-dir")
        .arg(dir)
        .args(extra)
        .env("MUSA_TINY", "1")
        .env_remove("MUSA_FULL")
        .env_remove("MUSA_CONFIG_SLICE")
        .env_remove("MUSA_STORE_DIR")
        .env_remove("MUSA_FAULTS")
        .env_remove("MUSA_FAULT_SEED");
    cmd
}

fn search(dir: &Path, extra: &[&str]) -> Output {
    search_command(dir, extra)
        .output()
        .expect("spawn dse search")
}

fn journal_path(dir: &Path) -> PathBuf {
    dir.join("search").join("search.journal")
}

/// The six flags every determinism drill shares.
const BASE: &[&str] = &[
    "--strategy",
    "anneal",
    "--seed",
    "7",
    "--budget",
    "30",
    "--batch",
    "8",
    "--apps",
    "hydro",
];

#[test]
fn search_help_and_strategy_registry() {
    let out = Command::new(DSE)
        .args(["search", "--help"])
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for flag in [
        "--strategy",
        "--seed",
        "--budget",
        "--search-report",
        "--resume",
    ] {
        assert!(text.contains(flag), "search --help must document {flag}");
    }

    let out = Command::new(DSE)
        .args(["search", "--list-strategies"])
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for name in ["random", "stratified", "anneal"] {
        assert!(text.contains(name), "registry must list {name}");
    }
}

#[test]
fn search_unknown_flag_exits_2_with_usage() {
    for argv in [
        &["search", "--frobnicate"][..],
        &["search", "--strategy", "gradient"][..],
        &["search", "--budget", "0"][..],
        &["search", "--apps", "doom"][..],
        &["search", "stray"][..],
    ] {
        let out = Command::new(DSE).args(argv).output().expect("spawn");
        assert_eq!(out.status.code(), Some(2), "{argv:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("usage:"), "{argv:?} must print usage");
    }
}

#[test]
fn same_seed_byte_identical_journal_and_report_across_runs() {
    let (a, b) = (tmp_dir("det-a"), tmp_dir("det-b"));
    let (ra, rb) = (a.join("report.json"), b.join("report.json"));
    let out = search(
        &a,
        &[BASE, &["--search-report", ra.to_str().unwrap()]].concat(),
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = search(
        &b,
        &[BASE, &["--search-report", rb.to_str().unwrap()]].concat(),
    );
    assert!(out.status.success());

    let (ja, jb) = (
        std::fs::read(journal_path(&a)).unwrap(),
        std::fs::read(journal_path(&b)).unwrap(),
    );
    assert_eq!(ja, jb, "same seed, same journal bytes");
    assert_eq!(
        std::fs::read(&ra).unwrap(),
        std::fs::read(&rb).unwrap(),
        "same seed, same report bytes"
    );

    // A different seed must explore differently.
    let c = tmp_dir("det-c");
    let out = search(
        &c,
        &[
            "--strategy",
            "anneal",
            "--seed",
            "8",
            "--budget",
            "30",
            "--batch",
            "8",
            "--apps",
            "hydro",
        ],
    );
    assert!(out.status.success());
    assert_ne!(
        std::fs::read(journal_path(&c)).unwrap(),
        ja,
        "different seed, different journal"
    );
    for d in [a, b, c] {
        let _ = std::fs::remove_dir_all(d);
    }
}

#[test]
fn workers_match_sequential_byte_for_byte() {
    let (seq, pool) = (tmp_dir("w-seq"), tmp_dir("w-pool"));
    let (rs, rp) = (seq.join("report.json"), pool.join("report.json"));
    let out = search(
        &seq,
        &[BASE, &["--search-report", rs.to_str().unwrap()]].concat(),
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = search(
        &pool,
        &[
            BASE,
            &["--workers", "2", "--search-report", rp.to_str().unwrap()],
        ]
        .concat(),
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    assert_eq!(
        std::fs::read(journal_path(&seq)).unwrap(),
        std::fs::read(journal_path(&pool)).unwrap(),
        "--workers 2 must not change a single journal byte"
    );
    assert_eq!(
        std::fs::read(&rs).unwrap(),
        std::fs::read(&rp).unwrap(),
        "--workers 2 must not change a single report byte"
    );
    for d in [seq, pool] {
        let _ = std::fs::remove_dir_all(d);
    }
}

#[test]
fn resume_is_pure_replay_and_refuses_changed_flags() {
    let dir = tmp_dir("resume");
    let out = search(&dir, BASE);
    assert!(out.status.success());
    let journal = std::fs::read(journal_path(&dir)).unwrap();

    // Same flags + --resume: pure replay, nothing appended, exit 0.
    let out = search(&dir, &[BASE, &["--resume"]].concat());
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        std::fs::read(journal_path(&dir)).unwrap(),
        journal,
        "pure replay appends nothing"
    );

    // Changed seed + --resume: the journal header pins the flags, so
    // this must be refused (exit 2), not silently fork history.
    let out = search(
        &dir,
        &[
            "--strategy",
            "anneal",
            "--seed",
            "8",
            "--budget",
            "30",
            "--batch",
            "8",
            "--apps",
            "hydro",
            "--resume",
        ],
    );
    assert_eq!(out.status.code(), Some(2));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("--resume"),
        "refusal must tell the user how to proceed"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn kill9_mid_search_resumes_byte_identically() {
    if !chaos_enabled() {
        eprintln!("skipping: set CHAOS=1 to run the kill -9 drill");
        return;
    }
    // Clean reference run.
    let reference = tmp_dir("kill-ref");
    let long: &[&str] = &[
        "--strategy",
        "anneal",
        "--seed",
        "11",
        "--budget",
        "120",
        "--batch",
        "8",
        "--apps",
        "hydro",
    ];
    let out = search(&reference, long);
    assert!(out.status.success());
    let want = std::fs::read(journal_path(&reference)).unwrap();

    // Murdered run: SIGKILL mid-search, then --resume to completion.
    let victim_dir = tmp_dir("kill-victim");
    let mut victim = search_command(&victim_dir, long)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn victim");
    std::thread::sleep(Duration::from_millis(300));
    let _ = victim.kill();
    let _ = victim.wait();

    let out = search(&victim_dir, &[long, &["--resume"]].concat());
    assert!(
        out.status.success(),
        "resume after kill -9: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        std::fs::read(journal_path(&victim_dir)).unwrap(),
        want,
        "resumed journal byte-identical to the never-killed run"
    );
    for d in [reference, victim_dir] {
        let _ = std::fs::remove_dir_all(d);
    }
}
