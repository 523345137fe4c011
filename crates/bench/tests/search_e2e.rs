//! End-to-end drills for `dse search`, driving the real binary: CLI
//! strictness, journal + report determinism across runs and worker
//! counts, resume semantics (pure replay, flag-change refusal), and —
//! under `CHAOS=1` — surviving a SIGKILL mid-search.

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use musa_store::{journal, LeaseEvent};

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
        .env_remove("MUSA_CONFIG_SLICE")
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

/// All row lines of a store directory (quarantine evidence and the
/// flight record excluded), sorted.
fn sorted_store_lines(dir: &Path) -> Vec<String> {
    let mut lines = Vec::new();
    for entry in std::fs::read_dir(dir).unwrap().filter_map(|e| e.ok()) {
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.ends_with(".jsonl")
            && !musa_store::is_quarantine_file(&name)
            && name != musa_prof::PROFILES_FILE
        {
            let text = std::fs::read_to_string(entry.path()).unwrap();
            lines.extend(text.lines().map(str::to_string));
        }
    }
    lines.sort();
    lines
}

/// Distinct worker tags (`w<pid>`) the lease journal granted leases to.
fn worker_tags(dir: &Path) -> std::collections::BTreeSet<String> {
    journal::replay(dir)
        .events
        .iter()
        .filter_map(|e| match e {
            LeaseEvent::RemoteGrant { peer, .. } => peer.split('@').next().map(str::to_string),
            _ => None,
        })
        .collect()
}

/// The `[musa progress]` lines of a run's stderr.
fn progress_lines(out: &Output) -> Vec<String> {
    String::from_utf8_lossy(&out.stderr)
        .lines()
        .filter(|l| l.starts_with("[musa progress]"))
        .map(str::to_string)
        .collect()
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

/// `--workers 2`, and `--workers 2 --listen` shared with one external
/// `dist-worker`, must both leave the journal, the report and the
/// store rows of the sequential search, byte for byte — and the
/// workers must be the same processes for the whole search, not a
/// fresh set per generation.
#[test]
fn workers_match_sequential_byte_for_byte() {
    let seq = tmp_dir("w-seq");
    let rs = seq.join("report.json");
    let out = search(
        &seq,
        &[BASE, &["--search-report", rs.to_str().unwrap()]].concat(),
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let same_as_sequential = |dir: &Path, report: &Path, what: &str| {
        assert_eq!(
            std::fs::read(journal_path(&seq)).unwrap(),
            std::fs::read(journal_path(dir)).unwrap(),
            "{what} must not change a single journal byte"
        );
        assert_eq!(
            std::fs::read(&rs).unwrap(),
            std::fs::read(report).unwrap(),
            "{what} must not change a single report byte"
        );
        assert_eq!(
            sorted_store_lines(&seq),
            sorted_store_lines(dir),
            "{what} must not change a single row byte"
        );
    };

    let pool = tmp_dir("w-pool");
    let rp = pool.join("report.json");
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
    same_as_sequential(&pool, &rp, "--workers 2");
    let tags = worker_tags(&pool);
    assert!(
        (1..=2).contains(&tags.len()),
        "two workers serve the whole search, saw {tags:?}"
    );

    // The same search, its leases also on offer to whoever connects.
    let dist = tmp_dir("w-dist");
    let rd = dist.join("report.json");
    let mut sup = search_command(
        &dist,
        &[
            BASE,
            &[
                "--workers",
                "2",
                "--listen",
                "127.0.0.1:0",
                "--search-report",
                rd.to_str().unwrap(),
            ],
        ]
        .concat(),
    )
    .stdout(Stdio::null())
    .stderr(Stdio::null())
    .spawn()
    .expect("spawn listening search");
    let deadline = Instant::now() + Duration::from_secs(30);
    let addr = loop {
        let beacon = std::fs::read_to_string(dist.join("dist-status.json")).unwrap_or_default();
        let addr = musa_obs::json::JsonValue::parse(&beacon)
            .ok()
            .and_then(|v| v.get("addr").and_then(|a| a.as_str()).map(str::to_string));
        if let Some(addr) = addr {
            break addr;
        }
        assert!(Instant::now() < deadline, "no dist-status.json beacon");
        std::thread::sleep(Duration::from_millis(2));
    };
    // The external worker is told nothing but the address. The search
    // may be over before it connects; it must end on its own either way.
    let mut external = Command::new(DSE)
        .args(["dist-worker", "--connect", &addr, "--max-reconnects", "2"])
        .env_remove("MUSA_TINY")
        .env_remove("MUSA_FAULTS")
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn external dist-worker");
    assert!(sup.wait().expect("wait for search").success());
    let code = external.wait().expect("wait for dist-worker").code();
    assert!(matches!(code, Some(0) | Some(1)), "dist-worker: {code:?}");
    same_as_sequential(&dist, &rd, "--workers 2 --listen");
    let tags = worker_tags(&dist);
    assert!(
        (1..=3).contains(&tags.len()),
        "two children and one external worker at most, saw {tags:?}"
    );

    for d in [seq, pool, dist] {
        let _ = std::fs::remove_dir_all(d);
    }
}

/// The heartbeat is opt-in: a sequential search prints no
/// `[musa progress]` line unless `--progress` is given, and with it no
/// beat is printed twice: each generation here is one single-batch
/// fill, whose only beat is its final one.
#[test]
fn progress_is_opt_in_and_never_repeats_a_beat() {
    let dir = tmp_dir("progress");
    let out = search(&dir, BASE);
    assert!(out.status.success());
    assert_eq!(progress_lines(&out), Vec::<String>::new());

    let dir2 = tmp_dir("progress-on");
    let out = search(&dir2, &[BASE, &["--progress"]].concat());
    assert!(out.status.success());
    let beats = progress_lines(&out);
    let generations = std::fs::read_to_string(journal_path(&dir2))
        .unwrap()
        .matches("\"kind\":\"gen\"")
        .count();
    assert!(!beats.is_empty(), "--progress must print the heartbeat");
    assert!(
        beats.len() <= generations,
        "{generations} single-batch fills printed {} beats: {beats:#?}",
        beats.len()
    );
    for d in [dir, dir2] {
        let _ = std::fs::remove_dir_all(d);
    }
}

/// SIGINT drains a sequential search exactly like a `--workers` one:
/// the batch in flight is flushed and the exit code is 130.
#[test]
fn sigint_drains_a_sequential_search() {
    let dir = tmp_dir("sigint");
    let child = search_command(
        &dir,
        &["--strategy", "random", "--budget", "4000", "--batch", "64"],
    )
    .stdout(Stdio::null())
    .stderr(Stdio::piped())
    .spawn()
    .expect("spawn search");
    // Let it get into its generations (the search journal appears with
    // the first one), then interrupt.
    let deadline = Instant::now() + Duration::from_secs(60);
    while !journal_path(&dir).exists() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    std::thread::sleep(Duration::from_millis(100));
    let _ = Command::new("kill")
        .args(["-INT", &child.id().to_string()])
        .status();
    let out = child.wait_with_output().expect("wait for search");
    assert_eq!(
        out.status.code(),
        Some(130),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("interrupted"));
    let _ = std::fs::remove_dir_all(&dir);
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
