//! End-to-end drills for the profiling flight recorder, driving the
//! real `dse` binary.
//!
//! Two contracts are under test. **Inertness**: a campaign's rows are
//! byte-identical whether profiling is on (the default), disabled with
//! `--no-prof` / `MUSA_PROF=0`, or compiled out entirely — the flight
//! recorder observes, it never participates. **Self-sufficiency**:
//! `dse profile` answers "where did the time go" from the store
//! directory alone — profiles.jsonl — with no campaign loaded and no
//! simulator run, including directories a kill -9 left with a torn
//! tail.
//!
//! The kill-9 drill is gated behind `CHAOS=1` like the store's:
//!
//! ```sh
//! CHAOS=1 cargo test -p musa-bench --test prof_e2e
//! ```

use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use musa_obs::json::JsonValue;
use musa_prof::{PointProfile, PROFILES_FILE, PROF_SCHEMA};
use musa_store::QUARANTINE_FILE;

const DSE: &str = env!("CARGO_BIN_EXE_dse");

/// Tiny-scale sweep shared by the sweep-running drills (see
/// `pool_e2e.rs`): 6 configs spread across the design space × all
/// apps.
const CONFIG_SLICE: usize = 6;

fn tmp_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "musa-prof-e2e-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn chaos_enabled() -> bool {
    std::env::var("CHAOS").as_deref() == Ok("1")
}

/// Run `dse --store-dir <dir> <extra>` at the drill scale and wait.
fn dse(dir: &Path, extra: &[&str]) -> Output {
    dse_command(dir, extra).output().expect("spawn dse")
}

fn dse_command(dir: &Path, extra: &[&str]) -> Command {
    let mut cmd = Command::new(DSE);
    cmd.arg("--store-dir")
        .arg(dir)
        .args(extra)
        .env("MUSA_TINY", "1")
        .env("MUSA_CONFIG_SLICE", CONFIG_SLICE.to_string())
        .env_remove("MUSA_FAULTS")
        .env_remove("MUSA_FAULT_SEED")
        .env_remove("MUSA_PROF");
    cmd
}

/// Run the `dse profile` subcommand against `dir`.
fn dse_profile(dir: &Path, extra: &[&str]) -> Output {
    let mut cmd = Command::new(DSE);
    cmd.args(["profile", "--store-dir"]).arg(dir).args(extra);
    cmd.output().expect("spawn dse profile")
}

fn stdout_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// All data lines of a store directory (quarantine and the profiling
/// flight record excluded — profiles carry wall-clock timings, never
/// row identity), sorted.
fn sorted_store_lines(dir: &Path) -> Vec<String> {
    let mut lines = Vec::new();
    for entry in std::fs::read_dir(dir).unwrap().filter_map(|e| e.ok()) {
        let path = entry.path();
        if path.extension().is_some_and(|x| x == "jsonl")
            && path
                .file_name()
                .is_none_or(|n| n != QUARANTINE_FILE && n != PROFILES_FILE)
        {
            lines.extend(
                std::fs::read_to_string(&path)
                    .unwrap()
                    .lines()
                    .map(str::to_string),
            );
        }
    }
    lines.sort();
    lines
}

/// A fully populated record for the report/export drills (no recorder
/// involved: the subcommand must work on records written elsewhere).
fn record(
    key: &str,
    app: &str,
    config: &str,
    worker: &str,
    pid: u32,
    wall_ns: u64,
) -> PointProfile {
    let mut phases = BTreeMap::new();
    phases.insert("trace-gen".to_string(), wall_ns / 10);
    phases.insert("detailed-sim".to_string(), wall_ns / 2);
    phases.insert("burst".to_string(), wall_ns / 8);
    phases.insert("dram".to_string(), wall_ns / 8);
    phases.insert("net-replay".to_string(), wall_ns / 5);
    phases.insert("store-flush".to_string(), wall_ns / 20);
    PointProfile {
        schema: PROF_SCHEMA,
        key: key.to_string(),
        app: app.to_string(),
        config: config.to_string(),
        worker: worker.to_string(),
        pid,
        tid: 1,
        start_us: 1_700_000_000_000_000 + u64::from(pid),
        wall_ns,
        poisoned: false,
        retries: 0,
        peak_rss_kb: 8_192,
        phases,
    }
}

fn write_profiles(dir: &Path, records: &[PointProfile]) {
    std::fs::create_dir_all(dir).unwrap();
    let mut text = String::new();
    for r in records {
        text.push_str(&r.to_line());
        text.push('\n');
    }
    std::fs::write(dir.join(PROFILES_FILE), text).unwrap();
}

/// `dse profile` aggregates a store directory's records alone: top-k,
/// per-phase and per-app p50/p95/max, peak RSS — no campaign
/// loaded, no simulator run.
#[test]
fn profile_subcommand_reports_top_k_and_phases_from_records_alone() {
    let dir = tmp_dir("report");
    let mut poisoned = record("cccc3333", "spmz", "mem-hi", "l0002-a1", 4301, 1_000_000);
    poisoned.poisoned = true;
    poisoned.retries = 1;
    write_profiles(
        &dir,
        &[
            record("aaaa1111", "hydro", "c64-base", "fill", 4200, 4_000_000),
            record("bbbb2222", "hydro", "c128-wide", "fill", 4200, 2_000_000),
            poisoned,
            record("dddd4444", "spmz", "c64-base", "l0001-a0", 4300, 3_000_000),
        ],
    );

    let out = dse_profile(&dir, &["--top", "2"]);
    assert!(out.status.success(), "{}", stderr_of(&out));
    let text = stdout_of(&out);
    assert!(text.contains("== profile: 4 points"), "was:\n{text}");
    assert!(text.contains("3 workers"), "was:\n{text}");
    assert!(text.contains("1 poisoned"), "was:\n{text}");
    assert!(text.contains("top 2 slowest"), "was:\n{text}");
    // p50/p95/max columns and the pipeline phases are all present.
    for needle in [
        "p50",
        "p95",
        "max",
        "trace-gen",
        "detailed-sim",
        "store-flush",
    ] {
        assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
    }
    // The slowest point leads the top-k table; the third-slowest is cut.
    assert!(text.contains("c64-base"), "was:\n{text}");
    assert!(text.contains("peak rss"), "was:\n{text}");
    assert!(!text.contains("hit rate"), "was:\n{text}");

    // An empty store directory is a clear error, not an empty report.
    let empty = tmp_dir("report-empty");
    std::fs::create_dir_all(&empty).unwrap();
    let out = dse_profile(&empty, &[]);
    assert_eq!(out.status.code(), Some(1));
    assert!(
        stderr_of(&out).contains("no profile records"),
        "was: {}",
        stderr_of(&out)
    );
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&empty);
}

/// `dse profile --trace-export` emits a strictly valid Chrome Trace
/// Event document: parseable JSON, per-track monotonic timestamps,
/// every `B` matched by an `E`, an instant for each poisoned point.
#[test]
fn trace_export_is_valid_chrome_trace() {
    let dir = tmp_dir("trace");
    let mut poisoned = record("cccc3333", "spmz", "mem-hi", "l0002-a1", 4301, 1_000_000);
    poisoned.poisoned = true;
    write_profiles(
        &dir,
        &[
            record("aaaa1111", "hydro", "c64-base", "l0001-a0", 4300, 4_000_000),
            record(
                "bbbb2222",
                "hydro",
                "c128-wide",
                "l0001-a0",
                4300,
                2_000_000,
            ),
            poisoned,
        ],
    );
    let trace_path = dir.join("trace.json");
    let out = dse_profile(&dir, &["--trace-export", trace_path.to_str().unwrap()]);
    assert!(out.status.success(), "{}", stderr_of(&out));
    assert!(
        stdout_of(&out).contains("wrote Chrome trace"),
        "was: {}",
        stdout_of(&out)
    );

    let text = std::fs::read_to_string(&trace_path).unwrap();
    let doc = JsonValue::parse(text.trim()).expect("trace must be strict JSON");
    let events = doc
        .get("traceEvents")
        .and_then(JsonValue::as_arr)
        .expect("traceEvents array");
    assert!(!events.is_empty());

    let mut last_ts: HashMap<(u64, u64), f64> = HashMap::new();
    let mut depth: HashMap<(u64, u64), i64> = HashMap::new();
    let mut instant_names = Vec::new();
    for e in events {
        let ph = e.get("ph").and_then(JsonValue::as_str).expect("ph");
        if ph == "M" {
            continue;
        }
        let track = (
            e.get("pid").and_then(JsonValue::as_u64).expect("pid"),
            e.get("tid").and_then(JsonValue::as_u64).expect("tid"),
        );
        let ts = e.get("ts").and_then(JsonValue::as_f64).expect("ts");
        if let Some(prev) = last_ts.get(&track) {
            assert!(ts >= *prev, "ts regressed on track {track:?}");
        }
        last_ts.insert(track, ts);
        match ph {
            "B" => *depth.entry(track).or_insert(0) += 1,
            "E" => {
                let d = depth.entry(track).or_insert(0);
                *d -= 1;
                assert!(*d >= 0, "E without matching B on {track:?}");
            }
            "i" => instant_names.push(
                e.get("name")
                    .and_then(JsonValue::as_str)
                    .unwrap()
                    .to_string(),
            ),
            other => panic!("unexpected ph {other:?}"),
        }
    }
    assert!(depth.values().all(|d| *d == 0), "unbalanced B/E: {depth:?}");
    assert_eq!(instant_names, ["poisoned"]);
    // One track per recording process.
    let pids: std::collections::HashSet<u64> = last_ts.keys().map(|(p, _)| *p).collect();
    assert_eq!(pids.len(), 2, "{pids:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Profiling must not perturb a single row byte: a default run
/// (recorder on) stores exactly what a `--no-prof` run and a
/// `MUSA_PROF=0` run store, while leaving one profile record per
/// simulated point behind. Each application's trace is generated once,
/// on the fill's calling thread, and exactly one of its points carries
/// the generation time.
#[test]
fn rows_identical_with_and_without_profiling() {
    let profiled = tmp_dir("seq-on");
    let out = dse(&profiled, &[]);
    assert!(out.status.success(), "{}", stderr_of(&out));
    let want = sorted_store_lines(&profiled);
    assert!(!want.is_empty());

    let quiet = tmp_dir("seq-off");
    let out = dse(&quiet, &["--no-prof"]);
    assert!(out.status.success(), "{}", stderr_of(&out));
    assert_eq!(sorted_store_lines(&quiet), want, "--no-prof changed rows");
    assert!(
        !quiet.join(PROFILES_FILE).exists(),
        "--no-prof must not record"
    );
    let env_off = tmp_dir("seq-env-off");
    let out = dse_command(&env_off, &[])
        .env("MUSA_PROF", "0")
        .output()
        .expect("spawn dse");
    assert!(out.status.success(), "{}", stderr_of(&out));
    assert_eq!(
        sorted_store_lines(&env_off),
        want,
        "MUSA_PROF=0 changed rows"
    );
    assert!(
        !env_off.join(PROFILES_FILE).exists(),
        "MUSA_PROF=0 must not record"
    );

    if musa_prof::COMPILED {
        let (records, rep) = musa_prof::load_profiles(&profiled).unwrap();
        assert_eq!((rep.torn_tails, rep.corrupt), (0, 0));
        assert_eq!(records.len(), want.len(), "one profile per stored row");
        assert!(records.iter().all(|r| r.worker == "fill"));
        for app in musa_apps::AppId::ALL {
            let carriers = records
                .iter()
                .filter(|r| r.app == app.label() && r.phase_ns("trace-gen") > 0)
                .count();
            assert_eq!(
                carriers,
                1,
                "{}: trace generation carried once",
                app.label()
            );
        }
        // And the subcommand reports them.
        let out = dse_profile(&profiled, &[]);
        assert!(out.status.success(), "{}", stderr_of(&out));
        assert!(
            stdout_of(&out).contains(&format!("== profile: {} points", want.len())),
            "was: {}",
            stdout_of(&out)
        );
    }
    let _ = std::fs::remove_dir_all(&profiled);
    let _ = std::fs::remove_dir_all(&quiet);
    let _ = std::fs::remove_dir_all(&env_off);
}

/// Crash residue in the flight record — a torn final line, as a
/// kill -9 mid-append leaves — is repaired by the next `--resume`:
/// dropped and counted, never fatal, and whole records before it
/// survive.
#[test]
fn torn_profile_tail_is_repaired_on_resume() {
    if !musa_prof::COMPILED {
        eprintln!("skipping: profiling compiled out");
        return;
    }
    let dir = tmp_dir("resume-harvest");
    let out = dse(&dir, &[]);
    assert!(out.status.success(), "{}", stderr_of(&out));
    let want = sorted_store_lines(&dir);

    let orphan = record(
        "feedbeef00000000",
        "hydro",
        "c64-base",
        "fill",
        9999,
        123_456,
    );
    let mut text = std::fs::read_to_string(dir.join(PROFILES_FILE)).unwrap();
    text.push_str(&orphan.to_line());
    text.push('\n');
    text.push_str("{\"schema\":1,\"key\":\"to"); // torn: no newline
    std::fs::write(dir.join(PROFILES_FILE), text).unwrap();

    let out = dse(&dir, &["--resume"]);
    assert!(out.status.success(), "{}", stderr_of(&out));
    assert_eq!(sorted_store_lines(&dir), want, "--resume changed rows");
    let (records, rep) = musa_prof::load_profiles(&dir).unwrap();
    assert_eq!((rep.torn_tails, rep.corrupt), (0, 0));
    assert!(
        records.iter().any(|r| r.key == orphan.key),
        "the whole record before the tear must survive the repair"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The full-disk drill: with every `prof.append` failing (injected
/// I/O errors at the recorder's write), profile records drop and are
/// counted — and absolutely nothing else changes. Rows land
/// byte-identically, the run exits 0, and the drops are visible in
/// the metrics dump as `prof.dropped`.
#[test]
fn full_disk_profile_appends_drop_but_rows_still_land() {
    if !musa_fault::COMPILED || !musa_prof::COMPILED {
        eprintln!("skipping: needs the fault and prof features");
        return;
    }
    let reference = tmp_dir("disk-ref");
    let out = dse(&reference, &[]);
    assert!(out.status.success(), "{}", stderr_of(&out));
    let want = sorted_store_lines(&reference);
    assert!(!want.is_empty());

    let dir = tmp_dir("disk-full");
    let metrics = dir.join("metrics.json");
    let out = dse(
        &dir,
        &[
            "--faults",
            "prof.append=io@1.0",
            "--metrics",
            metrics.to_str().unwrap(),
        ],
    );
    assert!(
        out.status.success(),
        "a full profile disk must never fail the campaign: {}",
        stderr_of(&out)
    );
    assert_eq!(
        sorted_store_lines(&dir),
        want,
        "dropped profiles must not perturb a single row byte"
    );
    let (records, _) = musa_prof::load_profiles(&dir).unwrap();
    assert!(
        records.is_empty(),
        "every append failed, so no record may survive: {} did",
        records.len()
    );
    let snap =
        musa_obs::MetricsSnapshot::from_json(std::fs::read_to_string(&metrics).unwrap().trim())
            .expect("metrics dump parses");
    assert_eq!(
        snap.counter("prof.dropped"),
        want.len() as u64,
        "every dropped record must be counted"
    );
    let _ = std::fs::remove_dir_all(&reference);
    let _ = std::fs::remove_dir_all(&dir);
}

/// CHAOS drill: SIGKILL the fill mid-run, then `--resume`. The
/// records of the batch the kill cut short and of its re-simulation
/// fold away on the next fill's harvest: exactly one record per row,
/// and `dse profile` happy.
#[test]
fn kill_nine_fill_then_resume_leaves_one_profile_per_row() {
    if !chaos_enabled() {
        eprintln!("skipping: set CHAOS=1 to run the kill-9 profiling drill");
        return;
    }
    if !musa_fault::COMPILED || !musa_prof::COMPILED {
        eprintln!("skipping: needs the fault and prof features");
        return;
    }
    let dir = tmp_dir("kill9-prof");
    // Slow points and small batches keep the fill alive long enough to
    // be killed between flushes.
    let mut child = dse_command(&dir, &["--faults", "sim.point=delay:30ms@1.0"])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn dse");
    let deadline = Instant::now() + Duration::from_secs(30);
    while !dir.join(PROFILES_FILE).exists() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    std::thread::sleep(Duration::from_millis(100));
    let _ = child.kill();
    let status = child.wait().expect("wait for dse");
    assert!(!status.success(), "the fill finished before the kill");

    let out = dse(&dir, &["--resume"]);
    assert!(out.status.success(), "{}", stderr_of(&out));
    let rows = sorted_store_lines(&dir);
    assert_eq!(rows.len(), 30, "the resumed campaign is whole");
    let (records, rep) = musa_prof::load_profiles(&dir).unwrap();
    assert_eq!((rep.torn_tails, rep.corrupt), (0, 0), "harvest left damage");
    assert_eq!(
        records.len(),
        rows.len(),
        "dedup must leave exactly one record per row"
    );
    let keys: std::collections::HashSet<&str> = records.iter().map(|r| r.key.as_str()).collect();
    assert_eq!(keys.len(), records.len(), "duplicate point fingerprints");

    let out = dse_profile(
        &dir,
        &["--trace-export", dir.join("t.json").to_str().unwrap()],
    );
    assert!(out.status.success(), "{}", stderr_of(&out));
    assert!(
        JsonValue::parse(std::fs::read_to_string(dir.join("t.json")).unwrap().trim()).is_ok(),
        "post-chaos trace must still be strict JSON"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
