//! End-to-end drills for the content-addressed artifact cache, driving
//! the real `dse` binary.
//!
//! The contract under test is twofold. **Identity**: rows computed
//! through the cache — cold (filling it), warm (served from it), via
//! pool workers sharing it — are byte-for-byte the rows an uncached
//! run produces. **Resilience**: corruption is quarantined and
//! recomputed, never served; a crash mid-artifact-write strands at
//! worst temp litter that the next run ignores and `gc` reclaims.
//!
//! The kill-9 drill spawns and murders a real process and is gated
//! behind `CHAOS=1`, like the store's and pool's crash drills:
//!
//! ```sh
//! CHAOS=1 cargo test -p musa-bench --test cache_e2e
//! ```

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use musa_apps::AppId;
use musa_cache::{load_sessions, SessionStats, ARTIFACT_DIR};
use musa_store::QUARANTINE_FILE;

const DSE: &str = env!("CARGO_BIN_EXE_dse");

/// Tiny-scale sweep shared by most drills: 6 configs spread across the
/// design space × all apps.
const CONFIG_SLICE: usize = 6;

fn tmp_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "musa-cache-e2e-{tag}-{}-{}",
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
    dse_command(dir, extra, CONFIG_SLICE, true)
        .output()
        .expect("spawn dse")
}

fn dse_command(dir: &Path, extra: &[&str], slice: usize, tiny: bool) -> Command {
    let mut cmd = Command::new(DSE);
    cmd.arg("--store-dir")
        .arg(dir)
        .args(extra)
        .env("MUSA_CONFIG_SLICE", slice.to_string())
        .env_remove("MUSA_FAULTS")
        .env_remove("MUSA_FAULT_SEED")
        .env_remove("MUSA_CACHE");
    if tiny {
        cmd.env("MUSA_TINY", "1");
    } else {
        cmd.env_remove("MUSA_TINY");
    }
    cmd
}

/// Run `dse cache <cmd> --store-dir <dir> [extra]`.
fn dse_cache(dir: &Path, cmd: &str, extra: &[&str]) -> Output {
    let mut c = Command::new(DSE);
    c.args(["cache", cmd, "--store-dir"])
        .arg(dir)
        .args(extra)
        .env_remove("MUSA_CACHE");
    c.output().expect("spawn dse cache")
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn stdout_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// All data lines of a store directory (quarantine and the profiling
/// flight record excluded — profiles carry wall-clock timings, never
/// row identity), sorted — the byte-level identity cached and uncached
/// campaigns must share.
fn sorted_store_lines(dir: &Path) -> Vec<String> {
    let mut lines = Vec::new();
    for entry in std::fs::read_dir(dir).unwrap().filter_map(|e| e.ok()) {
        let path = entry.path();
        if path.extension().is_some_and(|x| x == "jsonl")
            && path
                .file_name()
                .is_none_or(|n| n != QUARANTINE_FILE && n != musa_prof::PROFILES_FILE)
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

fn artifact_dir(dir: &Path) -> PathBuf {
    dir.join(ARTIFACT_DIR)
}

/// Artifact files (`*.art`) currently in the cache directory.
fn artifact_files(dir: &Path) -> Vec<PathBuf> {
    let Ok(entries) = std::fs::read_dir(artifact_dir(dir)) else {
        return Vec::new();
    };
    let mut files: Vec<_> = entries
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "art"))
        .collect();
    files.sort();
    files
}

/// Aggregate the sessions ledger by label.
fn sessions_with_label(dir: &Path, label: &str) -> SessionStats {
    let mut total = SessionStats::default();
    for s in load_sessions(&artifact_dir(dir)) {
        if s.label == label {
            total.absorb(&s);
        }
    }
    total
}

/// An uncached sequential reference run; the byte-identity oracle.
fn reference_lines(tag: &str) -> (PathBuf, Vec<String>) {
    let dir = tmp_dir(tag);
    let out = dse(&dir, &["--no-cache"]);
    assert!(
        out.status.success(),
        "uncached reference run failed: {}",
        stderr_of(&out)
    );
    let lines = sorted_store_lines(&dir);
    assert!(!lines.is_empty(), "reference run persisted nothing");
    (dir, lines)
}

/// Cold fill, then a warm re-run (a fresh campaign over the same store
/// directory: rows are cleared, artifacts survive): both must match the
/// uncached rows byte for byte, and the warm run must report actual
/// reuse from the sequential pipeline.
#[test]
fn sequential_cold_then_warm_is_byte_identical() {
    let (ref_dir, want) = reference_lines("seq-ref");

    let dir = tmp_dir("seq-cache");
    let cold = dse(&dir, &[]);
    assert!(
        cold.status.success(),
        "cold run failed: {}",
        stderr_of(&cold)
    );
    assert_eq!(
        sorted_store_lines(&dir),
        want,
        "cold rows differ from uncached"
    );
    assert!(
        !artifact_files(&dir).is_empty(),
        "cold run must populate the artifact directory"
    );
    let cold_stats = sessions_with_label(&dir, "sequential");
    assert!(cold_stats.misses() > 0, "cold run must record misses");

    let warm = dse(&dir, &[]);
    assert!(
        warm.status.success(),
        "warm run failed: {}",
        stderr_of(&warm)
    );
    assert_eq!(
        sorted_store_lines(&dir),
        want,
        "warm rows differ from uncached"
    );
    assert!(
        stderr_of(&warm).contains("[dse] cache:"),
        "warm run must print the reuse report: {}",
        stderr_of(&warm)
    );
    let total = sessions_with_label(&dir, "sequential");
    assert!(
        total.hits() > cold_stats.hits(),
        "warm run must add sequential-path hits: cold {cold_stats:?}, total {total:?}"
    );
    // Traces live in the per-process memo only, so each run generates
    // one per app; what the warm run must not redo is simulation.
    assert_eq!(total.trace_misses, 2 * cold_stats.trace_misses);
    assert_eq!(
        (total.detail_misses, total.burst_misses),
        (cold_stats.detail_misses, cold_stats.burst_misses),
        "warm run must not re-simulate a detailed window or a burst baseline"
    );

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&ref_dir);
}

/// Pool workers share the artifact directory: a warm `--workers 4` run
/// is served from artifacts a previous run persisted, reports hits
/// attributed to the `dist-worker` label, and still lands the exact
/// uncached bytes.
#[test]
fn pool_workers_share_the_cache_byte_identically() {
    let (ref_dir, want) = reference_lines("pool-ref");

    let dir = tmp_dir("pool-cache");
    let cold = dse(&dir, &["--workers", "2", "--lease-batch", "4"]);
    assert!(
        cold.status.success(),
        "cold pool run failed: {}",
        stderr_of(&cold)
    );
    assert_eq!(sorted_store_lines(&dir), want, "cold pool rows differ");
    let cold_stats = sessions_with_label(&dir, "dist-worker");
    assert!(cold_stats.misses() > 0, "cold pool run must record misses");

    let warm = dse(&dir, &["--workers", "4", "--lease-batch", "4"]);
    assert!(
        warm.status.success(),
        "warm pool run failed: {}",
        stderr_of(&warm)
    );
    assert_eq!(sorted_store_lines(&dir), want, "warm pool rows differ");
    let total = sessions_with_label(&dir, "dist-worker");
    assert!(
        total.hits() > cold_stats.hits(),
        "warm pool run must add worker hits: cold {cold_stats:?}, total {total:?}"
    );
    assert_eq!(
        (total.detail_misses, total.burst_misses),
        (cold_stats.detail_misses, cold_stats.burst_misses),
        "warm pool workers must not re-simulate a detailed window or a burst baseline"
    );
    assert!(
        stderr_of(&warm).contains("[dse] cache ("),
        "supervisor must aggregate its workers' reuse report: {}",
        stderr_of(&warm)
    );

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&ref_dir);
}

/// `--no-cache` (and its `MUSA_CACHE=0` form for workers) must keep the
/// artifact directory untouched on both pipelines.
#[test]
fn no_cache_flag_leaves_no_artifacts() {
    let dir = tmp_dir("nocache-seq");
    let out = dse(&dir, &["--no-cache"]);
    assert!(out.status.success(), "{}", stderr_of(&out));
    assert!(
        artifact_files(&dir).is_empty(),
        "sequential --no-cache wrote artifacts"
    );
    assert!(
        load_sessions(&artifact_dir(&dir)).is_empty(),
        "sequential --no-cache recorded a session"
    );
    let _ = std::fs::remove_dir_all(&dir);

    let dir = tmp_dir("nocache-pool");
    let out = dse(
        &dir,
        &["--no-cache", "--workers", "2", "--lease-batch", "4"],
    );
    assert!(out.status.success(), "{}", stderr_of(&out));
    assert!(
        artifact_files(&dir).is_empty(),
        "pool --no-cache wrote artifacts"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A corrupted artifact must be quarantined (evidence kept) and its
/// value recomputed — the final rows cannot tell the difference.
#[test]
fn corrupt_artifact_is_quarantined_and_rows_stay_identical() {
    let (ref_dir, want) = reference_lines("corrupt-ref");

    let dir = tmp_dir("corrupt");
    let cold = dse(&dir, &[]);
    assert!(cold.status.success(), "{}", stderr_of(&cold));
    let files = artifact_files(&dir);
    assert!(!files.is_empty());
    // Flip a payload byte in every artifact: nothing survives
    // verification, everything is recomputed.
    for path in &files {
        let mut bytes = std::fs::read(path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(path, &bytes).unwrap();
    }

    let warm = dse(&dir, &[]);
    assert!(warm.status.success(), "{}", stderr_of(&warm));
    assert_eq!(
        sorted_store_lines(&dir),
        want,
        "rows after corruption differ from uncached"
    );
    let qdir = artifact_dir(&dir).join("quarantine");
    assert!(
        qdir.read_dir().is_ok_and(|mut d| d.next().is_some()),
        "corrupt artifacts must be quarantined with evidence"
    );
    let total = sessions_with_label(&dir, "sequential");
    assert!(
        total.quarantined > 0,
        "quarantines must be tallied: {total:?}"
    );
    // The recomputed artifacts are healthy again.
    let verify = dse_cache(&dir, "verify", &[]);
    assert!(
        verify.status.success(),
        "verify after recompute must be clean: {}",
        stdout_of(&verify)
    );

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&ref_dir);
}

/// The `dse cache` admin lifecycle: stats sees the artifacts and the
/// session ledger, verify flags exactly the file we break (exit 1),
/// default gc reclaims it (with the quarantine evidence), `gc --all`
/// resets the directory.
#[test]
fn cache_cli_stats_verify_gc_lifecycle() {
    let dir = tmp_dir("cli");
    let out = dse(&dir, &[]);
    assert!(out.status.success(), "{}", stderr_of(&out));

    let stats = dse_cache(&dir, "stats", &[]);
    assert!(stats.status.success());
    let text = stdout_of(&stats);
    assert!(
        text.contains("detail") && text.contains("burst"),
        "stats lists both artifact kinds: {text}"
    );
    assert!(
        !text.contains("\n  trace "),
        "traces are never on disk, so there is no trace tally: {text}"
    );
    assert!(
        text.contains("sequential"),
        "stats lists the session: {text}"
    );

    let verify = dse_cache(&dir, "verify", &[]);
    assert!(verify.status.success(), "pristine cache must verify clean");
    assert!(stdout_of(&verify).contains("0 corrupt"));

    // Truncate one artifact: verify must name it and exit 1.
    let victim = artifact_files(&dir).pop().unwrap();
    let bytes = std::fs::read(&victim).unwrap();
    std::fs::write(&victim, &bytes[..bytes.len() - 3]).unwrap();
    let verify = dse_cache(&dir, "verify", &[]);
    assert_eq!(verify.status.code(), Some(1), "corruption must exit 1");
    let text = stdout_of(&verify);
    assert!(
        text.contains("1 corrupt"),
        "exactly one corrupt file: {text}"
    );
    assert!(
        text.contains(victim.file_name().unwrap().to_str().unwrap()),
        "the corrupt file is named: {text}"
    );

    // Default gc takes the corrupt file, leaves the healthy ones.
    let before = artifact_files(&dir).len();
    let gc = dse_cache(&dir, "gc", &[]);
    assert!(gc.status.success(), "{}", stdout_of(&gc));
    assert_eq!(artifact_files(&dir).len(), before - 1);
    assert!(!victim.exists());
    let verify = dse_cache(&dir, "verify", &[]);
    assert!(verify.status.success(), "post-gc cache must verify clean");

    // gc --all resets the directory, sessions ledger included.
    let gc = dse_cache(&dir, "gc", &["--all"]);
    assert!(gc.status.success(), "{}", stdout_of(&gc));
    assert!(artifact_files(&dir).is_empty());
    assert!(load_sessions(&artifact_dir(&dir)).is_empty());

    let _ = std::fs::remove_dir_all(&dir);
}

/// Paper-scale identity and reuse: one config across all five apps at
/// 256 ranks (the scale where trace generation and the detailed window
/// dominate). The warm run must land the identical bytes and simulate
/// nothing: its detailed-window and burst-baseline misses stay those of
/// the cold fill (a count, not a race between two clocks).
#[test]
fn full_scale_warm_run_is_byte_identical_and_simulates_nothing() {
    let seq = tmp_dir("full-ref");
    let out = dse_command(&seq, &["--full", "--no-cache"], 1, false)
        .output()
        .expect("spawn dse");
    assert!(
        out.status.success(),
        "uncached --full failed: {}",
        stderr_of(&out)
    );
    let want = sorted_store_lines(&seq);
    assert_eq!(want.len(), AppId::ALL.len(), "one paper-scale row per app");

    let dir = tmp_dir("full-cache");
    let out = dse_command(&dir, &["--full"], 1, false)
        .output()
        .expect("spawn dse");
    assert!(
        out.status.success(),
        "cold --full failed: {}",
        stderr_of(&out)
    );
    assert_eq!(sorted_store_lines(&dir), want, "cold --full rows differ");
    let cold = sessions_with_label(&dir, "sequential");
    assert!(cold.misses() > 0, "cold --full run must record misses");

    let out = dse_command(&dir, &["--full"], 1, false)
        .output()
        .expect("spawn dse");
    assert!(
        out.status.success(),
        "warm --full failed: {}",
        stderr_of(&out)
    );
    assert_eq!(sorted_store_lines(&dir), want, "warm --full rows differ");
    let total = sessions_with_label(&dir, "sequential");
    assert!(total.hits() > 0, "warm --full run must hit: {total:?}");
    assert_eq!(
        (total.detail_misses, total.burst_misses),
        (cold.detail_misses, cold.burst_misses),
        "warm --full run must not re-simulate a detailed window or a burst baseline"
    );

    let _ = std::fs::remove_dir_all(&seq);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Kill-9 drill (CHAOS=1): a real SIGKILL against a real process.
// ---------------------------------------------------------------------

/// SIGKILL the campaign mid-artifact-write (a delay fault on the
/// `cache.write` failpoint holds every artifact in its temp-file window
/// long enough to land the kill there). The next run must ignore the
/// stranded temp litter, `--resume` must converge on the uncached
/// bytes, and `gc` must reclaim the litter.
#[test]
fn kill_nine_mid_artifact_write_then_resume_converges() {
    if !chaos_enabled() {
        eprintln!("skipping: set CHAOS=1 to run the kill-9 artifact drill");
        return;
    }
    if !musa_fault::COMPILED {
        eprintln!("skipping: needs the fault feature");
        return;
    }
    let (ref_dir, want) = reference_lines("kill9-ref");

    let dir = tmp_dir("kill9");
    let mut child = dse_command(
        &dir,
        &["--faults", "cache.write=delay:200ms@1.0"],
        CONFIG_SLICE,
        true,
    )
    .stdout(Stdio::null())
    .stderr(Stdio::null())
    .spawn()
    .expect("spawn dse");

    // Wait for a temp file — the mid-write window — then murder it.
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut killed = false;
    while Instant::now() < deadline {
        let adir = artifact_dir(&dir);
        let tmp_seen = std::fs::read_dir(&adir).is_ok_and(|entries| {
            entries
                .filter_map(|e| e.ok())
                .any(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
        });
        if tmp_seen {
            child.kill().expect("SIGKILL dse");
            killed = true;
            break;
        }
        if child.try_wait().expect("try_wait").is_some() {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let _ = child.wait();
    assert!(killed, "never caught an artifact write in flight");

    // The artifact directory survives a fresh (non-resume) clear, so a
    // resume run both reuses whatever artifacts landed completely and
    // recomputes the rest; the rows must converge on the uncached ones.
    let out = dse(&dir, &["--resume"]);
    assert!(out.status.success(), "resume failed: {}", stderr_of(&out));
    assert_eq!(
        sorted_store_lines(&dir),
        want,
        "post-kill rows differ from uncached"
    );
    // Nothing torn was served: every artifact on disk verifies.
    let verify = dse_cache(&dir, "verify", &[]);
    assert!(
        verify.status.success(),
        "artifacts after the kill must verify clean: {}",
        stdout_of(&verify)
    );
    // The stranded temp file (if the kill landed before the rename) is
    // litter, and gc owns litter.
    let gc = dse_cache(&dir, "gc", &[]);
    assert!(gc.status.success());
    let stray: Vec<_> = std::fs::read_dir(artifact_dir(&dir))
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
        .collect();
    assert!(stray.is_empty(), "gc must reclaim temp litter: {stray:?}");

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&ref_dir);
}
