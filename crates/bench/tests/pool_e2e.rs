//! End-to-end drills for the supervised multi-process fill
//! (`dse --workers N`), driving the real `dse` binary.
//!
//! The contract under test is byte-identity: whatever the pool is put
//! through — plain runs at several worker counts, a point that hangs
//! until the deadline watchdog kills its worker, a worker SIGKILLed
//! mid-batch, the supervisor itself SIGKILLed and resumed — the final
//! store must hold exactly the rows a sequential run produces (minus
//! any quarantined points, which must be accounted for in the lease
//! journal).
//!
//! The kill-9 drills spawn and murder real processes and are gated
//! behind `CHAOS=1`, like the store's crash test:
//!
//! ```sh
//! CHAOS=1 cargo test -p musa-bench --test pool_e2e
//! ```

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use musa_apps::AppId;
use musa_arch::{DesignSpace, NodeConfig};
use musa_fault::{FaultAction, FaultPlan, FaultPoint};
use musa_store::{journal, LeaseEvent};

const DSE: &str = env!("CARGO_BIN_EXE_dse");

/// Tiny-scale sweep shared by every drill: 6 configs spread across the
/// design space × all apps (`MUSA_TINY` / `MUSA_CONFIG_SLICE`, read by
/// the supervisor; its workers are told in every lease).
const CONFIG_SLICE: usize = 6;

fn tmp_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "musa-pool-e2e-{tag}-{}-{}",
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
    dse_command_at(dir, extra, CONFIG_SLICE, true)
}

/// Like [`dse_command`] but with an explicit config-slice size and
/// scale selection (`tiny: false` leaves the scale to the argv, e.g.
/// for `--full` drills).
fn dse_command_at(dir: &Path, extra: &[&str], slice: usize, tiny: bool) -> Command {
    let mut cmd = Command::new(DSE);
    cmd.arg("--store-dir")
        .arg(dir)
        .args(extra)
        .env("MUSA_CONFIG_SLICE", slice.to_string())
        .env_remove("MUSA_FAULTS")
        .env_remove("MUSA_FAULT_SEED");
    if tiny {
        cmd.env("MUSA_TINY", "1");
    } else {
        cmd.env_remove("MUSA_TINY");
    }
    cmd
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// All data lines of a store directory (quarantine and the profiling
/// flight record excluded — profiles carry wall-clock timings, so they
/// are never part of row identity), sorted — the byte-level identity
/// two equivalent campaigns must share. Lease row shards
/// (`dist-l*.jsonl`) are plain store files, so the comparison is
/// layout-independent by construction.
fn sorted_store_lines(dir: &Path) -> Vec<String> {
    let mut lines = Vec::new();
    for path in musa_store::row_files(dir).unwrap() {
        lines.extend(
            std::fs::read_to_string(&path)
                .unwrap()
                .lines()
                .map(str::to_string),
        );
    }
    lines.sort();
    lines
}

/// The deterministic `MUSA_CONFIG_SLICE=n` configuration subset, as
/// the supervisor derives it.
fn slice_configs(n: usize) -> Vec<NodeConfig> {
    let all = DesignSpace::all();
    all.iter().copied().step_by(all.len() / n).take(n).collect()
}

/// The `sim.point` failpoint key of every sweep point under
/// `MUSA_CONFIG_SLICE=n`, in the supervisor's app-major enumeration.
fn point_keys_at(n: usize) -> Vec<u64> {
    let configs = slice_configs(n);
    let mut keys = Vec::new();
    for app in AppId::ALL {
        for cfg in &configs {
            keys.push(musa_fault::key_of(&[
                app.label().as_bytes(),
                cfg.label().as_bytes(),
            ]));
        }
    }
    keys
}

fn point_keys() -> Vec<u64> {
    point_keys_at(CONFIG_SLICE)
}

/// `fnv1a_64` over [`sorted_store_lines`] (joined by newlines) of the
/// fault-free `MUSA_TINY=1 MUSA_CONFIG_SLICE=6` sweep: "rows unchanged"
/// as a constant every simplification is checked against. It moves only
/// with the simulator, the row schema or the JSON codec; it last moved
/// with the OoO window's stop rule (each lane stops when its cycles per
/// iteration settles), a declared model change.
const GOLDEN_ROWS_DIGEST: u64 = 0xac6b_2b88_8ab3_4308;

/// The same digest over the full 864 × 5 `MUSA_TINY=1` campaign: every
/// point of the design space, not a slice, pins any rewrite of the
/// replay, scheduler and window loops. Last moved with the window's stop
/// rule.
const GOLDEN_FULL_GRID_DIGEST: u64 = 0xa76e_b608_131a_4537;

/// Configurations of the paper-scale slice: every tenth of the 864, about
/// the benchmark's 1-in-11 slice.
const PAPER_SLICE: usize = 79;

/// The same digest over `dse --full` with `MUSA_CONFIG_SLICE=79` (paper
/// scale, 256 ranks, full replay): the 256-rank burst tables and the
/// 64-core paths, which no tiny sweep reaches. Last moved with the
/// window's stop rule.
const GOLDEN_PAPER_SLICE_DIGEST: u64 = 0x1a95_95d8_2860_10d7;

fn rows_digest(lines: &[String]) -> u64 {
    musa_store::fnv1a_64(lines.join("\n").as_bytes())
}

/// A fault-free sequential reference run; the byte-identity oracle.
fn reference_lines(tag: &str) -> (PathBuf, Vec<String>) {
    let dir = tmp_dir(tag);
    let out = dse(&dir, &[]);
    assert!(
        out.status.success(),
        "sequential reference run failed: {}",
        stderr_of(&out)
    );
    let lines = sorted_store_lines(&dir);
    assert!(!lines.is_empty(), "reference run persisted nothing");
    (dir, lines)
}

#[test]
fn pool_fill_matches_sequential_byte_for_byte() {
    let (ref_dir, want) = reference_lines("seq-ref");
    assert_eq!(
        rows_digest(&want),
        GOLDEN_ROWS_DIGEST,
        "sequential rows moved off the golden digest"
    );

    for n in ["1", "2", "4"] {
        let dir = tmp_dir(&format!("workers-{n}"));
        let out = dse(&dir, &["--workers", n, "--lease-batch", "4"]);
        assert!(
            out.status.success(),
            "--workers {n} failed: {}",
            stderr_of(&out)
        );
        assert_eq!(
            sorted_store_lines(&dir),
            want,
            "--workers {n} store differs from sequential"
        );
        assert_eq!(
            rows_digest(&sorted_store_lines(&dir)),
            GOLDEN_ROWS_DIGEST,
            "--workers {n} rows moved off the golden digest"
        );
        let rep = journal::replay(&dir);
        assert!(rep.clean_terminated, "--workers {n}: torn journal");
        assert!(
            matches!(rep.events.last(), Some(LeaseEvent::Complete { .. })),
            "--workers {n}: journal does not end in Complete"
        );
        assert!(rep.poisoned().is_empty(), "--workers {n}: spurious poison");
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&ref_dir);
}

/// 4,320 points twice take minutes in a debug build, so this runs where
/// `scripts/check.sh` asks for it, against the release binary:
/// `cargo test --release -p musa-bench --test pool_e2e -- --ignored full_grid`.
#[test]
#[ignore = "the full 864 x 5 grid twice: scripts/check.sh runs it in release"]
fn full_grid_rows_match_the_golden_digest() {
    let full_grid = DesignSpace::all().len();
    for extra in [&[][..], &["--workers", "2"]] {
        let dir = tmp_dir("full-grid");
        // A slice as large as the space is no slice.
        let out = dse_command_at(&dir, extra, full_grid, true)
            .output()
            .expect("spawn dse");
        assert!(out.status.success(), "{extra:?}: {}", stderr_of(&out));
        let lines = sorted_store_lines(&dir);
        assert_eq!(lines.len(), full_grid * AppId::ALL.len(), "{extra:?}");
        assert_eq!(
            rows_digest(&lines),
            GOLDEN_FULL_GRID_DIGEST,
            "{extra:?}: full-grid rows moved off the golden digest"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// 395 paper-scale points twice, against the release binary:
/// `cargo test --release -p musa-bench --test pool_e2e -- --ignored paper_slice`.
#[test]
#[ignore = "395 paper-scale points twice: scripts/check.sh runs it in release"]
fn paper_slice_rows_match_the_golden_digest() {
    for extra in [&["--full"][..], &["--full", "--workers", "2"]] {
        let dir = tmp_dir("paper-slice");
        let out = dse_command_at(&dir, extra, PAPER_SLICE, false)
            .output()
            .expect("spawn dse");
        assert!(out.status.success(), "{extra:?}: {}", stderr_of(&out));
        let lines = sorted_store_lines(&dir);
        assert_eq!(lines.len(), PAPER_SLICE * AppId::ALL.len(), "{extra:?}");
        assert_eq!(
            rows_digest(&lines),
            GOLDEN_PAPER_SLICE_DIGEST,
            "{extra:?}: paper-slice rows moved off the golden digest"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A worker crash mid-sweep (injected `sim.point` panics on ~half the
/// points, which under the pool kill no one — they are caught in the
/// worker exactly as in a sequential fill) must leave the same
/// poisoned-point accounting as the sequential run, and a clean
/// `--resume` without faults must then heal to byte-identity.
#[test]
fn injected_sim_panics_poison_identically_then_resume_heals() {
    if !musa_fault::COMPILED {
        eprintln!("skipping: needs the fault feature");
        return;
    }
    let spec = "seed=11,sim.point=panic@0.5";
    let seq = tmp_dir("panic-seq");
    let out = dse(&seq, &["--faults", spec]);
    assert_eq!(
        out.status.code(),
        Some(3),
        "sequential faulted run should be partial: {}",
        stderr_of(&out)
    );

    let pool = tmp_dir("panic-pool");
    let out = dse(
        &pool,
        &["--workers", "2", "--lease-batch", "4", "--faults", spec],
    );
    assert_eq!(
        out.status.code(),
        Some(3),
        "pool faulted run should be partial: {}",
        stderr_of(&out)
    );
    assert_eq!(
        sorted_store_lines(&pool),
        sorted_store_lines(&seq),
        "surviving rows must match sequential under identical faults"
    );

    // Heal both, fault-free; they must converge on the same bytes.
    for dir in [&seq, &pool] {
        let out = dse(dir, &["--resume"]);
        assert!(out.status.success(), "resume failed: {}", stderr_of(&out));
    }
    assert_eq!(sorted_store_lines(&pool), sorted_store_lines(&seq));
    let _ = std::fs::remove_dir_all(&seq);
    let _ = std::fs::remove_dir_all(&pool);
}

#[test]
fn hung_point_is_deadline_killed_then_poisoned() {
    if !musa_fault::COMPILED {
        eprintln!("skipping: needs the fault feature");
        return;
    }
    // Search for a seed under which exactly ONE point of the sweep
    // draws the delay fault — the drill needs a single hung point and
    // a completing remainder. The test replicates the simulator's
    // failpoint key, so the search is exact, not probabilistic.
    let keys = point_keys();
    let p = 0.04;
    let hangs = |seed: u64| {
        let plan = FaultPlan {
            seed,
            points: vec![FaultPoint {
                point: "sim.point".into(),
                action: FaultAction::Delay(Duration::from_secs(120)),
                probability: p,
            }],
        };
        keys.iter()
            .filter(|&&k| plan.decide("sim.point", k).is_some())
            .count()
    };
    let seed = (0..10_000u64)
        .find(|&s| hangs(s) == 1)
        .expect("some seed hangs exactly one point");
    let spec = format!("seed={seed},sim.point=delay:120s@{p}");

    let dir = tmp_dir("hang");
    let out = dse(
        &dir,
        &[
            "--workers",
            "2",
            "--lease-batch",
            "4",
            "--point-timeout",
            "3s",
            "--poison-cap",
            "2",
            "--faults",
            &spec,
        ],
    );
    // The hung point is killed by the watchdog, re-queued, hangs
    // again (same plan, same key), and is quarantined at the cap; the
    // rest of the sweep completes and the exit code says "partial".
    assert_eq!(
        out.status.code(),
        Some(3),
        "expected partial-success exit: {}",
        stderr_of(&out)
    );
    let rep = journal::replay(&dir);
    assert!(rep.clean_terminated);
    let poisoned = rep.poisoned();
    assert_eq!(
        poisoned.len(),
        1,
        "exactly the hung point is quarantined: {poisoned:?}"
    );
    assert_eq!(poisoned[0].strikes, 2);
    assert!(
        poisoned[0].reason.contains("deadline"),
        "poison blames the deadline: {}",
        poisoned[0].reason
    );
    let deaths = rep
        .events
        .iter()
        .filter(|e| matches!(e, LeaseEvent::Dead { .. }))
        .count();
    assert!(deaths >= 2, "two watchdog kills recorded, saw {deaths}");
    assert!(
        matches!(rep.events.last(), Some(LeaseEvent::Complete { .. })),
        "sweep completes around the quarantined point"
    );
    assert_eq!(
        sorted_store_lines(&dir).len(),
        keys.len() - 1,
        "every point but the hung one is persisted"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// There is one worker program, `dse dist-worker`; the hidden second
/// one is an unknown argument like any other. (Its name is spelled in
/// two halves so the check.sh gate on deleted names stays at zero.)
#[test]
fn the_hidden_second_worker_program_is_gone() {
    let out = Command::new(DSE)
        .args([concat!("pool-", "worker"), "--store-dir", "/nonexistent"])
        .output()
        .expect("spawn dse");
    assert_eq!(out.status.code(), Some(2), "{}", stderr_of(&out));
    assert!(stderr_of(&out).contains("usage:"), "{}", stderr_of(&out));
}

/// The regression drill for scale propagation: `--full --workers N`
/// must fill the store with the same bytes as a sequential `--full`
/// run: every lease carries the scale its points run at, so a worker
/// (spawned without `--full`) cannot simulate at any other. One config
/// slice keeps the paper-scale cost to 5 points per run.
#[test]
fn full_scale_pool_run_matches_full_sequential() {
    let seq = tmp_dir("full-seq");
    let out = dse_command_at(&seq, &["--full"], 1, false)
        .output()
        .expect("spawn dse");
    assert!(
        out.status.success(),
        "sequential --full run failed: {}",
        stderr_of(&out)
    );
    let want = sorted_store_lines(&seq);
    assert_eq!(want.len(), AppId::ALL.len(), "one paper-scale row per app");

    let pool = tmp_dir("full-pool");
    let out = dse_command_at(
        &pool,
        &["--full", "--workers", "2", "--lease-batch", "2"],
        1,
        false,
    )
    .output()
    .expect("spawn dse");
    assert!(
        out.status.success(),
        "--full --workers 2 failed: {}",
        stderr_of(&out)
    );
    assert_eq!(
        sorted_store_lines(&pool),
        want,
        "pool workers must simulate at the supervisor's scale"
    );
    let rep = journal::replay(&pool);
    assert!(rep.clean_terminated);
    assert!(matches!(
        rep.events.last(),
        Some(LeaseEvent::Complete { .. })
    ));
    assert!(rep.poisoned().is_empty());
    let _ = std::fs::remove_dir_all(&seq);
    let _ = std::fs::remove_dir_all(&pool);
}

/// An in-worker poisoned point must survive the death of its lease:
/// the poison record travels in the point's own frame, so the hub has
/// it on file whatever happens to the connection afterwards. The drill
/// arms a plan where some points panic in-process (poisoned by the
/// worker) and every row append fails (killing the lease at the first
/// non-panicking point), so *no* lease ever completes — every
/// in-worker poison record the run reports had to be recovered from a
/// dead lease. Losing them would under-account the sweep's points.
#[test]
fn in_worker_poison_survives_worker_death() {
    if !musa_fault::COMPILED {
        eprintln!("skipping: needs the fault feature");
        return;
    }
    let keys = point_keys_at(1);
    let p = 0.4;
    let panics = |seed: u64| -> Vec<bool> {
        let plan = FaultPlan {
            seed,
            points: vec![FaultPoint {
                point: "sim.point".into(),
                action: FaultAction::Panic,
                probability: p,
            }],
        };
        keys.iter()
            .map(|&k| plan.decide("sim.point", k).is_some())
            .collect()
    };
    // The drill needs a panicking point *followed by* a non-panicking
    // one, so the attempt that poisons the former dies (failed append)
    // at the latter — forcing the poison record through a dead lease
    // rather than a completed one.
    let seed = (0..10_000u64)
        .find(|&s| {
            let pts = panics(s);
            pts.iter()
                .enumerate()
                .any(|(i, &is_panic)| is_panic && pts[i + 1..].iter().any(|&later| !later))
        })
        .expect("some seed panics a point before a non-panicking one");
    let pts = panics(seed);
    let panic_count = pts.iter().filter(|&&x| x).count();
    let flush_death_count = pts.len() - panic_count;
    let spec = format!("seed={seed},sim.point=panic@{p},store.flush=io@1.0");

    let dir = tmp_dir("poison-manifest");
    let out = dse_command_at(
        &dir,
        &[
            "--workers",
            "1",
            "--lease-batch",
            "8",
            "--poison-cap",
            "1",
            "--max-retries",
            "0",
            "--faults",
            &spec,
        ],
        1,
        true,
    )
    .output()
    .expect("spawn dse");
    // Every point is accounted for — in-worker poisons recovered from
    // dead leases, append victims quarantined by the supervisor — so
    // the run is partial (3), not a hard failure.
    assert_eq!(
        out.status.code(),
        Some(3),
        "expected partial-success exit: {}",
        stderr_of(&out)
    );
    let stderr = stderr_of(&out);
    assert_eq!(
        stderr.matches("(in-worker panic)").count(),
        panic_count,
        "every in-worker poison must be reported exactly once: {stderr}"
    );
    let rep = journal::replay(&dir);
    assert!(rep.clean_terminated);
    assert!(matches!(
        rep.events.last(),
        Some(LeaseEvent::Complete { .. })
    ));
    assert_eq!(
        rep.poisoned().len(),
        flush_death_count,
        "each flush victim is quarantined after its single strike"
    );
    assert!(
        sorted_store_lines(&dir).is_empty(),
        "no flush ever succeeded, so no rows"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Kill-9 drills (CHAOS=1): real SIGKILLs against real processes.
// ---------------------------------------------------------------------

/// Live `dse dist-worker` processes the lease journal of `dir` names
/// as lease holders (`peer` is `w<pid>@<address>`; a worker's argv
/// names no store directory). A reaped or zombie worker has no cmdline
/// left and counts as gone.
fn worker_pids(dir: &Path) -> Vec<u32> {
    let mut pids: Vec<u32> = journal::replay(dir)
        .events
        .iter()
        .filter_map(grantee_pid)
        .collect();
    pids.sort_unstable();
    pids.dedup();
    pids.retain(|pid| {
        std::fs::read(format!("/proc/{pid}/cmdline"))
            .is_ok_and(|cmdline| String::from_utf8_lossy(&cmdline).contains("dist-worker"))
    });
    pids
}

/// The pid of the worker a grant went to (`peer` is
/// `w<pid>@<address>`).
fn grantee_pid(event: &LeaseEvent) -> Option<u32> {
    match event {
        LeaseEvent::RemoteGrant { peer, .. } => peer
            .strip_prefix('w')
            .and_then(|rest| rest.split('@').next())
            .and_then(|pid| pid.parse().ok()),
        _ => None,
    }
}

/// The worker process the lease journal shows holding the first
/// lease.
fn leased_worker_pid(dir: &Path) -> Option<u32> {
    journal::replay(dir).events.iter().find_map(grantee_pid)
}

fn sigkill(pid: u32) {
    let _ = Command::new("kill").args(["-9", &pid.to_string()]).status();
}

#[test]
fn kill_nine_worker_mid_batch_converges_byte_identically() {
    if !chaos_enabled() {
        eprintln!("skipping: set CHAOS=1 to run the kill-9 worker drill");
        return;
    }
    if !musa_fault::COMPILED {
        eprintln!("skipping: needs the fault feature");
        return;
    }
    let (ref_dir, want) = reference_lines("kill9-ref");

    // Delay faults on every point keep the sweep slow enough to land a
    // SIGKILL mid-batch, without perturbing any result bytes.
    let dir = tmp_dir("kill9");
    let mut child = dse_command(
        &dir,
        &[
            "--workers",
            "2",
            "--lease-batch",
            "4",
            "--faults",
            "sim.point=delay:150ms@1.0",
        ],
    )
    .stdout(Stdio::null())
    .stderr(Stdio::null())
    .spawn()
    .expect("spawn supervised dse");

    // Murder the first worker that holds a lease (workers outlive
    // their leases now, so one caught idle would die unmourned).
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut killed = false;
    while Instant::now() < deadline {
        if let Some(pid) = leased_worker_pid(&dir) {
            sigkill(pid);
            killed = true;
            break;
        }
        if child.try_wait().expect("try_wait").is_some() {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let status = child.wait().expect("wait for supervisor");
    assert!(killed, "never caught a worker to kill (sweep too fast?)");
    assert!(
        status.success(),
        "supervisor must absorb the kill: {status}"
    );

    let rep = journal::replay(&dir);
    assert!(
        rep.events
            .iter()
            .any(|e| matches!(e, LeaseEvent::Dead { .. })),
        "the worker death must be journalled"
    );
    assert!(
        rep.events
            .iter()
            .any(|e| matches!(e, LeaseEvent::Requeue { .. })),
        "the dead worker's lease must be re-queued"
    );
    assert!(rep.poisoned().is_empty(), "a murdered worker is not poison");
    assert_eq!(
        sorted_store_lines(&dir),
        want,
        "post-kill store differs from sequential"
    );
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&ref_dir);
}

#[test]
fn kill_nine_supervisor_then_resume_converges_byte_identically() {
    if !chaos_enabled() {
        eprintln!("skipping: set CHAOS=1 to run the kill-9 supervisor drill");
        return;
    }
    if !musa_fault::COMPILED {
        eprintln!("skipping: needs the fault feature");
        return;
    }
    let (ref_dir, want) = reference_lines("resume-ref");

    let dir = tmp_dir("resume");
    let mut child = dse_command(
        &dir,
        &[
            "--workers",
            "2",
            "--lease-batch",
            "2",
            "--faults",
            "sim.point=delay:150ms@1.0",
        ],
    )
    .stdout(Stdio::null())
    .stderr(Stdio::null())
    .spawn()
    .expect("spawn supervised dse");

    // Let it make some progress (at least one granted lease), then
    // SIGKILL the supervisor itself — no drain, no journal Complete.
    let deadline = Instant::now() + Duration::from_secs(30);
    while Instant::now() < deadline {
        if !journal::replay(&dir).events.is_empty() && !worker_pids(&dir).is_empty() {
            break;
        }
        if child.try_wait().expect("try_wait").is_some() {
            panic!("supervisor finished before the drill could kill it");
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    child.kill().expect("SIGKILL supervisor");
    let _ = child.wait();

    // Orphaned workers notice the dead connection after their
    // in-flight point and exit; wait for them to drain off before
    // resuming, like an operator would.
    let deadline = Instant::now() + Duration::from_secs(60);
    while !worker_pids(&dir).is_empty() {
        assert!(Instant::now() < deadline, "orphaned workers failed to exit");
        std::thread::sleep(Duration::from_millis(20));
    }

    let out = dse(&dir, &["--workers", "2", "--resume"]);
    assert!(
        out.status.success(),
        "resumed supervisor failed: {}",
        stderr_of(&out)
    );
    let rep = journal::replay(&dir);
    assert!(rep.clean_terminated);
    assert!(
        matches!(rep.events.last(), Some(LeaseEvent::Complete { .. })),
        "resumed sweep must journal Complete"
    );
    assert_eq!(
        sorted_store_lines(&dir),
        want,
        "post-resume store differs from sequential"
    );
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&ref_dir);
}
