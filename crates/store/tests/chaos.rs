//! Chaos suite: end-to-end campaign execution under injected faults.
//!
//! Every test drives the real pipeline (trace generation + multiscale
//! simulation + persistence) with a `musa_fault` plan installed, and
//! asserts the store converges to the byte-identical campaign a
//! fault-free run produces. The fault plan is process-global, so all
//! tests serialise on one lock and clear the plan on exit (even when
//! panicking).
//!
//! The kill-9 crash test (a child process SIGKILLed mid-flush, then
//! resumed) is expensive and runs only with `CHAOS=1`:
//!
//! ```sh
//! CHAOS=1 cargo test -p musa-store --test chaos
//! ```

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

use musa_apps::{AppId, GenParams};
use musa_arch::{DesignSpace, NodeConfig};
use musa_core::SweepOptions;
use musa_fault::{FaultAction, FaultPlan, FaultPoint};
use musa_store::{export, CampaignStore, FillOptions, PointExecutor, QUARANTINE_FILE};

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "musa-chaos-{tag}-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn sweep() -> SweepOptions {
    SweepOptions {
        gen: GenParams::tiny(),
        full_replay: false,
    }
}

fn quiet(sweep: SweepOptions) -> FillOptions {
    FillOptions {
        progress: false,
        batch: 4,
        ..FillOptions::new(sweep)
    }
}

fn config_slice(n: usize) -> Vec<NodeConfig> {
    let all = DesignSpace::all();
    all.iter().step_by(all.len() / n).take(n).copied().collect()
}

/// Serialises plan-using tests and guarantees the global plan is
/// cleared afterwards, assertion failure or not.
struct PlanGuard(#[allow(dead_code)] MutexGuard<'static, ()>);

impl Drop for PlanGuard {
    fn drop(&mut self) {
        musa_fault::set_plan(None);
    }
}

fn chaos_lock() -> PlanGuard {
    static LOCK: Mutex<()> = Mutex::new(());
    quiet_injected_panics();
    PlanGuard(LOCK.lock().unwrap_or_else(|e| e.into_inner()))
}

/// Injected panics are *expected* here; keep their default-hook
/// backtraces out of the test output. Every other panic still prints.
fn quiet_injected_panics() {
    static HOOK: OnceLock<()> = OnceLock::new();
    HOOK.get_or_init(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let msg = info
                .payload()
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| info.payload().downcast_ref::<&str>().copied())
                .unwrap_or("");
            if !msg.contains("injected") {
                prev(info);
            }
        }));
    });
}

fn plan(seed: u64, point: &str, action: FaultAction, probability: f64) -> FaultPlan {
    FaultPlan {
        seed,
        points: vec![FaultPoint {
            point: point.to_string(),
            action,
            probability,
        }],
    }
}

/// All data lines of a store directory (quarantine excluded), sorted —
/// the byte-level identity two equivalent campaigns must share.
fn sorted_store_lines(dir: &Path) -> Vec<String> {
    let mut lines = Vec::new();
    for entry in std::fs::read_dir(dir).unwrap().filter_map(|e| e.ok()) {
        let path = entry.path();
        if path.extension().is_some_and(|x| x == "jsonl")
            && path
                .file_name()
                .and_then(|n| n.to_str())
                .is_none_or(|n| !musa_store::is_quarantine_file(n))
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

/// A fault-free reference run of `apps × configs` in a fresh dir.
fn reference_run(tag: &str, apps: &[AppId], configs: &[NodeConfig]) -> PathBuf {
    let dir = tmp_dir(tag);
    let mut store = CampaignStore::open(&dir).unwrap();
    store.fill(apps, configs, &quiet(sweep())).unwrap();
    dir
}

/// The executor is the only code that catches a simulation panic; the
/// poison record it returns must carry the verbatim panic text (what
/// every execution path reported before they were one), name the
/// point, and leave the executor usable.
#[test]
fn executor_poisons_a_panicking_point_with_the_panic_text() {
    if !musa_fault::COMPILED {
        eprintln!("skipping: needs the fault feature");
        return;
    }
    let _g = chaos_lock();
    let config = config_slice(4)[1];
    let fault_key = musa_fault::key_of(&[b"hydro", config.label().as_bytes()]);
    let exec = PointExecutor::new(AppId::Hydro, sweep());

    musa_fault::set_plan(Some(plan(1, "sim.point", FaultAction::Panic, 1.0)));
    let out = exec.run(&config);
    let mut store = CampaignStore::open(tmp_dir("exec-poison")).unwrap();
    let filled = store
        .fill(&[AppId::Hydro], &[config], &quiet(sweep()))
        .unwrap();
    musa_fault::set_plan(None);

    let p = out.row.expect_err("the injected panic poisons the point");
    assert_eq!(
        p.reason,
        format!("injected panic at sim.point (key {fault_key:#x})")
    );
    assert_eq!((p.app.as_str(), &p.config), ("hydro", &config.label()));
    assert_eq!(
        p.key,
        musa_store::PointKey::for_point(AppId::Hydro, &config, &sweep()).to_hex()
    );
    assert_eq!(filled.poisoned, vec![p], "fill reports the same record");
    assert!(exec.run(&config).row.is_ok());
    let _ = std::fs::remove_dir_all(store.dir());
}

#[test]
fn sim_panic_poisons_points_and_resume_heals() {
    if !musa_fault::COMPILED {
        eprintln!("skipping: needs the fault feature");
        return;
    }
    let _g = chaos_lock();
    let apps = [AppId::Hydro];
    let configs = config_slice(4);
    let dir = tmp_dir("poison");

    // Every point panics: the sweep must complete anyway, with all
    // four points recorded as poisoned and nothing persisted.
    musa_fault::set_plan(Some(plan(1, "sim.point", FaultAction::Panic, 1.0)));
    let mut store = CampaignStore::open(&dir).unwrap();
    let report = store.fill(&apps, &configs, &quiet(sweep())).unwrap();
    assert_eq!(report.simulated, 0);
    assert_eq!(report.poisoned.len(), 4);
    for p in &report.poisoned {
        assert_eq!(p.app, "hydro");
        assert!(
            p.reason.contains("injected panic at sim.point"),
            "reason: {}",
            p.reason
        );
    }
    assert_eq!(store.len(), 0, "poisoned points never reach the store");
    drop(store);

    // Heal: clear the faults and --resume. The campaign must equal a
    // run that never saw a fault, byte for byte.
    musa_fault::set_plan(None);
    let mut store = CampaignStore::open(&dir).unwrap();
    let report = store.fill(&apps, &configs, &quiet(sweep())).unwrap();
    assert_eq!(report.simulated, 4);
    assert!(report.poisoned.is_empty());
    drop(store);
    let ref_dir = reference_run("poison-ref", &apps, &configs);
    assert_eq!(sorted_store_lines(&dir), sorted_store_lines(&ref_dir));
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&ref_dir);
}

#[test]
fn partial_panic_probability_converges_across_seeds() {
    if !musa_fault::COMPILED {
        eprintln!("skipping: needs the fault feature");
        return;
    }
    let _g = chaos_lock();
    let apps = [AppId::Spmz];
    let configs = config_slice(5);
    let ref_dir = reference_run("converge-ref", &apps, &configs);

    // Several chaos campaigns, each under a different seed: every one
    // must converge to the reference once the faults stop, no matter
    // which subset of points each seed poisons.
    for seed in 0..4u64 {
        let dir = tmp_dir(&format!("converge-{seed}"));
        let mut total_poisoned = 0usize;
        // Re-attempt with a fresh per-attempt seed (a real operator
        // re-runs with --resume; the world is different each time).
        for attempt in 0..20u64 {
            musa_fault::set_plan(Some(plan(
                seed * 100 + attempt,
                "sim.point",
                FaultAction::Panic,
                0.5,
            )));
            let mut store = CampaignStore::open(&dir).unwrap();
            let report = store.fill(&apps, &configs, &quiet(sweep())).unwrap();
            total_poisoned += report.poisoned.len();
            if report.poisoned.is_empty() {
                break;
            }
        }
        musa_fault::set_plan(None);
        // A last fault-free resume guarantees completion even if all
        // 20 seeds were unlucky.
        let mut store = CampaignStore::open(&dir).unwrap();
        store.fill(&apps, &configs, &quiet(sweep())).unwrap();
        drop(store);
        assert_eq!(
            sorted_store_lines(&dir),
            sorted_store_lines(&ref_dir),
            "seed {seed} (poisoned {total_poisoned} along the way) must converge"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&ref_dir);
}

#[test]
fn transient_flush_faults_are_retried_to_success() {
    if !musa_fault::COMPILED {
        eprintln!("skipping: needs the fault feature");
        return;
    }
    let _g = chaos_lock();
    // The flush failpoint is keyed by the flush sequence number, so a
    // retry rolls a fresh deterministic decision. Pick a seed where
    // flush #1 fails but #2 succeeds — then one retry must recover.
    let seed = (0..100_000u64)
        .find(|&s| {
            let p = plan(s, "store.flush", FaultAction::Io, 0.6);
            p.decide("store.flush", 1).is_some() && p.decide("store.flush", 2).is_none()
        })
        .expect("such a seed exists");
    let apps = [AppId::Hydro];
    let configs = config_slice(4);
    let dir = tmp_dir("retry");

    musa_fault::set_plan(Some(plan(seed, "store.flush", FaultAction::Io, 0.6)));
    let mut store = CampaignStore::open(&dir).unwrap();
    let report = store.fill(&apps, &configs, &quiet(sweep())).unwrap();
    assert_eq!(report.simulated, 4);
    assert_eq!(report.retries, 1, "flush #1 fails, the retry (#2) lands");
    musa_fault::set_plan(None);
    drop(store);

    // Everything made it to disk despite the transient error.
    let reopened = CampaignStore::open(&dir).unwrap();
    assert_eq!(reopened.len(), 4);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn exhausted_retries_fail_but_resume_recovers() {
    if !musa_fault::COMPILED {
        eprintln!("skipping: needs the fault feature");
        return;
    }
    let _g = chaos_lock();
    let apps = [AppId::Hydro];
    let configs = config_slice(4);
    let ref_dir = reference_run("exhaust-ref", &apps, &configs);
    let dir = tmp_dir("exhaust");

    // Every flush fails and there is no retry budget: fill must error.
    musa_fault::set_plan(Some(plan(3, "store.flush", FaultAction::Io, 1.0)));
    {
        let mut store = CampaignStore::open(&dir).unwrap();
        let fill = FillOptions {
            max_retries: 0,
            ..quiet(sweep())
        };
        let err = store.fill(&apps, &configs, &fill).unwrap_err();
        assert!(err.to_string().contains("injected fault at store.flush"));
    }
    // The "crashed" run over, resume without faults and byte-match.
    musa_fault::set_plan(None);
    let mut store = CampaignStore::open(&dir).unwrap();
    store.fill(&apps, &configs, &quiet(sweep())).unwrap();
    drop(store);
    assert_eq!(sorted_store_lines(&dir), sorted_store_lines(&ref_dir));
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&ref_dir);
}

#[test]
fn fail_fast_aborts_but_persists_completed_rows() {
    if !musa_fault::COMPILED {
        eprintln!("skipping: needs the fault feature");
        return;
    }
    let _g = chaos_lock();
    let apps = [AppId::Btmz];
    let configs = config_slice(6);
    // Find a seed where this point set has BOTH poisoned and healthy
    // points (decisions are pure functions, so we can precompute).
    let keys: Vec<u64> = configs
        .iter()
        .map(|c| musa_fault::key_of(&[apps[0].label().as_bytes(), c.label().as_bytes()]))
        .collect();
    let seed = (0..100_000u64)
        .find(|&s| {
            let p = plan(s, "sim.point", FaultAction::Panic, 0.5);
            let fired = keys
                .iter()
                .filter(|&&k| p.decide("sim.point", k).is_some())
                .count();
            fired > 0 && fired < keys.len()
        })
        .expect("such a seed exists");

    let dir = tmp_dir("failfast");
    musa_fault::set_plan(Some(plan(seed, "sim.point", FaultAction::Panic, 0.5)));
    {
        let mut store = CampaignStore::open(&dir).unwrap();
        let fill = FillOptions {
            fail_fast: true,
            batch: configs.len(),
            ..quiet(sweep())
        };
        let err = store.fill(&apps, &configs, &fill).unwrap_err();
        assert!(err.to_string().contains("--fail-fast"), "{err}");
    }
    musa_fault::set_plan(None);

    // The healthy rows of the aborted batch are on disk; resume
    // finishes the rest and matches the reference.
    let mut store = CampaignStore::open(&dir).unwrap();
    assert!(!store.is_empty(), "completed rows persist past --fail-fast");
    assert!(store.len() < configs.len());
    store.fill(&apps, &configs, &quiet(sweep())).unwrap();
    drop(store);
    let ref_dir = reference_run("failfast-ref", &apps, &configs);
    assert_eq!(sorted_store_lines(&dir), sorted_store_lines(&ref_dir));
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&ref_dir);
}

#[test]
fn export_fault_leaves_the_previous_file_intact() {
    if !musa_fault::COMPILED {
        eprintln!("skipping: needs the fault feature");
        return;
    }
    let _g = chaos_lock();
    let apps = [AppId::Hydro];
    let dir = tmp_dir("export");
    let mut store = CampaignStore::open(&dir).unwrap();
    store
        .fill(&apps, &config_slice(2), &quiet(sweep()))
        .unwrap();
    let out = dir.join("campaign.csv");
    export::write_csv(&store.campaign(), &out).unwrap();
    let before = std::fs::read(&out).unwrap();

    // Grow the campaign, then fail every export write: the old file
    // must survive, with no temp litter.
    store
        .fill(&apps, &config_slice(4), &quiet(sweep()))
        .unwrap();
    musa_fault::set_plan(Some(plan(1, "export.write", FaultAction::Io, 1.0)));
    let err = export::write_csv(&store.campaign(), &out).unwrap_err();
    assert!(err.to_string().contains("injected fault at export.write"));
    assert_eq!(std::fs::read(&out).unwrap(), before);
    let stray = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
        .count();
    assert_eq!(stray, 0, "failed exports must not strand temp files");

    // And with the fault gone the larger export replaces it.
    musa_fault::set_plan(None);
    export::write_csv(&store.campaign(), &out).unwrap();
    assert!(std::fs::read(&out).unwrap().len() > before.len());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn delay_faults_never_change_the_campaign_bytes() {
    if !musa_fault::COMPILED {
        eprintln!("skipping: needs the fault feature");
        return;
    }
    let _g = chaos_lock();
    let apps = [AppId::Spmz];
    let configs = config_slice(4);
    let ref_dir = reference_run("delay-ref", &apps, &configs);

    // Latency injection (sim + flush) perturbs timing only: rows,
    // fingerprints and checksums must be byte-identical.
    let dir = tmp_dir("delay");
    musa_fault::set_plan(Some(FaultPlan {
        seed: 11,
        points: vec![
            FaultPoint {
                point: "sim.point".into(),
                action: FaultAction::Delay(std::time::Duration::from_millis(2)),
                probability: 0.5,
            },
            FaultPoint {
                point: "store.flush".into(),
                action: FaultAction::Delay(std::time::Duration::from_millis(2)),
                probability: 1.0,
            },
        ],
    }));
    let mut store = CampaignStore::open(&dir).unwrap();
    let report = store.fill(&apps, &configs, &quiet(sweep())).unwrap();
    assert_eq!(report.simulated, 4);
    assert!(report.poisoned.is_empty());
    musa_fault::set_plan(None);
    drop(store);

    assert_eq!(sorted_store_lines(&dir), sorted_store_lines(&ref_dir));
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&ref_dir);
}

#[test]
fn enospc_full_disk_fill_fails_cleanly_and_resume_converges() {
    if !musa_fault::COMPILED {
        eprintln!("skipping: needs the fault feature");
        return;
    }
    let _g = chaos_lock();
    let apps = [AppId::Hydro];
    let configs = config_slice(6);
    let ref_dir = reference_run("enospc-ref", &apps, &configs);
    let dir = tmp_dir("enospc");

    // The full-disk signature: EVERY flush fails, retries included —
    // unlike a transient error, waiting does not help. The fill must
    // surface a clear diagnostic instead of spinning.
    musa_fault::set_plan(Some(plan(7, "store.flush", FaultAction::Io, 1.0)));
    {
        let mut store = CampaignStore::open(&dir).unwrap();
        let err = store.fill(&apps, &configs, &quiet(sweep())).unwrap_err();
        assert!(
            err.to_string().contains("injected fault at store.flush"),
            "ENOSPC diagnostic must name the failing operation: {err}"
        );
        // The store is dropped while the disk is still "full" — the
        // worst case for torn shards.
    }
    musa_fault::set_plan(None);

    // No torn shard: whatever landed is whole, newline-terminated rows.
    let text = std::fs::read_to_string(dir.join("rows.jsonl")).unwrap_or_default();
    assert!(
        text.is_empty() || text.ends_with('\n'),
        "a failed fill must not leave a torn shard"
    );
    let reopened = CampaignStore::open(&dir).unwrap();
    assert_eq!(
        reopened.health().tails_repaired,
        0,
        "no torn tail after an out-of-space abort"
    );
    assert_eq!(reopened.health().quarantined, 0);
    drop(reopened);

    // Space returns: --resume must converge byte-identically.
    let mut store = CampaignStore::open(&dir).unwrap();
    store.fill(&apps, &configs, &quiet(sweep())).unwrap();
    drop(store);
    assert_eq!(sorted_store_lines(&dir), sorted_store_lines(&ref_dir));
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&ref_dir);
}

#[test]
fn enospc_rewrite_fault_leaves_the_shard_intact() {
    if !musa_fault::COMPILED {
        eprintln!("skipping: needs the fault feature");
        return;
    }
    let _g = chaos_lock();
    let apps = [AppId::Spmz];
    let configs = config_slice(3);
    let dir = tmp_dir("enospc-rw");
    {
        let mut store = CampaignStore::open(&dir).unwrap();
        store.fill(&apps, &configs, &quiet(sweep())).unwrap();
    }
    // Corrupt one line so the next repairing open wants to rewrite.
    let shard = dir.join("rows.jsonl");
    let mut text = std::fs::read_to_string(&shard).unwrap();
    text.push_str("corrupt line for the rewrite drill\n");
    std::fs::write(&shard, &text).unwrap();

    // Full disk at rewrite time: the open must fail — and leave the
    // original shard byte-identical, with no temp litter.
    musa_fault::set_plan(Some(plan(7, "store.rewrite", FaultAction::Io, 1.0)));
    let err = match CampaignStore::open(&dir) {
        Ok(_) => panic!("open must fail while the disk is full"),
        Err(e) => e,
    };
    assert!(
        err.to_string().contains("injected fault at store.rewrite"),
        "{err}"
    );
    musa_fault::set_plan(None);
    assert_eq!(std::fs::read_to_string(&shard).unwrap(), text);
    let stray = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
        .count();
    assert_eq!(stray, 0, "failed rewrites must not strand temp files");

    // Space returns: the repair completes and quarantines the corrupt
    // line exactly once (the aborted attempt's record is deduped).
    let store = CampaignStore::open(&dir).unwrap();
    assert_eq!(store.len(), configs.len());
    assert_eq!(store.health().quarantined, 1);
    drop(store);
    let q = std::fs::read_to_string(dir.join(QUARANTINE_FILE)).unwrap();
    assert_eq!(q.lines().count(), 1, "dedupe spans the aborted attempt");
    let again = CampaignStore::open(&dir).unwrap();
    assert_eq!(again.health().quarantined, 0, "repair sticks");
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Kill-9 crash test (CHAOS=1): a child process is SIGKILLed mid-flush,
// the directory re-opened, the campaign resumed, and the result must
// byte-match a run that never crashed.
// ---------------------------------------------------------------------

const CHILD_APPS: [AppId; 1] = [AppId::Hydro];
const CHILD_POINTS: usize = 24;

/// Not a test of its own: the crash *victim*, re-entered by
/// `kill_nine_mid_flush_then_resume` through the test binary with
/// `CHAOS_CHILD=1`. A normal test run sees an immediate no-op pass.
#[test]
fn chaos_child_fill() {
    if std::env::var("CHAOS_CHILD").as_deref() != Ok("1") {
        return;
    }
    let dir = std::env::var("CHAOS_DIR").expect("parent sets CHAOS_DIR");
    // Delay faults on every flush (from MUSA_FAULTS) hold the write
    // window open so the parent's SIGKILL lands mid-campaign.
    musa_fault::init_from_env().expect("parent sets a valid MUSA_FAULTS");
    let mut store = CampaignStore::open(&dir).unwrap();
    let fill = FillOptions {
        progress: false,
        batch: 1,
        ..FillOptions::new(sweep())
    };
    store
        .fill(&CHILD_APPS, &config_slice(CHILD_POINTS), &fill)
        .unwrap();
}

#[test]
fn kill_nine_mid_flush_then_resume() {
    if std::env::var("CHAOS").as_deref() != Ok("1") {
        eprintln!("skipping: set CHAOS=1 to run the kill-9 crash test");
        return;
    }
    if !musa_fault::COMPILED {
        eprintln!("skipping: needs the fault feature");
        return;
    }
    let configs = config_slice(CHILD_POINTS);
    let dir = tmp_dir("kill9");
    std::fs::create_dir_all(&dir).unwrap();

    // Re-enter this test binary as the victim, slowed down by a delay
    // fault on every flush (50 ms × 24 single-row batches).
    let exe = std::env::current_exe().unwrap();
    let mut child = std::process::Command::new(exe)
        .args(["chaos_child_fill", "--exact", "--test-threads=1"])
        .env("CHAOS_CHILD", "1")
        .env("CHAOS_DIR", &dir)
        .env("MUSA_FAULTS", "store.flush=delay:50ms@1.0")
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn chaos child");

    // Wait for rows to start landing, then SIGKILL mid-campaign.
    let rows_file = dir.join("rows.jsonl");
    for _ in 0..500 {
        if rows_file.metadata().map(|m| m.len()).unwrap_or(0) > 0 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    std::thread::sleep(std::time::Duration::from_millis(120));
    let _ = child.kill(); // SIGKILL: no destructors, no flush, no mercy
    let _ = child.wait();

    // Whatever instant the kill hit, also force the worst documented
    // crash artifact deterministically: a torn, newline-less tail.
    {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&rows_file)
            .unwrap();
        f.write_all(b"{\"key\":\"00deadbeef, torn mid-write")
            .unwrap();
    }

    // Reopen (which repairs the tail), resume, and demand the exact
    // bytes of a campaign that never crashed. The resume and the
    // reference run simulate in this process: hold the lock so another
    // test's fault plan cannot poison them.
    let _g = chaos_lock();
    let mut store = CampaignStore::open(&dir).unwrap();
    let survived = store.len();
    assert!(
        survived < CHILD_POINTS,
        "the kill must interrupt the campaign (rows={survived})"
    );
    let report = store.fill(&CHILD_APPS, &configs, &quiet(sweep())).unwrap();
    assert_eq!(
        report.cached, survived,
        "surviving rows are not re-simulated"
    );
    drop(store);

    let ref_dir = reference_run("kill9-ref", &CHILD_APPS, &configs);
    assert_eq!(sorted_store_lines(&dir), sorted_store_lines(&ref_dir));
    assert!(
        !dir.join(QUARANTINE_FILE).exists(),
        "a clean kill-9 leaves crash artifacts, never corruption"
    );
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&ref_dir);
}
