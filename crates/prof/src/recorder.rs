//! The process-global flight recorder and its thread-local point
//! accumulator.
//!
//! The simulator never talks to the recorder directly: every completed
//! `musa-obs` span is offered to an installed **span listener**
//! ([`musa_obs::set_span_listener`]), and the listener folds the
//! span's wall time into the phase map of whatever point the current
//! thread is simulating. The fill loop brackets each point with
//! [`point_begin`] / [`point_finish`]; `point_finish` drains the
//! thread's accumulation into one sealed [`PointProfile`] line and
//! appends it to the installed output file.
//!
//! Durability mirrors the pool heartbeats: one `write + flush` per
//! point, torn final lines tolerated (and repaired) on read. The
//! sequential fill appends to `<store-dir>/profiles.jsonl` directly
//! (after a [`crate::harvest`] pass has repaired whatever a previous
//! crash left); pool workers stage into the pool scratch directory and
//! are merged by the supervisor.
//!
//! Everything here is inert — a branch on a constant or a relaxed
//! atomic — unless the `runtime` feature is compiled in **and** a
//! recorder is installed, so the zero-interference guarantee of
//! `musa-obs` carries over unchanged.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::harvest::{harvest, HarvestReport};
use crate::record::{worker_profile_file, PointProfile, PROFILES_FILE, PROF_SCHEMA};

/// `MUSA_PROF` environment opt-out: profiling is on by default in
/// `runtime` builds; `MUSA_PROF=0` disables it (the supervisor
/// propagates the setting to pool workers like `MUSA_CACHE=0`).
pub fn enabled_from_env() -> bool {
    std::env::var("MUSA_PROF").map(|v| v != "0").unwrap_or(true)
}

static ACTIVE: AtomicBool = AtomicBool::new(false);
static RECORDER: Mutex<Option<Recorder>> = Mutex::new(None);
static NEXT_TID: AtomicU32 = AtomicU32::new(1);

struct Recorder {
    file: File,
    worker: String,
    /// Records offered for appending (the `prof.append` failpoint
    /// key): deterministic per recorder, so a fault plan targets e.g.
    /// "every append" or "the third append" reproducibly.
    offered: u64,
}

thread_local! {
    static POINT: RefCell<ThreadPoint> = RefCell::new(ThreadPoint::default());
    static TID: RefCell<u32> = const { RefCell::new(0) };
}

#[derive(Default)]
struct ThreadPoint {
    phases: BTreeMap<&'static str, f64>,
    cache_hits: u32,
    cache_misses: u32,
    started: Option<Instant>,
    start_us: u64,
}

/// `true` while a recorder is installed in a `runtime` build — the
/// one check every hot-path entry point performs first.
#[inline]
pub fn recording() -> bool {
    crate::COMPILED && ACTIVE.load(Ordering::Relaxed)
}

/// The span listener registered with `musa-obs` while recording:
/// folds every completed span into the current thread's point.
fn on_span(phase: &'static str, _app: &str, wall_ns: f64) {
    if !recording() {
        return;
    }
    let _ = POINT.try_with(|p| {
        *p.borrow_mut().phases.entry(phase).or_insert(0.0) += wall_ns;
    });
}

/// Stable per-process tag of the calling thread (assigned on first
/// use, 1-based). Distinguishes the threads of one process on the
/// timeline.
fn thread_tag() -> u32 {
    TID.with(|t| {
        let mut t = t.borrow_mut();
        if *t == 0 {
            *t = NEXT_TID.fetch_add(1, Ordering::Relaxed);
        }
        *t
    })
}

/// Peak resident set size of this process, kB (`VmHWM` from
/// `/proc/self/status`; 0 on other platforms or read failure).
fn peak_rss_kb() -> u64 {
    #[cfg(target_os = "linux")]
    {
        if let Ok(status) = std::fs::read_to_string("/proc/self/status") {
            for line in status.lines() {
                if let Some(rest) = line.strip_prefix("VmHWM:") {
                    return rest
                        .trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse()
                        .unwrap_or(0);
                }
            }
        }
    }
    0
}

fn epoch_us() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_micros() as u64)
        .unwrap_or(0)
}

/// Install the recorder for a sequential fill: repair + merge whatever
/// an earlier run left (torn tails, staged worker files), then append
/// to `<dir>/profiles.jsonl`. Returns the harvest's findings so the
/// caller can report repairs. No-op returning the default report when
/// recording is compiled out.
pub fn install_store_recorder(dir: &Path) -> std::io::Result<HarvestReport> {
    if !crate::COMPILED {
        return Ok(HarvestReport::default());
    }
    let report = harvest(dir)?;
    let file = OpenOptions::new()
        .create(true)
        .append(true)
        .open(dir.join(PROFILES_FILE))?;
    install(file, "fill".to_string());
    Ok(report)
}

/// Install the recorder for a pool worker: a fresh staging file in the
/// pool scratch directory, named after the (lease, attempt) exactly
/// like the worker's row file. The supervisor (or the next `--resume`)
/// merges it into `profiles.jsonl`.
pub fn install_worker_recorder(dir: &Path, lease: u64, attempt: u32) -> std::io::Result<()> {
    if !crate::COMPILED {
        return Ok(());
    }
    let scratch = dir.join("pool");
    std::fs::create_dir_all(&scratch)?;
    let file = File::create(scratch.join(worker_profile_file(lease, attempt)))?;
    install(file, format!("l{lease:04}-a{attempt}"));
    Ok(())
}

fn install(file: File, worker: String) {
    let mut rec = RECORDER.lock().unwrap_or_else(|e| e.into_inner());
    *rec = Some(Recorder {
        file,
        worker,
        offered: 0,
    });
    musa_obs::set_span_listener(Some(on_span));
    ACTIVE.store(true, Ordering::Relaxed);
}

/// Tear the recorder down (flushes the file handle on drop). Safe to
/// call when nothing is installed.
pub fn uninstall_recorder() {
    ACTIVE.store(false, Ordering::Relaxed);
    musa_obs::set_span_listener(None);
    let mut rec = RECORDER.lock().unwrap_or_else(|e| e.into_inner());
    *rec = None;
}

/// Mark the start of a point on this thread. Phase time already
/// accumulated on the thread (an app's trace generation, which runs
/// before its first point) is deliberately kept and attributed to
/// this point.
pub fn point_begin() {
    if !recording() {
        return;
    }
    let _ = POINT.try_with(|p| {
        let mut p = p.borrow_mut();
        p.started = Some(Instant::now());
        p.start_us = epoch_us();
    });
}

/// Record one artifact-cache lookup outcome for the current point.
pub fn cache_note(hit: bool) {
    if !recording() {
        return;
    }
    let _ = POINT.try_with(|p| {
        let mut p = p.borrow_mut();
        if hit {
            p.cache_hits += 1;
        } else {
            p.cache_misses += 1;
        }
    });
}

/// Fold externally measured phase time into the current thread's
/// point (used by the fill loop to carry an app's trace-generation
/// time from the coordinating thread onto the first point's record).
pub fn add_phase_ns(phase: &'static str, wall_ns: f64) {
    if !recording() || wall_ns <= 0.0 {
        return;
    }
    let _ = POINT.try_with(|p| {
        *p.borrow_mut().phases.entry(phase).or_insert(0.0) += wall_ns;
    });
}

/// Drain one phase's accumulated time from the calling thread (0 when
/// absent). The fill loop uses this to move trace-generation time off
/// the coordinating thread — and to keep its batch-level store-flush
/// time from leaking into the next app's first point.
pub fn take_phase_ns(phase: &str) -> f64 {
    if !recording() {
        return 0.0;
    }
    POINT
        .try_with(|p| p.borrow_mut().phases.remove(phase).unwrap_or(0.0))
        .unwrap_or(0.0)
}

/// Finish the current thread's point: drain the accumulation into one
/// sealed record and append it to the installed file (one
/// write + flush, torn tails repaired on read).
pub fn point_finish(key: &str, app: &str, config: &str, poisoned: bool, retries: u32) {
    if !recording() {
        return;
    }
    let Ok(state) = POINT.try_with(|p| std::mem::take(&mut *p.borrow_mut())) else {
        return;
    };
    let wall_ns = state
        .started
        .map(|s| s.elapsed().as_nanos() as u64)
        .unwrap_or(0);
    let profile = PointProfile {
        schema: PROF_SCHEMA,
        key: key.to_string(),
        app: app.to_string(),
        config: config.to_string(),
        worker: String::new(), // filled under the lock below
        pid: std::process::id(),
        tid: thread_tag(),
        start_us: if state.start_us == 0 {
            epoch_us()
        } else {
            state.start_us
        },
        wall_ns,
        poisoned,
        retries,
        cache_hits: state.cache_hits,
        cache_misses: state.cache_misses,
        peak_rss_kb: peak_rss_kb(),
        phases: state
            .phases
            .into_iter()
            .map(|(k, v)| (k.to_string(), v.max(0.0) as u64))
            .collect(),
    };
    let mut guard = RECORDER.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(rec) = guard.as_mut() {
        let mut line = PointProfile {
            worker: rec.worker.clone(),
            ..profile
        }
        .to_line();
        line.push('\n');
        // Best effort by design: a full disk must not fail the
        // simulation the record describes — the record is dropped and
        // counted (`prof.dropped`) instead, so a chaos drill (the
        // `prof.append` failpoint standing in for ENOSPC) can assert
        // that rows keep landing while profiles silently vanish.
        rec.offered += 1;
        let appended = musa_fault::fail_io("prof.append", rec.offered)
            .and_then(|()| rec.file.write_all(line.as_bytes()))
            .and_then(|()| rec.file.flush());
        if appended.is_err() {
            musa_obs::counter_add("prof.dropped", 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harvest::read_profile_file;

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("musa-prof-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// One test drives the whole global-recorder lifecycle — the
    /// recorder is process-global state, so splitting this into
    /// parallel #[test]s would race.
    #[test]
    fn recorder_lifecycle_points_phases_and_carry() {
        assert!(enabled_from_env());
        if !crate::COMPILED {
            assert!(!recording());
            // All entry points must be inert no-ops.
            point_begin();
            cache_note(true);
            point_finish("k", "hydro", "c64", false, 0);
            return;
        }
        let dir = tmp_dir("recorder");

        // Nothing installed: everything is a no-op.
        assert!(!recording());
        point_begin();
        point_finish("k0", "hydro", "c64", false, 0);

        install_store_recorder(&dir).unwrap();
        assert!(recording());

        // Point 1: spans land in the phase map via the obs listener.
        point_begin();
        {
            let _sp = musa_obs::span_app(musa_obs::phase::DETAILED_SIM, "hydro");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        cache_note(true);
        cache_note(false);
        point_finish("k1", "hydro", "c64", false, 0);

        // Point 2: externally carried phase time + poisoned flag.
        point_begin();
        add_phase_ns(musa_obs::phase::TRACE_GEN, 5e6);
        point_finish("k2", "hydro", "c128", true, 3);

        // take_phase_ns drains accumulation that must not leak.
        add_phase_ns(musa_obs::phase::STORE_FLUSH, 7e6);
        assert!(take_phase_ns(musa_obs::phase::STORE_FLUSH) > 0.0);
        assert_eq!(take_phase_ns(musa_obs::phase::STORE_FLUSH), 0.0);

        // Full-disk drill: with the `prof.append` failpoint firing,
        // the record is dropped and counted — point_finish stays
        // infallible (the simulation it describes already succeeded).
        if musa_fault::COMPILED {
            musa_fault::set_plan(Some(
                musa_fault::FaultPlan::parse("seed=1,prof.append=io@1.0").unwrap(),
            ));
            point_begin();
            point_finish("k-dropped", "hydro", "c64", false, 0);
            musa_fault::set_plan(None);
        }

        uninstall_recorder();
        assert!(!recording());
        // Post-uninstall points are dropped silently.
        point_begin();
        point_finish("k3", "hydro", "c64", false, 0);

        let (records, stats) = read_profile_file(&dir.join(PROFILES_FILE)).unwrap();
        assert_eq!(stats.corrupt, 0);
        assert_eq!(stats.torn_tails, 0);
        assert_eq!(records.len(), 2, "{records:?}");
        let p1 = &records[0];
        assert_eq!((p1.key.as_str(), p1.app.as_str()), ("k1", "hydro"));
        assert_eq!(p1.worker, "fill");
        assert_eq!(p1.pid, std::process::id());
        assert!(p1.wall_ns > 0);
        assert!(p1.phase_ns(musa_obs::phase::DETAILED_SIM) > 1_000_000);
        assert_eq!((p1.cache_hits, p1.cache_misses), (1, 1));
        #[cfg(target_os = "linux")]
        assert!(p1.peak_rss_kb > 0);
        let p2 = &records[1];
        assert!(p2.poisoned);
        assert_eq!(p2.retries, 3);
        assert_eq!(p2.phase_ns(musa_obs::phase::TRACE_GEN), 5_000_000);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
