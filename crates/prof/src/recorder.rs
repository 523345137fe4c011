//! The process-global flight recorder and its thread-local point
//! accumulator.
//!
//! The simulator never talks to the recorder directly: every completed
//! `musa-obs` span is offered to an installed **span listener**
//! ([`musa_obs::set_span_listener`]), and the listener folds the
//! span's wall time into the phase map of whatever point the current
//! thread is simulating. The point executor brackets each point with
//! [`point_begin`] / [`point_finish`]; `point_finish` drains the
//! thread's accumulation into one sealed [`PointProfile`] line and
//! appends it to `<store-dir>/profiles.jsonl` through the installed
//! [`ProfileSink`].
//!
//! Durability: one `write + flush` per point, torn final lines
//! tolerated (and repaired) on read. The fill's threads append
//! directly, one whole line each under the sink's lock, after a
//! [`crate::harvest`] pass has repaired whatever a previous crash
//! left.
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
use crate::record::{PointProfile, PROFILES_FILE, PROF_SCHEMA};

/// `MUSA_PROF` environment opt-out: profiling is on by default in
/// `runtime` builds; `MUSA_PROF=0` disables it.
pub fn enabled_from_env() -> bool {
    std::env::var("MUSA_PROF").map(|v| v != "0").unwrap_or(true)
}

static ACTIVE: AtomicBool = AtomicBool::new(false);
/// The installed recorder's sink; `None` while nothing is installed.
static SINK: Mutex<Option<ProfileSink>> = Mutex::new(None);
static NEXT_TID: AtomicU32 = AtomicU32::new(1);

/// An append handle on `<store-dir>/profiles.jsonl`.
pub struct ProfileSink {
    file: File,
    /// Lines offered for appending (the `prof.append` failpoint key):
    /// deterministic per sink, so a fault plan targets e.g. "every
    /// append" or "the third append" reproducibly.
    offered: u64,
}

impl ProfileSink {
    /// Open `<dir>/profiles.jsonl` for appending (created if absent).
    /// Run [`crate::harvest`] first when a previous crash may have
    /// left a torn tail.
    pub fn open(dir: &Path) -> std::io::Result<ProfileSink> {
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(dir.join(PROFILES_FILE))?;
        Ok(ProfileSink { file, offered: 0 })
    }

    /// Append one sealed line. Best effort by design: a full disk must
    /// not fail the simulation the record describes — the record is
    /// dropped and counted (`prof.dropped`) instead, so a chaos drill
    /// (the `prof.append` failpoint standing in for ENOSPC) can assert
    /// that rows keep landing while profiles silently vanish.
    pub fn append(&mut self, line: &str) {
        self.offered += 1;
        let appended = musa_fault::fail_io("prof.append", self.offered)
            .and_then(|()| self.file.write_all(format!("{line}\n").as_bytes()))
            .and_then(|()| self.file.flush());
        if appended.is_err() {
            musa_obs::counter_add("prof.dropped", 1);
        }
    }
}

thread_local! {
    static POINT: RefCell<ThreadPoint> = RefCell::new(ThreadPoint::default());
    static TID: RefCell<u32> = const { RefCell::new(0) };
}

#[derive(Default)]
struct ThreadPoint {
    phases: BTreeMap<&'static str, f64>,
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

/// Install the recorder for a fill: repair whatever an
/// earlier run left (torn tail, duplicate attempts), then append to
/// `<dir>/profiles.jsonl`. Returns the harvest's findings so the
/// caller can report repairs. No-op returning the default report when
/// recording is compiled out.
pub fn install_store_recorder(dir: &Path) -> std::io::Result<HarvestReport> {
    if !crate::COMPILED {
        return Ok(HarvestReport::default());
    }
    let report = harvest(dir)?;
    *SINK.lock().unwrap_or_else(|e| e.into_inner()) = Some(ProfileSink::open(dir)?);
    musa_obs::set_span_listener(Some(on_span));
    ACTIVE.store(true, Ordering::Relaxed);
    Ok(report)
}

/// Tear the recorder down (flushes the file handle on drop). Safe to
/// call when nothing is installed.
pub fn uninstall_recorder() {
    ACTIVE.store(false, Ordering::Relaxed);
    musa_obs::set_span_listener(None);
    *SINK.lock().unwrap_or_else(|e| e.into_inner()) = None;
}

/// Mark the start of a point on this thread. Whatever the thread
/// accumulated since its last point (a batch flush between points) is
/// discarded: a record holds exactly what ran inside its own
/// begin/finish window, trace generation included.
pub fn point_begin() {
    if !recording() {
        return;
    }
    let _ = POINT.try_with(|p| {
        *p.borrow_mut() = ThreadPoint {
            started: Some(Instant::now()),
            start_us: epoch_us(),
            ..ThreadPoint::default()
        };
    });
}

/// Charge `wall_ns` of `phase`, which ran on another thread before this
/// thread's point began, to that point as if it had run inside its
/// window: the phase map and the point's wall time both grow by it.
/// The fill generates each application's trace once, on its calling
/// thread, and the first point to start carries the generation.
pub fn point_carry(phase: &'static str, wall_ns: u64) {
    if !recording() {
        return;
    }
    let _ = POINT.try_with(|p| {
        let mut p = p.borrow_mut();
        *p.phases.entry(phase).or_insert(0.0) += wall_ns as f64;
        let carried = std::time::Duration::from_nanos(wall_ns);
        p.started = p.started.and_then(|s| s.checked_sub(carried));
        p.start_us = p.start_us.saturating_sub(wall_ns / 1000);
    });
}

/// Finish the current thread's point: drain the accumulation into one
/// sealed record line (no newline), append it to the installed sink,
/// and hand it back. `None` when nothing is recording.
pub fn point_finish(
    key: &str,
    app: &str,
    config: &str,
    worker: &str,
    poisoned: bool,
    retries: u32,
) -> Option<String> {
    if !recording() {
        return None;
    }
    let state = POINT
        .try_with(|p| std::mem::take(&mut *p.borrow_mut()))
        .ok()?;
    let wall_ns = state
        .started
        .map(|s| s.elapsed().as_nanos() as u64)
        .unwrap_or(0);
    let profile = PointProfile {
        schema: PROF_SCHEMA,
        key: key.to_string(),
        app: app.to_string(),
        config: config.to_string(),
        worker: worker.to_string(),
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
        peak_rss_kb: peak_rss_kb(),
        phases: state
            .phases
            .into_iter()
            .map(|(k, v)| (k.to_string(), v.max(0.0) as u64))
            .collect(),
    };
    let line = profile.to_line();
    if let Some(sink) = SINK.lock().unwrap_or_else(|e| e.into_inner()).as_mut() {
        sink.append(&line);
    }
    Some(line)
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
    fn recorder_lifecycle_points_and_phases() {
        assert!(enabled_from_env());
        if !crate::COMPILED {
            assert!(!recording());
            // All entry points must be inert no-ops.
            point_begin();
            assert_eq!(point_finish("k", "hydro", "c64", "fill", false, 0), None);
            return;
        }
        let dir = tmp_dir("recorder");

        // Nothing installed: everything is a no-op.
        assert!(!recording());
        point_begin();
        assert_eq!(point_finish("k0", "hydro", "c64", "fill", false, 0), None);

        install_store_recorder(&dir).unwrap();
        assert!(recording());

        // Point 1: spans land in the phase map via the obs listener.
        point_begin();
        {
            let _sp = musa_obs::span_app(musa_obs::phase::DETAILED_SIM, "hydro");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let line = point_finish("k1", "hydro", "c64", "fill", false, 0).expect("recording");

        // A span between points (a batch flush) must not leak into the
        // next point's record.
        drop(musa_obs::span(musa_obs::phase::STORE_FLUSH));

        // Point 2: poisoned flag, attempt number, caller-chosen worker.
        point_begin();
        point_finish("k2", "hydro", "c128", "l0001-a3", true, 3);

        // Full-disk drill: with the `prof.append` failpoint firing,
        // the record is dropped and counted — point_finish stays
        // infallible (the simulation it describes already succeeded).
        if musa_fault::COMPILED {
            musa_fault::set_plan(Some(
                musa_fault::FaultPlan::parse("seed=1,prof.append=io@1.0").unwrap(),
            ));
            point_begin();
            // The line is still handed back: only the append drops.
            assert!(point_finish("k-dropped", "hydro", "c64", "fill", false, 0).is_some());
            musa_fault::set_plan(None);
        }

        // Generation that ran on another thread is carried into the
        // point that takes it, wall time and all.
        point_begin();
        point_carry(musa_obs::phase::TRACE_GEN, 5_000_000);
        let carried = point_finish("k-carry", "hydro", "c64", "fill", false, 0)
            .and_then(|line| PointProfile::parse(&line))
            .expect("recording");
        assert_eq!(carried.phase_ns(musa_obs::phase::TRACE_GEN), 5_000_000);
        assert!(carried.wall_ns >= 5_000_000, "{carried:?}");

        uninstall_recorder();
        assert!(!recording());
        // Post-uninstall points are dropped silently.
        point_begin();
        assert_eq!(point_finish("k3", "hydro", "c64", "fill", false, 0), None);

        let (records, stats) = read_profile_file(&dir.join(PROFILES_FILE)).unwrap();
        assert_eq!(stats.corrupt, 0);
        assert_eq!(stats.torn_tails, 0);
        assert_eq!(records.len(), 3, "{records:?}");
        let p1 = &records[0];
        assert_eq!(PointProfile::parse(&line).as_ref(), Some(p1));
        assert_eq!((p1.key.as_str(), p1.app.as_str()), ("k1", "hydro"));
        assert_eq!(p1.worker, "fill");
        assert_eq!(p1.pid, std::process::id());
        assert!(p1.wall_ns > 0);
        assert!(p1.phase_ns(musa_obs::phase::DETAILED_SIM) > 1_000_000);
        #[cfg(target_os = "linux")]
        assert!(p1.peak_rss_kb > 0);
        let p2 = &records[1];
        assert!(p2.poisoned);
        assert_eq!((p2.retries, p2.worker.as_str()), (3, "l0001-a3"));
        assert_eq!(p2.phase_ns(musa_obs::phase::STORE_FLUSH), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
