//! Hierarchical wall-clock spans over the pipeline phases.
//!
//! A [`SpanGuard`] measures the wall time between its creation and its
//! drop and folds it into the per-(phase, app) aggregate the
//! end-of-run "where did the time go" table is built from
//! ([`crate::report::phase_table`]). Spans nest: each thread keeps a
//! stack of active phase names, and [`current_path`] names the current
//! position (`"detailed-sim/dram"`); events record it so a warning can
//! be placed inside the pipeline without grepping.
//!
//! Spans are active only while [`crate::metrics_enabled`] **or** a
//! [`SpanListener`] is installed — the disabled constructor takes no
//! timestamp and returns an inert guard.
//!
//! The listener hook is how `musa-prof`'s per-point flight recorder
//! taps the span layer without any simulator crate depending on it:
//! every completed span is offered to the installed listener with its
//! phase name, app label and wall time, on the completing thread.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::metrics::{metrics_enabled, record_phase};

/// Canonical phase names of the multiscale pipeline, in flow order.
pub mod phase {
    /// Synthetic two-level trace generation (`musa-apps`).
    pub const TRACE_GEN: &str = "trace-gen";
    /// Detailed µarch simulation of the sampled region (`musa-tasksim`),
    /// including the burst-rescale reference run.
    pub const DETAILED_SIM: &str = "detailed-sim";
    /// Burst-mode baseline makespan of the sampled region (the
    /// denominator of the detailed/burst rescale ratio); nests inside
    /// [`DETAILED_SIM`].
    pub const BURST: &str = "burst";
    /// DRAM command-stream estimation (`musa-mem` accounting).
    pub const DRAM: &str = "dram";
    /// Node power / energy modelling (`musa-power`).
    pub const POWER: &str = "power";
    /// Full-application MPI replay (`musa-net`).
    pub const NET_REPLAY: &str = "net-replay";
    /// Campaign-store serialisation + flush (`musa-store`).
    pub const STORE_FLUSH: &str = "store-flush";
}

thread_local! {
    static STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// A span-completion callback: `(phase, app, wall_ns)`, invoked on the
/// thread the span completed on.
pub type SpanListener = fn(&'static str, &str, f64);

// Fast-path flag + slow-path slot: span construction checks one
// relaxed atomic; only completions of *active* spans take the lock.
static LISTENER_SET: AtomicBool = AtomicBool::new(false);
static LISTENER: Mutex<Option<SpanListener>> = Mutex::new(None);

/// Install (or clear) the process-wide span listener. While one is
/// installed, spans are measured even when the metrics registry is
/// disabled; the registry itself still only records while
/// [`metrics_enabled`].
pub fn set_span_listener(listener: Option<SpanListener>) {
    if !crate::COMPILED {
        return;
    }
    let mut slot = LISTENER.lock().unwrap_or_else(|e| e.into_inner());
    LISTENER_SET.store(listener.is_some(), Ordering::Relaxed);
    *slot = listener;
}

#[inline]
fn listener_active() -> bool {
    LISTENER_SET.load(Ordering::Relaxed)
}

fn notify_listener(phase: &'static str, app: &str, wall_ns: f64) {
    if !listener_active() {
        return;
    }
    let listener = *LISTENER.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(listener) = listener {
        listener(phase, app, wall_ns);
    }
}

/// The `/`-joined stack of active span phases on this thread
/// (`""` when no span is active or instrumentation is off).
pub fn current_path() -> String {
    STACK.try_with(|s| s.borrow().join("/")).unwrap_or_default()
}

/// An active span; records its wall time on drop.
#[derive(Debug)]
pub struct SpanGuard {
    inner: Option<Inner>,
}

#[derive(Debug)]
struct Inner {
    phase: &'static str,
    app: String,
    start: Instant,
    /// Stack depth *after* pushing this span; drop pops back to
    /// `depth - 1` so leaked inner guards cannot corrupt the stack.
    depth: usize,
}

/// Open a span for `phase` with no application label.
#[inline]
pub fn span(phase: &'static str) -> SpanGuard {
    span_app(phase, "")
}

/// Open a span for `phase` attributed to `app`.
#[inline]
pub fn span_app(phase: &'static str, app: &str) -> SpanGuard {
    if !metrics_enabled() && !listener_active() {
        return SpanGuard { inner: None };
    }
    let depth = STACK
        .try_with(|s| {
            let mut s = s.borrow_mut();
            s.push(phase);
            s.len()
        })
        .unwrap_or(0);
    SpanGuard {
        inner: Some(Inner {
            phase,
            app: app.to_string(),
            start: Instant::now(),
            depth,
        }),
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(inner) = self.inner.take() else {
            return;
        };
        let wall_ns = inner.start.elapsed().as_nanos() as f64;
        if inner.depth > 0 {
            let _ = STACK.try_with(|s| {
                let mut s = s.borrow_mut();
                s.truncate(inner.depth.saturating_sub(1));
            });
        }
        if metrics_enabled() {
            record_phase(inner.phase, &inner.app, wall_ns);
        }
        notify_listener(inner.phase, &inner.app, wall_ns);
    }
}
