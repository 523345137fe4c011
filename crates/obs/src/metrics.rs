//! The metrics registry: named counters, gauges and histograms, plus
//! the per-(phase, app) wall-clock aggregates fed by [`crate::span`].
//!
//! ## Sharding
//!
//! Every thread owns a private shard (`Arc<Mutex<ShardData>>`). Updates
//! lock only the calling thread's own shard — an uncontended lock on a
//! cache line no other thread writes — so a multi-threaded hot loop never
//! bounces a shared atomic between cores. Shards register themselves in
//! a global list on first use and **merge into the global base when the
//! thread exits** (the thread-local's `Drop`); a [`snapshot`] folds the
//! base with every still-live shard, so totals are exact at any point,
//! not only after threads exit.
//!
//! ## Disabled path
//!
//! With metrics off (the default) every update is
//! `if !enabled { return }` on one relaxed atomic load —
//! `benches/overhead.rs` pins this down.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use crate::report::{HistSummary, MetricsSnapshot, PhaseRow, METRICS_SCHEMA};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Is the metrics registry recording? One relaxed load.
#[inline]
pub fn metrics_enabled() -> bool {
    crate::COMPILED && ENABLED.load(Ordering::Relaxed)
}

/// Turn the metrics registry (and spans) on or off.
pub fn enable_metrics(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Power-of-two histogram: bucket `i` counts values in `[2^(i-1), 2^i)`.
pub(crate) const HIST_BUCKETS: usize = 40;

#[derive(Clone, Debug)]
pub(crate) struct Hist {
    pub count: u64,
    pub sum: f64,
    pub min: f64,
    pub max: f64,
    pub buckets: [u64; HIST_BUCKETS],
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            buckets: [0; HIST_BUCKETS],
        }
    }
}

impl Hist {
    fn observe(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        let idx = if v < 1.0 {
            0
        } else {
            (64 - (v as u64).leading_zeros() as usize).min(HIST_BUCKETS - 1)
        };
        self.buckets[idx] += 1;
    }

    fn merge(&mut self, other: &Hist) {
        if other.count == 0 {
            return;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += *b;
        }
    }
}

#[derive(Clone, Copy, Debug, Default)]
struct PhaseAgg {
    wall_ns: f64,
    count: u64,
}

/// One thread's private slice of the registry.
#[derive(Default)]
struct ShardData {
    counters: HashMap<&'static str, u64>,
    gauges: HashMap<&'static str, f64>,
    hists: HashMap<&'static str, Hist>,
    /// Keyed by (phase, app-label); `""` = not app-specific.
    phases: HashMap<(&'static str, String), PhaseAgg>,
}

impl ShardData {
    fn merge_from(&mut self, other: &ShardData) {
        for (k, v) in &other.counters {
            *self.counters.entry(k).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            self.gauges.insert(k, *v);
        }
        for (k, h) in &other.hists {
            self.hists.entry(k).or_default().merge(h);
        }
        for (k, p) in &other.phases {
            let e = self.phases.entry(k.clone()).or_default();
            e.wall_ns += p.wall_ns;
            e.count += p.count;
        }
    }

    fn clear(&mut self) {
        self.counters.clear();
        self.gauges.clear();
        self.hists.clear();
        self.phases.clear();
    }
}

struct Global {
    /// Data from threads that already exited (merged on drop).
    base: ShardData,
    /// Still-live per-thread shards.
    shards: Vec<Arc<Mutex<ShardData>>>,
}

fn global() -> &'static Mutex<Global> {
    static G: OnceLock<Mutex<Global>> = OnceLock::new();
    G.get_or_init(|| {
        Mutex::new(Global {
            base: ShardData::default(),
            shards: Vec::new(),
        })
    })
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// The thread-local handle. Registers the shard on creation and merges
/// it into the global base on thread exit.
struct LocalShard {
    data: Arc<Mutex<ShardData>>,
}

impl LocalShard {
    fn new() -> LocalShard {
        let data = Arc::new(Mutex::new(ShardData::default()));
        lock(global()).shards.push(Arc::clone(&data));
        LocalShard { data }
    }
}

impl Drop for LocalShard {
    fn drop(&mut self) {
        let mut g = lock(global());
        {
            let d = lock(&self.data);
            g.base.merge_from(&d);
        }
        g.shards.retain(|s| !Arc::ptr_eq(s, &self.data));
    }
}

thread_local! {
    static LOCAL: LocalShard = LocalShard::new();
}

/// Run `f` on the calling thread's shard. Silently drops the update if
/// the thread-local is already destructing (thread teardown).
fn with_local(f: impl FnOnce(&mut ShardData)) {
    let _ = LOCAL.try_with(|l| {
        let mut d = lock(&l.data);
        f(&mut d);
    });
}

/// Add `delta` to the named counter.
#[inline]
pub fn counter_add(name: &'static str, delta: u64) {
    if !metrics_enabled() {
        return;
    }
    with_local(|d| *d.counters.entry(name).or_insert(0) += delta);
}

/// Set the named gauge (last write wins; merge order across threads is
/// unspecified, so gauges are for run-level values, not per-point ones).
#[inline]
pub fn gauge_set(name: &'static str, value: f64) {
    if !metrics_enabled() {
        return;
    }
    with_local(|d| {
        d.gauges.insert(name, value);
    });
}

/// Record one observation in the named histogram.
#[inline]
pub fn hist_observe(name: &'static str, value: f64) {
    if !metrics_enabled() {
        return;
    }
    with_local(|d| d.hists.entry(name).or_default().observe(value));
}

/// Record a completed span: `wall_ns` of `phase` for `app` (`""` when
/// not app-specific). Called by [`crate::span::SpanGuard`]'s drop.
pub(crate) fn record_phase(phase: &'static str, app: &str, wall_ns: f64) {
    if !metrics_enabled() {
        return;
    }
    with_local(|d| {
        let e = d.phases.entry((phase, app.to_string())).or_default();
        e.wall_ns += wall_ns;
        e.count += 1;
    });
}

/// Fold the global base with every live thread shard into a snapshot.
/// Exact at any moment: values recorded before the call are all visible.
pub fn snapshot() -> MetricsSnapshot {
    let mut snap = MetricsSnapshot {
        schema: METRICS_SCHEMA,
        ..MetricsSnapshot::default()
    };
    if !crate::COMPILED {
        return snap;
    }
    let g = lock(global());
    let mut merged = ShardData::default();
    merged.merge_from(&g.base);
    for shard in &g.shards {
        let d = lock(shard);
        merged.merge_from(&d);
    }
    drop(g);

    for (k, v) in merged.counters {
        snap.counters.insert(k.to_string(), v);
    }
    for (k, v) in merged.gauges {
        snap.gauges.insert(k.to_string(), v);
    }
    for (k, h) in merged.hists {
        snap.histograms.insert(k.to_string(), HistSummary::from(&h));
    }
    let mut phases: Vec<PhaseRow> = merged
        .phases
        .into_iter()
        .map(|((phase, app), agg)| PhaseRow {
            phase: phase.to_string(),
            app,
            wall_ns: agg.wall_ns,
            count: agg.count,
        })
        .collect();
    phases.sort_by(|a, b| a.phase.cmp(&b.phase).then_with(|| a.app.cmp(&b.app)));
    snap.phases = phases;
    snap
}

/// Clear every recorded value (base **and** live shards). Test support;
/// racing writers may land updates after the clear.
pub fn reset_metrics() {
    if !crate::COMPILED {
        return;
    }
    let mut g = lock(global());
    g.base.clear();
    for shard in &g.shards {
        lock(shard).clear();
    }
}

impl From<&Hist> for HistSummary {
    fn from(h: &Hist) -> HistSummary {
        HistSummary {
            count: h.count,
            sum: h.sum,
            min: if h.count == 0 { 0.0 } else { h.min },
            max: if h.count == 0 { 0.0 } else { h.max },
            buckets: h.buckets.to_vec(),
        }
    }
}
