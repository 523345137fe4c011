//! Columnar in-memory query engine over a loaded campaign.
//!
//! The store is read **once** at startup ([`QueryEngine::open`]); every
//! query after that runs against per-dimension posting lists and
//! per-metric columns — no row rescans, no disk. The engine's selection
//! logic is independent of [`musa_core::Campaign`]'s row-scan paths,
//! but its results are defined to match them exactly (same NaN policy,
//! same `(metric, label)` tie-breaks, same Pareto output order); the
//! end-to-end test holds the two byte-for-byte equal through the shared
//! serialiser.

use std::collections::HashMap;
use std::io;
use std::path::Path;

use musa_core::{pareto_front_indices, ConfigResult, MetricAgg, RowMetric};
use musa_store::{CampaignStore, StoreHealth, DIST_STATUS_FILE, DOCTOR_STATUS_FILE};

/// Number of filterable dimensions ([`Dim::ALL`]).
pub const DIMENSIONS: usize = 7;

/// A filterable dimension of a campaign row: the application plus the
/// six architectural features of Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dim {
    /// Application label (`hydro`, `spmz`, …).
    App,
    /// Cores per node (`1c`, `32c`, `64c`).
    Cores,
    /// Out-of-order class (`low`, `medium`, `high`).
    Class,
    /// L3:L2 cache configuration (`64M:512K`, …).
    Cache,
    /// SIMD width (`256bit`, …).
    Vector,
    /// Clock frequency (`2.0GHz`, …).
    Freq,
    /// Memory subsystem (`4chDDR4`, …).
    Mem,
}

impl Dim {
    /// All dimensions, in query-string order.
    pub const ALL: [Dim; DIMENSIONS] = [
        Dim::App,
        Dim::Cores,
        Dim::Class,
        Dim::Cache,
        Dim::Vector,
        Dim::Freq,
        Dim::Mem,
    ];

    /// The query-string parameter name.
    pub const fn name(self) -> &'static str {
        match self {
            Dim::App => "app",
            Dim::Cores => "cores",
            Dim::Class => "class",
            Dim::Cache => "cache",
            Dim::Vector => "vector",
            Dim::Freq => "freq",
            Dim::Mem => "mem",
        }
    }

    /// Parse a query-string parameter name.
    pub fn parse(s: &str) -> Option<Dim> {
        Dim::ALL.into_iter().find(|d| d.name() == s)
    }

    const fn index(self) -> usize {
        match self {
            Dim::App => 0,
            Dim::Cores => 1,
            Dim::Class => 2,
            Dim::Cache => 3,
            Dim::Vector => 4,
            Dim::Freq => 5,
            Dim::Mem => 6,
        }
    }

    /// The row's value along this dimension, exactly as it appears in
    /// the config label (so filter values are copy-pasteable from
    /// `/rows` output).
    pub fn value_of(self, row: &ConfigResult) -> String {
        match self {
            Dim::App => row.app.clone(),
            Dim::Cores => row.config.cores.to_string(),
            Dim::Class => row.config.core_class.to_string(),
            Dim::Cache => row.config.cache.to_string(),
            Dim::Vector => row.config.vector.to_string(),
            Dim::Freq => row.config.freq.to_string(),
            Dim::Mem => row.config.mem.to_string(),
        }
    }
}

/// A conjunction of per-dimension equality constraints.
#[derive(Debug, Clone, Default)]
pub struct RowFilter {
    values: [Option<String>; DIMENSIONS],
}

impl RowFilter {
    /// The empty filter (matches every row).
    pub fn new() -> RowFilter {
        RowFilter::default()
    }

    /// Builder-style constraint.
    pub fn with(mut self, dim: Dim, value: impl Into<String>) -> RowFilter {
        self.set(dim, value);
        self
    }

    /// Constrain `dim` to exactly `value`.
    pub fn set(&mut self, dim: Dim, value: impl Into<String>) {
        self.values[dim.index()] = Some(value.into());
    }

    /// The constraint on `dim`, if any.
    pub fn get(&self, dim: Dim) -> Option<&str> {
        self.values[dim.index()].as_deref()
    }

    /// `true` when no dimension is constrained.
    pub fn is_empty(&self) -> bool {
        self.values.iter().all(|v| v.is_none())
    }

    /// `(name, value)` pairs of the set constraints, in [`Dim::ALL`] order.
    pub fn entries(&self) -> Vec<(&'static str, &str)> {
        Dim::ALL
            .iter()
            .filter_map(|d| self.get(*d).map(|v| (d.name(), v)))
            .collect()
    }
}

/// The columnar engine: rows decomposed into metric columns and
/// per-dimension posting lists at load time.
pub struct QueryEngine {
    rows: Vec<ConfigResult>,
    labels: Vec<String>,
    /// `columns[m][i]` = metric `RowMetric::ALL[m]` of row `i`.
    columns: Vec<Vec<f64>>,
    /// `postings[d][value]` = ascending row ids with that value.
    postings: Vec<HashMap<String, Vec<u32>>>,
    /// What loading found wrong with the backing store (healthy when
    /// built from in-memory rows).
    health: StoreHealth,
    /// Path of the distributed-campaign status beacon (store opens
    /// only; in-memory engines have none).
    dist_status: Option<std::path::PathBuf>,
    /// Path of the `dse doctor` status beacon (store opens only).
    doctor_status: Option<std::path::PathBuf>,
}

/// Snapshot of the `dse --listen` supervisor's status beacon, read
/// fresh on every `/healthz` (the beacon changes while this process
/// serves, so it is the one thing the engine never caches).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DistStatus {
    /// Remote workers currently connected (post-handshake).
    pub workers: u64,
    /// The supervisor is draining (or has shut the endpoint).
    pub draining: bool,
    /// The beacon has not been refreshed recently — the supervisor is
    /// gone or wedged; `workers`/`draining` describe the past.
    pub stale: bool,
}

/// A beacon older than this is reported stale: the hub rewrites it
/// every ~2s, so a generous multiple distinguishes "supervisor gone"
/// from scheduler jitter.
const DIST_STATUS_STALE_SECS: u64 = 30;

/// Snapshot of the last `dse doctor` integrity pass over the backing
/// store, read fresh on every `/healthz` like [`DistStatus`]. Unlike
/// the dist beacon there is no staleness cutoff — an audit verdict
/// stays meaningful until the next one; `checked_unix` lets callers
/// apply their own freshness policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DoctorStatus {
    /// Worst family grade of the last pass: "ok", "degraded" or
    /// "corrupt".
    pub severity: String,
    /// Whether that pass was a `--repair` (true) or a plain audit.
    pub repaired: bool,
    /// Unix time the pass finished.
    pub checked_unix: u64,
}

impl QueryEngine {
    /// Index a set of results. Row ids are positions in `rows`.
    pub fn new(rows: Vec<ConfigResult>) -> QueryEngine {
        let labels: Vec<String> = rows.iter().map(|r| r.config.label()).collect();
        let columns: Vec<Vec<f64>> = RowMetric::ALL
            .iter()
            .map(|m| rows.iter().map(|r| m.of(r)).collect())
            .collect();
        let mut postings: Vec<HashMap<String, Vec<u32>>> =
            (0..DIMENSIONS).map(|_| HashMap::new()).collect();
        for (i, row) in rows.iter().enumerate() {
            for dim in Dim::ALL {
                postings[dim.index()]
                    .entry(dim.value_of(row))
                    .or_default()
                    .push(i as u32);
            }
        }
        musa_obs::gauge_set("serve.rows_indexed", rows.len() as f64);
        QueryEngine {
            rows,
            labels,
            columns,
            postings,
            health: StoreHealth::default(),
            dist_status: None,
            doctor_status: None,
        }
    }

    /// Load a campaign store read-only and index every row. Corrupt
    /// rows or unreadable shard files do not fail the open: the engine
    /// serves what loaded and reports the damage via [`Self::health`]
    /// (surfaced as `"degraded"` on `/healthz`).
    pub fn open(dir: &Path) -> io::Result<QueryEngine> {
        let store = CampaignStore::open_read_only(dir)?;
        let health = store.health().clone();
        let rows = store.into_rows().into_iter().map(|r| r.result).collect();
        let mut engine = QueryEngine::new(rows);
        engine.health = health;
        engine.dist_status = Some(dir.join(DIST_STATUS_FILE));
        engine.doctor_status = Some(dir.join(DOCTOR_STATUS_FILE));
        Ok(engine)
    }

    /// The distributed-campaign beacon beside the store, if one exists:
    /// `None` for in-memory engines, stores no supervisor ever listened
    /// on, or an unparseable beacon. Stat'd and parsed per call — it is
    /// another process's file and changes underneath us.
    pub fn dist_status(&self) -> Option<DistStatus> {
        let path = self.dist_status.as_ref()?;
        let raw = std::fs::read_to_string(path).ok()?;
        let v = musa_obs::json::JsonValue::parse(&raw).ok()?;
        let updated = v.get("updated_unix").and_then(|u| u.as_u64()).unwrap_or(0);
        let now = std::time::SystemTime::now()
            .duration_since(std::time::SystemTime::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        Some(DistStatus {
            workers: v.get("connected").and_then(|c| c.as_u64()).unwrap_or(0),
            draining: matches!(
                v.get("draining"),
                Some(musa_obs::json::JsonValue::Bool(true))
            ),
            stale: now.saturating_sub(updated) > DIST_STATUS_STALE_SECS,
        })
    }

    /// The last `dse doctor` verdict beside the store, if one exists:
    /// `None` for in-memory engines, stores never audited, or an
    /// unparseable beacon. Read fresh per call like [`Self::dist_status`]
    /// — the doctor runs out-of-process.
    pub fn doctor_status(&self) -> Option<DoctorStatus> {
        let path = self.doctor_status.as_ref()?;
        let raw = std::fs::read_to_string(path).ok()?;
        let v = musa_obs::json::JsonValue::parse(&raw).ok()?;
        Some(DoctorStatus {
            severity: v.get("severity")?.as_str()?.to_string(),
            repaired: matches!(
                v.get("repaired"),
                Some(musa_obs::json::JsonValue::Bool(true))
            ),
            checked_unix: v.get("checked_unix").and_then(|u| u.as_u64()).unwrap_or(0),
        })
    }

    /// Load-time damage report of the backing store.
    pub fn health(&self) -> &StoreHealth {
        &self.health
    }

    /// Number of indexed rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when the campaign is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The row behind an id returned by a query.
    pub fn row(&self, id: u32) -> &ConfigResult {
        &self.rows[id as usize]
    }

    /// The row's config label (precomputed at load).
    pub fn label(&self, id: u32) -> &str {
        &self.labels[id as usize]
    }

    /// One metric of one row, from the column (not the row struct).
    pub fn metric(&self, metric: RowMetric, id: u32) -> f64 {
        self.columns[metric_index(metric)][id as usize]
    }

    /// Distinct values along a dimension, sorted, with row counts.
    pub fn dim_values(&self, dim: Dim) -> Vec<(&str, usize)> {
        let mut out: Vec<(&str, usize)> = self.postings[dim.index()]
            .iter()
            .map(|(v, ids)| (v.as_str(), ids.len()))
            .collect();
        out.sort_unstable();
        out
    }

    /// Row ids matching `filter`, ascending. The empty filter selects
    /// everything; selection is posting-list intersection (smallest
    /// list first), never a row scan.
    pub fn select(&self, filter: &RowFilter) -> Vec<u32> {
        let mut lists: Vec<&[u32]> = Vec::new();
        for dim in Dim::ALL {
            if let Some(value) = filter.get(dim) {
                match self.postings[dim.index()].get(value) {
                    Some(ids) => lists.push(ids),
                    // Unknown value: provably empty selection.
                    None => return Vec::new(),
                }
            }
        }
        if lists.is_empty() {
            return (0..self.rows.len() as u32).collect();
        }
        lists.sort_unstable_by_key(|l| l.len());
        let mut acc: Vec<u32> = lists[0].to_vec();
        for list in &lists[1..] {
            acc = intersect_sorted(&acc, list);
            if acc.is_empty() {
                break;
            }
        }
        acc
    }

    /// The `k` best (lowest) rows by `metric` under `filter`, NaN rows
    /// excluded, ties broken by config label — identical ordering to
    /// [`musa_core::Campaign::top_k`].
    pub fn top_k(&self, filter: &RowFilter, metric: RowMetric, k: usize) -> Vec<u32> {
        let col = &self.columns[metric_index(metric)];
        let mut ids: Vec<u32> = self
            .select(filter)
            .into_iter()
            .filter(|&i| !col[i as usize].is_nan())
            .collect();
        ids.sort_by(|&a, &b| {
            col[a as usize]
                .total_cmp(&col[b as usize])
                .then_with(|| self.labels[a as usize].cmp(&self.labels[b as usize]))
        });
        ids.truncate(k);
        ids
    }

    /// Aggregate of `metric` over the selection (non-finite skipped).
    pub fn aggregate(&self, filter: &RowFilter, metric: RowMetric) -> MetricAgg {
        let col = &self.columns[metric_index(metric)];
        MetricAgg::over(self.select(filter).into_iter().map(|i| col[i as usize]))
    }

    /// Pareto frontier of the selection under (`x_metric`, `y_metric`),
    /// both minimised; output sorted by `(x, y, label)` — identical to
    /// [`musa_core::Campaign::pareto_front`].
    pub fn pareto(&self, filter: &RowFilter, x_metric: RowMetric, y_metric: RowMetric) -> Vec<u32> {
        let xs = &self.columns[metric_index(x_metric)];
        let ys = &self.columns[metric_index(y_metric)];
        let ids = self.select(filter);
        let points: Vec<(f64, f64)> = ids
            .iter()
            .map(|&i| (xs[i as usize], ys[i as usize]))
            .collect();
        let mut front: Vec<u32> = pareto_front_indices(&points)
            .into_iter()
            .map(|p| ids[p])
            .collect();
        front.sort_by(|&a, &b| {
            xs[a as usize]
                .total_cmp(&xs[b as usize])
                .then(ys[a as usize].total_cmp(&ys[b as usize]))
                .then_with(|| self.labels[a as usize].cmp(&self.labels[b as usize]))
        });
        front
    }
}

fn metric_index(metric: RowMetric) -> usize {
    RowMetric::ALL
        .iter()
        .position(|m| *m == metric)
        .expect("RowMetric::ALL covers every variant")
}

/// Intersection of two ascending u32 slices (linear merge).
fn intersect_sorted(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::synthetic_results;
    use musa_apps::AppId;
    use musa_core::Campaign;

    fn engine() -> QueryEngine {
        QueryEngine::new(synthetic_results(64))
    }

    #[test]
    fn select_intersects_dimensions() {
        let e = engine();
        let all = e.select(&RowFilter::new());
        assert_eq!(all.len(), e.len());
        let hydro = e.select(&RowFilter::new().with(Dim::App, "hydro"));
        assert!(!hydro.is_empty() && hydro.len() < e.len());
        for &i in &hydro {
            assert_eq!(e.row(i).app, "hydro");
        }
        let narrowed = e.select(
            &RowFilter::new()
                .with(Dim::App, "hydro")
                .with(Dim::Cores, "64c"),
        );
        assert!(narrowed.len() <= hydro.len());
        for &i in &narrowed {
            assert!(e.label(i).starts_with("64c-"));
        }
        assert!(e
            .select(&RowFilter::new().with(Dim::App, "no-such-app"))
            .is_empty());
    }

    #[test]
    fn engine_matches_campaign_semantics() {
        let rows = synthetic_results(64);
        let campaign = Campaign {
            results: rows.clone(),
        };
        let e = QueryEngine::new(rows);
        for app in [AppId::Hydro, AppId::Lulesh] {
            let filter = RowFilter::new().with(Dim::App, app.label());
            // top-k: same rows in the same order.
            let want: Vec<String> = campaign
                .top_k(app, RowMetric::TimeNs, 5)
                .iter()
                .map(|r| r.config.label())
                .collect();
            let got: Vec<String> = e
                .top_k(&filter, RowMetric::TimeNs, 5)
                .iter()
                .map(|&i| e.label(i).to_string())
                .collect();
            assert_eq!(got, want);
            // Pareto: same frontier in the same order.
            let want: Vec<String> = campaign
                .pareto_front(app, RowMetric::TimeNs, RowMetric::EnergyJ)
                .iter()
                .map(|r| r.config.label())
                .collect();
            let got: Vec<String> = e
                .pareto(&filter, RowMetric::TimeNs, RowMetric::EnergyJ)
                .iter()
                .map(|&i| e.label(i).to_string())
                .collect();
            assert_eq!(got, want);
            // Aggregates agree.
            let want = campaign.aggregate(app, RowMetric::EnergyJ);
            let got = e.aggregate(&filter, RowMetric::EnergyJ);
            assert_eq!(
                (want.count, want.min, want.max),
                (got.count, got.min, got.max)
            );
        }
    }

    #[test]
    fn dim_values_are_sorted_and_complete() {
        let e = engine();
        let apps = e.dim_values(Dim::App);
        assert!(apps.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(apps.iter().map(|(_, n)| n).sum::<usize>(), e.len());
    }

    #[test]
    fn dist_status_reads_the_beacon_fresh_and_flags_staleness() {
        // In-memory engines have no beacon path at all.
        assert_eq!(engine().dist_status(), None);

        let dir =
            std::env::temp_dir().join(format!("musa-serve-diststatus-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let e = QueryEngine::open(&dir).unwrap();
        // Store opens carry the path, but no file yet -> None.
        assert_eq!(e.dist_status(), None);

        let now = std::time::SystemTime::now()
            .duration_since(std::time::SystemTime::UNIX_EPOCH)
            .unwrap()
            .as_secs();
        let beacon = |connected: u64, draining: bool, updated: u64| {
            std::fs::write(
                dir.join(DIST_STATUS_FILE),
                format!(
                    "{{\"addr\":\"127.0.0.1:9\",\"connected\":{connected},\
                     \"draining\":{draining},\"updated_unix\":{updated}}}"
                ),
            )
            .unwrap();
        };
        beacon(2, false, now);
        assert_eq!(
            e.dist_status(),
            Some(DistStatus {
                workers: 2,
                draining: false,
                stale: false
            })
        );
        // The file is re-read per call: a later rewrite is visible
        // without reopening the engine, and an old timestamp is stale.
        beacon(0, true, now - DIST_STATUS_STALE_SECS - 5);
        assert_eq!(
            e.dist_status(),
            Some(DistStatus {
                workers: 0,
                draining: true,
                stale: true
            })
        );
        // Garbage never panics, it just reports nothing.
        std::fs::write(dir.join(DIST_STATUS_FILE), b"not json").unwrap();
        assert_eq!(e.dist_status(), None);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
