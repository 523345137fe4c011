//! The design-space-exploration driver: every configuration × every
//! application, one point after another (a campaign is parallelised
//! across processes — `dse --workers N` — not inside one).

use musa_apps::{generate, AppId, GenParams};
use musa_arch::{DesignSpace, NodeConfig};

use crate::sim::{ConfigResult, MultiscaleSim};

/// One scalar column of a campaign row — the metrics the query layer
/// (`musa-serve`) and the in-process analyses select, rank and
/// aggregate by. [`RowMetric::of`] is the single place a metric name is
/// mapped to a [`ConfigResult`] field, so the HTTP API, the CSV export
/// and `dse report`'s figures can never disagree about what `time_ns`
/// means.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RowMetric {
    /// Full-application parallel runtime, ns.
    TimeNs,
    /// Detailed makespan of the sampled region, ns.
    RegionNs,
    /// Total node power, watts.
    PowerW,
    /// Node energy-to-solution, joules.
    EnergyJ,
    /// L1 misses per kilo-instruction.
    L1Mpki,
    /// L2 MPKI.
    L2Mpki,
    /// L3 MPKI.
    L3Mpki,
    /// DRAM requests per kilo-instruction.
    MemMpki,
}

impl RowMetric {
    /// Every selectable metric, in the order of the CSV columns.
    pub const ALL: [RowMetric; 8] = [
        RowMetric::TimeNs,
        RowMetric::RegionNs,
        RowMetric::PowerW,
        RowMetric::EnergyJ,
        RowMetric::L1Mpki,
        RowMetric::L2Mpki,
        RowMetric::L3Mpki,
        RowMetric::MemMpki,
    ];

    /// Wire name (query-string value, JSON field).
    pub const fn name(self) -> &'static str {
        match self {
            RowMetric::TimeNs => "time_ns",
            RowMetric::RegionNs => "region_ns",
            RowMetric::PowerW => "power_w",
            RowMetric::EnergyJ => "energy_j",
            RowMetric::L1Mpki => "l1_mpki",
            RowMetric::L2Mpki => "l2_mpki",
            RowMetric::L3Mpki => "l3_mpki",
            RowMetric::MemMpki => "mem_mpki",
        }
    }

    /// Parse a wire name.
    pub fn parse(s: &str) -> Option<RowMetric> {
        RowMetric::ALL.into_iter().find(|m| m.name() == s)
    }

    /// The metric's value in one row.
    pub fn of(self, r: &ConfigResult) -> f64 {
        match self {
            RowMetric::TimeNs => r.time_ns,
            RowMetric::RegionNs => r.region_ns,
            RowMetric::PowerW => r.power.total_w(),
            RowMetric::EnergyJ => r.energy_j,
            RowMetric::L1Mpki => r.l1_mpki,
            RowMetric::L2Mpki => r.l2_mpki,
            RowMetric::L3Mpki => r.l3_mpki,
            RowMetric::MemMpki => r.mem_mpki,
        }
    }
}

/// Count/min/max/sum of one metric over a row set (NaN observations are
/// skipped, mirroring [`Campaign::best_for`]). The aggregate half of
/// the `/summary` endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MetricAgg {
    /// Finite observations folded in.
    pub count: usize,
    /// Smallest observation (0 when empty).
    pub min: f64,
    /// Largest observation (0 when empty).
    pub max: f64,
    /// Sum of observations.
    pub sum: f64,
}

impl MetricAgg {
    /// Fold an iterator of values, skipping non-finite ones.
    pub fn over(values: impl IntoIterator<Item = f64>) -> MetricAgg {
        let mut agg = MetricAgg::default();
        for v in values {
            if !v.is_finite() {
                continue;
            }
            if agg.count == 0 {
                agg.min = v;
                agg.max = v;
            } else {
                agg.min = agg.min.min(v);
                agg.max = agg.max.max(v);
            }
            agg.count += 1;
            agg.sum += v;
        }
        agg
    }

    /// Mean observation (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// Indices of the Pareto-optimal (both-coordinates-minimising) points
/// of `points`, sorted by `(x, y, index)` with NaN-safe
/// [`f64::total_cmp`] ordering.
///
/// A point *dominates* another when it is ≤ in both coordinates and
/// strictly < in at least one; the frontier is the non-dominated set.
/// Exact duplicates are all kept (neither dominates the other). Points
/// with a non-finite coordinate are never part of the frontier and
/// never dominate anything.
///
/// This is the kernel under both [`Campaign::pareto_front`] and the
/// `musa-serve` `/pareto` endpoint — one implementation, verified
/// against a brute-force O(n²) dominance check by proptest
/// (`crates/core/tests/pareto.rs`).
pub fn pareto_front_indices(points: &[(f64, f64)]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..points.len())
        .filter(|&i| points[i].0.is_finite() && points[i].1.is_finite())
        .collect();
    order.sort_by(|&a, &b| {
        points[a]
            .0
            .total_cmp(&points[b].0)
            .then_with(|| points[a].1.total_cmp(&points[b].1))
            .then_with(|| a.cmp(&b))
    });
    // Sweep in x-ascending order: a point is on the frontier iff its y
    // is strictly below every y seen so far, or it exactly duplicates
    // the previously kept point (equal x and y — mutual non-dominance).
    let mut front = Vec::new();
    let mut best_y = f64::INFINITY;
    let mut last_kept: Option<(f64, f64)> = None;
    for i in order {
        let (x, y) = points[i];
        if y < best_y || last_kept == Some((x, y)) {
            front.push(i);
            best_y = y;
            last_kept = Some((x, y));
        }
    }
    front
}

/// The dominated hypervolume (S-metric) of a point set in a
/// 2-objective minimisation plane, against an explicit reference
/// point.
///
/// The hypervolume is the area of the region dominated by at least one
/// point and bounded above-right by `reference` — the standard scalar
/// quality indicator for a Pareto front (larger is better; the metric
/// rl-explorer-style search loops maximise). Only points that strictly
/// dominate the reference contribute; points at or beyond the
/// reference in either coordinate, and points with a non-finite
/// coordinate, contribute nothing. Duplicates are counted once.
///
/// Computed by the classic O(n log n) sweep: keep the Pareto-minimal
/// points, walk them in x-ascending (y-descending) order, and sum the
/// rectangles `(ref_x − x_i) × (y_{i−1} − y_i)` with `y_{−1} = ref_y`.
/// Verified against a brute-force grid integration in
/// `crates/core/tests/pareto.rs`.
pub fn dominated_hypervolume(points: &[(f64, f64)], reference: (f64, f64)) -> f64 {
    let (rx, ry) = reference;
    let contributing: Vec<(f64, f64)> = points
        .iter()
        .copied()
        .filter(|&(x, y)| x.is_finite() && y.is_finite() && x < rx && y < ry)
        .collect();
    let mut front: Vec<(f64, f64)> = pareto_front_indices(&contributing)
        .into_iter()
        .map(|i| contributing[i])
        .collect();
    front.sort_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.total_cmp(&b.1)));
    front.dedup();
    let mut hv = 0.0;
    let mut prev_y = ry;
    for (x, y) in front {
        // Along a 2D front sorted by ascending x, y strictly decreases
        // (duplicates removed above), so each point owns the rectangle
        // between its y and the previous point's y.
        hv += (rx - x) * (prev_y - y);
        prev_y = y;
    }
    hv
}

/// A campaign: the result table of a sweep.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Campaign {
    /// One row per (application, configuration).
    pub results: Vec<ConfigResult>,
}

musa_obs::json_struct!(Campaign { results });

impl Campaign {
    /// Rows for one application.
    pub fn for_app(&self, app: AppId) -> impl Iterator<Item = &ConfigResult> {
        self.results.iter().filter(move |r| r.app == app.label())
    }

    /// Find the row for an exact (app, config) pair.
    pub fn get(&self, app: AppId, config: &NodeConfig) -> Option<&ConfigResult> {
        self.results
            .iter()
            .find(|r| r.app == app.label() && &r.config == config)
    }

    /// The fastest configuration for an application (Best-DSE of
    /// Table II), restricted by a filter. Rows with a NaN time are
    /// ignored rather than panicking the sweep.
    pub fn best_for(
        &self,
        app: AppId,
        mut filter: impl FnMut(&NodeConfig) -> bool,
    ) -> Option<&ConfigResult> {
        self.for_app(app)
            .filter(|r| filter(&r.config) && !r.time_ns.is_nan())
            .min_by(|a, b| a.time_ns.total_cmp(&b.time_ns))
    }

    /// The `k` best rows of one application by `metric` (ascending —
    /// every [`RowMetric`] is lower-is-better), deterministically
    /// tie-broken by configuration label. NaN rows are skipped. This is
    /// the reference semantics the `musa-serve` `/best` endpoint must
    /// reproduce byte-for-byte.
    pub fn top_k(&self, app: AppId, metric: RowMetric, k: usize) -> Vec<&ConfigResult> {
        let mut rows: Vec<&ConfigResult> = self
            .for_app(app)
            .filter(|r| !metric.of(r).is_nan())
            .collect();
        rows.sort_by(|a, b| {
            metric
                .of(a)
                .total_cmp(&metric.of(b))
                .then_with(|| a.config.label().cmp(&b.config.label()))
        });
        rows.truncate(k);
        rows
    }

    /// One metric's aggregate over an application's rows.
    pub fn aggregate(&self, app: AppId, metric: RowMetric) -> MetricAgg {
        MetricAgg::over(self.for_app(app).map(|r| metric.of(r)))
    }

    /// The Pareto frontier of one application in the
    /// `(x_metric, y_metric)` plane, both minimised — the paper's
    /// performance vs energy-to-solution trade-off study (§V-D) asks
    /// exactly this with `(TimeNs, EnergyJ)`. Rows are returned sorted
    /// by `(x, y, config label)`; rows with a non-finite coordinate are
    /// excluded (NaN-safe `total_cmp` ordering throughout).
    pub fn pareto_front(
        &self,
        app: AppId,
        x_metric: RowMetric,
        y_metric: RowMetric,
    ) -> Vec<&ConfigResult> {
        let rows: Vec<&ConfigResult> = self.for_app(app).collect();
        let points: Vec<(f64, f64)> = rows
            .iter()
            .map(|r| (x_metric.of(r), y_metric.of(r)))
            .collect();
        let mut front: Vec<&ConfigResult> = pareto_front_indices(&points)
            .into_iter()
            .map(|i| rows[i])
            .collect();
        front.sort_by(|a, b| {
            x_metric
                .of(a)
                .total_cmp(&x_metric.of(b))
                .then_with(|| y_metric.of(a).total_cmp(&y_metric.of(b)))
                .then_with(|| a.config.label().cmp(&b.config.label()))
        });
        front
    }

    /// The dominated hypervolume of one application's rows in the
    /// `(x_metric, y_metric)` plane against an explicit reference
    /// point — the scalar front-quality indicator printed by the `dse`
    /// end-of-run summary and maximised by `musa-search`. See
    /// [`dominated_hypervolume`].
    pub fn hypervolume(
        &self,
        app: AppId,
        x_metric: RowMetric,
        y_metric: RowMetric,
        reference: (f64, f64),
    ) -> f64 {
        let points: Vec<(f64, f64)> = self
            .for_app(app)
            .map(|r| (x_metric.of(r), y_metric.of(r)))
            .collect();
        dominated_hypervolume(&points, reference)
    }

    /// Serialise to JSON.
    pub fn to_json(&self) -> String {
        musa_obs::json::to_string(self)
    }

    /// Deserialise from JSON.
    pub fn from_json(s: &str) -> Result<Self, String> {
        musa_obs::json::from_str(s)
    }
}

/// Sweep options.
#[derive(Debug, Clone, Copy)]
pub struct SweepOptions {
    /// Trace-generation scale.
    pub gen: GenParams,
    /// Run the full-application replay (step 3) for every point. The
    /// per-feature figures only need region times; replay adds the MPI
    /// dimension used by energy-to-solution.
    pub full_replay: bool,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            gen: GenParams::small(),
            full_replay: true,
        }
    }
}

/// Run one application over a set of configurations.
pub fn sweep_app(app: AppId, configs: &[NodeConfig], opts: &SweepOptions) -> Vec<ConfigResult> {
    sweep_app_cached(app, configs, opts, None)
}

/// [`sweep_app`] with an optional artifact cache: the trace is loaded
/// from (or generated into) the cache, and every point's detailed
/// window and burst baseline go through it too. `None` degrades to the
/// plain compute-everything sweep — rows are byte-identical either way.
pub fn sweep_app_cached(
    app: AppId,
    configs: &[NodeConfig],
    opts: &SweepOptions,
    cache: Option<&std::sync::Arc<musa_cache::ArtifactCache>>,
) -> Vec<ConfigResult> {
    let (trace, trace_key) = match cache {
        Some(cache) => {
            let (t, k) = cache.trace(app, &opts.gen);
            (t, Some(k))
        }
        None => {
            let _gen = musa_obs::span_app(musa_obs::phase::TRACE_GEN, app.label());
            (std::sync::Arc::new(generate(app, &opts.gen)), None)
        }
    };
    musa_obs::debug(
        "musa-core",
        "trace ready",
        &[
            ("app", app.label().into()),
            ("configs", configs.len().into()),
            ("cached", cache.is_some().into()),
        ],
    );
    let mut sim = MultiscaleSim::new(&trace);
    if let (Some(cache), Some(key)) = (cache, trace_key) {
        sim = sim.with_cache(std::sync::Arc::clone(cache), key);
    }
    configs
        .iter()
        .map(|cfg| sim.simulate(*cfg, opts.full_replay))
        .collect()
}

/// Run the full 864-point design space for the given applications.
pub fn run_design_space(apps: &[AppId], opts: &SweepOptions) -> Campaign {
    let configs = DesignSpace::all();
    let mut results = Vec::with_capacity(apps.len() * configs.len());
    for &app in apps {
        results.extend(sweep_app(app, &configs, opts));
    }
    Campaign { results }
}

#[cfg(test)]
mod tests {
    use super::*;
    use musa_arch::{CacheConfig, CoreClass, CoresPerNode, Frequency, MemConfig, VectorWidth};

    fn small_configs() -> Vec<NodeConfig> {
        // A 2×2 slice of the space.
        let mut v = Vec::new();
        for vector in [VectorWidth::V128, VectorWidth::V512] {
            for mem in MemConfig::DSE {
                v.push(NodeConfig {
                    cores: CoresPerNode::C32,
                    core_class: CoreClass::High,
                    cache: CacheConfig::C64M512K,
                    vector,
                    freq: Frequency::F2_0,
                    mem,
                });
            }
        }
        v
    }

    #[test]
    fn sweep_produces_one_row_per_config() {
        let opts = SweepOptions {
            gen: GenParams::tiny(),
            full_replay: false,
        };
        let rows = sweep_app(AppId::Hydro, &small_configs(), &opts);
        assert_eq!(rows.len(), 4);
        let labels: std::collections::HashSet<String> =
            rows.iter().map(|r| r.config.label()).collect();
        assert_eq!(labels.len(), 4);
    }

    #[test]
    fn campaign_lookup_and_best() {
        let opts = SweepOptions {
            gen: GenParams::tiny(),
            full_replay: false,
        };
        let configs = small_configs();
        let campaign = Campaign {
            results: sweep_app(AppId::Spmz, &configs, &opts),
        };
        assert!(campaign.get(AppId::Spmz, &configs[0]).is_some());
        assert!(campaign.get(AppId::Hydro, &configs[0]).is_none());
        let best = campaign.best_for(AppId::Spmz, |_| true).unwrap();
        // SPMZ's best slice must use 512-bit SIMD.
        assert_eq!(best.config.vector, VectorWidth::V512);
    }

    #[test]
    fn best_for_ignores_nan_rows() {
        let opts = SweepOptions {
            gen: GenParams::tiny(),
            full_replay: false,
        };
        let configs = small_configs();
        let mut campaign = Campaign {
            results: sweep_app(AppId::Hydro, &configs, &opts),
        };
        // Poison one row with a NaN time: best_for must neither panic
        // nor select it.
        campaign.results[0].time_ns = f64::NAN;
        let poisoned = campaign.results[0].config;
        let best = campaign.best_for(AppId::Hydro, |_| true).unwrap();
        assert!(best.time_ns.is_finite());
        assert_ne!(best.config, poisoned);
        // A filter that only admits the NaN row finds nothing.
        assert!(campaign
            .best_for(AppId::Hydro, |c| *c == poisoned)
            .is_none());
    }

    #[test]
    fn row_metric_names_roundtrip() {
        for m in RowMetric::ALL {
            assert_eq!(RowMetric::parse(m.name()), Some(m));
        }
        assert_eq!(RowMetric::parse("watts"), None);
    }

    #[test]
    fn metric_agg_skips_non_finite() {
        let agg = MetricAgg::over([3.0, f64::NAN, 1.0, f64::INFINITY, 2.0]);
        assert_eq!(agg.count, 3);
        assert_eq!(agg.min, 1.0);
        assert_eq!(agg.max, 3.0);
        assert_eq!(agg.sum, 6.0);
        assert_eq!(agg.mean(), 2.0);
        let empty = MetricAgg::over([]);
        assert_eq!(empty.count, 0);
        assert_eq!(empty.mean(), 0.0);
    }

    #[test]
    fn pareto_kernel_basics() {
        // A staircase plus dominated and NaN points.
        let pts = [
            (1.0, 9.0),           // 0: frontier
            (2.0, 5.0),           // 1: frontier
            (2.0, 6.0),           // 2: dominated by 1 (equal x, larger y)
            (3.0, 5.0),           // 3: dominated by 1 (larger x, equal y)
            (4.0, 1.0),           // 4: frontier
            (5.0, 2.0),           // 5: dominated by 4
            (f64::NAN, 0.0),      // 6: excluded
            (0.0, f64::INFINITY), // 7: excluded
        ];
        assert_eq!(pareto_front_indices(&pts), vec![0, 1, 4]);
        // Exact duplicates are mutually non-dominating: both stay.
        let dup = [(1.0, 2.0), (1.0, 2.0), (2.0, 2.0)];
        assert_eq!(pareto_front_indices(&dup), vec![0, 1]);
        assert_eq!(pareto_front_indices(&[]), Vec::<usize>::new());
    }

    #[test]
    fn campaign_pareto_front_and_top_k() {
        let opts = SweepOptions {
            gen: GenParams::tiny(),
            full_replay: false,
        };
        let configs = small_configs();
        let campaign = Campaign {
            results: sweep_app(AppId::Hydro, &configs, &opts),
        };
        let front = campaign.pareto_front(AppId::Hydro, RowMetric::TimeNs, RowMetric::EnergyJ);
        assert!(!front.is_empty() && front.len() <= configs.len());
        // Frontier is sorted by time and strictly improving in energy.
        for w in front.windows(2) {
            assert!(w[0].time_ns <= w[1].time_ns);
            assert!(w[0].energy_j > w[1].energy_j);
        }
        // The global best-time row is always on the frontier.
        let best = campaign.best_for(AppId::Hydro, |_| true).unwrap();
        assert!(front.iter().any(|r| r.config == best.config));
        // top_k(1) agrees with best_for, and k caps the length.
        let top = campaign.top_k(AppId::Hydro, RowMetric::TimeNs, 1);
        assert_eq!(top[0].config, best.config);
        assert_eq!(campaign.top_k(AppId::Hydro, RowMetric::TimeNs, 99).len(), 4);
        // Unknown app selects nothing.
        assert!(campaign
            .pareto_front(AppId::Spmz, RowMetric::TimeNs, RowMetric::EnergyJ)
            .is_empty());
    }

    #[test]
    fn campaign_json_roundtrip() {
        let opts = SweepOptions {
            gen: GenParams::tiny(),
            full_replay: false,
        };
        let campaign = Campaign {
            results: sweep_app(AppId::Lulesh, &small_configs()[..1], &opts),
        };
        // Floats are written shortest-round-trip: bit-for-bit equal.
        assert_eq!(Campaign::from_json(&campaign.to_json()).unwrap(), campaign);
    }
}
