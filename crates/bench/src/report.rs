//! `dse report`: every committed file under `results/` from one
//! campaign. Each entry of [`ENTRIES`] names one file (`table1`,
//! `fig01_mpki` … `fig11_unconventional`, `dse_results`, `fidelity`) and
//! renders it from the campaign `dse` just filled and the scale it ran
//! at. Figs. 1–4 and 11 simulate their own handful of points from the
//! [`GenParams`]; Figs. 5–10 and the CSV read the campaign.
//!
//! `fidelity` scores the reproduction against the paper: one row per
//! number EXPERIMENTS.md compares (Fig. 1 statistics, Fig. 2
//! efficiencies, the Figs. 5–9 per-app ratios, Table II / Fig. 11 and the
//! §V energy and power claims), each with the paper's value, ours, the
//! relative error and a tolerance, closed by one aggregate.
//!
//! Every shape the paper states outright is asserted while rendering: a
//! figure that contradicts the paper panics, and `dse report` renders
//! every entry before it writes any file.

use std::fmt::Write as _;

use musa_apps::{generate, AppId, GenParams};
use musa_arch::space::Unconventional;
use musa_arch::{
    CacheConfig, CoreClass, CoresPerNode, DesignSpace, Feature, Frequency, MemConfig, NodeConfig,
    VectorWidth, UNCONVENTIONAL_LULESH, UNCONVENTIONAL_SPMZ,
};
use musa_core::pca::{pca_of_results, PCA_VARS};
use musa_core::report::{campaign_csv, core_occupancy, occupancy_fraction, table};
use musa_core::{
    feature_impact, full_app_scaling, mean_efficiency, panel_rows, region_scaling, Campaign,
    ConfigResult, Metric, MultiscaleSim, ScalingCurve, SCALING_CORES,
};
use musa_net::{render_rank_timeline, replay_with_timelines, BurstTimer, NetworkParams};
use musa_tasksim::simulate_region_burst;

/// How one committed file is rendered: from the campaign `dse` filled
/// and the trace scale it ran at.
pub type Render = fn(&Campaign, &GenParams) -> String;

/// Every file `dse report` writes under `results/`, in the paper's
/// order. An entry's name is its file name without the extension.
pub const ENTRIES: &[(&str, Render)] = &[
    ("table1.txt", |_, _| table1()),
    ("fig01_mpki.txt", |_, gen| fig01_mpki(gen)),
    ("fig02_scaling.txt", |_, gen| fig02_scaling(gen)),
    ("fig03_timeline.txt", |_, gen| fig03_timeline(gen)),
    ("fig04_mpi_timeline.txt", |_, gen| fig04_mpi_timeline(gen)),
    ("fig05_vector.txt", |c, _| feature_figure(c, &VECTOR)),
    ("fig06_cache.txt", |c, _| feature_figure(c, &CACHE)),
    ("fig07_ooo.txt", |c, _| feature_figure(c, &OOO)),
    ("fig08_memchannels.txt", |c, _| feature_figure(c, &MEMORY)),
    ("fig09_frequency.txt", |c, _| feature_figure(c, &FREQUENCY)),
    ("fig10_pca.txt", |c, _| fig10_pca(c)),
    ("fig11_unconventional.txt", |_, gen| {
        fig11_unconventional(gen)
    }),
    ("dse_results.csv", |c, _| campaign_csv(c)),
    ("fidelity.txt", fidelity),
];

/// Format an `Option<f64>` table cell.
fn cell(v: Option<f64>) -> String {
    v.map(|x| format!("{x:.3}")).unwrap_or_else(|| "-".into())
}

/// Table I: the architectural parameter space, and a check that its
/// cartesian product is exactly 864 points.
fn table1() -> String {
    let mut out = String::from("== Table I: simulation architectural parameters ==\n\n");
    out.push_str("L3:L2 caches (size / associativity / latency):\n");
    let rows: Vec<Vec<String>> = CacheConfig::ALL
        .iter()
        .map(|c| {
            let (l3, l2) = (c.l3(), c.l2());
            vec![
                c.label().to_string(),
                format!(
                    "{}MB / {} / {}",
                    l3.size_bytes >> 20,
                    l3.assoc,
                    l3.latency_cycles
                ),
                format!(
                    "{}kB / {} / {}",
                    l2.size_bytes >> 10,
                    l2.assoc,
                    l2.latency_cycles
                ),
            ]
        })
        .collect();
    let _ = writeln!(out, "{}", table(&["label", "L3", "L2"], &rows));

    out.push_str("Core OoO classes:\n");
    let rows: Vec<Vec<String>> = CoreClass::ALL
        .iter()
        .map(|c| {
            let o = c.ooo();
            vec![
                c.label().to_string(),
                o.rob.to_string(),
                o.issue_width.to_string(),
                o.store_buffer.to_string(),
                format!("{} / {}", o.alus, o.fpus),
                format!("{} / {}", o.int_rf, o.fp_rf),
            ]
        })
        .collect();
    let header = [
        "label",
        "ROB",
        "issue&commit",
        "store buffer",
        "#ALU/#FPU",
        "IRF/FRF",
    ];
    let _ = writeln!(out, "{}", table(&header, &rows));

    out.push_str("Other parameters:\n");
    fn joined<T>(values: &[T], label: impl Fn(&T) -> String) -> String {
        values.iter().map(label).collect::<Vec<_>>().join(", ")
    }
    let rows = vec![
        vec![
            "Frequency [GHz]".to_string(),
            joined(&Frequency::ALL, |f| f.label().to_string()),
        ],
        vec![
            "Vector width [bits]".to_string(),
            joined(&VectorWidth::DSE, |w| w.label().to_string()),
        ],
        vec![
            "Memory [DDR4-2400]".to_string(),
            joined(&MemConfig::DSE, |m| m.label().to_string()),
        ],
        vec![
            "Number of cores".to_string(),
            joined(&CoresPerNode::ALL, |c| c.count().to_string()),
        ],
    ];
    let _ = writeln!(out, "{}", table(&["parameter", "values"], &rows));

    let n = DesignSpace::iter().count();
    let _ = writeln!(out, "design-space size: {n} configurations per application");
    assert_eq!(n, 864, "Table I must enumerate 864 points");
    out.push_str("paper: 864  -> MATCH\n");
    out
}

/// Fig. 1: L1/L2/L3 MPKI and giga-memory-requests per second at the
/// reference configuration, 32 and 64 cores.
fn fig01_mpki(gen: &GenParams) -> String {
    let mut out = String::new();
    for cores in [CoresPerNode::C32, CoresPerNode::C64] {
        let _ = writeln!(
            out,
            "== Fig. 1: {} cores × {} ranks ==",
            cores.count(),
            gen.ranks
        );
        let mut rows = Vec::new();
        for app in AppId::ALL {
            let r = fig01_point(app, cores, gen);
            rows.push(vec![
                app.label().to_string(),
                format!("{:.2}", r.l1_mpki),
                format!("{:.2}", r.l2_mpki),
                format!("{:.2}", r.mem_mpki),
                format!("{:.3}", r.gmemreq_per_s),
            ]);
        }
        let header = ["app", "L1-MPKI", "L2-MPKI", "mem-MPKI(+wb)", "G-MemReq/s"];
        let _ = writeln!(out, "{}", table(&header, &rows));
    }
    out.push_str("shape checks: spmz tops L1; lulesh mem-MPKI > its L2-MPKI;\n");
    out.push_str("hydro lowest memory traffic; spec3d & lulesh highest G-Req/s.\n");
    out
}

/// The Fig. 1 point of `app`: the sampled region alone at the reference
/// configuration with `cores` cores and 128-bit vectors.
fn fig01_point(app: AppId, cores: CoresPerNode, gen: &GenParams) -> ConfigResult {
    let trace = generate(app, gen);
    let cfg = NodeConfig::REFERENCE
        .with_cores(cores)
        .with_vector(VectorWidth::V128);
    MultiscaleSim::new(&trace).simulate(cfg, false)
}

/// Fig. 2's two studies, one curve per application: (a) one compute
/// region, (b) the whole application with MPI.
fn scaling_curves(gen: &GenParams) -> [Vec<ScalingCurve>; 2] {
    [region_scaling, full_app_scaling]
        .map(|study| AppId::ALL.iter().map(|&a| study(a, gen)).collect())
}

/// Fig. 2 and §V-A: hardware-agnostic scaling of (a) one compute region
/// and (b) the whole application with MPI, and the mean efficiencies.
fn fig02_scaling(gen: &GenParams) -> String {
    fn curves(out: &mut String, curves: &[ScalingCurve]) {
        let rows: Vec<Vec<String>> = curves
            .iter()
            .map(|c| {
                let mut row = vec![c.app.clone()];
                for n in SCALING_CORES {
                    row.push(format!("{:.1}", c.speedup(n.count()).unwrap_or(0.0)));
                }
                row.push(format!("{:.0} %", 100.0 * c.efficiency(64).unwrap_or(0.0)));
                row
            })
            .collect();
        let header = ["app", "S(1)", "S(32)", "S(64)", "eff@64"];
        let _ = writeln!(out, "{}", table(&header, &rows));
    }
    let [region, full] = scaling_curves(gen);
    let mut out = String::from("== Fig. 2a: single compute region (burst mode) ==\n");
    curves(&mut out, &region);
    out.push_str("== Fig. 2b: full application incl. MPI ==\n");
    curves(&mut out, &full);

    out.push_str("mean parallel efficiency:\n");
    let row = |study: &str, curves: &[ScalingCurve], paper: &str| {
        vec![
            study.to_string(),
            format!("{:.0} %", 100.0 * mean_efficiency(curves, 32)),
            format!("{:.0} %", 100.0 * mean_efficiency(curves, 64)),
            format!("paper: {paper}"),
        ]
    };
    let rows = vec![
        row("compute region", &region, "70 % / 50 %"),
        row("full app (MPI)", &full, "49 % / 28 %"),
    ];
    let _ = writeln!(
        out,
        "{}",
        table(&["study", "@32", "@64", "reference"], &rows)
    );
    out
}

/// Fig. 3: Specfem3D's thread occupancy at 64 cores — most cores never
/// run a task.
fn fig03_timeline(gen: &GenParams) -> String {
    let trace = generate(AppId::Spec3d, gen);
    let region = trace.sampled_region().expect("sampled region");
    let schedule = simulate_region_burst(region, 64);

    let mut out = String::from("== Fig. 3: Specfem3D task occupancy, 64 cores ==\n");
    out.push_str("(X = time; '#' executing a task, '.' idle)\n\n");
    out.push_str(&core_occupancy(&schedule, 100));
    let frac = occupancy_fraction(&schedule);
    let _ = writeln!(
        out,
        "\ncores that ever executed a task: {:.0} %",
        frac * 100.0
    );
    let _ = writeln!(
        out,
        "region parallel efficiency: {:.0} %",
        schedule.parallel_efficiency() * 100.0
    );
    out.push_str("paper: most CPUs idle for the whole region (few coloured rows)\n");
    assert!(frac < 0.5, "Specfem3D must starve most cores");
    out
}

/// Fig. 4: LULESH's rank timeline — barrier waits from load imbalance
/// dominate its MPI time.
fn fig04_mpi_timeline(gen: &GenParams) -> String {
    let trace = generate(AppId::Lulesh, gen);
    let (res, timelines) = replay_with_timelines(
        &trace,
        &NetworkParams::marenostrum4(),
        &mut BurstTimer { cores: 64 },
    );

    let mut out = String::from("== Fig. 4: LULESH MPI/compute timeline (first 24 ranks) ==\n");
    out.push_str("('#' compute, '.' blocked at sync, '-' transfer)\n\n");
    out.push_str(&render_rank_timeline(res.total_ns, &timelines, 24, 100));
    let _ = writeln!(
        out,
        "\nmean MPI fraction: {:.1} %  (wait share of MPI: {:.0} %)",
        res.mpi_fraction() * 100.0,
        res.wait_share_of_mpi() * 100.0
    );
    out.push_str("paper: message passing is minimal; barrier waits from rank\n");
    out.push_str("load imbalance dominate the MPI time.\n");
    assert!(
        res.wait_share_of_mpi() > 0.5,
        "waits must dominate LULESH MPI time"
    );
    out
}

/// One §V-B feature figure (Figs. 5–9): the feature swept, its values
/// in panel order, the value everything is normalised to, and what the
/// paper reads off it.
struct FeatureFigure {
    feature: Feature,
    labels: &'static [&'static str],
    baseline: &'static str,
    title: &'static str,
    note: &'static str,
}

const VECTOR: FeatureFigure = FeatureFigure {
    feature: Feature::Vector,
    labels: &["128bit", "256bit", "512bit"],
    baseline: "128bit",
    title: "Fig. 5: FPU vector width",
    note: "paper: hydro +20 %, spmz +75 % at 512-bit; lulesh flat;\n\
           core power ≈+60 % at 512-bit.",
};

const CACHE: FeatureFigure = FeatureFigure {
    feature: Feature::Cache,
    labels: &["32M:256K", "64M:512K", "96M:1M"],
    baseline: "32M:256K",
    title: "Fig. 6: L3:L2 cache configuration",
    note: "paper: modest speedups for cache-fitting codes, spec3d flat,\n\
           steeply growing L2+L3 power share.",
};

const OOO: FeatureFigure = FeatureFigure {
    feature: Feature::CoreClass,
    labels: &["aggressive", "high", "medium", "lowend"],
    baseline: "aggressive",
    title: "Fig. 7: core OoO capabilities",
    note: "paper: spec3d most OoO-sensitive; lulesh least (memory-bound);\n\
           medium/high are the energy-efficient design points.",
};

const MEMORY: FeatureFigure = FeatureFigure {
    feature: Feature::Memory,
    labels: &["4chDDR4", "8chDDR4"],
    baseline: "4chDDR4",
    title: "Fig. 8: DDR4 memory channels",
    note: "paper: lulesh is the only winner; spec3d flat despite its\n\
           bandwidth appetite (no concurrency to expose it).",
};

const FREQUENCY: FeatureFigure = FeatureFigure {
    feature: Feature::Frequency,
    labels: &["1.5GHz", "2.0GHz", "2.5GHz", "3.0GHz"],
    baseline: "1.5GHz",
    title: "Fig. 9: CPU clock frequency",
    note: "paper: linear scaling except HYDRO above 2.5 GHz (spawn-rate\n\
           bound); power grows ≈2.5x from 1.5 to 3.0 GHz.",
};

/// The three panels of a feature figure (speedup, power components,
/// energy-to-solution), per application, normalised to its baseline.
fn feature_figure(campaign: &Campaign, fig: &FeatureFigure) -> String {
    let mut out = format!("== {} ==\n\n", fig.title);
    for (metric, name) in [
        (Metric::Speedup, "performance speedup"),
        (Metric::Power, "node power"),
        (Metric::PowerCore, "core+L1 power"),
        (Metric::PowerCache, "L2+L3 power"),
        (Metric::PowerMem, "memory power"),
        (Metric::Energy, "energy-to-solution"),
    ] {
        let _ = writeln!(out, "--- {name} (normalised to {}) ---", fig.baseline);
        let mut rows = Vec::new();
        for app in AppId::ALL {
            let results: Vec<_> = campaign.for_app(app).cloned().collect();
            let impact = feature_impact(&results, fig.feature, metric, fig.baseline);
            for (label, m32, m64) in panel_rows(&impact, fig.labels) {
                rows.push(vec![app.label().to_string(), label, cell(m32), cell(m64)]);
            }
        }
        let header = ["app", "value", "@32 cores", "@64 cores"];
        let _ = writeln!(out, "{}", table(&header, &rows));
    }
    let _ = writeln!(out, "{}", fig.note);
    out
}

/// Fig. 10: PCA over the 2 GHz / 64-core subset for HYDRO and LULESH,
/// with the sign on PC0 the paper reads for each.
fn fig10_pca(campaign: &Campaign) -> String {
    let mut out = String::new();
    for (app, var) in [(AppId::Hydro, "OoO struct."), (AppId::Lulesh, "Mem. BW")] {
        let subset: Vec<_> = campaign
            .for_app(app)
            .filter(|r| r.config.freq == Frequency::F2_0 && r.config.cores == CoresPerNode::C64)
            .cloned()
            .collect();
        assert_eq!(subset.len(), 72, "2 GHz / 64-core subset");
        let p = pca_of_results(&subset);

        let _ = writeln!(
            out,
            "== Fig. 10: PCA for {app} (72 configs, 2 GHz, 64 cores) =="
        );
        let _ = writeln!(
            out,
            "PC0 explains {:.1} % of variance, PC1 {:.1} %\n",
            100.0 * p.explained(0),
            100.0 * p.explained(1)
        );
        let loading = |pc, var| p.loading(pc, var).expect("a PCA_VARS name");
        let rows: Vec<Vec<String>> = PCA_VARS
            .iter()
            .map(|v| {
                vec![
                    v.to_string(),
                    format!("{:+.3}", loading(0, v)),
                    format!("{:+.3}", loading(1, v)),
                ]
            })
            .collect();
        let _ = writeln!(out, "{}", table(&["variable", "PC0", "PC1"], &rows));

        // LULESH: more bandwidth, fewer cycles. HYDRO: OoO capacity and
        // cycles move tightly and oppositely.
        let opposed = loading(0, var) * loading(0, "Exec. time");
        assert!(opposed < 0.0, "{app}: {var} and cycles must oppose on PC0");
        let _ = writeln!(out, "check: {var} opposes Exec. time on PC0  -> MATCH\n");
    }
    out
}

/// Table II and Fig. 11: the application-specific unconventional
/// configurations, normalised to Best-DSE at 64 cores / 2 GHz.
fn fig11_unconventional(gen: &GenParams) -> String {
    let mut out = String::new();
    for (app, configs, note) in [
        (
            AppId::Spmz,
            &UNCONVENTIONAL_SPMZ,
            "paper: Vector+ 1.13x perf; Vector++ 1.43x perf, 3.14x power, ~2.5x energy",
        ),
        (
            AppId::Lulesh,
            &UNCONVENTIONAL_LULESH,
            "paper: MEM+ 1.07x perf, ~0.53x energy; MEM++ up to 1.30x perf",
        ),
    ] {
        let results = unconventional(app, configs, gen);
        let base = &results[0].1;

        let _ = writeln!(out, "== Fig. 11 / Table II: {app} ==");
        let rows: Vec<Vec<String>> = results
            .iter()
            .map(|(name, r)| {
                vec![
                    name.to_string(),
                    r.config.label(),
                    format!("{:.2}", base.time_ns / r.time_ns),
                    format!("{:.2}", r.power.total_w() / base.power.total_w()),
                    format!("{:.2}", r.energy_j / base.energy_j),
                ]
            })
            .collect();
        let header = ["label", "config", "perf x", "power x", "energy x"];
        let _ = writeln!(out, "{}", table(&header, &rows));
        let _ = writeln!(out, "{note}\n");
    }
    out.push_str("note: HBM energy uses our estimated parameters; the paper\n");
    out.push_str("could not report MEM++ energy for lack of vendor data.\n");
    out
}

/// The Table II configurations of `app`, Best-DSE first, each with its
/// full-replay result.
fn unconventional(
    app: AppId,
    configs: &[Unconventional],
    gen: &GenParams,
) -> Vec<(&'static str, ConfigResult)> {
    let trace = generate(app, gen);
    let sim = MultiscaleSim::new(&trace);
    configs
        .iter()
        .map(|u| (u.name, sim.simulate(u.config, true)))
        .collect()
}

/// Tolerance of an absolute Fig. 1 statistic: synthetic traces are not
/// calibrated to the paper's absolute values, only to its shapes.
const TOL_STATISTIC: f64 = 0.75;
/// Tolerance of a ratio or an efficiency the paper states as a number.
const TOL_RATIO: f64 = 0.15;

/// One number of the paper EXPERIMENTS.md compares ours with.
struct Claim {
    /// Figure or section, and what is measured.
    source: &'static str,
    what: String,
    paper: f64,
    ours: f64,
    /// Largest relative error that still counts as reproduced.
    tol: f64,
    /// The EXPERIMENTS.md known deviation the row belongs to, whose
    /// tolerance is its own, wider one.
    deviation: Option<u8>,
}

impl Claim {
    fn rel_error(&self) -> f64 {
        (self.ours - self.paper).abs() / self.paper.abs()
    }
}

/// The tolerance granted to each of EXPERIMENTS.md's five known
/// deviations, in their order there: (1) HYDRO's cache-timing benefit is
/// hidden by ILP (Fig. 6); (2) SP-MZ's DRAM traffic is calibrated low
/// (Fig. 1); (3) high/medium trail aggressive by more than 5 % (Fig. 7);
/// (4) Vector++'s power explosion is milder (Fig. 11); (5) BT-MZ's working
/// set fits the L3, so it draws no DRAM traffic (Fig. 1).
const DEVIATION_TOL: [f64; 5] = [0.25, 0.95, 0.25, 0.60, 1.0];

/// `results/fidelity.txt`: every claim, its relative error against its
/// tolerance, and the aggregate.
// Vector++'s 3.14× node power is the paper's number, not π.
#[allow(clippy::approx_constant)]
fn fidelity(campaign: &Campaign, gen: &GenParams) -> String {
    let mut claims = Vec::new();
    let mut claim = |source, what: String, paper, ours, deviation: Option<u8>| {
        let tol = match deviation {
            Some(d) => DEVIATION_TOL[usize::from(d) - 1],
            None if source == "Fig. 1" => TOL_STATISTIC,
            None => TOL_RATIO,
        };
        claims.push(Claim {
            source,
            what,
            paper,
            ours,
            tol,
            deviation,
        });
    };

    // Fig. 1, 64-core panel: L1, L2, DRAM (with write-backs) MPKI and
    // giga-requests per second.
    for (app, paper, dev) in [
        (AppId::Hydro, [6.0, 1.8, 0.7, 0.04], None),
        (AppId::Spmz, [97.0, 22.3, 13.8, 0.48], Some(2)),
        (AppId::Btmz, [24.2, 1.9, 0.7, 0.18], Some(5)),
        (AppId::Spec3d, [43.3, 7.0, 4.8, 0.41], None),
        (AppId::Lulesh, [13.4, 4.6, 5.6, 0.61], None),
    ] {
        let r = fig01_point(app, CoresPerNode::C64, gen);
        let ours = [r.l1_mpki, r.l2_mpki, r.mem_mpki, r.gmemreq_per_s];
        let names = ["L1 MPKI", "L2 MPKI", "mem MPKI", "G-Req/s"];
        for i in 0..4 {
            // The deviations are about DRAM traffic only.
            let dev = if i >= 2 { dev } else { None };
            claim(
                "Fig. 1",
                format!("{app} {}", names[i]),
                paper[i],
                ours[i],
                dev,
            );
        }
    }

    // Fig. 2 / §V-A: mean parallel efficiency.
    let [region, full] = scaling_curves(gen);
    for (study, curves, paper) in [
        ("compute region", &region, [0.70, 0.50]),
        ("full app (MPI)", &full, [0.49, 0.28]),
    ] {
        for (cores, paper) in [32, 64].into_iter().zip(paper) {
            let ours = mean_efficiency(curves, cores);
            claim(
                "Fig. 2",
                format!("{study} efficiency @{cores}"),
                paper,
                ours,
                None,
            );
        }
    }

    // Figs. 5–9: one panel value per app at 64 cores.
    let at64 = |fig: &FeatureFigure, metric, app: AppId, label: &str| {
        let results: Vec<_> = campaign.for_app(app).cloned().collect();
        feature_impact(&results, fig.feature, metric, fig.baseline)
            .bar(label, CoresPerNode::C64.count())
            .expect("a 64-core bar")
            .mean
    };
    let apps = AppId::ALL;
    for (app, paper) in apps.into_iter().zip([1.20, 1.75, 1.40, 1.40, 1.00]) {
        let ours = at64(&VECTOR, Metric::Speedup, app, "512bit");
        claim(
            "Fig. 5",
            format!("{app} speedup 512/128-bit"),
            paper,
            ours,
            None,
        );
    }
    for app in apps {
        let ours = at64(&VECTOR, Metric::PowerCore, app, "512bit");
        claim(
            "Fig. 5",
            format!("{app} core+L1 power 512/128-bit"),
            1.60,
            ours,
            None,
        );
    }
    // §V-B1: 3–18 % energy savings at 256-bit, except LULESH.
    for app in [AppId::Hydro, AppId::Spmz, AppId::Btmz, AppId::Spec3d] {
        let ours = at64(&VECTOR, Metric::Energy, app, "256bit");
        claim(
            "§V-B1",
            format!("{app} energy 256/128-bit"),
            0.895,
            ours,
            None,
        );
    }
    for (app, paper, dev) in [
        (AppId::Hydro, 1.21, Some(1)),
        (AppId::Btmz, 1.09, None),
        (AppId::Spec3d, 1.00, None),
        (AppId::Lulesh, 1.12, None),
    ] {
        let ours = at64(&CACHE, Metric::Speedup, app, "96M:1M");
        claim(
            "Fig. 6",
            format!("{app} speedup 96M:1M/32M:256K"),
            paper,
            ours,
            dev,
        );
    }
    for (label, papers, dev) in [
        ("lowend", [0.65, 0.65, 0.65, 0.40, 0.75], None),
        ("high", [0.95, 0.95, 0.95, 0.90, 0.95], Some(3)),
    ] {
        for (app, paper) in apps.into_iter().zip(papers) {
            let ours = at64(&OOO, Metric::Speedup, app, label);
            claim(
                "Fig. 7",
                format!("{app} perf {label}/aggressive"),
                paper,
                ours,
                dev,
            );
        }
    }
    for (app, paper) in apps.into_iter().zip([1.00, 1.00, 1.00, 1.00, 1.60]) {
        let ours = at64(&MEMORY, Metric::Speedup, app, "8chDDR4");
        claim(
            "Fig. 8",
            format!("{app} speedup 8ch/4ch"),
            paper,
            ours,
            None,
        );
    }
    let ours = at64(&MEMORY, Metric::Energy, AppId::Lulesh, "8chDDR4");
    claim("§V-B4", "lulesh energy 8ch/4ch".into(), 0.70, ours, None);
    for app in apps {
        let ours = at64(&FREQUENCY, Metric::Power, app, "3.0GHz");
        claim(
            "Fig. 9",
            format!("{app} node power 3.0/1.5 GHz"),
            2.5,
            ours,
            None,
        );
    }

    // Table II / Fig. 11, normalised to Best-DSE.
    for (app, configs, papers) in [
        (
            AppId::Spmz,
            &UNCONVENTIONAL_SPMZ[..],
            &[
                ("perf", 1, 1.13, None),
                ("power", 1, 1.1, None),
                ("energy", 1, 1.0, None),
                ("perf", 2, 1.43, None),
                ("power", 2, 3.14, Some(4)),
                ("energy", 2, 2.5, Some(4)),
            ][..],
        ),
        (
            AppId::Lulesh,
            &UNCONVENTIONAL_LULESH[..],
            &[
                ("perf", 1, 1.07, None),
                ("energy", 1, 0.53, None),
                ("perf", 2, 1.30, None),
            ][..],
        ),
    ] {
        let results = unconventional(app, configs, gen);
        let base = &results[0].1;
        for &(what, i, paper, dev) in papers {
            let (name, r) = &results[i];
            let ours = match what {
                "perf" => base.time_ns / r.time_ns,
                "power" => r.power.total_w() / base.power.total_w(),
                _ => r.energy_j / base.energy_j,
            };
            claim("Fig. 11", format!("{app} {name} {what}"), paper, ours, dev);
        }
    }

    let mut out = String::from("== Fidelity: the paper's numbers against ours ==\n\n");
    out.push_str("relative error = |ours - paper| / paper; a row is reproduced when it is\n");
    out.push_str("within its tolerance. Rows marked dN belong to EXPERIMENTS.md's known\n");
    out.push_str("deviation N and carry its wider tolerance.\n\n");
    let rows: Vec<Vec<String>> = claims
        .iter()
        .map(|c| {
            let err = c.rel_error();
            vec![
                c.source.to_string(),
                c.what.clone(),
                format!("{:.3}", c.paper),
                format!("{:.3}", c.ours),
                format!("{:.1} %", 100.0 * err),
                format!("{:.0} %", 100.0 * c.tol),
                match (err <= c.tol, c.deviation) {
                    (true, None) => "ok".to_string(),
                    (true, Some(d)) => format!("ok d{d}"),
                    (false, None) => "MISS".to_string(),
                    (false, Some(d)) => format!("MISS d{d}"),
                },
            ]
        })
        .collect();
    let header = [
        "source",
        "claim",
        "paper",
        "ours",
        "rel. error",
        "tolerance",
        "verdict",
    ];
    let _ = writeln!(out, "{}", table(&header, &rows));

    let within = claims.iter().filter(|c| c.rel_error() <= c.tol).count();
    let mut errors: Vec<f64> = claims.iter().map(Claim::rel_error).collect();
    errors.sort_by(f64::total_cmp);
    let _ = writeln!(
        out,
        "aggregate: {within} of {} rows within tolerance; median relative error {:.1} %",
        claims.len(),
        100.0 * errors[errors.len() / 2]
    );
    out
}

#[cfg(test)]
mod tests {
    use super::ENTRIES;

    /// One entry per committed file and one committed file per entry:
    /// an entry without its file, or a file no entry writes, fails here.
    #[test]
    fn entries_and_committed_results_agree() {
        let mut written: Vec<&str> = ENTRIES.iter().map(|(file, _)| *file).collect();
        written.sort();
        written.dedup();
        assert_eq!(written.len(), ENTRIES.len(), "entry names must be unique");

        let results = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");
        let mut committed: Vec<String> = std::fs::read_dir(results)
            .expect("read results/")
            .map(|e| {
                e.expect("results/ entry")
                    .file_name()
                    .into_string()
                    .unwrap()
            })
            .filter(|file| !file.starts_with("BENCH_"))
            .collect();
        committed.sort();
        assert_eq!(written, committed);
    }
}
