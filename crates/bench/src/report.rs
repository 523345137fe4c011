//! `dse report`: every committed file under `results/` from one
//! campaign. Each entry of [`ENTRIES`] names one file (`table1`,
//! `fig01_mpki` … `fig11_unconventional`, `dse_results`) and renders it
//! from the campaign `dse` just filled and the scale it ran at. Figs.
//! 1–4 and 11 simulate their own handful of points from the
//! [`GenParams`]; Figs. 5–10 and the CSV read the campaign.
//!
//! Every shape the paper states outright is asserted while rendering: a
//! figure that contradicts the paper panics, and `dse report` renders
//! every entry before it writes any file.

use std::fmt::Write as _;

use musa_apps::{generate, AppId, GenParams};
use musa_arch::{
    CacheConfig, CoreClass, CoresPerNode, DesignSpace, Feature, Frequency, MemConfig, NodeConfig,
    VectorWidth, UNCONVENTIONAL_LULESH, UNCONVENTIONAL_SPMZ,
};
use musa_core::pca::{pca_of_results, PCA_VARS};
use musa_core::report::{campaign_csv, core_occupancy, occupancy_fraction, table};
use musa_core::{
    feature_impact, full_app_scaling, mean_efficiency, panel_rows, region_scaling, Campaign,
    Metric, MultiscaleSim, ScalingCurve, SCALING_CORES,
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
            let trace = generate(app, gen);
            let cfg = NodeConfig::REFERENCE
                .with_cores(cores)
                .with_vector(VectorWidth::V128);
            let r = MultiscaleSim::new(&trace).simulate(cfg, false);
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

/// Fig. 2 and §V-A: hardware-agnostic scaling of (a) one compute region
/// and (b) the whole application with MPI, and the mean efficiencies.
fn fig02_scaling(gen: &GenParams) -> String {
    fn curves(out: &mut String, curves: &[ScalingCurve]) {
        let rows: Vec<Vec<String>> = curves
            .iter()
            .map(|c| {
                let mut row = vec![c.app.clone()];
                for &n in &SCALING_CORES {
                    row.push(format!("{:.1}", c.speedup(n).unwrap_or(0.0)));
                }
                row.push(format!("{:.0} %", 100.0 * c.efficiency(64).unwrap_or(0.0)));
                row
            })
            .collect();
        let header = ["app", "S(1)", "S(32)", "S(64)", "eff@64"];
        let _ = writeln!(out, "{}", table(&header, &rows));
    }
    let mut out = String::from("== Fig. 2a: single compute region (burst mode) ==\n");
    let region: Vec<_> = AppId::ALL.iter().map(|&a| region_scaling(a, gen)).collect();
    curves(&mut out, &region);
    out.push_str("== Fig. 2b: full application incl. MPI ==\n");
    let full: Vec<_> = AppId::ALL
        .iter()
        .map(|&a| full_app_scaling(a, gen))
        .collect();
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
        let trace = generate(app, gen);
        let sim = MultiscaleSim::new(&trace);
        let results: Vec<_> = configs
            .iter()
            .map(|u| (u.name, sim.simulate(u.config, true)))
            .collect();
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
