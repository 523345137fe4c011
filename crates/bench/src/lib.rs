//! Shared harness utilities for the per-figure experiment binaries.
//!
//! Every binary accepts `--full` (or env `MUSA_FULL=1`) to run at paper
//! scale (256 ranks); the default is a reduced 64-rank scale that
//! reproduces the same shapes in seconds. Campaign results live in a
//! persistent [`musa_store::CampaignStore`] so the per-feature figures
//! (5–11) share one sweep, re-runs simulate only missing points, and
//! rows are keyed by the exact `GenParams` they were simulated at —
//! editing the scale or the schema can never serve stale results.

pub mod cli;

use std::path::{Path, PathBuf};

use musa_apps::{AppId, GenParams};
use musa_arch::{DesignSpace, NodeConfig};
use musa_core::{Campaign, SweepOptions};
use musa_store::{CampaignStore, FillOptions};

fn env_is_one(name: &str) -> bool {
    std::env::var(name).map(|v| v == "1").unwrap_or(false)
}

/// Whether `--full` is anywhere on this process's command line: the
/// figure binaries' whole argument grammar. `dse` parses its arguments
/// strictly and passes the parsed flag to [`scale_for`] and
/// [`store_dir_for`] instead.
fn full_in_argv() -> bool {
    std::env::args().any(|a| a == "--full")
}

/// A trace scale: its label (pinned into search journals, which refuse
/// to resume at another scale) and its generation parameters.
/// `MUSA_TINY=1` (test harnesses only — it is not a CLI flag) outranks
/// `--full`, so multi-process e2e drills finish in seconds.
pub fn scale(tiny: bool, full: bool) -> (&'static str, GenParams) {
    match (tiny, full) {
        (true, _) => ("tiny", GenParams::tiny()),
        (false, true) => ("paper", GenParams::paper()),
        (false, false) => ("small", GenParams::small()),
    }
}

/// The [`scale`] a `--full` flag and the environment (`MUSA_TINY`,
/// `MUSA_FULL`) select. Only the process that enumerates the sweep
/// decides: workers are told the scale in every lease.
pub fn scale_for(full: bool) -> (&'static str, GenParams) {
    scale(env_is_one("MUSA_TINY"), full || env_is_one("MUSA_FULL"))
}

/// Trace-generation parameters for the scale this process's command
/// line and environment select.
pub fn gen_params() -> GenParams {
    scale_for(full_in_argv()).1
}

/// The configurations of the sweep: the full 864-point design space,
/// or — when `MUSA_CONFIG_SLICE=N` is set (test harnesses only) — a
/// deterministic N-point slice of it, spread across the space rather
/// than taken from the front so sliced sweeps still cross feature
/// boundaries.
pub fn configs() -> Vec<NodeConfig> {
    let all = DesignSpace::all();
    let Some(n) = std::env::var("MUSA_CONFIG_SLICE")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0 && n < all.len())
    else {
        return all;
    };
    all.iter().copied().step_by(all.len() / n).take(n).collect()
}

/// Extra environment a pool supervisor hands to the workers it spawns.
///
/// What to simulate travels in the leases; this is only *how*: the
/// `--faults` spec rides along verbatim so a chaos plan fires
/// identically in every process, `--no-cache` becomes `MUSA_CACHE=0`
/// so workers skip the artifact cache exactly when the supervisor
/// does, `metrics` turns on each worker's own `musa_obs` registry
/// (`MUSA_METRICS=1`) so the snapshots they ship with their lease
/// results are actually populated, and `--no-prof` becomes
/// `MUSA_PROF=0` so the profiling flight recorder is off in every
/// process or none.
pub fn pool_worker_env(
    faults_spec: Option<&str>,
    cache_enabled: bool,
    metrics: bool,
    prof_enabled: bool,
) -> Vec<(String, String)> {
    let mut env = Vec::new();
    if let Some(spec) = faults_spec {
        env.push(("MUSA_FAULTS".to_string(), spec.to_string()));
    }
    if !cache_enabled {
        env.push(("MUSA_CACHE".to_string(), "0".to_string()));
    }
    if metrics {
        env.push(("MUSA_METRICS".to_string(), "1".to_string()));
    }
    if !prof_enabled {
        env.push(("MUSA_PROF".to_string(), "0".to_string()));
    }
    env
}

/// Campaign store directory for the current scale (override with
/// `MUSA_STORE_DIR`).
pub fn store_dir() -> PathBuf {
    store_dir_for(full_in_argv())
}

/// [`store_dir`] for an already-parsed `--full`.
pub fn store_dir_for(full: bool) -> PathBuf {
    if let Ok(dir) = std::env::var("MUSA_STORE_DIR") {
        return PathBuf::from(dir);
    }
    let scale = if full || env_is_one("MUSA_FULL") {
        "paper"
    } else {
        "small"
    };
    PathBuf::from(format!("target/musa-store-{scale}"))
}

/// Load the 864-point campaign from the store, simulating only the
/// points missing at the current scale.
pub fn load_or_run_campaign() -> Campaign {
    let opts = SweepOptions {
        gen: gen_params(),
        full_replay: true,
    };
    load_or_run_campaign_in(&store_dir(), &AppId::ALL, &DesignSpace::all(), &opts)
}

/// Store-backed campaign over an arbitrary point set: open (or create)
/// the store at `dir`, fill the missing points of `apps × configs`
/// under `opts`, and return the complete campaign view.
pub fn load_or_run_campaign_in(
    dir: &Path,
    apps: &[AppId],
    configs: &[NodeConfig],
    opts: &SweepOptions,
) -> Campaign {
    let mut store = CampaignStore::open(dir)
        .unwrap_or_else(|e| panic!("open campaign store {}: {e}", dir.display()));
    let report = store
        .fill(apps, configs, &FillOptions::new(*opts))
        .unwrap_or_else(|e| panic!("fill campaign store {}: {e}", dir.display()));
    eprintln!(
        "[campaign] {} rows from {} ({} cached, {} simulated)",
        report.cached + report.simulated,
        dir.display(),
        report.cached,
        report.simulated
    );
    store.campaign_for(apps, configs, opts)
}

/// Format an `Option<f64>` table cell.
pub fn cell(v: Option<f64>) -> String {
    v.map(|x| format!("{x:.3}")).unwrap_or_else(|| "-".into())
}

use musa_arch::Feature;
use musa_core::{feature_impact, panel_rows, Metric};

/// Print the three panels of a §V-B feature figure (speedup, power
/// components, energy-to-solution), per application, normalised against
/// `baseline` — the layout of Figs. 5–9.
pub fn print_feature_figure(
    campaign: &Campaign,
    feature: Feature,
    labels: &[&str],
    baseline: &str,
) {
    for (metric, name) in [
        (Metric::Speedup, "performance speedup"),
        (Metric::Power, "node power"),
        (Metric::PowerCore, "core+L1 power"),
        (Metric::PowerCache, "L2+L3 power"),
        (Metric::PowerMem, "memory power"),
        (Metric::Energy, "energy-to-solution"),
    ] {
        println!("--- {name} (normalised to {baseline}) ---");
        let mut rows = Vec::new();
        for app in AppId::ALL {
            let results: Vec<_> = campaign.for_app(app).cloned().collect();
            let impact = feature_impact(&results, feature, metric, baseline);
            for (label, m32, m64) in panel_rows(&impact, labels) {
                rows.push(vec![app.label().to_string(), label, cell(m32), cell(m64)]);
            }
        }
        println!(
            "{}",
            musa_core::report::table(&["app", "value", "@32 cores", "@64 cores"], &rows)
        );
    }
}

#[cfg(test)]
mod tests {
    use super::pool_worker_env;

    #[test]
    fn pool_worker_env_propagates_faults_and_opt_outs() {
        assert_eq!(pool_worker_env(None, true, false, true), vec![]);
        let spec = "seed=7,sim.point=panic@0.5";
        assert_eq!(
            pool_worker_env(Some(spec), true, false, true),
            vec![("MUSA_FAULTS".to_string(), spec.to_string())]
        );
        assert_eq!(
            pool_worker_env(None, false, false, true),
            vec![("MUSA_CACHE".to_string(), "0".to_string())]
        );
        assert_eq!(
            pool_worker_env(None, true, true, true),
            vec![("MUSA_METRICS".to_string(), "1".to_string())]
        );
        assert_eq!(
            pool_worker_env(None, true, false, false),
            vec![("MUSA_PROF".to_string(), "0".to_string())]
        );
        assert_eq!(pool_worker_env(Some("seed=1"), false, true, false).len(), 4);
    }
}
