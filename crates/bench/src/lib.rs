//! The `dse` binary's library: its argument parser ([`cli`]), the
//! table of committed result files `dse report` writes ([`report`]),
//! and the few decisions every subcommand shares — which scale a run
//! simulates at, which configurations it sweeps, and where its campaign
//! store lives by default.
//!
//! The default scale is a reduced 64-rank one that reproduces the
//! paper's shapes in seconds; `--full` selects the paper's 256 ranks.
//! Campaign rows live in a persistent [`musa_store::CampaignStore`],
//! keyed by the exact `GenParams` they were simulated at, so editing
//! the scale or the schema can never serve stale results.

pub mod cli;
pub mod report;

use std::path::PathBuf;

use musa_apps::GenParams;
use musa_arch::{DesignSpace, NodeConfig};

/// A trace scale: its label (pinned into search journals, which refuse
/// to resume at another scale, and naming the default store directory)
/// and its generation parameters. `MUSA_TINY=1` (test harnesses only —
/// it is not a CLI flag) outranks `--full`, so multi-process e2e drills
/// finish in seconds.
pub fn scale(tiny: bool, full: bool) -> (&'static str, GenParams) {
    match (tiny, full) {
        (true, _) => ("tiny", GenParams::tiny()),
        (false, true) => ("paper", GenParams::paper()),
        (false, false) => ("small", GenParams::small()),
    }
}

/// The [`scale`] a parsed `--full` and `MUSA_TINY` select. Only the
/// process that enumerates the sweep decides: workers are told the
/// scale in every lease.
pub fn scale_for(full: bool) -> (&'static str, GenParams) {
    let tiny = std::env::var("MUSA_TINY").is_ok_and(|v| v == "1");
    scale(tiny, full)
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
/// identically in every process, `metrics` turns on each worker's own
/// `musa_obs` registry (`MUSA_METRICS=1`) so the snapshots they ship
/// with their lease results are actually populated, and `--no-prof`
/// becomes `MUSA_PROF=0` so the profiling flight recorder is off in
/// every process or none.
pub fn pool_worker_env(
    faults_spec: Option<&str>,
    metrics: bool,
    prof_enabled: bool,
) -> Vec<(String, String)> {
    let mut env = Vec::new();
    if let Some(spec) = faults_spec {
        env.push(("MUSA_FAULTS".to_string(), spec.to_string()));
    }
    if metrics {
        env.push(("MUSA_METRICS".to_string(), "1".to_string()));
    }
    if !prof_enabled {
        env.push(("MUSA_PROF".to_string(), "0".to_string()));
    }
    env
}

/// The default campaign store directory for a [`scale`] label, so a
/// run at one scale never clears another scale's rows.
pub fn store_dir_for(scale: &str) -> PathBuf {
    PathBuf::from(format!("target/musa-store-{scale}"))
}

#[cfg(test)]
mod tests {
    use super::{pool_worker_env, scale, store_dir_for};
    use std::path::Path;

    #[test]
    fn each_scale_has_its_own_store_dir() {
        let dir = |tiny, full| store_dir_for(scale(tiny, full).0);
        assert_eq!(dir(true, false), Path::new("target/musa-store-tiny"));
        assert_eq!(dir(true, true), Path::new("target/musa-store-tiny"));
        assert_eq!(dir(false, false), Path::new("target/musa-store-small"));
        assert_eq!(dir(false, true), Path::new("target/musa-store-paper"));
    }

    #[test]
    fn pool_worker_env_propagates_faults_and_opt_outs() {
        assert_eq!(pool_worker_env(None, false, true), vec![]);
        let spec = "seed=7,sim.point=panic@0.5";
        assert_eq!(
            pool_worker_env(Some(spec), false, true),
            vec![("MUSA_FAULTS".to_string(), spec.to_string())]
        );
        assert_eq!(
            pool_worker_env(None, true, true),
            vec![("MUSA_METRICS".to_string(), "1".to_string())]
        );
        assert_eq!(
            pool_worker_env(None, false, false),
            vec![("MUSA_PROF".to_string(), "0".to_string())]
        );
        assert_eq!(pool_worker_env(Some("seed=1"), true, false).len(), 3);
    }
}
