//! The `dse` binary's library: its argument parser ([`cli`]), the
//! table of committed result files `dse report` writes ([`report`]),
//! its SIGINT/SIGTERM latch ([`signals`]), and the few decisions every
//! subcommand shares — which scale a run
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
pub mod signals;

use std::path::PathBuf;

use musa_apps::GenParams;
use musa_arch::{DesignSpace, NodeConfig};

/// A trace scale: its label (pinned into search journals, which refuse
/// to resume at another scale, and naming the default store directory)
/// and its generation parameters. `MUSA_TINY=1` (test harnesses only —
/// it is not a CLI flag) outranks `--full`, so the e2e drills finish in
/// seconds.
pub fn scale(tiny: bool, full: bool) -> (&'static str, GenParams) {
    match (tiny, full) {
        (true, _) => ("tiny", GenParams::tiny()),
        (false, true) => ("paper", GenParams::paper()),
        (false, false) => ("small", GenParams::small()),
    }
}

/// The [`scale`] a parsed `--full` and `MUSA_TINY` select.
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

/// The default campaign store directory for a [`scale`] label, so a
/// run at one scale never clears another scale's rows.
pub fn store_dir_for(scale: &str) -> PathBuf {
    PathBuf::from(format!("target/musa-store-{scale}"))
}

#[cfg(test)]
mod tests {
    use super::{scale, store_dir_for};
    use std::path::Path;

    #[test]
    fn each_scale_has_its_own_store_dir() {
        let dir = |tiny, full| store_dir_for(scale(tiny, full).0);
        assert_eq!(dir(true, false), Path::new("target/musa-store-tiny"));
        assert_eq!(dir(true, true), Path::new("target/musa-store-tiny"));
        assert_eq!(dir(false, false), Path::new("target/musa-store-small"));
        assert_eq!(dir(false, true), Path::new("target/musa-store-paper"));
    }
}
