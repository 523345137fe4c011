//! Regression test for the stale-cache bug the whole-file JSON cache
//! had: the cache was keyed only by the scale *name* ("small"/"paper"),
//! so editing `GenParams` silently returned results simulated at the
//! old parameters. The store keys every row by a fingerprint of the
//! exact `GenParams`, so a changed scale re-simulates.

use std::path::{Path, PathBuf};

use musa_apps::{AppId, GenParams};
use musa_arch::{NodeConfig, VectorWidth};
use musa_core::{Campaign, SweepOptions};
use musa_store::{CampaignStore, FillOptions};

/// Open (or create) the store at `dir`, fill the missing points of
/// `apps × configs` under `opts`, and return the campaign view.
fn load_or_run_campaign_in(
    dir: &Path,
    apps: &[AppId],
    configs: &[NodeConfig],
    opts: &SweepOptions,
) -> Campaign {
    let mut store = CampaignStore::open(dir).expect("open campaign store");
    store
        .fill(apps, configs, &FillOptions::new(*opts))
        .expect("fill campaign store");
    store.campaign_for(apps, configs, opts)
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("musa-bench-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn changed_gen_params_are_never_served_stale_results() {
    let dir = tmp_dir("stale-cache");
    let apps = [AppId::Lulesh];
    let configs = [
        NodeConfig::REFERENCE,
        NodeConfig::REFERENCE.with_vector(VectorWidth::V512),
    ];
    let opts_a = SweepOptions {
        gen: GenParams::tiny(),
        full_replay: false,
    };
    let opts_b = SweepOptions {
        gen: GenParams {
            seed: 999,
            ..GenParams::tiny()
        },
        full_replay: false,
    };

    let campaign_a = load_or_run_campaign_in(&dir, &apps, &configs, &opts_a);
    assert_eq!(campaign_a.results.len(), configs.len());

    // Same directory, different GenParams: the old cache would have
    // returned campaign_a here. The store must re-simulate and return
    // exactly what a pristine store produces for opts_b.
    let campaign_b = load_or_run_campaign_in(&dir, &apps, &configs, &opts_b);
    let fresh_dir = tmp_dir("stale-cache-fresh");
    let campaign_b_fresh = load_or_run_campaign_in(&fresh_dir, &apps, &configs, &opts_b);
    assert_eq!(campaign_b, campaign_b_fresh);
    assert_ne!(
        campaign_a, campaign_b,
        "different seeds must change LULESH results"
    );

    // And the original sweep is still served, untouched, from cache.
    let campaign_a_again = load_or_run_campaign_in(&dir, &apps, &configs, &opts_a);
    assert_eq!(campaign_a, campaign_a_again);

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&fresh_dir);
}
