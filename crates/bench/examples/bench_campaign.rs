//! Hand-timed baseline for the campaign sweep with and without the
//! artifact cache, printed as JSON (the gated, per-layer benchmark is
//! `benchmark/`; this records the cache's own before/after):
//!
//! ```text
//! cargo run --release -p musa-bench --example bench_campaign > results/BENCH_campaign.json
//! ```
//!
//! Four variants of the same tiny-scale sweep (all five applications ×
//! a design-space slice):
//!
//! - `uncached`: every trace, detailed window and burst baseline
//!   computed from scratch — the pre-cache behaviour;
//! - `cold`: first pass through an empty artifact cache (pays the
//!   artifact writes on top of the compute);
//! - `warm_disk`: a *fresh* [`ArtifactCache`] instance over the
//!   populated directory — every detail and burst lookup is a disk
//!   hit (traces regenerate), the cross-process reuse a `--resume` or
//!   a pool worker sees;
//! - `warm_memo`: the same instance swept again — pure in-process
//!   memo hits, the intra-run reuse path.
//!
//! `disk_layer` is always `true`; the key is kept so the file stays
//! comparable with the baselines recorded while it could be `false`.

use std::time::Instant;

use musa_apps::AppId;
use musa_arch::DesignSpace;
use musa_cache::ArtifactCache;
use musa_core::{sweep_app_cached, SweepOptions};
use musa_obs::json::JsonObj;

const CONFIG_SLICE: usize = 12;

fn slice_configs() -> Vec<musa_arch::NodeConfig> {
    let all = DesignSpace::all();
    all.iter()
        .copied()
        .step_by(all.len() / CONFIG_SLICE)
        .take(CONFIG_SLICE)
        .collect()
}

fn main() {
    let opts = SweepOptions {
        gen: musa_apps::GenParams::tiny(),
        full_replay: true,
    };
    let configs = slice_configs();
    let points = (configs.len() * AppId::ALL.len()) as u64;

    let time_sweep = |cache: Option<&std::sync::Arc<ArtifactCache>>| -> f64 {
        let start = Instant::now();
        for app in AppId::ALL {
            std::hint::black_box(sweep_app_cached(app, &configs, &opts, cache));
        }
        start.elapsed().as_secs_f64() * 1e3
    };

    let uncached = time_sweep(None);

    let dir = std::env::temp_dir().join(format!("musa-bench-campaign-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = ArtifactCache::open(&dir).expect("open artifact cache");
    let cold = time_sweep(Some(&cache));

    let fresh = ArtifactCache::open(&dir).expect("reopen artifact cache");
    let warm_disk = time_sweep(Some(&fresh));
    let warm_memo = time_sweep(Some(&fresh));
    let stats = fresh.stats();
    let _ = std::fs::remove_dir_all(&dir);

    println!(
        "{}",
        JsonObj::new()
            .field_str("bench", "musa-bench campaign sweep")
            .field_u64("points", points)
            .field_str("unit", "ms_per_sweep")
            .field_bool("disk_layer", true)
            .field_f64("uncached", uncached)
            .field_f64("cold_fill", cold)
            .field_f64("warm_disk", warm_disk)
            .field_f64("warm_memo", warm_memo)
            .field_f64("speedup_warm_disk", uncached / warm_disk.max(1e-9))
            .field_f64("speedup_warm_memo", uncached / warm_memo.max(1e-9))
            .field_f64(
                "warm_points_per_sec",
                points as f64 / (warm_memo / 1e3).max(1e-9)
            )
            .field_u64("cache_hits", stats.hits())
            .field_u64("cache_misses", stats.misses())
            .finish()
    );
}
