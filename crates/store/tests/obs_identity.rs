//! Observability must never touch a result: campaign rows and their
//! content-addressed fingerprints are identical whether instrumentation
//! is fully active (metrics on, spans open, JSONL sink attached) or
//! completely quiet.
//!
//! Rows are compared in memory (via their exhaustive `Debug` rendering,
//! which covers every field of `StoreRow` including the fingerprint
//! hex) rather than through the on-disk JSONL encoding, so the test is
//! independent of the serialisation backend.

use musa_apps::{generate, AppId, GenParams};
use musa_arch::{CoresPerNode, NodeConfig};
use musa_core::{MultiscaleSim, SweepOptions};
use musa_store::{CampaignStore, FillOptions, PointKey, StoreRow};

/// Simulate one point and build its store row.
fn row(app: AppId, config: NodeConfig) -> StoreRow {
    let gen = GenParams::tiny();
    let trace = generate(app, &gen);
    let result = MultiscaleSim::new(&trace).simulate(config, true);
    StoreRow::new(gen, true, result)
}

#[test]
fn rows_and_fingerprints_are_identical_with_observability_on_and_off() {
    let config = NodeConfig::REFERENCE.with_cores(CoresPerNode::C64);
    let apps = [AppId::Hydro, AppId::Spmz, AppId::Lulesh];

    // Quiet baseline: metrics off, no sink, no spans.
    musa_obs::enable_metrics(false);
    let baseline: Vec<StoreRow> = apps.iter().map(|&a| row(a, config)).collect();

    // Everything on: metrics registry, an enclosing span, the JSONL
    // event sink, and the debug stderr level.
    let sink = std::env::temp_dir().join(format!("musa-obs-identity-{}.jsonl", std::process::id()));
    musa_obs::set_json_path(&sink).unwrap();
    musa_obs::set_max_level(Some(musa_obs::Level::Debug));
    musa_obs::enable_metrics(true);
    let instrumented: Vec<StoreRow> = {
        let _outer = musa_obs::span("identity-test");
        apps.iter().map(|&a| row(a, config)).collect()
    };
    musa_obs::enable_metrics(false);
    musa_obs::set_max_level(Some(musa_obs::Level::Warn));
    musa_obs::close_json();
    let _ = std::fs::remove_file(&sink);

    // Instrumentation really was active for the second batch.
    assert!(
        musa_obs::snapshot()
            .phase(musa_obs::phase::DETAILED_SIM, "hydro")
            .is_some(),
        "instrumented batch recorded no spans — the test lost its contrast"
    );

    for (q, i) in baseline.iter().zip(&instrumented) {
        // Byte-identical rows, fingerprint included.
        assert_eq!(format!("{q:?}"), format!("{i:?}"));
        assert_eq!(q.key, i.key);
        // And the fingerprint still matches a fresh recomputation.
        assert_eq!(
            q.point_key(),
            Some(PointKey::of(&q.result.app, &q.result.config, &q.gen, true))
        );
        assert!(q.is_consistent() && i.is_consistent());
    }
}

/// The profiling flight recorder must be as inert as the rest of the
/// instrumentation: a store fill with the recorder installed produces
/// rows (and fingerprints) identical to an unprofiled fill, while one
/// sealed profile record lands per simulated point.
#[test]
fn rows_and_fingerprints_are_identical_with_profiling_on_and_off() {
    let apps = [AppId::Hydro, AppId::Spmz];
    let configs = [
        NodeConfig::REFERENCE,
        NodeConfig::REFERENCE.with_cores(CoresPerNode::C64),
    ];
    let opts = SweepOptions {
        gen: GenParams::tiny(),
        full_replay: true,
    };

    let base = std::env::temp_dir().join(format!("musa-prof-identity-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);

    let fill_in = |dir: &std::path::Path| {
        let mut store = CampaignStore::open(dir).unwrap();
        store
            .fill(&apps, &configs, &FillOptions::new(opts))
            .unwrap();
        store.campaign_for(&apps, &configs, &opts)
    };

    let quiet = fill_in(&base.join("quiet"));

    let profiled_dir = base.join("profiled");
    std::fs::create_dir_all(&profiled_dir).unwrap();
    musa_prof::install_store_recorder(&profiled_dir).unwrap();
    let profiled = fill_in(&profiled_dir);
    musa_prof::uninstall_recorder();

    assert_eq!(quiet.results.len(), apps.len() * configs.len());
    assert_eq!(quiet.results.len(), profiled.results.len());
    for (q, p) in quiet.results.iter().zip(&profiled.results) {
        assert_eq!(format!("{q:?}"), format!("{p:?}"));
    }

    // In `runtime` builds the profiled fill really recorded: one
    // record per point, all parseable, none torn. Compiled out, the
    // recorder install is a no-op and the file never appears — the
    // identity above is the whole test.
    if musa_prof::COMPILED {
        let (records, rep) = musa_prof::load_profiles(&profiled_dir).unwrap();
        assert_eq!((rep.torn_tails, rep.corrupt), (0, 0));
        assert_eq!(records.len(), apps.len() * configs.len(), "{records:?}");
        for r in &records {
            assert!(r.wall_ns > 0, "{r:?}");
            assert_eq!(r.worker, "fill");
        }
    } else {
        assert!(!profiled_dir.join(musa_prof::PROFILES_FILE).exists());
    }
    let _ = std::fs::remove_dir_all(&base);
}
