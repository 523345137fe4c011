//! Mixed-version shard directories: rows written by a *newer*
//! musa-store schema must be skipped with a distinct warning (an
//! upgrade hint), not lumped in with corruption — and must never poison
//! the rows this binary *can* read. Plus the read-only open used by the
//! serving layer.

use std::path::PathBuf;

use musa_apps::{AppId, GenParams};
use musa_arch::{DesignSpace, NodeConfig};
use musa_core::ConfigResult;
use musa_power::PowerBreakdown;
use musa_store::{CampaignStore, StoreRow, SCHEMA_VERSION};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("musa-store-fwd-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn synth_row(app: AppId, config: NodeConfig, x: f64) -> StoreRow {
    let result = ConfigResult {
        app: app.label().to_string(),
        config,
        time_ns: 1.0 + x,
        region_ns: 0.5 + x,
        power: PowerBreakdown {
            core_l1_w: x,
            l2_l3_w: x / 2.0,
            mem_w: x / 3.0,
        },
        energy_j: x / 5.0,
        l1_mpki: x,
        l2_mpki: x / 2.0,
        l3_mpki: x / 4.0,
        mem_mpki: x / 8.0,
        gmemreq_per_s: x,
        mem_stretch: 1.0,
        region_efficiency: 0.5,
    };
    StoreRow::new(GenParams::tiny(), false, result)
}

#[test]
fn newer_schema_rows_are_skipped_not_corrupt() {
    let configs = DesignSpace::all();
    let good = synth_row(AppId::Hydro, configs[0], 10.0);
    let future = synth_row(AppId::Hydro, configs[1], 20.0);
    let good_line = musa_obs::json::to_string(&good);
    let future_line = musa_obs::json::to_string(&future).replacen(
        &format!("\"schema\":{SCHEMA_VERSION}"),
        &format!("\"schema\":{}", SCHEMA_VERSION + 7),
        1,
    );
    assert_ne!(good_line, future_line);

    let dir = tmp_dir("newer");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(
        dir.join("rows.jsonl"),
        format!("{good_line}\n{future_line}\nnot json at all\n"),
    )
    .unwrap();

    musa_obs::enable_metrics(true);
    musa_obs::reset_metrics();
    let store = CampaignStore::open(&dir).unwrap();
    // Only the current-schema row survives; the future row is neither
    // loaded nor treated as corruption, the garbage line still is.
    assert_eq!(store.len(), 1);
    assert_eq!(store.rows()[0], good);
    if musa_obs::COMPILED {
        let snap = musa_obs::snapshot();
        assert_eq!(snap.counter("store.rows_newer_schema"), 1);
    }

    // The skip is stable across reopen.
    assert_eq!(CampaignStore::open(&dir).unwrap().rows(), [good]);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn read_only_open_requires_existing_dir_and_refuses_appends() {
    let dir = tmp_dir("ro");
    // Missing directory: hard error, not a silently created empty store.
    let err = match CampaignStore::open_read_only(&dir) {
        Err(e) => e,
        Ok(_) => panic!("open_read_only of a missing directory must fail"),
    };
    assert_eq!(err.kind(), std::io::ErrorKind::NotFound);

    std::fs::create_dir_all(&dir).unwrap();
    let mut store = CampaignStore::open_read_only(&dir).unwrap();
    assert!(store.is_empty());
    let err = store
        .append(synth_row(AppId::Spmz, NodeConfig::REFERENCE, 1.0))
        .unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::PermissionDenied);
    assert!(store.is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}
