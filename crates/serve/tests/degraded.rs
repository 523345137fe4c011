//! Degraded-mode serving: a store with corrupt rows still opens
//! read-only, serves every surviving row, and reports the damage on
//! `/healthz` — without ever writing to the store it was pointed at.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use musa_apps::{AppId, GenParams};
use musa_arch::{DesignSpace, NodeConfig};
use musa_core::ConfigResult;
use musa_power::PowerBreakdown;
use musa_serve::engine::QueryEngine;
use musa_serve::{api, Request};
use musa_store::{
    CampaignStore, LeaseEvent, LeaseJournal, PoolPoisonRecord, StoreRow, QUARANTINE_FILE,
};

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "musa-serve-degraded-{tag}-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
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

fn healthz(engine: &QueryEngine) -> String {
    let req = Request {
        method: "GET".into(),
        path: "/healthz".into(),
        query: Vec::new(),
    };
    let (resp, quit) = api::respond(engine, false, &req);
    assert!(!quit);
    assert_eq!(resp.status, 200, "{}", resp.body);
    resp.body
}

#[test]
fn corrupt_store_serves_degraded_but_serves() {
    let configs = DesignSpace::all();
    let rows = vec![
        synth_row(AppId::Hydro, configs[0], 1.0),
        synth_row(AppId::Spmz, configs[1], 2.0),
        synth_row(AppId::Btmz, configs[2], 3.0),
    ];
    let dir = tmp_dir("corrupt");
    std::fs::create_dir_all(&dir).unwrap();
    {
        let mut store = CampaignStore::open(&dir).unwrap();
        store.append_batch(rows.clone()).unwrap();
    }
    // Corrupt the middle line: still valid UTF-8, no longer a row.
    let path = dir.join("rows.jsonl");
    let text = std::fs::read_to_string(&path).unwrap();
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    lines[1] = format!("x{}", lines[1]);
    let mangled = lines.join("\n") + "\n";
    std::fs::write(&path, &mangled).unwrap();

    let engine = QueryEngine::open(&dir).expect("corruption must not fail the open");
    assert_eq!(engine.len(), 2, "surviving rows are served");
    assert_eq!(engine.health().quarantined, 1);
    assert!(engine.health().degraded());

    let body = healthz(&engine);
    assert!(body.contains("\"status\":\"degraded\""), "{body}");
    assert!(body.contains("\"rows\":2"), "{body}");
    assert!(body.contains("\"quarantined\":1"), "{body}");

    // Read-only means read-only: the store is byte-identical and no
    // quarantine file appeared.
    assert_eq!(std::fs::read_to_string(&path).unwrap(), mangled);
    assert!(!dir.join(QUARANTINE_FILE).exists());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A point the pool supervisor quarantined is campaign data that is
/// *missing* rather than corrupt; `/healthz` must surface it the same
/// way.
#[test]
fn pool_poisoned_points_degrade_health() {
    let dir = tmp_dir("poisoned");
    {
        let (mut journal, _) = LeaseJournal::open(&dir).unwrap();
        journal
            .append(&LeaseEvent::Poison(PoolPoisonRecord {
                key: "00decafc0ffee000".into(),
                app: "hydro".into(),
                config: "some-config".into(),
                strikes: 3,
                reason: "deadline exceeded".into(),
            }))
            .unwrap();
    }
    let engine = QueryEngine::open(&dir).expect("poison must not fail the open");
    assert_eq!(engine.health().pool_poisoned, 1);
    assert!(engine.health().degraded());

    let body = healthz(&engine);
    assert!(body.contains("\"status\":\"degraded\""), "{body}");
    assert!(body.contains("\"pool_poisoned\":1"), "{body}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn clean_store_reports_ok() {
    let configs = DesignSpace::all();
    let rows = vec![
        synth_row(AppId::Hydro, configs[0], 1.0),
        synth_row(AppId::Spmz, configs[1], 2.0),
    ];
    let dir = tmp_dir("clean");
    std::fs::create_dir_all(&dir).unwrap();
    {
        let mut store = CampaignStore::open(&dir).unwrap();
        store.append_batch(rows).unwrap();
    }
    let engine = QueryEngine::open(&dir).unwrap();
    let body = healthz(&engine);
    assert!(body.contains("\"status\":\"ok\""), "{body}");
    assert!(body.contains("\"rows\":2"), "{body}");
    assert!(body.contains("\"quarantined\":0"), "{body}");
    let _ = std::fs::remove_dir_all(&dir);
}
