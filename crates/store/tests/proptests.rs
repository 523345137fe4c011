//! Property tests of the store's persistence layer, on synthetic rows
//! (no simulation): JSONL round-trips are lossless, and merging
//! disjoint row files reconstructs the one-shot store regardless of
//! write order.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use musa_apps::{AppId, GenParams};
use musa_arch::DesignSpace;
use musa_core::ConfigResult;
use musa_obs::json::{FromJson, JsonValue};
use musa_obs::rng::{check_cases, SplitMix64};
use musa_power::PowerBreakdown;
use musa_store::{CampaignStore, PointKey, StoreRow, DEFAULT_WRITE_FILE};

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "musa-store-prop-{tag}-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A synthetic (but internally consistent) row for point
/// (`app_idx`, `cfg_idx`) with result values derived from `x`.
fn synth_row(
    configs: &[musa_arch::NodeConfig],
    app_idx: usize,
    cfg_idx: usize,
    x: f64,
) -> StoreRow {
    let app = AppId::ALL[app_idx % AppId::ALL.len()];
    let config = configs[cfg_idx % configs.len()];
    let result = ConfigResult {
        app: app.label().to_string(),
        config,
        time_ns: 1.0 + x,
        region_ns: 0.5 + x / 3.0,
        power: PowerBreakdown {
            core_l1_w: x / 7.0,
            l2_l3_w: x / 11.0,
            mem_w: x / 13.0,
        },
        energy_j: x / 17.0,
        l1_mpki: x % 97.0,
        l2_mpki: x % 23.0,
        l3_mpki: x % 7.0,
        mem_mpki: x % 5.0,
        gmemreq_per_s: x / 1e6,
        mem_stretch: 1.0 + x / 1e7,
        region_efficiency: (x / 1e6).clamp(0.0, 1.0),
    };
    StoreRow::new(GenParams::tiny(), false, result)
}

const CASES: u64 = 16;

/// Between 1 and `max_len - 1` random rows, deduplicated by key
/// (duplicate (app, cfg) pairs would be one point simulated once).
fn random_rows(rng: &mut SplitMix64, max_len: u64) -> Vec<StoreRow> {
    let configs = DesignSpace::all();
    let mut by_key: HashMap<String, StoreRow> = HashMap::new();
    for _ in 0..1 + rng.next_u64() % (max_len - 1) {
        let (a, c) = (rng.next_u64() as usize % 5, rng.next_u64() as usize % 864);
        let row = synth_row(&configs, a, c, rng.next_f64() * 1e6);
        by_key.entry(row.key.clone()).or_insert(row);
    }
    let mut rows: Vec<StoreRow> = by_key.into_values().collect();
    rows.sort_by(|a, b| a.key.cmp(&b.key));
    rows
}

fn sorted_by_key(mut rows: Vec<StoreRow>) -> Vec<StoreRow> {
    rows.sort_by(|a, b| a.key.cmp(&b.key));
    rows
}

/// Write → drop → re-open loses nothing and changes nothing (float
/// fields included: every finite f64 round-trips exactly).
#[test]
fn jsonl_roundtrip_is_lossless() {
    check_cases(CASES, |rng| {
        let rows = random_rows(rng, 30);
        let dir = tmp_dir("roundtrip");
        {
            let mut store = CampaignStore::open(&dir).unwrap();
            store.append_batch(rows.clone()).unwrap();
        }
        let reopened = CampaignStore::open(&dir).unwrap();
        assert_eq!(sorted_by_key(reopened.rows().to_vec()), rows);
        let _ = std::fs::remove_dir_all(&dir);
    });
}

/// Splitting the one-shot store's sealed lines by `key % n` into n
/// lease-named row files (each in forward or reverse order) and
/// re-opening the directory reconstructs exactly the one-shot store.
#[test]
fn split_row_files_merge_losslessly_in_any_order() {
    check_cases(CASES, |rng| {
        let rows = random_rows(rng, 30);
        let file_count = 1 + rng.next_u64() % 4;
        let reversed = rng.next_u64() & 1 == 1;

        // One-shot reference store.
        let one_dir = tmp_dir("merge-one");
        {
            let mut store = CampaignStore::open(&one_dir).unwrap();
            store.append_batch(rows.clone()).unwrap();
        }

        // Its lines, spread over lease files in a shared directory.
        let text = std::fs::read_to_string(one_dir.join(DEFAULT_WRITE_FILE)).unwrap();
        let mut files = vec![Vec::new(); file_count as usize];
        for line in text.lines() {
            let row = StoreRow::read_json(&JsonValue::parse(line).unwrap()).unwrap();
            files[(row.point_key().unwrap().0 % file_count) as usize].push(line);
        }
        let split_dir = tmp_dir("merge-split");
        std::fs::create_dir_all(&split_dir).unwrap();
        for (i, mut lines) in files.into_iter().enumerate() {
            if reversed {
                lines.reverse();
            }
            let body: String = lines.iter().map(|l| format!("{l}\n")).collect();
            std::fs::write(split_dir.join(format!("dist-l{i:04}-a0.jsonl")), body).unwrap();
        }

        let one = CampaignStore::open(&one_dir).unwrap();
        let merged = CampaignStore::open(&split_dir).unwrap();
        assert_eq!(merged.len(), rows.len());
        assert_eq!(
            sorted_by_key(merged.rows().to_vec()),
            sorted_by_key(one.rows().to_vec())
        );
        // The Campaign views coincide too (they sort internally).
        assert_eq!(merged.campaign(), one.campaign());

        let _ = std::fs::remove_dir_all(&one_dir);
        let _ = std::fs::remove_dir_all(&split_dir);
    });
}

/// Truncating the result file at ANY byte offset — a simulated crash
/// mid-write — never loses a complete row and never counts as
/// corruption: rows whose JSON survived the cut load, the torn
/// remainder is repaired away, and a second open sees a clean file.
#[test]
fn arbitrary_truncation_keeps_complete_rows() {
    check_cases(CASES, |rng| {
        let rows = random_rows(rng, 12);
        let cut_frac = rng.next_f64();
        let dir = tmp_dir("torn");
        {
            let mut store = CampaignStore::open(&dir).unwrap();
            store.append_batch(rows.clone()).unwrap();
        }
        let path = dir.join("rows.jsonl");
        let bytes = std::fs::read(&path).unwrap();
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        std::fs::write(&path, &bytes[..cut]).unwrap();

        // A row survives iff its full JSON (its line minus the
        // newline) fits inside the kept prefix; lines are written in
        // `rows` order, so the survivors are exactly a prefix.
        let text = String::from_utf8(bytes.clone()).unwrap();
        let mut expected = 0usize;
        let mut off = 0usize;
        for line in text.split_inclusive('\n') {
            let body = line.trim_end_matches('\n').len();
            if off + body <= cut {
                expected += 1;
            }
            off += line.len();
        }

        let reopened = CampaignStore::open(&dir).unwrap();
        assert!(
            !reopened.health().degraded(),
            "a torn tail is not corruption"
        );
        assert_eq!(reopened.health().quarantined, 0);
        assert_eq!(
            sorted_by_key(reopened.rows().to_vec()),
            rows[..expected].to_vec()
        );
        drop(reopened);

        // The repair is stable: the rewritten file reloads identically
        // with nothing further to fix.
        let again = CampaignStore::open(&dir).unwrap();
        assert_eq!(again.health(), &musa_store::StoreHealth::default());
        assert_eq!(
            sorted_by_key(again.rows().to_vec()),
            rows[..expected].to_vec()
        );
        let _ = std::fs::remove_dir_all(&dir);
    });
}

/// Keys are stable: recomputing a row's fingerprint from its own
/// contents always matches, and hex round-trips.
#[test]
fn keys_recompute_and_roundtrip() {
    let configs = DesignSpace::all();
    check_cases(CASES, |rng| {
        let (a, c) = (rng.next_u64() as usize % 5, rng.next_u64() as usize % 864);
        let row = synth_row(&configs, a, c, rng.next_f64() * 1e6);
        assert!(row.is_consistent());
        let key = row.point_key().unwrap();
        assert_eq!(PointKey::from_hex(&key.to_hex()), Some(key));
    });
}
