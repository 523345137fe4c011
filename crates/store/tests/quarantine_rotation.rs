//! Size-capped quarantine rotation: the primary `quarantine.jsonl`
//! rotates to `quarantine.1.jsonl` (keeping [`QUARANTINE_KEEP`]
//! rotations) instead of growing without bound, rotated-away lines sit
//! in the rotation files (where `dse doctor`'s `quarantine` family
//! counts them), rotations are never mistaken for row shards, and the
//! duplicate-incident dedupe spans primary and rotations alike.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use musa_apps::{AppId, GenParams};
use musa_arch::{DesignSpace, NodeConfig};
use musa_core::ConfigResult;
use musa_power::PowerBreakdown;
use musa_store::integrity::BadLine;
use musa_store::{
    is_quarantine_file, set_aside, CampaignStore, StoreRow, QUARANTINE_FILE, QUARANTINE_KEEP,
};

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "musa-store-qrot-{tag}-{}-{}",
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

fn rotation(dir: &Path, i: u32) -> PathBuf {
    dir.join(format!("quarantine.{i}.jsonl"))
}

/// Evidence lines in the rotations, as `dse doctor` counts them.
fn rotated_lines(dir: &Path) -> usize {
    (1..=QUARANTINE_KEEP)
        .filter_map(|i| std::fs::read_to_string(rotation(dir, i)).ok())
        .map(|text| text.lines().count())
        .sum()
}

#[test]
fn quarantine_file_name_classification() {
    assert!(is_quarantine_file("quarantine.jsonl"));
    assert!(is_quarantine_file("quarantine.1.jsonl"));
    assert!(is_quarantine_file("quarantine.3.jsonl"));
    assert!(!is_quarantine_file("rows.jsonl"));
    assert!(!is_quarantine_file("w-12.jsonl"));
    assert!(!is_quarantine_file("profiles.jsonl"));
    assert!(!is_quarantine_file("quarantine.txt"));
}

/// Only test in this binary that touches the process-global
/// `MUSA_QUARANTINE_CAP` — keep it that way, or add a mutex.
#[test]
fn rotation_caps_growth_and_survives_reload() {
    // Cap of 1 byte: any append to a non-empty primary rotates first,
    // so every corruption round below produces exactly one rotation.
    std::env::set_var("MUSA_QUARANTINE_CAP", "1");
    let configs = DesignSpace::all();
    let rows = vec![
        synth_row(AppId::Hydro, configs[0], 1.0),
        synth_row(AppId::Spmz, configs[1], 2.0),
    ];
    let dir = tmp_dir("cap");
    std::fs::create_dir_all(&dir).unwrap();
    {
        let mut store = CampaignStore::open(&dir).unwrap();
        store.append_batch(rows.clone()).unwrap();
    }

    // Five rounds of fresh corruption (distinct raw bytes each round,
    // so dedupe never suppresses them). Each repairing open quarantines
    // the garbage line; from round 2 on the non-empty primary rotates.
    let garbage =
        |i: usize| format!("this is not json, round {i}, padding to make the incident unique");
    for i in 1..=5usize {
        let shard = dir.join("rows.jsonl");
        let mut text = std::fs::read_to_string(&shard).unwrap();
        text.push_str(&garbage(i));
        text.push('\n');
        std::fs::write(&shard, text).unwrap();
        let store = CampaignStore::open(&dir).unwrap();
        assert_eq!(store.health().quarantined, 1, "round {i}");
        assert_eq!(store.len(), rows.len(), "rows survive every round {i}");
    }

    // Newest incident in the primary, previous three in rotations,
    // oldest dropped: growth is bounded at KEEP+1 files.
    let read = |p: &PathBuf| std::fs::read_to_string(p).unwrap();
    assert!(read(&dir.join(QUARANTINE_FILE)).contains(&garbage(5)));
    assert!(read(&rotation(&dir, 1)).contains(&garbage(4)));
    assert!(read(&rotation(&dir, 2)).contains(&garbage(3)));
    assert!(read(&rotation(&dir, 3)).contains(&garbage(2)));
    assert!(!rotation(&dir, QUARANTINE_KEEP + 1).exists());

    // The rotated-away evidence is in the rotations, one incident each.
    // A clean reopen is not degraded by it and does NOT load rotations
    // as row shards (which would re-quarantine their every line).
    assert_eq!(rotated_lines(&dir), QUARANTINE_KEEP as usize);
    let store = CampaignStore::open(&dir).unwrap();
    assert_eq!(store.health().quarantined, 0);
    assert!(!store.health().degraded());
    assert_eq!(store.len(), rows.len());
    drop(store);

    // Dedupe spans rotations: replaying an incident whose record now
    // sits in quarantine.1.jsonl is suppressed — the shard is still
    // repaired, but no new record is appended and nothing rotates.
    let before = read(&dir.join(QUARANTINE_FILE));
    let shard = dir.join("rows.jsonl");
    let mut text = std::fs::read_to_string(&shard).unwrap();
    text.push_str(&garbage(4));
    text.push('\n');
    std::fs::write(&shard, text).unwrap();
    let store = CampaignStore::open(&dir).unwrap();
    assert_eq!(store.health().quarantined, 1, "still detected");
    assert_eq!(store.len(), rows.len());
    drop(store);
    assert_eq!(
        read(&dir.join(QUARANTINE_FILE)),
        before,
        "duplicate incident must not grow or rotate the quarantine"
    );
    assert!(read(&rotation(&dir, 1)).contains(&garbage(4)));

    // Evidence from outside the row loader — a corrupt search journal,
    // then a profile line, set aside as the doctor's repairs do — goes
    // through the same appender: it rotates at the cap instead of
    // growing the primary past it.
    let search_garbage = BadLine {
        line: 2,
        raw: "journal garbage".to_string(),
        reason: "search journal corrupt (not JSON); full file preserved".to_string(),
    };
    assert_eq!(
        set_aside(&dir, "search/search.journal", &[search_garbage]).unwrap(),
        1
    );
    let primary = read(&dir.join(QUARANTINE_FILE));
    assert!(primary.contains("journal garbage") && primary.lines().count() == 1);
    assert!(read(&rotation(&dir, 1)).contains(&garbage(5)));
    assert!(read(&rotation(&dir, 3)).contains(&garbage(3)));
    let profile_garbage = BadLine {
        line: 1,
        raw: "profile garbage".to_string(),
        reason: "profile record failed checksum or parse".to_string(),
    };
    let appended = set_aside(
        &dir,
        "profiles.jsonl",
        std::slice::from_ref(&profile_garbage),
    )
    .unwrap();
    assert_eq!(appended, 1);
    assert!(read(&rotation(&dir, 1)).contains("journal garbage"));
    assert!(!rotation(&dir, QUARANTINE_KEEP + 1).exists());
    let files = |dir: &Path| {
        (1..=QUARANTINE_KEEP)
            .map(|i| std::fs::read(rotation(dir, i)).unwrap())
            .chain([std::fs::read(dir.join(QUARANTINE_FILE)).unwrap()])
            .collect::<Vec<_>>()
    };
    let before = files(&dir);
    let again = set_aside(&dir, "profiles.jsonl", &[profile_garbage]).unwrap();
    assert_eq!(again, 0, "deduped");
    assert_eq!(files(&dir), before, "a deduped record rotates nothing");
    assert_eq!(rotated_lines(&dir), QUARANTINE_KEEP as usize);

    std::env::remove_var("MUSA_QUARANTINE_CAP");
    let _ = std::fs::remove_dir_all(&dir);
}
