//! Resume and multi-file semantics, end-to-end with real simulations:
//!
//! * an interrupted sweep, re-opened and resumed, produces the exact
//!   row set of a one-shot sweep (the acceptance criterion for
//!   `dse --resume`);
//! * rows spread over several row files (lease files, or the files of
//!   an older binary's split runs) merge into the identical campaign a
//!   single run produces, and resume with nothing left to simulate;
//! * rows simulated under different `GenParams` are never reused.

use std::path::{Path, PathBuf};

use musa_apps::{AppId, GenParams};
use musa_arch::{DesignSpace, NodeConfig};
use musa_core::{Campaign, SweepOptions};
use musa_obs::json::{FromJson, JsonValue};
use musa_store::{write_csv, write_json, CampaignStore, FillOptions, StoreRow, DEFAULT_WRITE_FILE};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("musa-store-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn sweep() -> SweepOptions {
    SweepOptions {
        gen: GenParams::tiny(),
        full_replay: false,
    }
}

fn quiet(sweep: SweepOptions) -> FillOptions {
    FillOptions {
        progress: false,
        batch: 4,
        ..FillOptions::new(sweep)
    }
}

/// An evenly spread slice of the 864-point space.
fn config_slice(n: usize) -> Vec<NodeConfig> {
    let all = DesignSpace::all();
    all.iter().step_by(all.len() / n).take(n).copied().collect()
}

#[test]
fn resume_completes_only_the_missing_points() {
    let dir = tmp_dir("resume");
    let apps = [AppId::Hydro, AppId::Spmz];
    let configs = config_slice(12);

    // Reference: one-shot sweep in a separate directory.
    let ref_dir = tmp_dir("resume-ref");
    let mut ref_store = CampaignStore::open(&ref_dir).unwrap();
    let ref_report = ref_store.fill(&apps, &configs, &quiet(sweep())).unwrap();
    assert_eq!(ref_report.simulated, 24);
    assert_eq!(ref_report.cached, 0);
    let reference = ref_store.campaign_for(&apps, &configs, &sweep());
    assert_eq!(reference.results.len(), 24);

    // Interrupted sweep: fill only half the configs, then drop the
    // store (the process "dies").
    {
        let mut store = CampaignStore::open(&dir).unwrap();
        let report = store.fill(&apps, &configs[..6], &quiet(sweep())).unwrap();
        assert_eq!(report.simulated, 12);
    }

    // Resume: re-open, fill the full space — only the other half runs.
    let mut store = CampaignStore::open(&dir).unwrap();
    assert_eq!(store.len(), 12, "persisted rows survive the restart");
    let report = store.fill(&apps, &configs, &quiet(sweep())).unwrap();
    assert_eq!(report.cached, 12, "first half must come from disk");
    assert_eq!(report.simulated, 12, "only the second half is simulated");

    let resumed = store.campaign_for(&apps, &configs, &sweep());
    assert_eq!(
        resumed, reference,
        "resumed sweep must equal the one-shot sweep row-for-row"
    );

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&ref_dir);
}

/// Names row file `i` of `n`.
type FileName = fn(u64, u64) -> String;

/// Spread the sealed lines of the one-shot store in `src` over `n` row
/// files in `dst`, a line going to file `key % n` named `name(i, n)`:
/// what a campaign run by several writers leaves behind.
fn split_rows(src: &Path, dst: &Path, n: u64, name: FileName) {
    let text = std::fs::read_to_string(src.join(DEFAULT_WRITE_FILE)).unwrap();
    let mut files = vec![String::new(); n as usize];
    for line in text.lines() {
        let row = StoreRow::read_json(&JsonValue::parse(line).unwrap()).unwrap();
        let file = &mut files[(row.point_key().unwrap().0 % n) as usize];
        file.push_str(line);
        file.push('\n');
    }
    std::fs::create_dir_all(dst).unwrap();
    for (i, body) in (0..n).zip(&files) {
        if !body.is_empty() {
            std::fs::write(dst.join(name(i, n)), body).unwrap();
        }
    }
}

/// The CSV and JSON exports of a campaign, as bytes.
fn exports(campaign: &Campaign, dir: &Path) -> (Vec<u8>, Vec<u8>) {
    let (csv, json) = (dir.join("out.csv"), dir.join("out.json"));
    write_csv(campaign, &csv).unwrap();
    write_json(campaign, &json).unwrap();
    (std::fs::read(&csv).unwrap(), std::fs::read(&json).unwrap())
}

#[test]
fn rows_split_across_files_merge_into_the_one_shot_campaign() {
    let apps = [AppId::Btmz];
    let configs = config_slice(16);
    let ref_dir = tmp_dir("split-ref");
    let mut ref_store = CampaignStore::open(&ref_dir).unwrap();
    ref_store.fill(&apps, &configs, &quiet(sweep())).unwrap();
    let reference = ref_store.campaign_for(&apps, &configs, &sweep());
    let out_dir = tmp_dir("split-out");
    std::fs::create_dir_all(&out_dir).unwrap();
    let ref_exports = exports(&reference, &out_dir);

    // The lease files an older multi-process fill wrote, and the files
    // an older binary's `i/n` split runs wrote: both layouts must still
    // load.
    let layouts: [(&str, FileName); 2] = [
        ("lease", |i, _| format!("dist-l{i:04}-a0.jsonl")),
        ("legacy", |i, n| format!("shard-{i:04}-of-{n:04}.jsonl")),
    ];
    for (tag, name) in layouts {
        let dir = tmp_dir(&format!("split-{tag}"));
        split_rows(&ref_dir, &dir, 3, name);
        assert!(std::fs::read_dir(&dir).unwrap().count() > 1, "{tag}");

        // A store opening the directory sees the merged campaign,
        // identical to the one-shot run…
        let mut merged = CampaignStore::open(&dir).unwrap();
        assert_eq!(merged.len(), 16, "{tag}");
        assert_eq!(
            merged.campaign_for(&apps, &configs, &sweep()),
            reference,
            "{tag}"
        );

        // …has nothing left to simulate on resume…
        let report = merged.fill(&apps, &configs, &quiet(sweep())).unwrap();
        assert_eq!((report.simulated, report.cached), (0, 16), "{tag}");
        assert!(
            !dir.join(DEFAULT_WRITE_FILE).exists(),
            "{tag}: resume wrote rows"
        );

        // …and exports the same bytes.
        let campaign = merged.campaign_for(&apps, &configs, &sweep());
        assert!(
            exports(&campaign, &out_dir) == ref_exports,
            "{tag}: exports differ"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    let _ = std::fs::remove_dir_all(&ref_dir);
    let _ = std::fs::remove_dir_all(&out_dir);
}

#[test]
fn changed_gen_params_are_resimulated_not_reused() {
    let dir = tmp_dir("params");
    let apps = [AppId::Hydro];
    let configs = config_slice(4);
    let sweep_a = sweep();
    let sweep_b = SweepOptions {
        gen: GenParams {
            seed: 42,
            ..GenParams::tiny()
        },
        ..sweep()
    };

    let mut store = CampaignStore::open(&dir).unwrap();
    let report_a = store.fill(&apps, &configs, &quiet(sweep_a)).unwrap();
    assert_eq!(report_a.simulated, 4);

    // Same store, different params: nothing may be served from cache.
    let report_b = store.fill(&apps, &configs, &quiet(sweep_b)).unwrap();
    assert_eq!(report_b.cached, 0, "params changed, cache must not match");
    assert_eq!(report_b.simulated, 4);

    // Both sweeps are fully addressable, without cross-talk.
    assert_eq!(store.len(), 8);
    assert_eq!(
        store.campaign_for(&apps, &configs, &sweep_a).results.len(),
        4
    );
    assert_eq!(
        store.campaign_for(&apps, &configs, &sweep_b).results.len(),
        4
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_final_line_is_tolerated_on_reopen() {
    let dir = tmp_dir("torn");
    let apps = [AppId::Spmz];
    let configs = config_slice(3);
    {
        let mut store = CampaignStore::open(&dir).unwrap();
        store.fill(&apps, &configs, &quiet(sweep())).unwrap();
    }
    // Simulate a crash mid-write: truncate the file inside the last row.
    let file = dir.join(DEFAULT_WRITE_FILE);
    let text = std::fs::read_to_string(&file).unwrap();
    std::fs::write(&file, &text[..text.len() - 40]).unwrap();

    let mut store = CampaignStore::open(&dir).unwrap();
    assert_eq!(store.len(), 2, "intact rows load, the torn row is dropped");
    let report = store.fill(&apps, &configs, &quiet(sweep())).unwrap();
    assert_eq!(report.cached, 2);
    assert_eq!(report.simulated, 1, "the torn point is re-simulated");
    assert_eq!(
        store.campaign_for(&apps, &configs, &sweep()).results.len(),
        3
    );

    let _ = std::fs::remove_dir_all(&dir);
}
