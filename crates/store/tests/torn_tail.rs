//! Crash-artifact and corruption handling on open: torn final lines
//! are truncated away (and the file repaired), corrupt rows are
//! quarantined with provenance, legacy checksum-less rows are
//! grandfathered in, and read-only opens detect everything without
//! writing a byte.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use musa_apps::{AppId, GenParams};
use musa_arch::{DesignSpace, NodeConfig};
use musa_core::ConfigResult;
use musa_power::PowerBreakdown;
use musa_store::{CampaignStore, StoreHealth, StoreRow, QUARANTINE_FILE};

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "musa-store-torn-{tag}-{}-{}",
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

/// Write `rows` through the normal append path and return the store
/// file's bytes.
fn write_store(dir: &PathBuf, rows: &[StoreRow]) -> Vec<u8> {
    std::fs::create_dir_all(dir).unwrap();
    {
        let mut store = CampaignStore::open(dir).unwrap();
        store.append_batch(rows.to_vec()).unwrap();
    }
    std::fs::read(dir.join("rows.jsonl")).unwrap()
}

#[test]
fn torn_tail_is_truncated_and_the_file_repaired() {
    let configs = DesignSpace::all();
    let rows = vec![
        synth_row(AppId::Hydro, configs[0], 1.0),
        synth_row(AppId::Hydro, configs[1], 2.0),
        synth_row(AppId::Spmz, configs[2], 3.0),
    ];
    let dir = tmp_dir("tail");
    let bytes = write_store(&dir, &rows);
    // Cut mid-way through the final line: the crash signature.
    std::fs::write(dir.join("rows.jsonl"), &bytes[..bytes.len() - 17]).unwrap();

    let store = CampaignStore::open(&dir).unwrap();
    assert_eq!(store.len(), 2, "complete rows survive the torn tail");
    assert_eq!(store.rows()[0], rows[0]);
    assert_eq!(store.rows()[1], rows[1]);
    assert_eq!(store.health().tails_repaired, 1);
    assert!(
        !store.health().degraded(),
        "a torn tail is a normal crash artifact, not degradation"
    );
    drop(store);

    // The repair happened on disk: newline-terminated, two lines, no
    // quarantine file (nothing was corrupt), and a reopen is clean.
    let repaired = std::fs::read_to_string(dir.join("rows.jsonl")).unwrap();
    assert!(repaired.ends_with('\n'));
    assert_eq!(repaired.lines().count(), 2);
    assert!(!dir.join(QUARANTINE_FILE).exists());
    let again = CampaignStore::open(&dir).unwrap();
    assert_eq!(again.health(), &StoreHealth::default());
    assert_eq!(again.len(), 2);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn checksum_mismatch_is_quarantined_with_provenance() {
    let configs = DesignSpace::all();
    let rows = vec![
        synth_row(AppId::Hydro, configs[0], 1.0),
        synth_row(AppId::Spmz, configs[1], 2.0),
    ];
    let dir = tmp_dir("crc");
    let text = String::from_utf8(write_store(&dir, &rows)).unwrap();

    // Flip one digit of the first row's time_ns. The JSON stays valid
    // and time_ns is not part of the key fingerprint, so ONLY the
    // checksum can catch this.
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    let at = lines[0].find("\"time_ns\":").expect("field present") + "\"time_ns\":".len();
    let old = lines[0].as_bytes()[at] as char;
    let new = if old == '9' { '8' } else { '9' };
    lines[0].replace_range(at..at + 1, &new.to_string());
    let corrupted_line = lines[0].clone();
    std::fs::write(dir.join("rows.jsonl"), lines.join("\n") + "\n").unwrap();

    let store = CampaignStore::open(&dir).unwrap();
    assert_eq!(store.len(), 1, "only the intact row loads");
    assert_eq!(store.rows()[0], rows[1]);
    assert_eq!(store.health().quarantined, 1);
    assert!(store.health().degraded());
    drop(store);

    // Quarantine provenance: the verbatim bad line, its location, and
    // a checksum reason.
    let q = std::fs::read_to_string(dir.join(QUARANTINE_FILE)).unwrap();
    let record: musa_store::QuarantineRecord =
        musa_obs::json::from_str(q.lines().next().unwrap()).expect("quarantine records are JSON");
    assert_eq!(record.file, "rows.jsonl");
    assert_eq!(record.line, 1);
    assert!(
        record.reason.contains("checksum"),
        "reason: {}",
        record.reason
    );
    assert_eq!(record.raw, corrupted_line);

    // Reload-equivalence: the rewritten shard reopens with the same
    // surviving row and a clean bill of health (quarantine runs once).
    let again = CampaignStore::open(&dir).unwrap();
    assert_eq!(again.health(), &StoreHealth::default());
    assert_eq!(again.len(), 1);
    assert_eq!(again.rows()[0], rows[1]);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn key_mismatch_is_quarantined_even_without_a_checksum() {
    let configs = DesignSpace::all();
    let good = synth_row(AppId::Hydro, configs[0], 1.0);
    let mut bad = synth_row(AppId::Spmz, configs[1], 2.0);
    bad.key = good.key.clone(); // stored fingerprint lies about the content

    let dir = tmp_dir("key");
    std::fs::create_dir_all(&dir).unwrap();
    // Hand-written lines without a crc field: the pre-checksum format.
    std::fs::write(
        dir.join("rows.jsonl"),
        format!(
            "{}\n{}\n",
            musa_obs::json::to_string(&good),
            musa_obs::json::to_string(&bad)
        ),
    )
    .unwrap();

    let store = CampaignStore::open(&dir).unwrap();
    // The legacy checksum-less good row is grandfathered in...
    assert_eq!(store.len(), 1);
    assert_eq!(store.rows()[0], good);
    // ...while the key mismatch is quarantined with the key reason.
    assert_eq!(store.health().quarantined, 1);
    drop(store);
    let q = std::fs::read_to_string(dir.join(QUARANTINE_FILE)).unwrap();
    let record: musa_store::QuarantineRecord =
        musa_obs::json::from_str(q.lines().next().unwrap()).unwrap();
    assert!(
        record.reason.contains("fingerprint"),
        "reason: {}",
        record.reason
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn respelled_floats_load_clean_when_resealed_over_their_own_bytes() {
    // A row file written by another JSON writer spells the same floats
    // differently (`2.0` for `2`, `1e-7` for `0.0000001`). The seal is
    // checked over the line's bytes, not over a re-serialisation of the
    // parsed row, so such a line is healthy.
    let mut row = synth_row(AppId::Hydro, DesignSpace::all()[0], 1.0);
    row.result.energy_j = 1e-7;
    let ours = musa_obs::json::to_string(&row);
    assert!(ours.contains("\"time_ns\":2,") && ours.contains("\"energy_j\":0.0000001,"));
    let theirs = ours
        .replace("\"time_ns\":2,", "\"time_ns\":2.0,")
        .replace("\"energy_j\":0.0000001,", "\"energy_j\":1e-7,");
    assert_ne!(ours, theirs);
    let sealed = musa_store::integrity::seal_line(&theirs);

    let dir = tmp_dir("respell");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("rows.jsonl"), format!("{sealed}\n")).unwrap();
    let store = CampaignStore::open(&dir).unwrap();
    assert_eq!(store.health(), &StoreHealth::default());
    assert_eq!(store.rows(), std::slice::from_ref(&row));
    drop(store);

    // One flipped byte under the same seal is still corruption.
    let flipped = sealed.replacen("\"time_ns\":2.0,", "\"time_ns\":3.0,", 1);
    std::fs::write(dir.join("rows.jsonl"), format!("{flipped}\n")).unwrap();
    let store = CampaignStore::open(&dir).unwrap();
    assert_eq!((store.len(), store.health().quarantined), (0, 1));
    drop(store);
    let q = std::fs::read_to_string(dir.join(QUARANTINE_FILE)).unwrap();
    let record: musa_store::QuarantineRecord =
        musa_obs::json::from_str(q.lines().next().unwrap()).unwrap();
    assert_eq!(
        record.reason,
        "checksum mismatch (row bytes altered after write)"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_seed_above_2_pow_53_is_not_quarantined() {
    // `GenParams.seed` is a public u64; read back through an f64 it
    // would round, the recomputed key would differ and a healthy row
    // would be quarantined as corrupt.
    let mut row = synth_row(AppId::Lulesh, DesignSpace::all()[3], 1.0);
    row = StoreRow::new(
        GenParams {
            seed: u64::MAX,
            ..GenParams::tiny()
        },
        false,
        row.result,
    );
    let dir = tmp_dir("seed");
    write_store(&dir, std::slice::from_ref(&row));
    let store = CampaignStore::open(&dir).unwrap();
    assert_eq!(store.health(), &StoreHealth::default());
    assert_eq!(store.rows(), std::slice::from_ref(&row));
    assert_eq!(store.rows()[0].gen.seed, u64::MAX);
    assert!(store.rows()[0].is_consistent());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn read_only_open_detects_but_never_writes() {
    let configs = DesignSpace::all();
    let rows = vec![
        synth_row(AppId::Hydro, configs[0], 1.0),
        synth_row(AppId::Spmz, configs[1], 2.0),
        synth_row(AppId::Btmz, configs[2], 3.0),
    ];
    let dir = tmp_dir("ro");
    let bytes = write_store(&dir, &rows);
    // Corrupt the middle line AND tear the tail.
    let text = String::from_utf8(bytes).unwrap();
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    lines[1] = format!("x{}", lines[1]);
    let mangled = format!(
        "{}\n{}\n{}",
        lines[0],
        lines[1],
        &lines[2][..lines[2].len() / 2]
    );
    std::fs::write(dir.join("rows.jsonl"), &mangled).unwrap();

    let store = CampaignStore::open_read_only(&dir).unwrap();
    assert_eq!(store.len(), 1);
    assert_eq!(store.health().quarantined, 1);
    assert_eq!(store.health().tails_repaired, 1);
    assert!(store.health().degraded());
    drop(store);

    // Detection only: the mangled file is byte-identical and no
    // quarantine file appeared.
    assert_eq!(
        std::fs::read_to_string(dir.join("rows.jsonl")).unwrap(),
        mangled
    );
    assert!(!dir.join(QUARANTINE_FILE).exists());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn appends_after_a_newline_less_tail_do_not_merge_rows() {
    let configs = DesignSpace::all();
    let first = synth_row(AppId::Hydro, configs[0], 1.0);
    let second = synth_row(AppId::Spmz, configs[1], 2.0);
    let dir = tmp_dir("nl");
    let bytes = write_store(&dir, std::slice::from_ref(&first));
    // Crash exactly between the final `}` and its newline: the row is
    // complete, only the terminator is missing.
    std::fs::write(dir.join("rows.jsonl"), &bytes[..bytes.len() - 1]).unwrap();

    let mut store = CampaignStore::open(&dir).unwrap();
    assert_eq!(store.len(), 1, "the complete row is kept, not truncated");
    store.append_batch(vec![second.clone()]).unwrap();
    drop(store);

    // Without the open-time newline repair the append would have
    // concatenated onto the first row and destroyed both.
    let again = CampaignStore::open(&dir).unwrap();
    assert_eq!(again.len(), 2);
    assert_eq!(again.health(), &StoreHealth::default());
    let _ = std::fs::remove_dir_all(&dir);
}
