//! End-to-end drills for distributed campaign execution
//! (`dse --workers N --listen ADDR` + `dse dist-worker --connect`),
//! driving the real `dse` binary over real loopback TCP.
//!
//! The contract under test is the same byte-identity the pool e2e
//! suite enforces, with workers the supervisor did not spawn: whatever
//! the distributed run is put through — external workers sharing the
//! sweep with the local pool, garbled frames killing connections
//! mid-lease, an external worker SIGKILLed with a lease outstanding —
//! the final store must hold exactly the rows a sequential run
//! produces. Rows ship as the executor's sealed line verbatim, so the
//! comparison really is byte-level, not merely semantic.
//!
//! The kill-9 drill murders a real process and is gated behind
//! `CHAOS=1` like the pool's:
//!
//! ```sh
//! CHAOS=1 cargo test -p musa-bench --test dist_e2e
//! ```

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use musa_obs::json::JsonValue;
use musa_store::{journal, LeaseEvent};

const DSE: &str = env!("CARGO_BIN_EXE_dse");

/// Tiny-scale sweep shared by every drill: 6 configs spread across the
/// design space × all apps. Only the supervisor is told
/// (`MUSA_TINY` / `MUSA_CONFIG_SLICE`); the external workers learn
/// what to simulate from their leases alone.
const CONFIG_SLICE: usize = 6;

fn tmp_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "musa-dist-e2e-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn chaos_enabled() -> bool {
    std::env::var("CHAOS").as_deref() == Ok("1")
}

/// A supervisor invocation at the drill scale (store dir + extra argv).
fn supervisor_command(dir: &Path, extra: &[&str]) -> Command {
    let mut cmd = Command::new(DSE);
    cmd.arg("--store-dir")
        .arg(dir)
        .args(extra)
        .env("MUSA_TINY", "1")
        .env("MUSA_CONFIG_SLICE", CONFIG_SLICE.to_string())
        .env_remove("MUSA_FAULTS")
        .env_remove("MUSA_FAULT_SEED");
    cmd
}

/// A dist-worker invocation against `addr`, in an environment that
/// says nothing about the campaign.
fn worker_command(addr: &str, extra: &[&str]) -> Command {
    let mut cmd = Command::new(DSE);
    cmd.args(["dist-worker", "--connect", addr])
        .args(extra)
        .env_remove("MUSA_TINY")
        .env_remove("MUSA_CONFIG_SLICE")
        .env_remove("MUSA_FAULTS")
        .env_remove("MUSA_FAULT_SEED");
    cmd
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// Block until the supervisor's `dist-status.json` beacon appears and
/// parses, and return the published (resolved-port) address. The
/// beacon is written when the hub binds, so this doubles as "the
/// endpoint is accepting connections".
fn wait_for_beacon_addr(dir: &Path, sup: &mut Child) -> String {
    let beacon = dir.join("dist-status.json");
    let deadline = Instant::now() + Duration::from_secs(30);
    while Instant::now() < deadline {
        if let Ok(body) = std::fs::read_to_string(&beacon) {
            if let Ok(v) = JsonValue::parse(&body) {
                if let Some(addr) = v.get("addr").and_then(|a| a.as_str()) {
                    return addr.to_string();
                }
            }
        }
        if let Some(status) = sup.try_wait().expect("try_wait supervisor") {
            panic!("supervisor exited ({status}) before publishing its beacon");
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    panic!("no dist-status.json beacon within 30s");
}

/// All data lines of a store directory (quarantine and the profiling
/// flight record excluded, exactly like the pool suite), sorted — the
/// byte-level identity two equivalent campaigns must share. Leases
/// land in `dist-l*.jsonl` files, which are plain store shards, so the
/// comparison is layout-independent by construction.
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

/// Leases the journal shows granted to the worker process `pid`.
fn leases_granted_to(dir: &Path, pid: u32) -> usize {
    let tag = format!("w{pid}@");
    journal::replay(dir)
        .events
        .iter()
        .filter(|e| matches!(e, LeaseEvent::RemoteGrant { peer, .. } if peer.starts_with(&tag)))
        .count()
}

/// Anything a worker with this pid left under the system temp dir.
fn worker_scratch(pid: u32) -> PathBuf {
    std::env::temp_dir().join(format!("musa-dist-worker-{pid}"))
}

/// A fault-free sequential reference run; the byte-identity oracle.
fn reference_lines(tag: &str) -> (PathBuf, Vec<String>) {
    let dir = tmp_dir(tag);
    let out = supervisor_command(&dir, &[])
        .output()
        .expect("spawn sequential dse");
    assert!(
        out.status.success(),
        "sequential reference run failed: {}",
        stderr_of(&out)
    );
    let lines = sorted_store_lines(&dir);
    assert!(!lines.is_empty(), "reference run persisted nothing");
    (dir, lines)
}

/// `--listen` with no external worker ever connecting is a plain local
/// pool run: same bytes, clean journal, exit 0 — and the beacon must
/// be left in its draining terminal state for whoever reads it.
#[test]
fn listen_without_remote_workers_degrades_to_the_local_pool() {
    let (ref_dir, want) = reference_lines("degrade-ref");

    let dir = tmp_dir("degrade");
    let out = supervisor_command(
        &dir,
        &[
            "--workers",
            "2",
            "--lease-batch",
            "4",
            "--listen",
            "127.0.0.1:0",
        ],
    )
    .output()
    .expect("spawn listening dse");
    assert!(
        out.status.success(),
        "--listen with zero remotes must succeed: {}",
        stderr_of(&out)
    );
    assert_eq!(
        sorted_store_lines(&dir),
        want,
        "zero-remote --listen store differs from sequential"
    );
    let rep = journal::replay(&dir);
    assert!(rep.clean_terminated, "torn journal");
    assert!(matches!(
        rep.events.last(),
        Some(LeaseEvent::Complete { .. })
    ));

    let beacon =
        std::fs::read_to_string(dir.join("dist-status.json")).expect("the beacon outlives the run");
    let v = JsonValue::parse(&beacon).expect("beacon parses");
    assert!(
        matches!(v.get("draining"), Some(JsonValue::Bool(true))),
        "terminal beacon must say draining: {beacon}"
    );
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&ref_dir);
}

/// The core distributed drill: a slow local pool (delay faults, which
/// never perturb result bytes) shares the sweep with two loopback
/// dist-workers; the store must come out byte-identical to sequential,
/// with the external workers' leases journalled under their tags, and
/// a drained worker must leave no scratch directory behind.
#[test]
fn remote_workers_share_the_sweep_byte_identically() {
    if !musa_fault::COMPILED {
        eprintln!("skipping: needs the fault feature");
        return;
    }
    let (ref_dir, want) = reference_lines("share-ref");

    let dir = tmp_dir("share");
    let mut sup = supervisor_command(
        &dir,
        &[
            "--workers",
            "1",
            "--lease-batch",
            "2",
            "--listen",
            "127.0.0.1:0",
            "--faults",
            "sim.point=delay:100ms@1.0",
        ],
    )
    .stdout(Stdio::null())
    .stderr(Stdio::null())
    .spawn()
    .expect("spawn listening dse");
    let addr = wait_for_beacon_addr(&dir, &mut sup);

    let workers: Vec<Child> = (0..2)
        .map(|i| {
            worker_command(&addr, &["--reconnect-for", "60s"])
                .stdout(Stdio::null())
                .stderr(Stdio::null())
                .spawn()
                .unwrap_or_else(|e| panic!("spawn dist-worker {i}: {e}"))
        })
        .collect();

    let status = sup.wait().expect("wait for supervisor");
    assert!(status.success(), "distributed run failed: {status}");
    let mut external_leases = 0;
    for (i, mut w) in workers.into_iter().enumerate() {
        let status = w.wait().expect("wait for dist-worker");
        assert!(
            status.success(),
            "dist-worker {i} must drain cleanly: {status}"
        );
        external_leases += leases_granted_to(&dir, w.id());
        assert!(
            !worker_scratch(w.id()).exists(),
            "drained dist-worker {i} left its scratch directory behind"
        );
    }

    assert_eq!(
        sorted_store_lines(&dir),
        want,
        "distributed store differs from sequential"
    );
    assert!(
        external_leases > 0,
        "the external workers never took a lease — the drill proved nothing"
    );
    let rep = journal::replay(&dir);
    assert!(rep.clean_terminated, "torn journal");
    assert!(matches!(
        rep.events.last(),
        Some(LeaseEvent::Complete { .. })
    ));
    assert!(rep.poisoned().is_empty(), "spurious poison");
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&ref_dir);
}

/// Single-bit garbles injected into the workers' frame sends: the CRC
/// seal must catch every corruption, the affected connection dies and
/// reconnects, interrupted leases are re-issued, and the run still
/// converges to sequential bytes with exit 0. The poison cap is
/// raised because a connection death blames the in-flight point — the
/// drill injects many deaths and none of them may quarantine anything.
#[test]
fn garbled_frames_reconnect_and_converge_byte_identically() {
    if !musa_fault::COMPILED {
        eprintln!("skipping: needs the fault feature");
        return;
    }
    let (ref_dir, want) = reference_lines("garble-ref");

    let dir = tmp_dir("garble");
    let mut sup = supervisor_command(
        &dir,
        &[
            "--workers",
            "1",
            "--lease-batch",
            "2",
            "--poison-cap",
            "50",
            "--listen",
            "127.0.0.1:0",
            "--faults",
            "sim.point=delay:100ms@1.0",
        ],
    )
    .stdout(Stdio::null())
    .stderr(Stdio::null())
    .spawn()
    .expect("spawn listening dse");
    let addr = wait_for_beacon_addr(&dir, &mut sup);

    let workers: Vec<Child> = (0..2)
        .map(|i| {
            worker_command(
                &addr,
                &[
                    "--reconnect-for",
                    "60s",
                    "--faults",
                    "seed=7,dist.frame.send=garble@0.15",
                ],
            )
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .unwrap_or_else(|e| panic!("spawn garbling dist-worker {i}: {e}"))
        })
        .collect();

    let status = sup.wait().expect("wait for supervisor");
    assert!(
        status.success(),
        "the supervisor must absorb garbled frames: {status}"
    );
    // A worker may be mid-backoff when the endpoint closes and give up
    // instead of draining; either way it must terminate on its own.
    for (i, mut w) in workers.into_iter().enumerate() {
        let code = w
            .wait()
            .unwrap_or_else(|e| panic!("wait for dist-worker {i}: {e}"))
            .code();
        assert!(
            matches!(code, Some(0) | Some(1)),
            "garbling dist-worker {i} must drain or give up, got {code:?}"
        );
    }

    assert_eq!(
        sorted_store_lines(&dir),
        want,
        "store under garbled frames differs from sequential"
    );
    let rep = journal::replay(&dir);
    assert!(rep.clean_terminated, "torn journal");
    assert!(matches!(
        rep.events.last(),
        Some(LeaseEvent::Complete { .. })
    ));
    assert!(
        rep.poisoned().is_empty(),
        "connection deaths must not quarantine points under the raised cap"
    );
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&ref_dir);
}

/// A worker pointed at a hub that is gone for good (a port nothing
/// listens on) must not retry forever: `--max-reconnects` bounds the
/// attempts and the worker exits 1 with an operator-readable summary,
/// well before the reconnect window would have expired.
#[test]
fn max_reconnects_bounds_a_worker_whose_hub_is_gone() {
    // Bind then drop a listener: connects to this port now fail fast.
    let addr = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        l.local_addr().unwrap().to_string()
    };
    let out = worker_command(&addr, &["--reconnect-for", "120s", "--max-reconnects", "2"])
        .output()
        .expect("spawn dist-worker against a dead port");
    assert_eq!(
        out.status.code(),
        Some(1),
        "a gone hub must exit 1, not spin: {}",
        stderr_of(&out)
    );
    let err = stderr_of(&out);
    assert!(
        err.contains("--max-reconnects 2") && err.contains("giving up"),
        "the summary must name the bound that fired: {err}"
    );
}

// ---------------------------------------------------------------------
// Kill-9 drill (CHAOS=1): a real SIGKILL against a real dist-worker.
// ---------------------------------------------------------------------

#[test]
fn kill_nine_dist_worker_reissues_the_lease_and_converges() {
    if !chaos_enabled() {
        eprintln!("skipping: set CHAOS=1 to run the kill-9 dist-worker drill");
        return;
    }
    if !musa_fault::COMPILED {
        eprintln!("skipping: needs the fault feature");
        return;
    }
    let (ref_dir, want) = reference_lines("kill9-ref");

    let dir = tmp_dir("kill9");
    let mut sup = supervisor_command(
        &dir,
        &[
            "--workers",
            "1",
            "--lease-batch",
            "2",
            "--listen",
            "127.0.0.1:0",
            "--faults",
            "sim.point=delay:150ms@1.0",
        ],
    )
    .stdout(Stdio::null())
    .stderr(Stdio::null())
    .spawn()
    .expect("spawn listening dse");
    let addr = wait_for_beacon_addr(&dir, &mut sup);

    // One victim worker, slowed like the local pool so its lease is
    // still in flight when the first shipped row betrays it.
    let mut victim = worker_command(
        &addr,
        &[
            "--reconnect-for",
            "60s",
            "--faults",
            "sim.point=delay:150ms@1.0",
        ],
    )
    .stdout(Stdio::null())
    .stderr(Stdio::null())
    .spawn()
    .expect("spawn victim dist-worker");

    // The journal granting the victim a lease means it is inside the
    // first of its two 150 ms points: murder it there.
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut saw_grant = false;
    while Instant::now() < deadline {
        if leases_granted_to(&dir, victim.id()) > 0 {
            saw_grant = true;
            break;
        }
        if sup.try_wait().expect("try_wait").is_some() {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(saw_grant, "the victim never took a lease (sweep too fast?)");
    let _ = Command::new("kill")
        .args(["-9", &victim.id().to_string()])
        .status();
    let _ = victim.wait();

    let status = sup.wait().expect("wait for supervisor");
    assert!(
        status.success(),
        "supervisor must absorb the murdered dist-worker: {status}"
    );
    let rep = journal::replay(&dir);
    assert!(
        rep.events
            .iter()
            .any(|e| matches!(e, LeaseEvent::Dead { .. })),
        "the remote lease death must be journalled"
    );
    assert!(
        rep.events
            .iter()
            .any(|e| matches!(e, LeaseEvent::Requeue { .. })),
        "the dead worker's lease must be re-queued"
    );
    assert!(rep.poisoned().is_empty(), "a murdered worker is not poison");
    assert_eq!(
        sorted_store_lines(&dir),
        want,
        "post-kill store differs from sequential"
    );
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&ref_dir);
}
