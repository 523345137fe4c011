//! Seeded multi-fault torture harness behind `dse torture`.
//!
//! Each round drives the *real* `dse` binary through one workload —
//! sequential fill, a supervised worker pool, an adaptive search, or a
//! distributed loopback run — under a composed storm: 2–4 simultaneous
//! failpoints drawn from the `musa-fault` registry, a `kill -9` at a
//! seeded instant, and (always, in round 0) a full ENOSPC leg where
//! every row flush fails. It then resumes fault-free until the run
//! converges and asserts the whole durability contract at once:
//!
//! 1. the final store rows are **byte-identical** to a never-faulted
//!    reference of the same workload (no acknowledged row lost, no
//!    extra rows invented);
//! 2. [`crate::repair`] followed by [`crate::audit`] reports exit 0 —
//!    and the repair itself changes no row bytes;
//! 3. the lease journal replays with zero skipped lines and no
//!    poisoned points.
//!
//! Everything is derived from `--seed`: the workload schedule, every
//! leg's fault plan, and the kill instants. The same seed reproduces
//! the same storm, which is what makes a failing round debuggable.

use std::io;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use musa_obs::json::JsonValue;
use musa_obs::rng::SplitMix64;

/// Hard per-leg wall-clock budget; a leg that outlives it is killed
/// and the round fails loudly instead of hanging the harness.
const LEG_TIMEOUT: Duration = Duration::from_secs(180);

/// Fault-free resume attempts allowed before a round is declared
/// non-convergent.
const MAX_RESUMES: u32 = 4;

/// Config slice shared with the pool/dist e2e drills: 6 configs across
/// the design space × all apps = a 30-point campaign per round.
const CONFIG_SLICE: &str = "6";

/// What `dse torture` was asked to do.
#[derive(Debug, Clone)]
pub struct TortureOptions {
    /// Master seed; everything else derives from it.
    pub seed: u64,
    /// Number of storm rounds.
    pub rounds: u32,
    /// Path to the `dse` binary to drive (the CLI passes its own
    /// `current_exe`).
    pub dse: PathBuf,
    /// Scratch root override (default: a seed-stamped directory under
    /// the system temp dir).
    pub root: Option<PathBuf>,
    /// Keep the scratch tree on success (it is always kept on failure).
    pub keep: bool,
}

/// What one round did and survived.
#[derive(Debug, Clone)]
pub struct RoundOutcome {
    /// Round index (0-based).
    pub round: u32,
    /// Workload driven this round.
    pub workload: &'static str,
    /// The composed `MUSA_FAULTS` spec of the storm leg.
    pub faults: String,
    /// Whether the storm leg was killed with SIGKILL.
    pub killed: bool,
    /// Fault-free resume legs needed to converge.
    pub resumes: u32,
    /// Rows in the converged store (== the reference row count).
    pub rows: u64,
}

/// The full harness result.
#[derive(Debug, Clone)]
pub struct TortureReport {
    /// Master seed the storm derived from.
    pub seed: u64,
    /// Per-round outcomes, in order.
    pub outcomes: Vec<RoundOutcome>,
}

impl TortureReport {
    /// Multi-line human summary.
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "torture: {} round(s) survived (seed {})",
            self.outcomes.len(),
            self.seed
        );
        for o in &self.outcomes {
            let _ = writeln!(
                out,
                "  round {:>2}: {:<10} killed={} resumes={} rows={} faults: {}",
                o.round, o.workload, o.killed, o.resumes, o.rows, o.faults
            );
        }
        out
    }
}

/// A seeded index below `n`. The harness draws everything from the
/// workspace's SplitMix64 and never consults wall clocks or OS
/// entropy, or `--seed` would stop reproducing the storm.
fn pick(rng: &mut SplitMix64, n: usize) -> usize {
    (rng.next_u64() % n.max(1) as u64) as usize
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Sequential,
    Pool,
    Search,
    Dist,
}

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::Sequential => "sequential",
            Workload::Pool => "pool",
            Workload::Search => "search",
            Workload::Dist => "dist",
        }
    }
}

fn fail(msg: impl Into<String>) -> io::Error {
    io::Error::other(msg.into())
}

/// Run the whole seeded storm. Returns the survival report, or the
/// first broken durability contract as an error (the scratch tree is
/// kept for post-mortem in that case).
pub fn run_torture(opts: &TortureOptions) -> io::Result<TortureReport> {
    let root = opts.root.clone().unwrap_or_else(|| {
        std::env::temp_dir().join(format!("musa-torture-{}-{}", opts.seed, std::process::id()))
    });
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root)?;
    let mut harness = Harness {
        opts: opts.clone(),
        root: root.clone(),
        campaign_ref: None,
        search_ref: None,
        search_seed: opts.seed.wrapping_mul(2654435761).wrapping_add(17) % 100_000,
    };
    let mut outcomes = Vec::new();
    for round in 0..opts.rounds {
        let mut rng = SplitMix64::new(
            opts.seed
                .wrapping_add(u64::from(round).wrapping_mul(0x9e37)),
        );
        let outcome = harness.run_round(round, &mut rng)?;
        eprintln!(
            "torture: round {round} survived ({}, killed={}, resumes={}, rows={})",
            outcome.workload, outcome.killed, outcome.resumes, outcome.rows
        );
        outcomes.push(outcome);
    }
    if !opts.keep {
        let _ = std::fs::remove_dir_all(&root);
    } else {
        eprintln!("torture: scratch kept at {}", root.display());
    }
    Ok(TortureReport {
        seed: opts.seed,
        outcomes,
    })
}

struct Harness {
    opts: TortureOptions,
    root: PathBuf,
    /// Sorted store rows of a never-faulted sequential run (shared
    /// reference for sequential, pool and dist rounds — their byte
    /// identity is the pool/dist e2e contract this harness leans on).
    campaign_ref: Option<Vec<String>>,
    /// Sorted store rows of a never-faulted search run at `search_seed`.
    search_ref: Option<Vec<String>>,
    search_seed: u64,
}

impl Harness {
    fn run_round(&mut self, round: u32, rng: &mut SplitMix64) -> io::Result<RoundOutcome> {
        let round_dir = self.root.join(format!("round-{round:02}"));
        let store = round_dir.join("store");
        std::fs::create_dir_all(&round_dir)?;

        // Round 0 is always the ENOSPC drill: a sequential fill where
        // every row flush fails, which must lose nothing that was ever
        // acknowledged. Later rounds draw a workload and a composed
        // storm from the seed.
        let workload = if round == 0 {
            Workload::Sequential
        } else {
            [
                Workload::Sequential,
                Workload::Pool,
                Workload::Search,
                Workload::Dist,
            ][pick(rng, 4)]
        };
        let leg_seed = rng.next_u64() % 1_000_000;
        let faults = if round == 0 {
            format!("seed={leg_seed},store.flush=io@1.0")
        } else {
            compose_faults(rng, workload, leg_seed)
        };
        let kill_after = if round == 0 {
            None
        } else {
            Some(Duration::from_millis(150 + rng.next_u64() % 1200))
        };

        // Storm leg.
        let mut killed = false;
        let storm_code = match workload {
            Workload::Dist => {
                self.dist_storm_leg(&round_dir, &store, &faults, kill_after, rng, &mut killed)?
            }
            _ => {
                let mut cmd =
                    self.dse_cmd(&store, &self.workload_argv(workload, false), Some(&faults));
                self.run_leg(&mut cmd, &round_dir, "storm", kill_after, &mut killed)?
            }
        };
        if round == 0 && storm_code == Some(0) {
            return Err(fail(
                "round 0: the ENOSPC leg was expected to fail but exited 0",
            ));
        }
        if killed {
            // Give any orphaned workers their last instants to notice
            // the dead connection and exit before the resume.
            std::thread::sleep(Duration::from_millis(1500));
        }

        // Fault-free resumes until convergence.
        let mut resumes = 0u32;
        let mut converged = storm_code == Some(0);
        while !converged && resumes < MAX_RESUMES {
            resumes += 1;
            let mut dead = false;
            let argv = self.resume_argv(workload, &store);
            let mut cmd = self.dse_cmd(&store, &argv, None);
            let code = self.run_leg(
                &mut cmd,
                &round_dir,
                &format!("resume-{resumes}"),
                None,
                &mut dead,
            )?;
            converged = code == Some(0);
        }
        if !converged {
            return Err(fail(format!(
                "round {round} ({}): no convergence after {MAX_RESUMES} fault-free resumes (logs in {})",
                workload.name(),
                round_dir.display()
            )));
        }

        // Contract 1: byte-identical rows against the never-faulted
        // reference of the same workload.
        let rows = store_rows_sorted(&store)?;
        let reference = self.reference_rows(workload)?;
        if rows != reference {
            return Err(fail(format!(
                "round {round} ({}): store rows diverged from the fault-free reference \
                 ({} vs {} rows; store kept at {})",
                workload.name(),
                rows.len(),
                reference.len(),
                store.display()
            )));
        }

        // Contract 2: the doctor repairs to a clean bill of health and
        // touches no row bytes doing it.
        let report = crate::repair(&store)?;
        if report.exit_code() != 0 {
            return Err(fail(format!(
                "round {round} ({}): doctor not clean after repair:\n{}",
                workload.name(),
                report.render_text()
            )));
        }
        let rows_after = store_rows_sorted(&store)?;
        if rows_after != rows {
            return Err(fail(format!(
                "round {round} ({}): doctor repair changed row bytes",
                workload.name()
            )));
        }

        // Contract 3: the lease journal replays clean and no point was
        // poisoned (the storm injects no panics).
        let replay = musa_store::journal::replay(&store);
        if replay.skipped != 0 || !replay.poisoned().is_empty() {
            return Err(fail(format!(
                "round {round} ({}): lease journal not clean after convergence \
                 (skipped {}, poisoned {})",
                workload.name(),
                replay.skipped,
                replay.poisoned().len()
            )));
        }

        Ok(RoundOutcome {
            round,
            workload: workload.name(),
            faults,
            killed,
            resumes,
            rows: rows.len() as u64,
        })
    }

    fn workload_argv(&self, workload: Workload, resume: bool) -> Vec<String> {
        let mut argv: Vec<String> = match workload {
            Workload::Sequential => Vec::new(),
            Workload::Pool => vec![
                "--workers".into(),
                "2".into(),
                "--lease-batch".into(),
                "4".into(),
            ],
            Workload::Dist => vec![
                "--workers".into(),
                "1".into(),
                "--lease-batch".into(),
                "4".into(),
                "--listen".into(),
                "127.0.0.1:0".into(),
            ],
            Workload::Search => vec![
                "search".into(),
                "--seed".into(),
                self.search_seed.to_string(),
                "--budget".into(),
                "24".into(),
                "--batch".into(),
                "8".into(),
            ],
        };
        if resume {
            argv.push("--resume".into());
        }
        argv
    }

    /// Resume argv per workload: pool rounds resume through the pool
    /// (exercising the lease-journal rewrite), dist rounds through a
    /// plain sequential resume (no listener needed to finish a store),
    /// search rounds through the search replay — unless the journal is
    /// gone, in which case the search restarts (same seed, same points,
    /// already-evaluated rows served from the store).
    fn resume_argv(&self, workload: Workload, store: &Path) -> Vec<String> {
        match workload {
            Workload::Sequential => vec!["--resume".into()],
            Workload::Pool => self.workload_argv(Workload::Pool, true),
            Workload::Dist => vec!["--resume".into()],
            Workload::Search => {
                let journal = store
                    .join(musa_search::SEARCH_DIR)
                    .join(musa_search::JOURNAL_FILE);
                self.workload_argv(Workload::Search, journal.is_file())
            }
        }
    }

    fn dse_cmd(&self, store: &Path, argv: &[String], faults: Option<&str>) -> Command {
        let mut cmd = Command::new(&self.opts.dse);
        cmd.args(argv)
            .arg("--store-dir")
            .arg(store)
            .env("MUSA_TINY", "1")
            .env("MUSA_CONFIG_SLICE", CONFIG_SLICE)
            .env_remove("MUSA_FAULTS")
            .env_remove("MUSA_FAULT_SEED")
            .stdin(Stdio::null());
        if let Some(spec) = faults {
            cmd.env("MUSA_FAULTS", spec);
        }
        cmd
    }

    /// Spawn one leg with stdout/stderr teed to log files, optionally
    /// SIGKILL it at the seeded instant, and enforce the hard timeout.
    fn run_leg(
        &self,
        cmd: &mut Command,
        round_dir: &Path,
        tag: &str,
        kill_after: Option<Duration>,
        killed: &mut bool,
    ) -> io::Result<Option<i32>> {
        let log = std::fs::File::create(round_dir.join(format!("{tag}.log")))?;
        cmd.stdout(log.try_clone()?).stderr(log);
        let mut child = cmd.spawn()?;
        let code = self.reap(&mut child, kill_after, killed, tag)?;
        Ok(code)
    }

    fn reap(
        &self,
        child: &mut Child,
        kill_after: Option<Duration>,
        killed: &mut bool,
        tag: &str,
    ) -> io::Result<Option<i32>> {
        let start = Instant::now();
        loop {
            if let Some(status) = child.try_wait()? {
                return Ok(status.code());
            }
            if let Some(at) = kill_after {
                if start.elapsed() >= at {
                    let _ = child.kill();
                    let _ = child.wait();
                    *killed = true;
                    return Ok(None);
                }
            }
            if start.elapsed() > LEG_TIMEOUT {
                let _ = child.kill();
                let _ = child.wait();
                return Err(fail(format!(
                    "leg {tag} exceeded its {LEG_TIMEOUT:?} budget"
                )));
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    /// The dist round: a listening supervisor plus one remote worker
    /// over loopback. The supervisor carries the composed storm; the
    /// worker garbles its own wire frames. The SIGKILL (when drawn)
    /// lands on the supervisor — the harsher death, since it strands
    /// both the lease journal and the remote's in-flight lease.
    fn dist_storm_leg(
        &self,
        round_dir: &Path,
        store: &Path,
        faults: &str,
        kill_after: Option<Duration>,
        rng: &mut SplitMix64,
        killed: &mut bool,
    ) -> io::Result<Option<i32>> {
        let sup_log = std::fs::File::create(round_dir.join("storm.log"))?;
        let mut sup_cmd = self.dse_cmd(
            store,
            &self.workload_argv(Workload::Dist, false),
            Some(faults),
        );
        sup_cmd.stdout(sup_log.try_clone()?).stderr(sup_log);
        let mut sup = sup_cmd.spawn()?;

        let mut worker: Option<Child> = None;
        if let Some(addr) = wait_for_beacon(store, &mut sup)? {
            let wire_seed = rng.next_u64() % 1_000_000;
            let wire =
                format!("seed={wire_seed},dist.frame.send=garble@0.05,dist.frame.recv=garble@0.05");
            let log = std::fs::File::create(round_dir.join("worker.log"))?;
            let mut cmd = Command::new(&self.opts.dse);
            cmd.args([
                "dist-worker",
                "--connect",
                &addr,
                "--reconnect-for",
                "30s",
                "--max-reconnects",
                "5",
                "--faults",
                &wire,
            ])
            // The leases say what to simulate; the worker only must not
            // inherit this process's own fault plan.
            .env_remove("MUSA_FAULTS")
            .env_remove("MUSA_FAULT_SEED")
            .stdin(Stdio::null())
            .stdout(log.try_clone()?)
            .stderr(log);
            worker = Some(cmd.spawn()?);
        }

        let code = self.reap(&mut sup, kill_after, killed, "storm")?;
        if let Some(mut w) = worker {
            // The supervisor is gone either way; don't let the worker
            // sit out its full reconnect window.
            let _ = w.kill();
            let _ = w.wait();
        }
        Ok(code)
    }

    fn reference_rows(&mut self, workload: Workload) -> io::Result<Vec<String>> {
        match workload {
            Workload::Search => {
                if self.search_ref.is_none() {
                    let store = self.root.join("ref-search");
                    self.build_reference(Workload::Search, &store)?;
                    self.search_ref = Some(store_rows_sorted(&store)?);
                }
                Ok(self.search_ref.clone().unwrap())
            }
            _ => {
                if self.campaign_ref.is_none() {
                    let store = self.root.join("ref-campaign");
                    self.build_reference(Workload::Sequential, &store)?;
                    self.campaign_ref = Some(store_rows_sorted(&store)?);
                }
                Ok(self.campaign_ref.clone().unwrap())
            }
        }
    }

    fn build_reference(&self, workload: Workload, store: &Path) -> io::Result<()> {
        let mut dead = false;
        let mut cmd = self.dse_cmd(store, &self.workload_argv(workload, false), None);
        let code = self.run_leg(
            &mut cmd,
            &self.root,
            &format!("ref-{}", workload.name()),
            None,
            &mut dead,
        )?;
        if code != Some(0) {
            return Err(fail(format!(
                "fault-free {} reference run failed (exit {code:?}); see {}/ref-{}.log",
                workload.name(),
                self.root.display(),
                workload.name()
            )));
        }
        Ok(())
    }
}

/// Draw 2–4 distinct io/delay failpoint legs appropriate for the
/// workload. No `panic` actions: poisoned points are deliberately out
/// of scope (they diverge the final row set by design), and the chaos
/// suites cover them separately.
fn compose_faults(rng: &mut SplitMix64, workload: Workload, leg_seed: u64) -> String {
    let mut candidates: Vec<(&str, &str)> = vec![
        ("store.flush", "io"),
        ("store.rewrite", "io"),
        ("cache.write", "io"),
        ("prof.append", "io"),
        ("export.write", "io"),
        ("sim.point", "delay:2ms"),
    ];
    if matches!(workload, Workload::Pool | Workload::Dist) {
        candidates.push(("pool.lease", "io"));
        candidates.push(("worker.spawn", "io"));
    }
    if workload == Workload::Dist {
        candidates.push(("dist.accept", "io"));
    }
    let probs = ["0.02", "0.05", "0.10", "0.20"];
    let want = 2 + pick(rng, 3);
    let mut legs = Vec::new();
    let mut taken = vec![false; candidates.len()];
    while legs.len() < want {
        let i = pick(rng, candidates.len());
        if taken[i] {
            continue;
        }
        taken[i] = true;
        let (point, action) = candidates[i];
        legs.push(format!(
            "{point}={action}@{}",
            probs[pick(rng, probs.len())]
        ));
    }
    format!("seed={leg_seed},{}", legs.join(","))
}

/// Poll for the dist supervisor's `dist-status.json` beacon; `None`
/// when the supervisor died first (the storm can kill it before it
/// binds — the round then proceeds straight to resumes).
fn wait_for_beacon(store: &Path, sup: &mut Child) -> io::Result<Option<String>> {
    let beacon = store.join("dist-status.json");
    let start = Instant::now();
    while start.elapsed() < Duration::from_secs(30) {
        if let Ok(body) = std::fs::read_to_string(&beacon) {
            if let Ok(v) = JsonValue::parse(&body) {
                if let Some(addr) = v.get("addr").and_then(JsonValue::as_str) {
                    return Ok(Some(addr.to_string()));
                }
            }
        }
        if sup.try_wait()?.is_some() {
            return Ok(None);
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    Ok(None)
}

/// Every store row in `dir`, sorted: the lines of all the shards the
/// row loader would merge.
fn store_rows_sorted(dir: &Path) -> io::Result<Vec<String>> {
    let mut rows = Vec::new();
    for file in musa_store::row_files(dir)? {
        let text = std::fs::read_to_string(file)?;
        rows.extend(text.lines().map(str::to_string));
    }
    rows.sort();
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn composed_plans_parse_and_stay_in_bounds() {
        for seed in 0..64u64 {
            let mut rng = SplitMix64::new(seed);
            for workload in [
                Workload::Sequential,
                Workload::Pool,
                Workload::Search,
                Workload::Dist,
            ] {
                let spec = compose_faults(&mut rng, workload, seed);
                let plan = musa_fault::FaultPlan::parse(&spec)
                    .unwrap_or_else(|e| panic!("bad composed spec {spec:?}: {e}"));
                let _ = plan;
                let legs = spec.split(',').count() - 1; // minus the seed entry
                assert!((2..=4).contains(&legs), "{spec}");
                assert!(
                    !spec.contains("panic"),
                    "storms must not poison points: {spec}"
                );
            }
        }
    }

    #[test]
    fn same_seed_same_storm_schedule() {
        let specs = |seed: u64| -> Vec<String> {
            (1..4u32)
                .map(|round| {
                    let mut rng =
                        SplitMix64::new(seed.wrapping_add(u64::from(round).wrapping_mul(0x9e37)));
                    let workload = [
                        Workload::Sequential,
                        Workload::Pool,
                        Workload::Search,
                        Workload::Dist,
                    ][pick(&mut rng, 4)];
                    let leg_seed = rng.next_u64() % 1_000_000;
                    compose_faults(&mut rng, workload, leg_seed)
                })
                .collect()
        };
        assert_eq!(specs(7), specs(7));
        assert_ne!(specs(7), specs(8));
    }

    #[test]
    fn sorted_rows_exclude_quarantine_and_profiles() {
        let dir = std::env::temp_dir().join(format!("musa-torture-rows-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("results.jsonl"), "b\na\n").unwrap();
        std::fs::write(dir.join("dist-l0001-a1.jsonl"), "c\n").unwrap();
        std::fs::write(dir.join("quarantine.jsonl"), "evil\n").unwrap();
        std::fs::write(dir.join("profiles.jsonl"), "prof\n").unwrap();
        std::fs::write(dir.join("notes.txt"), "x\n").unwrap();
        let rows = store_rows_sorted(&dir).unwrap();
        assert_eq!(rows, vec!["a", "b", "c"]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
