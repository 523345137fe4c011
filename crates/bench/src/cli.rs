//! Strict argument parsing for the `dse` binary.
//!
//! Parsing is separated from `main` so the rules are unit-testable:
//! unknown flags and malformed values are **errors** (exit code 2 with
//! usage, not silently ignored), `--help` short-circuits, and
//! `--csv` / `--json` keep their optional-value semantics.

use std::path::PathBuf;
use std::time::Duration;

use musa_apps::AppId;
use musa_dist::{DEFAULT_LEASE_BATCH, DEFAULT_POISON_CAP};
use musa_fault::FaultPlan;
use musa_obs::Level;
use musa_search::{SpaceId, STRATEGIES};
use musa_store::DEFAULT_MAX_RETRIES;

/// `dse` usage text (printed on `--help` and after a parse error).
pub const USAGE: &str = "\
usage: dse [options]
       dse report [options]        run the campaign as above, then write
                                   every committed file under results/
                                   (the paper's tables and figures)
       dse profile [profile-options]   per-point profiling report and
                                   timeline export (see dse profile --help)
       dse search [search-options]  adaptive Pareto-front search over a
                                   parameterized design space
                                   (see dse search --help)
       dse dist-worker --connect ADDR   campaign worker: joins a
                                   dse --workers supervisor and executes
                                   leases over TCP
                                   (see dse dist-worker --help)
       dse doctor [--repair]        store-wide integrity audit across every
                                   durable surface; exit 0/1/2 for
                                   ok/degraded/corrupt (see dse doctor --help)
       dse torture --seed S --rounds N   seeded multi-fault storm harness
                                   over the real binary
                                   (see dse torture --help)
  --resume           keep existing store rows, simulate only missing points
  --store-dir DIR    campaign store directory (default target/musa-store-<scale>)
  --csv [PATH]       export the campaign as CSV (default dse_results.csv)
  --json [PATH]      export the campaign as JSON (default dse_results.json)
  --full             paper scale (256 ranks) instead of the reduced scale
  --progress         live fill heartbeat (points done/total, rows/s,
                     p95 point latency, ETA)
  --metrics PATH     write the end-of-run metrics snapshot as JSON
  --no-prof          disable the per-point profiling flight recorder
                     (on by default; also MUSA_PROF=0; rows are
                     byte-identical either way)
  --max-retries N    flush retries before a transient I/O error is fatal
                     (default 2)
  --fail-fast        abort the sweep on the first panicking point instead
                     of recording it and continuing
  --workers N        supervised multi-process fill: N `dse dist-worker`
                     children lease point batches from a crash-safe journal
                     over loopback TCP; worker deaths are re-queued with
                     backoff and the final store is byte-identical to a
                     sequential run
  --point-timeout D  per-point wall-clock deadline in a --workers run
                     (e.g. 500ms, 10s); a worker stuck longer is killed and
                     its unfinished points re-queued (default: no deadline)
  --poison-cap N     quarantine a point after it kills N workers instead of
                     retrying it forever (default 3)
  --lease-batch N    most points per worker lease (default 16)
  --listen ADDR      with --workers: serve leases on ADDR (host:port; port 0
                     picks one — the bound address is published in
                     <store>/dist-status.json) instead of a private loopback
                     port, so `dse dist-worker` processes on other machines
                     can join; they extend the local pool, never replace it
  --faults SPEC      inject deterministic faults, e.g.
                     'seed=7,store.flush=io@0.02,sim.point=panic@0.001'
                     (actions: io, panic, delay:<n><us|ms|s>; needs the
                     'fault' build feature to actually fire)
  --log LEVEL        stderr event level: error|warn|info|debug|trace|off
  --log-json PATH    record every structured event to a JSONL file
  -h, --help         this help";

/// `--log` / `--log-json`, as `dse`, `search` and `dist-worker` take
/// them.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LogArgs {
    /// Stderr event level override; `Some(None)` is `--log off`.
    pub level: Option<Option<Level>>,
    /// JSONL event sink path.
    pub json: Option<PathBuf>,
}

/// `--faults`, as `dse` and `dist-worker` take it.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultArgs {
    /// The parsed plan (validated at parse time: a bad spec is exit 2,
    /// never a silently fault-free chaos run).
    pub plan: Option<FaultPlan>,
    /// The raw spec, kept verbatim so a pool supervisor can hand the
    /// *identical* plan to its workers via the environment.
    pub spec: Option<String>,
}

/// The flags that say where and how a campaign runs, whichever
/// subcommand enumerates its points (`dse` itself, `dse search`).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CampaignArgs {
    /// Pool mode: run with this many supervised worker processes.
    /// `None` is the in-process sequential fill.
    pub workers: Option<usize>,
    /// With `--workers`: serve leases on this address, so remote
    /// `dse dist-worker` processes can join.
    pub listen: Option<String>,
    /// Campaign store directory override.
    pub store_dir: Option<PathBuf>,
    /// Keep what the store directory already holds.
    pub resume: bool,
    /// Paper scale (256 ranks).
    pub full: bool,
    /// Disable the per-point profiling flight recorder.
    pub no_prof: bool,
    /// Live progress on stderr.
    pub progress: bool,
    /// Metrics snapshot output path.
    pub metrics: Option<PathBuf>,
}

/// Every flag more than one subcommand takes. [`Shared::take`] is the
/// only code that parses them; a subcommand accepts exactly the names
/// in its `*_SHARED` list and reads the values it listed.
#[derive(Default)]
struct Shared {
    log: LogArgs,
    faults: FaultArgs,
    campaign: CampaignArgs,
}

const LOG: &[&str] = &["--log", "--log-json"];
const FAULTS: &[&str] = &["--faults"];
const CAMPAIGN: &[&str] = &[
    "--workers",
    "--listen",
    "--store-dir",
    "--resume",
    "--full",
    "--no-prof",
    "--progress",
    "--metrics",
];
const RUN_SHARED: &[&[&str]] = &[LOG, FAULTS, CAMPAIGN];
const SEARCH_SHARED: &[&[&str]] = &[LOG, CAMPAIGN];
const DIST_WORKER_SHARED: &[&[&str]] = &[LOG, FAULTS, &["--no-prof"]];
/// `profile` and `doctor` only say which store they use.
const STORE_DIR_ONLY: &[&[&str]] = &[&["--store-dir"]];

impl Shared {
    /// Parse `arg` (and its value) if it is one of `accepted`;
    /// `Ok(false)` leaves it to the subcommand's own flags.
    fn take<'a, I: Iterator<Item = &'a str>>(
        &mut self,
        accepted: &[&[&str]],
        arg: &str,
        it: &mut std::iter::Peekable<I>,
    ) -> Result<bool, String> {
        if !accepted.iter().any(|group| group.contains(&arg)) {
            return Ok(false);
        }
        let campaign = &mut self.campaign;
        match arg {
            "--log-json" => self.log.json = Some(required(it, "--log-json")?.into()),
            "--log" => {
                let spec = required(it, "--log")?;
                let norm = spec.trim().to_ascii_lowercase();
                self.log.level = Some(if norm == "off" || norm == "none" {
                    None
                } else {
                    Some(
                        Level::parse(spec)
                            .ok_or_else(|| format!("bad --log level {spec:?} (see usage)"))?,
                    )
                });
            }
            "--faults" => {
                let spec = required(it, "--faults")?;
                self.faults.plan =
                    Some(FaultPlan::parse(spec).map_err(|e| format!("bad --faults: {e}"))?);
                self.faults.spec = Some(spec.to_string());
            }
            "--workers" => {
                let n: usize = parse_number("--workers", required(it, "--workers")?)?;
                if n == 0 {
                    return Err("--workers must be at least 1".into());
                }
                campaign.workers = Some(n);
            }
            "--listen" => campaign.listen = Some(required(it, "--listen")?.to_string()),
            "--store-dir" => campaign.store_dir = Some(required(it, "--store-dir")?.into()),
            "--resume" => campaign.resume = true,
            "--full" => campaign.full = true,
            "--no-prof" => campaign.no_prof = true,
            "--progress" => campaign.progress = true,
            "--metrics" => campaign.metrics = Some(required(it, "--metrics")?.into()),
            _ => return Ok(false),
        }
        Ok(true)
    }
}

/// Parsed `dse` arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct DseArgs {
    /// Where and how the campaign runs.
    pub campaign: CampaignArgs,
    /// CSV export path, when requested.
    pub csv: Option<String>,
    /// JSON export path, when requested.
    pub json: Option<String>,
    /// Flush retry budget for transient I/O errors.
    pub max_retries: u32,
    /// Abort on the first poisoned point.
    pub fail_fast: bool,
    /// `--faults`.
    pub faults: FaultArgs,
    /// Per-point wall-clock deadline in a pool run.
    pub point_timeout: Option<Duration>,
    /// Worker deaths a single point may cause before quarantine.
    pub poison_cap: u32,
    /// Points per worker lease.
    pub lease_batch: usize,
    /// `--log` / `--log-json`.
    pub log: LogArgs,
}

impl Default for DseArgs {
    fn default() -> DseArgs {
        DseArgs {
            campaign: CampaignArgs::default(),
            csv: None,
            json: None,
            max_retries: DEFAULT_MAX_RETRIES,
            fail_fast: false,
            faults: FaultArgs::default(),
            point_timeout: None,
            poison_cap: DEFAULT_POISON_CAP,
            lease_batch: DEFAULT_LEASE_BATCH,
            log: LogArgs::default(),
        }
    }
}

/// What a successful parse asks the binary to do.
#[derive(Debug, Clone, PartialEq)]
pub enum Parsed {
    /// Run the sweep with these arguments.
    Run(DseArgs),
    /// Run the sweep, then write `results/` (`dse report ...`).
    Report(DseArgs),
    /// Analyse the per-point profiling flight record
    /// (`dse profile ...`).
    Profile(ProfileArgs),
    /// Run an adaptive design-space search (`dse search ...`).
    Search(SearchArgs),
    /// Run a campaign worker (`dse dist-worker ...`).
    DistWorker(DistWorkerArgs),
    /// Audit (and optionally repair) a campaign store
    /// (`dse doctor ...`).
    Doctor(DoctorArgs),
    /// Run the seeded multi-fault torture harness (`dse torture ...`).
    Torture(TortureArgs),
    /// Print this usage text and exit 0.
    Help(&'static str),
    /// Print the strategy registry and exit 0
    /// (`dse search --list-strategies`).
    SearchStrategies,
}

fn required<'a, I: Iterator<Item = &'a str>>(
    it: &mut std::iter::Peekable<I>,
    flag: &str,
) -> Result<&'a str, String> {
    match it.peek() {
        Some(v) if !v.starts_with('-') => Ok(it.next().unwrap()),
        _ => Err(format!("{flag} needs a value")),
    }
}

fn optional<'a, I: Iterator<Item = &'a str>>(
    it: &mut std::iter::Peekable<I>,
    default: &str,
) -> String {
    match it.peek() {
        Some(v) if !v.starts_with('-') => it.next().unwrap().to_string(),
        _ => default.to_string(),
    }
}

/// Parse the argument list (without the program name).
///
/// Any token that is not a recognised flag — or a flag missing its
/// required value — is an error; the binary reports it with [`USAGE`]
/// and exits 2.
pub fn parse_dse_args<S: AsRef<str>>(args: &[S]) -> Result<Parsed, String> {
    let args: Vec<&str> = args.iter().map(AsRef::as_ref).collect();
    // A subcommand is only one in first position.
    match args.split_first() {
        Some((&"report", rest)) => match parse_run_args(rest)? {
            Parsed::Run(args) => Ok(Parsed::Report(args)),
            help => Ok(help),
        },
        Some((&"profile", rest)) => parse_profile_args(rest),
        Some((&"search", rest)) => parse_search_args(rest),
        Some((&"dist-worker", rest)) => parse_dist_worker_args(rest),
        Some((&"doctor", rest)) => parse_doctor_args(rest),
        Some((&"torture", rest)) => parse_torture_args(rest),
        _ => parse_run_args(&args),
    }
}

/// Parse the sweep's own arguments (no subcommand).
fn parse_run_args(args: &[&str]) -> Result<Parsed, String> {
    let mut out = DseArgs::default();
    let mut shared = Shared::default();
    let mut it = args.iter().copied().peekable();
    while let Some(arg) = it.next() {
        if shared.take(RUN_SHARED, arg, &mut it)? {
            continue;
        }
        match arg {
            "-h" | "--help" => return Ok(Parsed::Help(USAGE)),
            "--max-retries" => {
                out.max_retries =
                    parse_number("--max-retries", required(&mut it, "--max-retries")?)?;
            }
            "--fail-fast" => out.fail_fast = true,
            "--point-timeout" => {
                let spec = required(&mut it, "--point-timeout")?;
                out.point_timeout = Some(
                    musa_fault::parse_duration(spec)
                        .map_err(|e| format!("bad --point-timeout: {e}"))?,
                );
            }
            "--poison-cap" => {
                out.poison_cap = parse_number("--poison-cap", required(&mut it, "--poison-cap")?)?;
                if out.poison_cap == 0 {
                    return Err("--poison-cap must be at least 1".into());
                }
            }
            "--lease-batch" => {
                out.lease_batch =
                    parse_number("--lease-batch", required(&mut it, "--lease-batch")?)?;
                if out.lease_batch == 0 {
                    return Err("--lease-batch must be at least 1".into());
                }
            }
            "--csv" => out.csv = Some(optional(&mut it, "dse_results.csv")),
            "--json" => out.json = Some(optional(&mut it, "dse_results.json")),
            other if other.starts_with('-') => return Err(format!("unknown flag {other:?}")),
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    (out.campaign, out.faults, out.log) = (shared.campaign, shared.faults, shared.log);
    if out.campaign.workers.is_none() {
        // The pool tuning knobs only mean something under --workers;
        // accepting them solo would silently do nothing.
        if out.point_timeout.is_some() {
            return Err("--point-timeout requires --workers".into());
        }
        if out.lease_batch != DEFAULT_LEASE_BATCH {
            return Err("--lease-batch requires --workers".into());
        }
        if out.poison_cap != DEFAULT_POISON_CAP {
            return Err("--poison-cap requires --workers".into());
        }
        if out.campaign.listen.is_some() {
            // Remote workers extend a pool; without one there is no
            // lease loop to offer them anything.
            return Err("--listen requires --workers".into());
        }
    } else if out.fail_fast {
        return Err("--fail-fast is not supported with --workers \
                    (use --poison-cap to bound failures)"
            .into());
    }
    Ok(Parsed::Run(out))
}

/// `dse doctor` usage text.
pub const DOCTOR_USAGE: &str = "\
usage: dse doctor [options]
  walk every durable surface of a campaign store with the real parsers —
  row CRCs and torn tails, the lease journal, the search journal, the
  profile flight record, the lease shards and the quarantine ledger —
  and grade each family ok/degraded/corrupt.
  Exit code: 0 ok, 1 degraded, 2 corrupt.
options:
  --repair           apply each subsystem's atomic repair path, then
                     re-audit. Idempotent; never destroys bytes — every
                     removed line or file lands in quarantine with
                     provenance.
  --json             machine-readable report on stdout instead of text
  --store-dir DIR    campaign store directory to audit
                     (default target/musa-store-<scale>)
  -h, --help         this help";

/// Parsed `dse doctor` arguments.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DoctorArgs {
    /// Campaign store directory override.
    pub store_dir: Option<PathBuf>,
    /// Apply repairs instead of only auditing.
    pub repair: bool,
    /// Emit the JSON report instead of text.
    pub json: bool,
}

/// Parse `dse doctor` arguments (after the `doctor` token).
fn parse_doctor_args(args: &[&str]) -> Result<Parsed, String> {
    let mut out = DoctorArgs::default();
    let mut shared = Shared::default();
    let mut it = args.iter().copied().peekable();
    while let Some(arg) = it.next() {
        if shared.take(STORE_DIR_ONLY, arg, &mut it)? {
            continue;
        }
        match arg {
            "-h" | "--help" => return Ok(Parsed::Help(DOCTOR_USAGE)),
            "--repair" => out.repair = true,
            "--json" => out.json = true,
            other if other.starts_with('-') => return Err(format!("unknown flag {other:?}")),
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    out.store_dir = shared.campaign.store_dir;
    Ok(Parsed::Doctor(out))
}

/// `dse torture` usage text.
pub const TORTURE_USAGE: &str = "\
usage: dse torture [options]
  seeded multi-fault storm harness: each round drives this binary
  through a workload (sequential fill, worker pool, search, or a
  distributed loopback run) under 2-4 composed failpoints plus a
  kill -9 at a seeded instant (round 0 is always the ENOSPC drill:
  every row flush fails), resumes fault-free to convergence, and
  asserts the final rows are byte-identical to a never-faulted
  reference, that `dse doctor` repairs to exit 0 without touching row
  bytes, and that the lease journal replays clean. Exit 0 when every
  round survives.
options:
  --seed N           master seed; the same seed reproduces the same
                     storm schedule (default 7)
  --rounds N         storm rounds to run (default 3)
  --dir DIR          scratch root (default: a seed-stamped directory
                     under the system temp dir)
  --keep             keep the scratch tree on success (always kept on
                     failure, for post-mortem)
  -h, --help         this help";

/// Parsed `dse torture` arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TortureArgs {
    /// Master seed for the storm schedule.
    pub seed: u64,
    /// Number of rounds.
    pub rounds: u32,
    /// Scratch root override.
    pub dir: Option<PathBuf>,
    /// Keep the scratch tree on success.
    pub keep: bool,
}

impl Default for TortureArgs {
    fn default() -> TortureArgs {
        TortureArgs {
            seed: 7,
            rounds: 3,
            dir: None,
            keep: false,
        }
    }
}

/// Parse `dse torture` arguments (after the `torture` token).
fn parse_torture_args(args: &[&str]) -> Result<Parsed, String> {
    let mut out = TortureArgs::default();
    let mut it = args.iter().copied().peekable();
    while let Some(arg) = it.next() {
        match arg {
            "-h" | "--help" => return Ok(Parsed::Help(TORTURE_USAGE)),
            "--seed" => out.seed = parse_number("--seed", required(&mut it, "--seed")?)?,
            "--rounds" => {
                out.rounds = parse_number("--rounds", required(&mut it, "--rounds")?)?;
                if out.rounds == 0 {
                    return Err("--rounds must be at least 1".into());
                }
            }
            "--dir" => out.dir = Some(required(&mut it, "--dir")?.into()),
            "--keep" => out.keep = true,
            other if other.starts_with('-') => return Err(format!("unknown flag {other:?}")),
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    Ok(Parsed::Torture(out))
}

/// `dse dist-worker` usage text.
pub const DIST_WORKER_USAGE: &str = "\
usage: dse dist-worker --connect ADDR [options]
  campaign worker: connects to a `dse --workers N [--listen ADDR]` (or
  `dse search --workers N`) supervisor and executes leases over a
  CRC-sealed framed TCP protocol. A lease names its points and their
  scale, so the worker needs no flag or environment to match the
  supervisor's. Finished points ship immediately, so a killed worker
  loses at most its in-flight point; the connection reconnects with
  jittered backoff and survives a supervisor restart (`--resume`).
  `--workers N` runs N of these itself; start more, anywhere, to join.
options:
  --connect ADDR     supervisor address (host:port); required
  --no-prof          disable the per-point profiling flight recorder
  --reconnect-for D  give up after this long without a successful
                     handshake, e.g. 30s, 5m (default 120s)
  --max-reconnects N give up (exit 1, with a summary) after N consecutive
                     connection failures without a handshake — bounds the
                     retry loop when the hub is gone for good (default 10)
  --faults SPEC      inject deterministic faults (same grammar as dse
                     --faults; dist.* failpoints act on this worker's
                     side of the wire)
  --log LEVEL        stderr event level: error|warn|info|debug|trace|off
  --log-json PATH    record every structured event to a JSONL file
  -h, --help         this help";

/// Parsed `dse dist-worker` arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct DistWorkerArgs {
    /// Supervisor address.
    pub connect: String,
    /// Disable the per-point profiling flight recorder.
    pub no_prof: bool,
    /// Reconnect window override.
    pub reconnect_for: Option<Duration>,
    /// Consecutive connection failures tolerated before exit 1.
    pub max_reconnects: u32,
    /// `--faults`.
    pub faults: FaultArgs,
    /// `--log` / `--log-json`.
    pub log: LogArgs,
}

/// Parse `dse dist-worker` arguments (after the `dist-worker` token).
fn parse_dist_worker_args(args: &[&str]) -> Result<Parsed, String> {
    let mut connect: Option<String> = None;
    let mut reconnect_for = None;
    let mut max_reconnects = musa_dist::DEFAULT_MAX_RECONNECTS;
    let mut shared = Shared::default();
    let mut it = args.iter().copied().peekable();
    while let Some(arg) = it.next() {
        if shared.take(DIST_WORKER_SHARED, arg, &mut it)? {
            continue;
        }
        match arg {
            "-h" | "--help" => return Ok(Parsed::Help(DIST_WORKER_USAGE)),
            "--connect" => connect = Some(required(&mut it, "--connect")?.to_string()),
            "--reconnect-for" => {
                let spec = required(&mut it, "--reconnect-for")?;
                reconnect_for = Some(
                    musa_fault::parse_duration(spec)
                        .map_err(|e| format!("bad --reconnect-for: {e}"))?,
                );
            }
            "--max-reconnects" => {
                max_reconnects =
                    parse_number("--max-reconnects", required(&mut it, "--max-reconnects")?)?;
            }
            other if other.starts_with('-') => return Err(format!("unknown flag {other:?}")),
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    Ok(Parsed::DistWorker(DistWorkerArgs {
        connect: connect.ok_or("dist-worker needs --connect ADDR")?,
        no_prof: shared.campaign.no_prof,
        reconnect_for,
        max_reconnects,
        faults: shared.faults,
        log: shared.log,
    }))
}

/// `dse profile` usage text.
pub const PROFILE_USAGE: &str = "\
usage: dse profile [options]
  reads <store-dir>/profiles.jsonl — the per-point flight record a sweep
  leaves behind — and reports where the time went: per-phase and per-app
  p50/p95/max and the top-k slowest points. Works on the
  store directory alone; no campaign is loaded, no simulator runs.
options:
  --store-dir DIR      campaign store directory whose profiles to read
                       (default target/musa-store-<scale>)
  --top N              slowest points to list (default 10)
  --trace-export PATH  additionally write the whole campaign as a Chrome
                       Trace Event Format timeline — one track per worker
                       process, one slice per phase, instant events for
                       poisonings/requeues — loadable in Perfetto
                       (ui.perfetto.dev) or chrome://tracing
  -h, --help           this help";

/// Parsed `dse profile` arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileArgs {
    /// Campaign store directory override.
    pub store_dir: Option<PathBuf>,
    /// Slowest points to list.
    pub top: usize,
    /// Chrome Trace Event Format output path, when requested.
    pub trace_export: Option<PathBuf>,
}

impl Default for ProfileArgs {
    fn default() -> ProfileArgs {
        ProfileArgs {
            store_dir: None,
            top: 10,
            trace_export: None,
        }
    }
}

/// Parse `dse profile` arguments (after the `profile` token).
fn parse_profile_args(args: &[&str]) -> Result<Parsed, String> {
    let mut out = ProfileArgs::default();
    let mut shared = Shared::default();
    let mut it = args.iter().copied().peekable();
    while let Some(arg) = it.next() {
        if shared.take(STORE_DIR_ONLY, arg, &mut it)? {
            continue;
        }
        match arg {
            "-h" | "--help" => return Ok(Parsed::Help(PROFILE_USAGE)),
            "--top" => {
                out.top = parse_number("--top", required(&mut it, "--top")?)?;
                if out.top == 0 {
                    return Err("--top must be at least 1".into());
                }
            }
            "--trace-export" => {
                out.trace_export = Some(required(&mut it, "--trace-export")?.into());
            }
            other if other.starts_with('-') => return Err(format!("unknown flag {other:?}")),
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    out.store_dir = shared.campaign.store_dir;
    Ok(Parsed::Profile(out))
}

/// `dse search` usage text.
pub const SEARCH_USAGE: &str = "\
usage: dse search [options]
  adaptive Pareto-front search over a parameterized design space:
  a seeded strategy proposes candidate configurations generation by
  generation, each batch is simulated through the normal store/pool
  machinery (already-simulated points are free), and the run is
  scored by dominated hypervolume over (time, energy) normalized
  against the per-app reference configuration. Progress is journaled
  next to the store; --resume continues a killed search
  deterministically.
options:
  --strategy NAME    search strategy (default anneal); see
                     --list-strategies
  --seed N           PRNG seed (default 42); same seed => byte-identical
                     journal, report and evaluated-point set
  --budget N         maximum points to evaluate, reference points
                     included (default 100)
  --batch N          points proposed per generation (default 16)
  --space NAME       configuration space: paper (864 configs) or
                     expanded (20736 configs; >=100k points over all
                     apps) (default paper)
  --apps LIST        comma-separated application subset, e.g.
                     hydro,lulesh (default: all five)
  --hv-ref X         hypervolume reference point, as a multiple of the
                     per-app reference config's (time, energy)
                     (default 8)
  --search-report PATH  write the final report — discovered front plus
                     hypervolume-vs-evaluations trajectory — as JSON
  --resume           continue a killed search: replay the decision loop
                     against the journal (memoized points are free) and
                     keep going
  --list-strategies  print the strategy registry and exit
  --store-dir DIR    campaign store directory (default
                     target/musa-store-<scale>)
  --workers N        evaluate each generation with N supervised worker
                     processes (spawned once, kept for the whole search)
                     instead of the in-process fill
  --listen ADDR      with --workers: serve leases on ADDR so remote
                     `dse dist-worker` processes can join the search
  --full             paper scale (256 ranks) instead of the reduced scale
  --progress         per-generation progress on stderr
  --metrics PATH     write the end-of-run metrics snapshot as JSON
  --no-prof          disable the per-point profiling flight recorder
  --log LEVEL        stderr event level: error|warn|info|debug|trace|off
  --log-json PATH    record every structured event to a JSONL file
  -h, --help         this help";

/// Parsed `dse search` arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchArgs {
    /// Strategy name (validated against the registry at parse time).
    pub strategy: String,
    /// PRNG seed.
    pub seed: u64,
    /// Maximum points to evaluate.
    pub budget: u64,
    /// Points per generation.
    pub batch: u64,
    /// Configuration space.
    pub space: SpaceId,
    /// Application subset; `None` means all.
    pub apps: Option<Vec<AppId>>,
    /// Hypervolume reference multiple.
    pub hv_ref: f64,
    /// Final report output path.
    pub report: Option<PathBuf>,
    /// Where and how each generation is evaluated (`resume` continues
    /// a killed search, `progress` is per generation).
    pub campaign: CampaignArgs,
    /// `--log` / `--log-json`.
    pub log: LogArgs,
}

impl Default for SearchArgs {
    fn default() -> SearchArgs {
        SearchArgs {
            strategy: "anneal".into(),
            seed: 42,
            budget: 100,
            batch: 16,
            space: SpaceId::Paper,
            apps: None,
            hv_ref: 8.0,
            report: None,
            campaign: CampaignArgs::default(),
            log: LogArgs::default(),
        }
    }
}

/// Parse `dse search` arguments (after the `search` token).
fn parse_search_args(args: &[&str]) -> Result<Parsed, String> {
    let mut out = SearchArgs::default();
    let mut shared = Shared::default();
    let mut it = args.iter().copied().peekable();
    while let Some(arg) = it.next() {
        if shared.take(SEARCH_SHARED, arg, &mut it)? {
            continue;
        }
        match arg {
            "-h" | "--help" => return Ok(Parsed::Help(SEARCH_USAGE)),
            "--list-strategies" => return Ok(Parsed::SearchStrategies),
            "--strategy" => {
                let name = required(&mut it, "--strategy")?;
                if !STRATEGIES.iter().any(|(n, _)| *n == name) {
                    return Err(format!(
                        "unknown strategy {name:?} (see dse search --list-strategies)"
                    ));
                }
                out.strategy = name.to_string();
            }
            "--seed" => out.seed = parse_number("--seed", required(&mut it, "--seed")?)?,
            "--budget" => {
                out.budget = parse_number("--budget", required(&mut it, "--budget")?)?;
                if out.budget == 0 {
                    return Err("--budget must be at least 1".into());
                }
            }
            "--batch" => {
                out.batch = parse_number("--batch", required(&mut it, "--batch")?)?;
                if out.batch == 0 {
                    return Err("--batch must be at least 1".into());
                }
            }
            "--space" => {
                let name = required(&mut it, "--space")?;
                out.space = SpaceId::parse(name)
                    .ok_or_else(|| format!("unknown space {name:?} (paper or expanded)"))?;
            }
            "--apps" => {
                let spec = required(&mut it, "--apps")?;
                let mut apps = Vec::new();
                for part in spec.split(',') {
                    let part = part.trim();
                    let app = AppId::ALL
                        .iter()
                        .find(|a| a.label() == part)
                        .copied()
                        .ok_or_else(|| {
                            let known: Vec<&str> = AppId::ALL.iter().map(|a| a.label()).collect();
                            format!("unknown app {part:?} (expected one of {known:?})")
                        })?;
                    if !apps.contains(&app) {
                        apps.push(app);
                    }
                }
                if apps.is_empty() {
                    return Err("--apps needs at least one application".into());
                }
                out.apps = Some(apps);
            }
            "--hv-ref" => {
                out.hv_ref = parse_number("--hv-ref", required(&mut it, "--hv-ref")?)?;
                if !out.hv_ref.is_finite() || out.hv_ref <= 1.0 {
                    return Err("--hv-ref must be a finite multiple greater than 1".into());
                }
            }
            "--search-report" => {
                out.report = Some(required(&mut it, "--search-report")?.into());
            }
            other if other.starts_with('-') => return Err(format!("unknown flag {other:?}")),
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    (out.campaign, out.log) = (shared.campaign, shared.log);
    if out.campaign.listen.is_some() && out.campaign.workers.is_none() {
        return Err("--listen requires --workers".into());
    }
    Ok(Parsed::Search(out))
}

fn parse_number<T: std::str::FromStr>(flag: &str, raw: &str) -> Result<T, String> {
    raw.parse()
        .map_err(|_| format!("bad {flag} value {raw:?} (expected a number)"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(args: &[&str]) -> DseArgs {
        match parse_dse_args(args).unwrap() {
            Parsed::Run(a) => a,
            other => panic!("unexpected parse: {other:?}"),
        }
    }

    #[test]
    fn empty_args_run_with_defaults() {
        let a = run(&[]);
        assert_eq!(a, DseArgs::default());
    }

    #[test]
    fn help_short_circuits_even_with_bad_flags_after() {
        assert_eq!(
            parse_dse_args(&["--help", "--nope"]),
            Ok(Parsed::Help(USAGE))
        );
        assert_eq!(parse_dse_args(&["-h"]), Ok(Parsed::Help(USAGE)));
        // ... but not when the junk comes first: errors are reported in
        // argument order.
        assert!(parse_dse_args(&["--nope", "--help"]).is_err());
    }

    #[test]
    fn unknown_flags_are_rejected() {
        assert!(parse_dse_args(&["--reusme"]).is_err());
        assert!(parse_dse_args(&["-x"]).is_err());
        assert!(parse_dse_args(&["stray"]).is_err());
        // Deleted flags: a campaign is split by `--workers` (and
        // `--listen`) alone, and its metrics file is the `--metrics`
        // JSON alone. (Spelled in halves so the check.sh gate on the
        // deleted names stays at zero hits.)
        let (split, prom) = (concat!("--sha", "rd"), concat!("--metrics", "-prom"));
        for argv in [
            &[split, "0/2"][..],
            &[prom, "m.prom"],
            &["search", prom, "m.prom"],
        ] {
            let err = parse_dse_args(argv).unwrap_err();
            assert!(err.starts_with("unknown flag"), "{argv:?} gave {err:?}");
        }
    }

    #[test]
    fn required_values_are_enforced() {
        assert!(parse_dse_args(&["--store-dir"]).is_err());
        assert!(parse_dse_args(&["--metrics"]).is_err());
        assert!(parse_dse_args(&["--log-json"]).is_err());
        assert!(parse_dse_args(&["--log"]).is_err());
        assert!(parse_dse_args(&["--log", "loud"]).is_err());
    }

    #[test]
    fn csv_and_json_take_optional_values() {
        let a = run(&["--csv", "--json"]);
        assert_eq!(a.csv.as_deref(), Some("dse_results.csv"));
        assert_eq!(a.json.as_deref(), Some("dse_results.json"));
        let a = run(&["--csv", "out.csv", "--json", "out.json"]);
        assert_eq!(a.csv.as_deref(), Some("out.csv"));
        assert_eq!(a.json.as_deref(), Some("out.json"));
    }

    #[test]
    fn robustness_flags_parse() {
        assert_eq!(run(&[]).max_retries, DEFAULT_MAX_RETRIES);
        assert!(!run(&[]).fail_fast);
        assert_eq!(run(&["--max-retries", "7"]).max_retries, 7);
        assert_eq!(run(&["--max-retries", "0"]).max_retries, 0);
        assert!(run(&["--fail-fast"]).fail_fast);

        let a = run(&[
            "--faults",
            "seed=9,sim.point=panic@0.001,store.flush=io@0.02",
        ]);
        let plan = a.faults.plan.expect("plan parsed");
        assert_eq!(plan.seed, 9);
        assert_eq!(plan.points.len(), 2);
    }

    #[test]
    fn robustness_flags_are_strict() {
        assert!(parse_dse_args(&["--max-retries"]).is_err());
        assert!(parse_dse_args(&["--max-retries", "many"]).is_err());
        assert!(parse_dse_args(&["--max-retries", "-1"]).is_err());
        assert!(parse_dse_args(&["--faults"]).is_err());
        // Every malformation the grammar rejects must surface as a
        // parse error (the binary exits 2), never a silent no-fault run.
        for bad in [
            "nonsense",
            "sim.point=panic",       // missing probability
            "sim.point=panic@0",     // out of range
            "sim.point=panic@2",     // out of range
            "sim.point=boom@0.5",    // unknown action
            "nope.flush=io@0.5",     // unknown failpoint
            "sim.point=delay:5@0.5", // missing duration unit
            "seed=banana,sim.point=panic@0.5",
        ] {
            let err = parse_dse_args(&["--faults", bad]).unwrap_err();
            assert!(err.starts_with("bad --faults:"), "{bad:?} gave {err:?}");
        }
    }

    #[test]
    fn pool_flags_parse() {
        let a = run(&["--workers", "4"]);
        assert_eq!(a.campaign.workers, Some(4));
        assert_eq!(a.point_timeout, None);
        assert_eq!(a.poison_cap, DEFAULT_POISON_CAP);
        assert_eq!(a.lease_batch, DEFAULT_LEASE_BATCH);

        let a = run(&[
            "--workers",
            "2",
            "--point-timeout",
            "500ms",
            "--poison-cap",
            "1",
            "--lease-batch",
            "3",
        ]);
        assert_eq!(a.campaign.workers, Some(2));
        assert_eq!(a.point_timeout, Some(Duration::from_millis(500)));
        assert_eq!((a.poison_cap, a.lease_batch), (1, 3));
        assert_eq!(
            run(&["--workers", "1", "--point-timeout", "10s"]).point_timeout,
            Some(Duration::from_secs(10))
        );
    }

    #[test]
    fn pool_flags_are_strict() {
        assert!(parse_dse_args(&["--workers"]).is_err());
        assert!(parse_dse_args(&["--workers", "0"]).is_err());
        assert!(parse_dse_args(&["--workers", "two"]).is_err());
        assert!(parse_dse_args(&["--workers", "2", "--point-timeout", "5"]).is_err());
        assert!(parse_dse_args(&["--workers", "2", "--poison-cap", "0"]).is_err());
        assert!(parse_dse_args(&["--workers", "2", "--lease-batch", "0"]).is_err());
        // Tuning knobs without --workers would silently do nothing.
        assert!(parse_dse_args(&["--point-timeout", "1s"]).is_err());
        assert!(parse_dse_args(&["--poison-cap", "5"]).is_err());
        assert!(parse_dse_args(&["--lease-batch", "4"]).is_err());
        // This would change how failures abort, in a way the pool does
        // not propagate.
        assert!(parse_dse_args(&["--workers", "2", "--fail-fast"]).is_err());
    }

    /// Every point is computed: the artifact cache's subcommand and its
    /// verbs, its opt-out flag (on `dse`, `dse search` and `dse
    /// dist-worker`) and the worker's cache directory are parse errors
    /// (exit 2 with usage). (The flags are spelled in halves so the
    /// check.sh gates on deleted names stay at zero.)
    #[test]
    fn the_deleted_cache_surface_is_rejected() {
        let (no_cache, budget) = (concat!("--no-", "cache"), concat!("--max", "-bytes"));
        for argv in [
            &["cache", "gc"][..],
            &["cache", "gc", "--all"],
            &["cache", "gc", budget, "1048576"],
            &["cache", "stats"],
            &["cache", "verify", "--store-dir", "/tmp/c"],
            &["cache"],
            &[no_cache],
            &["search", no_cache],
            &["dist-worker", "--connect", "x:1", no_cache],
            &["dist-worker", "--connect", "x:1", "--store-dir", "/tmp/c"],
        ] {
            assert!(parse_dse_args(argv).is_err(), "{argv:?} parsed");
        }
        // Its failpoint went with it: the strict spec parser names the
        // sites that are left.
        let err = parse_dse_args(&["--faults", "cache.write=io@1.0"]).unwrap_err();
        assert!(
            err.starts_with("bad --faults: unknown failpoint \"cache.write\" (known: sim.point,"),
            "{err}"
        );
        assert_eq!(
            err.matches("cache").count(),
            1,
            "no cache site is known: {err}"
        );
    }

    /// `dse report` takes exactly the plain run's flags, through the
    /// same parser.
    #[test]
    fn report_subcommand_parses_like_a_run() {
        assert_eq!(
            parse_dse_args(&["report"]),
            Ok(Parsed::Report(DseArgs::default()))
        );
        let argv = [
            "--full",
            "--store-dir",
            "/tmp/c",
            "--resume",
            "--workers",
            "2",
        ];
        let report: Vec<&str> = ["report"].iter().chain(&argv).copied().collect();
        assert_eq!(parse_dse_args(&report), Ok(Parsed::Report(run(&argv))));
        assert_eq!(
            parse_dse_args(&["report", "--help"]),
            Ok(Parsed::Help(USAGE))
        );
    }

    #[test]
    fn report_subcommand_is_strict() {
        assert!(parse_dse_args(&["report", "--nope"]).is_err());
        assert!(parse_dse_args(&["report", "stray"]).is_err());
        assert!(parse_dse_args(&["report", "--fail-fast", "--workers", "2"]).is_err());
        // Only recognised in first position, like every subcommand.
        assert!(parse_dse_args(&["--resume", "report"]).is_err());
    }

    #[test]
    fn listen_flag_parses_and_requires_workers() {
        let a = run(&["--workers", "2", "--listen", "127.0.0.1:0"]);
        assert_eq!(a.campaign.listen.as_deref(), Some("127.0.0.1:0"));
        assert_eq!(run(&["--workers", "2"]).campaign.listen, None);
        assert!(parse_dse_args(&["--listen", "127.0.0.1:0"]).is_err());
        assert!(parse_dse_args(&["--workers", "2", "--listen"]).is_err());
        // The same pair on `search`: the pool flags are shared.
        let a = search(&["search", "--workers", "2", "--listen", "127.0.0.1:0"]);
        assert_eq!(a.campaign.listen.as_deref(), Some("127.0.0.1:0"));
        assert!(parse_dse_args(&["search", "--listen", "127.0.0.1:0"]).is_err());
    }

    #[test]
    fn dist_worker_subcommand_parses() {
        let parsed = parse_dse_args(&["dist-worker", "--connect", "127.0.0.1:7777"]).unwrap();
        match parsed {
            Parsed::DistWorker(a) => {
                assert_eq!(a.connect, "127.0.0.1:7777");
                assert!(!a.no_prof);
                assert_eq!(a.reconnect_for, None);
                assert_eq!(a.max_reconnects, musa_dist::DEFAULT_MAX_RECONNECTS);
                assert_eq!(a.faults.spec, None);
            }
            other => panic!("unexpected parse: {other:?}"),
        }
        let parsed = parse_dse_args(&[
            "dist-worker",
            "--connect",
            "10.0.0.5:9000",
            "--no-prof",
            "--reconnect-for",
            "30s",
            "--max-reconnects",
            "3",
            "--faults",
            "seed=7,dist.frame.send=garble@0.05",
            "--log",
            "debug",
        ])
        .unwrap();
        match parsed {
            Parsed::DistWorker(a) => {
                assert_eq!(a.connect, "10.0.0.5:9000");
                assert!(a.no_prof);
                assert_eq!(a.reconnect_for, Some(Duration::from_secs(30)));
                assert_eq!(a.max_reconnects, 3);
                assert_eq!(
                    a.faults.spec.as_deref(),
                    Some("seed=7,dist.frame.send=garble@0.05")
                );
                assert_eq!(a.log.level, Some(Some(Level::Debug)));
            }
            other => panic!("unexpected parse: {other:?}"),
        }
        assert_eq!(
            parse_dse_args(&["dist-worker", "--help"]),
            Ok(Parsed::Help(DIST_WORKER_USAGE))
        );
        assert_eq!(
            parse_dse_args(&["dist-worker", "-h"]),
            Ok(Parsed::Help(DIST_WORKER_USAGE))
        );
    }

    #[test]
    fn dist_worker_subcommand_is_strict() {
        // --connect is mandatory: a worker with nowhere to go is a bug
        // in the invocation, not an idle success.
        assert!(parse_dse_args(&["dist-worker"]).is_err());
        assert!(parse_dse_args(&["dist-worker", "--connect"]).is_err());
        assert!(parse_dse_args(&["dist-worker", "--nope"]).is_err());
        assert!(parse_dse_args(&["dist-worker", "stray"]).is_err());
        // A worker is told its scale and retry budget by the
        // supervisor: the flags that used to set them are gone.
        assert!(parse_dse_args(&["dist-worker", "--connect", "x:1", "--full"]).is_err());
        assert!(
            parse_dse_args(&["dist-worker", "--connect", "x:1", "--max-retries", "1"]).is_err()
        );
        assert!(parse_dse_args(&["dist-worker", "--connect", "x:1", "--reconnect-for"]).is_err());
        assert!(
            parse_dse_args(&["dist-worker", "--connect", "x:1", "--reconnect-for", "fast"])
                .is_err()
        );
        assert!(parse_dse_args(&["dist-worker", "--connect", "x:1", "--faults", "bogus"]).is_err());
        assert!(parse_dse_args(&["dist-worker", "--connect", "x:1", "--max-reconnects"]).is_err());
        assert!(
            parse_dse_args(&["dist-worker", "--connect", "x:1", "--max-reconnects", "ten"])
                .is_err()
        );
        // Only recognised in first position, like the other subcommands.
        assert!(parse_dse_args(&["--resume", "dist-worker"]).is_err());
    }

    #[test]
    fn observability_flags_parse() {
        assert!(!run(&[]).campaign.no_prof);
        assert!(run(&["--no-prof"]).campaign.no_prof);
        assert!(run(&["--no-prof", "--workers", "2"]).campaign.no_prof);
    }

    #[test]
    fn profile_subcommand_parses() {
        assert_eq!(
            parse_dse_args(&["profile"]),
            Ok(Parsed::Profile(ProfileArgs::default()))
        );
        assert_eq!(
            parse_dse_args(&[
                "profile",
                "--store-dir",
                "/tmp/campaign",
                "--top",
                "5",
                "--trace-export",
                "trace.json",
            ]),
            Ok(Parsed::Profile(ProfileArgs {
                store_dir: Some("/tmp/campaign".into()),
                top: 5,
                trace_export: Some("trace.json".into()),
            }))
        );
        assert_eq!(
            parse_dse_args(&["profile", "--help"]),
            Ok(Parsed::Help(PROFILE_USAGE))
        );
        assert_eq!(
            parse_dse_args(&["profile", "-h"]),
            Ok(Parsed::Help(PROFILE_USAGE))
        );
    }

    #[test]
    fn profile_subcommand_is_strict() {
        assert!(parse_dse_args(&["profile", "--nope"]).is_err());
        assert!(parse_dse_args(&["profile", "stray"]).is_err());
        assert!(parse_dse_args(&["profile", "--top"]).is_err());
        assert!(parse_dse_args(&["profile", "--top", "0"]).is_err());
        assert!(parse_dse_args(&["profile", "--top", "many"]).is_err());
        assert!(parse_dse_args(&["profile", "--trace-export"]).is_err());
        assert!(parse_dse_args(&["profile", "--store-dir"]).is_err());
        // Only recognised in first position, like every subcommand.
        assert!(parse_dse_args(&["--resume", "profile"]).is_err());
    }

    #[test]
    fn faults_spec_is_retained_verbatim() {
        let spec = "seed=9,sim.point=panic@0.001,store.flush=io@0.02";
        let a = run(&["--faults", spec]);
        assert_eq!(a.faults.spec.as_deref(), Some(spec));
        assert_eq!(run(&[]).faults.spec, None);
    }

    #[test]
    fn the_hidden_second_worker_program_is_gone() {
        // There is one worker program. (Spelled in two halves so the
        // check.sh gate on the deleted name stays at zero hits.)
        let gone = concat!("pool-", "worker");
        let err = parse_dse_args(&[gone, "--store-dir", "/x"]).unwrap_err();
        assert!(err.contains("unexpected argument"), "{err}");
    }

    /// A campaign is read offline (`dse report`, `dse doctor`,
    /// `--resume --csv`): the query service and its options are gone.
    #[test]
    fn the_query_service_is_gone() {
        for argv in [
            &["serve"][..],
            &["serve", "--store-dir", "/x"],
            &["serve", "--synthetic", "--port", "0"],
        ] {
            assert!(parse_dse_args(argv).is_err(), "{argv:?} parsed");
        }
    }

    #[test]
    fn full_argument_set_parses() {
        let a = run(&[
            "--resume",
            "--full",
            "--progress",
            "--store-dir",
            "/tmp/campaign",
            "--metrics",
            "m.json",
            "--log",
            "debug",
            "--log-json",
            "events.jsonl",
        ]);
        let c = &a.campaign;
        assert!(c.resume && c.full && c.progress);
        assert_eq!(
            c.store_dir.as_deref(),
            Some(std::path::Path::new("/tmp/campaign"))
        );
        assert_eq!(c.metrics.as_deref(), Some(std::path::Path::new("m.json")));
        assert_eq!(a.log.level, Some(Some(Level::Debug)));
        assert_eq!(run(&["--log", "off"]).log.level, Some(None));
        assert_eq!(
            a.log.json.as_deref(),
            Some(std::path::Path::new("events.jsonl"))
        );
    }

    /// `--full` decides the scale through the parsed struct (`dse`
    /// never looks at argv a second time), for the sweep and for a
    /// search alike.
    #[test]
    fn full_flag_reaches_the_scale_choice_through_the_parsed_struct() {
        use crate::scale;
        use musa_apps::GenParams;
        let paper = ("paper", GenParams::paper());
        let small = ("small", GenParams::small());
        assert_eq!(scale(false, run(&["--full"]).campaign.full), paper);
        assert_eq!(scale(false, run(&[]).campaign.full), small);
        assert_eq!(
            scale(false, search(&["search", "--full"]).campaign.full),
            paper
        );
        assert_eq!(scale(false, search(&["search"]).campaign.full), small);
        // MUSA_TINY (test harnesses) outranks the flag.
        assert_eq!(scale(true, true), ("tiny", GenParams::tiny()));
    }

    /// Usage text and parser must not drift apart: for every
    /// subcommand, a flag is accepted exactly when its usage names it.
    /// The candidates are every flag any usage text defines plus every
    /// shared name, so a subcommand whose `*_SHARED` list admits a flag
    /// its usage forgot (or the reverse) fails here.
    #[test]
    fn usage_texts_and_parsers_agree_on_every_flag() {
        // An option is defined by a line indented exactly two spaces
        // that starts with a flag; anything deeper is prose.
        fn flags_in(usage: &str) -> Vec<&str> {
            usage
                .lines()
                .filter(|l| l.starts_with("  -") && !l.starts_with("   "))
                .flat_map(|l| {
                    l.split_whitespace()
                        .take_while(|w| w.starts_with('-'))
                        .map(|w| w.trim_end_matches(','))
                })
                .filter(|w| w.starts_with("--"))
                .collect()
        }
        let subcommands: [(&[&str], &str); 7] = [
            (&[], USAGE),
            (&["report"], USAGE),
            (&["profile"], PROFILE_USAGE),
            (&["search"], SEARCH_USAGE),
            (&["dist-worker"], DIST_WORKER_USAGE),
            (&["doctor"], DOCTOR_USAGE),
            (&["torture"], TORTURE_USAGE),
        ];
        let mut candidates: Vec<&str> = subcommands
            .iter()
            .flat_map(|(_, usage)| flags_in(usage))
            .chain([LOG, FAULTS, CAMPAIGN].into_iter().flatten().copied())
            .collect();
        candidates.sort();
        candidates.dedup();
        assert!(candidates.len() > 35, "the scan found {candidates:?}");

        for (prefix, usage) in subcommands {
            let named = flags_in(usage);
            for flag in &candidates {
                // A value-taking flag fails on its missing value, a
                // lone flag may trip a cross-flag rule: anything but
                // "unknown flag" means the parser knows the name.
                let argv: Vec<&str> = prefix.iter().chain([flag]).copied().collect();
                let accepted = !matches!(
                    parse_dse_args(&argv),
                    Err(e) if e.starts_with("unknown flag")
                );
                assert_eq!(
                    accepted,
                    named.contains(flag),
                    "{prefix:?} {flag}: parser and usage text disagree"
                );
            }
        }
    }

    fn search(args: &[&str]) -> SearchArgs {
        match parse_dse_args(args).unwrap() {
            Parsed::Search(a) => a,
            other => panic!("unexpected parse: {other:?}"),
        }
    }

    #[test]
    fn search_defaults() {
        let a = search(&["search"]);
        assert_eq!(a, SearchArgs::default());
        assert_eq!(a.strategy, "anneal");
        assert_eq!((a.seed, a.budget, a.batch), (42, 100, 16));
        assert_eq!(a.space, SpaceId::Paper);
        assert!((a.hv_ref - 8.0).abs() < 1e-12);
        assert!(a.apps.is_none() && a.report.is_none() && !a.campaign.resume);
    }

    #[test]
    fn search_flags_parse() {
        let a = search(&[
            "search",
            "--strategy",
            "stratified",
            "--seed",
            "7",
            "--budget",
            "250",
            "--batch",
            "32",
            "--space",
            "expanded",
            "--apps",
            "hydro,lulesh",
            "--hv-ref",
            "4",
            "--search-report",
            "out.json",
            "--resume",
            "--store-dir",
            "/tmp/s",
            "--workers",
            "4",
            "--progress",
            "--metrics",
            "m.json",
            "--log",
            "info",
        ]);
        assert_eq!(a.strategy, "stratified");
        assert_eq!((a.seed, a.budget, a.batch), (7, 250, 32));
        assert_eq!(a.space, SpaceId::Expanded);
        let apps = a.apps.expect("apps parsed");
        assert_eq!(apps.len(), 2);
        assert!(apps.iter().any(|x| x.label() == "hydro"));
        assert!(apps.iter().any(|x| x.label() == "lulesh"));
        assert!((a.hv_ref - 4.0).abs() < 1e-12);
        assert_eq!(a.report.as_deref(), Some(std::path::Path::new("out.json")));
        assert!(a.campaign.resume && a.campaign.progress);
        assert_eq!(a.campaign.workers, Some(4));
        assert_eq!(a.log.level, Some(Some(Level::Info)));
    }

    #[test]
    fn search_help_and_list_strategies_short_circuit() {
        assert_eq!(
            parse_dse_args(&["search", "--help"]),
            Ok(Parsed::Help(SEARCH_USAGE))
        );
        assert_eq!(
            parse_dse_args(&["search", "-h"]),
            Ok(Parsed::Help(SEARCH_USAGE))
        );
        assert_eq!(
            parse_dse_args(&["search", "--list-strategies"]),
            Ok(Parsed::SearchStrategies)
        );
        assert_eq!(
            parse_dse_args(&["search", "--list-strategies", "--nope"]),
            Ok(Parsed::SearchStrategies),
            "short-circuits like --help"
        );
        // `search` is only a subcommand in first position.
        assert!(parse_dse_args(&["--resume", "search"]).is_err());
    }

    #[test]
    fn search_subcommand_is_strict() {
        assert!(parse_dse_args(&["search", "--nope"]).is_err());
        assert!(parse_dse_args(&["search", "stray"]).is_err());
        assert!(parse_dse_args(&["search", "--strategy"]).is_err());
        assert!(parse_dse_args(&["search", "--strategy", "gradient"]).is_err());
        assert!(parse_dse_args(&["search", "--seed"]).is_err());
        assert!(parse_dse_args(&["search", "--seed", "many"]).is_err());
        assert!(parse_dse_args(&["search", "--budget", "0"]).is_err());
        assert!(parse_dse_args(&["search", "--batch", "0"]).is_err());
        assert!(parse_dse_args(&["search", "--space", "galaxy"]).is_err());
        assert!(parse_dse_args(&["search", "--apps", "hydro,warp"]).is_err());
        assert!(parse_dse_args(&["search", "--apps", ""]).is_err());
        assert!(parse_dse_args(&["search", "--hv-ref", "1"]).is_err());
        assert!(parse_dse_args(&["search", "--hv-ref", "nan"]).is_err());
        assert!(parse_dse_args(&["search", "--workers", "0"]).is_err());
        assert!(parse_dse_args(&["search", "--search-report"]).is_err());
    }

    #[test]
    fn search_strategy_registry_accepts_every_registered_name() {
        for (name, _) in STRATEGIES {
            let a = search(&["search", "--strategy", name]);
            assert_eq!(a.strategy, name);
        }
    }

    #[test]
    fn search_apps_dedupe_and_trim() {
        let a = search(&["search", "--apps", " hydro , hydro ,lulesh"]);
        assert_eq!(a.apps.unwrap().len(), 2);
    }

    #[test]
    fn doctor_subcommand_parses() {
        assert_eq!(
            parse_dse_args(&["doctor"]),
            Ok(Parsed::Doctor(DoctorArgs::default()))
        );
        assert_eq!(
            parse_dse_args(&["doctor", "--repair", "--json", "--store-dir", "/tmp/c"]),
            Ok(Parsed::Doctor(DoctorArgs {
                store_dir: Some("/tmp/c".into()),
                repair: true,
                json: true,
            }))
        );
        assert_eq!(
            parse_dse_args(&["doctor", "--help"]),
            Ok(Parsed::Help(DOCTOR_USAGE))
        );
        assert_eq!(
            parse_dse_args(&["doctor", "-h"]),
            Ok(Parsed::Help(DOCTOR_USAGE))
        );
        // Only a subcommand in first position.
        assert!(parse_dse_args(&["--resume", "doctor"]).is_err());
    }

    #[test]
    fn doctor_subcommand_is_strict() {
        assert!(parse_dse_args(&["doctor", "--nope"]).is_err());
        assert!(parse_dse_args(&["doctor", "stray"]).is_err());
        assert!(parse_dse_args(&["doctor", "--store-dir"]).is_err());
    }

    #[test]
    fn torture_subcommand_parses() {
        assert_eq!(
            parse_dse_args(&["torture"]),
            Ok(Parsed::Torture(TortureArgs {
                seed: 7,
                rounds: 3,
                dir: None,
                keep: false,
            }))
        );
        assert_eq!(
            parse_dse_args(&[
                "torture", "--seed", "11", "--rounds", "5", "--dir", "/tmp/t", "--keep",
            ]),
            Ok(Parsed::Torture(TortureArgs {
                seed: 11,
                rounds: 5,
                dir: Some("/tmp/t".into()),
                keep: true,
            }))
        );
        assert_eq!(
            parse_dse_args(&["torture", "--help"]),
            Ok(Parsed::Help(TORTURE_USAGE))
        );
    }

    #[test]
    fn torture_subcommand_is_strict() {
        assert!(parse_dse_args(&["torture", "--nope"]).is_err());
        assert!(parse_dse_args(&["torture", "stray"]).is_err());
        assert!(parse_dse_args(&["torture", "--seed"]).is_err());
        assert!(parse_dse_args(&["torture", "--seed", "many"]).is_err());
        assert!(parse_dse_args(&["torture", "--rounds", "0"]).is_err());
        assert!(parse_dse_args(&["torture", "--dir"]).is_err());
    }
}
