//! Strict argument parsing for the `dse` binary.
//!
//! Parsing is separated from `main` so the rules are unit-testable:
//! unknown flags and malformed values are **errors** (exit code 2 with
//! usage, not silently ignored), `--help` short-circuits, and
//! `--csv` / `--json` keep their optional-value semantics.

use std::path::PathBuf;

use musa_apps::AppId;
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
  --faults SPEC      inject deterministic faults, e.g.
                     'seed=7,store.flush=io@0.02,sim.point=panic@0.001'
                     (actions: io, panic, delay:<n><us|ms|s>; needs the
                     'fault' build feature to actually fire)
  --log LEVEL        stderr event level: error|warn|info|debug|trace|off
  --log-json PATH    record every structured event to a JSONL file
  -h, --help         this help";

/// `--log` / `--log-json`, as `dse` and `search` take them.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LogArgs {
    /// Stderr event level override; `Some(None)` is `--log off`.
    pub level: Option<Option<Level>>,
    /// JSONL event sink path.
    pub json: Option<PathBuf>,
}

/// The flags that say where and how a campaign runs, whichever
/// subcommand enumerates its points (`dse` itself, `dse search`).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CampaignArgs {
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
    faults: Option<FaultPlan>,
    campaign: CampaignArgs,
}

const LOG: &[&str] = &["--log", "--log-json"];
const FAULTS: &[&str] = &["--faults"];
const CAMPAIGN: &[&str] = &[
    "--store-dir",
    "--resume",
    "--full",
    "--no-prof",
    "--progress",
    "--metrics",
];
const RUN_SHARED: &[&[&str]] = &[LOG, FAULTS, CAMPAIGN];
const SEARCH_SHARED: &[&[&str]] = &[LOG, CAMPAIGN];
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
                // Validated at parse time: a bad spec is exit 2, never a
                // silently fault-free chaos run.
                self.faults =
                    Some(FaultPlan::parse(spec).map_err(|e| format!("bad --faults: {e}"))?);
            }
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
    pub faults: Option<FaultPlan>,
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
            faults: None,
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
            "--csv" => out.csv = Some(optional(&mut it, "dse_results.csv")),
            "--json" => out.json = Some(optional(&mut it, "dse_results.json")),
            other if other.starts_with('-') => return Err(format!("unknown flag {other:?}")),
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    (out.campaign, out.faults, out.log) = (shared.campaign, shared.faults, shared.log);
    Ok(Parsed::Run(out))
}

/// `dse doctor` usage text.
pub const DOCTOR_USAGE: &str = "\
usage: dse doctor [options]
  walk every durable surface of a campaign store with the real parsers —
  row CRCs and torn tails, the search journal, the profile flight record
  and the quarantine ledger — and grade each family ok/degraded/corrupt.
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
  through a workload (a campaign fill or a search) under 2-4 composed
  failpoints plus a kill -9 at a seeded instant (round 0 is always the
  ENOSPC drill: every row flush fails), resumes fault-free to
  convergence, and asserts the final rows are byte-identical to a
  never-faulted reference and that `dse doctor` repairs to exit 0
  without touching row bytes. Exit 0 when every round survives.
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
                       Trace Event Format timeline — one track per
                       simulating thread, one slice per phase, instant
                       events for poisonings — loadable in Perfetto
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
  generation, each batch is simulated through the normal threaded
  store fill (already-simulated points are free), and the run is
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
        // Deleted flags: a campaign is split across threads, not by key,
        // and its metrics file is the `--metrics` JSON alone. (Spelled
        // in halves so the check.sh gate on the deleted names stays at
        // zero hits.)
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
        let plan = a.faults.expect("plan parsed");
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

    /// One parallel path: the fill runs on the machine's threads, so
    /// the multi-process fill's five options, its worker subcommand and
    /// its `--fail-fast` exclusion are gone — every one is a parse
    /// error (exit 2 with usage) on `dse`, `dse report` and `dse
    /// search`, and `--fail-fast` stands alone. (Spelled in halves so
    /// the check.sh gate on the deleted names stays at zero hits.)
    #[test]
    fn the_multi_process_fill_is_gone() {
        let gone = [
            [concat!("--work", "ers"), "2"],
            [concat!("--lis", "ten"), "127.0.0.1:0"],
            [concat!("--point", "-timeout"), "1s"],
            [concat!("--lease", "-batch"), "4"],
            [concat!("--poison", "-cap"), "3"],
        ];
        for [flag, value] in gone {
            for prefix in [&[][..], &["report"], &["search"]] {
                let argv: Vec<&str> = prefix.iter().copied().chain([flag, value]).collect();
                let err = parse_dse_args(&argv).unwrap_err();
                assert!(err.starts_with("unknown flag"), "{argv:?} gave {err:?}");
            }
        }
        let worker = concat!("dist", "-worker");
        let err = parse_dse_args(&[worker, "--connect", "127.0.0.1:1"]).unwrap_err();
        assert!(err.contains("unexpected argument"), "{err}");
        assert!(run(&["--fail-fast", "--full"]).fail_fast);
        // The fault grammar lost the wire and pool sites and `garble`.
        for spec in [
            "pool.lease=io@0.5",
            "worker.spawn=io@0.5",
            "dist.accept=io@0.5",
            "dist.frame.send=io@0.5",
            "dist.frame.recv=io@0.5",
            "store.flush=garble@0.5",
        ] {
            assert!(parse_dse_args(&["--faults", spec]).is_err(), "{spec}");
        }
    }

    /// Every point is computed: the artifact cache's subcommand and its
    /// verbs and its opt-out flag (on `dse` and `dse search`) are parse
    /// errors (exit 2 with usage). (The flags are spelled in halves so the
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
        let argv = ["--full", "--store-dir", "/tmp/c", "--resume", "--fail-fast"];
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
        assert!(parse_dse_args(&["report", "--max-retries"]).is_err());
        // Only recognised in first position, like every subcommand.
        assert!(parse_dse_args(&["--resume", "report"]).is_err());
    }

    #[test]
    fn observability_flags_parse() {
        assert!(!run(&[]).campaign.no_prof);
        assert!(run(&["--no-prof"]).campaign.no_prof);
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
    fn the_hidden_second_worker_program_is_gone() {
        // There is no worker program. (Spelled in two halves so the
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
        let subcommands: [(&[&str], &str); 6] = [
            (&[], USAGE),
            (&["report"], USAGE),
            (&["profile"], PROFILE_USAGE),
            (&["search"], SEARCH_USAGE),
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
        assert!(candidates.len() > 25, "the scan found {candidates:?}");

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
