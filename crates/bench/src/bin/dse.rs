//! The full design-space-exploration campaign as a CLI tool, backed by
//! the persistent `musa-store` campaign store: runs the missing subset
//! of the 864 configurations × 5 applications, then exports and
//! summarises the result table.
//!
//! ```sh
//! cargo run --release -p musa-bench --bin dse                 # fresh sweep
//! cargo run --release -p musa-bench --bin dse -- --resume     # finish an interrupted sweep
//! cargo run --release -p musa-bench --bin dse -- --workers 4  # 4 worker processes
//! cargo run --release -p musa-bench --bin dse -- --csv out.csv --json out.json
//! cargo run --release -p musa-bench --bin dse -- --store-dir /tmp/campaign --resume
//! cargo run --release -p musa-bench --bin dse -- --full       # 256-rank paper scale
//! cargo run --release -p musa-bench --bin dse -- report       # regenerate results/
//! cargo run --release -p musa-bench --bin dse -- --progress --metrics m.json
//! cargo run --release -p musa-bench --bin dse -- serve --store-dir /tmp/campaign --port 8080
//! ```
//!
//! The store directory holds one JSON-lines file per writer: the
//! sequential fill's `rows.jsonl`, or one `dist-l….jsonl` per
//! `--workers` lease. Either way they hold the identical campaign a
//! single sequential run produces. With `--listen HOST:PORT`,
//! `dse dist-worker` processes on other machines join a `--workers`
//! run. All simulation, resume and export logic lives in `musa-store`
//! / `musa-core`; argument parsing is in [`musa_bench::cli`] (strict:
//! unknown flags exit 2 with usage).
//!
//! With `--progress` and/or `--metrics`, the run ends with the
//! "where did the time go" phase table on stderr; `--metrics PATH`
//! additionally dumps the full metrics snapshot (per-app × per-phase
//! wall time, cache-hit/resume-skip counts, batch-flush statistics) as
//! schema-versioned JSON.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use musa_apps::AppId;
use musa_arch::{DesignSpace, NodeConfig};
use musa_bench::cli::{
    parse_dse_args, CacheArgs, CacheCmd, CampaignArgs, DistWorkerArgs, DoctorArgs, DseArgs,
    FaultArgs, LogArgs, Parsed, ProfileArgs, SearchArgs, ServeArgs, TortureArgs, USAGE,
};
use musa_bench::{configs, scale_for, store_dir_for};
use musa_cache::ArtifactCache;
use musa_core::report::table;
use musa_core::SweepOptions;
use musa_dist::{signals, PoolOptions, Supervisor};
use musa_search::{
    run_search, Evaluator, GenerationRecord, SearchConfig, SearchError, SearchJournal,
};
use musa_store::{export, CampaignStore, FillOptions, LeaseEvent, LeaseJournal, PointExecutor};

/// Exit code for a sweep that completed but holds poisoned points:
/// partial success, distinguishable from both success (0) and fatal
/// errors (1) so supervising scripts can decide to retry.
const EXIT_PARTIAL: i32 = 3;

/// Exit code after a graceful SIGINT/SIGTERM drain (128 + SIGINT).
const EXIT_INTERRUPTED: i32 = 130;

fn die(msg: impl std::fmt::Display) -> ! {
    eprintln!("{msg}");
    std::process::exit(1);
}

fn main() {
    musa_obs::init_from_env();
    // MUSA_FAULTS / MUSA_FAULT_SEED: a set-but-invalid chaos spec must
    // refuse to start, exactly like a bad --faults flag.
    if let Err(e) = musa_fault::init_from_env() {
        eprintln!("dse: {e}\n{USAGE}");
        std::process::exit(2);
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (args, report) = match parse_dse_args(&argv) {
        Ok(Parsed::Help(usage)) => {
            // Tolerate a closed pipe (`dse --help | head`): help must
            // exit 0 even when the reader stops early.
            use std::io::Write;
            let _ = writeln!(std::io::stdout(), "{usage}");
            std::process::exit(0);
        }
        Ok(Parsed::SearchStrategies) => {
            use std::io::Write;
            let mut out = std::io::stdout();
            let _ = writeln!(out, "search strategies:");
            for (name, what) in musa_search::STRATEGIES {
                let _ = writeln!(out, "  {name:<12} {what}");
            }
            std::process::exit(0);
        }
        Ok(Parsed::Search(args)) => search_main(args),
        Ok(Parsed::Profile(args)) => profile_main(args),
        Ok(Parsed::Cache(args)) => cache_main(args),
        Ok(Parsed::Serve(args)) => serve_main(args),
        Ok(Parsed::DistWorker(args)) => dist_worker_main(args),
        Ok(Parsed::Doctor(args)) => doctor_main(args),
        Ok(Parsed::Torture(args)) => torture_main(args),
        Ok(Parsed::Run(args)) => (args, false),
        Ok(Parsed::Report(args)) => (args, true),
        Err(e) => {
            eprintln!("dse: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };

    let configs = configs();
    if report && configs.len() != DesignSpace::all().len() {
        // The figures read the whole design space (Fig. 10 its 72-point
        // 2 GHz / 64-core subset): a slice would stop partway through.
        die(format!(
            "dse report: MUSA_CONFIG_SLICE narrows the sweep to {} configuration(s); \
             results/ needs all {}",
            configs.len(),
            DesignSpace::all().len()
        ));
    }
    arm_observability(&args.log, Some(&args.faults));
    let dir = store_dir_of(&args.campaign.store_dir, args.campaign.full);
    if !args.campaign.resume {
        clear_store(&dir);
    }
    let points: Vec<(AppId, NodeConfig)> = AppId::ALL
        .iter()
        .flat_map(|&app| configs.iter().map(move |&config| (app, config)))
        .collect();

    let mut runner = Runner::open(&args, &dir, "sequential", true);
    let outcome = runner.run(&points);
    runner.finish();
    let campaign = runner
        .store
        .campaign_for(&AppId::ALL, &configs, &runner.sweep);
    if args.campaign.workers.is_some() {
        // Completeness guard: a pool run that was not interrupted must
        // account for every requested point — a row in the store, or a
        // poison record with provenance. Anything else is a bug that
        // must not masquerade as a clean sweep.
        let unaccounted = points
            .len()
            .saturating_sub(campaign.results.len() + outcome.poisoned);
        if unaccounted > 0 {
            eprintln!(
                "dse: pool run left {unaccounted} of {} point(s) neither stored \
                 nor poisoned in {}; not reporting success",
                points.len(),
                dir.display()
            );
            finish_observability(&args.campaign, &runner.worker_metrics);
            std::process::exit(1);
        }
    }
    export_campaign(&args, &campaign);
    summarise(&campaign, &configs, &dir);
    if report {
        write_report(&campaign, &runner.sweep.gen, outcome.poisoned);
    }
    finish_observability(&args.campaign, &runner.worker_metrics);
    if outcome.poisoned > 0 {
        std::process::exit(EXIT_PARTIAL);
    }
}

/// `dse report`: render every [`musa_bench::report::ENTRIES`] file from
/// the campaign, then write them all under `results/`. A poisoned point
/// or a failed shape assertion stops it before the first write.
fn write_report(campaign: &musa_core::Campaign, gen: &musa_apps::GenParams, poisoned: usize) {
    if poisoned > 0 {
        die(format!(
            "dse report: {poisoned} point(s) poisoned; not writing results/"
        ));
    }
    let files: Vec<_> = musa_bench::report::ENTRIES
        .iter()
        .map(|(file, render)| (Path::new("results").join(file), render(campaign, gen)))
        .collect();
    std::fs::create_dir_all("results").unwrap_or_else(|e| die(format!("create results/: {e}")));
    for (path, body) in &files {
        std::fs::write(path, body)
            .unwrap_or_else(|e| die(format!("write {}: {e}", path.display())));
    }
    println!("wrote {} file(s) to results/", files.len());
}

/// `--store-dir`, or the default for the scale. `full` is the parsed
/// `--full` (false for the subcommands that do not take it): `dse`
/// never looks at argv a second time.
fn store_dir_of(store_dir: &Option<PathBuf>, full: bool) -> PathBuf {
    store_dir
        .clone()
        .unwrap_or_else(|| store_dir_for(scale_for(full).0))
}

/// What one [`Runner::run`] did.
struct Outcome {
    /// Points already in the store.
    cached: usize,
    /// Points quarantined: panicked in their simulation, or killed
    /// `--poison-cap` workers.
    poisoned: usize,
}

/// How a [`Runner`] executes points.
enum Backend {
    /// [`CampaignStore::fill`] in this process, with the artifact cache
    /// and the flight recorder. The reference `--workers` is held
    /// byte-identical to.
    Fill { cache: Option<Arc<ArtifactCache>> },
    /// `--workers N`: the supervisor's `dist-worker` children (and any
    /// remote ones that join over `--listen`) simulate; the hub's
    /// lease shards are the only writers while it is open.
    Pool {
        sup: Box<Supervisor>,
        workers: usize,
        /// Length of the cache sessions ledger before this run's
        /// workers appended to it.
        prior_sessions: usize,
    },
}

/// The one way `dse` runs points, whichever subcommand enumerates them
/// (the campaign hands over one list, a search one per generation):
/// open the store with its cache and recorder, or the supervisor; run
/// the points; on SIGINT/SIGTERM journal the interruption, flush the
/// telemetry and exit 130; at the end dismiss the workers and report
/// cache reuse. Only `--workers` picks between the two backends.
struct Runner<'a> {
    args: &'a DseArgs,
    dir: &'a Path,
    /// What every point runs under; the parsed `--full` picks the scale.
    sweep: SweepOptions,
    /// Label of this process's session in the cache ledger.
    session: &'static str,
    /// Print each run's report lines (the campaign does; a search's
    /// generations stay quiet).
    announce: bool,
    backend: Backend,
    /// Where results are read from: the writer of an in-process fill,
    /// a fresh load after each supervised run.
    store: CampaignStore,
    /// Metrics the workers shipped with their lease results.
    worker_metrics: musa_obs::MetricsSnapshot,
}

impl<'a> Runner<'a> {
    fn open(args: &'a DseArgs, dir: &'a Path, session: &'static str, announce: bool) -> Runner<'a> {
        let c = &args.campaign;
        let want_report = c.metrics.is_some() || c.progress;
        if want_report {
            musa_obs::enable_metrics(true);
        }
        // SIGINT/SIGTERM is latched and polled between batches (or
        // leases), so a pipeline around `dse` can tell a clean Ctrl-C
        // from a crash.
        signals::install_term_handlers();
        let mut store = CampaignStore::open(dir)
            .unwrap_or_else(|e| die(format!("open campaign store {}: {e}", dir.display())));
        let backend = if let Some(workers) = c.workers {
            let cache_on = !c.no_cache && musa_cache::enabled_from_env();
            let prior_sessions = if cache_on {
                musa_cache::load_sessions(&dir.join(musa_cache::ARTIFACT_DIR)).len()
            } else {
                0
            };
            let pool = PoolOptions {
                workers,
                point_timeout: args.point_timeout,
                max_retries: args.max_retries,
                poison_cap: args.poison_cap,
                lease_batch: args.lease_batch,
                progress: c.progress,
                env: musa_bench::pool_worker_env(
                    args.faults.spec.as_deref(),
                    !c.no_cache,
                    want_report,
                    !c.no_prof && musa_prof::enabled_from_env(),
                ),
            };
            let sup = Supervisor::open(dir, pool, c.listen.as_deref())
                .unwrap_or_else(|e| die(format!("dse: {e}")));
            if c.listen.is_some() {
                eprintln!(
                    "[dse] listening for dist-workers on {0} (connect with: dse dist-worker \
                     --connect {0})",
                    sup.addr()
                );
            }
            Backend::Pool {
                sup: Box::new(sup),
                workers,
                prior_sessions,
            }
        } else {
            let cache = open_cache(dir, c.no_cache);
            if let Some(cache) = &cache {
                store.set_artifact_cache(Arc::clone(cache));
            }
            install_store_recorder(dir, c.no_prof);
            Backend::Fill { cache }
        };
        Runner {
            args,
            dir,
            sweep: SweepOptions {
                gen: scale_for(c.full).1,
                full_replay: true,
            },
            session,
            announce,
            backend,
            store,
            worker_metrics: musa_obs::MetricsSnapshot::default(),
        }
    }

    /// Simulate every point of `points` the store does not hold.
    /// Returns once they are all stored or poisoned; an interrupted or
    /// failed run does not return.
    fn run(&mut self, points: &[(AppId, NodeConfig)]) -> Outcome {
        let dir = self.dir.display();
        match &mut self.backend {
            Backend::Fill { .. } => {
                let opts = FillOptions {
                    progress: self.args.campaign.progress,
                    max_retries: self.args.max_retries,
                    fail_fast: self.args.fail_fast,
                    cancel: Some(signals::termination_requested),
                    ..FillOptions::new(self.sweep)
                };
                let (mut in_scope, mut cached, mut simulated, mut retries) = (0, 0, 0, 0);
                let mut poisoned = Vec::new();
                let mut interrupted = false;
                for (apps, configs) in cross_products(points) {
                    let report = self
                        .store
                        .fill(&apps, &configs, &opts)
                        .unwrap_or_else(|e| die(format!("fill campaign store {dir}: {e}")));
                    in_scope += report.requested;
                    cached += report.cached;
                    simulated += report.simulated;
                    retries += report.retries;
                    poisoned.extend(report.poisoned);
                    if report.interrupted {
                        interrupted = true;
                        break;
                    }
                }
                if self.announce {
                    eprintln!(
                        "[dse] store {dir}: {in_scope} points in scope, {cached} cached, \
                         {simulated} simulated"
                    );
                    if !poisoned.is_empty() {
                        eprintln!(
                            "[dse] {} point(s) poisoned (simulation panicked); completed rows \
                             are persisted — re-run with --resume to retry them:",
                            poisoned.len()
                        );
                        for p in &poisoned {
                            eprintln!("[dse]   {}/{}: {}", p.app, p.config, p.reason);
                        }
                    }
                    if retries > 0 {
                        eprintln!(
                            "[dse] {retries} flush retr{} recovered transient I/O errors",
                            if retries == 1 { "y" } else { "ies" }
                        );
                    }
                }
                if interrupted {
                    self.interrupted(format!(
                        "{} point(s) flushed, the rest resume with --resume",
                        cached + simulated
                    ));
                }
                Outcome {
                    cached,
                    poisoned: poisoned.len(),
                }
            }
            Backend::Pool { sup, workers, .. } => {
                let report = sup.run(points, &self.sweep).unwrap_or_else(|e| {
                    sup.close();
                    die(format!("dse: pool fill in {dir} failed: {e}"))
                });
                self.worker_metrics.absorb(&report.worker_metrics);
                if self.announce {
                    eprintln!(
                        "[dse] pool {dir}: {} requested, {} cached, {} completed by {workers} \
                         workers ({} rows flushed, {} requeues, {} worker deaths, {} deadline \
                         kills)",
                        report.requested,
                        report.cached,
                        report.completed,
                        report.rows_flushed,
                        report.requeues,
                        report.worker_deaths,
                        report.deadline_kills,
                    );
                    for p in &report.pool_poisoned {
                        eprintln!(
                            "[dse]   poisoned (killed {} workers): {}/{}: {}",
                            p.strikes, p.app, p.config, p.reason
                        );
                    }
                    for p in &report.worker_poisoned {
                        eprintln!(
                            "[dse]   poisoned (in-worker panic): {}/{}: {}",
                            p.app, p.config, p.reason
                        );
                    }
                }
                if report.interrupted {
                    self.interrupted("workers drained, resume with --resume".to_string());
                }
                self.store = CampaignStore::open_read_only(self.dir)
                    .unwrap_or_else(|e| die(format!("open campaign store {dir}: {e}")));
                Outcome {
                    cached: report.cached,
                    poisoned: report.poisoned_total(),
                }
            }
        }
    }

    /// Everything simulated so far is durable: dismiss the workers,
    /// leave a journal marker, flush the telemetry, and report the
    /// interruption in the exit code.
    fn interrupted(&mut self, what: String) -> ! {
        self.dismiss();
        if let Backend::Fill { .. } = self.backend {
            // (The supervisor journals its own drain.)
            match LeaseJournal::open(self.dir) {
                Ok((mut journal, _)) => {
                    let _ = journal.append(&LeaseEvent::Interrupted {
                        reason: "SIGINT/SIGTERM during sequential fill".to_string(),
                    });
                }
                Err(e) => eprintln!("[dse] cannot journal the interruption: {e}"),
            }
        }
        eprintln!("[dse] interrupted: {what}");
        finish_observability(&self.args.campaign, &self.worker_metrics);
        std::process::exit(EXIT_INTERRUPTED);
    }

    /// After the last run: [`Self::dismiss`], then reopen the store
    /// the results are read from — no other process holds a writer by
    /// now, so this open also truncates any torn tail a kill -9 left
    /// behind.
    fn finish(&mut self) {
        self.dismiss();
        if let Backend::Pool { .. } = self.backend {
            self.store = CampaignStore::open(self.dir).unwrap_or_else(|e| {
                die(format!("open campaign store {}: {e}", self.dir.display()))
            });
        }
    }

    /// Stop recording, dismiss the workers, print the cache reuse
    /// report.
    fn dismiss(&mut self) {
        match &mut self.backend {
            Backend::Fill { cache } => {
                musa_prof::uninstall_recorder();
                if let Some(cache) = cache {
                    cache.persist_session(self.session);
                    let stats = cache.stats();
                    if stats.hits() + stats.misses() > 0 {
                        eprintln!("[dse] cache: {}", stats.report());
                    }
                }
            }
            Backend::Pool {
                sup,
                prior_sessions,
                ..
            } => {
                sup.close();
                // Workers persisted their tallies on exit; aggregate
                // the lines this run appended — not earlier runs
                // sharing the directory — into one reuse report.
                let sessions = musa_cache::load_sessions(&self.dir.join(musa_cache::ARTIFACT_DIR));
                let mut total = musa_cache::SessionStats::default();
                let fresh = sessions.iter().skip(*prior_sessions);
                let count = fresh.clone().count();
                for s in fresh {
                    total.absorb(s);
                }
                if count > 0 && total.hits() + total.misses() > 0 {
                    eprintln!(
                        "[dse] cache ({count} worker session{}): {}",
                        if count == 1 { "" } else { "s" },
                        total.report()
                    );
                }
            }
        }
    }
}

/// [`CampaignStore::fill`] takes `apps × configs`: cover `points`, in
/// application order, with as few cross products as it allows. The
/// campaign is one; a search generation is usually one per application.
fn cross_products(points: &[(AppId, NodeConfig)]) -> Vec<(Vec<AppId>, Vec<NodeConfig>)> {
    let mut out: Vec<(Vec<AppId>, Vec<NodeConfig>)> = Vec::new();
    for app in AppId::ALL {
        let configs: Vec<NodeConfig> = points
            .iter()
            .filter(|(a, _)| *a == app)
            .map(|(_, c)| *c)
            .collect();
        match out.last_mut() {
            _ if configs.is_empty() => {}
            Some((apps, last)) if *last == configs => apps.push(app),
            _ => out.push((vec![app], configs)),
        }
    }
    out
}

/// CLI flags override the `MUSA_LOG` / `MUSA_LOG_JSON` / `MUSA_FAULTS`
/// environment read at startup.
fn arm_observability(log: &LogArgs, faults: Option<&FaultArgs>) {
    if let Some(level) = log.level {
        musa_obs::set_max_level(level);
    }
    if let Some(path) = &log.json {
        if let Err(e) = musa_obs::set_json_path(path) {
            eprintln!("dse: cannot open --log-json {}: {e}", path.display());
            std::process::exit(2);
        }
    }
    if let Some(plan) = faults.and_then(|f| f.plan.as_ref()) {
        if !musa_fault::COMPILED {
            eprintln!(
                "dse: note: --faults given but fault injection is compiled out \
                 (build with the 'fault' feature); nothing will fire"
            );
        }
        musa_fault::set_plan(Some(plan.clone()));
    }
}

/// The artifact cache under `dir`, on unless `--no-cache` (or
/// `MUSA_CACHE=0`) says otherwise. Failure to open it is a warning:
/// the sweep proceeds uncached rather than not at all.
fn open_cache(dir: &Path, no_cache: bool) -> Option<Arc<ArtifactCache>> {
    if no_cache || !musa_cache::enabled_from_env() {
        return None;
    }
    match ArtifactCache::open(dir) {
        Ok(cache) => Some(cache),
        Err(e) => {
            eprintln!("[dse] artifact cache unavailable ({e}), computing uncached");
            None
        }
    }
}

/// Flight recorder for an in-process fill: one sealed record per
/// simulated point lands in `profiles.jsonl`. Installation first
/// repairs what a crashed run may have left. Failure to install
/// degrades to an unprofiled sweep, never a dead one.
fn install_store_recorder(dir: &Path, no_prof: bool) {
    if no_prof || !musa_prof::enabled_from_env() {
        return;
    }
    match musa_prof::install_store_recorder(dir) {
        Ok(rep) if rep.repaired_anything() => eprintln!(
            "[dse] profile harvest: kept {} record(s), dropped {} duplicate(s), \
             {} torn tail(s), {} corrupt line(s)",
            rep.records, rep.duplicates, rep.torn_tails, rep.corrupt
        ),
        Ok(_) => {}
        Err(e) => eprintln!("[dse] profiling unavailable ({e}), sweep runs unprofiled"),
    }
}

/// `dse dist-worker --connect ADDR`: the one worker program. It
/// executes leases — each names its points and their scale — until
/// drained, rejected, interrupted, or the reconnect window closes with
/// the supervisor unreachable. `dse --workers N` spawns N of these on
/// loopback; any number more may join a `--listen` supervisor.
fn dist_worker_main(args: DistWorkerArgs) -> ! {
    arm_observability(&args.log, Some(&args.faults));

    // The only thing a worker keeps on disk is its artifact cache: in
    // the given store directory (shared, kept), or in a per-process
    // scratch directory that goes away with the worker.
    let scratch = args
        .store_dir
        .is_none()
        .then(|| std::env::temp_dir().join(format!("musa-dist-worker-{}", std::process::id())));
    let cache = open_cache(
        args.store_dir
            .as_deref()
            .or(scratch.as_deref())
            .expect("one is set"),
        args.no_cache,
    );
    if !args.no_prof && musa_prof::enabled_from_env() {
        musa_prof::install_line_recorder();
    }

    let mut exec = PointExecutor::new(cache);
    let opts = musa_dist::DistWorkerOptions {
        connect: args.connect.clone(),
        tag: format!("w{}", std::process::id()),
        reconnect_for: args
            .reconnect_for
            .unwrap_or(musa_dist::DEFAULT_RECONNECT_FOR),
        max_reconnects: args.max_reconnects,
    };
    let exit = musa_dist::run_dist_worker(&opts, &mut exec);
    musa_prof::uninstall_recorder();
    if let Some(cache) = exec.cache() {
        cache.persist_session("dist-worker");
    }
    if let Some(scratch) = &scratch {
        let _ = std::fs::remove_dir_all(scratch);
    }
    match &exit {
        musa_dist::WorkerExit::Drained => {
            eprintln!("[dse] dist-worker drained: the supervisor is done with us");
        }
        musa_dist::WorkerExit::Interrupted => {
            eprintln!("[dse] dist-worker interrupted, exiting after the shipped point");
        }
        musa_dist::WorkerExit::Rejected { code, reason } => {
            eprintln!("dse dist-worker: rejected by supervisor ({code}): {reason}");
        }
        musa_dist::WorkerExit::GaveUp(why) => {
            eprintln!("dse dist-worker: giving up: {why}");
        }
    }
    std::process::exit(exit.code());
}

/// Search evaluation through the campaign store: every generation's
/// batch is an ordinary [`Runner::run`] — in-process, or handed to the
/// supervisor whose workers stay up for the whole search — and results
/// are read back by point key. Store warmth affects only speed, never
/// values: that memoization is what makes `--resume` replay free.
struct StoreEvaluator<'a> {
    runner: Runner<'a>,
    hits: u64,
}

impl Evaluator for StoreEvaluator<'_> {
    fn evaluate(&mut self, batch: &[(AppId, NodeConfig)]) -> Vec<(f64, f64)> {
        self.hits += self.runner.run(batch).cached as u64;
        // A missing row after a run means the point was poisoned (its
        // simulation panicked) — fatal for a search, because the
        // trajectory cannot continue without the objective value; the
        // row-less point is retried by a later `--resume`.
        batch
            .iter()
            .map(
                |(app, cfg)| match self.runner.store.get(*app, cfg, &self.runner.sweep) {
                    Some(r) => (r.time_ns, r.energy_j),
                    None => die(format!(
                        "dse search: {}/{} has no stored row after evaluation \
                         (poisoned simulation?) — re-run with --resume to retry it",
                        app.label(),
                        cfg.label()
                    )),
                },
            )
            .collect()
    }

    fn memo_hits(&self) -> u64 {
        self.hits
    }
}

/// `dse search`: the adaptive, journaled, resumable Pareto-front
/// search. Evaluation goes through the exact machinery a plain sweep
/// uses — store rows, artifact cache, flight recorder, worker pool —
/// so a search leaves behind a perfectly ordinary (partial) campaign
/// plus its own journal under `<store-dir>/search/`.
fn search_main(args: SearchArgs) -> ! {
    arm_observability(&args.log, None);
    let dir = store_dir_of(&args.campaign.store_dir, args.campaign.full);
    let config = SearchConfig {
        strategy: args.strategy.clone(),
        seed: args.seed,
        budget: args.budget,
        batch: args.batch,
        space: args.space,
        apps: args.apps.clone().unwrap_or_else(|| AppId::ALL.to_vec()),
        hv_ref: args.hv_ref,
        scale: scale_for(args.campaign.full).0.to_string(),
    };

    // A fresh (non --resume) search discards only the search scratch:
    // campaign rows are memoization, not search state, and survive so
    // a re-run (or a different strategy) evaluates for free.
    let search_dir = dir.join(musa_search::SEARCH_DIR);
    if !args.campaign.resume {
        let _ = std::fs::remove_dir_all(&search_dir);
    }
    let mut journal = match SearchJournal::open(search_dir.join(musa_search::JOURNAL_FILE)) {
        Ok(j) => j,
        Err(e) => {
            eprintln!(
                "dse search: cannot open journal in {}: {e}",
                search_dir.display()
            );
            std::process::exit(1);
        }
    };
    if args.campaign.resume && !journal.existing().is_empty() {
        eprintln!(
            "[search] resuming: replaying {} journaled line(s) from {}",
            journal.existing().len(),
            search_dir.display()
        );
    }

    let progress = args.campaign.progress;
    let mut on_gen = |g: &GenerationRecord| {
        if progress {
            eprintln!(
                "[search] gen {:>3}: {:>5} evaluated, front {:>3}, hv {:.4}, T={:.3}",
                g.generation, g.evaluated, g.front, g.hypervolume, g.temperature
            );
        }
    };

    // A generation runs like a plain `dse` with its tuning flags at
    // their defaults.
    let run_args = DseArgs {
        campaign: args.campaign.clone(),
        ..DseArgs::default()
    };
    let mut ev = StoreEvaluator {
        runner: Runner::open(&run_args, &dir, "search", false),
        hits: 0,
    };
    let outcome = run_search(&config, &mut ev, Some(&mut journal), Some(&mut on_gen));
    ev.runner.finish();

    let outcome = match outcome {
        Ok(o) => o,
        Err(SearchError::Mismatch(m)) => {
            eprintln!(
                "dse search: {m}\n\
                 (the journal in {} was recorded under different flags; \
                 re-run without --resume to start a fresh search)",
                search_dir.display()
            );
            std::process::exit(2);
        }
        Err(e) => {
            eprintln!("dse search: {e}");
            std::process::exit(1);
        }
    };

    if let Some(path) = &args.report {
        match musa_search::write_report(path, &outcome) {
            Ok(()) => println!("wrote search report to {}", path.display()),
            Err(e) => {
                eprintln!("search report to {} failed: {e}", path.display());
                std::process::exit(1);
            }
        }
    }
    summarise_search(&outcome);
    finish_observability(&args.campaign, &ev.runner.worker_metrics);
    std::process::exit(0);
}

/// Print the discovered front and the trajectory endpoint.
fn summarise_search(outcome: &musa_search::SearchOutcome) {
    println!(
        "== Discovered Pareto front ({} of {} points evaluated) ==\n",
        outcome.state.evaluated.len(),
        outcome.ps.len()
    );
    let rows: Vec<Vec<String>> = musa_search::front_rows(outcome)
        .iter()
        .map(|r| {
            vec![
                r.app.clone(),
                r.config.clone(),
                format!("{:.2} ms", r.time_ns / 1e6),
                format!("{:.2} J", r.energy_j),
                format!("{:.3}x", r.time_rel),
                format!("{:.3}x", r.energy_rel),
            ]
        })
        .collect();
    println!(
        "{}",
        table(
            &[
                "app",
                "configuration",
                "time",
                "energy",
                "time/ref",
                "energy/ref"
            ],
            &rows
        )
    );
    println!(
        "search: strategy {}, seed {}, {} generation(s), {} point(s) evaluated, \
         front {}, hypervolume {:.4}",
        outcome.config.strategy,
        outcome.config.seed,
        outcome.trajectory.len(),
        outcome.state.evaluated.len(),
        outcome.state.front.len(),
        outcome.state.hypervolume
    );
    if outcome.exhausted {
        println!("(the space ran out of fresh points before the budget)");
    }
}

/// `dse cache stats|verify|gc`: offline administration of the artifact
/// directory. Works on the directory alone — no campaign is loaded, no
/// simulator runs — so these are instant against stores of any size
/// and safe to point at a directory whose writers are long gone.
fn cache_main(args: CacheArgs) -> ! {
    let store = store_dir_of(&args.store_dir, false);
    let dir = store.join(musa_cache::ARTIFACT_DIR);
    match args.cmd {
        CacheCmd::Stats => {
            let inv = musa_cache::inventory(&dir).unwrap_or_else(|e| {
                eprintln!("dse cache stats: cannot scan {}: {e}", dir.display());
                std::process::exit(1);
            });
            println!("artifact cache at {}", dir.display());
            for kind in musa_cache::ArtifactKind::ALL {
                let (n, bytes) = inv.tally(kind);
                println!(
                    "  {:<6} {n:>5} artifact(s)  {:>10}  ({bytes} bytes)",
                    kind.label(),
                    musa_cache::human_bytes(bytes)
                );
            }
            println!(
                "  total  {:>5} artifact(s)  {:>10}  ({} bytes)",
                inv.entries.len(),
                musa_cache::human_bytes(inv.total_bytes()),
                inv.total_bytes()
            );
            if inv.quarantined > 0 {
                println!(
                    "  {} quarantined file(s) held for post-mortem (gc reclaims)",
                    inv.quarantined
                );
            }
            if !inv.tmp_litter.is_empty() {
                println!(
                    "  {} stranded temp file(s) (gc reclaims)",
                    inv.tmp_litter.len()
                );
            }
            let by_label = inv.sessions_by_label();
            if by_label.is_empty() {
                println!("sessions: none recorded");
            } else {
                println!("sessions:");
                for s in &by_label {
                    println!("  {:<12} {}", s.label, s.report());
                }
            }
            std::process::exit(0);
        }
        CacheCmd::Verify => {
            let report = musa_cache::verify(&dir).unwrap_or_else(|e| {
                eprintln!("dse cache verify: {}: {e}", dir.display());
                std::process::exit(1);
            });
            use musa_cache::VerifyVerdict;
            let ok = report.count(|v| *v == VerifyVerdict::Ok);
            let stale = report.count(|v| *v == VerifyVerdict::Stale);
            let newer = report.count(|v| *v == VerifyVerdict::Newer);
            let corrupt = report.count(|v| matches!(v, VerifyVerdict::Corrupt(_)));
            println!(
                "verified {} artifact(s) in {}: {ok} ok, {stale} stale, {newer} newer, {corrupt} corrupt",
                report.files.len(),
                dir.display()
            );
            for (name, verdict) in &report.files {
                if let VerifyVerdict::Corrupt(why) = verdict {
                    println!("  corrupt: {name}: {why}");
                }
            }
            std::process::exit(if report.clean() { 0 } else { 1 });
        }
        CacheCmd::Gc => {
            let report = musa_cache::gc(&dir, args.all, args.max_bytes).unwrap_or_else(|e| {
                eprintln!("dse cache gc: {}: {e}", dir.display());
                std::process::exit(1);
            });
            println!(
                "gc {}: removed {} artifact(s), {} temp file(s), {} quarantined file(s) — {} reclaimed",
                dir.display(),
                report.removed,
                report.tmp_removed,
                report.quarantine_removed,
                musa_cache::human_bytes(report.bytes)
            );
            if args.max_bytes.is_some() {
                println!(
                    "  evicted {} healthy artifact(s) ({}) to fit the --max-bytes budget",
                    report.evicted,
                    musa_cache::human_bytes(report.evicted_bytes)
                );
            }
            std::process::exit(0);
        }
    }
}

/// `--csv` / `--json` exports, shared by the sequential and pool paths.
fn export_campaign(args: &DseArgs, campaign: &musa_core::Campaign) {
    if let Some(path) = &args.csv {
        match export::write_csv(campaign, path) {
            Ok(n) => println!("wrote {n} rows to {path}"),
            Err(e) => {
                eprintln!("CSV export to {path} failed: {e}");
                std::process::exit(1);
            }
        }
    }
    if let Some(path) = &args.json {
        match export::write_json(campaign, path) {
            Ok(n) => println!("wrote {n} rows to {path}"),
            Err(e) => {
                eprintln!("JSON export to {path} failed: {e}");
                std::process::exit(1);
            }
        }
    }
}

/// `dse doctor`: store-wide integrity audit, optionally with repair.
/// Exit code is the severity grade (0 ok, 1 degraded, 2 corrupt); an
/// I/O failure while auditing exits 1 with the error on stderr.
fn doctor_main(args: DoctorArgs) -> ! {
    let store = store_dir_of(&args.store_dir, false);
    let result = if args.repair {
        musa_doctor::repair(&store)
    } else {
        musa_doctor::audit(&store)
    };
    let report = match result {
        Ok(report) => report,
        Err(e) => {
            eprintln!("dse doctor: {}: {e}", store.display());
            std::process::exit(1);
        }
    };
    if args.repair {
        // The beacon is a CLI artifact, not part of repair() itself —
        // the library stays byte-pure so the idempotence property test
        // can compare directories after back-to-back repairs.
        if let Err(e) = musa_doctor::write_status(&store, &report) {
            eprintln!(
                "dse doctor: cannot write {}: {e}",
                musa_doctor::DOCTOR_STATUS_FILE
            );
        }
    }
    if args.json {
        println!("{}", report.render_json());
    } else {
        print!("{}", report.render_text());
    }
    std::process::exit(report.exit_code());
}

/// `dse torture`: the seeded multi-fault storm harness, driving this
/// very binary through workloads under composed faults and kill -9.
fn torture_main(args: TortureArgs) -> ! {
    let dse = match std::env::current_exe() {
        Ok(path) => path,
        Err(e) => {
            eprintln!("dse torture: cannot locate own binary: {e}");
            std::process::exit(1);
        }
    };
    let opts = musa_doctor::torture::TortureOptions {
        seed: args.seed,
        rounds: args.rounds,
        dse,
        root: args.dir.clone(),
        keep: args.keep,
    };
    match musa_doctor::torture::run_torture(&opts) {
        Ok(report) => {
            print!("{}", report.render_text());
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("dse torture: FAILED: {e}");
            std::process::exit(1);
        }
    }
}

/// `dse serve`: load the campaign once, serve queries until killed (or
/// until an authorised `GET /quit` triggers a graceful drain).
fn serve_main(args: ServeArgs) -> ! {
    use std::sync::Arc;
    use std::time::Duration;

    arm_observability(&args.log, None);
    // The /metrics endpoint is only useful with the registry on.
    musa_obs::enable_metrics(true);

    let engine = if args.synthetic {
        musa_serve::QueryEngine::new(musa_serve::synth::synthetic_results(864))
    } else {
        let dir = store_dir_of(&args.store_dir, false);
        match musa_serve::QueryEngine::open(&dir) {
            Ok(engine) => engine,
            Err(e) => {
                eprintln!(
                    "dse serve: cannot load campaign store {}: {e}\n\
                     (run `dse` first to fill it, or pass --synthetic for a demo campaign)",
                    dir.display()
                );
                std::process::exit(1);
            }
        }
    };

    let config = musa_serve::ServerConfig {
        addr: format!("{}:{}", args.addr, args.port),
        workers: args.workers,
        backlog: args.backlog,
        read_timeout: Duration::from_millis(args.read_timeout_ms),
        write_timeout: Duration::from_millis(args.write_timeout_ms),
        max_request_bytes: args.max_request_bytes,
        allow_quit: args.allow_quit,
    };
    let rows = engine.len();
    let handle = match musa_serve::Server::start(Arc::new(engine), config) {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!("dse serve: cannot bind {}:{}: {e}", args.addr, args.port);
            std::process::exit(1);
        }
    };
    // The smoke script greps this line for the resolved port; keep the
    // format stable and flushed before blocking.
    {
        use std::io::Write;
        let mut out = std::io::stdout();
        let _ = writeln!(
            out,
            "[serve] listening on http://{} ({rows} rows, {} workers, backlog {})",
            handle.addr(),
            args.workers,
            args.backlog
        );
        let _ = out.flush();
    }

    // Serve until /quit (when enabled). Without --allow-quit this loop
    // runs until the process is killed, which is the intended
    // production mode.
    loop {
        if handle.wait_quit(Duration::from_secs(3600)) {
            break;
        }
    }
    eprintln!("[serve] quit requested, draining");
    handle.shutdown();
    eprintln!("[serve] drained, exiting");
    musa_obs::close_json();
    std::process::exit(0);
}

/// Print the Best-DSE summary (or the partial-campaign notice).
fn summarise(
    campaign: &musa_core::Campaign,
    configs: &[musa_arch::NodeConfig],
    dir: &std::path::Path,
) {
    let full_size = AppId::ALL.len() * configs.len();
    if campaign.results.len() < full_size {
        println!(
            "partial campaign: {}/{} rows in {} — re-run with --resume to complete it",
            campaign.results.len(),
            full_size,
            dir.display()
        );
        return;
    }

    // Per-app best configurations (the Best-DSE points of Table II).
    println!("== Best-DSE per application (64 cores, 2 GHz slice) ==\n");
    let mut rows = Vec::new();
    for app in AppId::ALL {
        // A sliced sweep (MUSA_CONFIG_SLICE) can be complete without
        // holding a single 64-core 2 GHz configuration.
        let Some(best) = campaign.best_for(app, |c| {
            c.cores == musa_arch::CoresPerNode::C64 && c.freq == musa_arch::Frequency::F2_0
        }) else {
            continue;
        };
        rows.push(vec![
            app.label().to_string(),
            best.config.label(),
            format!("{:.2} ms", best.time_ns / 1e6),
            format!("{:.0} W", best.power.total_w()),
            format!("{:.2} J", best.energy_j),
        ]);
    }
    println!(
        "{}",
        table(
            &["app", "best configuration", "time", "power", "energy"],
            &rows
        )
    );
    println!(
        "campaign: {} rows ({} per app)",
        campaign.results.len(),
        campaign.results.len() / AppId::ALL.len()
    );

    // Front quality as one scalar per application: dominated
    // hypervolume over (time, energy), normalised against the
    // reference configuration inside the same [0,8]² box `dse search`
    // maximises — a budgeted search's end-of-run score is directly
    // comparable to this exhaustive sweep's.
    let mut hv_lines = Vec::new();
    for app in AppId::ALL {
        let Some(refrow) = campaign
            .for_app(app)
            .find(|r| r.config == musa_arch::NodeConfig::REFERENCE)
        else {
            continue; // sliced sweeps may omit the reference point
        };
        let raw_hv = campaign.hypervolume(
            app,
            musa_core::RowMetric::TimeNs,
            musa_core::RowMetric::EnergyJ,
            (8.0 * refrow.time_ns, 8.0 * refrow.energy_j),
        );
        // Dividing the raw-unit volume by the reference rectangle
        // yields the hypervolume of the normalised front vs (8, 8).
        hv_lines.push(format!(
            "  {:<8} {:.4}",
            app.label(),
            raw_hv / (refrow.time_ns * refrow.energy_j)
        ));
    }
    if !hv_lines.is_empty() {
        println!("front quality (dominated hypervolume vs 8x reference):");
        for line in hv_lines {
            println!("{line}");
        }
    }
}

/// End-of-run telemetry: the phase table on stderr, the `--metrics`
/// snapshot on disk, and a flushed JSONL sink. `workers` carries the
/// metrics a pool supervisor received with its lease results; they are
/// absorbed into this process's own snapshot so the report covers the
/// whole run, not just the supervisor.
fn finish_observability(campaign: &CampaignArgs, workers: &musa_obs::MetricsSnapshot) {
    if campaign.metrics.is_some() || campaign.progress {
        let mut snap = musa_obs::snapshot();
        snap.absorb(workers);
        eprintln!("{}", musa_obs::phase_table(&snap));
        if let Some(path) = &campaign.metrics {
            match snap.write_json_file(path) {
                Ok(()) => eprintln!("[dse] wrote metrics snapshot to {}", path.display()),
                Err(e) => die(format!("metrics dump to {} failed: {e}", path.display())),
            }
        }
    }
    musa_obs::close_json();
}

/// `dse profile`: offline analysis of the profiling flight record.
/// Works from the store directory alone — profiles.jsonl is read
/// (read-only: a kill -9'd run's residue is tolerated without being
/// rewritten), aggregated into the top-k /
/// per-phase / cache-efficacy report, and optionally exported as a
/// Chrome Trace Event file with one track per worker process.
fn profile_main(args: ProfileArgs) -> ! {
    let store = store_dir_of(&args.store_dir, false);
    let (records, rep) = musa_prof::load_profiles(&store).unwrap_or_else(|e| {
        eprintln!(
            "dse profile: cannot read profiles in {}: {e}",
            store.display()
        );
        std::process::exit(1);
    });
    if rep.torn_tails > 0 || rep.corrupt > 0 {
        eprintln!(
            "[profile] dropped {} torn tail(s) and {} corrupt line(s) \
             (crash residue; campaign rows are unaffected)",
            rep.torn_tails, rep.corrupt
        );
    }
    if records.is_empty() {
        eprintln!(
            "dse profile: no profile records in {} — run a sweep with profiling \
             enabled (the default) first",
            store.display()
        );
        std::process::exit(1);
    }
    println!("{}", musa_prof::render_summary(&records, args.top));
    if let Some(path) = &args.trace_export {
        // Supervisor-track instants come from the lease journal, read
        // without opening a writer (profile must never create journal
        // files in a store it only inspects).
        let replay = musa_store::journal::replay(&store);
        let mut instants = Vec::new();
        for ev in &replay.events {
            match ev {
                LeaseEvent::Dead {
                    lease,
                    attempt,
                    blamed,
                    reason,
                    ..
                } => instants.push(musa_prof::TraceInstant {
                    name: "worker-death".into(),
                    cat: "fault".into(),
                    detail: format!(
                        "lease {lease} attempt {attempt}: {reason}{}",
                        blamed
                            .as_deref()
                            .map(|k| format!(" (blamed {k})"))
                            .unwrap_or_default()
                    ),
                }),
                LeaseEvent::Requeue {
                    lease,
                    attempt,
                    from,
                    backoff_ms,
                    points,
                } => instants.push(musa_prof::TraceInstant {
                    name: "requeue".into(),
                    cat: "requeue".into(),
                    detail: format!(
                        "lease {from} -> {lease} (attempt {attempt}, \
                         {points} point(s), backoff {backoff_ms} ms)"
                    ),
                }),
                LeaseEvent::Poison(p) => instants.push(musa_prof::TraceInstant {
                    name: "quarantine".into(),
                    cat: "poison".into(),
                    detail: format!(
                        "{}/{}: {} ({} strike(s))",
                        p.app, p.config, p.reason, p.strikes
                    ),
                }),
                _ => {}
            }
        }
        match std::fs::write(path, musa_prof::export_trace(&records, &instants)) {
            Ok(()) => println!(
                "wrote Chrome trace ({} point(s), {} instant(s)) to {} — \
                 load it in Perfetto or chrome://tracing",
                records.len(),
                instants.len(),
                path.display()
            ),
            Err(e) => {
                eprintln!("trace export to {} failed: {e}", path.display());
                std::process::exit(1);
            }
        }
    }
    std::process::exit(0);
}

/// A fresh (non-`--resume`) run discards previously stored rows and
/// the lease journal (with its poisoned set — a fresh sweep
/// re-attempts everything). The quarantine ledger and its rotations
/// are evidence, not results: `dse doctor --repair` promises they are
/// never destroyed, so they stay.
fn clear_store(dir: &std::path::Path) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return; // nothing to clear
    };
    let mut removed = 0usize;
    for path in entries.filter_map(|e| e.ok()).map(|e| e.path()) {
        let evidence = path
            .file_name()
            .and_then(|n| n.to_str())
            .is_some_and(musa_store::is_quarantine_file);
        if path.extension().is_some_and(|x| x == "jsonl")
            && !evidence
            && std::fs::remove_file(&path).is_ok()
        {
            removed += 1;
        }
    }
    if std::fs::remove_file(dir.join(musa_store::LEASE_JOURNAL_FILE)).is_ok() {
        removed += 1;
    }
    if removed > 0 {
        eprintln!(
            "[dse] cleared {removed} result file(s) from {} (use --resume to keep them)",
            dir.display()
        );
    }
}
