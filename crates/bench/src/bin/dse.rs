//! The full design-space-exploration campaign as a CLI tool, backed by
//! the persistent `musa-store` campaign store: runs the missing subset
//! of the 864 configurations × 5 applications, then exports and
//! summarises the result table.
//!
//! ```sh
//! cargo run --release -p musa-bench --bin dse                 # fresh sweep
//! cargo run --release -p musa-bench --bin dse -- --resume     # finish an interrupted sweep
//! cargo run --release -p musa-bench --bin dse -- --shard 0/4 --resume   # 1 of 4 workers
//! cargo run --release -p musa-bench --bin dse -- --csv out.csv --json out.json
//! cargo run --release -p musa-bench --bin dse -- --store-dir /tmp/campaign --resume
//! cargo run --release -p musa-bench --bin dse -- --full       # 256-rank paper scale
//! cargo run --release -p musa-bench --bin dse -- --progress --metrics m.json
//! cargo run --release -p musa-bench --bin dse -- serve --store-dir /tmp/campaign --port 8080
//! ```
//!
//! The store directory holds one JSON-lines file per (shard) writer;
//! disjoint `--shard i/n` runs (concurrent processes or machines
//! sharing the directory) merge into the identical campaign a single
//! run produces. All simulation, resume and export logic lives in
//! `musa-store` / `musa-core`; argument parsing is in
//! [`musa_bench::cli`] (strict: unknown flags exit 2 with usage).
//!
//! With `--progress` and/or `--metrics`, the run ends with the
//! "where did the time go" phase table on stderr; `--metrics PATH`
//! additionally dumps the full metrics snapshot (per-app × per-phase
//! wall time, cache-hit/resume-skip counts, batch-flush statistics) as
//! schema-versioned JSON.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use musa_apps::AppId;
use musa_arch::NodeConfig;
use musa_bench::cli::{
    parse_dse_args, CacheArgs, CacheCmd, DistWorkerArgs, DoctorArgs, DseArgs, Parsed, ProfileArgs,
    SearchArgs, ServeArgs, TortureArgs, USAGE,
};
use musa_bench::{configs, gen_params, store_dir};
use musa_cache::ArtifactCache;
use musa_core::report::table;
use musa_core::SweepOptions;
use musa_pool::{signals, PoolOptions, Supervisor};
use musa_search::{
    run_search, Evaluator, GenerationRecord, SearchConfig, SearchError, SearchJournal,
};
use musa_store::{
    export, CampaignStore, FillOptions, LeaseEvent, LeaseJournal, PointExecutor,
    DEFAULT_MAX_RETRIES,
};

/// Exit code for a sweep that completed but holds poisoned points:
/// partial success, distinguishable from both success (0) and fatal
/// errors (1) so supervising scripts can decide to retry.
const EXIT_PARTIAL: i32 = 3;

/// Exit code after a graceful SIGINT/SIGTERM drain (128 + SIGINT).
const EXIT_INTERRUPTED: i32 = 130;

fn main() {
    musa_obs::init_from_env();
    // MUSA_FAULTS / MUSA_FAULT_SEED: a set-but-invalid chaos spec must
    // refuse to start, exactly like a bad --faults flag.
    if let Err(e) = musa_fault::init_from_env() {
        eprintln!("dse: {e}\n{USAGE}");
        std::process::exit(2);
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_dse_args(&argv) {
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
        Ok(Parsed::Run(args)) => args,
        Err(e) => {
            eprintln!("dse: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };

    arm_observability(args.log, args.log_json.as_deref(), args.faults.as_ref());
    let want_report = args.metrics.is_some() || args.metrics_prom.is_some() || args.progress;
    if want_report {
        musa_obs::enable_metrics(true);
    }

    let dir: PathBuf = args.store_dir.clone().unwrap_or_else(store_dir);
    if !args.resume {
        clear_store(&dir);
    }

    let opts = SweepOptions {
        gen: gen_params(),
        full_replay: true,
    };
    let configs = configs();

    if let Some(workers) = args.workers {
        pool_main(&args, &dir, &configs, &opts, workers);
    }

    // Sequential fill. SIGINT/SIGTERM is latched, polled between
    // batches: the in-flight batch is flushed, the interruption is
    // journalled, and the exit code says "stopped early", so a pipeline
    // around `dse` can tell a clean Ctrl-C from a crash.
    signals::install_term_handlers();
    let mut store = match args.shard {
        Some(s) => CampaignStore::open_sharded(&dir, s),
        None => CampaignStore::open(&dir),
    }
    .unwrap_or_else(|e| {
        eprintln!("open campaign store {}: {e}", dir.display());
        std::process::exit(1);
    });
    let cache = open_cache(&dir, args.no_cache);
    if let Some(cache) = &cache {
        store.set_artifact_cache(Arc::clone(cache));
    }
    install_store_recorder(&dir, args.no_prof);

    let fill = FillOptions {
        shard: args.shard,
        progress: args.progress,
        max_retries: args.max_retries,
        fail_fast: args.fail_fast,
        cancel: Some(signals::termination_requested),
        ..FillOptions::new(opts)
    };
    let report = store
        .fill(&AppId::ALL, &configs, &fill)
        .unwrap_or_else(|e| {
            eprintln!("fill campaign store {}: {e}", dir.display());
            std::process::exit(1);
        });
    musa_prof::uninstall_recorder();
    eprintln!(
        "[dse] store {}: {} points in scope, {} cached, {} simulated",
        dir.display(),
        report.in_shard,
        report.cached,
        report.simulated
    );
    if !report.poisoned.is_empty() {
        eprintln!(
            "[dse] {} point(s) poisoned (simulation panicked); completed rows \
             are persisted — re-run with --resume to retry them:",
            report.poisoned.len()
        );
        for p in &report.poisoned {
            eprintln!("[dse]   {}/{}: {}", p.app, p.config, p.reason);
        }
    }
    if report.retries > 0 {
        eprintln!(
            "[dse] {} flush retr{} recovered transient I/O errors",
            report.retries,
            if report.retries == 1 { "y" } else { "ies" }
        );
    }
    if let Some(cache) = &cache {
        report_cache_session(cache, "sequential");
    }
    if report.interrupted {
        // Everything simulated so far is flushed; leave a durable
        // journal marker and report the interruption in the exit code.
        match LeaseJournal::open(&dir) {
            Ok((mut journal, _)) => {
                let _ = journal.append(&LeaseEvent::Interrupted {
                    reason: "SIGINT/SIGTERM during sequential fill".to_string(),
                });
            }
            Err(e) => eprintln!("[dse] cannot journal the interruption: {e}"),
        }
        eprintln!(
            "[dse] interrupted: {} point(s) flushed, the rest resume with --resume",
            report.cached + report.simulated
        );
        finish_observability(
            args.progress,
            args.metrics.as_deref(),
            args.metrics_prom.as_deref(),
            None,
        );
        std::process::exit(EXIT_INTERRUPTED);
    }

    let campaign = store.campaign_for(&AppId::ALL, &configs, &opts);
    export_campaign(&args, &campaign);
    summarise(&campaign, &configs, &dir);
    finish_observability(
        args.progress,
        args.metrics.as_deref(),
        args.metrics_prom.as_deref(),
        None,
    );
    if !report.poisoned.is_empty() {
        std::process::exit(EXIT_PARTIAL);
    }
}

/// CLI flags override the `MUSA_LOG` / `MUSA_LOG_JSON` / `MUSA_FAULTS`
/// environment read at startup.
fn arm_observability(
    log: Option<Option<musa_obs::Level>>,
    log_json: Option<&Path>,
    faults: Option<&musa_fault::FaultPlan>,
) {
    if let Some(level) = log {
        musa_obs::set_max_level(level);
    }
    if let Some(path) = log_json {
        if let Err(e) = musa_obs::set_json_path(path) {
            eprintln!("dse: cannot open --log-json {}: {e}", path.display());
            std::process::exit(2);
        }
    }
    if let Some(plan) = faults {
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

/// Persist this process's cache tallies under `label` and print its
/// reuse report.
fn report_cache_session(cache: &ArtifactCache, label: &str) {
    cache.persist_session(label);
    let stats = cache.stats();
    if stats.hits() + stats.misses() > 0 {
        eprintln!("[dse] cache: {}", stats.report());
    }
}

/// Everything a `--workers N` run (campaign or search) needs: the hub
/// bound on `--listen ADDR` (or a private loopback port), and the
/// supervisor that will keep N `dist-worker` children connected to it.
fn open_supervisor(
    dir: &Path,
    listen: Option<&str>,
    pool: PoolOptions,
    max_retries: u32,
) -> Supervisor {
    let exe = std::env::current_exe().unwrap_or_else(|e| {
        eprintln!("dse: cannot locate own binary for worker re-exec: {e}");
        std::process::exit(1);
    });
    let addr = listen.unwrap_or("127.0.0.1:0");
    let hub = musa_dist::DistHub::bind(
        addr,
        musa_dist::DistHubOptions {
            store_dir: dir.to_path_buf(),
            point_timeout: pool.point_timeout,
            max_retries,
        },
    )
    .unwrap_or_else(|e| {
        eprintln!("dse: cannot listen for dist-workers on {addr}: {e}");
        std::process::exit(1);
    });
    if listen.is_some() {
        eprintln!(
            "[dse] listening for dist-workers on {0} (connect with: dse dist-worker \
             --connect {0})",
            hub.local_addr()
        );
    }
    Supervisor::open(&exe, dir, pool, Box::new(hub)).unwrap_or_else(|e| {
        eprintln!(
            "dse: cannot open the lease journal in {}: {e}",
            dir.display()
        );
        std::process::exit(1);
    })
}

/// `dse --workers N`: supervised multi-process fill, then the same
/// exports and summary as the sequential path, computed from a final
/// repairing re-open of the store (the hub holds no writer by then, so
/// this open also truncates any torn tail a kill -9 left behind).
fn pool_main(
    args: &DseArgs,
    dir: &Path,
    configs: &[NodeConfig],
    opts: &SweepOptions,
    workers: usize,
) -> ! {
    let want_report = args.metrics.is_some() || args.metrics_prom.is_some() || args.progress;
    // Snapshot the sessions ledger so the end-of-run reuse report
    // covers only this run's workers, not earlier runs sharing the
    // directory.
    let cache_on = !args.no_cache && musa_cache::enabled_from_env();
    let artifact_dir = dir.join(musa_cache::ARTIFACT_DIR);
    let prior_sessions = if cache_on {
        musa_cache::load_sessions(&artifact_dir).len()
    } else {
        0
    };
    let mut sup = open_supervisor(
        dir,
        args.listen.as_deref(),
        PoolOptions {
            workers,
            point_timeout: args.point_timeout,
            poison_cap: args.poison_cap,
            lease_batch: args.lease_batch,
            progress: args.progress,
            env: musa_bench::pool_worker_env(
                args.faults_spec.as_deref(),
                !args.no_cache,
                want_report,
                !args.no_prof && musa_prof::enabled_from_env(),
            ),
        },
        args.max_retries,
    );
    let points: Vec<(AppId, NodeConfig)> = AppId::ALL
        .iter()
        .flat_map(|&app| configs.iter().map(move |&config| (app, config)))
        .collect();
    let report = sup.run(&points, opts);
    sup.close();
    let report = report.unwrap_or_else(|e| {
        eprintln!("dse: pool fill in {} failed: {e}", dir.display());
        std::process::exit(1);
    });
    eprintln!(
        "[dse] pool {}: {} requested, {} cached, {} completed by {} workers \
         ({} rows flushed, {} requeues, {} worker deaths, {} deadline kills)",
        dir.display(),
        report.requested,
        report.cached,
        report.completed,
        workers,
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
    if cache_on {
        // Workers persisted their tallies on exit; aggregate the lines
        // this run appended into one reuse report.
        let sessions = musa_cache::load_sessions(&artifact_dir);
        let mut total = musa_cache::SessionStats::default();
        let fresh = sessions.iter().skip(prior_sessions);
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

    let finish = || {
        finish_observability(
            args.progress,
            args.metrics.as_deref(),
            args.metrics_prom.as_deref(),
            Some(&report.worker_metrics),
        )
    };
    if report.interrupted {
        eprintln!("[dse] interrupted: workers drained, resume with --resume");
        finish();
        std::process::exit(EXIT_INTERRUPTED);
    }

    // Final repairing open: no other process holds a writer now.
    let store = CampaignStore::open(dir).unwrap_or_else(|e| {
        eprintln!("open campaign store {}: {e}", dir.display());
        std::process::exit(1);
    });
    let campaign = store.campaign_for(&AppId::ALL, configs, opts);
    // Completeness guard: a pool run that was not interrupted must
    // account for every requested point — a row in the store, or a
    // poison record with provenance. Anything else is a bug that must
    // not masquerade as a clean sweep.
    let unaccounted = report
        .requested
        .saturating_sub(campaign.results.len() + report.poisoned_total());
    if unaccounted > 0 {
        eprintln!(
            "dse: pool run left {unaccounted} of {} point(s) neither stored \
             nor poisoned in {}; not reporting success",
            report.requested,
            dir.display()
        );
        finish();
        std::process::exit(1);
    }
    export_campaign(args, &campaign);
    summarise(&campaign, configs, dir);
    finish();
    if report.poisoned_total() > 0 {
        std::process::exit(EXIT_PARTIAL);
    }
    std::process::exit(0);
}

/// `dse dist-worker --connect ADDR`: the one worker program. It
/// executes leases — each names its points and their scale — until
/// drained, rejected, interrupted, or the reconnect window closes with
/// the supervisor unreachable. `dse --workers N` spawns N of these on
/// loopback; any number more may join a `--listen` supervisor.
fn dist_worker_main(args: DistWorkerArgs) -> ! {
    arm_observability(args.log, args.log_json.as_deref(), args.faults.as_ref());

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
/// batch is an ordinary fill — in-process, or handed to the supervisor
/// whose workers stay up for the whole search — and results are read
/// back by point key. Store warmth affects only speed, never values:
/// that memoization is what makes `--resume` replay free.
struct StoreEvaluator {
    dir: PathBuf,
    opts: SweepOptions,
    progress: bool,
    /// The store results are read from: the writer of the in-process
    /// path, a fresh read-only load per generation under `--workers`
    /// (the hub's lease shards are then the only writers).
    store: CampaignStore,
    supervisor: Option<Supervisor>,
    hits: u64,
    worker_metrics: musa_obs::MetricsSnapshot,
}

impl StoreEvaluator {
    fn interrupted(&mut self) -> ! {
        if let Some(sup) = self.supervisor.take() {
            sup.close();
        }
        eprintln!("[search] interrupted: evaluated points are stored, continue with --resume");
        std::process::exit(EXIT_INTERRUPTED);
    }
}

impl Evaluator for StoreEvaluator {
    fn evaluate(&mut self, batch: &[(AppId, NodeConfig)]) -> Vec<(f64, f64)> {
        let fail = |e: std::io::Error| -> ! {
            eprintln!("dse search: evaluating a generation failed: {e}");
            std::process::exit(1);
        };
        if let Some(sup) = self.supervisor.as_mut() {
            let report = sup.run(batch, &self.opts).unwrap_or_else(|e| fail(e));
            self.hits += report.cached as u64;
            self.worker_metrics.absorb(&report.worker_metrics);
            if report.interrupted {
                self.interrupted();
            }
            self.store = CampaignStore::open_read_only(&self.dir).unwrap_or_else(|e| fail(e));
        } else {
            let fill = FillOptions {
                progress: self.progress,
                cancel: Some(signals::termination_requested),
                ..FillOptions::new(self.opts)
            };
            // `fill` takes a cross product: one call per application,
            // batch order kept within it.
            for &app in &AppId::ALL {
                let cfgs: Vec<NodeConfig> = batch
                    .iter()
                    .filter(|(a, _)| *a == app)
                    .map(|(_, c)| *c)
                    .collect();
                let report = self
                    .store
                    .fill(&[app], &cfgs, &fill)
                    .unwrap_or_else(|e| fail(e));
                self.hits += report.cached as u64;
                if report.interrupted {
                    self.interrupted();
                }
            }
        }
        // A missing row after a fill means the point was poisoned (its
        // simulation panicked) — fatal for a search, because the
        // trajectory cannot continue without the objective value; the
        // row-less point is retried by a later `--resume`.
        batch
            .iter()
            .map(|(app, cfg)| match self.store.get(*app, cfg, &self.opts) {
                Some(r) => (r.time_ns, r.energy_j),
                None => {
                    eprintln!(
                        "dse search: {}/{} has no stored row after evaluation \
                         (poisoned simulation?) — re-run with --resume to retry it",
                        app.label(),
                        cfg.label()
                    );
                    std::process::exit(1);
                }
            })
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
    arm_observability(args.log, args.log_json.as_deref(), None);
    let want_report = args.metrics.is_some() || args.metrics_prom.is_some() || args.progress;
    if want_report {
        musa_obs::enable_metrics(true);
    }

    let dir: PathBuf = args.store_dir.clone().unwrap_or_else(store_dir);
    let opts = SweepOptions {
        gen: gen_params(),
        full_replay: true,
    };
    let config = SearchConfig {
        strategy: args.strategy.clone(),
        seed: args.seed,
        budget: args.budget,
        batch: args.batch,
        space: args.space,
        apps: args.apps.clone().unwrap_or_else(|| AppId::ALL.to_vec()),
        hv_ref: args.hv_ref,
        scale: musa_bench::scale_label().to_string(),
    };

    // A fresh (non --resume) search discards only the search scratch:
    // campaign rows are memoization, not search state, and survive so
    // a re-run (or a different strategy) evaluates for free.
    let search_dir = dir.join(musa_search::SEARCH_DIR);
    if !args.resume {
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
    if args.resume && !journal.existing().is_empty() {
        eprintln!(
            "[search] resuming: replaying {} journaled line(s) from {}",
            journal.existing().len(),
            search_dir.display()
        );
    }

    let progress = args.progress;
    let mut on_gen = |g: &GenerationRecord| {
        if progress {
            eprintln!(
                "[search] gen {:>3}: {:>5} evaluated, front {:>3}, hv {:.4}, T={:.3}",
                g.generation, g.evaluated, g.front, g.hypervolume, g.temperature
            );
        }
    };

    signals::install_term_handlers();
    let mut ev = StoreEvaluator {
        dir: dir.clone(),
        opts,
        progress: args.progress,
        store: CampaignStore::open(&dir).unwrap_or_else(|e| {
            eprintln!("open campaign store {}: {e}", dir.display());
            std::process::exit(1);
        }),
        supervisor: None,
        hits: 0,
        worker_metrics: musa_obs::MetricsSnapshot::default(),
    };
    let mut cache = None;
    if let Some(workers) = args.workers {
        ev.supervisor = Some(open_supervisor(
            &dir,
            args.listen.as_deref(),
            PoolOptions {
                workers,
                progress: args.progress,
                env: musa_bench::pool_worker_env(
                    None,
                    !args.no_cache,
                    want_report,
                    !args.no_prof && musa_prof::enabled_from_env(),
                ),
                ..PoolOptions::default()
            },
            DEFAULT_MAX_RETRIES,
        ));
    } else {
        cache = open_cache(&dir, args.no_cache);
        if let Some(cache) = &cache {
            ev.store.set_artifact_cache(Arc::clone(cache));
        }
        install_store_recorder(&dir, args.no_prof);
    }
    let outcome = run_search(&config, &mut ev, Some(&mut journal), Some(&mut on_gen));
    musa_prof::uninstall_recorder();
    if let Some(sup) = ev.supervisor.take() {
        sup.close();
    }
    if let Some(cache) = &cache {
        report_cache_session(cache, "search");
    }

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
    finish_observability(
        args.progress,
        args.metrics.as_deref(),
        args.metrics_prom.as_deref(),
        Some(&ev.worker_metrics),
    );
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
    let store: PathBuf = args.store_dir.clone().unwrap_or_else(store_dir);
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
    let store: PathBuf = args.store_dir.clone().unwrap_or_else(store_dir);
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

    arm_observability(args.log, args.log_json.as_deref(), None);
    // The /metrics endpoint is only useful with the registry on.
    musa_obs::enable_metrics(true);

    let engine = if args.synthetic {
        musa_serve::QueryEngine::new(musa_serve::synth::synthetic_results(864))
    } else {
        let dir: PathBuf = args.store_dir.clone().unwrap_or_else(store_dir);
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
            "partial campaign: {}/{} rows in {} — run the remaining shards \
             (or re-run with --resume) to complete it",
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
/// snapshot (and `--metrics-prom` exposition) on disk, and a flushed
/// JSONL sink. `extra` carries the worker-side metrics a pool
/// supervisor received with its lease results; they are absorbed into
/// this process's own snapshot so the report covers the whole run, not
/// just the supervisor.
fn finish_observability(
    progress: bool,
    metrics: Option<&Path>,
    metrics_prom: Option<&Path>,
    extra: Option<&musa_obs::MetricsSnapshot>,
) {
    if metrics.is_some() || metrics_prom.is_some() || progress {
        let mut snap = musa_obs::snapshot();
        if let Some(extra) = extra {
            snap.absorb(extra);
        }
        eprintln!("{}", musa_obs::phase_table(&snap));
        if let Some(path) = metrics {
            match snap.write_json_file(path) {
                Ok(()) => eprintln!("[dse] wrote metrics snapshot to {}", path.display()),
                Err(e) => {
                    eprintln!("metrics dump to {} failed: {e}", path.display());
                    std::process::exit(1);
                }
            }
        }
        if let Some(path) = metrics_prom {
            match std::fs::write(path, musa_obs::prometheus_text(&snap)) {
                Ok(()) => eprintln!("[dse] wrote Prometheus exposition to {}", path.display()),
                Err(e) => {
                    eprintln!("Prometheus dump to {} failed: {e}", path.display());
                    std::process::exit(1);
                }
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
    let store: PathBuf = args.store_dir.clone().unwrap_or_else(store_dir);
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
/// re-attempts everything).
fn clear_store(dir: &std::path::Path) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return; // nothing to clear
    };
    let mut removed = 0usize;
    for path in entries.filter_map(|e| e.ok()).map(|e| e.path()) {
        if path.extension().is_some_and(|x| x == "jsonl") && std::fs::remove_file(&path).is_ok() {
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
