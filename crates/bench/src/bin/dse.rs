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

use musa_apps::AppId;
use musa_bench::cli::{
    parse_dse_args, CacheArgs, CacheCmd, DistWorkerArgs, DoctorArgs, DseArgs, Parsed, ProfileArgs,
    SearchArgs, ServeArgs, TortureArgs, CACHE_USAGE, DIST_WORKER_USAGE, DOCTOR_USAGE,
    PROFILE_USAGE, SEARCH_USAGE, SERVE_USAGE, TORTURE_USAGE, USAGE,
};
use musa_bench::{configs, gen_params, paper_scale, store_dir};
use musa_cache::ArtifactCache;
use musa_core::report::table;
use musa_core::SweepOptions;
use musa_pool::{signals, WorkerStatus};
use musa_search::{
    run_search, Evaluator, GenerationRecord, SearchConfig, SearchError, SearchJournal,
};
use musa_store::{export, CampaignStore, FillOptions, LeaseEvent, LeaseJournal};

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
        Ok(Parsed::Help) => {
            // Tolerate a closed pipe (`dse --help | head`): help must
            // exit 0 even when the reader stops early.
            use std::io::Write;
            let _ = writeln!(std::io::stdout(), "{USAGE}");
            std::process::exit(0);
        }
        Ok(Parsed::ServeHelp) => {
            use std::io::Write;
            let _ = writeln!(std::io::stdout(), "{SERVE_USAGE}");
            std::process::exit(0);
        }
        Ok(Parsed::CacheHelp) => {
            use std::io::Write;
            let _ = writeln!(std::io::stdout(), "{CACHE_USAGE}");
            std::process::exit(0);
        }
        Ok(Parsed::ProfileHelp) => {
            use std::io::Write;
            let _ = writeln!(std::io::stdout(), "{PROFILE_USAGE}");
            std::process::exit(0);
        }
        Ok(Parsed::SearchHelp) => {
            use std::io::Write;
            let _ = writeln!(std::io::stdout(), "{SEARCH_USAGE}");
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
        Ok(Parsed::Search(args)) => {
            search_main(args);
        }
        Ok(Parsed::Profile(args)) => {
            profile_main(args);
        }
        Ok(Parsed::Cache(args)) => {
            cache_main(args);
        }
        Ok(Parsed::Serve(args)) => {
            serve_main(args);
        }
        Ok(Parsed::PoolWorker(cfg)) => {
            worker_main(cfg);
        }
        Ok(Parsed::DistWorker(args)) => {
            dist_worker_main(args);
        }
        Ok(Parsed::DistWorkerHelp) => {
            use std::io::Write;
            let _ = writeln!(std::io::stdout(), "{DIST_WORKER_USAGE}");
            std::process::exit(0);
        }
        Ok(Parsed::Doctor(args)) => {
            doctor_main(args);
        }
        Ok(Parsed::DoctorHelp) => {
            use std::io::Write;
            let _ = writeln!(std::io::stdout(), "{DOCTOR_USAGE}");
            std::process::exit(0);
        }
        Ok(Parsed::Torture(args)) => {
            torture_main(args);
        }
        Ok(Parsed::TortureHelp) => {
            use std::io::Write;
            let _ = writeln!(std::io::stdout(), "{TORTURE_USAGE}");
            std::process::exit(0);
        }
        Ok(Parsed::Run(args)) => args,
        Err(e) => {
            eprintln!("dse: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };

    // Observability: CLI flags override the MUSA_LOG / MUSA_LOG_JSON /
    // MUSA_METRICS environment read above.
    if let Some(level) = args.log {
        musa_obs::set_max_level(level);
    }
    if let Some(path) = &args.log_json {
        if let Err(e) = musa_obs::set_json_path(path) {
            eprintln!("dse: cannot open --log-json {}: {e}", path.display());
            std::process::exit(2);
        }
    }
    let want_report = args.metrics.is_some() || args.metrics_prom.is_some() || args.progress;
    if want_report {
        musa_obs::enable_metrics(true);
    }
    if let Some(plan) = &args.faults {
        if !musa_fault::COMPILED {
            eprintln!(
                "dse: note: --faults given but fault injection is compiled out \
                 (build with the 'fault' feature); nothing will fire"
            );
        }
        musa_fault::set_plan(Some(plan.clone()));
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

    // The artifact cache is on unless --no-cache (or MUSA_CACHE=0)
    // says otherwise. Failure to open it is a warning: the sweep
    // proceeds uncached rather than not at all.
    let cache = if args.no_cache || !musa_cache::enabled_from_env() {
        None
    } else {
        match ArtifactCache::open(&dir) {
            Ok(cache) => {
                store.set_artifact_cache(std::sync::Arc::clone(&cache));
                Some(cache)
            }
            Err(e) => {
                eprintln!("[dse] artifact cache unavailable ({e}), computing uncached");
                None
            }
        }
    };

    // Flight recorder: one sealed record per simulated point lands in
    // profiles.jsonl. Installation first harvests staged worker files a
    // crashed pool run may have left, so a sequential --resume repairs
    // them exactly like a supervisor restart would. Failure to install
    // degrades to an unprofiled sweep, never a dead one.
    if !args.no_prof && musa_prof::enabled_from_env() {
        match musa_prof::install_store_recorder(&dir) {
            Ok(rep) if rep.repaired_anything() => eprintln!(
                "[dse] profile harvest: merged {} staged file(s) ({} record(s), \
                 {} duplicate(s), {} torn tail(s))",
                rep.staged_files, rep.records, rep.duplicates, rep.torn_tails
            ),
            Ok(_) => {}
            Err(e) => eprintln!("[dse] profiling unavailable ({e}), sweep runs unprofiled"),
        }
    }

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
        cache.persist_session("sequential");
        let stats = cache.stats();
        if stats.hits() + stats.misses() > 0 {
            eprintln!("[dse] cache: {}", stats.report());
        }
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

/// `dse --workers N`: supervised multi-process fill, then the same
/// exports and summary as the sequential path, computed from a final
/// repairing re-open of the store (the supervisor holds no writer by
/// then, so this open also truncates any torn tail a kill -9'd worker
/// left behind).
fn pool_main(
    args: &DseArgs,
    dir: &Path,
    configs: &[musa_arch::NodeConfig],
    opts: &SweepOptions,
    workers: usize,
) -> ! {
    let exe = std::env::current_exe().unwrap_or_else(|e| {
        eprintln!("dse: cannot locate own binary for worker re-exec: {e}");
        std::process::exit(1);
    });
    // Workers re-derive the sweep from the environment they inherit:
    // `--full` must be converted to MUSA_FULL=1 (the worker argv does
    // not repeat it) and the fault spec (seed included) rides along
    // verbatim, re-parsed by each worker's own init.
    let want_report = args.metrics.is_some() || args.metrics_prom.is_some() || args.progress;
    let env = musa_bench::pool_worker_env(
        args.faults_spec.as_deref(),
        paper_scale(),
        !args.no_cache,
        want_report,
        !args.no_prof && musa_prof::enabled_from_env(),
    );
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
    let pool_opts = musa_pool::PoolOptions {
        workers,
        point_timeout: args.point_timeout,
        poison_cap: args.poison_cap,
        lease_batch: args.lease_batch,
        max_retries: args.max_retries,
        progress: args.progress,
        env,
    };
    // `--listen ADDR`: open the distributed endpoint before the pool
    // starts, so remote workers can join (and draw leases) from the
    // first poll. Zero remotes is not an error — the local pool makes
    // the same progress it would without the flag.
    let mut hub = args.listen.as_deref().map(|addr| {
        let sig = musa_bench::campaign_sweep_sig(&AppId::ALL, configs, opts);
        let hub = musa_dist::DistHub::bind(
            addr,
            musa_dist::DistHubOptions {
                sig,
                store_dir: dir.to_path_buf(),
                point_timeout: args.point_timeout,
            },
        )
        .unwrap_or_else(|e| {
            eprintln!("dse: cannot listen for dist-workers on {addr}: {e}");
            std::process::exit(1);
        });
        eprintln!(
            "[dse] listening for dist-workers on {} (connect with: dse dist-worker \
             --connect {})",
            hub.local_addr(),
            hub.local_addr()
        );
        hub
    });
    let remote = hub.as_mut().map(|h| h as &mut dyn musa_pool::RemoteHub);
    let report =
        musa_pool::run_pool_with_remote(&exe, dir, &AppId::ALL, configs, opts, &pool_opts, remote)
            .unwrap_or_else(|e| {
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
    if report.worker_metrics_sources > 0 {
        eprintln!(
            "[dse] absorbed {} worker metrics manifest(s) into the end-of-run report",
            report.worker_metrics_sources
        );
    }
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

    if report.interrupted {
        eprintln!("[dse] interrupted: workers drained, resume with --resume");
        finish_observability(
            args.progress,
            args.metrics.as_deref(),
            args.metrics_prom.as_deref(),
            Some(&report.worker_metrics),
        );
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
    // poison record with provenance. Anything else (e.g. workers that
    // simulated under different keys than the supervisor enumerated)
    // is a bug that must not masquerade as a clean sweep.
    let unaccounted = report
        .requested
        .saturating_sub(campaign.results.len() + report.poisoned_total());
    if unaccounted > 0 {
        eprintln!(
            "dse: pool run left {unaccounted} of {} point(s) neither stored \
             nor poisoned in {} — the supervisor and its workers disagreed \
             on what to simulate; not reporting success",
            report.requested,
            dir.display()
        );
        finish_observability(
            args.progress,
            args.metrics.as_deref(),
            args.metrics_prom.as_deref(),
            Some(&report.worker_metrics),
        );
        std::process::exit(1);
    }
    export_campaign(args, &campaign);
    summarise(&campaign, configs, dir);
    finish_observability(
        args.progress,
        args.metrics.as_deref(),
        args.metrics_prom.as_deref(),
        Some(&report.worker_metrics),
    );
    if report.poisoned_total() > 0 {
        std::process::exit(EXIT_PARTIAL);
    }
    std::process::exit(0);
}

/// Hidden `pool-worker` mode: execute one lease and exit with the
/// status the supervisor expects (0 complete, 130 interrupted by a
/// drain, anything else a death). The sweep geometry (scale, config
/// slice, fault plan) comes from the environment inherited from the
/// supervisor, so both processes enumerate identical point keys.
fn worker_main(cfg: musa_pool::WorkerConfig) -> ! {
    let opts = SweepOptions {
        gen: gen_params(),
        full_replay: true,
    };
    // A search supervisor hands workers their geometry explicitly (a
    // search batch is an arbitrary subset of an arbitrary space, not
    // the fixed campaign this binary derives by default); the campaign
    // path leaves the variable unset.
    let (apps, configs) = match std::env::var(musa_bench::SEARCH_GEOM_ENV) {
        Ok(spec) => match musa_bench::parse_search_geometry(&spec) {
            Ok(geom) => geom,
            Err(e) => {
                eprintln!(
                    "dse pool-worker (lease {}): bad {}: {e}",
                    cfg.lease,
                    musa_bench::SEARCH_GEOM_ENV
                );
                std::process::exit(musa_pool::EXIT_GEOMETRY_MISMATCH);
            }
        },
        Err(_) => (AppId::ALL.to_vec(), configs()),
    };
    // Refuse to simulate anything if this process derives a different
    // sweep than the supervisor that spawned it (scale or config
    // environment lost in the re-exec): every row would land under the
    // wrong key. The distinct exit code makes the supervisor abort
    // instead of retrying.
    if let Err(e) = musa_pool::verify_sweep_key(&cfg, &apps, &configs, &opts) {
        eprintln!("dse pool-worker (lease {}): {e}", cfg.lease);
        std::process::exit(musa_pool::EXIT_GEOMETRY_MISMATCH);
    }
    match musa_pool::run_worker(&cfg, &apps, &configs, &opts) {
        Ok(WorkerStatus::Complete) => std::process::exit(0),
        Ok(WorkerStatus::Interrupted) => std::process::exit(EXIT_INTERRUPTED),
        Err(e) => {
            eprintln!("dse pool-worker (lease {}): {e}", cfg.lease);
            std::process::exit(1);
        }
    }
}

/// The campaign-specific [`musa_dist::PointRunner`]: simulates each
/// leased point into a fresh per-lease staging store under the
/// worker's own scratch directory, then ships the exact bytes that
/// flush appended — which is what makes a distributed run's store
/// byte-identical to a sequential one (the hub appends them verbatim).
///
/// The staging directory is wiped on every `begin_lease`: a requeued
/// point (e.g. its first Point frame was garbled on the wire) must be
/// re-simulated and re-shipped, never silently skipped as "already
/// stored locally". Simulation is deterministic, so the re-shipped
/// bytes are identical. The artifact cache lives *beside* the staging
/// store and persists across leases, so reconnects and requeues reload
/// traces instead of regenerating them.
struct DistPointRunner {
    scratch: PathBuf,
    apps: Vec<AppId>,
    configs: Vec<musa_arch::NodeConfig>,
    sweep: SweepOptions,
    max_retries: u32,
    cache: Option<std::sync::Arc<ArtifactCache>>,
    store: Option<CampaignStore>,
    rows_path: PathBuf,
    shipped: u64,
    attempt: u32,
    trace_memo: Option<(
        AppId,
        std::sync::Arc<musa_trace::AppTrace>,
        Option<musa_cache::ArtifactKey>,
    )>,
}

impl DistPointRunner {
    fn trace_for(
        &mut self,
        app: AppId,
    ) -> (
        std::sync::Arc<musa_trace::AppTrace>,
        Option<musa_cache::ArtifactKey>,
    ) {
        if let Some((memo_app, trace, key)) = &self.trace_memo {
            if *memo_app == app {
                return (std::sync::Arc::clone(trace), *key);
            }
        }
        let (trace, key) = match &self.cache {
            Some(cache) => {
                let (trace, key) = cache.trace(app, &self.sweep.gen);
                (trace, Some(key))
            }
            None => (
                std::sync::Arc::new(musa_apps::generate(app, &self.sweep.gen)),
                None,
            ),
        };
        self.trace_memo = Some((app, std::sync::Arc::clone(&trace), key));
        (trace, key)
    }
}

fn panic_reason(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

impl musa_dist::PointRunner for DistPointRunner {
    fn begin_lease(&mut self, _lease: u64, attempt: u32) -> std::io::Result<()> {
        let staging = self.scratch.join("staging");
        let _ = std::fs::remove_dir_all(&staging);
        std::fs::create_dir_all(&staging)?;
        self.rows_path = staging.join("rows.jsonl");
        self.store = Some(CampaignStore::open_worker(&staging, "rows.jsonl")?);
        self.shipped = 0;
        self.attempt = attempt;
        Ok(())
    }

    fn run_point(&mut self, idx: u64) -> std::io::Result<musa_dist::PointOutcome> {
        let Some((app, config)) = musa_pool::point_at(idx, &self.apps, &self.configs) else {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("point index {idx} out of range"),
            ));
        };
        let (trace, trace_key) = self.trace_for(app);
        let mut sim = musa_core::MultiscaleSim::new(&trace);
        if let (Some(cache), Some(key)) = (&self.cache, trace_key) {
            sim = sim.with_cache(std::sync::Arc::clone(cache), key);
        }
        let key_hex = musa_store::PointKey::for_point(app, &config, &self.sweep).to_hex();
        let sweep = self.sweep;
        musa_prof::point_begin();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let r = sim.simulate(config, sweep.full_replay);
            musa_store::StoreRow::new(sweep.gen, sweep.full_replay, r)
        }));
        match outcome {
            Ok(row) => {
                let store = self
                    .store
                    .as_mut()
                    .expect("begin_lease opened the staging store");
                // One point per flush, exactly like a local pool
                // worker: the durability (and shipping) unit is the
                // point.
                store.append_batch_retrying([row], self.max_retries)?;
                musa_prof::point_finish(
                    &key_hex,
                    app.label(),
                    &config.label(),
                    false,
                    self.attempt,
                );
                let bytes = std::fs::read(&self.rows_path)?;
                let row_bytes = bytes[self.shipped as usize..].to_vec();
                self.shipped = bytes.len() as u64;
                Ok(musa_dist::PointOutcome {
                    row_bytes,
                    rows: 1,
                    poisoned: None,
                })
            }
            Err(payload) => {
                musa_prof::point_finish(&key_hex, app.label(), &config.label(), true, self.attempt);
                // Contained exactly like an in-worker panic in the
                // local pool: the poison record rides the Point frame,
                // no strike is charged, the lease keeps going.
                Ok(musa_dist::PointOutcome {
                    row_bytes: Vec::new(),
                    rows: 0,
                    poisoned: Some(musa_store::PoisonedPoint {
                        app: app.label().to_string(),
                        config: config.label(),
                        key: key_hex,
                        reason: panic_reason(payload),
                    }),
                })
            }
        }
    }
}

/// `dse dist-worker --connect ADDR`: the remote side of a distributed
/// campaign. Derives the sweep geometry from its own flags and
/// environment (`--full`, `MUSA_TINY`, `MUSA_CONFIG_SLICE`), offers
/// the resulting signature in the hello, and executes leases until
/// drained, rejected, interrupted, or the reconnect window closes with
/// the supervisor unreachable.
fn dist_worker_main(args: DistWorkerArgs) -> ! {
    if let Some(level) = args.log {
        musa_obs::set_max_level(level);
    }
    if let Some(path) = &args.log_json {
        if let Err(e) = musa_obs::set_json_path(path) {
            eprintln!("dse: cannot open --log-json {}: {e}", path.display());
            std::process::exit(2);
        }
    }
    if let Some(plan) = &args.faults {
        if !musa_fault::COMPILED {
            eprintln!(
                "dse: note: --faults given but fault injection is compiled out \
                 (build with the 'fault' feature); nothing will fire"
            );
        }
        musa_fault::set_plan(Some(plan.clone()));
    }

    let sweep = SweepOptions {
        gen: gen_params(),
        full_replay: true,
    };
    let apps = AppId::ALL.to_vec();
    let configs = configs();
    let sig = musa_bench::campaign_sweep_sig(&apps, &configs, &sweep);

    // Scratch root: per-lease staging stores plus a persistent local
    // artifact cache. Per-process so concurrent workers on one host
    // never share an append target.
    let scratch = std::env::temp_dir().join(format!("musa-dist-worker-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!(
            "dse dist-worker: cannot create scratch {}: {e}",
            scratch.display()
        );
        std::process::exit(1);
    }
    let cache = if args.no_cache || !musa_cache::enabled_from_env() {
        None
    } else {
        match ArtifactCache::open(&scratch) {
            Ok(cache) => Some(cache),
            Err(e) => {
                eprintln!("[dse] artifact cache unavailable ({e}), computing uncached");
                None
            }
        }
    };
    // Profiles stay local to the worker's scratch (they are diagnosis
    // for *this* process; rows are what ship).
    if !args.no_prof && musa_prof::enabled_from_env() {
        if let Err(e) = musa_prof::install_store_recorder(&scratch) {
            eprintln!("[dse] profiling unavailable ({e}), worker runs unprofiled");
        }
    }

    let mut runner = DistPointRunner {
        scratch: scratch.clone(),
        apps,
        configs,
        sweep,
        max_retries: args.max_retries,
        cache,
        store: None,
        rows_path: scratch.join("staging/rows.jsonl"),
        shipped: 0,
        attempt: 0,
        trace_memo: None,
    };
    let opts = musa_dist::DistWorkerOptions {
        connect: args.connect.clone(),
        sig,
        tag: format!("w{}", std::process::id()),
        reconnect_for: args
            .reconnect_for
            .unwrap_or(musa_dist::DEFAULT_RECONNECT_FOR),
        max_reconnects: args.max_reconnects,
    };
    let result = musa_dist::run_dist_worker(&opts, &mut runner);
    if let Some(cache) = &runner.cache {
        cache.persist_session("dist-worker");
    }
    musa_prof::uninstall_recorder();
    match result {
        Ok(exit) => {
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
        Err(e) => {
            eprintln!("dse dist-worker: {e}");
            std::process::exit(1);
        }
    }
}

/// Order-preserving per-app grouping of an evaluation batch. The
/// within-group config order is load-bearing: it defines the point
/// enumeration a pool supervisor and its workers must share.
fn group_by_app(
    batch: &[(AppId, musa_arch::NodeConfig)],
) -> Vec<(AppId, Vec<musa_arch::NodeConfig>)> {
    let mut out: Vec<(AppId, Vec<musa_arch::NodeConfig>)> = Vec::new();
    for &(app, cfg) in batch {
        match out.iter_mut().find(|(a, _)| *a == app) {
            Some((_, v)) => v.push(cfg),
            None => out.push((app, vec![cfg])),
        }
    }
    out
}

/// Read one batch's results back out of the store, in batch order. A
/// missing row after a fill means the point was poisoned (its
/// simulation panicked) — fatal for a search, because the trajectory
/// cannot continue without the objective value; the row-less point is
/// retried by a later `--resume`.
fn batch_results(
    store: &CampaignStore,
    opts: &SweepOptions,
    batch: &[(AppId, musa_arch::NodeConfig)],
) -> Vec<(f64, f64)> {
    batch
        .iter()
        .map(|(app, cfg)| match store.get(*app, cfg, opts) {
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

/// Sequential search evaluation through the campaign store: every
/// batch is a normal `fill` (rows persist, the artifact cache and the
/// flight recorder apply), results are read back by point key. Store
/// warmth affects only speed, never values — that memoization is what
/// makes `--resume` replay free.
struct StoreEvaluator {
    store: CampaignStore,
    opts: SweepOptions,
    hits: u64,
}

impl Evaluator for StoreEvaluator {
    fn evaluate(&mut self, batch: &[(AppId, musa_arch::NodeConfig)]) -> Vec<(f64, f64)> {
        for (app, cfgs) in group_by_app(batch) {
            let report = self
                .store
                .fill(&[app], &cfgs, &FillOptions::new(self.opts))
                .unwrap_or_else(|e| {
                    eprintln!("dse search: fill failed: {e}");
                    std::process::exit(1);
                });
            self.hits += report.cached as u64;
        }
        batch_results(&self.store, &self.opts, batch)
    }

    fn memo_hits(&self) -> u64 {
        self.hits
    }
}

/// `--workers N` search evaluation: each generation's per-app batch
/// runs under a supervised worker pool (`musa_pool::run_pool`), with
/// the searched geometry handed to the re-exec'd workers through
/// [`musa_bench::SEARCH_GEOM_ENV`] so both sides enumerate identical
/// point keys (`verify_sweep_key` aborts the run otherwise). Results
/// are read back through a read-only store open per generation — the
/// supervisor never holds a writer while workers do.
struct PoolEvaluator {
    exe: PathBuf,
    dir: PathBuf,
    opts: SweepOptions,
    space: musa_search::SearchSpace,
    space_id: musa_search::SpaceId,
    pool_opts: musa_pool::PoolOptions,
    hits: u64,
}

impl Evaluator for PoolEvaluator {
    fn evaluate(&mut self, batch: &[(AppId, musa_arch::NodeConfig)]) -> Vec<(f64, f64)> {
        for (app, cfgs) in group_by_app(batch) {
            let idxs: Vec<u64> = cfgs
                .iter()
                .map(|c| {
                    self.space
                        .index_of(c)
                        .expect("searched config is in the space")
                })
                .collect();
            let mut pool_opts = self.pool_opts.clone();
            pool_opts.env.push((
                musa_bench::SEARCH_GEOM_ENV.to_string(),
                musa_bench::search_geometry_spec(self.space_id, app, &idxs),
            ));
            let report =
                musa_pool::run_pool(&self.exe, &self.dir, &[app], &cfgs, &self.opts, &pool_opts)
                    .unwrap_or_else(|e| {
                        eprintln!(
                            "dse search: pool fill in {} failed: {e}",
                            self.dir.display()
                        );
                        std::process::exit(1);
                    });
            self.hits += report.cached as u64;
            if report.interrupted {
                eprintln!(
                    "[search] interrupted: evaluated points are stored, \
                     continue with --resume"
                );
                std::process::exit(EXIT_INTERRUPTED);
            }
        }
        let store = CampaignStore::open_read_only(&self.dir).unwrap_or_else(|e| {
            eprintln!("open campaign store {}: {e}", self.dir.display());
            std::process::exit(1);
        });
        batch_results(&store, &self.opts, batch)
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
    if let Some(level) = args.log {
        musa_obs::set_max_level(level);
    }
    if let Some(path) = &args.log_json {
        if let Err(e) = musa_obs::set_json_path(path) {
            eprintln!("dse search: cannot open --log-json {}: {e}", path.display());
            std::process::exit(2);
        }
    }
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

    let outcome = if let Some(workers) = args.workers {
        let exe = std::env::current_exe().unwrap_or_else(|e| {
            eprintln!("dse search: cannot locate own binary for worker re-exec: {e}");
            std::process::exit(1);
        });
        let env = musa_bench::pool_worker_env(
            None,
            paper_scale(),
            !args.no_cache,
            want_report,
            !args.no_prof && musa_prof::enabled_from_env(),
        );
        let mut ev = PoolEvaluator {
            exe,
            dir: dir.clone(),
            opts,
            space: musa_search::SearchSpace::new(args.space),
            space_id: args.space,
            pool_opts: musa_pool::PoolOptions {
                workers,
                progress: args.progress,
                env,
                ..musa_pool::PoolOptions::default()
            },
            hits: 0,
        };
        run_search(&config, &mut ev, Some(&mut journal), Some(&mut on_gen))
    } else {
        let mut store = CampaignStore::open(&dir).unwrap_or_else(|e| {
            eprintln!("open campaign store {}: {e}", dir.display());
            std::process::exit(1);
        });
        let cache = if args.no_cache || !musa_cache::enabled_from_env() {
            None
        } else {
            match ArtifactCache::open(&dir) {
                Ok(cache) => {
                    store.set_artifact_cache(std::sync::Arc::clone(&cache));
                    Some(cache)
                }
                Err(e) => {
                    eprintln!("[dse] artifact cache unavailable ({e}), computing uncached");
                    None
                }
            }
        };
        if !args.no_prof && musa_prof::enabled_from_env() {
            if let Err(e) = musa_prof::install_store_recorder(&dir) {
                eprintln!("[dse] profiling unavailable ({e}), search runs unprofiled");
            }
        }
        let mut ev = StoreEvaluator {
            store,
            opts,
            hits: 0,
        };
        let r = run_search(&config, &mut ev, Some(&mut journal), Some(&mut on_gen));
        musa_prof::uninstall_recorder();
        if let Some(cache) = &cache {
            cache.persist_session("search");
            let stats = cache.stats();
            if stats.hits() + stats.misses() > 0 {
                eprintln!("[dse] cache: {}", stats.report());
            }
        }
        r
    };

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
        None,
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

    if let Some(level) = args.log {
        musa_obs::set_max_level(level);
    }
    if let Some(path) = &args.log_json {
        if let Err(e) = musa_obs::set_json_path(path) {
            eprintln!("dse serve: cannot open --log-json {}: {e}", path.display());
            std::process::exit(2);
        }
    }
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
/// JSONL sink. `extra` carries worker-side metrics a pool supervisor
/// harvested from per-lease manifests; they are absorbed into this
/// process's own snapshot so the report covers the whole run, not just
/// the supervisor.
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
/// Works from the store directory alone — profiles.jsonl plus any
/// staged worker files are read (read-only: a kill -9'd run's residue
/// is included without being rewritten), aggregated into the top-k /
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

/// A fresh (non-`--resume`) run discards previously stored rows, the
/// lease journal (with its poisoned set — a fresh sweep re-attempts
/// everything) and the pool scratch directory.
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
    let _ = std::fs::remove_dir_all(dir.join(musa_pool::lease::SCRATCH_DIR));
    if removed > 0 {
        eprintln!(
            "[dse] cleared {removed} result file(s) from {} (use --resume to keep them)",
            dir.display()
        );
    }
}
