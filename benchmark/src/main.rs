//! `musa-bench`: the hermetic host-time benchmark of the MUSA-rs
//! simulator. One invocation runs one workload, single-threaded and as a
//! closed loop (an operation is issued when the previous one returned),
//! through the simulator's public library functions; see `README.md`.
//!
//! ```text
//! musa-bench --workload NAME [--seed N | --held-out] [--seconds S] [--trace 0|1] [--quick] [--stride K]
//! ```
//!
//! The last line of standard output is one JSON object: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.

mod alloc;
mod dram;
mod kernels;
mod measure;
mod search;
mod spans;
mod sweep;

use std::fmt::Write as _;
use std::process::ExitCode;

use musa_apps::GenParams;

use measure::Report;
use spans::Recorder;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

pub const WORKLOADS: [&str; 4] = [
    "campaign_paper",
    "region_sweep",
    "search_anneal",
    "dram_stream",
];

/// `GenParams::paper()`'s own seed: the default inputs are the traces
/// the repository generates by default.
pub const DEFAULT_SEED: u64 = 0xC0DE_CAFE;

/// The held-out seed (`--held-out`): not to be used while a change is
/// written; a claimed gain must also hold on it.
pub const HELD_OUT_SEED: u64 = 20_190_520;

/// End-to-end metrics (tracing off), with their units. `failed_ops` and
/// `sim_digest` travel beside them, as `failed`/`attempted` and inside
/// `correct`: they are not magnitudes a bound applies to.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("ops_per_s", "op/s"),
    ("op_us_p50", "us"),
    ("op_us_p99", "us"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (traced pass). A workload that does not reach a
/// layer reports 0 for it.
const PER_LAYER: [(&str, &str); 37] = [
    ("apps.generate.total_ms", "ms"),
    ("apps.generate.allocs", "count"),
    ("core.simulate.self_share", "ratio"),
    ("core.simulate.allocs_per_op", "count"),
    ("tasksim.node_sim.share", "ratio"),
    ("tasksim.node_sim.us_per_call", "us"),
    ("tasksim.node_sim.allocs_per_call", "count"),
    ("tasksim.burst.calls", "count"),
    ("tasksim.burst.us_per_call", "us"),
    ("tasksim.burst.share", "ratio"),
    ("tasksim.profile_kernel.us_per_call", "us"),
    ("tasksim.analyze_kernel.ns_per_call", "ns"),
    ("tasksim.fuse.ns_per_call", "ns"),
    ("tasksim.pipeline.ns_per_call", "ns"),
    ("tasksim.schedule_region.us_per_call", "us"),
    ("net.replay.calls", "count"),
    ("net.replay.share", "ratio"),
    ("net.replay.ms_per_call", "ms"),
    ("net.replay.mevents_per_s", "Mevent/s"),
    ("net.replay.allocs_per_call", "count"),
    ("power.node_power.share", "ratio"),
    ("power.node_power.ns_per_call", "ns"),
    ("search.strategy.self_share", "ratio"),
    ("search.evaluate.share", "ratio"),
    ("search.evaluate.us_per_point", "us"),
    ("search.sweep_baseline.us_per_point", "us"),
    ("search.memo_hit_rate", "ratio"),
    ("search.generations", "count"),
    ("mem.push.ns_per_req", "ns"),
    ("mem.drain.ns_per_req.depth256", "ns"),
    ("mem.drain.ns_per_req.depth4096", "ns"),
    ("mem.access.ns_per_req", "ns"),
    ("mem.row_hit_rate", "ratio"),
    ("platform.hooks_share", "ratio"),
    ("platform.hooks_spread", "ratio"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.unattributed_share", "ratio"),
];

/// The sizes of one pass. Frozen: a later change is measured on the same
/// work as its parent.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Trace scale of the two sweeps.
    pub gen: GenParams,
    /// The sweeps take every `stride`-th configuration of
    /// `DesignSpace::all()`. 11 shares no factor with the axis sizes
    /// (3·4·3·3·4·2), so the slice meets every value of every axis.
    pub stride: usize,
    /// Trace scale of the search's evaluator.
    pub search_gen: GenParams,
    /// Distinct points one search evaluates.
    pub search_budget: u64,
    /// Requests of each (configuration, mix, depth) cell of `dram_stream`.
    pub dram_reqs_per_cell: usize,
}

impl Scale {
    const FULL: Scale = Scale {
        gen: GenParams::paper(),
        stride: 11,
        search_gen: GenParams::small(),
        search_budget: 1000,
        dram_reqs_per_cell: 1 << 18,
    };

    /// `--quick`: every workload, traced pass included, in seconds.
    const QUICK: Scale = Scale {
        gen: GenParams::tiny(),
        stride: 36,
        search_gen: GenParams::tiny(),
        search_budget: 200,
        dram_reqs_per_cell: 4096,
    };
}

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    pub scale: Scale,
    /// Print only the median pass wall and the digest (the child run on
    /// the build without hooks).
    pub bare: bool,
    /// The build without the platform hooks, for `platform.hooks_share`.
    pub nohooks_bin: Option<String>,
}

fn usage() -> String {
    format!(
        "usage: musa-bench --workload {{{}}} [--seed N | --held-out] [--seconds S] [--trace 0|1] [--quick] [--stride K]",
        WORKLOADS.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 20.0,
        trace: false,
        quick: false,
        scale: Scale::FULL,
        bare: false,
        nohooks_bin: None,
    };
    let mut stride = None;
    let mut seconds = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = Some(
                    value()?
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--stride" => {
                stride = Some(
                    value()?
                        .parse::<usize>()
                        .map_err(|e| format!("--stride: {e}"))?,
                )
            }
            "--nohooks-bin" => args.nohooks_bin = Some(value()?),
            "--held-out" => args.seed = HELD_OUT_SEED,
            "--quick" => args.quick = true,
            "--bare" => args.bare = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    if args.quick {
        // Two passes of each phase and no more.
        args.scale = Scale::QUICK;
        args.seconds = 0.0;
    }
    if let Some(s) = seconds {
        if !(s.is_finite() && s >= 0.0) {
            return Err(format!("--seconds {s} is not a length of time"));
        }
        args.seconds = s;
    }
    if let Some(k) = stride {
        if !(1..=864).contains(&k) {
            return Err(format!("--stride {k} is outside 1..=864"));
        }
        args.scale.stride = k;
    }
    Ok(args)
}

/// A JSON number with all the digits measured.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

fn result_line(report: &Report, table: &[(&'static str, &'static str)]) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        report.errors.is_empty(),
        report.attempted,
        report.failed
    );
    for (i, (name, unit)) in table.iter().enumerate() {
        let value = report.metrics.get(name).copied().unwrap_or(0.0);
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        );
    }
    s.push_str("}}");
    s
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("musa-bench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let mut rec = Recorder::new();
    let mut report = match args.workload.as_str() {
        "campaign_paper" => sweep::run(&args, true, &mut rec),
        "region_sweep" => sweep::run(&args, false, &mut rec),
        "search_anneal" => search::run(&args, &mut rec),
        "dram_stream" => dram::run(&args, &mut rec),
        _ => unreachable!("parse_args admits only known workloads"),
    };
    if report.failed > 0 {
        let line = format!(
            "{} of {} operations failed",
            report.failed, report.attempted
        );
        report.errors.push(line);
    }

    if args.bare {
        println!("{} {:016x}", report.metrics["wall_s"], report.digest);
        return if report.errors.is_empty() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    println!(
        "# musa-bench workload={} seed={} seconds={} trace={} quick={} stride={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.quick,
        args.scale.stride
    );
    for note in &report.notes {
        println!("# {note}");
    }
    for (name, unit) in table {
        if let Some(v) = report.metrics.get(name) {
            println!("{:<42} {:>16.6} {unit}", name, v);
        }
    }
    println!(
        "{:<42} {:>16} of {} attempted",
        "failed_ops", report.failed, report.attempted
    );
    for (name, value) in &report.exact {
        println!("exact {} {name} {value}", args.workload);
    }
    for e in &report.errors {
        println!("CHECK FAILED: {e}");
    }
    if args.trace {
        // Relative: `run.sh` runs the binary from the benchmark's directory.
        let dir = std::path::Path::new("out");
        let path = dir.join(format!("trace-{}.json", args.workload));
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, rec.to_json(&args.workload)));
        match written {
            Ok(()) => println!("# spans of the first traced pass: {}", path.display()),
            Err(e) => report
                .errors
                .push(format!("cannot write {}: {e}", path.display())),
        }
    }
    println!("{}", result_line(&report, table));
    if report.errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
