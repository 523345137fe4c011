//! `campaign_paper` and `region_sweep`: the paper's campaign, one
//! (application, configuration) point per operation.
//!
//! The untraced pass calls `MultiscaleSim::simulate` as a campaign does.
//! The traced pass recomposes `simulate` from its four public stage
//! calls (detailed node simulation, burst baseline with the same
//! per-core-count memo, MPI replay, power), timing each from outside,
//! and checks that every recomposed row is bit-identical to
//! `simulate`'s.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use musa_apps::{generate, AppId, GenParams};
use musa_arch::{DesignSpace, NodeConfig};
use musa_core::{sweep_app, ConfigResult, MultiscaleSim, SweepOptions};
use musa_net::{replay, FixedRatioTimer, NetworkParams};
use musa_power::PowerModel;
use musa_tasksim::{simulate_region_burst, NodeSim};
use musa_trace::AppTrace;

use crate::measure::{quartile_spread, run_rounds, time_setup, Fnv, PassOut, Phase, Report};
use crate::spans::{Layer, Recorder};
use crate::{kernels, Args};

/// Every numeric field of a `ConfigResult`, in declaration order.
pub type Row = [f64; 13];

/// The cross-check against `musa_core::sweep_app` runs on every fourth
/// configuration of the pass.
const CHECK_STEP: usize = 4;

pub struct Inputs {
    pub gen: GenParams,
    pub traces: Vec<(AppId, AppTrace)>,
    pub configs: Vec<NodeConfig>,
}

impl Inputs {
    pub fn points(&self) -> usize {
        self.traces.len() * self.configs.len()
    }
}

/// Trace generation for the five applications plus the enumeration of
/// the design-space slice: everything a campaign does before its first
/// point.
pub fn setup(gen: GenParams, stride: usize) -> Inputs {
    Inputs {
        gen,
        traces: AppId::ALL
            .iter()
            .map(|&app| (app, generate(app, &gen)))
            .collect(),
        configs: DesignSpace::all().into_iter().step_by(stride).collect(),
    }
}

fn row_of(r: &ConfigResult) -> Row {
    [
        r.time_ns,
        r.region_ns,
        r.power.core_l1_w,
        r.power.l2_l3_w,
        r.power.mem_w,
        r.energy_j,
        r.l1_mpki,
        r.l2_mpki,
        r.l3_mpki,
        r.mem_mpki,
        r.gmemreq_per_s,
        r.mem_stretch,
        r.region_efficiency,
    ]
}

fn same_bits(a: &Row, b: &Row) -> bool {
    a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn positive(v: f64) -> bool {
    v.is_finite() && v > 0.0
}

/// A row a campaign could store: finite positive time and energy, energy
/// equal to power times time, and, without replay, time equal to the
/// region time.
fn valid(r: &ConfigResult, full_replay: bool) -> bool {
    row_of(r).iter().all(|v| v.is_finite())
        && positive(r.time_ns)
        && positive(r.region_ns)
        && positive(r.energy_j)
        && r.energy_j.to_bits() == r.power.energy_j(r.time_ns).to_bits()
        && (full_replay || r.time_ns.to_bits() == r.region_ns.to_bits())
}

fn digest_row(h: &mut Fnv, row: &Row) {
    for v in row {
        h.f64(*v);
    }
}

/// One pass through `simulate`: per application a fresh `MultiscaleSim`,
/// then every configuration of the slice in design-space order.
fn simulate_pass(
    inp: &Inputs,
    full_replay: bool,
    rec: &mut Recorder,
    lat_us: &mut Vec<f64>,
    rows: &mut Vec<Row>,
) -> PassOut {
    rows.clear();
    let mut h = Fnv::new();
    let mut failed = 0;
    for (_, trace) in &inp.traces {
        let sim = MultiscaleSim::new(trace);
        for cfg in &inp.configs {
            rec.enter(Layer::Simulate);
            let t = Instant::now();
            let result = catch_unwind(AssertUnwindSafe(|| sim.simulate(*cfg, full_replay)));
            let us = t.elapsed().as_secs_f64() * 1e6;
            rec.exit();
            lat_us.push(us);
            let row = match result {
                Ok(r) => {
                    if !valid(&r, full_replay) {
                        failed += 1;
                    }
                    row_of(&r)
                }
                Err(_) => {
                    failed += 1;
                    [f64::NAN; 13]
                }
            };
            digest_row(&mut h, &row);
            rows.push(row);
        }
    }
    PassOut {
        digest: h.finish(),
        ops: rows.len() as u64,
        failed,
    }
}

/// One pass through the recomposed flow, a span around every stage.
/// `expect` holds `simulate`'s rows for the same points; `mismatches`
/// counts recomposed rows that differ from them in any bit.
fn recomposed_pass(
    inp: &Inputs,
    full_replay: bool,
    rec: &mut Recorder,
    lat_us: &mut Vec<f64>,
    expect: &[Row],
    mismatches: &mut u64,
    events: &mut u64,
) -> PassOut {
    let net = NetworkParams::marenostrum4();
    let mut h = Fnv::new();
    let mut op = 0usize;
    rec.enter(Layer::Workload);
    for (_, trace) in &inp.traces {
        rec.enter(Layer::AppSweep);
        let region = trace.sampled_region().expect("trace has a sampled region");
        let detail = trace.detail.as_ref().expect("trace has a detailed trace");
        let trace_events = (trace.ranks.len() * trace.ranks[0].events.len()) as u64;
        // The memo `MultiscaleSim` keeps: one burst baseline per core count.
        let mut burst_memo: HashMap<u32, f64> = HashMap::new();
        for cfg in &inp.configs {
            rec.set_op(op as u64);
            rec.enter(Layer::Point);
            let t = Instant::now();

            rec.enter(Layer::NodeSim);
            let det = NodeSim::new(*cfg, detail, region).simulate_region(region);
            rec.exit();
            let region_ns = det.schedule.makespan_ns;

            let cores = cfg.cores.count();
            let burst_ns = match burst_memo.get(&cores) {
                Some(&ns) => ns,
                None => {
                    rec.enter(Layer::Burst);
                    let ns = simulate_region_burst(region, cores).makespan_ns;
                    rec.exit();
                    burst_memo.insert(cores, ns);
                    ns
                }
            };
            let ratio = if burst_ns > 0.0 {
                region_ns / burst_ns
            } else {
                1.0
            };

            let time_ns = if full_replay {
                rec.enter(Layer::Replay);
                let mut timer = FixedRatioTimer { cores, ratio };
                // The replay result is dropped inside the span, as
                // `simulate` drops it before it returns.
                let total_ns = replay(trace, &net, &mut timer).total_ns;
                rec.exit();
                *events += trace_events;
                total_ns
            } else {
                region_ns
            };

            rec.enter(Layer::NodePower);
            let power = PowerModel::new(*cfg).node_power(
                &det.stats,
                &det.dram,
                region_ns,
                det.schedule.busy_ns,
            );
            rec.exit();

            let s = &det.stats;
            let row: Row = [
                time_ns,
                region_ns,
                power.core_l1_w,
                power.l2_l3_w,
                power.mem_w,
                power.energy_j(time_ns),
                s.mpki(&s.l1),
                s.mpki(&s.l2),
                s.mpki(&s.l3),
                s.l3_mpki_with_writebacks(),
                if region_ns > 0.0 {
                    s.mem_requests() / (region_ns * 1e-9) / 1e9
                } else {
                    0.0
                },
                det.mem_stretch,
                det.schedule.parallel_efficiency(),
            ];
            // Freeing the detailed result is the node simulation's cost.
            rec.enter(Layer::NodeSim);
            drop(det);
            rec.exit_calls(0);

            lat_us.push(t.elapsed().as_secs_f64() * 1e6);
            if !same_bits(&row, &expect[op]) {
                *mismatches += 1;
            }
            digest_row(&mut h, &row);
            op += 1;
            rec.exit();
        }
        rec.exit();
    }
    rec.exit();
    PassOut {
        digest: h.finish(),
        ops: op as u64,
        failed: 0,
    }
}

/// `musa_core::sweep_app` on a slice of the pass must return the rows
/// the benchmark's own loop produced, bit for bit: the loop is then a
/// faithful stand-in for the sweep.
fn cross_check_sweep_app(inp: &Inputs, full_replay: bool, rows: &[Row], report: &mut Report) {
    let picked: Vec<usize> = (0..inp.configs.len()).step_by(CHECK_STEP).collect();
    let configs: Vec<NodeConfig> = picked.iter().map(|&i| inp.configs[i]).collect();
    let opts = SweepOptions {
        gen: inp.gen,
        full_replay,
    };
    for (a, (app, _)) in inp.traces.iter().enumerate() {
        let swept = sweep_app(*app, &configs, &opts);
        let same = swept.len() == picked.len()
            && swept
                .iter()
                .zip(&picked)
                .all(|(r, &i)| same_bits(&row_of(r), &rows[a * inp.configs.len() + i]));
        report.check(same, || {
            format!("sweep_app({app}) rows differ from the benchmark's own loop")
        });
    }
}

/// One `region_sweep` phase on the build without the platform hooks, run
/// as a child process; returns its median pass wall and its digest.
fn nohooks_phase(args: &Args, seconds: f64) -> Result<(f64, u64), String> {
    let exe = args
        .nohooks_bin
        .as_ref()
        .ok_or("no --nohooks-bin given".to_string())?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["--workload", "region_sweep", "--trace", "0", "--bare"])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--stride", &args.scale.stride.to_string()]);
    if args.quick {
        cmd.arg("--quick");
    }
    let out = cmd.output().map_err(|e| format!("cannot run {exe}: {e}"))?;
    if !out.status.success() {
        return Err(format!("{exe} exited with {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let mut words = text.split_whitespace();
    let wall = words.next().and_then(|w| w.parse::<f64>().ok());
    let digest = words.next().and_then(|w| u64::from_str_radix(w, 16).ok());
    wall.zip(digest).ok_or(format!(
        "{exe} printed {text:?}, not a wall time and a digest"
    ))
}

/// `platform.hooks_share`: the share of a default-build pass that the
/// build without hooks does not spend. It is resolved only when it
/// exceeds both the spread of the default build's passes and the
/// disagreement between the two halves of the build without hooks.
fn hooks_share(
    report: &mut Report,
    before: Result<(f64, u64), String>,
    after: Result<(f64, u64), String>,
    untraced: &Phase,
) {
    let ((wall_a, digest_a), (wall_b, digest_b)) = match (before, after) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            return report.errors.push(format!("platform.hooks_share: {e}"))
        }
    };
    report.check(
        digest_a == untraced.digest && digest_b == untraced.digest,
        || "sim_digest differs on the build without hooks".to_string(),
    );
    let wall = 0.5 * (wall_a + wall_b);
    let hooks = 1.0 - wall / untraced.wall_s();
    let spread = quartile_spread(&untraced.walls).max((wall_a - wall_b).abs() / wall);
    report.set("platform.hooks_share", hooks);
    report.set("platform.hooks_spread", spread);
    if hooks.abs() < spread {
        report.notes.push(format!(
            "platform.hooks_share {hooks:+.4} is unresolved: below the run-to-run spread {spread:.4}"
        ));
    }
}

fn per_layer(
    report: &mut Report,
    rec: &Recorder,
    untraced: &Phase,
    traced: &Phase,
    points: usize,
    events: u64,
) {
    let traced_ns = rec.agg(Layer::Workload).total_ns as f64;
    let share = |l: Layer| rec.agg(l).self_ns as f64 / traced_ns;
    let passes = traced.walls.len() as f64;

    let node = rec.agg(Layer::NodeSim);
    report.set("tasksim.node_sim.share", share(Layer::NodeSim));
    report.set("tasksim.node_sim.us_per_call", node.ns_per_call() * 1e-3);
    report.set("tasksim.node_sim.allocs_per_call", node.allocs_per_call());

    let burst = rec.agg(Layer::Burst);
    let sweeps = rec.agg(Layer::AppSweep).calls as f64;
    report.set("tasksim.burst.calls", burst.calls as f64 / sweeps);
    report.set("tasksim.burst.us_per_call", burst.ns_per_call() * 1e-3);
    report.set("tasksim.burst.share", share(Layer::Burst));

    let rep = rec.agg(Layer::Replay);
    report.set("net.replay.calls", rep.calls as f64 / passes);
    report.set("net.replay.share", share(Layer::Replay));
    report.set("net.replay.ms_per_call", rep.ns_per_call() * 1e-6);
    report.set("net.replay.allocs_per_call", rep.allocs_per_call());
    if rep.total_ns > 0 {
        report.set(
            "net.replay.mevents_per_s",
            events as f64 / rep.total_s() / 1e6,
        );
    }

    let power = rec.agg(Layer::NodePower);
    report.set("power.node_power.share", share(Layer::NodePower));
    report.set("power.node_power.ns_per_call", power.ns_per_call());

    // What `simulate` adds around its four stages: the untraced pass
    // minus the stage times of one traced pass.
    let stage_s = (node.total_s() + burst.total_s() + rep.total_s() + power.total_s()) / passes;
    report.set(
        "core.simulate.self_share",
        (untraced.wall_s() - stage_s) / untraced.wall_s(),
    );
    let stage_allocs =
        (node.allocs + burst.allocs + rep.allocs + power.allocs) as f64 / (passes * points as f64);
    report.set(
        "core.simulate.allocs_per_op",
        rec.agg(Layer::Simulate).allocs_per_call() - stage_allocs,
    );

    let own = rec.agg(Layer::Workload).self_ns
        + rec.agg(Layer::AppSweep).self_ns
        + rec.agg(Layer::Point).self_ns;
    report.set("bench.unattributed_share", own as f64 / traced_ns);

    report.exact("tasksim.burst.calls", burst.calls as f64 / sweeps);
    report.exact("net.replay.calls", rep.calls as f64 / passes);
    report.exact("tasksim.node_sim.allocs_per_call", node.allocs_per_call());
    report.exact("net.replay.allocs_per_call", rep.allocs_per_call());
    report.exact(
        "core.simulate.allocs_per_call",
        rec.agg(Layer::Simulate).allocs_per_call(),
    );
}

pub fn run(args: &Args, full_replay: bool, rec: &mut Recorder) -> Report {
    let mut report = Report::default();
    let gen = GenParams {
        seed: args.seed,
        ..args.scale.gen
    };
    let (inp, setup_s) = time_setup(|| setup(gen, args.scale.stride));
    let mut rows = Vec::with_capacity(inp.points());

    // Kind 0 is the untraced pass through `simulate`; kind 1 (with
    // `--trace 1`) the traced, recomposed one. The build without hooks
    // takes a third of a traced `region_sweep` run, half before and half
    // after the rounds it is compared with, so that a drift of the
    // machine shows as a disagreement between its two halves.
    let measure_hooks = args.trace && !full_replay;
    let (rounds_s, nohooks_s) = if measure_hooks {
        (args.seconds * 2.0 / 3.0, args.seconds / 6.0)
    } else {
        (args.seconds, 0.0)
    };
    let nohooks_before = measure_hooks.then(|| nohooks_phase(args, nohooks_s));
    let (mut mismatches, mut events) = (0, 0);
    let (untraced, traced) = run_rounds(rounds_s, args.trace, rec, |rec, lat| {
        if rec.is_on() {
            recomposed_pass(
                &inp,
                full_replay,
                rec,
                lat,
                &rows,
                &mut mismatches,
                &mut events,
            )
        } else {
            simulate_pass(&inp, full_replay, rec, lat, &mut rows)
        }
    });
    let nohooks_after = measure_hooks.then(|| nohooks_phase(args, nohooks_s));
    report.count(&untraced);
    cross_check_sweep_app(&inp, full_replay, &rows, &mut report);

    if let Some(traced) = &traced {
        report.count_traced(&untraced, traced);
        report.check(mismatches == 0, || {
            format!("{mismatches} recomposed rows differ from simulate's")
        });

        rec.start();
        rec.enter(Layer::Generate);
        std::hint::black_box(setup(gen, args.scale.stride));
        rec.exit();
        // One counted pass through `simulate` itself, for its allocations:
        // a span around each call and none inside it.
        let counted = simulate_pass(&inp, full_replay, rec, &mut Vec::new(), &mut Vec::new());
        report.check(counted.digest == untraced.digest, || {
            "sim_digest differs in the allocation-counting pass".to_string()
        });
        if !full_replay {
            kernels::drive(&inp, rec, &mut report);
        }
        rec.stop();

        per_layer(&mut report, rec, &untraced, traced, inp.points(), events);
        report.generated(rec.agg(Layer::Generate));
        if let (Some(before), Some(after)) = (nohooks_before, nohooks_after) {
            hooks_share(&mut report, before, after, &untraced);
        }
    }
    report.end_to_end(setup_s, &untraced);
    report
}
