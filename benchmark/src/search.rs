//! `search_anneal`: the adaptive Pareto search, one evaluated point per
//! operation.
//!
//! It reaches `core`, `tasksim` and `net` by another road than the
//! sweeps: configurations arrive in the strategy's order with the
//! applications interleaved, and `MemEvaluator` builds a fresh
//! `MultiscaleSim` per point, so the burst baseline is computed per
//! point and never memoised. A gain bought by sweep-order caching shows
//! on `campaign_paper` and not here.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use musa_apps::{generate, AppId, GenParams};
use musa_arch::{DesignSpace, NodeConfig};
use musa_core::{MultiscaleSim, SweepOptions};
use musa_search::{run_search, Evaluator, MemEvaluator, SearchConfig, SpaceId};
use musa_trace::AppTrace;

use crate::measure::{run_rounds, time_setup, Fnv, PassOut, Report};
use crate::spans::{Layer, Recorder};
use crate::Args;

/// Points proposed per generation (the `dse search` default).
const BATCH: u64 = 32;
/// Hypervolume reference multiple (the `dse search` default).
const HV_REF: f64 = 8.0;

/// `MemEvaluator` behind a stopwatch: each point of a batch is handed to
/// it on its own and timed from outside, the only split between the
/// strategy and the simulator that the public interface allows.
struct TimedEvaluator<'a> {
    inner: MemEvaluator,
    rec: &'a mut Recorder,
    lat_us: &'a mut Vec<f64>,
    points: u64,
    failed: u64,
}

impl Evaluator for TimedEvaluator<'_> {
    fn evaluate(&mut self, batch: &[(AppId, NodeConfig)]) -> Vec<(f64, f64)> {
        let mut out = Vec::with_capacity(batch.len());
        for pair in batch {
            self.rec.set_op(self.points);
            self.rec.enter(Layer::SearchEvaluate);
            let t = Instant::now();
            let inner = &mut self.inner;
            let result = catch_unwind(AssertUnwindSafe(|| {
                inner.evaluate(std::slice::from_ref(pair))
            }));
            let us = t.elapsed().as_secs_f64() * 1e6;
            self.rec.exit();
            self.lat_us.push(us);
            self.points += 1;
            let value = match result {
                Ok(v) if v.len() == 1 => v[0],
                _ => (f64::NAN, f64::NAN),
            };
            let ok = |v: f64| v.is_finite() && v > 0.0;
            if !(ok(value.0) && ok(value.1)) {
                self.failed += 1;
            }
            out.push(value);
        }
        out
    }

    fn memo_hits(&self) -> u64 {
        self.inner.memo_hits()
    }
}

struct SearchPass {
    out: PassOut,
    generations: u64,
    memo_hits: u64,
}

/// One whole search from a fresh evaluator.
fn search_pass(
    config: &SearchConfig,
    gen: GenParams,
    rec: &mut Recorder,
    lat_us: &mut Vec<f64>,
) -> SearchPass {
    rec.enter(Layer::Workload);
    let mut eval = TimedEvaluator {
        inner: MemEvaluator::new(SweepOptions {
            gen,
            full_replay: true,
        }),
        rec,
        lat_us,
        points: 0,
        failed: 0,
    };
    eval.rec.enter(Layer::SearchRun);
    let outcome = run_search(config, &mut eval, None, None);
    eval.rec.exit();
    let (points, mut failed, memo_hits) = (eval.points, eval.failed, eval.memo_hits());

    // Evaluated set, front and hypervolume, in point order.
    let mut h = Fnv::new();
    let mut generations = 0;
    match &outcome {
        Ok(o) => {
            for (point, (time_ns, energy_j)) in &o.raw {
                h.u64(*point);
                h.f64(*time_ns);
                h.f64(*energy_j);
            }
            for point in &o.state.front {
                h.u64(*point);
            }
            h.f64(o.state.hypervolume);
            generations = o.trajectory.len() as u64;
            if !(o.state.hypervolume.is_finite() && o.state.hypervolume > 0.0) {
                failed += 1;
            }
        }
        Err(_) => failed += 1,
    }
    drop(outcome);
    rec.exit();
    SearchPass {
        out: PassOut {
            digest: h.finish(),
            ops: points,
            failed,
        },
        generations,
        memo_hits,
    }
}

/// What a sweep pays per point at the same trace scale: one shared
/// `MultiscaleSim` per application (burst baseline memoised), the paper
/// space in order. `search.evaluate.us_per_point` is to be read beside it.
fn sweep_baseline_us(traces: &[AppTrace], stride: usize) -> f64 {
    let configs: Vec<NodeConfig> = DesignSpace::all().into_iter().step_by(stride).collect();
    let t = Instant::now();
    for trace in traces {
        let sim = MultiscaleSim::new(trace);
        for cfg in &configs {
            std::hint::black_box(sim.simulate(*cfg, true));
        }
    }
    t.elapsed().as_secs_f64() * 1e6 / (traces.len() * configs.len()) as f64
}

pub fn run(args: &Args, rec: &mut Recorder) -> Report {
    let mut report = Report::default();
    let gen = GenParams {
        seed: args.seed,
        ..args.scale.search_gen
    };
    let config = SearchConfig {
        strategy: "anneal".to_string(),
        seed: args.seed,
        budget: args.scale.search_budget,
        batch: BATCH,
        space: SpaceId::Expanded,
        apps: AppId::ALL.to_vec(),
        hv_ref: HV_REF,
        scale: "benchmark".to_string(),
    };
    // `MemEvaluator` generates its own traces inside the search, so the
    // set-up measured here is the same work done once outside it.
    let setup = || -> Vec<AppTrace> { AppId::ALL.iter().map(|&a| generate(a, &gen)).collect() };
    let (_, setup_s) = time_setup(setup);

    // Generations and memo hits are the same in every pass.
    let (mut generations, mut memo_hits) = (0, 0);
    let (untraced, traced) = run_rounds(args.seconds, args.trace, rec, |rec, lat| {
        let pass = search_pass(&config, gen, rec, lat);
        generations = pass.generations;
        memo_hits = pass.memo_hits;
        pass.out
    });
    report.count(&untraced);

    if let Some(traced) = &traced {
        rec.start();
        rec.enter(Layer::Generate);
        let traces = setup();
        rec.exit();
        rec.stop();
        report.count_traced(&untraced, traced);
        report.generated(rec.agg(Layer::Generate));

        let traced_ns = rec.agg(Layer::Workload).total_ns as f64;
        let evaluate = rec.agg(Layer::SearchEvaluate);
        report.set(
            "search.strategy.self_share",
            rec.agg(Layer::SearchRun).self_ns as f64 / traced_ns,
        );
        report.set("search.evaluate.share", evaluate.self_ns as f64 / traced_ns);
        report.set(
            "search.evaluate.us_per_point",
            evaluate.ns_per_call() * 1e-3,
        );
        report.set(
            "search.sweep_baseline.us_per_point",
            sweep_baseline_us(&traces, args.scale.stride),
        );
        report.set(
            "search.memo_hit_rate",
            memo_hits as f64 / traced.ops_per_pass() as f64,
        );
        report.set("search.generations", generations as f64);
        report.set(
            "bench.unattributed_share",
            rec.agg(Layer::Workload).self_ns as f64 / traced_ns,
        );
        report.exact("search.generations", generations);
        report.exact("search.memo_hits", memo_hits);
        report.exact(
            "search.evaluate.allocs_per_point",
            evaluate.allocs_per_call(),
        );
    }
    report.end_to_end(setup_s, &untraced);
    report
}
