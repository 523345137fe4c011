//! Hand-timed baseline for the query kernels on the full 864×5
//! synthetic campaign, printed as JSON:
//!
//! ```text
//! cargo run --release -p musa-serve --example bench_baseline > results/BENCH_serve.json
//! ```

use std::time::Instant;

use musa_core::RowMetric;
use musa_obs::json::JsonObj;
use musa_serve::engine::{Dim, QueryEngine, RowFilter};
use musa_serve::synth::synthetic_results;

/// Median-of-runs wall time per iteration, in microseconds.
fn time_us(iters: u32, mut f: impl FnMut()) -> f64 {
    let mut runs: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                f();
            }
            start.elapsed().as_secs_f64() * 1e6 / iters as f64
        })
        .collect();
    runs.sort_by(f64::total_cmp);
    runs[runs.len() / 2]
}

fn main() {
    let rows = synthetic_results(864);
    let n_rows = rows.len();
    let engine = QueryEngine::new(rows.clone());
    let hydro = RowFilter::new().with(Dim::App, "hydro");
    let narrow = RowFilter::new()
        .with(Dim::App, "hydro")
        .with(Dim::Cores, "64c")
        .with(Dim::Freq, "2.0GHz");

    let index_build = time_us(20, || {
        std::hint::black_box(QueryEngine::new(rows.clone()));
    });
    let select_one = time_us(2000, || {
        std::hint::black_box(engine.select(&hydro));
    });
    let select_three = time_us(2000, || {
        std::hint::black_box(engine.select(&narrow));
    });
    let top_k = time_us(1000, || {
        std::hint::black_box(engine.top_k(&hydro, RowMetric::TimeNs, 10));
    });
    let pareto = time_us(1000, || {
        std::hint::black_box(engine.pareto(&hydro, RowMetric::TimeNs, RowMetric::EnergyJ));
    });
    let aggregate = time_us(2000, || {
        std::hint::black_box(engine.aggregate(&hydro, RowMetric::EnergyJ));
    });

    println!(
        "{}",
        JsonObj::new()
            .field_str("bench", "musa-serve query kernels")
            .field_u64("rows", n_rows as u64)
            .field_str("unit", "us_per_iter_median_of_5")
            .field_f64("index_build", index_build)
            .field_f64("select_one_dim", select_one)
            .field_f64("select_three_dims", select_three)
            .field_f64("top_k_10", top_k)
            .field_f64("pareto_time_energy", pareto)
            .field_f64("aggregate_energy", aggregate)
            .finish()
    );
}
