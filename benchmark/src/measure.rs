//! Shared measuring machinery: the result digest, medians and
//! percentiles, timed set-up, the time-boxed pass loop and the report
//! the workloads fill in.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::spans::{Agg, Recorder};

/// FNV-1a over 64-bit words, fed the bit patterns of simulated results.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Nearest-rank quantile of an ascending slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Distance between the quartiles as a share of the median: the
/// run-to-run spread a difference must exceed to be resolved.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    (quantile(&v, 0.75) - quantile(&v, 0.25)) / median(&v)
}

/// Set up repeatedly (at least five times, and for at least half a
/// second) and report the median set-up time with the last inputs built.
pub fn time_setup<T>(mut setup: impl FnMut() -> T) -> (T, f64) {
    let begun = Instant::now();
    let mut times = Vec::new();
    loop {
        let t = Instant::now();
        let inputs = std::hint::black_box(setup());
        times.push(t.elapsed().as_secs_f64());
        if times.len() >= 5 && (begun.elapsed().as_secs_f64() >= 0.5 || times.len() >= 101) {
            return (inputs, median(&times));
        }
    }
}

/// What one pass over a workload's fixed operation list produced.
pub struct PassOut {
    /// Digest of every simulated result of the pass, in operation order.
    pub digest: u64,
    pub ops: u64,
    pub failed: u64,
}

/// A run of identical passes.
#[derive(Default)]
pub struct Phase {
    /// Wall-clock seconds of each pass.
    pub walls: Vec<f64>,
    /// Per-operation latency in microseconds, all passes together.
    pub lat_us: Vec<f64>,
    pub digest: u64,
    /// Passes whose digest differed from the first pass's.
    pub differing: u64,
    pub ops: u64,
    pub failed: u64,
}

impl Phase {
    pub fn wall_s(&self) -> f64 {
        median(&self.walls)
    }

    pub fn ops_per_pass(&self) -> u64 {
        self.ops / self.walls.len() as u64
    }
}

/// Repeat `pass` until `seconds` have gone by, and at least twice. A pass
/// always runs to its end, so every pass does the same work and their
/// digests must agree.
///
/// With `traced`, every untraced pass is followed by one with the
/// recorder on, and the traced passes come back as a second [`Phase`].
/// The two kinds alternate so that a drift of the machine falls on both
/// alike and their difference is the tracing and nothing else.
pub fn run_rounds(
    seconds: f64,
    traced: bool,
    rec: &mut Recorder,
    mut pass: impl FnMut(&mut Recorder, &mut Vec<f64>) -> PassOut,
) -> (Phase, Option<Phase>) {
    let mut phases = [Phase::default(), Phase::default()];
    let begun = Instant::now();
    while phases[0].walls.len() < 2 || begun.elapsed().as_secs_f64() < seconds {
        for (phase, on) in phases.iter_mut().zip([false, true]) {
            if on && !traced {
                continue;
            }
            if on {
                rec.start();
            }
            let t = Instant::now();
            let out = pass(rec, &mut phase.lat_us);
            phase.walls.push(t.elapsed().as_secs_f64());
            if on {
                rec.stop();
            }
            if phase.walls.len() == 1 {
                phase.digest = out.digest;
            } else if out.digest != phase.digest {
                phase.differing += 1;
            }
            phase.ops += out.ops;
            phase.failed += out.failed;
        }
    }
    let [untraced, with_spans] = phases;
    (untraced, traced.then_some(with_spans))
}

/// Peak resident set size of this process, megabytes (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Everything one invocation reports.
#[derive(Default)]
pub struct Report {
    pub metrics: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
    /// `sim_digest` of the untraced passes.
    pub digest: u64,
    /// Failed output checks; any entry makes the run incorrect.
    pub errors: Vec<String>,
    /// Values that must repeat exactly between two runs of one commit
    /// (`selftest.sh` compares them): digests and counts.
    pub exact: Vec<(&'static str, String)>,
    /// Free-form lines for the human-readable output.
    pub notes: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    pub fn exact(&mut self, name: &'static str, value: impl ToString) {
        self.exact.push((name, value.to_string()));
    }

    /// Fold a phase's operation counts into the totals.
    pub fn count(&mut self, phase: &Phase) {
        self.attempted += phase.ops;
        self.failed += phase.failed;
        self.check(phase.differing == 0, || {
            format!("sim_digest differs in {} repetitions", phase.differing)
        });
    }

    /// Fold in the traced passes: they must reproduce the untraced
    /// digest, and what they cost beyond an untraced pass is the tracing.
    pub fn count_traced(&mut self, untraced: &Phase, traced: &Phase) {
        self.count(traced);
        self.check(traced.digest == untraced.digest, || {
            "sim_digest differs between the traced and the untraced pass".to_string()
        });
        self.set(
            "bench.trace_overhead_pct",
            (traced.wall_s() / untraced.wall_s() - 1.0) * 100.0,
        );
    }

    /// One traced set-up: trace generation as a layer.
    pub fn generated(&mut self, generate: Agg) {
        self.set("apps.generate.total_ms", generate.total_s() * 1e3);
        self.set("apps.generate.allocs", generate.allocs as f64);
        self.exact("apps.generate.allocs", generate.allocs);
    }

    /// The end-to-end metrics, from the set-up time and the untraced phase.
    pub fn end_to_end(&mut self, setup_s: f64, phase: &Phase) {
        // Every pass issues the same operations in the same order, so an
        // operation's latency is the median over its repetitions: a stall
        // that hits one repetition does not reach the percentiles.
        let ops = phase.ops_per_pass() as usize;
        let mut lat: Vec<f64> = (0..ops)
            .map(|i| {
                let repeats: Vec<f64> = phase.lat_us.iter().skip(i).step_by(ops).copied().collect();
                median(&repeats)
            })
            .collect();
        lat.sort_by(f64::total_cmp);
        let wall = phase.wall_s();
        self.set("setup_s", setup_s);
        self.set("wall_s", wall);
        self.set("ops_per_s", ops as f64 / wall);
        self.set("op_us_p50", quantile(&lat, 0.50));
        self.set("op_us_p99", quantile(&lat, 0.99));
        self.set("peak_rss_mb", peak_rss_mb());
        self.notes.push(format!(
            "{} passes of {ops} ops, pass wall min {:.4} s, max {:.4} s; latency of an op: median of its {} repetitions; {} ops beyond p99",
            phase.walls.len(),
            phase.walls.iter().copied().fold(f64::INFINITY, f64::min),
            phase.walls.iter().copied().fold(0.0, f64::max),
            phase.walls.len(),
            ops - (0.99 * ops as f64).ceil() as usize
        ));
        self.digest = phase.digest;
        self.exact("sim_digest", format!("{:016x}", phase.digest));
    }
}
