//! Property tests of the scheduler and the locality model.

use musa_obs::rng::{check_cases, SplitMix64};
use musa_tasksim::{analyze_kernel, simulate_region_burst, CacheGeometry};
use musa_trace::{
    AccessPattern, ComputeRegion, InstrTemplate, Kernel, LoopSchedule, Op, RegionWork, StreamDesc,
    WorkItem,
};

fn region_from(durations: Vec<f64>, dynamic: bool, spawn: f64, dispatch: f64) -> ComputeRegion {
    ComputeRegion {
        region_id: 0,
        work: RegionWork::ParallelFor {
            chunks: durations
                .into_iter()
                .enumerate()
                .map(|(i, d)| WorkItem::simple(i as u32, d))
                .collect(),
            schedule: if dynamic {
                LoopSchedule::Dynamic
            } else {
                LoopSchedule::Static
            },
        },
        spawn_overhead_ns: spawn,
        dispatch_overhead_ns: dispatch,
    }
}

const CASES: u64 = 48;

/// Between 1 and `max_len - 1` durations in `[1, hi)`.
fn durations(rng: &mut SplitMix64, max_len: u64, hi: f64) -> Vec<f64> {
    (0..1 + rng.next_u64() % (max_len - 1))
        .map(|_| 1.0 + rng.next_f64() * (hi - 1.0))
        .collect()
}

/// Makespan is bounded below by both the longest item and the ideal
/// parallel time, and above by the serial time plus all overheads.
#[test]
fn schedule_respects_fundamental_bounds() {
    check_cases(CASES, |rng| {
        let durations = durations(rng, 80, 1e6);
        let cores = 1 + (rng.next_u64() % 127) as u32;
        let dynamic = rng.next_u64() & 1 == 1;
        let spawn = rng.next_f64() * 500.0;
        let dispatch = rng.next_f64() * 200.0;

        let n = durations.len() as f64;
        let serial: f64 = durations.iter().sum();
        let longest = durations.iter().copied().fold(0.0, f64::max);
        let region = region_from(durations, dynamic, spawn, dispatch);
        let s = simulate_region_burst(&region, cores);

        assert!(s.makespan_ns + 1e-9 >= longest);
        assert!(s.makespan_ns + 1e-9 >= serial / cores as f64);
        // Upper bound: everything serialised plus every overhead.
        let overheads = spawn * (n + 1.0) + dispatch * n;
        assert!(s.makespan_ns <= serial + overheads + 1e-6);
        // Efficiency is a true fraction.
        let eff = s.parallel_efficiency();
        assert!(eff > 0.0 && eff <= 1.0 + 1e-9);
    });
}

/// Greedy dynamic scheduling is a 2-approximation: never worse than
/// twice the lower bound (Graham's bound: T ≤ T_opt (2 − 1/m)).
#[test]
fn dynamic_schedule_is_graham_bounded() {
    check_cases(CASES, |rng| {
        let durations = durations(rng, 60, 1e6);
        let cores = 1 + (rng.next_u64() % 63) as u32;
        let serial: f64 = durations.iter().sum();
        let longest = durations.iter().copied().fold(0.0, f64::max);
        let lower = longest.max(serial / cores as f64);
        let region = region_from(durations, true, 0.0, 0.0);
        let s = simulate_region_burst(&region, cores);
        assert!(
            s.makespan_ns <= 2.0 * lower + 1e-6,
            "makespan {} > 2x lower bound {}",
            s.makespan_ns,
            lower
        );
    });
}

/// Adding cores never hurts (dynamic schedule, no overheads).
#[test]
fn more_cores_never_slower() {
    check_cases(CASES, |rng| {
        let durations = durations(rng, 50, 1e5);
        let cores = 1 + (rng.next_u64() % 62) as u32;
        let region = region_from(durations, true, 0.0, 0.0);
        let a = simulate_region_burst(&region, cores).makespan_ns;
        let b = simulate_region_burst(&region, cores + 1).makespan_ns;
        assert!(b <= a + 1e-6, "{b} > {a} with one more core");
    });
}

/// The locality model always produces normalised service mixes with
/// non-negative probabilities, for arbitrary stream shapes.
#[test]
fn locality_mixes_always_normalised() {
    check_cases(CASES, |rng| {
        let n = 1 + (rng.next_u64() % 5) as usize;
        let trips = 16 + (rng.next_u64() % (1_000_000 - 16)) as u32;
        let streams: Vec<StreamDesc> = (0..n)
            .map(|i| {
                let stride = 8 + (rng.next_u64() % 504) as u32;
                StreamDesc {
                    base: (i as u64) << 28,
                    footprint: 1024 + rng.next_u64() % (64 * 1024 * 1024 - 1024),
                    pattern: match rng.next_u64() % 4 {
                        0 => AccessPattern::Sequential {
                            stride: stride.min(64),
                        },
                        1 => AccessPattern::Strided { stride },
                        2 => AccessPattern::Random,
                        _ => AccessPattern::Local,
                    },
                }
            })
            .collect();
        let body: Vec<InstrTemplate> = (0..n)
            .map(|i| {
                InstrTemplate::mem(
                    if i % 3 == 0 { Op::Store } else { Op::Load },
                    i as u32,
                    i as u8,
                    i % 2 == 0,
                )
            })
            .collect();
        let kernel = Kernel {
            id: 0,
            name: "prop".into(),
            body,
            trip_count: trips,
            fusible_run: 8,
            streams,
        };
        let geom = CacheGeometry::new(&musa_arch::NodeConfig::REFERENCE, 32);
        for loc in analyze_kernel(&kernel, &geom, 1e9).iter().flatten() {
            assert!(loc.mix.is_normalised(), "{:?}", loc.mix);
            assert!(loc.lines_per_access >= 0.0);
            assert!(loc.mem_latency_ns > 0.0);
        }
    });
}
