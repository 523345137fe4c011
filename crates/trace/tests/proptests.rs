//! Property tests of the trace data model.

use musa_obs::rng::check_cases;
use musa_trace::{
    AppTrace, BurstEvent, ComputeRegion, LoopSchedule, RankTrace, RegionWork, TraceMeta, WorkItem,
};

fn arb_region(n_items: usize, chained: bool) -> ComputeRegion {
    let items: Vec<WorkItem> = (0..n_items)
        .map(|i| {
            let mut w = WorkItem::simple(i as u32, 10.0 + i as f64);
            if chained && i > 0 {
                w.deps = vec![(i - 1) as u32];
            }
            w
        })
        .collect();
    ComputeRegion {
        region_id: 0,
        name: "r".into(),
        work: RegionWork::Tasks { items },
        spawn_overhead_ns: 0.0,
        dispatch_overhead_ns: 0.0,
    }
}

const CASES: u64 = 64;

/// The critical path of a task DAG never exceeds the serial time and
/// is at least the longest item; a full chain has critical path ==
/// serial time.
#[test]
fn critical_path_bounds() {
    check_cases(CASES, |rng| {
        let n = 1 + (rng.next_u64() % 39) as usize;
        let chained = rng.next_u64() & 1 == 1;
        let region = arb_region(n, chained);
        let serial = region.work.serial_time_ns();
        let longest = region
            .work
            .items()
            .iter()
            .map(|w| w.duration_ns)
            .fold(0.0, f64::max);
        let cp = region.critical_path_ns();
        assert!(cp <= serial + 1e-9);
        assert!(cp >= longest - 1e-9);
        if chained {
            assert!((cp - serial).abs() < 1e-9);
        }
    });
}

/// Validation accepts well-formed traces and rejects negative or
/// non-finite durations and forward dependencies.
#[test]
fn validate_catches_bad_durations() {
    check_cases(CASES, |rng| {
        let n = 1 + (rng.next_u64() % 19) as usize;
        let idx = (rng.next_u64() % 20) as usize % n;
        let bad_kind = rng.next_u64() % 3;

        let mut region = arb_region(n, false);
        let trace_of = |region: ComputeRegion| AppTrace {
            meta: TraceMeta::new("p", 1, 1, 0),
            ranks: vec![RankTrace {
                rank: 0,
                events: vec![BurstEvent::Compute(region)],
            }],
            detail: None,
        };
        assert!(trace_of(region.clone()).validate().is_ok());

        if let RegionWork::Tasks { items } = &mut region.work {
            match bad_kind {
                0 => items[idx].duration_ns = -1.0,
                1 => items[idx].duration_ns = f64::NAN,
                _ => items[idx].critical_ns = items[idx].duration_ns + 1.0,
            }
        }
        assert!(trace_of(region).validate().is_err());
    });
}

/// Parallel-for regions report the max chunk as critical path for
/// arbitrary chunk sets.
#[test]
fn parallel_for_critical_path_is_max() {
    check_cases(CASES, |rng| {
        let durations: Vec<f64> = (0..1 + rng.next_u64() % 49)
            .map(|_| rng.next_f64() * 1e6)
            .collect();
        let region = ComputeRegion {
            region_id: 0,
            name: "pf".into(),
            work: RegionWork::ParallelFor {
                chunks: durations
                    .iter()
                    .enumerate()
                    .map(|(i, &d)| WorkItem::simple(i as u32, d))
                    .collect(),
                schedule: LoopSchedule::Dynamic,
            },
            spawn_overhead_ns: 0.0,
            dispatch_overhead_ns: 0.0,
        };
        let max = durations.iter().copied().fold(0.0, f64::max);
        assert!((region.critical_path_ns() - max).abs() < 1e-9);
    });
}
