//! Property tests of the trace data model.

use musa_obs::rng::check_cases;
use musa_trace::{AppTrace, BurstEvent, ComputeRegion, RankTrace, RegionWork, TraceMeta, WorkItem};

fn arb_region(n_items: usize, chained: bool) -> ComputeRegion {
    let items: Vec<WorkItem> = (0..n_items)
        .map(|i| WorkItem::simple(10.0 + i as f64))
        .collect();
    // A chain: each task waits for the position before it.
    let deps = if chained {
        (0..n_items)
            .map(|i| i.checked_sub(1).map(|p| p as u32).into_iter().collect())
            .collect()
    } else {
        Vec::new()
    };
    ComputeRegion {
        region_id: 0,
        work: RegionWork::Tasks { items, deps },
        spawn_overhead_ns: 0.0,
        dispatch_overhead_ns: 0.0,
    }
}

const CASES: u64 = 64;

/// Validation accepts well-formed traces, chained or not, and rejects
/// negative or non-finite durations, critical tails longer than their
/// item, and an edge to the task's own or a later position.
#[test]
fn validate_catches_bad_durations() {
    check_cases(CASES, |rng| {
        let n = 1 + (rng.next_u64() % 19) as usize;
        let idx = (rng.next_u64() % 20) as usize % n;
        let bad_kind = rng.next_u64() % 4;
        let chained = rng.next_u64() & 1 == 1;

        let mut region = arb_region(n, chained);
        let trace_of = |region: ComputeRegion| AppTrace {
            meta: TraceMeta::new("p", 1, 1, 0),
            ranks: vec![RankTrace {
                rank: 0,
                events: vec![BurstEvent::Compute(region)],
            }],
            detail: None,
        };
        assert!(trace_of(region.clone()).validate().is_ok());

        if let RegionWork::Tasks { items, deps } = &mut region.work {
            match bad_kind {
                0 => items[idx].duration_ns = -1.0,
                1 => items[idx].duration_ns = f64::NAN,
                2 => items[idx].critical_ns = items[idx].duration_ns + 1.0,
                // Task `idx` waits for its own or a later position.
                _ => {
                    deps.resize(n, Vec::new());
                    deps[idx].push((idx + (rng.next_u64() % 3) as usize) as u32);
                }
            }
        }
        assert!(trace_of(region).validate().is_err());
    });
}
