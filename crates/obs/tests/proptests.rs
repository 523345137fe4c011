//! Property tests for the sharded metrics registry.

#![cfg(feature = "runtime")]

use musa_obs::rng::check_cases;
use musa_obs::{counter_add, enable_metrics, snapshot};

/// Concurrent counter increments from N threads merge losslessly: the
/// snapshot total is exactly the sum of every thread's local
/// increments, whether the shard was folded live or merged on thread
/// exit.
#[test]
fn concurrent_counter_increments_merge_losslessly() {
    enable_metrics(true);
    let mut case = 0;
    check_cases(16, |rng| {
        let threads = 1 + rng.next_u64() % 8;
        let per_thread: Vec<u64> = (0..threads).map(|_| 1 + rng.next_u64() % 499).collect();
        let delta = 1 + rng.next_u64() % 4;
        // The registry is process-global: one name per case, leaked so
        // it is 'static as the registry requires; bounded by the case
        // count.
        let name: &'static str = Box::leak(format!("prop.merge.{case}").into_boxed_str());
        case += 1;
        let expected: u64 = per_thread.iter().map(|n| n * delta).sum();
        std::thread::scope(|s| {
            for &n in &per_thread {
                s.spawn(move || {
                    for _ in 0..n {
                        counter_add(name, delta);
                    }
                });
            }
        });
        assert_eq!(snapshot().counter(name), expected);
    });
}
