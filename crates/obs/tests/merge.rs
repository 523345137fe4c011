//! Lossless merging of thread-local shards.
//!
//! Counter updates land in per-thread shards; a thread's shard merges
//! into the global base when the thread exits, and `snapshot()` folds
//! the base with every still-live shard. Both paths must lose nothing.

#![cfg(feature = "runtime")]

use musa_obs::{counter_add, enable_metrics, gauge_set, hist_observe, snapshot};

#[test]
fn concurrent_increments_merge_losslessly_after_thread_exit() {
    enable_metrics(true);
    // N workers hammering one counter. std threads exit at scope end,
    // which drives the merge-on-drop path (long-lived threads exercise
    // the live-shard fold instead;
    // `increments_from_live_threads_are_visible` covers that).
    const THREADS: u64 = 8;
    const PER_THREAD: u64 = 10_000;
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            s.spawn(|| {
                for _ in 0..PER_THREAD {
                    counter_add("merge.exited", 1);
                }
            });
        }
    });
    assert_eq!(snapshot().counter("merge.exited"), THREADS * PER_THREAD);
}

#[test]
fn increments_from_live_threads_are_visible() {
    enable_metrics(true);
    // A worker that has recorded but not exited: its shard is still
    // live, and the snapshot must fold it in.
    let (tx, rx) = std::sync::mpsc::channel::<()>();
    let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
    let worker = std::thread::spawn(move || {
        counter_add("merge.live", 7);
        done_tx.send(()).unwrap();
        // Stay alive until the main thread has snapshotted.
        rx.recv().ok();
    });
    done_rx.recv().unwrap();
    assert_eq!(snapshot().counter("merge.live"), 7);
    tx.send(()).ok();
    worker.join().unwrap();
    // And nothing is double-counted once the thread exits.
    assert_eq!(snapshot().counter("merge.live"), 7);
}

#[test]
fn histograms_merge_across_threads() {
    enable_metrics(true);
    std::thread::scope(|s| {
        for t in 0..4u64 {
            s.spawn(move || {
                for i in 0..100u64 {
                    hist_observe("merge.hist", (t * 100 + i) as f64);
                }
            });
        }
    });
    let snap = snapshot();
    let h = &snap.histograms["merge.hist"];
    assert_eq!(h.count, 400);
    assert_eq!(h.min, 0.0);
    assert_eq!(h.max, 399.0);
    // Sum of 0..400.
    assert_eq!(h.sum, (399.0 * 400.0) / 2.0);
    assert_eq!(h.buckets.iter().sum::<u64>(), 400);
}

#[test]
fn gauges_take_the_last_write() {
    enable_metrics(true);
    gauge_set("merge.gauge", 1.0);
    gauge_set("merge.gauge", 42.0);
    assert_eq!(snapshot().gauges["merge.gauge"], 42.0);
}
