//! Property tests of the DRAM controller: timing legality and service
//! guarantees under arbitrary request streams.

use musa_mem::{Channel, DramTiming, Request};
use musa_obs::rng::{check_cases, SplitMix64};

const CASES: u64 = 64;

/// Between 1 and `max_len - 1` requests `(bank, row, is_write, ready_ns)`
/// over `max_bank` banks.
fn requests(rng: &mut SplitMix64, max_bank: u64, max_len: u64) -> Vec<(u32, u64, bool, f64)> {
    let len = 1 + rng.next_u64() % (max_len - 1);
    (0..len)
        .map(|_| {
            (
                (rng.next_u64() % max_bank) as u32,
                rng.next_u64() % 64,
                rng.next_u64() & 1 == 1,
                rng.next_f64() * 50_000.0,
            )
        })
        .collect()
}

/// Every queued request is serviced exactly once, and no completion
/// precedes its request's ready time plus the minimum possible service
/// latency (a row hit).
#[test]
fn every_request_serviced_after_minimum_latency() {
    check_cases(CASES, |rng| {
        let reqs = requests(rng, 16, 80);
        let timing = DramTiming::ddr4_2400();
        let mut ch = Channel::new(timing);
        for (i, (bank, row, is_write, ready)) in reqs.iter().enumerate() {
            ch.push(Request {
                id: i as u64,
                bank: *bank,
                row: *row,
                is_write: *is_write,
                ready_ns: *ready,
            });
        }
        let done = ch.drain();
        assert_eq!(done.len(), reqs.len());

        let mut seen = std::collections::HashSet::new();
        for c in &done {
            assert!(seen.insert(c.id), "duplicate completion {}", c.id);
            let (_, _, is_write, ready) = reqs[c.id as usize];
            let min_cas = if is_write { timing.cwl } else { timing.cl };
            let min = timing.cycles_to_ns(min_cas + timing.bl);
            assert!(
                c.done_ns >= ready + min - 1e-9,
                "id {} done {} < ready {} + min {}",
                c.id,
                c.done_ns,
                ready,
                min
            );
        }
        assert_eq!(seen.len(), reqs.len());
    });
}

/// The data bus never exceeds its physical throughput: total busy time
/// is exactly bursts × burst time, and achieved bandwidth never exceeds
/// the peak.
#[test]
fn bus_throughput_is_bounded() {
    check_cases(CASES, |rng| {
        let reqs = requests(rng, 16, 120);
        let timing = DramTiming::ddr4_2400();
        let mut ch = Channel::new(timing);
        for (i, (bank, row, is_write, _)) in reqs.iter().enumerate() {
            ch.push(Request {
                id: i as u64,
                bank: *bank,
                row: *row,
                is_write: *is_write,
                ready_ns: 0.0,
            });
        }
        ch.drain();
        let s = ch.stats();
        let expect_busy = reqs.len() as f64 * timing.cycles_to_ns(timing.bl);
        assert!((s.bus_busy_ns - expect_busy).abs() < 1e-6);
        assert!(s.achieved_gbs() <= timing.peak_gbs() + 1e-9);
    });
}

/// Row-buffer accounting is exhaustive: every request is classified as
/// exactly one of hit / closed / conflict.
#[test]
fn row_outcomes_partition_requests() {
    check_cases(CASES, |rng| {
        let reqs = requests(rng, 8, 100);
        let mut ch = Channel::new(DramTiming::ddr4_2400());
        for (i, (bank, row, is_write, ready)) in reqs.iter().enumerate() {
            ch.push(Request {
                id: i as u64,
                bank: *bank,
                row: *row,
                is_write: *is_write,
                ready_ns: *ready,
            });
        }
        ch.drain();
        let s = ch.stats();
        assert_eq!(
            s.row_hits + s.row_closed + s.row_conflicts,
            reqs.len() as u64
        );
        assert_eq!(s.reads + s.writes, reqs.len() as u64);
    });
}

/// Activations are never more frequent than requests, and a same-row
/// re-access right after an access is always a hit.
#[test]
fn acts_bounded_and_rehits_hit() {
    check_cases(CASES, |rng| {
        let bank = (rng.next_u64() % 16) as u32;
        let row = rng.next_u64() % 32;
        let mut ch = Channel::new(DramTiming::ddr4_2400());
        let d1 = ch.service_one(Request {
            id: 0,
            bank,
            row,
            is_write: false,
            ready_ns: 0.0,
        });
        ch.service_one(Request {
            id: 1,
            bank,
            row,
            is_write: false,
            ready_ns: d1,
        });
        let s = ch.stats();
        assert_eq!(s.acts, 1);
        assert_eq!(s.row_hits, 1);
    });
}
