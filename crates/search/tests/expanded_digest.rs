//! The expanded space's golden digest. Every 97th configuration of the
//! 20,736-point expanded space, for each of the five applications, is
//! simulated by `MemEvaluator` at tiny scale with the full replay, and
//! the bits of each `(time_ns, energy_j)` are hashed. Unlike the paper
//! grid, which is DDR4 at 4 or 8 channels and three vector widths, the
//! slice meets HBM, 1–64 channels and all six widths: a simulator change
//! that reads an axis it used not to, or stops reading one it did, moves
//! the digest. Both ways of running the slice — one evaluator for every
//! point, and a fresh one per point — must give the pinned value, which
//! last moved with the OoO window's stop rule (a declared model change).

use musa_apps::{AppId, GenParams};
use musa_arch::NodeConfig;
use musa_core::SweepOptions;
use musa_search::{Evaluator, MemEvaluator, SearchSpace, SpaceId};

/// FNV-1a 64 over the little-endian bits of every value, in point order.
const GOLDEN_EXPANDED_DIGEST: u64 = 0xbd0e_f858_a246_d427;
/// Prime, and so coprime with every axis radix: the slice's digits
/// cycle through every value of every axis.
const STRIDE: usize = 97;

fn slice_indices(space: &SearchSpace) -> Vec<u64> {
    (0..space.len()).step_by(STRIDE).collect()
}

/// Application-major: every configuration of the slice for each app.
fn slice_points() -> Vec<(AppId, NodeConfig)> {
    let space = SearchSpace::new(SpaceId::Expanded);
    let configs: Vec<NodeConfig> = slice_indices(&space)
        .into_iter()
        .map(|i| space.config(i))
        .collect();
    AppId::ALL
        .into_iter()
        .flat_map(|app| configs.iter().map(move |&cfg| (app, cfg)))
        .collect()
}

fn evaluator() -> MemEvaluator {
    MemEvaluator::new(SweepOptions {
        gen: GenParams::tiny(),
        full_replay: true,
    })
}

fn digest(values: &[(f64, f64)]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &(time_ns, energy_j) in values {
        for byte in [time_ns, energy_j]
            .iter()
            .flat_map(|v| v.to_bits().to_le_bytes())
        {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[test]
fn the_slice_meets_every_value_of_every_axis() {
    let space = SearchSpace::new(SpaceId::Expanded);
    let radices = space.radices();
    let mut seen: [std::collections::BTreeSet<u64>; 6] = Default::default();
    for i in slice_indices(&space) {
        for (axis, digit) in space.digits(i).into_iter().enumerate() {
            seen[axis].insert(digit);
        }
    }
    for (axis, values) in seen.iter().enumerate() {
        assert_eq!(values.len() as u64, radices[axis], "axis {axis}");
    }
}

#[test]
#[ignore = "1,070 points twice; scripts/check.sh runs it in release"]
fn expanded_slice_matches_the_golden_digest_shared_and_fresh() {
    let points = slice_points();
    assert_eq!(points.len(), 5 * 214);

    let shared = evaluator().evaluate(&points);
    assert_eq!(digest(&shared), GOLDEN_EXPANDED_DIGEST, "one evaluator");

    let fresh: Vec<(f64, f64)> = points
        .iter()
        .map(|point| evaluator().evaluate(std::slice::from_ref(point))[0])
        .collect();
    assert_eq!(
        digest(&fresh),
        GOLDEN_EXPANDED_DIGEST,
        "an evaluator per point"
    );
}
