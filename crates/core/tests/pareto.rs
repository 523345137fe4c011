//! The Pareto kernel against first principles: `pareto_front_indices`
//! must select exactly the non-dominated set, where *a dominates b* iff
//! a ≤ b in both coordinates and < in at least one. The property runs
//! over seeded random point clouds, including duplicates and
//! non-finite coordinates.

use musa_core::{dominated_hypervolume, pareto_front_indices};
use musa_obs::rng::{check_cases, SplitMix64};

/// Brute-force O(n²) reference: keep every point no other point
/// dominates. Non-finite points are excluded on both sides of the
/// comparison, mirroring the kernel's contract.
fn brute_force_front(points: &[(f64, f64)]) -> Vec<usize> {
    let finite = |i: usize| points[i].0.is_finite() && points[i].1.is_finite();
    let dominates =
        |a: (f64, f64), b: (f64, f64)| a.0 <= b.0 && a.1 <= b.1 && (a.0 < b.0 || a.1 < b.1);
    (0..points.len())
        .filter(|&i| finite(i))
        .filter(|&i| {
            !(0..points.len()).any(|j| j != i && finite(j) && dominates(points[j], points[i]))
        })
        .collect()
}

fn sorted(mut v: Vec<usize>) -> Vec<usize> {
    v.sort_unstable();
    v
}

fn check(points: &[(f64, f64)]) {
    let fast = pareto_front_indices(points);
    // Output order contract: (x, y, index) ascending.
    for w in fast.windows(2) {
        let (a, b) = (points[w[0]], points[w[1]]);
        assert!(
            a.0.total_cmp(&b.0)
                .then(a.1.total_cmp(&b.1))
                .then(w[0].cmp(&w[1]))
                .is_lt(),
            "frontier not sorted: {a:?} !< {b:?}"
        );
    }
    assert_eq!(
        sorted(fast),
        sorted(brute_force_front(points)),
        "kernel disagrees with brute force on {points:?}"
    );
}

#[test]
fn pareto_matches_brute_force_with_non_finite_points() {
    // Clustered values force x/y ties and exact duplicates; every
    // 17th/23rd coordinate goes non-finite to exercise the NaN-safe
    // path.
    let mut rng = SplitMix64::new(0x9e37);
    let mut next = move || rng.next_u64();
    for case in 0..200 {
        let n = (next() % 40) as usize;
        let mut points = Vec::with_capacity(n);
        for k in 0..n {
            let mut x = (next() % 8) as f64;
            let mut y = (next() % 8) as f64;
            if case % 3 == 0 && k % 17 == 5 {
                x = f64::NAN;
            }
            if case % 3 == 1 && k % 23 == 7 {
                y = f64::INFINITY;
            }
            points.push((x, y));
        }
        check(&points);
    }
}

#[test]
fn pareto_of_all_duplicates_keeps_everything() {
    let points = vec![(2.0, 3.0); 9];
    assert_eq!(pareto_front_indices(&points), (0..9).collect::<Vec<_>>());
}

/// Brute-force O(n·grid) hypervolume reference: integrate the
/// dominated region on a fine grid of cells over `[0, ref] × [0, ref]`
/// and sum the area of cells whose centre is dominated by some point.
/// Converges to the sweep's exact answer as the grid refines; the
/// tests use integer-coordinate points so a grid aligned to half-unit
/// cells is *exact*.
fn brute_force_hypervolume(points: &[(f64, f64)], reference: (f64, f64), grid: usize) -> f64 {
    let (rx, ry) = reference;
    let (dx, dy) = (rx / grid as f64, ry / grid as f64);
    let mut cells = 0usize;
    for i in 0..grid {
        let cx = (i as f64 + 0.5) * dx;
        for j in 0..grid {
            let cy = (j as f64 + 0.5) * dy;
            let dominated = points.iter().any(|&(x, y)| {
                x.is_finite() && y.is_finite() && x < rx && y < ry && x <= cx && y <= cy
            });
            if dominated {
                cells += 1;
            }
        }
    }
    cells as f64 * dx * dy
}

#[test]
fn hypervolume_single_point() {
    // One point at (2, 3) against ref (10, 10): rectangle 8 × 7.
    assert_eq!(dominated_hypervolume(&[(2.0, 3.0)], (10.0, 10.0)), 56.0);
}

#[test]
fn hypervolume_empty_and_out_of_bounds() {
    assert_eq!(dominated_hypervolume(&[], (10.0, 10.0)), 0.0);
    // At or beyond the reference in either coordinate: no contribution.
    let pts = [(10.0, 1.0), (1.0, 10.0), (11.0, 11.0), (f64::NAN, 1.0)];
    assert_eq!(dominated_hypervolume(&pts, (10.0, 10.0)), 0.0);
}

#[test]
fn hypervolume_dominated_points_add_nothing() {
    let front = [(1.0, 5.0), (3.0, 2.0)];
    let with_dominated = [(1.0, 5.0), (3.0, 2.0), (4.0, 6.0), (3.0, 2.0), (2.0, 5.0)];
    assert_eq!(
        dominated_hypervolume(&front, (10.0, 10.0)),
        dominated_hypervolume(&with_dominated, (10.0, 10.0)),
    );
}

#[test]
fn hypervolume_two_point_staircase_by_hand() {
    // (1, 5) and (3, 2) vs ref (10, 10):
    //   (1,5): (10-1) × (10-5) = 45
    //   (3,2): (10-3) × (5-2)  = 21
    assert_eq!(
        dominated_hypervolume(&[(1.0, 5.0), (3.0, 2.0)], (10.0, 10.0)),
        66.0
    );
}

#[test]
fn hypervolume_monotone_in_points() {
    // Adding a non-dominated point can only grow the hypervolume.
    let mut pts: Vec<(f64, f64)> = vec![(6.0, 1.0)];
    let mut last = dominated_hypervolume(&pts, (8.0, 8.0));
    for p in [(4.0, 3.0), (2.0, 5.0), (1.0, 7.0)] {
        pts.push(p);
        let hv = dominated_hypervolume(&pts, (8.0, 8.0));
        assert!(hv > last, "adding {p:?} must grow hv ({hv} vs {last})");
        last = hv;
    }
}

#[test]
fn hypervolume_matches_brute_force_with_non_finite_points() {
    // Clouds on an integer grid: the half-unit aligned grid integration
    // is exact there, so sweep == brute force to f64 round-off.
    let mut rng = SplitMix64::new(0x1234);
    let mut next = move || rng.next_u64();
    for case in 0..50 {
        let n = (next() % 20) as usize;
        let mut points = Vec::with_capacity(n);
        for k in 0..n {
            let mut x = (next() % 12) as f64;
            let y = (next() % 12) as f64;
            if case % 4 == 0 && k % 7 == 3 {
                x = f64::NAN;
            }
            points.push((x, y));
        }
        let fast = dominated_hypervolume(&points, (10.0, 10.0));
        let brute = brute_force_hypervolume(&points, (10.0, 10.0), 20);
        assert!(
            (fast - brute).abs() < 1e-9,
            "hv sweep {fast} != brute force {brute} on {points:?}"
        );
    }
}

const CASES: u64 = 256;

/// Fewer than `max_len` points on the integer grid `[0, side)²`.
fn grid_cloud(rng: &mut SplitMix64, max_len: u64, side: u64) -> Vec<(f64, f64)> {
    (0..rng.next_u64() % max_len)
        .map(|_| {
            (
                (rng.next_u64() % side) as f64,
                (rng.next_u64() % side) as f64,
            )
        })
        .collect()
}

/// Random clouds over a small integer grid (maximising ties and
/// duplicates): the sweep kernel equals the O(n²) dominance definition.
#[test]
fn kernel_equals_brute_force() {
    check_cases(CASES, |rng| check(&grid_cloud(rng, 60, 16)));
}

/// Random integer clouds: the O(n log n) hypervolume sweep equals the
/// O(n·grid) cell integration (exact on half-unit aligned grids).
#[test]
fn hypervolume_equals_brute_force() {
    check_cases(CASES, |rng| {
        let points = grid_cloud(rng, 30, 12);
        let fast = dominated_hypervolume(&points, (10.0, 10.0));
        let brute = brute_force_hypervolume(&points, (10.0, 10.0), 20);
        assert!((fast - brute).abs() < 1e-9);
    });
}

/// Scaling both coordinates by a positive factor never changes the
/// frontier membership.
#[test]
fn frontier_is_scale_invariant() {
    check_cases(CASES, |rng| {
        let points = grid_cloud(rng, 40, 16);
        let scale = (1 + rng.next_u64() % 999) as f64;
        let scaled: Vec<(f64, f64)> = points
            .iter()
            .map(|&(x, y)| (x * scale, y * scale))
            .collect();
        assert_eq!(pareto_front_indices(&points), pareto_front_indices(&scaled));
    });
}
