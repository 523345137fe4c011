//! Property tests of the analysis machinery: PCA linear algebra and the
//! paired-normalisation bookkeeping.

use musa_arch::Feature;
use musa_core::pca::pca;
use musa_obs::rng::check_cases;

/// PCA invariants on arbitrary data: orthonormal components,
/// non-negative eigenvalues in descending order, explained variance
/// summing to one (when any variance exists).
#[test]
fn pca_invariants() {
    check_cases(32, |rng| {
        let n = 8 + (rng.next_u64() % 52) as usize;
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..4).map(|_| (rng.next_f64() * 2.0 - 1.0) * 1e3).collect())
            .collect();
        let p = pca(rows, &["a", "b", "c", "d"]);
        // Eigenvalues sorted descending and ≥ ~0.
        for w in p.eigenvalues.windows(2) {
            assert!(w[0] >= w[1] - 1e-9);
        }
        for &e in &p.eigenvalues {
            assert!(e >= -1e-9);
        }
        // Orthonormal loading vectors.
        for i in 0..4 {
            for j in 0..4 {
                let dot: f64 = (0..4)
                    .map(|k| p.components[i][k] * p.components[j][k])
                    .sum();
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((dot - expect).abs() < 1e-6, "({i},{j}) dot {dot}");
            }
        }
        let total: f64 = p.eigenvalues.iter().sum();
        if total > 1e-9 {
            let sum: f64 = (0..4).map(|k| p.explained(k)).sum();
            assert!((sum - 1.0).abs() < 1e-9);
        }
    });
}

/// The feature-erased key partitions the design space into groups of
/// exactly the feature's cardinality, for every feature — the property
/// the "96 samples per bar" methodology rests on.
#[test]
fn erased_key_groups_have_full_cardinality() {
    check_cases(32, |rng| {
        let feature = Feature::ALL[(rng.next_u64() % 6) as usize];
        let mut groups: std::collections::HashMap<String, usize> = Default::default();
        for cfg in musa_arch::DesignSpace::iter() {
            *groups.entry(feature.erased_key(&cfg)).or_default() += 1;
        }
        let k = feature.cardinality();
        assert_eq!(groups.len(), 864 / k);
        assert!(groups.values().all(|&n| n == k));
    });
}
