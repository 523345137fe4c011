//! Principal Component Analysis (§V-C, Fig. 10), implemented from
//! scratch: column standardisation, covariance (= correlation) matrix,
//! and a cyclic Jacobi eigensolver.
//!
//! The paper's PCA uses five variables per simulation: OoO capacity,
//! number of memory channels, SIMD width, cache size and the total
//! cycles, over the 2 GHz / 64-core subset of the design space.

use crate::sim::ConfigResult;

/// Variable names of the paper's PCA, in column order.
pub const PCA_VARS: [&str; 5] = ["OoO struct.", "Mem. BW", "FPU", "Cache size", "Exec. time"];

/// PCA output: eigenvalues (descending) and the corresponding loading
/// vectors (rows of `components`, one per PC, columns = input
/// variables).
#[derive(Debug, Clone, PartialEq)]
pub struct Pca {
    /// Eigenvalues, descending.
    pub eigenvalues: Vec<f64>,
    /// `components[k][j]`: loading of variable `j` on PC `k`.
    pub components: Vec<Vec<f64>>,
    /// Variable names.
    pub vars: Vec<String>,
}

impl Pca {
    /// Fraction of total variance explained by PC `k`.
    pub fn explained(&self, k: usize) -> f64 {
        let total: f64 = self.eigenvalues.iter().sum();
        if total <= 0.0 {
            0.0
        } else {
            self.eigenvalues[k] / total
        }
    }

    /// Loading of a named variable on PC `k`.
    pub fn loading(&self, k: usize, var: &str) -> Option<f64> {
        let j = self.vars.iter().position(|v| v == var)?;
        Some(self.components[k][j])
    }
}

/// Standardise columns to zero mean, unit variance (constant columns
/// become all-zero).
fn standardise(data: &mut [Vec<f64>]) {
    if data.is_empty() {
        return;
    }
    let n = data.len() as f64;
    let cols = data[0].len();
    for j in 0..cols {
        let mean = data.iter().map(|r| r[j]).sum::<f64>() / n;
        let var = data.iter().map(|r| (r[j] - mean).powi(2)).sum::<f64>() / n;
        let sd = var.sqrt();
        for row in data.iter_mut() {
            row[j] = if sd > 1e-12 {
                (row[j] - mean) / sd
            } else {
                0.0
            };
        }
    }
}

/// Covariance matrix of standardised data.
#[allow(clippy::needless_range_loop)] // triangular index math reads better with indices
fn covariance(data: &[Vec<f64>]) -> Vec<Vec<f64>> {
    let n = data.len() as f64;
    let cols = data[0].len();
    let mut c = vec![vec![0.0; cols]; cols];
    for row in data {
        for i in 0..cols {
            for j in i..cols {
                c[i][j] += row[i] * row[j];
            }
        }
    }
    for i in 0..cols {
        for j in i..cols {
            c[i][j] /= n;
            c[j][i] = c[i][j];
        }
    }
    c
}

/// Cyclic Jacobi eigendecomposition of a symmetric matrix. Returns
/// (eigenvalues, eigenvectors as columns), sorted descending.
#[allow(clippy::needless_range_loop)] // simultaneous row/column rotations need indices
fn jacobi_eigen(mut a: Vec<Vec<f64>>) -> (Vec<f64>, Vec<Vec<f64>>) {
    let n = a.len();
    let mut v = vec![vec![0.0; n]; n];
    for (i, row) in v.iter_mut().enumerate() {
        row[i] = 1.0;
    }

    for _sweep in 0..64 {
        let mut off = 0.0;
        for i in 0..n {
            for j in (i + 1)..n {
                off += a[i][j] * a[i][j];
            }
        }
        if off < 1e-22 {
            break;
        }
        for p in 0..n {
            for q in (p + 1)..n {
                if a[p][q].abs() < 1e-15 {
                    continue;
                }
                let theta = (a[q][q] - a[p][p]) / (2.0 * a[p][q]);
                let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;
                // Rotate rows/columns p and q.
                for k in 0..n {
                    let akp = a[k][p];
                    let akq = a[k][q];
                    a[k][p] = c * akp - s * akq;
                    a[k][q] = s * akp + c * akq;
                }
                for k in 0..n {
                    let apk = a[p][k];
                    let aqk = a[q][k];
                    a[p][k] = c * apk - s * aqk;
                    a[q][k] = s * apk + c * aqk;
                }
                for k in 0..n {
                    let vkp = v[k][p];
                    let vkq = v[k][q];
                    v[k][p] = c * vkp - s * vkq;
                    v[k][q] = s * vkp + c * vkq;
                }
            }
        }
    }

    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| a[j][j].total_cmp(&a[i][i]));
    let eigenvalues: Vec<f64> = order.iter().map(|&i| a[i][i]).collect();
    let eigenvectors: Vec<Vec<f64>> = order
        .iter()
        .map(|&col| (0..n).map(|row| v[row][col]).collect())
        .collect();
    (eigenvalues, eigenvectors)
}

/// Run PCA on a raw data matrix (rows = observations).
pub fn pca(mut data: Vec<Vec<f64>>, vars: &[&str]) -> Pca {
    assert!(!data.is_empty(), "PCA needs observations");
    assert!(data.iter().all(|r| r.len() == vars.len()));
    standardise(&mut data);
    let cov = covariance(&data);
    let (eigenvalues, components) = jacobi_eigen(cov);
    Pca {
        eigenvalues,
        components,
        vars: vars.iter().map(|s| s.to_string()).collect(),
    }
}

/// Encode one DSE result row as the paper's five PCA variables.
pub fn result_row(r: &ConfigResult) -> Vec<f64> {
    vec![
        // OoO capacity: ROB size as the scalar proxy.
        r.config.core_class.ooo().rob as f64,
        // Memory bandwidth: channel count × per-channel peak.
        r.config.mem.peak_bandwidth_gbs(),
        // SIMD width in bits.
        r.config.vector.bits() as f64,
        // Cache size: L3 bytes.
        r.config.cache.l3().size_bytes as f64,
        // Execution time of the region, converted to cycles at the
        // configured frequency (the paper uses total cycles).
        r.region_ns * r.config.freq.ghz(),
    ]
}

/// PCA over a set of results (the caller filters to the 2 GHz / 64-core
/// subset as the paper does).
pub fn pca_of_results(results: &[ConfigResult]) -> Pca {
    pca(results.iter().map(result_row).collect(), &PCA_VARS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jacobi_solves_known_matrix() {
        // [[2,1],[1,2]] has eigenvalues 3 and 1.
        let (vals, vecs) = jacobi_eigen(vec![vec![2.0, 1.0], vec![1.0, 2.0]]);
        assert!((vals[0] - 3.0).abs() < 1e-10);
        assert!((vals[1] - 1.0).abs() < 1e-10);
        // Eigenvector for 3 is (1,1)/√2.
        let v = &vecs[0];
        assert!((v[0].abs() - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-10);
        assert!((v[0] - v[1]).abs() < 1e-10);
    }

    #[test]
    fn components_are_orthonormal() {
        let data: Vec<Vec<f64>> = (0..100)
            .map(|i| {
                let x = i as f64 / 10.0;
                vec![x, 2.0 * x + (i % 7) as f64, (i % 3) as f64, x * x]
            })
            .collect();
        let p = pca(data, &["a", "b", "c", "d"]);
        for i in 0..4 {
            for j in 0..4 {
                let dot: f64 = (0..4)
                    .map(|k| p.components[i][k] * p.components[j][k])
                    .sum();
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((dot - expect).abs() < 1e-8, "({i},{j}): {dot}");
            }
        }
    }

    #[test]
    fn correlated_variables_share_a_component() {
        // y = -x (+ tiny noise): PC0 must load both with opposite signs
        // and explain nearly all variance.
        let data: Vec<Vec<f64>> = (0..200)
            .map(|i| {
                let x = i as f64;
                vec![x, -x + 0.001 * ((i * 7919) % 13) as f64]
            })
            .collect();
        let p = pca(data, &["x", "y"]);
        assert!(p.explained(0) > 0.99, "{}", p.explained(0));
        let lx = p.loading(0, "x").unwrap();
        let ly = p.loading(0, "y").unwrap();
        assert!(lx * ly < 0.0, "opposite signs: {lx} {ly}");
        assert!((lx.abs() - ly.abs()).abs() < 0.01);
    }

    #[test]
    fn explained_fractions_sum_to_one() {
        let data: Vec<Vec<f64>> = (0..60)
            .map(|i| vec![(i % 5) as f64, (i % 7) as f64, (i % 11) as f64])
            .collect();
        let p = pca(data, &["a", "b", "c"]);
        let sum: f64 = (0..3).map(|k| p.explained(k)).sum();
        assert!((sum - 1.0).abs() < 1e-9);
        // Eigenvalues descending.
        assert!(p.eigenvalues.windows(2).all(|w| w[0] >= w[1] - 1e-12));
    }
}
