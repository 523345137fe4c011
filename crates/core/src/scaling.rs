//! The §V-A scaling study (Fig. 2): hardware-agnostic burst-mode
//! simulations of (a) a single representative compute region and (b) the
//! whole parallel region including MPI overheads.

use musa_apps::{generate, AppId, GenParams};
use musa_arch::CoresPerNode;
use musa_tasksim::simulate_region_burst;

use crate::sim::MultiscaleSim;

/// Core counts of the scaling study: the design space's.
pub const SCALING_CORES: [CoresPerNode; 3] = CoresPerNode::ALL;

/// Speedups of one application at the studied core counts.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalingCurve {
    /// Application label.
    pub app: String,
    /// `(cores, speedup)` pairs, ascending cores; speedup vs 1 core.
    pub points: Vec<(u32, f64)>,
}

impl ScalingCurve {
    /// Speedup at a core count.
    pub fn speedup(&self, cores: u32) -> Option<f64> {
        self.points.iter().find(|p| p.0 == cores).map(|p| p.1)
    }

    /// Parallel efficiency at a core count.
    pub fn efficiency(&self, cores: u32) -> Option<f64> {
        self.speedup(cores).map(|s| s / cores as f64)
    }
}

/// Fig. 2a: scaling of the single representative compute region,
/// hardware-agnostic (no cache or bandwidth contention).
pub fn region_scaling(app: AppId, gen: &GenParams) -> ScalingCurve {
    let trace = generate(app, gen);
    let region = trace.sampled_region().expect("sampled region");
    let t1 = simulate_region_burst(region, 1).makespan_ns;
    let points = SCALING_CORES
        .map(|c| {
            let c = c.count();
            (c, t1 / simulate_region_burst(region, c).makespan_ns)
        })
        .into();
    ScalingCurve {
        app: app.label().to_string(),
        points,
    }
}

/// Fig. 2b: scaling of the full parallel region including MPI overheads
/// over the MareNostrum4-class network.
pub fn full_app_scaling(app: AppId, gen: &GenParams) -> ScalingCurve {
    let trace = generate(app, gen);
    let sim = MultiscaleSim::new(&trace);
    let t1 = sim.burst_replay(CoresPerNode::C1).total_ns;
    let points = SCALING_CORES
        .map(|c| (c.count(), t1 / sim.burst_replay(c).total_ns))
        .into();
    ScalingCurve {
        app: app.label().to_string(),
        points,
    }
}

/// Average parallel efficiency across applications at a core count.
pub fn mean_efficiency(curves: &[ScalingCurve], cores: u32) -> f64 {
    let effs: Vec<f64> = curves.iter().filter_map(|c| c.efficiency(cores)).collect();
    effs.iter().sum::<f64>() / effs.len().max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hydro_scales_best_in_compute_region() {
        let gen = GenParams::tiny();
        let hydro = region_scaling(AppId::Hydro, &gen);
        let spec = region_scaling(AppId::Spec3d, &gen);
        let h64 = hydro.efficiency(64).unwrap();
        let s64 = spec.efficiency(64).unwrap();
        assert!(h64 > 0.75, "hydro 64-core efficiency {h64} (paper: >75 %)");
        assert!(s64 < 0.35, "spec3d starves: {s64}");
        assert!(h64 > s64);
    }

    #[test]
    fn spmz_is_flat_between_32_and_64_cores() {
        let c = region_scaling(AppId::Spmz, &GenParams::tiny());
        let s32 = c.speedup(32).unwrap();
        let s64 = c.speedup(64).unwrap();
        assert!(
            (s64 - s32).abs() / s32 < 0.1,
            "spmz flat: {s32} vs {s64} (Fig. 2a)"
        );
        assert!(s32 > 15.0 && s32 < 28.0, "spmz speedup ≈22: {s32}");
    }

    #[test]
    fn mpi_reduces_efficiency_further() {
        // Needs enough ranks for the rank-imbalance maximum to bite
        // (E[max] over 64 ranks ≫ over 4).
        let gen = GenParams::small();
        for app in [AppId::Lulesh, AppId::Btmz] {
            let region = region_scaling(app, &gen);
            let full = full_app_scaling(app, &gen);
            let r = region.efficiency(32).unwrap();
            let f = full.efficiency(32).unwrap();
            assert!(
                f < r,
                "{app}: full-app efficiency {f} must trail compute-only {r}"
            );
        }
    }

    #[test]
    fn mean_efficiency_drops_with_cores() {
        let gen = GenParams::tiny();
        let curves: Vec<ScalingCurve> = AppId::ALL
            .iter()
            .map(|&a| region_scaling(a, &gen))
            .collect();
        let e32 = mean_efficiency(&curves, 32);
        let e64 = mean_efficiency(&curves, 64);
        // Paper: ≈70 % at 32 cores dropping to ≈50 % at 64.
        assert!(e32 > 0.5 && e32 < 0.92, "mean efficiency @32 {e32}");
        assert!(e64 < e32, "efficiency must drop: {e64} vs {e32}");
        assert!(e64 < 0.75, "mean efficiency @64 {e64}");
    }
}
