//! # musa-apps
//!
//! Synthetic workload models of the five hybrid MPI+OpenMP/OmpSs
//! applications evaluated in the paper (§IV-B): **HYDRO**, **SP-MZ**,
//! **BT-MZ**, **Specfem3D** and **LULESH**.
//!
//! The paper traces the real applications with Extrae (burst level) and
//! DynamoRIO (instruction level) on MareNostrum; those traces then drive
//! every simulation. We cannot ship the applications or their traces, so
//! each model here *generates* the two trace levels directly, encoding the
//! application's published computational structure:
//!
//! * MPI decomposition and communication pattern (halo exchanges,
//!   reductions, barriers) and rank-level load imbalance;
//! * runtime-system structure: task counts, task-size skew, parallel-loop
//!   chunking, serialised segments, critical sections — the properties
//!   that produce the paper's scaling results (Fig. 2) and timeline
//!   pathologies (Figs. 3, 4);
//! * instruction-level character: instruction mix, dependency structure,
//!   memory-access streams (footprints and patterns calibrated to the
//!   Fig. 1 MPKI profile), vectorisable fraction and the basic-block
//!   repeat lengths that gate the §III SIMD fusion model.
//!
//! All generators are deterministic given a seed.

pub mod btmz;
pub mod builder;
pub mod common;
pub mod hydro;
pub mod lulesh;
pub mod spec3d;
pub mod spmz;

use musa_trace::AppTrace;

/// The five applications of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AppId {
    /// HYDRO: simplified RAMSES, compressible Euler equations, Godunov
    /// method. The best-scaling application of the study.
    Hydro,
    /// NAS SP multi-zone: diagonal matrix solver, limited zone-level
    /// parallelism, highly vectorisable long loops.
    Spmz,
    /// NAS BT multi-zone: diagonal matrix solver with serialised
    /// segments.
    Btmz,
    /// Specfem3D: continuous Galerkin spectral elements on unstructured
    /// hexahedral meshes; few large tasks, irregular access.
    Spec3d,
    /// LULESH: discrete hydrodynamics approximation; memory-bandwidth
    /// bound, short-trip loops, thread- and rank-level imbalance.
    Lulesh,
}

musa_obs::json_enum!(AppId {
    Hydro,
    Spmz,
    Btmz,
    Spec3d,
    Lulesh
});

impl AppId {
    /// All applications, in the paper's plot order.
    pub const ALL: [AppId; 5] = [
        AppId::Hydro,
        AppId::Spmz,
        AppId::Btmz,
        AppId::Spec3d,
        AppId::Lulesh,
    ];

    /// Label used in the paper's plots.
    pub const fn label(self) -> &'static str {
        match self {
            AppId::Hydro => "hydro",
            AppId::Spmz => "spmz",
            AppId::Btmz => "btmz",
            AppId::Spec3d => "spec3d",
            AppId::Lulesh => "lulesh",
        }
    }

    /// The workload model for this application.
    pub fn model(self) -> Box<dyn AppModel> {
        match self {
            AppId::Hydro => Box::new(hydro::Hydro),
            AppId::Spmz => Box::new(spmz::Spmz),
            AppId::Btmz => Box::new(btmz::Btmz),
            AppId::Spec3d => Box::new(spec3d::Spec3d),
            AppId::Lulesh => Box::new(lulesh::Lulesh),
        }
    }
}

impl std::fmt::Display for AppId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Trace-generation parameters.
///
/// Serialisable (and hashable) so result stores can fingerprint the
/// exact generation scale a row was simulated at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GenParams {
    /// MPI ranks to trace (the paper uses 256, one per node).
    pub ranks: u32,
    /// Timestep iterations to trace.
    pub iterations: u32,
    /// RNG seed (generation is deterministic given the seed).
    pub seed: u64,
}

musa_obs::json_struct!(GenParams {
    ranks,
    iterations,
    seed
});

impl GenParams {
    /// Paper-scale tracing: 256 ranks, 4 iterations.
    pub const fn paper() -> Self {
        GenParams {
            ranks: 256,
            iterations: 4,
            seed: 0xC0DE_CAFE,
        }
    }

    /// Reduced scale for fast experimentation: 64 ranks, 3 iterations.
    pub const fn small() -> Self {
        GenParams {
            ranks: 64,
            iterations: 3,
            seed: 0xC0DE_CAFE,
        }
    }

    /// Minimal scale for unit tests: 4 ranks, 2 iterations.
    pub const fn tiny() -> Self {
        GenParams {
            ranks: 4,
            iterations: 2,
            seed: 0xC0DE_CAFE,
        }
    }
}

/// A synthetic application workload model: generates the two-level trace
/// MUSA consumes.
pub trait AppModel: Send + Sync {
    /// Which application this models.
    fn id(&self) -> AppId;

    /// Generate the burst + detailed trace for the given parameters.
    fn generate(&self, params: &GenParams) -> AppTrace;
}

/// Convenience: generate the trace for one application.
pub fn generate(app: AppId, params: &GenParams) -> AppTrace {
    app.model().generate(params)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_apps_have_unique_labels() {
        let set: std::collections::HashSet<_> = AppId::ALL.iter().map(|a| a.label()).collect();
        assert_eq!(set.len(), 5);
    }

    #[test]
    fn every_model_generates_a_valid_tiny_trace() {
        let p = GenParams::tiny();
        for app in AppId::ALL {
            let trace = generate(app, &p);
            trace
                .validate()
                .unwrap_or_else(|e| panic!("{app}: invalid trace: {e}"));
            assert_eq!(trace.meta.app, app.label());
            assert_eq!(trace.ranks.len(), p.ranks as usize);
            assert!(trace.detail.is_some(), "{app}: missing detailed trace");
            assert!(trace.sampled_region().is_some(), "{app}: no sampled region");
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let p = GenParams::tiny();
        for app in AppId::ALL {
            let a = generate(app, &p);
            let b = generate(app, &p);
            assert_eq!(a, b, "{app}: generation must be deterministic");
        }
    }

    #[test]
    fn different_seeds_differ() {
        let p = GenParams::tiny();
        let q = GenParams {
            seed: 999,
            ..GenParams::tiny()
        };
        // At least the imbalance factors must change for LULESH.
        let a = generate(AppId::Lulesh, &p);
        let b = generate(AppId::Lulesh, &q);
        assert_ne!(a, b);
    }

    /// Generation builds each rank's event list in place, sized once at
    /// its final length: no slack capacity is left behind.
    #[test]
    fn every_rank_is_built_at_its_final_length() {
        let p = GenParams::tiny();
        for app in AppId::ALL {
            for rank in &generate(app, &p).ranks {
                assert_eq!(
                    rank.events.capacity(),
                    rank.events.len(),
                    "{app}: rank {}",
                    rank.rank
                );
            }
        }
    }

    /// `WorkItem::kernels` holds at most one invocation: every item of
    /// a parallel region invokes a kernel, and a serial item none.
    #[test]
    fn an_item_invokes_a_kernel_exactly_when_its_region_is_parallel() {
        let p = GenParams::tiny();
        for app in AppId::ALL {
            let trace = generate(app, &p);
            for rank in &trace.ranks {
                for region in rank.regions() {
                    let serial = matches!(region.work, musa_trace::RegionWork::Serial { .. });
                    for w in region.work.items() {
                        assert_eq!(
                            w.kernels.is_some(),
                            !serial,
                            "{app}: rank {} region {} item {}",
                            rank.rank,
                            region.region_id,
                            w.id
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn sampled_region_has_detailed_kernels() {
        let p = GenParams::tiny();
        for app in AppId::ALL {
            let trace = generate(app, &p);
            let region = trace.sampled_region().expect("sampled region");
            let detail = trace.detail.as_ref().expect("detail");
            let has_kernels = region.work.items().iter().any(|w| w.kernels.is_some());
            assert!(has_kernels, "{app}: sampled region has no kernel refs");
            // Every referenced kernel must exist in the dictionary.
            for w in region.work.items() {
                if let Some(inv) = &w.kernels {
                    assert!(
                        detail.kernel(inv.kernel).is_some(),
                        "{app}: dangling kernel id {}",
                        inv.kernel
                    );
                }
            }
        }
    }
}
