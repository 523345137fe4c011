//! # musa-core
//!
//! The MUSA multiscale simulation methodology (Gómez et al., IPDPS 2019)
//! — orchestration, design-space exploration and analysis:
//!
//! * [`sim`] — the end-to-end multiscale flow for one (application,
//!   configuration) pair: detailed region simulation, burst rescaling,
//!   full-application MPI replay, power and energy;
//! * [`dse`] — the 864-point campaign driver, result
//!   tables with (de)serialisation;
//! * [`analysis`] — the §V-B paired-normalisation methodology ("96
//!   samples per bar");
//! * [`scaling`] — the §V-A hardware-agnostic scaling study (Fig. 2);
//! * [`pca`] — from-scratch PCA (standardisation + Jacobi) for the
//!   §V-C study (Fig. 10);
//! * [`report`] — text rendering of tables, bars and timelines
//!   (Figs. 3, 4 substitutes).

pub mod analysis;
pub mod dse;
pub mod pca;
pub mod report;
pub mod scaling;
pub mod sim;

pub use analysis::{feature_impact, panel_rows, Bar, FeatureImpact, Metric};
pub use dse::{
    dominated_hypervolume, pareto_front_indices, run_design_space, sweep_app, Campaign, RowMetric,
    SweepOptions,
};
pub use pca::{pca, pca_of_results, Pca, PCA_VARS};
pub use scaling::{full_app_scaling, mean_efficiency, region_scaling, ScalingCurve, SCALING_CORES};
pub use sim::{ConfigResult, MultiscaleSim, TraceMemo};
