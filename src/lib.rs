//! # musa
//!
//! Facade crate for **MUSA-rs**, a from-scratch Rust reproduction of the
//! multiscale simulation infrastructure used in *"Design Space
//! Exploration of Next-Generation HPC Machines"* (Gómez et al.,
//! IPDPS 2019).
//!
//! The workspace implements the paper's entire stack:
//!
//! | crate | role |
//! |---|---|
//! | [`arch`] | Table I architectural parameter space (864 points) |
//! | [`trace`] | two-level (burst + detailed) trace model |
//! | [`apps`] | the five synthetic application workloads |
//! | [`mem`] | DRAM timing + power (Ramulator/DRAMPower substitute) |
//! | [`tasksim`] | multicore µarch + runtime simulation (TaskSim substitute) |
//! | [`power`] | node power modelling (McPAT substitute) |
//! | [`net`] | MPI replay network simulation (Dimemas substitute) |
//! | [`core`] | multiscale orchestration, DSE, analysis, PCA |
//! | [`store`] | persistent, resumable campaign result store |
//! | [`obs`] | structured instrumentation: spans, metrics, events, progress |
//! | [`serve`] | columnar query engine + HTTP service over the campaign store |
//!
//! See `examples/quickstart.rs` for the five-minute tour and
//! `crates/bench/src/report.rs` for the table of paper figures `dse report`
//! writes to `results/`.

pub use musa_apps as apps;
pub use musa_arch as arch;
pub use musa_core as core;
pub use musa_fault as fault;
pub use musa_mem as mem;
pub use musa_net as net;
pub use musa_obs as obs;
pub use musa_power as power;
pub use musa_serve as serve;
pub use musa_store as store;
pub use musa_tasksim as tasksim;
pub use musa_trace as trace;

/// Most-used items for running explorations.
pub mod prelude {
    pub use musa_apps::{generate, AppId, GenParams};
    pub use musa_arch::{
        CacheConfig, CoreClass, CoresPerNode, DesignSpace, Feature, Frequency, MemConfig,
        NodeConfig, VectorWidth,
    };
    pub use musa_core::RowMetric;
    pub use musa_core::{
        feature_impact, run_design_space, Campaign, ConfigResult, Metric, MultiscaleSim,
        SweepOptions,
    };
    pub use musa_serve::{QueryEngine, RowFilter, Server, ServerConfig};
    pub use musa_store::{CampaignStore, FillOptions};
    pub use musa_trace::AppTrace;
}
