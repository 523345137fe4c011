//! # musa-arch
//!
//! Architectural parameter space for the MUSA design-space exploration of
//! next-generation HPC machines (Gómez et al., IPDPS 2019, Table I).
//!
//! This crate defines:
//!
//! * the six explored architectural features — core count, out-of-order
//!   (OoO) capabilities, memory technology, FPU vector width, CPU frequency
//!   and cache sizes — with exactly the values of Table I;
//! * [`NodeConfig`], one point of the design space;
//! * [`DesignSpace`], the full cartesian enumeration (864 points per
//!   application: 3 cache × 4 OoO × 4 frequency × 3 vector width ×
//!   2 memory × 3 core counts);
//! * the *unconventional* application-specific configurations of Table II
//!   (`Vector+`, `Vector++`, `MEM+`, `MEM++`);
//! * a 22 nm voltage/frequency model used by the power estimation.
//!
//! Everything is plain data: `Copy` where possible, JSON-serialisable
//! through `musa_obs::json`, and hashable so results can be keyed by
//! configuration.

pub mod cache;
pub mod core_class;
pub mod freq;
pub mod mem;
pub mod node;
pub mod space;
pub mod vector;

pub use cache::{CacheConfig, CacheLevelParams};
pub use core_class::{CoreClass, OooParams};
pub use freq::{Frequency, VoltageModel};
pub use mem::{MemConfig, MemTechnology};
pub use node::{CoresPerNode, NodeConfig};
pub use space::{DesignSpace, Feature, UNCONVENTIONAL_LULESH, UNCONVENTIONAL_SPMZ};
pub use vector::VectorWidth;

/// Number of MPI ranks used throughout the paper's evaluation (one per node).
pub const PAPER_RANKS: usize = 256;

/// Cache line size in bytes, fixed across the design space.
pub const CACHE_LINE_BYTES: u64 = 64;

/// L1 data cache size in bytes — fixed at 32 kB in all configurations
/// (the cache label in the paper reads `L3:L2:L1=32K`).
pub const L1_SIZE_BYTES: u64 = 32 * 1024;

/// L1 associativity (fixed).
pub const L1_ASSOC: u32 = 8;

/// L1 hit latency in cycles (fixed).
pub const L1_LATENCY_CYCLES: u32 = 4;
