//! # musa-tasksim
//!
//! Trace-driven multicore microarchitecture and runtime-system simulator
//! — the TaskSim substitute of the MUSA toolflow (§II-A, §III).
//!
//! The simulator consumes the loop-compressed detailed traces of
//! `musa-trace` and a `musa-arch` node configuration, and produces region
//! timings, cache statistics and activity counts. The pipeline is:
//!
//! 1. [`locality`] — analytic LRU reuse-distance model turning each
//!    memory instruction template into a per-level service distribution
//!    (validated against the reference simulator in [`setassoc`]);
//! 2. [`fusion`] — the §III SIMD re-fusion of vector-marked scalar
//!    instructions, gated by each kernel's basic-block repeat length;
//! 3. [`pipeline`] — a windowed out-of-order dataflow timing model (ROB,
//!    issue width, FU pools, MSHRs, store buffer) producing steady-state
//!    cycles per iteration, one walk per window;
//! 4. [`profile`] — per-kernel characterisation (cycles and statistics
//!    per iteration), and the per-trace table that keeps each stage of it
//!    for the configuration axes the stage reads;
//! 5. [`multicore`] — the runtime-system simulation: task scheduling,
//!    parallel-loop chunking, dependencies, critical sections, spawn and
//!    dispatch overheads that do not scale with simulated frequency;
//! 6. [`node`] — node-level detailed simulation under memory-bandwidth
//!    contention (one schedule, one refinement of the bulk concurrency),
//!    and the DRAM command estimate handed to the power models.
//!
//! Burst-mode (hardware-agnostic) simulation reuses the same scheduler
//! with trace durations ([`multicore::simulate_region_burst`]).

pub mod fusion;
pub mod geometry;
pub mod locality;
pub mod multicore;
pub mod node;
pub mod pipeline;
pub mod profile;
pub mod setassoc;
pub mod stats;

pub use fusion::{effective_factor, fuse, FusedBody, FusedInstr};
pub use geometry::CacheGeometry;
pub use locality::{analyze_kernel, kernel_footprint_bytes, AccessMix, TemplateLocality};
pub use multicore::{
    burst_makespan_ns, schedule_region, simulate_region_burst, Schedule, ScheduledItem,
};
pub use node::{effective_bandwidth_gbs, estimate_dram_stats, DetailedRegionResult, NodeSim};
pub use pipeline::{cycles_per_fused_iter, ServiceLatencies};
pub use profile::{profile_kernel, KernelProfile, ProfileTable};
pub use stats::{LevelStats, SimStats};
