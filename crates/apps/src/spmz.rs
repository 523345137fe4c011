//! SP-MZ: the NAS Parallel Benchmarks multi-zone scalar-pentadiagonal
//! solver (van der Wijngaart & Jin, 2003).
//!
//! Model characteristics:
//!
//! * zones are distributed across ranks; node-level parallelism comes
//!   from `parallel for` over ≈44 solver lines — not enough to fill 64
//!   cores, and one boundary line is ≈2× the others, so the compute
//!   region's speedup is flat between 32 and 64 cores (Fig. 2a);
//! * extreme L1 pressure: ≈97 L1-MPKI from strided line sweeps (Fig. 1);
//! * the most vectorisable code of the set: long uninterrupted solver
//!   loops (≈75 % speedup at 512-bit, Fig. 5a; continued gains at
//!   1024/2048-bit in Table II);
//! * no serialised segments (§V-A singles SP-MZ out on this);
//! * modest cache/bandwidth sensitivity.

use musa_trace::{
    AccessPattern, AppTrace, BurstEvent, ComputeRegion, DetailedTrace, LoopSchedule, Op,
    RegionWork, StreamDesc, WorkItem,
};

use crate::builder::{build, estimate_trips_duration_ns, FpOp, KernelSpec, MemOp};
use crate::common::{
    assemble_trace, build_ranks, iteration_comms, kernel_call, rank_imbalance, Grid2D,
    ITERATION_COMMS,
};
use crate::{AppId, AppModel, GenParams};

/// Parallel solver lines per region.
const LINES: u32 = 44;
/// Relative size of the boundary line (the makespan limiter).
const BOUNDARY_FACTOR: f64 = 2.05;
/// Iterations of the solver kernel per unit-size line.
const LINE_TRIPS: u32 = 32_768;
/// Spawn/dispatch overheads (ns), small — SP-MZ is not runtime-bound.
const SPAWN_NS: f64 = 900.0;
const DISPATCH_NS: f64 = 150.0;
/// Rank-level imbalance spread.
const RANK_SPREAD: f64 = 0.05;
/// Traced-machine IPC (miss-heavy code runs slow natively).
const TRACED_IPC: f64 = 0.9;

/// The SP-MZ workload model.
#[derive(Debug, Clone, Copy, Default)]
pub struct Spmz;

impl Spmz {
    /// The x-solve line sweep: six strided 96 kB coefficient planes
    /// (thrash a 256 kB L2, fit a 512 kB one), one strided 4 MB plane
    /// (misses everywhere), two sequential 8 MB flux streams, and a long
    /// highly-vectorisable FP pipeline.
    fn solve_kernel() -> musa_trace::Kernel {
        let mut fp = Vec::new();
        // 26 marked ops: mostly independent lanes with short chains —
        // ideal fusion material.
        for i in 0..26u8 {
            fp.push(if i % 3 == 0 {
                FpOp::vec_free(Op::FpFma)
            } else {
                FpOp::vec(if i % 2 == 0 { Op::FpMul } else { Op::FpAdd }, 1)
            });
        }
        // 8 scalar bookkeeping FP ops.
        for _ in 0..8 {
            fp.push(FpOp::scalar(Op::FpAdd, musa_trace::DepKind::Prev(2)));
        }
        let spec = KernelSpec {
            name: "sp_x_solve",
            loads: vec![
                MemOp::vec(0),
                MemOp::vec(1),
                MemOp::vec(2),
                MemOp::vec(3),
                MemOp::vec(4),
                MemOp::vec(5),
                MemOp::vec(6),    // 320 kB strided plane (L2-thrashing, L3-resident)
                MemOp::vec(7),    // sequential flux
                MemOp::scalar(8), // rhs scratch (hot)
            ],
            stores: vec![MemOp::vec(9), MemOp::scalar(9)],
            fp,
            int_ops: 24,
            branches: 3,
            trip_count: LINE_TRIPS,
            fusible_run: 32,
            streams: {
                let mut v: Vec<StreamDesc> = (0..6)
                    .map(|i| StreamDesc {
                        base: 0x1000_0000 + i * 0x0100_0000,
                        footprint: 80 * 1024,
                        pattern: AccessPattern::Strided { stride: 128 },
                    })
                    .collect();
                v.push(StreamDesc {
                    base: 0x8000_0000,
                    footprint: 320 * 1024,
                    pattern: AccessPattern::Strided { stride: 128 },
                });
                v.push(StreamDesc {
                    base: 0x9000_0000,
                    footprint: 1024 * 1024,
                    pattern: AccessPattern::Sequential { stride: 8 },
                });
                v.push(StreamDesc {
                    base: 0xA000_0000,
                    footprint: 16 * 1024,
                    pattern: AccessPattern::Local,
                });
                v.push(StreamDesc {
                    base: 0xB000_0000,
                    footprint: 8 * 1024,
                    pattern: AccessPattern::Local,
                });
                v
            },
        };
        build(0, &spec)
    }

    /// All SP-MZ kernels.
    pub fn kernels() -> Vec<musa_trace::Kernel> {
        vec![Self::solve_kernel()]
    }

    /// Line sizes: one boundary line at [`BOUNDARY_FACTOR`], the rest 1.0.
    fn line_sizes() -> Vec<f64> {
        (0..LINES)
            .map(|i| if i == 0 { BOUNDARY_FACTOR } else { 1.0 })
            .collect()
    }
}

impl AppModel for Spmz {
    fn id(&self) -> AppId {
        AppId::Spmz
    }

    fn generate(&self, p: &GenParams) -> AppTrace {
        let kernels = Self::kernels();
        let grid = Grid2D::new(p.ranks);
        let sizes = Self::line_sizes();

        // Per iteration: the solve, the comms.
        let ranks = build_ranks(p, 1 + ITERATION_COMMS, |rank, iter, events| {
            let imb = rank_imbalance(p.seed ^ (0x51 + iter as u64), rank, RANK_SPREAD);
            let chunks: Vec<WorkItem> = sizes
                .iter()
                .map(|&size| {
                    let trips = (LINE_TRIPS as f64 * size) as u32;
                    WorkItem {
                        duration_ns: estimate_trips_duration_ns(&kernels[0], trips, TRACED_IPC)
                            * imb,
                        critical_ns: 0.0,
                        kernels: kernel_call(trips),
                    }
                })
                .collect();
            events.push(BurstEvent::Compute(ComputeRegion {
                region_id: iter,
                work: RegionWork::ParallelFor {
                    chunks,
                    schedule: LoopSchedule::Dynamic,
                },
                spawn_overhead_ns: SPAWN_NS,
                dispatch_overhead_ns: DISPATCH_NS,
            }));
            // Zone boundary exchange + convergence reduction.
            events.extend(iteration_comms(&grid, rank, 128 * 1024));
        });

        let detail = DetailedTrace {
            app: self.id().label().to_string(),
            region_id: 1.min(p.iterations - 1),
            kernels,
        };
        let sampled = detail.region_id;
        assemble_trace(self.id().label(), p, ranks, detail, sampled)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn limited_parallelism_with_one_big_line() {
        let sizes = Spmz::line_sizes();
        assert_eq!(sizes.len(), LINES as usize);
        let total: f64 = sizes.iter().sum();
        let max = sizes.iter().copied().fold(0.0, f64::max);
        // Speedup cap total/max ≈ 22: flat between 32 and 64 cores.
        let cap = total / max;
        assert!(cap > 20.0 && cap < 24.0, "cap {cap}");
    }

    #[test]
    fn l1_pressure_is_extreme() {
        let k = Spmz::solve_kernel();
        // Strided ≥128 B accesses touch a new line every iteration.
        let strided = k
            .body
            .iter()
            .filter(|t| {
                t.stream
                    .map(|s| {
                        matches!(
                            k.streams[s as usize].pattern,
                            AccessPattern::Strided { stride } if stride >= 64
                        )
                    })
                    .unwrap_or(false)
            })
            .count();
        // 7 strided accesses per ~72-instruction body → ≈97 L1-MPKI.
        assert_eq!(strided, 7);
        let body = k.body.len() as f64;
        let mpki = strided as f64 / body * 1000.0;
        assert!(mpki > 85.0 && mpki < 115.0, "predicted L1 MPKI {mpki}");
    }

    #[test]
    fn most_vectorisable_app() {
        let k = Spmz::solve_kernel();
        let marked = k.body.iter().filter(|t| t.vector_marked).count();
        let frac = marked as f64 / k.body.len() as f64;
        assert!(frac > 0.45, "frac {frac}");
        assert!(k.fusible_run >= 32, "must fuse up to 2048-bit (Table II)");
    }

    #[test]
    fn small_planes_fit_512k_but_not_256k() {
        // The six coefficient planes together straddle the two L2 sizes.
        let k = Spmz::solve_kernel();
        let small: u64 = k
            .streams
            .iter()
            .filter(|s| s.footprint < 128 * 1024 && !matches!(s.pattern, AccessPattern::Local))
            .map(|s| s.footprint)
            .sum();
        assert!(small > 256 * 1024 && small < 1024 * 1024, "{small}");
    }

    #[test]
    fn no_serial_regions() {
        let trace = Spmz.generate(&GenParams::tiny());
        for rank in &trace.ranks {
            for region in rank.regions() {
                assert!(!matches!(region.work, RegionWork::Serial { .. }));
            }
        }
    }
}
