//! BT-MZ: the NAS Parallel Benchmarks multi-zone block-tridiagonal
//! solver (van der Wijngaart & Jin, 2003).
//!
//! Model characteristics:
//!
//! * zones of *uneven* size (the defining difference from SP-MZ): task
//!   sizes span ≈4×, limiting 64-core efficiency to ≈50 % (Fig. 2a);
//! * a serialised boundary-copy segment precedes the solve (§V-A:
//!   serialised segments in all applications except SP-MZ);
//! * moderate L1 pressure (≈24 MPKI) with a working set that thrashes a
//!   256 kB L2 but fits 512 kB → ≈9 % speedup from the cache upgrade
//!   (§V-B2);
//! * moderately vectorisable (between HYDRO and SP-MZ in Fig. 5a).

use musa_trace::{
    AccessPattern, AppTrace, BurstEvent, ComputeRegion, DetailedTrace, KernelInvocation, Op,
    RegionWork, StreamDesc, WorkItem,
};

use crate::builder::{build, estimate_trips_duration_ns, FpOp, KernelSpec, MemOp};
use crate::common::{
    assemble_trace, build_ranks, iteration_comms, rank_imbalance, serial_region, Grid2D,
    ITERATION_COMMS,
};
use crate::{AppId, AppModel, GenParams};

/// Zones (tasks) per region.
const ZONES: u32 = 60;
/// Solver iterations per unit-size zone.
const ZONE_TRIPS: u32 = 8_192;
/// Serial boundary-copy fraction of the region's serial time.
const SERIAL_FRACTION: f64 = 0.03;
/// Spawn/dispatch overheads (ns).
const SPAWN_NS: f64 = 1_100.0;
const DISPATCH_NS: f64 = 160.0;
/// Rank-level imbalance spread.
const RANK_SPREAD: f64 = 0.07;
/// Traced-machine IPC.
const TRACED_IPC: f64 = 1.1;

/// The BT-MZ workload model.
#[derive(Debug, Clone, Copy, Default)]
pub struct Btmz;

/// Two region slots per iteration: serial copy, then the zone solve.
fn region_id(iter: u32, phase: u32) -> u32 {
    iter * 2 + phase
}

impl Btmz {
    /// The block-tridiagonal zone solve: four strided 128 kB coefficient
    /// blocks (512 kB working set: thrashes 256 kB L2, fits 512 kB at
    /// cold-walk cost), two sequential 256 kB face streams, large FP
    /// body with backward-substitution dependency chains.
    fn solve_kernel() -> musa_trace::Kernel {
        let mut fp = Vec::new();
        // 40 marked ops in dependent pairs (block back-substitution).
        // The first two consume the strided loads (8 positions back), so
        // L2 misses are on the critical path.
        for i in 0..40u8 {
            fp.push(match i % 4 {
                0 => {
                    if i < 4 {
                        FpOp::vec(Op::FpFma, 8)
                    } else {
                        FpOp::vec_free(Op::FpFma)
                    }
                }
                1 => FpOp::vec(Op::FpMul, 1),
                2 => FpOp::vec(Op::FpFma, 2),
                _ => FpOp::vec(Op::FpAdd, 1),
            });
        }
        // 30 scalar FP ops: a back-substitution chain plus independent
        // block updates, with a rare pivoting divide.
        for i in 0..30u8 {
            let op = if i == 0 { Op::FpDiv } else { Op::FpMul };
            let dep = if i < 8 {
                musa_trace::DepKind::Prev(1 + (i % 3))
            } else {
                musa_trace::DepKind::None
            };
            fp.push(FpOp::scalar(op, dep));
        }
        let spec = KernelSpec {
            name: "bt_zone_solve",
            loads: vec![
                // The block back-substitution sweeps the coefficient
                // planes serially: two of the strided loads are
                // loop-carried.
                MemOp::vec_chain(0),
                MemOp::vec_chain(1),
                MemOp::vec(2),
                MemOp::vec(3),
                MemOp::scalar(4),
                MemOp::scalar(5),
                MemOp::scalar(6),
                MemOp::scalar(6),
            ],
            stores: vec![MemOp::vec(0), MemOp::scalar(6), MemOp::scalar(6)],
            fp,
            int_ops: 70,
            branches: 4,
            trip_count: ZONE_TRIPS,
            fusible_run: 8,
            streams: {
                let mut v: Vec<StreamDesc> = (0..4)
                    .map(|i| StreamDesc {
                        base: 0x1000_0000 + i * 0x0100_0000,
                        footprint: 128 * 1024,
                        pattern: AccessPattern::Strided { stride: 128 },
                    })
                    .collect();
                v.push(StreamDesc {
                    base: 0x8000_0000,
                    footprint: 256 * 1024,
                    pattern: AccessPattern::Sequential { stride: 8 },
                });
                v.push(StreamDesc {
                    base: 0x9000_0000,
                    footprint: 256 * 1024,
                    pattern: AccessPattern::Sequential { stride: 8 },
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

    /// All BT-MZ kernels.
    pub fn kernels() -> Vec<musa_trace::Kernel> {
        vec![Self::solve_kernel()]
    }

    /// Zone sizes: quadratic ramp from 0.5 to 2.0 (BT-MZ's trademark
    /// uneven zones, ≈4× spread).
    fn zone_sizes() -> Vec<f64> {
        (0..ZONES)
            .map(|i| {
                let t = i as f64 / (ZONES - 1) as f64;
                0.5 + 1.5 * t * t
            })
            .collect()
    }
}

impl AppModel for Btmz {
    fn id(&self) -> AppId {
        AppId::Btmz
    }

    fn generate(&self, p: &GenParams) -> AppTrace {
        let kernels = Self::kernels();
        let grid = Grid2D::new(p.ranks);
        let sizes = Self::zone_sizes();

        // Per iteration: the serial region, the tasks, the comms.
        let ranks = build_ranks(p, 2 + ITERATION_COMMS, |rank, iter, events| {
            let imb = rank_imbalance(p.seed ^ (0x51 + iter as u64), rank, RANK_SPREAD);
            let items: Vec<WorkItem> = sizes
                .iter()
                .enumerate()
                .map(|(i, &size)| {
                    let trips = (ZONE_TRIPS as f64 * size) as u32;
                    WorkItem {
                        id: i as u32,
                        duration_ns: estimate_trips_duration_ns(&kernels[0], trips, TRACED_IPC)
                            * imb,
                        critical_ns: 0.0,
                        kernels: Some(KernelInvocation {
                            kernel: 0,
                            trips: Some(trips),
                        }),
                    }
                })
                .collect();
            let serial_ns = items.iter().map(|w| w.duration_ns).sum::<f64>() * SERIAL_FRACTION;
            events.push(BurstEvent::Compute(serial_region(
                region_id(iter, 0),
                serial_ns,
            )));
            events.push(BurstEvent::Compute(ComputeRegion {
                region_id: region_id(iter, 1),
                work: RegionWork::Tasks {
                    items,
                    deps: Vec::new(),
                },
                spawn_overhead_ns: SPAWN_NS,
                dispatch_overhead_ns: DISPATCH_NS,
            }));
            events.extend(iteration_comms(&grid, rank, 192 * 1024));
        });

        let detail = DetailedTrace {
            app: self.id().label().to_string(),
            region_id: region_id(1.min(p.iterations - 1), 1),
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
    fn zones_are_uneven() {
        let sizes = Btmz::zone_sizes();
        let max = sizes.iter().copied().fold(0.0_f64, f64::max);
        let min = sizes.iter().copied().fold(f64::MAX, f64::min);
        assert!((max / min - 4.0).abs() < 0.1, "spread {}", max / min);
        // Efficiency cap at 64 cores well below 1.
        let total: f64 = sizes.iter().sum();
        let eff64 = total / (64.0 * max);
        assert!(eff64 < 0.8, "eff cap {eff64}");
    }

    #[test]
    fn strided_working_set_straddles_the_l2_sizes() {
        let k = Btmz::solve_kernel();
        let strided: u64 = k
            .streams
            .iter()
            .filter(|s| matches!(s.pattern, AccessPattern::Strided { .. }))
            .map(|s| s.footprint)
            .sum();
        assert!(strided > 256 * 1024 && strided <= 512 * 1024, "{strided}");
    }

    #[test]
    fn moderate_l1_mpki_predicted() {
        let k = Btmz::solve_kernel();
        // 4 strided (1 miss/iter) + sequential streams (1/8 each ×3 refs).
        let mpki = (4.0 + 3.0 / 8.0) / k.body.len() as f64 * 1000.0;
        assert!(mpki > 18.0 && mpki < 30.0, "predicted L1 MPKI {mpki}");
    }

    #[test]
    fn serial_segment_present() {
        let trace = Btmz.generate(&GenParams::tiny());
        let rank0 = &trace.ranks[0];
        let serial = rank0
            .regions()
            .filter(|r| matches!(r.work, RegionWork::Serial { .. }))
            .count();
        assert_eq!(serial, GenParams::tiny().iterations as usize);
    }

    #[test]
    fn sampled_region_is_the_task_region() {
        let trace = Btmz.generate(&GenParams::tiny());
        let region = trace.sampled_region().unwrap();
        assert!(matches!(region.work, RegionWork::Tasks { .. }));
    }
}
