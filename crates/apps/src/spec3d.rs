//! Specfem3D: continuous Galerkin spectral-element seismic wave
//! propagation on unstructured hexahedral meshes.
//!
//! Model characteristics:
//!
//! * task starvation: few, large, heavily skewed tasks — most threads
//!   idle through the whole region (Fig. 3), speedup saturates ≈13–14
//!   regardless of core count (Fig. 2a);
//! * irregular indirection (unstructured mesh gathers): random-access
//!   streams, cache-size *insensitive* (§V-B2: "no differences across
//!   cache configurations");
//! * high memory demand at one core but unable to exploit extra memory
//!   channels at scale because concurrency is low (§V-B4);
//! * the most OoO-sensitive code: independent random loads need a deep
//!   window for memory-level parallelism (60 % slowdown on the low-end
//!   core, Fig. 7a);
//! * global assembly uses `omp critical` sections.

use musa_trace::{
    AccessPattern, AppTrace, BurstEvent, ComputeRegion, DepKind, DetailedTrace, KernelInvocation,
    Op, RegionWork, StreamDesc, WorkItem,
};

use crate::builder::{build, estimate_trips_duration_ns, FpOp, KernelSpec, MemOp};
use crate::common::{
    assemble_trace, build_ranks, iteration_comms, rank_imbalance, serial_region, Grid2D,
    ITERATION_COMMS,
};
use crate::{AppId, AppModel, GenParams};

/// Tasks (element batches) per region — few and large.
const TASKS: u32 = 24;
/// Geometric task-size decay: sizes ∝ 0.95^i, capping speedup ≈14.
const SIZE_DECAY: f64 = 0.95;
/// Kernel iterations per unit-size task.
const TASK_TRIPS: u32 = 4_096;
/// Serial mesh-bookkeeping fraction per iteration.
const SERIAL_FRACTION: f64 = 0.05;
/// Fraction of each task spent in the `omp critical` assembly.
const CRITICAL_FRACTION: f64 = 0.004;
/// Spawn/dispatch overheads (ns).
const SPAWN_NS: f64 = 2_500.0;
const DISPATCH_NS: f64 = 300.0;
/// Rank-level imbalance spread.
const RANK_SPREAD: f64 = 0.10;
/// Traced-machine IPC.
const TRACED_IPC: f64 = 0.8;

/// The Specfem3D workload model.
#[derive(Debug, Clone, Copy, Default)]
pub struct Spec3d;

/// Two region slots per iteration: serial bookkeeping, then the element
/// processing tasks.
fn region_id(iter: u32, phase: u32) -> u32 {
    iter * 2 + phase
}

impl Spec3d {
    /// Element-batch kernel: eight small random gather streams (28 kB
    /// each — insensitive to L2 size since they fit everywhere beyond
    /// L1), one large 12 MB random displacement gather (deep misses with
    /// high MLP), and a large FP body of independent operations.
    fn element_kernel() -> musa_trace::Kernel {
        let mut fp = Vec::new();
        // 45 marked ops (local tensor contractions, partly vectorised by
        // the compiler).
        for i in 0..45u8 {
            fp.push(match i % 3 {
                0 => FpOp::vec_free(Op::FpFma),
                1 => FpOp::vec(Op::FpMul, 2),
                _ => FpOp::vec(Op::FpAdd, 1),
            });
        }
        // 75 scalar independent FP ops: abundant ILP for a deep window.
        for i in 0..75u8 {
            fp.push(FpOp::scalar(
                if i % 2 == 0 { Op::FpFma } else { Op::FpMul },
                if i % 5 == 0 {
                    DepKind::Prev(4)
                } else {
                    DepKind::None
                },
            ));
        }
        let spec = KernelSpec {
            name: "spec_element",
            loads: vec![
                // Half the small gathers are compiler-vectorised (SVE
                // gather idiom → marked, fusable).
                MemOp::vec(0),
                MemOp::vec(1),
                MemOp::vec(2),
                MemOp::vec(3),
                MemOp::scalar(4),
                MemOp::scalar(5),
                MemOp::scalar(6),
                MemOp::scalar(7),
                MemOp::scalar(8), // 12 MB displacement gather
                MemOp::scalar(9),
                MemOp::scalar(9),
            ],
            stores: vec![MemOp::scalar(9), MemOp::scalar(9), MemOp::scalar(9)],
            fp,
            int_ops: 60,
            branches: 6,
            trip_count: TASK_TRIPS,
            fusible_run: 8,
            streams: {
                let mut v: Vec<StreamDesc> = (0..8)
                    .map(|i| StreamDesc {
                        base: 0x1000_0000 + i * 0x0010_0000,
                        footprint: 28 * 1024,
                        pattern: AccessPattern::Random,
                    })
                    .collect();
                v.push(StreamDesc {
                    base: 0x8000_0000,
                    footprint: 12 * 1024 * 1024,
                    pattern: AccessPattern::Random,
                });
                v.push(StreamDesc {
                    base: 0xB000_0000,
                    footprint: 16 * 1024,
                    pattern: AccessPattern::Local,
                });
                v
            },
        };
        build(0, &spec)
    }

    /// All Specfem3D kernels.
    pub fn kernels() -> Vec<musa_trace::Kernel> {
        vec![Self::element_kernel()]
    }

    /// Task sizes ∝ 0.95^i.
    fn task_sizes() -> Vec<f64> {
        (0..TASKS).map(|i| SIZE_DECAY.powi(i as i32)).collect()
    }
}

impl AppModel for Spec3d {
    fn id(&self) -> AppId {
        AppId::Spec3d
    }

    fn generate(&self, p: &GenParams) -> AppTrace {
        let kernels = Self::kernels();
        let grid = Grid2D::new(p.ranks);
        let sizes = Self::task_sizes();

        // Per iteration: the serial region, the tasks, the comms.
        let ranks = build_ranks(p, 2 + ITERATION_COMMS, |rank, iter, events| {
            let imb = rank_imbalance(p.seed ^ (0x51 + iter as u64), rank, RANK_SPREAD);
            let items: Vec<WorkItem> = sizes
                .iter()
                .enumerate()
                .map(|(i, &size)| {
                    let trips = (TASK_TRIPS as f64 * size) as u32;
                    let duration = estimate_trips_duration_ns(&kernels[0], trips, TRACED_IPC) * imb;
                    WorkItem {
                        id: i as u32,
                        duration_ns: duration,
                        critical_ns: duration * CRITICAL_FRACTION,
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
            events.extend(iteration_comms(&grid, rank, 96 * 1024));
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
    fn speedup_saturates_under_16() {
        let sizes = Spec3d::task_sizes();
        let total: f64 = sizes.iter().sum();
        let max = sizes.iter().copied().fold(0.0, f64::max);
        let cap = total / max;
        assert!(cap > 12.0 && cap < 16.0, "cap {cap}");
    }

    #[test]
    fn small_gathers_fit_any_l2_but_not_l1() {
        let k = Spec3d::element_kernel();
        let small: u64 = k
            .streams
            .iter()
            .filter(|s| matches!(s.pattern, AccessPattern::Random) && s.footprint < 1024 * 1024)
            .map(|s| s.footprint)
            .sum();
        assert!(small > 32 * 1024, "must overflow L1: {small}");
        assert!(small < 256 * 1024, "must fit both L2 sizes: {small}");
    }

    #[test]
    fn deep_random_stream_present_for_mlp() {
        let k = Spec3d::element_kernel();
        assert!(k.streams.iter().any(|s| {
            matches!(s.pattern, AccessPattern::Random) && s.footprint >= 8 * 1024 * 1024
        }));
        // The FP body is mostly independent: ILP for the deep window.
        let free = k
            .body
            .iter()
            .filter(|t| t.op.is_fp() && t.dep == DepKind::None)
            .count();
        let fp = k.body.iter().filter(|t| t.op.is_fp()).count();
        assert!(free as f64 / fp as f64 > 0.4, "{free}/{fp}");
    }

    #[test]
    fn tasks_have_critical_sections() {
        let trace = Spec3d.generate(&GenParams::tiny());
        let region = trace.sampled_region().unwrap();
        assert!(region
            .work
            .items()
            .iter()
            .all(|w| w.critical_ns > 0.0 && w.critical_ns < w.duration_ns));
    }

    #[test]
    fn few_large_tasks() {
        let trace = Spec3d.generate(&GenParams::tiny());
        let region = trace.sampled_region().unwrap();
        assert_eq!(region.work.items().len(), TASKS as usize);
        assert!(region.work.items().len() < 32, "cannot fill a 64-core node");
    }
}
