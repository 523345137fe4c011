//! LULESH 2.0: Livermore unstructured Lagrangian explicit shock
//! hydrodynamics proxy (Karlin et al., LLNL 2013).
//!
//! Model characteristics:
//!
//! * memory-bandwidth bound: large sequential element/node arrays
//!   streamed once per phase — only LULESH gains (up to 60 % at 64
//!   cores) from doubling memory channels (§V-B4), and MEM+/MEM++
//!   configurations trade FPU width for bandwidth (Table II);
//! * dirty streaming stores: memory traffic (incl. write-backs) exceeds
//!   L2 misses — the only app whose Fig. 1 "L3 MPKI" tops its L2 MPKI;
//! * short-trip inner loops (over the 8 nodes of an element): the §III
//!   fusion model finds no SIMD potential beyond the traced 128-bit
//!   (Fig. 5a: flat), modelled by `fusible_run = 2`;
//! * thread-level load imbalance is the main 64-core limiter (§V-A), and
//!   rank-level imbalance causes the Fig. 4 barrier waits;
//! * three barrier-separated parallel phases per timestep amplify the
//!   imbalance.

use musa_trace::{
    AccessPattern, AppTrace, BurstEvent, ComputeRegion, DetailedTrace, KernelInvocation,
    LoopSchedule, Op, RegionWork, StreamDesc, WorkItem,
};

use crate::builder::{build, estimate_trips_duration_ns, FpOp, KernelSpec, MemOp};
use crate::common::{
    assemble_trace, build_ranks, iteration_comms, rank_imbalance, rank_rng, serial_region, Grid2D,
    ITERATION_COMMS,
};
use crate::{AppId, AppModel, GenParams};

/// Parallel phases per timestep (stress, hourglass, position update).
const PHASES: u32 = 3;
/// Loop chunks per phase.
const CHUNKS: u32 = 96;
/// Kernel iterations per chunk: streams the chunk's 1 MB array slices
/// exactly once (pure streaming — no reuse).
const CHUNK_TRIPS: u32 = 131_072;
/// Chunk-duration skew half-width (thread-level imbalance).
const CHUNK_SKEW: f64 = 0.45;
/// Rank-level imbalance spread (drives the Fig. 4 barrier waits).
const RANK_SPREAD: f64 = 0.16;
/// Spawn/dispatch overheads (ns).
const SPAWN_NS: f64 = 700.0;
const DISPATCH_NS: f64 = 140.0;
/// Traced-machine IPC (bandwidth-bound).
const TRACED_IPC: f64 = 1.0;

/// The LULESH workload model.
#[derive(Debug, Clone, Copy, Default)]
pub struct Lulesh;

/// Serial timestep-control fraction of each iteration's serial time.
const SERIAL_FRACTION: f64 = 0.015;

/// Region ids: one serial slot plus [`PHASES`] parallel phases per
/// iteration.
fn region_id(iter: u32, phase: u32) -> u32 {
    iter * (PHASES + 1) + phase + 1
}

impl Lulesh {
    /// Streaming element-update kernel: three small node-coordinate
    /// arrays that stay L2-resident, three large streamed element arrays,
    /// two streamed dirty stores (write-back traffic), one L2-resident
    /// random node gather, and a short-trip FP body.
    fn stream_kernel() -> musa_trace::Kernel {
        let mut fp = Vec::new();
        // 24 marked ops — traced with 128-bit SSE but in trip-4 inner
        // loops, so fusible_run stays at the intra-instruction 2.
        for i in 0..24u8 {
            fp.push(match i % 3 {
                // The first ops consume the streamed element arrays
                // (5–6 positions back): DRAM latency is on the path.
                0 if i < 6 => FpOp::vec(Op::FpFma, 5 + i / 3),
                0 => FpOp::vec_free(Op::FpFma),
                1 => FpOp::vec(Op::FpMul, 1),
                _ => FpOp::vec(Op::FpAdd, 2),
            });
        }
        // 36 scalar FP ops, almost all independent: elementwise updates
        // expose abundant ILP, leaving memory as the only bottleneck.
        for i in 0..36u8 {
            fp.push(FpOp::scalar(
                if i % 2 == 0 { Op::FpAdd } else { Op::FpMul },
                if i % 6 == 0 {
                    musa_trace::DepKind::Prev(2)
                } else {
                    musa_trace::DepKind::None
                },
            ));
        }
        let spec = KernelSpec {
            name: "lulesh_stream",
            loads: vec![
                MemOp::scalar(0), // small node arrays (L2-resident)
                MemOp::scalar(1),
                MemOp::scalar(2),
                MemOp::vec(3), // large streamed element arrays
                MemOp::vec(4),
                MemOp::vec(5),
                MemOp::scalar(6), // random node gather (fits both L2s)
                MemOp::scalar(9),
                MemOp::scalar(9),
            ],
            stores: vec![
                MemOp::vec(7), // streamed dirty stores → write-backs
                MemOp::vec(8),
                MemOp::scalar(0),
            ],
            fp,
            int_ops: 42,
            branches: 3,
            trip_count: CHUNK_TRIPS,
            fusible_run: 2,
            streams: {
                let mut v: Vec<StreamDesc> = (0..3)
                    .map(|i| StreamDesc {
                        base: 0x1000_0000 + i * 0x0010_0000,
                        footprint: 24 * 1024,
                        pattern: AccessPattern::Sequential { stride: 8 },
                    })
                    .collect();
                for i in 0..3 {
                    v.push(StreamDesc {
                        base: 0x4000_0000 + i * 0x1000_0000,
                        footprint: 1024 * 1024,
                        pattern: AccessPattern::Sequential { stride: 8 },
                    });
                }
                v.push(StreamDesc {
                    base: 0x8000_0000,
                    footprint: 176 * 1024,
                    pattern: AccessPattern::Random,
                });
                for i in 0..2 {
                    v.push(StreamDesc {
                        base: 0xA000_0000 + i * 0x1000_0000,
                        footprint: 1024 * 1024,
                        pattern: AccessPattern::Sequential { stride: 8 },
                    });
                }
                v.push(StreamDesc {
                    base: 0xF000_0000,
                    footprint: 8 * 1024,
                    pattern: AccessPattern::Local,
                });
                v
            },
        };
        build(0, &spec)
    }

    /// All LULESH kernels.
    pub fn kernels() -> Vec<musa_trace::Kernel> {
        vec![Self::stream_kernel()]
    }
}

impl AppModel for Lulesh {
    fn id(&self) -> AppId {
        AppId::Lulesh
    }

    fn generate(&self, p: &GenParams) -> AppTrace {
        let kernels = Self::kernels();
        let grid = Grid2D::new(p.ranks);

        // Per iteration: the phases, timestep control, the comms.
        let per_iteration = PHASES as usize + 1 + ITERATION_COMMS;
        let ranks = build_ranks(p, per_iteration, |rank, iter, events| {
            let imb = rank_imbalance(p.seed ^ (0x51 + iter as u64), rank, RANK_SPREAD);
            let mut iteration_serial = 0.0;
            for phase in 0..PHASES {
                let mut rng = rank_rng(p.seed, rank, 0x7000 + (iter * PHASES + phase) as u64);
                let chunks: Vec<WorkItem> = (0..CHUNKS)
                    .map(|c| {
                        let skew = 1.0 + CHUNK_SKEW * (rng.next_f64() * 2.0 - 1.0);
                        let trips = (CHUNK_TRIPS as f64 * skew) as u32;
                        WorkItem {
                            id: c,
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
                iteration_serial += chunks.iter().map(|c| c.duration_ns).sum::<f64>();
                events.push(BurstEvent::Compute(ComputeRegion {
                    region_id: region_id(iter, phase),
                    work: RegionWork::ParallelFor {
                        chunks,
                        schedule: LoopSchedule::Static,
                    },
                    spawn_overhead_ns: SPAWN_NS,
                    dispatch_overhead_ns: DISPATCH_NS,
                }));
            }
            // Serial timestep control (dt computation, course
            // constraints) before the halo + all-reduce.
            events.push(BurstEvent::Compute(serial_region(
                iter * (PHASES + 1),
                iteration_serial * SERIAL_FRACTION,
            )));
            // 6-neighbour halo approximated on the 2-D process grid plus
            // the timestep-control all-reduce that the Fig. 4 barrier
            // waits come from.
            events.extend(iteration_comms(&grid, rank, 90 * 1024));
        });

        let detail = DetailedTrace {
            app: self.id().label().to_string(),
            region_id: region_id(1.min(p.iterations - 1), 0),
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
    fn streaming_dominates_memory_traffic() {
        let k = Lulesh::stream_kernel();
        let streamed = k
            .streams
            .iter()
            .filter(|s| {
                matches!(s.pattern, AccessPattern::Sequential { .. }) && s.footprint >= 1024 * 1024
            })
            .count();
        assert_eq!(streamed, 5, "3 load + 2 store streams");
        // Streamed slices are walked exactly once: pure streaming.
        assert_eq!(k.trip_count as u64 * 8, 1024 * 1024);
    }

    #[test]
    fn no_simd_potential_beyond_traced_width() {
        let k = Lulesh::stream_kernel();
        assert_eq!(k.fusible_run, 2);
    }

    #[test]
    fn dirty_store_streams_generate_writebacks() {
        let k = Lulesh::stream_kernel();
        let store_streams: Vec<u8> = k
            .body
            .iter()
            .filter(|t| t.op == Op::Store)
            .filter_map(|t| t.stream)
            .collect();
        let big_dirty = store_streams
            .iter()
            .filter(|&&s| k.streams[s as usize].footprint >= 1024 * 1024)
            .count();
        assert_eq!(big_dirty, 2);
    }

    #[test]
    fn chunks_are_imbalanced() {
        let trace = Lulesh.generate(&GenParams::tiny());
        let region = trace.sampled_region().unwrap();
        let durations: Vec<f64> = region.work.items().iter().map(|w| w.duration_ns).collect();
        let mean = durations.iter().sum::<f64>() / durations.len() as f64;
        let max = durations.iter().copied().fold(0.0, f64::max);
        assert!(max / mean > 1.2, "imbalance {}", max / mean);
    }

    #[test]
    fn three_phases_per_iteration() {
        let p = GenParams::tiny();
        let trace = Lulesh.generate(&p);
        let regions = trace.ranks[0].regions().count();
        assert_eq!(regions, (p.iterations * (PHASES + 1)) as usize);
    }

    #[test]
    fn rank_imbalance_is_strong() {
        let p = GenParams::tiny();
        let trace = Lulesh.generate(&p);
        let serial: Vec<f64> = trace.ranks.iter().map(|r| r.serial_compute_ns()).collect();
        let mean = serial.iter().sum::<f64>() / serial.len() as f64;
        let max = serial.iter().copied().fold(0.0, f64::max);
        let min = serial.iter().copied().fold(f64::MAX, f64::min);
        assert!(
            (max - min) / mean > 0.05,
            "ranks must be imbalanced: {}",
            (max - min) / mean
        );
    }
}
