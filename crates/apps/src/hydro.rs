//! HYDRO: simplified RAMSES solving the compressible Euler equations with
//! the Godunov method (Lavallée et al., PRACE 2012).
//!
//! Model characteristics (paper evidence in parentheses):
//!
//! * the best-scaling code of the study: fine-grain, well-balanced
//!   parallel loops, > 75 % parallel efficiency at 64 cores (Fig. 2a);
//! * per-task working set just under 512 kB — the L2-size cliff that
//!   yields a 4× L2-MPKI drop and ≈21 % speedup when L2 grows from
//!   256 kB to 512 kB (§V-B2);
//! * compute-intensive: low memory traffic (Fig. 1: ≈0.02 G req/s), high
//!   FP density, OoO-bound (PCA, Fig. 10a);
//! * moderate vectorisation: ≈20 % speedup at 512-bit (Fig. 5a);
//! * task spawning cost recorded in the native trace becomes the
//!   scheduling bottleneck above 2.5 GHz (Fig. 9a) because runtime-event
//!   timings do not scale with simulated frequency.

use musa_trace::{
    AccessPattern, AppTrace, BurstEvent, ComputeRegion, DetailedTrace, LoopSchedule, RegionWork,
    StreamDesc, WorkItem,
};

use crate::builder::{build, estimate_duration_ns, FpOp, KernelSpec, MemOp};
use crate::common::{
    assemble_trace, build_ranks, iteration_comms, kernel_call, rank_imbalance, rank_rng,
    serial_region, Grid2D, ITERATION_COMMS,
};
use crate::{AppId, AppModel, GenParams};

/// Parallel-loop chunks per compute region (domain slabs).
const CHUNKS: u32 = 256;
/// Iterations of the main sweep kernel per chunk: four walks of the
/// per-chunk working set.
const SWEEP_TRIPS: u32 = 65_536;
/// Native cost of creating one chunk on the master thread (ns). Large
/// enough that chunk creation rate limits the run above ≈2.5 GHz.
const SPAWN_NS: f64 = 4_500.0;
/// Native cost of dispatching a ready chunk to a worker (ns).
const DISPATCH_NS: f64 = 180.0;
/// Rank-level imbalance spread (HYDRO is well balanced).
const RANK_SPREAD: f64 = 0.02;
/// Chunk-duration skew half-width.
const CHUNK_SKEW: f64 = 0.10;
/// Sustained IPC of the traced machine for burst-duration estimation.
const TRACED_IPC: f64 = 1.5;

/// The HYDRO workload model.
#[derive(Debug, Clone, Copy, Default)]
pub struct Hydro;

/// Serial timestep-control fraction of each iteration's serial time.
const SERIAL_FRACTION: f64 = 0.01;

/// Region ids: two per iteration — serial glue, then the Godunov sweep.
fn region_id(iter: u32) -> u32 {
    iter * 2 + 1
}

impl Hydro {
    /// The Godunov sweep kernel: two read streams and one write stream of
    /// 128 kB each per chunk (384 kB working set, re-walked four times),
    /// heavy FP with a vectorisable majority, high-locality auxiliaries.
    fn sweep_kernel() -> musa_trace::Kernel {
        let spec = KernelSpec {
            name: "godunov_sweep",
            loads: vec![
                // Swept streams: the Godunov sweep is a directional
                // recurrence, so the stream loads are loop-carried.
                MemOp::vec_chain(0), // density/energy stream
                MemOp::vec_chain(1), // velocity stream
                MemOp::scalar(3),    // locals: Riemann scratch
                MemOp::scalar(3),
            ],
            stores: vec![MemOp::vec(2), MemOp::scalar(3)],
            fp: vec![
                // Vectorised flux chain. Its head consumes the streamed
                // values (Prev(8)/Prev(9) reach the two sequential loads
                // at the top of the body), so L2/L3 misses land on the
                // critical path — the paper's ≈21 % cache sensitivity.
                FpOp::vec(musa_trace::Op::FpMul, 8),
                FpOp::vec(musa_trace::Op::FpFma, 9),
                FpOp::vec(musa_trace::Op::FpFma, 1),
                // Independent vectorised lanes (resource load only).
                FpOp::vec_free(musa_trace::Op::FpAdd),
                FpOp::vec_free(musa_trace::Op::FpMul),
                FpOp::vec_free(musa_trace::Op::FpFma),
                FpOp::vec_free(musa_trace::Op::FpAdd),
                FpOp::vec_free(musa_trace::Op::FpMul),
                FpOp::vec_free(musa_trace::Op::FpFma),
                FpOp::vec_free(musa_trace::Op::FpAdd),
                FpOp::vec_free(musa_trace::Op::FpMul),
                FpOp::vec_free(musa_trace::Op::FpFma),
                // Scalar (non-vectorised) Riemann iteration tail: a short
                // serial chain hanging off the vector chain result.
                FpOp::scalar(musa_trace::Op::FpMul, musa_trace::DepKind::Prev(10)),
                FpOp::scalar(musa_trace::Op::FpAdd, musa_trace::DepKind::Prev(1)),
                FpOp::scalar(musa_trace::Op::FpMul, musa_trace::DepKind::Prev(1)),
                FpOp::scalar(musa_trace::Op::FpAdd, musa_trace::DepKind::Prev(1)),
                // Independent scalar work (pressure, sound speed, …).
                FpOp::scalar(musa_trace::Op::FpAdd, musa_trace::DepKind::None),
                FpOp::scalar(musa_trace::Op::FpMul, musa_trace::DepKind::None),
                FpOp::scalar(musa_trace::Op::FpAdd, musa_trace::DepKind::None),
                FpOp::scalar(musa_trace::Op::FpMul, musa_trace::DepKind::None),
                FpOp::scalar(musa_trace::Op::FpAdd, musa_trace::DepKind::None),
                FpOp::scalar(musa_trace::Op::FpMul, musa_trace::DepKind::None),
            ],
            int_ops: 8,
            branches: 2,
            trip_count: SWEEP_TRIPS,
            fusible_run: 8,
            streams: vec![
                StreamDesc {
                    base: 0x1000_0000,
                    footprint: 128 * 1024,
                    pattern: AccessPattern::Sequential { stride: 8 },
                },
                StreamDesc {
                    base: 0x2000_0000,
                    footprint: 128 * 1024,
                    pattern: AccessPattern::Sequential { stride: 8 },
                },
                StreamDesc {
                    base: 0x3000_0000,
                    footprint: 128 * 1024,
                    pattern: AccessPattern::Sequential { stride: 8 },
                },
                StreamDesc {
                    base: 0x4000_0000,
                    footprint: 4 * 1024,
                    pattern: AccessPattern::Local,
                },
            ],
        };
        build(0, &spec)
    }

    /// All HYDRO kernels.
    pub fn kernels() -> Vec<musa_trace::Kernel> {
        vec![Self::sweep_kernel()]
    }
}

impl AppModel for Hydro {
    fn id(&self) -> AppId {
        AppId::Hydro
    }

    fn generate(&self, p: &GenParams) -> AppTrace {
        let kernels = Self::kernels();
        let base_chunk_ns = estimate_duration_ns(&[&kernels[0]], TRACED_IPC);
        let grid = Grid2D::new(p.ranks);

        // Per iteration: timestep control, the sweep, the comms.
        let ranks = build_ranks(p, 2 + ITERATION_COMMS, |rank, iter, events| {
            let imb = rank_imbalance(p.seed ^ (0x51 + iter as u64), rank, RANK_SPREAD);
            let mut rng = rank_rng(p.seed, rank, 0x5000 + iter as u64);
            let chunks: Vec<WorkItem> = (0..CHUNKS)
                .map(|_| {
                    let skew = 1.0 + CHUNK_SKEW * (rng.next_f64() * 2.0 - 1.0);
                    WorkItem {
                        duration_ns: base_chunk_ns * skew * imb,
                        critical_ns: 0.0,
                        kernels: kernel_call((SWEEP_TRIPS as f64 * skew) as u32),
                    }
                })
                .collect();
            let serial_ns = chunks.iter().map(|c| c.duration_ns).sum::<f64>() * SERIAL_FRACTION;
            events.push(BurstEvent::Compute(serial_region(iter * 2, serial_ns)));
            events.push(BurstEvent::Compute(ComputeRegion {
                region_id: region_id(iter),
                work: RegionWork::ParallelFor {
                    chunks,
                    schedule: LoopSchedule::Dynamic,
                },
                spawn_overhead_ns: SPAWN_NS,
                dispatch_overhead_ns: DISPATCH_NS,
            }));
            events.extend(iteration_comms(&grid, rank, 256 * 1024));
        });

        let detail = DetailedTrace {
            app: self.id().label().to_string(),
            region_id: region_id(1.min(p.iterations - 1)),
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
    fn working_set_is_just_under_512kb() {
        let k = Hydro::sweep_kernel();
        let ws: u64 = k.streams.iter().map(|s| s.footprint).sum();
        assert!(ws > 256 * 1024, "must thrash a 256 kB L2");
        assert!(ws < 512 * 1024, "must fit a 512 kB L2");
    }

    #[test]
    fn sweep_walks_working_set_multiple_times() {
        let k = Hydro::sweep_kernel();
        // One access per stream per iteration, stride 8: walk length.
        let walk_iters = 128 * 1024 / 8;
        assert_eq!(k.trip_count as u64 / walk_iters, 4);
    }

    #[test]
    fn kernel_is_compute_dominated() {
        let k = Hydro::sweep_kernel();
        let mem = k.body.iter().filter(|t| t.op.is_mem()).count();
        let fp = k.body.iter().filter(|t| t.op.is_fp()).count();
        assert!(
            fp > 2 * mem,
            "HYDRO is compute-intensive: fp={fp} mem={mem}"
        );
    }

    #[test]
    fn vector_fraction_is_moderate() {
        let k = Hydro::sweep_kernel();
        let marked = k.body.iter().filter(|t| t.vector_marked).count();
        let frac = marked as f64 / k.body.len() as f64;
        assert!(frac > 0.2 && frac < 0.45, "frac={frac}");
    }

    #[test]
    fn regions_are_balanced_parallel_loops() {
        let trace = Hydro.generate(&GenParams::tiny());
        let region = trace.sampled_region().unwrap();
        match &region.work {
            RegionWork::ParallelFor { chunks, .. } => {
                assert_eq!(chunks.len(), CHUNKS as usize);
                let durations: Vec<f64> = chunks.iter().map(|c| c.duration_ns).collect();
                let mean = durations.iter().sum::<f64>() / durations.len() as f64;
                let max = durations.iter().copied().fold(0.0, f64::max);
                assert!(max / mean < 1.2, "well balanced: max/mean {}", max / mean);
            }
            other => panic!("expected ParallelFor, got {other:?}"),
        }
        assert!(region.spawn_overhead_ns > 0.0);
    }

    #[test]
    fn trace_has_one_region_and_comms_per_iteration() {
        let p = GenParams::tiny();
        let trace = Hydro.generate(&p);
        let rank0 = &trace.ranks[0];
        assert_eq!(rank0.regions().count(), 2 * p.iterations as usize);
        let mpi = rank0
            .events
            .iter()
            .filter(|e| matches!(e, BurstEvent::Mpi(_)))
            .count();
        // 4 halo sendrecvs + 1 allreduce per iteration.
        assert_eq!(mpi, (p.iterations * 5) as usize);
    }
}
