//! Compute-phase timing sources for the replay.
//!
//! MUSA's integration step replaces the durations of the trace's compute
//! phases "by the results obtained in the simulations" (§II-A). The
//! replay is generic over where those durations come from:
//!
//! * [`BurstTimes`] — the burst-mode timings of a whole trace at every
//!   core count of the design space, scheduled in one walk over the trace
//!   and then replayed under any detailed/burst ratio: the MUSA sampling
//!   extrapolation, which every full-application estimate
//!   (`MultiscaleSim::simulate`) and the Fig. 2b scaling study take. The
//!   burst level is hardware agnostic, so a campaign needs one table per
//!   trace;
//! * [`BurstTimer`] — hardware-agnostic burst-mode scheduling of each
//!   region for a given core count, on every replay (Fig. 4's timelines);
//! * [`FixedRatioTimer`] — the same rescaled by a ratio, which schedules
//!   every region on every replay. Only tests and the benchmark's traced
//!   pass use it: it is the timer path that [`BurstTimes::replay`] equals
//!   bit for bit.

use musa_arch::CoresPerNode;
use musa_tasksim::{burst_makespan_ns, burst_makespans_ns};
use musa_trace::{AppTrace, ComputeRegion};

use crate::params::NetworkParams;
use crate::replay::{replay_events, SlotPlan};

/// Supplies the simulated duration of a compute region.
pub trait ComputeTimer {
    /// Duration in nanoseconds of `region` executed by `rank`.
    fn region_time_ns(&mut self, rank: u32, region: &ComputeRegion) -> f64;
}

/// Burst-mode (hardware-agnostic) timer: schedules each region's work
/// items on `cores` cores with trace durations.
#[derive(Debug, Clone, Copy)]
pub struct BurstTimer {
    /// Cores per node.
    pub cores: u32,
}

impl ComputeTimer for BurstTimer {
    fn region_time_ns(&mut self, _rank: u32, region: &ComputeRegion) -> f64 {
        burst_makespan_ns(region, self.cores)
    }
}

/// Burst-mode timing rescaled by a detailed/burst time ratio (the MUSA
/// sampling extrapolation).
#[derive(Debug, Clone, Copy)]
pub struct FixedRatioTimer {
    /// Cores per node.
    pub cores: u32,
    /// detailed-time / burst-time ratio measured on the sampled region.
    pub ratio: f64,
}

impl ComputeTimer for FixedRatioTimer {
    fn region_time_ns(&mut self, _rank: u32, region: &ComputeRegion) -> f64 {
        burst_makespan_ns(region, self.cores) * self.ratio
    }
}

/// The burst-mode makespan of every compute event of every rank of one
/// trace at every [`CoresPerNode`] count, and the trace compiled for the
/// replay loop.
#[derive(Debug, Clone, PartialEq)]
pub struct BurstTimes {
    plan: SlotPlan,
    /// Per count of [`CoresPerNode::ALL`], `[compute slot][rank]`: the
    /// order the replay asks in.
    times_ns: [Vec<f64>; CoresPerNode::ALL.len()],
}

impl BurstTimes {
    /// Schedule every compute region of `trace` at 1, 32 and 64 cores in
    /// one pass over its items, as [`BurstTimer`] would at each during a
    /// replay, and compile the trace's plan in the same walk. Panics on a
    /// non-SPMD trace.
    pub fn build(trace: &AppTrace) -> BurstTimes {
        let counts = CoresPerNode::ALL.map(CoresPerNode::count);
        let events = trace.ranks.len() * trace.ranks.first().map_or(0, |rt| rt.regions().count());
        let mut times_ns = counts.map(|_| Vec::with_capacity(events));
        let mut makespans = counts.map(|_| 0.0);
        let plan = SlotPlan::compile(trace, |region| {
            burst_makespans_ns(region, &counts, &mut makespans);
            for (times, makespan) in times_ns.iter_mut().zip(makespans) {
                times.push(makespan);
            }
        });
        BurstTimes { plan, times_ns }
    }

    /// Replay `trace`, the one the table was built from, at `cores`, with
    /// every burst time multiplied by `ratio`, and return its end-to-end
    /// runtime in ns: bit for bit the `total_ns` that
    /// [`replay`](crate::replay()) returns under a [`FixedRatioTimer`] of
    /// that core count (a [`BurstTimer`] for ratio 1). It keeps no
    /// per-rank account and reads none of the trace's events.
    /// Panics when the table does not have the trace's shape.
    pub fn replay(
        &self,
        trace: &AppTrace,
        net: &NetworkParams,
        cores: CoresPerNode,
        ratio: f64,
    ) -> f64 {
        // `ALL` lists the counts in declaration order.
        let times = &self.times_ns[cores as usize];
        assert!(
            self.plan.fits(trace),
            "burst-time table of {} ranks x {} compute events replayed over another trace",
            self.plan.ranks,
            times.len() / self.plan.ranks,
        );
        replay_events(
            &self.plan,
            &trace.meta.app,
            net,
            |i, _, _| times[i] * ratio,
            |_, _, _, _, _| {},
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use musa_trace::{RegionWork, WorkItem};

    fn region() -> ComputeRegion {
        ComputeRegion {
            region_id: 0,
            work: RegionWork::ParallelFor {
                chunks: vec![WorkItem::simple(100.0); 8],
                schedule: musa_trace::LoopSchedule::Dynamic,
            },
            spawn_overhead_ns: 0.0,
            dispatch_overhead_ns: 0.0,
        }
    }

    #[test]
    fn burst_timer_scales_with_cores() {
        let r = region();
        let t1 = BurstTimer { cores: 1 }.region_time_ns(0, &r);
        let t8 = BurstTimer { cores: 8 }.region_time_ns(0, &r);
        assert!((t1 - 800.0).abs() < 1e-9);
        assert!((t8 - 100.0).abs() < 1e-9);
    }

    #[test]
    fn ratio_timer_rescales() {
        let r = region();
        let t = FixedRatioTimer {
            cores: 8,
            ratio: 1.5,
        }
        .region_time_ns(0, &r);
        assert!((t - 150.0).abs() < 1e-9);
    }
}
