//! Compute-phase timing sources for the replay.
//!
//! MUSA's integration step replaces the durations of the trace's compute
//! phases "by the results obtained in the simulations" (§II-A). The
//! replay is generic over where those durations come from:
//!
//! * [`BurstTimer`] — hardware-agnostic burst-mode scheduling of each
//!   region for a given core count (used by the Fig. 2 scaling study);
//! * [`FixedRatioTimer`] — burst-mode timing rescaled by the ratio
//!   detailed/burst observed on the sampled representative region: the
//!   MUSA sampling methodology, used for full-application estimates
//!   under a specific hardware configuration;
//! * [`BurstTimes`] — the burst-mode timings of a whole trace at one
//!   core count, scheduled once and then replayed under any ratio. The
//!   burst level is hardware agnostic, so a campaign needs one table
//!   per (trace, core count) where the two timers above schedule every
//!   region again on every replay.

use musa_tasksim::burst_makespan_ns;
use musa_trace::{AppTrace, BurstEvent, ComputeRegion};

use crate::params::NetworkParams;
use crate::replay::{compute_region, replay_events, spmd_shape, ReplayResult};

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
/// trace at one core count.
#[derive(Debug, Clone, PartialEq)]
pub struct BurstTimes {
    ranks: usize,
    /// `[compute slot][rank]`, the order the replay asks in.
    times_ns: Vec<f64>,
}

impl BurstTimes {
    /// Schedule every compute region of `trace` on `cores` cores, as
    /// [`BurstTimer`] would during a replay. Panics on a non-SPMD trace.
    pub fn build(trace: &AppTrace, cores: u32) -> BurstTimes {
        let (ranks, n_events) = spmd_shape(trace);
        let mut times_ns = Vec::with_capacity(ranks * trace.ranks[0].regions().count());
        for slot in 0..n_events {
            if matches!(trace.ranks[0].events[slot], BurstEvent::Compute(_)) {
                times_ns.extend(
                    trace
                        .ranks
                        .iter()
                        .map(|rt| burst_makespan_ns(compute_region(rt, slot), cores)),
                );
            }
        }
        BurstTimes { ranks, times_ns }
    }

    /// Replay `trace`, the one the table was built from, with every
    /// burst time multiplied by `ratio`: bit for bit what
    /// [`replay`](crate::replay()) returns under a [`FixedRatioTimer`]
    /// of the core count the table was built at (a [`BurstTimer`] for
    /// ratio 1).
    /// Panics when the table does not have the trace's shape.
    pub fn replay(&self, trace: &AppTrace, net: &NetworkParams, ratio: f64) -> ReplayResult {
        let compute_slots = trace.ranks.first().map_or(0, |rt| rt.regions().count());
        assert!(
            self.ranks == trace.ranks.len() && self.times_ns.len() == compute_slots * self.ranks,
            "burst-time table of {} ranks x {} compute events replayed over another trace",
            self.ranks,
            self.times_ns.len() / self.ranks.max(1),
        );
        replay_events(
            trace,
            net,
            |i, _, _| self.times_ns[i] * ratio,
            |_, _, _, _| {},
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
            name: "r".into(),
            work: RegionWork::ParallelFor {
                chunks: (0..8).map(|i| WorkItem::simple(i, 100.0)).collect(),
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
