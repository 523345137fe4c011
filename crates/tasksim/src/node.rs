//! Node-level detailed simulation: kernel profiling, scheduling under
//! memory-bandwidth contention, plus the DRAM command-stream estimate
//! handed to the power models.

use musa_arch::NodeConfig;
use musa_mem::{ChannelStats, DramTiming};
use musa_trace::{ComputeRegion, DetailedTrace, Kernel, KernelId, WorkItem};

use crate::geometry::CacheGeometry;
use crate::locality::kernel_footprint_bytes;
use crate::multicore::{schedule_region_totals, Schedule};
use crate::profile::{KernelProfile, ProfileTable};
use crate::stats::SimStats;

/// Sustainable fraction of peak DRAM bandwidth under a mixed read/write
/// stream (bank conflicts, refresh, turnarounds).
const DDR_EFFICIENCY: f64 = 0.70;
/// Aggregate bandwidth ceiling of the on-chip uncore path (mesh +
/// memory-controller front ends) feeding off-package DDR PHYs, GB/s.
/// Adding channels beyond this point stops paying — the reason the
/// paper's 16-channel MEM+ configuration gains only ≈7 % while
/// on-package HBM (MEM++) keeps scaling.
const UNCORE_DDR_GBS: f64 = 128.0;
/// Same ceiling for on-package HBM stacks (shorter, wider path).
const UNCORE_HBM_GBS: f64 = 176.0;

/// Effective sustainable DRAM bandwidth of a memory configuration.
/// Beyond eight channels the deeper controller-level parallelism lifts
/// the sustainable fraction slightly — the paper's MEM+ configuration
/// gains ≈7 % over eight channels despite the shared uncore ceiling.
pub fn effective_bandwidth_gbs(mem: musa_arch::MemConfig) -> f64 {
    let uncore = match mem.tech {
        musa_arch::MemTechnology::Ddr4 => UNCORE_DDR_GBS,
        musa_arch::MemTechnology::Hbm => UNCORE_HBM_GBS,
    };
    let efficiency = if mem.channels > 8 {
        0.78
    } else {
        DDR_EFFICIENCY
    };
    mem.peak_bandwidth_gbs().min(uncore) * efficiency
}

/// Per-item detailed duration (ns, uncontended), statistics and DRAM
/// bytes.
type ItemCost = (f64, SimStats, f64);

/// The kernel a [`NodeSim::simulate_region`] call profiled last: every
/// item of a region invokes the same kernel, so the profile table is
/// asked once per region, not once per item. A different kernel id
/// replaces it.
type LastKernel = Option<(KernelId, KernelProfile)>;

/// Result of simulating one compute region in detailed mode.
#[derive(Debug, Clone)]
pub struct DetailedRegionResult {
    /// The schedule (makespan, busy time, efficiency). It records no
    /// placements: its timeline is empty.
    pub schedule: Schedule,
    /// Aggregated architectural statistics over the region.
    pub stats: SimStats,
    /// Final bandwidth-stretch factor applied to memory-bound cycles.
    pub mem_stretch: f64,
    /// Demanded DRAM bandwidth before contention, GB/s.
    pub demanded_gbs: f64,
    /// Estimated DRAM command statistics for the power model.
    pub dram: ChannelStats,
}

/// Detailed simulator of one node configuration.
///
/// Kernel profiles come from a [`ProfileTable`]: by default the
/// simulator's own, which the repeated regions (timesteps) it simulates
/// share, or one attached with [`NodeSim::with_profiles`], which every
/// simulator of the same detailed trace shares. Through a shared table a
/// profile stage is computed once for the configuration axes it reads
/// (see [`crate::profile`]); results are bit-identical either way.
pub struct NodeSim<'a> {
    config: NodeConfig,
    detail: &'a DetailedTrace,
    profiles: Profiles<'a>,
    region_ws_bytes: f64,
    /// Cores sharing the L3: `min(items, cores)`.
    active: u32,
    geom: CacheGeometry,
}

/// The table a [`NodeSim`] profiles through.
enum Profiles<'a> {
    Own(ProfileTable),
    Shared(&'a ProfileTable),
}

impl<'a> NodeSim<'a> {
    /// Build a simulator for `config` over the sampled detailed trace,
    /// using `region` to size the shared working set and concurrency.
    pub fn new(config: NodeConfig, detail: &'a DetailedTrace, region: &ComputeRegion) -> Self {
        let items = region.work.items();
        // Region working set: one footprint contribution per kernel
        // invocation (items work on disjoint sub-domains), each kernel's
        // priced through a slot of the last one, as `item_cost` profiles.
        let mut last: Option<(KernelId, f64)> = None;
        let region_ws_bytes: f64 = items
            .iter()
            .flat_map(|w| &w.kernels)
            .filter_map(|inv| match last {
                Some((id, bytes)) if id == inv.kernel => Some(bytes),
                _ => {
                    let bytes = kernel_footprint_bytes(detail.kernel(inv.kernel)?);
                    last = Some((inv.kernel, bytes));
                    Some(bytes)
                }
            })
            .sum();
        let active = (items.len() as u32).min(config.cores.count()).max(1);
        let geom = CacheGeometry::new(&config, active);
        NodeSim {
            config,
            detail,
            profiles: Profiles::Own(ProfileTable::new()),
            region_ws_bytes,
            active,
            geom,
        }
    }

    /// Profile through `table` instead of this simulator's own. The
    /// table must only ever serve `detail`, this simulator's trace.
    pub fn with_profiles(mut self, table: &'a ProfileTable) -> Self {
        self.profiles = Profiles::Shared(table);
        self
    }

    /// The geometry in use (exposed for diagnostics).
    pub fn geometry(&self) -> &CacheGeometry {
        &self.geom
    }

    /// Profile a kernel, through the profile table.
    pub fn profile(&self, kernel: KernelId) -> Option<KernelProfile> {
        self.detail.kernel(kernel).map(|k| self.profile_of(k))
    }

    fn profile_of(&self, kernel: &Kernel) -> KernelProfile {
        let table = match &self.profiles {
            Profiles::Own(table) => table,
            Profiles::Shared(table) => table,
        };
        table.profile(
            kernel,
            &self.config,
            &self.geom,
            self.active,
            self.region_ws_bytes,
        )
    }

    /// An item's cost, its kernel profiled through `last`.
    fn item_cost(&self, item: &WorkItem, last: &mut LastKernel) -> ItemCost {
        let ghz = self.config.freq.ghz();
        let mut dur = 0.0;
        let mut stats = SimStats::default();
        let mut bytes = 0.0;
        if let Some(inv) = &item.kernels {
            let found = match *last {
                Some((id, p)) if id == inv.kernel => Some(p),
                _ => self.detail.kernel(inv.kernel).map(|kernel| {
                    let p = self.profile_of(kernel);
                    *last = Some((inv.kernel, p));
                    p
                }),
            };
            // Accumulated into zeroed totals: `merge` weighs
            // `mem_seq_fraction` by the reads, so a plain copy of the
            // scaled stats could differ in the last bit.
            if let Some(p) = found {
                let trips = inv.trips.get();
                dur += p.duration_ns(trips, ghz);
                stats.merge(&p.stats_per_iter.scaled(trips as f64));
                bytes += p.mem_bytes_per_iter * trips as f64;
            }
        } else {
            // No detailed content (e.g. serial bookkeeping): fall back to
            // the trace duration, frequency-scaled from the traced
            // 2.6 GHz machine.
            dur = item.duration_ns * 2.6 / ghz;
        }
        (dur, stats, bytes)
    }

    /// Simulate a region in detailed mode: profile-driven durations under
    /// a roofline bandwidth contention — an item's effective duration is
    /// `max(core_time, dram_bytes / fair_bandwidth_share)`, with the fair
    /// share determined by the achieved concurrency.
    pub fn simulate_region(&mut self, region: &ComputeRegion) -> DetailedRegionResult {
        let mut last = None;
        let base = region
            .work
            .items()
            .iter()
            .map(|item| self.item_cost(item, &mut last))
            .collect();
        self.contend(region, base)
    }

    /// [`NodeSim::simulate_region`] from the items' uncontended costs.
    fn contend(&self, region: &ComputeRegion, base: Vec<ItemCost>) -> DetailedRegionResult {
        let cores = self.config.cores.count();
        let n = base.len();
        let mut total_stats = SimStats::default();
        let mut total_bytes = 0.0;
        for (_, stats, bytes) in &base {
            total_stats.merge(stats);
            total_bytes += bytes;
        }

        let cap_gbs = effective_bandwidth_gbs(self.config.mem);
        let items = region.work.items();

        // Bulk concurrency: the bandwidth is shared by the items that
        // run simultaneously during the region's bulk. A first schedule,
        // sharing the bandwidth among as many items as can run at once,
        // measures it; one refinement at the measured value settles it
        // (the fair share moves durations, which moves concurrency only
        // marginally), and is skipped when the two are within 5 %. Only
        // the makespan and busy time are read: no placement is recorded.
        let mut durations = Vec::with_capacity(n);
        let mut schedule_at = |concurrency: f64| {
            let share = cap_gbs / concurrency;
            durations.clear();
            durations.extend(base.iter().map(|(dur0, _, bytes)| dur0.max(*bytes / share)));
            let durations = &durations;
            schedule_region_totals(
                region,
                cores,
                |i| durations[i],
                |i| {
                    // Critical fraction carried over from the trace.
                    let itm = &items[i];
                    if itm.duration_ns > 0.0 {
                        durations[i] * (itm.critical_ns / itm.duration_ns)
                    } else {
                        0.0
                    }
                },
            )
        };
        let concurrency = (n as f64).min(cores as f64).max(1.0);
        let mut schedule = schedule_at(concurrency);
        // Bulk concurrency: average over the busier half of the region
        // (the tail's draining cores shouldn't inflate everyone's share).
        let bulk = 0.5 * (schedule.avg_concurrency() + (n as f64).min(cores as f64));
        let settled = (bulk - concurrency).abs() < 0.05 * concurrency;
        if !settled {
            schedule = schedule_at(bulk.max(1.0));
        }
        let demanded = if schedule.makespan_ns > 0.0 {
            total_bytes / schedule.makespan_ns
        } else {
            0.0
        };
        let busy0: f64 = base.iter().map(|(d, _, _)| *d).sum();
        let stretch = if busy0 > 0.0 {
            schedule.busy_ns / busy0
        } else {
            1.0
        };

        let dram = {
            let _dram = musa_obs::span_app(musa_obs::phase::DRAM, &self.detail.app);
            estimate_dram_stats(
                &total_stats,
                schedule.makespan_ns,
                &DramTiming::for_tech(self.config.mem.tech),
                self.config.mem.channels,
            )
        };

        DetailedRegionResult {
            schedule,
            stats: total_stats,
            mem_stretch: stretch,
            demanded_gbs: demanded,
            dram,
        }
    }
}

/// Estimate the DRAM command statistics a region's traffic would produce
/// — the input DRAMPower-style accounting needs. Row-buffer hits follow
/// the sequential/random traffic split.
pub fn estimate_dram_stats(
    stats: &SimStats,
    span_ns: f64,
    timing: &DramTiming,
    channels: u32,
) -> ChannelStats {
    let reads = stats.mem_reads;
    let writes = stats.mem_writes;
    // Sequential streams mostly hit open rows; random traffic conflicts.
    let row_hit = 0.85 * stats.mem_seq_fraction + 0.10 * (1.0 - stats.mem_seq_fraction);
    let acts = (reads + writes) * (1.0 - row_hit);
    let refreshes = if span_ns > 0.0 {
        (span_ns / timing.cycles_to_ns(timing.refi)) * channels as f64
    } else {
        0.0
    };
    let bytes = (reads + writes) * musa_arch::CACHE_LINE_BYTES as f64;
    ChannelStats {
        reads: reads as u64,
        writes: writes as u64,
        acts: acts as u64,
        pres: acts as u64,
        refreshes: refreshes as u64,
        row_hits: ((reads + writes) * row_hit) as u64,
        row_closed: 0,
        row_conflicts: ((reads + writes) * (1.0 - row_hit)) as u64,
        bus_busy_ns: (bytes / timing.burst_bytes as f64) * timing.cycles_to_ns(timing.bl),
        total_latency_ns: 0.0,
        bytes: bytes as u64,
        last_done_ns: span_ns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use musa_apps::{generate, AppId, GenParams};
    use musa_arch::{CoresPerNode, MemConfig, NodeConfig};

    fn run(app: AppId, cfg: NodeConfig) -> DetailedRegionResult {
        let trace = generate(app, &GenParams::tiny());
        let region = trace.sampled_region().unwrap().clone();
        let detail = trace.detail.as_ref().unwrap();
        let mut sim = NodeSim::new(cfg, detail, &region);
        sim.simulate_region(&region)
    }

    fn cfg64() -> NodeConfig {
        NodeConfig::REFERENCE.with_cores(CoresPerNode::C64)
    }

    #[test]
    fn lulesh_gains_from_more_channels_at_64_cores() {
        let r4 = run(AppId::Lulesh, cfg64().with_mem(MemConfig::DDR4_4CH));
        let r8 = run(AppId::Lulesh, cfg64().with_mem(MemConfig::DDR4_8CH));
        let speedup = r4.schedule.makespan_ns / r8.schedule.makespan_ns;
        assert!(
            speedup > 1.2,
            "lulesh 8ch speedup {speedup} (stretch4={} stretch8={})",
            r4.mem_stretch,
            r8.mem_stretch
        );
    }

    #[test]
    fn spec3d_does_not_gain_from_more_channels() {
        let r4 = run(AppId::Spec3d, cfg64().with_mem(MemConfig::DDR4_4CH));
        let r8 = run(AppId::Spec3d, cfg64().with_mem(MemConfig::DDR4_8CH));
        let speedup = r4.schedule.makespan_ns / r8.schedule.makespan_ns;
        assert!(speedup < 1.06, "spec3d should be flat: {speedup}");
    }

    #[test]
    fn hydro_single_core_has_low_memory_demand() {
        let r = run(
            AppId::Hydro,
            NodeConfig::REFERENCE.with_cores(CoresPerNode::C1),
        );
        assert!(r.demanded_gbs < 5.0, "hydro demand {}", r.demanded_gbs);
        assert!((r.mem_stretch - 1.0).abs() < 0.05);
    }

    #[test]
    fn stats_accumulate_over_items() {
        let r = run(AppId::Spmz, cfg64());
        assert!(r.stats.instructions > 0.0);
        assert!(r.stats.l1.accesses > 0.0);
        assert!(r.stats.mpki(&r.stats.l1) > 60.0);
        assert!(r.dram.reads > 0);
    }

    /// Fig. 3's source: the burst schedule of Specfem3D's sampled region
    /// at 64 cores, which records where each item ran (the detailed
    /// schedule records no placements).
    #[test]
    fn timeline_shows_spec3d_starvation() {
        let trace = generate(AppId::Spec3d, &GenParams::tiny());
        let schedule = crate::simulate_region_burst(trace.sampled_region().unwrap(), 64);
        let busy = schedule.core_busy_ns();
        let active = busy.iter().filter(|&&b| b > 0.0).count();
        assert!(
            (1..32).contains(&active),
            "most cores must stay idle (Fig. 3): {active} active"
        );
        assert!(
            run(AppId::Spec3d, cfg64()).schedule.timeline.is_empty(),
            "the detailed schedule records no placements"
        );
    }

    /// A region whose items invoke two kernels interleaved, in runs and
    /// apart, none, and an unknown kernel id, one kernel per item: the
    /// working set is the sum of one footprint per invocation, and
    /// `simulate_region` equals the contention step applied to item
    /// costs composed from `profile_kernel` per item, and an item whose
    /// kernel the slot holds is priced from the slot.
    #[test]
    fn one_lookup_per_kernel_equals_profiling_every_invocation() {
        use crate::profile::profile_kernel;
        use musa_trace::{KernelInvocation, RegionWork, WorkItem};

        let kernels: Vec<Kernel> = [AppId::Hydro, AppId::Btmz]
            .into_iter()
            .zip(10..)
            .map(|(app, id)| {
                let trace = generate(app, &GenParams::tiny());
                let k = trace.detail.as_ref().unwrap().kernels[0].clone();
                Kernel { id, ..k }
            })
            .collect();
        let detail = DetailedTrace {
            app: "synthetic".into(),
            region_id: 0,
            kernels,
        };
        // Positions 1 and 4 run a slice of kernel 10's iterations, the
        // others each kernel's own count.
        let own = |id| detail.kernel(id).map_or(1, |k| k.trip_count);
        let item = |i: u32, invocation: Option<(KernelId, u32)>| WorkItem {
            duration_ns: 1_000.0 * f64::from(i + 1),
            critical_ns: 100.0 * f64::from(i),
            kernels: invocation.map(|(kernel, trips)| KernelInvocation {
                kernel,
                trips: trips.try_into().unwrap(),
            }),
        };
        let items = vec![
            item(0, Some((10, own(10)))),
            item(1, Some((10, 5))),
            item(2, Some((11, own(11)))),
            item(3, Some((11, own(11)))),
            item(4, Some((10, 3))),
            item(5, None),
            item(6, Some((11, own(11)))),
            item(7, Some((77, own(77)))),
            item(8, Some((11, own(11)))),
            item(9, Some((10, own(10)))),
        ];
        let region = ComputeRegion {
            region_id: 0,
            work: RegionWork::Tasks {
                items,
                deps: Vec::new(),
            },
            spawn_overhead_ns: 50.0,
            dispatch_overhead_ns: 20.0,
        };
        for cfg in [
            NodeConfig::REFERENCE,
            cfg64().with_mem(MemConfig::DDR4_8CH),
            NodeConfig::REFERENCE.with_cores(CoresPerNode::C1),
        ] {
            let mut sim = NodeSim::new(cfg, &detail, &region);
            // The footprint slot prices the working set as one
            // footprint per invocation does.
            let ws: f64 = region
                .work
                .items()
                .iter()
                .flat_map(|w| &w.kernels)
                .filter_map(|inv| detail.kernel(inv.kernel))
                .map(kernel_footprint_bytes)
                .sum();
            assert_eq!(sim.region_ws_bytes.to_bits(), ws.to_bits(), "{cfg}");
            let ghz = cfg.freq.ghz();
            let profile = |id| {
                let k = detail.kernel(id).unwrap();
                profile_kernel(k, &cfg, sim.geometry(), sim.region_ws_bytes)
            };
            assert_ne!(
                format!("{:?}", profile(10)),
                format!("{:?}", profile(11)),
                "the two interleaved kernels profile apart"
            );
            let want: Vec<ItemCost> = region
                .work
                .items()
                .iter()
                .map(|item| {
                    let (mut dur, mut stats, mut bytes) = (0.0, SimStats::default(), 0.0);
                    match &item.kernels {
                        None => dur = item.duration_ns * 2.6 / ghz,
                        Some(inv) => {
                            if let Some(k) = detail.kernel(inv.kernel) {
                                let p = profile(k.id);
                                let trips = inv.trips.get();
                                dur += p.duration_ns(trips, ghz);
                                stats.merge(&p.stats_per_iter.scaled(trips as f64));
                                bytes += p.mem_bytes_per_iter * trips as f64;
                            }
                        }
                    }
                    (dur, stats, bytes)
                })
                .collect();
            assert_eq!(want[7].0, 0.0, "an unknown kernel id costs nothing");
            assert_ne!(
                format!("{:?}", want[0]),
                format!("{:?}", want[1]),
                "the trip count changes the cost"
            );

            // The items the slot answers: a run of one kernel, at its
            // own and at a sliced trip count, and a kernel the unknown id
            // did not displace. No kernel and an unknown id leave the
            // slot.
            let mut last: LastKernel = None;
            let hits: Vec<usize> = (0..region.work.items().len())
                .filter(|&i| {
                    let item = &region.work.items()[i];
                    let held = matches!((&last, &item.kernels),
                        (Some((id, _)), Some(inv)) if *id == inv.kernel);
                    sim.item_cost(item, &mut last);
                    held
                })
                .collect();
            assert_eq!(hits, [1, 3, 8]);
            // A held slot is priced without a lookup: filled with kernel
            // 11's profile under kernel 10's id, it prices item 1 by 11.
            let mut slot = Some((10, profile(11)));
            let (dur, ..) = sim.item_cost(&region.work.items()[1], &mut slot);
            assert_eq!(dur, profile(11).duration_ns(5, ghz));

            let want = format!("{:?}", sim.contend(&region, want));
            assert_eq!(format!("{:?}", sim.simulate_region(&region)), want, "{cfg}");
        }
    }

    #[test]
    fn estimated_dram_stats_are_consistent() {
        let s = SimStats {
            mem_reads: 1000.0,
            mem_writes: 200.0,
            mem_seq_fraction: 1.0,
            ..Default::default()
        };
        let t = DramTiming::ddr4_2400();
        let d = estimate_dram_stats(&s, 1e6, &t, 4);
        assert_eq!(d.reads, 1000);
        assert_eq!(d.writes, 200);
        assert!(d.row_hits > d.row_conflicts);
        assert_eq!(d.bytes, 1200 * 64);
    }
}
