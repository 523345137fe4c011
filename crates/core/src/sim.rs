//! The multiscale simulation of one (application, configuration) pair —
//! MUSA's end-to-end flow (§II-A):
//!
//! 1. detailed simulation of the sampled representative region on the
//!    target node configuration (`musa-tasksim`);
//! 2. extrapolation: the detailed/burst time ratio of the sampled region
//!    rescales every rank's burst-mode compute phases;
//! 3. full-application replay of all compute + MPI events over the
//!    network model (`musa-net`);
//! 4. power estimation of the node during the region (`musa-power` +
//!    `musa-mem`) and energy-to-solution over the whole run.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use musa_arch::NodeConfig;
use musa_cache::{ArtifactCache, ArtifactKey, BurstArtifact, DetailArtifact};
use musa_net::{BurstTimes, NetworkParams, ReplayResult};
use musa_power::{PowerBreakdown, PowerModel};
use musa_tasksim::{burst_makespan_ns, NodeSim, ProfileTable};
use musa_trace::{AppTrace, ComputeRegion, DetailedTrace, TraceMeta};

/// Scalar summary of one multiscale simulation, the unit of the DSE
/// result table.
#[derive(Debug, Clone, PartialEq)]
pub struct ConfigResult {
    /// Application label.
    pub app: String,
    /// Node configuration.
    pub config: NodeConfig,
    /// Full-application parallel runtime (256-rank replay), ns.
    pub time_ns: f64,
    /// Detailed makespan of the sampled compute region, ns.
    pub region_ns: f64,
    /// Node power during the sampled region.
    pub power: PowerBreakdown,
    /// Node energy-to-solution over the full run, joules.
    pub energy_j: f64,
    /// L1 misses per kilo-instruction (128-bit baseline).
    pub l1_mpki: f64,
    /// L2 MPKI.
    pub l2_mpki: f64,
    /// L3 MPKI.
    pub l3_mpki: f64,
    /// DRAM requests (incl. write-backs) per kilo-instruction.
    pub mem_mpki: f64,
    /// DRAM requests per second during the region (×10⁹ = the paper's
    /// "Giga-MemRequest/s").
    pub gmemreq_per_s: f64,
    /// Bandwidth roofline stretch applied by the contention model.
    pub mem_stretch: f64,
    /// Parallel efficiency of the sampled region's schedule.
    pub region_efficiency: f64,
}

musa_obs::json_struct!(ConfigResult {
    app,
    config,
    time_ns,
    region_ns,
    power,
    energy_j,
    l1_mpki,
    l2_mpki,
    l3_mpki,
    mem_mpki,
    gmemreq_per_s,
    mem_stretch,
    region_efficiency
});

/// What the per-point simulators of one trace share: the burst-time
/// tables, one per core count asked for, and the kernel profile table.
///
/// Both are properties of the trace. The burst level is hardware
/// agnostic: what a rank's compute events take at a core count is fixed,
/// so every point of a campaign replays the same table under its own
/// detailed/burst ratio. A kernel profile stage reads only a few axes of
/// the configuration, so points that agree on them share it
/// ([`ProfileTable`]). A [`MultiscaleSim`] owns a memo of its own;
/// whoever keeps a trace alive across per-point simulators keeps one
/// beside it and hands it to each ([`MultiscaleSim::with_trace_memo`]).
/// Entries are built on first use and never persisted: a burst table
/// costs what a single replay used to, once per core count and process.
pub struct TraceMemo {
    /// What the tables are built from; a generator's output is a
    /// function of its metadata.
    trace: TraceMeta,
    tables: Mutex<HashMap<u32, Arc<BurstTimes>>>,
    profiles: ProfileTable,
}

impl TraceMemo {
    /// An empty memo for `trace`.
    pub fn for_trace(trace: &AppTrace) -> TraceMemo {
        TraceMemo {
            trace: trace.meta.clone(),
            tables: Mutex::new(HashMap::new()),
            profiles: ProfileTable::new(),
        }
    }

    /// The table of `trace` at `cores`, built on the first request.
    fn table(&self, trace: &AppTrace, cores: u32) -> Arc<BurstTimes> {
        let mut tables = self.tables.lock().unwrap_or_else(|e| e.into_inner());
        Arc::clone(
            tables
                .entry(cores)
                .or_insert_with(|| Arc::new(BurstTimes::build(trace, cores))),
        )
    }
}

/// The multiscale simulator for one application trace.
pub struct MultiscaleSim<'a> {
    trace: &'a AppTrace,
    net: NetworkParams,
    /// Burst-time tables and kernel profiles: the memo the caller
    /// attached, else one of this simulator's own from the first point
    /// on.
    memo: OnceLock<Arc<TraceMemo>>,
    /// In-process burst-baseline memo. The baseline depends only on the
    /// sampled region (fixed per trace) and the active core count, so
    /// the paper-scale 864-point sweep needs just one per core count —
    /// this memo pays off even with the artifact cache disabled.
    baseline_memo: Mutex<HashMap<u32, f64>>,
    /// Artifact cache plus this trace's key (which seeds every detail
    /// and burst key), when the caller attached one.
    cache: Option<(Arc<ArtifactCache>, ArtifactKey)>,
}

impl<'a> MultiscaleSim<'a> {
    /// New simulator over a trace, with the MareNostrum4-class network.
    pub fn new(trace: &'a AppTrace) -> Self {
        MultiscaleSim {
            trace,
            net: NetworkParams::marenostrum4(),
            memo: OnceLock::new(),
            baseline_memo: Mutex::new(HashMap::new()),
            cache: None,
        }
    }

    /// Share the burst-time tables and kernel profiles of `memo`, which
    /// must have been made for this simulator's trace
    /// ([`TraceMemo::for_trace`]). Panics otherwise: its tables would
    /// time another application's events and kernels.
    pub fn with_trace_memo(mut self, memo: Arc<TraceMemo>) -> Self {
        assert!(
            memo.trace == self.trace.meta,
            "trace memo of trace {:?} attached to a simulator of trace {:?}",
            memo.trace,
            self.trace.meta
        );
        self.memo = OnceLock::from(memo);
        self
    }

    fn memo(&self) -> &TraceMemo {
        self.memo
            .get_or_init(|| Arc::new(TraceMemo::for_trace(self.trace)))
    }

    /// The burst times of the whole trace at `cores`.
    fn burst_times(&self, cores: u32) -> Arc<BurstTimes> {
        self.memo().table(self.trace, cores)
    }

    /// Override the network parameters.
    pub fn with_network(mut self, net: NetworkParams) -> Self {
        self.net = net;
        self
    }

    /// Attach an artifact cache. `trace_key` must be the key under
    /// which `trace` itself is cached ([`musa_cache::trace_key`]);
    /// detailed windows and burst baselines are then looked up before
    /// being computed, and persisted after.
    pub fn with_cache(mut self, cache: Arc<ArtifactCache>, trace_key: ArtifactKey) -> Self {
        self.cache = Some((cache, trace_key));
        self
    }

    /// Run the multiscale flow for one node configuration.
    ///
    /// `burst_sampled_ns`, if provided, is the cached burst-mode makespan
    /// of the sampled region at `config.cores` (computed otherwise).
    /// `full_replay`, if false, skips step 3 (region-only studies).
    pub fn simulate(&self, config: NodeConfig, full_replay: bool) -> ConfigResult {
        // `sim.point` failpoint: keyed by (app, config label) so chaos
        // runs poison the same points regardless of thread order.
        if musa_fault::active() {
            musa_fault::failpoint(
                "sim.point",
                musa_fault::key_of(&[self.trace.meta.app.as_bytes(), config.label().as_bytes()]),
            );
        }
        let region = self
            .trace
            .sampled_region()
            .expect("trace has a sampled region");
        let detail = self
            .trace
            .detail
            .as_ref()
            .expect("trace has a detailed trace");

        // Step 1: detailed simulation of the representative region.
        // Steps 1+2 share the detailed-sim phase: the burst baseline is
        // part of producing the rescale ratio, not a separate stage.
        // Both consult the artifact cache first when one is attached; a
        // hit makes the phase near-instant.
        let _detailed = musa_obs::span_app(musa_obs::phase::DETAILED_SIM, &self.trace.meta.app);
        let det = self.detail_window(config, detail, region);
        let region_ns = det.region_ns;

        // Step 2: detailed/burst rescale ratio, and with it the burst
        // times of the whole trace when step 3 is going to need them.
        let cores = config.cores.count();
        let (burst_ns, burst_times) = {
            let _burst = musa_obs::span_app(musa_obs::phase::BURST, &self.trace.meta.app);
            (
                self.burst_baseline(region, cores),
                full_replay.then(|| self.burst_times(cores)),
            )
        };
        let ratio = if burst_ns > 0.0 {
            region_ns / burst_ns
        } else {
            1.0
        };
        drop(_detailed);

        // Step 3: full-application replay of the rescaled burst times.
        let time_ns = match burst_times {
            Some(times) => times.replay(self.trace, &self.net, ratio).total_ns,
            None => region_ns,
        };

        // Step 4: power and energy.
        let power = {
            let _power = musa_obs::span_app(musa_obs::phase::POWER, &self.trace.meta.app);
            PowerModel::new(config).node_power(&det.stats, &det.dram, region_ns, det.busy_ns)
        };
        let energy_j = power.energy_j(time_ns);
        musa_obs::counter_add("sim.points", 1);

        let s = &det.stats;
        let instr_rate = if region_ns > 0.0 {
            s.mem_requests() / (region_ns * 1e-9)
        } else {
            0.0
        };

        ConfigResult {
            app: self.trace.meta.app.clone(),
            config,
            time_ns,
            region_ns,
            power,
            energy_j,
            l1_mpki: s.mpki(&s.l1),
            l2_mpki: s.mpki(&s.l2),
            l3_mpki: s.mpki(&s.l3),
            mem_mpki: s.l3_mpki_with_writebacks(),
            gmemreq_per_s: instr_rate / 1e9,
            mem_stretch: det.mem_stretch,
            region_efficiency: det.efficiency,
        }
    }

    /// The detailed window of `config`: cache lookup, else a fresh
    /// `NodeSim` run (persisted when a cache is attached). Cached and
    /// fresh paths yield the same [`DetailArtifact`] — the rest of the
    /// flow runs the same arithmetic on the same numbers either way.
    fn detail_window(
        &self,
        config: NodeConfig,
        detail: &DetailedTrace,
        region: &ComputeRegion,
    ) -> DetailArtifact {
        let slot = self
            .cache
            .as_ref()
            .map(|(c, tk)| (c, musa_cache::detail_key(*tk, &config)));
        if let Some((cache, key)) = &slot {
            match cache.detail(*key) {
                Some(art) => {
                    musa_prof::cache_note(true);
                    return art;
                }
                None => musa_prof::cache_note(false),
            }
        }
        let mut node = NodeSim::new(config, detail, region).with_profiles(&self.memo().profiles);
        let det = node.simulate_region(region);
        let art = DetailArtifact {
            region_ns: det.schedule.makespan_ns,
            busy_ns: det.schedule.busy_ns,
            efficiency: det.schedule.parallel_efficiency(),
            mem_stretch: det.mem_stretch,
            stats: det.stats,
            dram: det.dram,
        };
        if let Some((cache, key)) = slot {
            cache.put_detail(key, &art);
        }
        art
    }

    /// The burst-mode baseline makespan at `cores`: in-process memo,
    /// then artifact cache, then computed (and recorded in both).
    fn burst_baseline(&self, region: &ComputeRegion, cores: u32) -> f64 {
        if let Some(ns) = self
            .baseline_memo
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(&cores)
        {
            return *ns;
        }
        let ns = match &self.cache {
            Some((cache, tk)) => {
                let key = musa_cache::burst_key(*tk, cores);
                match cache.burst(key) {
                    Some(b) => {
                        musa_prof::cache_note(true);
                        b.makespan_ns
                    }
                    None => {
                        musa_prof::cache_note(false);
                        let ns = burst_makespan_ns(region, cores);
                        cache.put_burst(key, &BurstArtifact { makespan_ns: ns });
                        ns
                    }
                }
            }
            None => burst_makespan_ns(region, cores),
        };
        self.baseline_memo
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(cores, ns);
        ns
    }

    /// Full replay of the trace in burst mode at a core count (used by
    /// the scaling study, Fig. 2b).
    pub fn burst_replay(&self, cores: u32) -> ReplayResult {
        self.burst_times(cores).replay(self.trace, &self.net, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use musa_apps::{generate, AppId, GenParams};
    use musa_arch::{CoresPerNode, MemConfig, VectorWidth};
    use musa_tasksim::simulate_region_burst;

    fn result(app: AppId, config: NodeConfig) -> ConfigResult {
        let trace = generate(app, &GenParams::tiny());
        MultiscaleSim::new(&trace).simulate(config, true)
    }

    fn cfg64() -> NodeConfig {
        NodeConfig::REFERENCE.with_cores(CoresPerNode::C64)
    }

    #[test]
    fn produces_complete_results() {
        let r = result(AppId::Hydro, cfg64());
        assert!(r.time_ns > 0.0);
        assert!(r.region_ns > 0.0);
        assert!(r.time_ns >= r.region_ns, "full app includes many regions");
        assert!(r.power.total_w() > 0.0);
        assert!(r.energy_j > 0.0);
        assert!(r.l1_mpki > 0.0);
        assert!(r.region_efficiency > 0.0 && r.region_efficiency <= 1.0);
        assert_eq!(r.app, "hydro");
    }

    #[test]
    fn wider_simd_speeds_up_spmz_end_to_end() {
        let base = result(AppId::Spmz, cfg64().with_vector(VectorWidth::V128));
        let wide = result(AppId::Spmz, cfg64().with_vector(VectorWidth::V512));
        let speedup = base.time_ns / wide.time_ns;
        assert!(speedup > 1.2, "end-to-end spmz 512-bit speedup {speedup}");
    }

    #[test]
    fn lulesh_gains_from_channels_end_to_end() {
        let c4 = result(AppId::Lulesh, cfg64().with_mem(MemConfig::DDR4_4CH));
        let c8 = result(AppId::Lulesh, cfg64().with_mem(MemConfig::DDR4_8CH));
        let speedup = c4.time_ns / c8.time_ns;
        assert!(speedup > 1.1, "lulesh 8ch end-to-end speedup {speedup}");
        // And DRAM power roughly doubles.
        let ratio = c8.power.mem_w / c4.power.mem_w;
        assert!(ratio > 1.5, "dram power ratio {ratio}");
    }

    #[test]
    fn region_only_mode_skips_replay() {
        let trace = generate(AppId::Btmz, &GenParams::tiny());
        let memo = Arc::new(TraceMemo::for_trace(&trace));
        let sim = MultiscaleSim::new(&trace).with_trace_memo(Arc::clone(&memo));
        let r = sim.simulate(cfg64(), false);
        assert!((r.time_ns - r.region_ns).abs() < 1e-9);
        assert!(memo.tables.lock().unwrap().is_empty(), "no table is built");
        // Tiny BT-MZ at 64 cores never draws DRAM: one lane serves both.
        assert_eq!(memo.profiles.walks(), [1, 0], "the profile table is filled");
    }

    #[test]
    fn full_replay_equals_the_timer_replay_and_shares_one_table_per_core_count() {
        let trace = generate(AppId::Lulesh, &GenParams::tiny());
        let memo = Arc::new(TraceMemo::for_trace(&trace));
        for config in [cfg64(), cfg64().with_vector(VectorWidth::V512)] {
            // A fresh simulator per point, as the store's executor and
            // the search's evaluator make them.
            let sim = MultiscaleSim::new(&trace).with_trace_memo(Arc::clone(&memo));
            let r = sim.simulate(config, true);
            let burst_ns = simulate_region_burst(trace.sampled_region().unwrap(), 64).makespan_ns;
            let mut timer = musa_net::FixedRatioTimer {
                cores: 64,
                ratio: r.region_ns / burst_ns,
            };
            let want = musa_net::replay(&trace, &NetworkParams::marenostrum4(), &mut timer);
            assert_eq!(r.time_ns.to_bits(), want.total_ns.to_bits());
            assert_eq!(r, MultiscaleSim::new(&trace).simulate(config, true));
        }
        let tables = memo.tables.lock().unwrap();
        assert_eq!(tables.keys().collect::<Vec<_>>(), [&64]);
        assert_eq!(Arc::strong_count(&tables[&64]), 1);
    }

    #[test]
    #[should_panic(expected = "trace memo of trace")]
    fn trace_memo_of_another_trace_is_rejected() {
        let hydro = generate(AppId::Hydro, &GenParams::tiny());
        let lulesh = generate(AppId::Lulesh, &GenParams::tiny());
        let memo = Arc::new(TraceMemo::for_trace(&hydro));
        let _ = MultiscaleSim::new(&hydro).with_trace_memo(Arc::clone(&memo));
        let _ = MultiscaleSim::new(&lulesh).with_trace_memo(memo);
    }
}
