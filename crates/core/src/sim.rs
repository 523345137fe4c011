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

use musa_arch::{CoresPerNode, NodeConfig};
use musa_net::{BurstTimes, NetworkParams};
use musa_power::{PowerBreakdown, PowerModel};
use musa_tasksim::{burst_makespan_ns, NodeSim, ProfileTable};
use musa_trace::{AppTrace, ComputeRegion, TraceMeta};

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
/// table, the burst baselines (one per core count asked for) and the
/// kernel profile table.
///
/// All three are properties of the trace. The burst level is hardware
/// agnostic: what a rank's compute events take at a core count is fixed,
/// so every point of a campaign replays the same table, at its core count
/// and under its own detailed/burst ratio, and divides its detailed
/// makespan by the same burst makespan of the sampled region. A kernel
/// profile stage reads only a few axes of the configuration, so points
/// that agree on them share it ([`ProfileTable`]). A [`MultiscaleSim`] owns a memo of its own;
/// whoever keeps a trace alive across per-point simulators keeps one
/// beside it and hands it to each ([`MultiscaleSim::with_trace_memo`]).
/// Entries are built on first use and never persisted: the burst table
/// holds every core count of the design space, scheduled in one walk
/// over the trace, once per trace and process.
pub struct TraceMemo {
    /// What the tables are built from; a generator's output is a
    /// function of its metadata.
    trace: TraceMeta,
    table: OnceLock<BurstTimes>,
    /// Burst-mode makespan of the sampled region, per core count.
    baselines: Mutex<HashMap<u32, f64>>,
    profiles: ProfileTable,
}

impl TraceMemo {
    /// An empty memo for `trace`.
    pub fn for_trace(trace: &AppTrace) -> TraceMemo {
        TraceMemo {
            trace: trace.meta.clone(),
            table: OnceLock::new(),
            baselines: Mutex::new(HashMap::new()),
            profiles: ProfileTable::new(),
        }
    }

    /// The table of `trace`, built on the first request.
    fn table(&self, trace: &AppTrace) -> &BurstTimes {
        self.table.get_or_init(|| BurstTimes::build(trace))
    }
}

/// The multiscale simulator for one application trace.
pub struct MultiscaleSim<'a> {
    trace: &'a AppTrace,
    net: NetworkParams,
    /// Burst-time tables, burst baselines and kernel profiles: the memo
    /// the caller attached, else one of this simulator's own from the
    /// first point on.
    memo: OnceLock<Arc<TraceMemo>>,
}

impl<'a> MultiscaleSim<'a> {
    /// New simulator over a trace, with the MareNostrum4-class network.
    pub fn new(trace: &'a AppTrace) -> Self {
        MultiscaleSim {
            trace,
            net: NetworkParams::marenostrum4(),
            memo: OnceLock::new(),
        }
    }

    /// Share the burst-time tables, burst baselines and kernel profiles of
    /// `memo`, which
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

    /// The burst times of the whole trace.
    fn burst_times(&self) -> &BurstTimes {
        self.memo().table(self.trace)
    }

    /// Override the network parameters.
    pub fn with_network(mut self, net: NetworkParams) -> Self {
        self.net = net;
        self
    }

    /// Run the multiscale flow for one node configuration.
    ///
    /// `full_replay`, if false, skips step 3 (region-only studies) and
    /// builds no burst table.
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
        let _detailed = musa_obs::span_app(musa_obs::phase::DETAILED_SIM, &self.trace.meta.app);
        let det = NodeSim::new(config, detail, region)
            .with_profiles(&self.memo().profiles)
            .simulate_region(region);
        let region_ns = det.schedule.makespan_ns;

        // Step 2: detailed/burst rescale ratio, and with it the burst
        // times of the whole trace when step 3 is going to need them.
        let cores = config.cores.count();
        let (burst_ns, burst_times) = {
            let _burst = musa_obs::span_app(musa_obs::phase::BURST, &self.trace.meta.app);
            (
                self.burst_baseline(region, cores),
                full_replay.then(|| self.burst_times()),
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
            Some(times) => times.replay(self.trace, &self.net, config.cores, ratio),
            None => region_ns,
        };

        // Step 4: power and energy.
        let power = {
            let _power = musa_obs::span_app(musa_obs::phase::POWER, &self.trace.meta.app);
            PowerModel::new(config).node_power(
                &det.stats,
                &det.dram,
                region_ns,
                det.schedule.busy_ns,
            )
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
            region_efficiency: det.schedule.parallel_efficiency(),
        }
    }

    /// The burst-mode baseline makespan at `cores`: the trace memo,
    /// else computed (and recorded there).
    fn burst_baseline(&self, region: &ComputeRegion, cores: u32) -> f64 {
        let baselines = &self.memo().baselines;
        if let Some(ns) = baselines
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(&cores)
        {
            return *ns;
        }
        let ns = burst_makespan_ns(region, cores);
        baselines
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(cores, ns);
        ns
    }

    /// The end-to-end runtime of a full replay of the trace in burst mode
    /// at a core count, ns (the scaling study, Fig. 2b).
    pub fn burst_replay(&self, cores: CoresPerNode) -> f64 {
        self.burst_times().replay(self.trace, &self.net, cores, 1.0)
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
        assert!(memo.table.get().is_none(), "no table is built");
        assert_eq!(memo.profiles.walks(), 1, "the profile table is filled");
    }

    #[test]
    fn full_replay_equals_the_timer_replay_and_shares_one_table_per_trace() {
        let trace = generate(AppId::Lulesh, &GenParams::tiny());
        let memo = Arc::new(TraceMemo::for_trace(&trace));
        let mut tables = Vec::new();
        for config in [
            cfg64(),
            cfg64().with_vector(VectorWidth::V512),
            cfg64().with_cores(CoresPerNode::C32),
        ] {
            // A fresh simulator per point, as the store's executor and
            // the search's evaluator make them.
            let sim = MultiscaleSim::new(&trace).with_trace_memo(Arc::clone(&memo));
            let r = sim.simulate(config, true);
            let cores = config.cores.count();
            let burst_ns =
                simulate_region_burst(trace.sampled_region().unwrap(), cores).makespan_ns;
            let mut timer = musa_net::FixedRatioTimer {
                cores,
                ratio: r.region_ns / burst_ns,
            };
            let want = musa_net::replay(&trace, &NetworkParams::marenostrum4(), &mut timer);
            assert_eq!(r.time_ns.to_bits(), want.total_ns.to_bits());
            assert_eq!(r, MultiscaleSim::new(&trace).simulate(config, true));
            tables.push(sim.burst_times() as *const BurstTimes);
        }
        let table = memo
            .table
            .get()
            .expect("the first full replay builds the table");
        assert!(
            tables.iter().all(|&t| std::ptr::eq(t, table)),
            "every simulator replays the memo's one table"
        );
        let baselines = memo.baselines.lock().unwrap();
        let mut counts: Vec<_> = baselines.keys().copied().collect();
        counts.sort();
        assert_eq!(counts, [32, 64], "one baseline per core count");
    }

    #[test]
    fn burst_replay_equals_the_timer_replay_at_every_core_count() {
        let trace = generate(AppId::Hydro, &GenParams::tiny());
        let sim = MultiscaleSim::new(&trace);
        for cores in CoresPerNode::ALL {
            let want = musa_net::replay(
                &trace,
                &NetworkParams::marenostrum4(),
                &mut musa_net::BurstTimer {
                    cores: cores.count(),
                },
            );
            assert_eq!(
                sim.burst_replay(cores).to_bits(),
                want.total_ns.to_bits(),
                "{cores}"
            );
        }
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
