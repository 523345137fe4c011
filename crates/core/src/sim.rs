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
            cache: None,
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
            Some(times) => {
                times
                    .replay(self.trace, &self.net, config.cores, ratio)
                    .total_ns
            }
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

    /// The burst-mode baseline makespan at `cores`: the trace memo, then
    /// the artifact cache, then computed (and recorded in both).
    fn burst_baseline(&self, region: &ComputeRegion, cores: u32) -> f64 {
        let baselines = &self.memo().baselines;
        if let Some(ns) = baselines
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
        baselines
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(cores, ns);
        ns
    }

    /// Full replay of the trace in burst mode at a core count (used by
    /// the scaling study, Fig. 2b).
    pub fn burst_replay(&self, cores: CoresPerNode) -> ReplayResult {
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
            assert_eq!(sim.burst_replay(cores), want, "{cores}");
        }
    }

    /// Schema 1 held the fixed 216-iteration windows. An artifact
    /// directory a schema-1 binary filled — keys and header as it wrote
    /// them, here with a poisoned payload — is a miss for every detail
    /// window, and the point comes out as without a cache. The same
    /// payload under the current key is read, and moves the point.
    #[test]
    fn detail_artifacts_of_schema_1_do_not_change_a_point() {
        use musa_cache::{
            artifact_file_name, crc32, detail_key, fnv1a_64, trace_key, ArtifactHeader,
            ArtifactKind,
        };

        let (app, gen, config) = (AppId::Spmz, GenParams::tiny(), cfg64());
        let trace = generate(app, &gen);
        let fresh = MultiscaleSim::new(&trace).simulate(config, true);
        let root = std::env::temp_dir().join(format!("musa-core-schema1-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let run = |dir: &str| {
            let cache = ArtifactCache::open(&root.join(dir)).unwrap();
            let tk = trace_key(app, &gen);
            let r = MultiscaleSim::new(&trace)
                .with_cache(Arc::clone(&cache), tk)
                .simulate(config, true);
            (r, cache, tk)
        };

        let (warm, cache, tk) = run("current");
        assert_eq!(warm, fresh);
        let art = cache.detail(detail_key(tk, &config)).unwrap();
        let poisoned = DetailArtifact {
            region_ns: 2.0 * art.region_ns,
            ..art
        };
        let payload = musa_obs::json::to_string(&poisoned);

        // The keys of schema 1, as its canonical strings spelled them.
        let v1 = |canonical: String| {
            ArtifactKey::from_hex(&format!("{:016x}", fnv1a_64(canonical.as_bytes()))).unwrap()
        };
        let GenParams {
            ranks,
            iterations,
            seed,
        } = gen;
        let tk1 = v1(format!(
            "musa-cache:v1|trace|app={}|ranks={ranks}|iters={iterations}|seed={seed}",
            app.label()
        ));
        let NodeConfig {
            cores,
            core_class,
            cache: caches,
            vector,
            freq,
            mem,
        } = config;
        let dk1 = v1(format!(
            "musa-cache:v1|detail|trace={tk1}|cores={cores}|class={core_class}|cache={caches}|vector={vector}|freq={freq}|mem={mem}"
        ));
        let header = ArtifactHeader {
            schema: 1,
            kind: ArtifactKind::Detail.label().into(),
            key: dk1.to_hex(),
            len: payload.len() as u64,
            crc: crc32(payload.as_bytes()),
        };
        let old = ArtifactCache::open(&root.join("schema1")).unwrap();
        let file = old
            .dir()
            .join(artifact_file_name(ArtifactKind::Detail, dk1));
        std::fs::write(
            file,
            format!("{}\n{payload}", musa_obs::json::to_string(&header)),
        )
        .unwrap();
        let (r, cache, _) = run("schema1");
        assert_eq!(r, fresh, "a schema-1 window changed the point");
        assert_eq!(cache.stats().detail_hits, 0);

        ArtifactCache::open(&root.join("poisoned"))
            .unwrap()
            .put_detail(detail_key(tk, &config), &poisoned);
        let (r, cache, _) = run("poisoned");
        assert_eq!(cache.stats().detail_hits, 1);
        assert_ne!(r.time_ns, fresh.time_ns, "the poisoned window is read");
        let _ = std::fs::remove_dir_all(&root);
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
