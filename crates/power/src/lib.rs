//! # musa-power
//!
//! Node power modelling — the McPAT substitute of the MUSA toolflow
//! (§III, "Support for power estimations using McPAT").
//!
//! Like McPAT, the model combines an architectural description
//! (`musa-arch`'s [`NodeConfig`]) with simulation activity statistics
//! (`musa-tasksim`'s [`SimStats`]) into per-component power:
//!
//! * **Core+L1** — per-event dynamic energies for the front-end/ROB/
//!   commit path, integer, floating-point (scaling with SIMD width),
//!   branch and L1 accesses; plus per-core leakage that scales with the
//!   out-of-order structure sizes and the FPU width. Idle cores keep
//!   leaking and burn a small clock-tree residual — the paper's point
//!   that poor parallel efficiency wastes leakage power.
//! * **L2+L3** — per-access dynamic energy growing with capacity, and
//!   capacity-driven leakage (slightly super-linear, as large SRAM arrays
//!   pay routing overheads).
//! * **Memory** — delegated to `musa-mem`'s DRAMPower-style model.
//!
//! Voltage/frequency scaling follows the 22 nm operating points of
//! [`musa_arch::VoltageModel`]: dynamic power ∝ f·V², leakage ∝ V.
//!
//! The constants below are calibrated to reproduce the paper's component
//! ratios: 512-bit FPUs add ≈60 % core power over 128-bit; a low-end core
//! draws ≈50 % of an aggressive one; the L2+L3 component moves from ≈5 %
//! to ≈20 % of node power across the three cache configurations; and
//! doubling DRAM channels doubles DRAM power but adds only ≈10–20 % node
//! power.

use musa_arch::{CoreClass, NodeConfig, VoltageModel};
use musa_mem::{dram_energy, ChannelStats, DramTiming};
use musa_tasksim::SimStats;
/// Dynamic energy per committed instruction through fetch/rename/ROB/
/// commit at the reference point (0.85 V), picojoules, for a mid-size
/// core; scaled by the OoO structure factor.
const E_INSTR_PJ: f64 = 110.0;
/// Dynamic energy per integer ALU operation, pJ.
const E_INT_PJ: f64 = 30.0;
/// Dynamic energy per branch, pJ.
const E_BRANCH_PJ: f64 = 25.0;
/// Dynamic energy per 64-bit FP *lane*, pJ. The activity statistics
/// count FP work in scalar lanes, so this is width-invariant: a 512-bit
/// FMA costs 8 lanes once instead of 8 scalar ops — the instruction-
/// stream overhead savings are captured by the per-instruction term.
const E_FP_LANE_PJ: f64 = 70.0;
/// Dynamic energy per L1 access, pJ.
const E_L1_PJ: f64 = 45.0;
/// Dynamic energy per L2 access at 512 kB, pJ (∝ √capacity).
const E_L2_PJ: f64 = 350.0;
/// Dynamic energy per L3 access at 64 MB, pJ (∝ √capacity).
const E_L3_PJ: f64 = 1600.0;
/// Leakage power of one mid-size core's non-FPU logic at 0.85 V, watts.
const P_LEAK_CORE_W: f64 = 0.30;
/// Leakage power of one 128-bit FPU lane group at 0.85 V, watts.
const P_LEAK_FPU128_W: f64 = 0.10;
/// Clock-tree residual dynamic power of an idle (gated) core, watts at
/// the reference point.
const P_IDLE_CLOCK_W: f64 = 0.08;
/// Leakage power per core of a 512 kB private L2 at 0.85 V, watts.
const P_LEAK_L2_W: f64 = 0.05;
/// Leakage power of a 64 MB shared L3 at 0.85 V, watts.
const P_LEAK_L3_W: f64 = 5.5;
/// Super-linearity exponent for large-array leakage.
const L3_LEAK_EXP: f64 = 1.25;

/// Power breakdown into the three components the paper plots
/// (Figs. 5b–9b).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PowerBreakdown {
    /// Cores plus private L1 caches, watts.
    pub core_l1_w: f64,
    /// Private L2 plus shared L3, watts.
    pub l2_l3_w: f64,
    /// DRAM subsystem, watts.
    pub mem_w: f64,
}

musa_obs::json_struct!(PowerBreakdown {
    core_l1_w,
    l2_l3_w,
    mem_w
});

impl PowerBreakdown {
    /// Total node power in watts.
    pub fn total_w(&self) -> f64 {
        self.core_l1_w + self.l2_l3_w + self.mem_w
    }

    /// Energy over an interval, joules.
    pub fn energy_j(&self, span_ns: f64) -> f64 {
        self.total_w() * span_ns * 1e-9
    }
}

/// OoO structure size factor relative to the `high` class, used to scale
/// per-instruction energy and core leakage (McPAT's area/energy growth
/// with window size, issue width and register files, square-rooted as
/// array energy grows sub-linearly with entries).
fn ooo_size_factor(class: CoreClass) -> f64 {
    let o = class.ooo();
    let r = CoreClass::High.ooo();
    let lin = 0.45 * (o.rob as f64 / r.rob as f64)
        + 0.30 * (o.issue_width as f64 / r.issue_width as f64)
        + 0.25 * ((o.int_rf + o.fp_rf) as f64 / (r.int_rf + r.fp_rf) as f64);
    lin.sqrt()
}

/// The node power model.
#[derive(Debug, Clone, Copy)]
pub struct PowerModel {
    config: NodeConfig,
    volt: VoltageModel,
}

impl PowerModel {
    /// Model for a node configuration with the default 22 nm V/f points.
    pub fn new(config: NodeConfig) -> Self {
        PowerModel {
            config,
            volt: VoltageModel::default(),
        }
    }

    /// FPU width factor relative to 128-bit.
    fn width_factor(&self) -> f64 {
        self.config.vector.bits() as f64 / 128.0
    }

    /// Estimate the node power breakdown over an interval.
    ///
    /// * `stats` — activity during the interval (all cores aggregated);
    /// * `dram` — DRAM command statistics for the interval;
    /// * `span_ns` — interval length;
    /// * `busy_core_ns` — total per-core busy time (≤ span × cores); the
    ///   remainder idles at leakage + clock residual.
    pub fn node_power(
        &self,
        stats: &SimStats,
        dram: &ChannelStats,
        span_ns: f64,
        busy_core_ns: f64,
    ) -> PowerBreakdown {
        assert!(span_ns > 0.0, "zero-length interval");
        let cfg = &self.config;
        let cores = cfg.cores.count() as f64;
        let dyn_scale = self.volt.dynamic_scale(cfg.freq);
        // dynamic_scale folds in f·V² relative to 1.5 GHz; energy-per-
        // event only needs the V² part.
        let v2_scale = dyn_scale / (cfg.freq.ghz() / 1.5);
        let leak_scale = self.volt.leakage_scale(cfg.freq);
        let span_s = span_ns * 1e-9;

        // --- Core + L1 dynamic ---
        let size = ooo_size_factor(cfg.core_class);
        let fpus = cfg.core_class.ooo().fpus as f64 / CoreClass::High.ooo().fpus as f64;
        let width = self.width_factor();
        let dyn_core_j = (stats.instructions * E_INSTR_PJ * size
            + stats.ops_int * E_INT_PJ
            + stats.ops_branch * E_BRANCH_PJ
            + stats.ops_fp * E_FP_LANE_PJ
            + stats.ops_mem * E_L1_PJ)
            * 1e-12
            * v2_scale;

        // Idle clock residual: gated cores still toggle the clock tree.
        let idle_ns = (span_ns * cores - busy_core_ns).max(0.0);
        let idle_j = P_IDLE_CLOCK_W * (idle_ns * 1e-9) * dyn_scale;

        // Core + L1 leakage: every core leaks for the whole interval.
        let leak_core_w = (P_LEAK_CORE_W * size + P_LEAK_FPU128_W * width * fpus) * leak_scale;
        let leak_core_j = leak_core_w * cores * span_s;

        let core_l1_w = (dyn_core_j + idle_j + leak_core_j) / span_s;

        // --- L2 + L3 ---
        let l2_cap = cfg.cache.l2().size_bytes as f64 / (512.0 * 1024.0);
        let l3_cap = cfg.cache.l3().size_bytes as f64 / (64.0 * 1024.0 * 1024.0);
        let dyn_l2_j = stats.l2.accesses * E_L2_PJ * l2_cap.sqrt() * 1e-12 * v2_scale;
        let dyn_l3_j = stats.l3.accesses * E_L3_PJ * l3_cap.sqrt() * 1e-12 * v2_scale;
        let leak_l2_j = P_LEAK_L2_W * l2_cap * cores * leak_scale * span_s;
        let leak_l3_j = P_LEAK_L3_W * l3_cap.powf(L3_LEAK_EXP) * leak_scale * span_s;
        let l2_l3_w = (dyn_l2_j + dyn_l3_j + leak_l2_j + leak_l3_j) / span_s;

        // --- DRAM ---
        let timing = DramTiming::for_tech(cfg.mem.tech);
        let mem_w = dram_energy(dram, &timing, cfg.mem, span_ns).mean_power_w(span_ns);

        PowerBreakdown {
            core_l1_w,
            l2_l3_w,
            mem_w,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use musa_arch::{CacheConfig, CoresPerNode, Frequency, MemConfig, VectorWidth};

    /// A busy 64-core node over 1 ms: ~2 IPC per core at 2 GHz.
    fn busy_stats(cores: f64, span_ns: f64, ipc: f64, ghz: f64) -> SimStats {
        let instr = cores * ipc * ghz * span_ns;
        SimStats {
            instructions: instr,
            baseline_instructions: instr,
            ops_int: instr * 0.25,
            ops_fp: instr * 0.40,
            ops_mem: instr * 0.25,
            ops_branch: instr * 0.10,
            flops: instr * 0.55,
            l2: musa_tasksim::LevelStats {
                accesses: instr * 0.01,
                misses: instr * 0.002,
                writebacks: 0.0,
            },
            l3: musa_tasksim::LevelStats {
                accesses: instr * 0.002,
                misses: instr * 0.0005,
                writebacks: 0.0,
            },
            mem_reads: instr * 0.0005,
            mem_writes: instr * 0.0001,
            mem_seq_fraction: 0.8,
            ..Default::default()
        }
    }

    fn dram_for(stats: &SimStats, span_ns: f64, cfg: &NodeConfig) -> ChannelStats {
        musa_tasksim::estimate_dram_stats(
            stats,
            span_ns,
            &DramTiming::for_tech(cfg.mem.tech),
            cfg.mem.channels,
        )
    }

    fn power(cfg: NodeConfig) -> PowerBreakdown {
        let span = 1e6;
        let cores = cfg.cores.count() as f64;
        let stats = busy_stats(cores, span, 2.0, cfg.freq.ghz());
        let dram = dram_for(&stats, span, &cfg);
        PowerModel::new(cfg).node_power(&stats, &dram, span, span * cores)
    }

    fn cfg64() -> NodeConfig {
        NodeConfig {
            cores: CoresPerNode::C64,
            core_class: musa_arch::CoreClass::High,
            cache: CacheConfig::C64M512K,
            vector: VectorWidth::V128,
            freq: Frequency::F2_0,
            mem: MemConfig::DDR4_4CH,
        }
    }

    #[test]
    fn node_power_in_plausible_band() {
        let p = power(cfg64());
        assert!(
            p.total_w() > 60.0 && p.total_w() < 400.0,
            "node power {} W",
            p.total_w()
        );
        // Core+L1 dominates a busy 128-bit node.
        assert!(p.core_l1_w > p.l2_l3_w);
        assert!(p.core_l1_w > p.mem_w);
    }

    #[test]
    fn wide_fpu_adds_about_60_percent_core_power() {
        // Same work; the 512-bit unit finishes it ≈1.4× faster (the
        // paper's average speedup), so the energy is spent over a
        // shorter span — plus the wider unit's leakage.
        let span128 = 1e6;
        let span512 = span128 / 1.4;
        let stats = busy_stats(64.0, span128, 2.0, 2.0);
        let c128 = cfg64();
        let c512 = cfg64().with_vector(VectorWidth::V512);
        let p128 = PowerModel::new(c128)
            .node_power(
                &stats,
                &dram_for(&stats, span128, &c128),
                span128,
                span128 * 64.0,
            )
            .core_l1_w;
        let p512 = PowerModel::new(c512)
            .node_power(
                &stats,
                &dram_for(&stats, span512, &c512),
                span512,
                span512 * 64.0,
            )
            .core_l1_w;
        let ratio = p512 / p128;
        assert!(
            ratio > 1.3 && ratio < 1.9,
            "512-bit core power ratio {ratio} (paper: ≈1.6)"
        );
    }

    #[test]
    fn lowend_core_draws_about_half_of_aggressive() {
        // At equal activity the low-end core is cheaper per event and per
        // second; with its lower IPC (fewer events per second) the paper
        // reports ≈50 %. Model both effects: scale activity by the IPC
        // ratio observed in Fig. 7a (~0.65).
        let span = 1e6;
        let mk = |class, ipc| {
            let cfg = cfg64().with_core_class(class);
            let stats = busy_stats(64.0, span, ipc, 2.0);
            let dram = dram_for(&stats, span, &cfg);
            PowerModel::new(cfg)
                .node_power(&stats, &dram, span, span * 64.0)
                .core_l1_w
        };
        let agg = mk(musa_arch::CoreClass::Aggressive, 2.0);
        let low = mk(musa_arch::CoreClass::LowEnd, 1.3);
        let ratio = low / agg;
        assert!(ratio > 0.35 && ratio < 0.7, "low-end/aggressive {ratio}");
        // Medium and high sit 15–25 % below aggressive.
        let med = mk(musa_arch::CoreClass::Medium, 1.9);
        let r = med / agg;
        assert!(r > 0.7 && r < 0.95, "medium/aggressive {r}");
    }

    #[test]
    fn cache_component_share_grows_steeply_with_capacity() {
        let shares: Vec<f64> = CacheConfig::ALL
            .iter()
            .map(|&c| {
                let p = power(cfg64().with_cache(c));
                p.l2_l3_w / p.total_w()
            })
            .collect();
        // Paper: ≈5 %, ≈10 %, ≈20 % at 64 cores.
        assert!(shares[0] > 0.02 && shares[0] < 0.10, "{shares:?}");
        assert!(shares[1] > 0.06 && shares[1] < 0.16, "{shares:?}");
        assert!(shares[2] > 0.10 && shares[2] < 0.30, "{shares:?}");
        assert!(shares.windows(2).all(|w| w[1] > w[0]));
    }

    #[test]
    fn doubling_channels_doubles_dram_power_but_not_node_power() {
        let p4 = power(cfg64());
        let p8 = power(cfg64().with_mem(MemConfig::DDR4_8CH));
        let dram_ratio = p8.mem_w / p4.mem_w;
        assert!(
            dram_ratio > 1.6 && dram_ratio < 2.2,
            "dram ratio {dram_ratio}"
        );
        let node_ratio = p8.total_w() / p4.total_w();
        assert!(node_ratio < 1.25, "node ratio {node_ratio}");
    }

    #[test]
    fn frequency_scaling_costs_about_2_5x_power_for_2x_speed() {
        // Same workload executed at 1.5 and 3.0 GHz: the 3 GHz run takes
        // half the time at ~2.5× the power (paper §V-B5).
        let cores = 64.0;
        let span15 = 2e6;
        let span30 = 1e6;
        let work = busy_stats(cores, span15, 2.0, 1.5); // fixed activity
        let c15 = cfg64().with_freq(Frequency::F1_5);
        let c30 = cfg64().with_freq(Frequency::F3_0);
        let d15 = dram_for(&work, span15, &c15);
        let d30 = dram_for(&work, span30, &c30);
        let p15 = PowerModel::new(c15)
            .node_power(&work, &d15, span15, span15 * cores)
            .core_l1_w;
        let p30 = PowerModel::new(c30)
            .node_power(&work, &d30, span30, span30 * cores)
            .core_l1_w;
        let ratio = p30 / p15;
        // Dynamic power scales 2.5× (f·V²); the leakage share dilutes the
        // node-level ratio below the paper's headline 2.5×.
        assert!(ratio > 1.8 && ratio < 2.8, "power ratio {ratio}");
    }

    #[test]
    fn idle_cores_still_cost_leakage() {
        // Same total work on 64 cores, but with only 16 cores busy: the
        // node must still pay >40 % of the all-busy core power (leakage +
        // idle clocks) — the paper's parallel-efficiency argument.
        let span = 1e6;
        let cfg = cfg64();
        let stats = busy_stats(16.0, span, 2.0, 2.0);
        let dram = dram_for(&stats, span, &cfg);
        let model = PowerModel::new(cfg);
        let p_starved = model.node_power(&stats, &dram, span, span * 16.0);
        let stats_full = busy_stats(64.0, span, 2.0, 2.0);
        let dram_full = dram_for(&stats_full, span, &cfg);
        let p_full = model.node_power(&stats_full, &dram_full, span, span * 64.0);
        let ratio = p_starved.core_l1_w / p_full.core_l1_w;
        assert!(ratio > 0.4, "starved/full {ratio}");
        assert!(ratio < 0.85, "starved must still be cheaper: {ratio}");
    }

    #[test]
    fn breakdown_totals_and_energy() {
        let p = power(cfg64());
        assert!((p.total_w() - (p.core_l1_w + p.l2_l3_w + p.mem_w)).abs() < 1e-12);
        let e = p.energy_j(1e9);
        assert!((e - p.total_w()).abs() < 1e-9); // 1 s at P watts = P joules
    }
}
