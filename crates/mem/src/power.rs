//! DRAM power estimation in the style of DRAMPower: command counts and
//! state residency combined with datasheet IDD currents.
//!
//! The paper configures DRAMPower with a Micron single-rank 8 Gb DDR4
//! RDIMM datasheet; the defaults below are that class of device. Energy is
//! reported per memory *system* given the channel statistics produced by
//! the timing simulation and the number of DIMMs attached (two per
//! channel, §IV-C).

use crate::channel::ChannelStats;
use crate::timing::DramTiming;
use musa_arch::{MemConfig, MemTechnology};

/// Datasheet-style current/voltage parameters of one DRAM device rank.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DramPowerParams {
    /// Supply voltage in volts.
    pub vdd: f64,
    /// Background current, precharged standby (IDD2N), mA.
    pub idd2n: f64,
    /// Background current, active standby (IDD3N), mA.
    pub idd3n: f64,
    /// One-bank ACT-PRE cycle current (IDD0), mA.
    pub idd0: f64,
    /// Burst read current (IDD4R), mA.
    pub idd4r: f64,
    /// Burst write current (IDD4W), mA.
    pub idd4w: f64,
    /// Refresh current (IDD5B), mA.
    pub idd5: f64,
    /// Per-DIMM ranks (single-rank RDIMMs per the paper's datasheet).
    pub ranks_per_dimm: u32,
    /// DRAM devices per rank sharing every access (x8 devices on a x72
    /// ECC RDIMM → 9). IDD currents are per device, so all energy terms
    /// scale by this factor.
    pub devices_per_rank: u32,
}

impl DramPowerParams {
    /// Micron 8 Gb DDR4-2400 single-rank RDIMM class values.
    pub const fn ddr4() -> Self {
        DramPowerParams {
            vdd: 1.2,
            idd2n: 34.0,
            idd3n: 47.0,
            idd0: 55.0,
            idd4r: 140.0,
            idd4w: 130.0,
            idd5: 250.0,
            ranks_per_dimm: 1,
            devices_per_rank: 9,
        }
    }

    /// HBM2-style stack (per pseudo-channel equivalent). The paper notes
    /// it *cannot* provide HBM energy numbers for MEM++ "due to the lack
    /// of data"; we still provide an estimate (flagged by the caller) so
    /// the harness can print both with the caveat.
    pub const fn hbm() -> Self {
        DramPowerParams {
            vdd: 1.2,
            idd2n: 25.0,
            idd3n: 35.0,
            idd0: 45.0,
            idd4r: 110.0,
            idd4w: 100.0,
            idd5: 200.0,
            ranks_per_dimm: 1,
            devices_per_rank: 8,
        }
    }

    /// Parameters for a memory technology.
    pub const fn for_tech(tech: MemTechnology) -> Self {
        match tech {
            MemTechnology::Ddr4 => Self::ddr4(),
            MemTechnology::Hbm => Self::hbm(),
        }
    }
}

/// Energy breakdown of the DRAM subsystem over a simulated interval.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DramEnergy {
    /// Activate/precharge energy, joules.
    pub act_pre_j: f64,
    /// Read burst energy, joules.
    pub read_j: f64,
    /// Write burst energy, joules.
    pub write_j: f64,
    /// Refresh energy, joules.
    pub refresh_j: f64,
    /// Background (standby) energy, joules.
    pub background_j: f64,
}

impl DramEnergy {
    /// Total DRAM energy in joules.
    pub fn total_j(&self) -> f64 {
        self.act_pre_j + self.read_j + self.write_j + self.refresh_j + self.background_j
    }

    /// Mean power in watts over an interval of `span_ns`.
    pub fn mean_power_w(&self, span_ns: f64) -> f64 {
        if span_ns <= 0.0 {
            0.0
        } else {
            self.total_j() / (span_ns * 1e-9)
        }
    }
}

/// Estimate DRAM energy for a whole memory system over `span_ns`.
///
/// `stats` are the aggregate channel statistics (commands issued during
/// the interval); `config` determines DIMM population — *all* populated
/// DIMMs pay background power even when idle, which is why the paper sees
/// the eight-channel configurations pay ≈2× DRAM power for ≈10 % extra
/// node power.
pub fn dram_energy(
    stats: &ChannelStats,
    timing: &DramTiming,
    config: MemConfig,
    span_ns: f64,
) -> DramEnergy {
    let p = DramPowerParams::for_tech(config.tech);
    let v = p.vdd;
    // mA × ns × V → 1e-3 A × 1e-9 s × V = 1e-12 J, times the devices that
    // share every access.
    let ma_ns_to_j = 1e-12 * p.devices_per_rank as f64;

    // Command energies above background (DRAMPower methodology: charge
    // above IDD3N for the command duration).
    let t_rc_ns = timing.cycles_to_ns(timing.rc);
    let t_bl_ns = timing.cycles_to_ns(timing.bl);
    let t_rfc_ns = timing.cycles_to_ns(timing.rfc);

    let act_pre_j = stats.acts as f64 * (p.idd0 - p.idd3n) * t_rc_ns * v * ma_ns_to_j;
    let read_j = stats.reads as f64 * (p.idd4r - p.idd3n) * t_bl_ns * v * ma_ns_to_j;
    let write_j = stats.writes as f64 * (p.idd4w - p.idd3n) * t_bl_ns * v * ma_ns_to_j;
    let refresh_j = stats.refreshes as f64 * (p.idd5 - p.idd2n) * t_rfc_ns * v * ma_ns_to_j;

    // Background: every populated rank pays standby current for the whole
    // interval. Ranks attached but not actively simulated (the second
    // DIMM per channel) sit in precharged standby (IDD2N); the simulated
    // rank is approximated as active standby (IDD3N) while the bus is
    // busy and precharged standby otherwise.
    let ranks_total = (config.dimms() * p.ranks_per_dimm) as f64;
    let active_ns = stats.bus_busy_ns.min(span_ns);
    let idle_ns = (span_ns - active_ns).max(0.0);
    let background_j = (config.channels as f64 * (p.idd3n * active_ns + p.idd2n * idle_ns)
        + (ranks_total - config.channels as f64).max(0.0) * p.idd2n * span_ns)
        * v
        * ma_ns_to_j;

    DramEnergy {
        act_pre_j,
        read_j,
        write_j,
        refresh_j,
        background_j,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy_stats() -> ChannelStats {
        // A heavily loaded 10 ms interval: ~25 GB/s across the system.
        ChannelStats {
            reads: 3_000_000,
            writes: 1_000_000,
            acts: 800_000,
            pres: 800_000,
            refreshes: 5000,
            row_hits: 3_200_000,
            row_closed: 200_000,
            row_conflicts: 600_000,
            bus_busy_ns: 0.9e7,
            total_latency_ns: 0.0,
            bytes: 4_000_000 * 64,
            last_done_ns: 1e7,
        }
    }

    #[test]
    fn idle_system_pays_only_background() {
        let stats = ChannelStats::default();
        let e = dram_energy(
            &stats,
            &DramTiming::ddr4_2400(),
            MemConfig::DDR4_4CH,
            1e9, // 1 second
        );
        assert_eq!(e.act_pre_j, 0.0);
        assert_eq!(e.read_j, 0.0);
        assert!(e.background_j > 0.0);
        // 8 single-rank DIMMs × 9 devices in precharged standby:
        // 8 × 9 × 34 mA × 1.2 V ≈ 2.9 W.
        let w = e.mean_power_w(1e9);
        assert!(w > 2.0 && w < 4.0, "idle power {w} W");
    }

    #[test]
    fn doubling_dimms_roughly_doubles_idle_power() {
        let stats = ChannelStats::default();
        let t = DramTiming::ddr4_2400();
        let e4 = dram_energy(&stats, &t, MemConfig::DDR4_4CH, 1e9);
        let e8 = dram_energy(&stats, &t, MemConfig::DDR4_8CH, 1e9);
        let ratio = e8.total_j() / e4.total_j();
        assert!((ratio - 2.0).abs() < 0.05, "ratio {ratio}");
    }

    #[test]
    fn busy_system_costs_clearly_more_than_idle() {
        let t = DramTiming::ddr4_2400();
        let busy = dram_energy(&busy_stats(), &t, MemConfig::DDR4_4CH, 1e7);
        let idle = dram_energy(&ChannelStats::default(), &t, MemConfig::DDR4_4CH, 1e7);
        let cmd = busy.act_pre_j + busy.read_j + busy.write_j + busy.refresh_j;
        assert!(cmd > 0.0);
        assert!(busy.total_j() > idle.total_j() * 1.3);
        // Loaded 8-DIMM system power lands in a plausible DDR4 band.
        let w = busy.mean_power_w(1e7);
        assert!(w > 3.0 && w < 40.0, "busy power {w} W");
    }

    #[test]
    fn reads_cost_more_than_writes_at_same_count() {
        let t = DramTiming::ddr4_2400();
        let s = ChannelStats {
            reads: 1000,
            writes: 1000,
            ..Default::default()
        };
        let e = dram_energy(&s, &t, MemConfig::DDR4_4CH, 1e6);
        assert!(e.read_j > e.write_j); // IDD4R > IDD4W
    }
}
