//! Off-chip memory configurations: DDR4 channel counts (Table I) and the
//! unconventional 16-channel DDR4 / HBM options (Table II).

/// Memory device technology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MemTechnology {
    /// DDR4-2400 (the paper writes "DDR4-2333"; JEDEC's closest speed grade
    /// is 2400 MT/s, which is what our timing tables implement).
    Ddr4,
    /// High-Bandwidth Memory (Table II `MEM++` only).
    Hbm,
}

musa_obs::json_enum!(MemTechnology { Ddr4, Hbm });

impl MemTechnology {
    /// Data-bus transfer rate in mega-transfers per second.
    pub const fn transfer_rate_mts(self) -> u64 {
        match self {
            MemTechnology::Ddr4 => 2400,
            MemTechnology::Hbm => 2000,
        }
    }

    /// Data-bus width per channel in bits.
    pub const fn bus_bits(self) -> u64 {
        match self {
            MemTechnology::Ddr4 => 64,
            MemTechnology::Hbm => 128,
        }
    }

    /// Peak bandwidth of one channel in GB/s.
    pub const fn channel_peak_gbs(self) -> f64 {
        (self.transfer_rate_mts() * self.bus_bits() / 8) as f64 / 1000.0
    }
}

/// A node memory subsystem configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MemConfig {
    /// Number of memory channels.
    pub channels: u32,
    /// Device technology.
    pub tech: MemTechnology,
}

musa_obs::json_struct!(MemConfig { channels, tech });

impl MemConfig {
    /// Four-channel DDR4 — 8 DIMMs, 64 GB (Table I / §IV-C).
    pub const DDR4_4CH: MemConfig = MemConfig {
        channels: 4,
        tech: MemTechnology::Ddr4,
    };

    /// Eight-channel DDR4 — 16 DIMMs, 128 GB (Table I / §IV-C).
    pub const DDR4_8CH: MemConfig = MemConfig {
        channels: 8,
        tech: MemTechnology::Ddr4,
    };

    /// Sixteen-channel DDR4 (Table II `MEM+`).
    pub const DDR4_16CH: MemConfig = MemConfig {
        channels: 16,
        tech: MemTechnology::Ddr4,
    };

    /// Sixteen-channel HBM (Table II `MEM++`).
    pub const HBM_16CH: MemConfig = MemConfig {
        channels: 16,
        tech: MemTechnology::Hbm,
    };

    /// The two configurations of the main 864-point design space.
    pub const DSE: [MemConfig; 2] = [MemConfig::DDR4_4CH, MemConfig::DDR4_8CH];

    /// DIMMs attached: two per channel (8 DIMMs at 4ch, 16 at 8ch — §IV-C).
    pub const fn dimms(self) -> u32 {
        self.channels * 2
    }

    /// Total capacity in GB: 8 GB per DIMM (Micron single-rank RDIMM).
    pub const fn capacity_gb(self) -> u32 {
        self.dimms() * 8
    }

    /// Aggregate peak bandwidth in GB/s.
    pub fn peak_bandwidth_gbs(self) -> f64 {
        self.channels as f64 * self.tech.channel_peak_gbs()
    }

    /// Label used in the paper's plots.
    pub fn label(self) -> String {
        match self.tech {
            MemTechnology::Ddr4 => format!("{}chDDR4", self.channels),
            MemTechnology::Hbm => format!("{}chHBM", self.channels),
        }
    }
}

impl std::fmt::Display for MemConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dse_space_matches_table1() {
        assert_eq!(MemConfig::DSE.len(), 2);
        assert_eq!(MemConfig::DDR4_4CH.channels, 4);
        assert_eq!(MemConfig::DDR4_8CH.channels, 8);
        assert!(MemConfig::DSE.iter().all(|m| m.tech == MemTechnology::Ddr4));
    }

    #[test]
    fn capacity_matches_section_iv_c() {
        // 4 channels → 8 DIMMs → 64 GB; 8 channels → 16 DIMMs → 128 GB.
        assert_eq!(MemConfig::DDR4_4CH.dimms(), 8);
        assert_eq!(MemConfig::DDR4_4CH.capacity_gb(), 64);
        assert_eq!(MemConfig::DDR4_8CH.dimms(), 16);
        assert_eq!(MemConfig::DDR4_8CH.capacity_gb(), 128);
    }

    #[test]
    fn bandwidth_scales_with_channels() {
        let b4 = MemConfig::DDR4_4CH.peak_bandwidth_gbs();
        let b8 = MemConfig::DDR4_8CH.peak_bandwidth_gbs();
        assert!((b8 / b4 - 2.0).abs() < 1e-12);
        // DDR4-2400 x64: 19.2 GB/s per channel.
        assert!((MemTechnology::Ddr4.channel_peak_gbs() - 19.2).abs() < 1e-9);
    }

    #[test]
    fn hbm_outpaces_ddr4_at_equal_channels() {
        assert!(
            MemConfig::HBM_16CH.peak_bandwidth_gbs() > MemConfig::DDR4_16CH.peak_bandwidth_gbs()
        );
    }

    #[test]
    fn labels() {
        assert_eq!(MemConfig::DDR4_4CH.label(), "4chDDR4");
        assert_eq!(MemConfig::DDR4_8CH.label(), "8chDDR4");
        assert_eq!(MemConfig::HBM_16CH.label(), "16chHBM");
    }
}
