//! DRAM timing parameter sets.
//!
//! Values follow JEDEC DDR4-2400 (speed grade closest to the paper's
//! "DDR4-2333") and an HBM2-style stack. All timings are stored in memory
//! clock cycles; the clock period is `tck_ps`.

use musa_arch::MemTechnology;
/// Timing parameters of one DRAM device generation (per channel).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramTiming {
    /// Clock period in picoseconds.
    pub tck_ps: u64,
    /// CAS latency (READ to first data), cycles.
    pub cl: u64,
    /// CAS write latency, cycles.
    pub cwl: u64,
    /// ACT to internal READ/WRITE delay (tRCD), cycles.
    pub rcd: u64,
    /// PRE to ACT delay (tRP), cycles.
    pub rp: u64,
    /// ACT to PRE minimum (tRAS), cycles.
    pub ras: u64,
    /// ACT to ACT same bank (tRC), cycles.
    pub rc: u64,
    /// Refresh cycle time (tRFC), cycles.
    pub rfc: u64,
    /// Average refresh interval (tREFI), cycles.
    pub refi: u64,
    /// Write recovery time (tWR), cycles.
    pub wr: u64,
    /// Read to PRE (tRTP), cycles.
    pub rtp: u64,
    /// Burst transfer time on the data bus (BL/2 for DDR), cycles.
    pub bl: u64,
    /// CAS-to-CAS same bank group (tCCD_L), cycles.
    pub ccd: u64,
    /// Write-to-read turnaround (tWTR), cycles.
    pub wtr: u64,
    /// ACT-to-ACT different bank (tRRD), cycles.
    pub rrd: u64,
    /// Four-activate window (tFAW), cycles.
    pub faw: u64,
    /// Banks per channel (rank × bank for our flattened model).
    pub banks: u32,
    /// Row-buffer (page) size in bytes.
    pub row_bytes: u64,
    /// Bytes transferred per burst on this channel.
    pub burst_bytes: u64,
}

impl DramTiming {
    /// DDR4-2400 (CL17), 8 Gb devices, x64 channel, BL8 → 64 B per burst.
    /// 16 banks (one rank modelled per channel; the second DIMM per
    /// channel contributes capacity and background power, not timing).
    pub const fn ddr4_2400() -> Self {
        DramTiming {
            tck_ps: 833,
            cl: 17,
            cwl: 12,
            rcd: 17,
            rp: 17,
            ras: 39,
            rc: 56,
            rfc: 420,   // 350 ns @ 1.2 GHz
            refi: 9363, // 7.8 µs
            wr: 18,
            rtp: 9,
            bl: 4, // BL8 on a DDR bus
            ccd: 6,
            wtr: 9,
            rrd: 6,
            faw: 26,
            banks: 16,
            row_bytes: 8192,
            burst_bytes: 64,
        }
    }

    /// HBM2-style channel: 128-bit bus at 2.0 GT/s (1 GHz clock), BL4,
    /// lower bank-level latencies, 16 banks per pseudo-channel.
    pub const fn hbm2() -> Self {
        DramTiming {
            tck_ps: 1000,
            cl: 14,
            cwl: 7,
            rcd: 14,
            rp: 14,
            ras: 33,
            rc: 47,
            rfc: 260,
            refi: 3900,
            wr: 16,
            rtp: 6,
            bl: 2, // BL4 on a DDR bus
            ccd: 4,
            wtr: 8,
            rrd: 4,
            faw: 16,
            banks: 16,
            row_bytes: 2048,
            burst_bytes: 64, // 128-bit bus × BL4
        }
    }

    /// Timing set for a [`MemTechnology`].
    pub const fn for_tech(tech: MemTechnology) -> Self {
        match tech {
            MemTechnology::Ddr4 => Self::ddr4_2400(),
            MemTechnology::Hbm => Self::hbm2(),
        }
    }

    /// Convert cycles to nanoseconds.
    pub fn cycles_to_ns(&self, cycles: u64) -> f64 {
        (cycles * self.tck_ps) as f64 / 1000.0
    }

    /// Convert nanoseconds to cycles (rounding up).
    pub fn ns_to_cycles(&self, ns: f64) -> u64 {
        let ps = ns * 1000.0;
        if ps <= 0.0 {
            0
        } else {
            (ps as u64).div_ceil(self.tck_ps)
        }
    }

    /// Idle row-hit read latency in nanoseconds (CL + burst).
    pub fn row_hit_ns(&self) -> f64 {
        self.cycles_to_ns(self.cl + self.bl)
    }

    /// Idle row-miss (closed bank) read latency in ns (RCD + CL + burst).
    pub fn row_closed_ns(&self) -> f64 {
        self.cycles_to_ns(self.rcd + self.cl + self.bl)
    }

    /// Idle row-conflict latency in ns (RP + RCD + CL + burst).
    pub fn row_conflict_ns(&self) -> f64 {
        self.cycles_to_ns(self.rp + self.rcd + self.cl + self.bl)
    }

    /// Peak data bandwidth of one channel in GB/s.
    pub fn peak_gbs(&self) -> f64 {
        self.burst_bytes as f64 / self.cycles_to_ns(self.bl)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ddr4_basic_sanity() {
        let t = DramTiming::ddr4_2400();
        // tRC must cover tRAS + tRP.
        assert!(t.rc >= t.ras + t.rp);
        // CAS latency ~14.2 ns — typical DDR4-2400 CL17.
        let cl_ns = t.cycles_to_ns(t.cl);
        assert!(cl_ns > 13.0 && cl_ns < 15.0, "{cl_ns}");
        // Peak bandwidth 19.2 GB/s per x64 channel.
        assert!((t.peak_gbs() - 19.2).abs() < 0.3, "{}", t.peak_gbs());
    }

    #[test]
    fn hbm_has_higher_per_channel_bandwidth_lower_latency() {
        let d = DramTiming::ddr4_2400();
        let h = DramTiming::hbm2();
        assert!(h.row_hit_ns() < d.row_hit_ns());
        assert!(h.row_conflict_ns() < d.row_conflict_ns());
        assert!(h.peak_gbs() > d.peak_gbs() * 0.8); // 16 GB/s vs 19.2: per
                                                    // pseudo-channel HBM is comparable; aggregate wins on channel count.
    }

    #[test]
    fn cycle_conversion_roundtrip() {
        let t = DramTiming::ddr4_2400();
        for c in [0u64, 1, 17, 1000] {
            let ns = t.cycles_to_ns(c);
            assert_eq!(t.ns_to_cycles(ns), c);
        }
    }

    #[test]
    fn latency_ordering() {
        for t in [DramTiming::ddr4_2400(), DramTiming::hbm2()] {
            assert!(t.row_hit_ns() < t.row_closed_ns());
            assert!(t.row_closed_ns() < t.row_conflict_ns());
        }
    }
}
