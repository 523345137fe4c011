//! Simulation statistics: cache-level counters, instruction mix and the
//! activity counts consumed by the power model.

/// Per-cache-level counters.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LevelStats {
    /// Accesses arriving at this level.
    pub accesses: f64,
    /// Misses (forwarded to the next level).
    pub misses: f64,
    /// Dirty lines written back from this level.
    pub writebacks: f64,
}

musa_obs::json_struct!(LevelStats {
    accesses,
    misses,
    writebacks
});

impl LevelStats {
    /// Miss ratio.
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses == 0.0 {
            0.0
        } else {
            self.misses / self.accesses
        }
    }

    /// Merge counters.
    pub fn merge(&mut self, o: &LevelStats) {
        self.accesses += o.accesses;
        self.misses += o.misses;
        self.writebacks += o.writebacks;
    }

    /// Scale counters (used to extrapolate a simulated window to the full
    /// trip count).
    pub fn scaled(&self, f: f64) -> LevelStats {
        LevelStats {
            accesses: self.accesses * f,
            misses: self.misses * f,
            writebacks: self.writebacks * f,
        }
    }
}

/// Aggregated simulation statistics (fractional: extrapolated from
/// sampled windows).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SimStats {
    /// Committed instructions (fused SIMD operations count once).
    pub instructions: f64,
    /// Committed instructions expressed at the traced 128-bit baseline
    /// (fused operations count `f_eff / 2` times) — the denominator used
    /// for cross-width MPKI comparisons.
    pub baseline_instructions: f64,
    /// L1 data cache.
    pub l1: LevelStats,
    /// Private L2.
    pub l2: LevelStats,
    /// Shared L3.
    pub l3: LevelStats,
    /// Cache lines read from DRAM.
    pub mem_reads: f64,
    /// Cache lines written back to DRAM.
    pub mem_writes: f64,
    /// Fraction of DRAM line reads coming from sequential streams
    /// (drives the row-buffer-hit estimate for DRAM power).
    pub mem_seq_fraction: f64,
    /// Double-precision floating-point operations.
    pub flops: f64,
    /// Integer ALU operations committed.
    pub ops_int: f64,
    /// FP operations committed (fused count once).
    pub ops_fp: f64,
    /// Memory operations committed.
    pub ops_mem: f64,
    /// Branches committed.
    pub ops_branch: f64,
}

musa_obs::json_struct!(SimStats {
    instructions,
    baseline_instructions,
    l1,
    l2,
    l3,
    mem_reads,
    mem_writes,
    mem_seq_fraction,
    flops,
    ops_int,
    ops_fp,
    ops_mem,
    ops_branch
});

impl SimStats {
    /// Merge another stats block.
    pub fn merge(&mut self, o: &SimStats) {
        let self_mem = self.mem_reads;
        self.instructions += o.instructions;
        self.baseline_instructions += o.baseline_instructions;
        self.l1.merge(&o.l1);
        self.l2.merge(&o.l2);
        self.l3.merge(&o.l3);
        // Weighted blend of the sequential fractions.
        let total = self_mem + o.mem_reads;
        if total > 0.0 {
            self.mem_seq_fraction =
                (self.mem_seq_fraction * self_mem + o.mem_seq_fraction * o.mem_reads) / total;
        }
        self.mem_reads += o.mem_reads;
        self.mem_writes += o.mem_writes;
        self.flops += o.flops;
        self.ops_int += o.ops_int;
        self.ops_fp += o.ops_fp;
        self.ops_mem += o.ops_mem;
        self.ops_branch += o.ops_branch;
    }

    /// Scale all counters.
    pub fn scaled(&self, f: f64) -> SimStats {
        SimStats {
            instructions: self.instructions * f,
            baseline_instructions: self.baseline_instructions * f,
            l1: self.l1.scaled(f),
            l2: self.l2.scaled(f),
            l3: self.l3.scaled(f),
            mem_reads: self.mem_reads * f,
            mem_writes: self.mem_writes * f,
            mem_seq_fraction: self.mem_seq_fraction,
            flops: self.flops * f,
            ops_int: self.ops_int * f,
            ops_fp: self.ops_fp * f,
            ops_mem: self.ops_mem * f,
            ops_branch: self.ops_branch * f,
        }
    }

    /// Misses per kilo-instruction at a level, measured against the
    /// 128-bit baseline instruction count as the paper's Fig. 1 does.
    pub fn mpki(&self, level: &LevelStats) -> f64 {
        if self.baseline_instructions == 0.0 {
            0.0
        } else {
            level.misses / self.baseline_instructions * 1000.0
        }
    }

    /// Total DRAM requests (line reads + write-backs).
    pub fn mem_requests(&self) -> f64 {
        self.mem_reads + self.mem_writes
    }

    /// DRAM traffic in bytes.
    pub fn mem_bytes(&self) -> f64 {
        self.mem_requests() * musa_arch::CACHE_LINE_BYTES as f64
    }

    /// Memory-request MPKI including write-backs — the quantity the
    /// paper plots as "L3-MPKI" (it exceeds L2 MPKI for store-heavy
    /// LULESH).
    pub fn l3_mpki_with_writebacks(&self) -> f64 {
        if self.baseline_instructions == 0.0 {
            0.0
        } else {
            self.mem_requests() / self.baseline_instructions * 1000.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_accumulates() {
        let mut a = SimStats {
            instructions: 100.0,
            baseline_instructions: 100.0,
            mem_reads: 10.0,
            mem_seq_fraction: 1.0,
            ..Default::default()
        };
        let b = SimStats {
            instructions: 50.0,
            baseline_instructions: 50.0,
            mem_reads: 30.0,
            mem_seq_fraction: 0.0,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.instructions, 150.0);
        assert_eq!(a.mem_reads, 40.0);
        // Blend weighted by traffic: 10/40 sequential.
        assert!((a.mem_seq_fraction - 0.25).abs() < 1e-12);
    }

    #[test]
    fn mpki_uses_baseline_instructions() {
        let s = SimStats {
            instructions: 500.0,
            baseline_instructions: 1000.0,
            l1: LevelStats {
                accesses: 300.0,
                misses: 6.0,
                writebacks: 0.0,
            },
            ..Default::default()
        };
        assert!((s.mpki(&s.l1) - 6.0).abs() < 1e-12);
    }

    #[test]
    fn writeback_inclusive_mpki_can_exceed_l2_mpki() {
        let s = SimStats {
            baseline_instructions: 1000.0,
            l2: LevelStats {
                accesses: 20.0,
                misses: 4.0,
                writebacks: 3.0,
            },
            mem_reads: 4.0,
            mem_writes: 3.0,
            ..Default::default()
        };
        assert!(s.l3_mpki_with_writebacks() > s.mpki(&s.l2));
    }

    #[test]
    fn scaled_is_linear() {
        let s = SimStats {
            instructions: 10.0,
            flops: 4.0,
            ..Default::default()
        };
        let t = s.scaled(2.5);
        assert_eq!(t.instructions, 25.0);
        assert_eq!(t.flops, 10.0);
    }
}
