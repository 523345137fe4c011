//! FPU vector widths (Table I) plus the unconventional widths of Table II.

/// Floating-point unit SIMD width in bits.
///
/// The main design space explores 128/256/512 bits. Table II additionally
/// uses 64-bit (scalar FPU, `MEM+`/`MEM++`) and 1024/2048-bit
/// (`Vector+`/`Vector++`) widths, so those are representable too.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum VectorWidth {
    /// Scalar 64-bit FPU (Table II `MEM+`/`MEM++` only).
    V64,
    /// 128-bit SIMD — the width the applications were traced with (SSE4.2);
    /// normalisation baseline of Figure 5.
    V128,
    /// 256-bit SIMD.
    V256,
    /// 512-bit SIMD.
    V512,
    /// 1024-bit SIMD (Table II `Vector+` only).
    V1024,
    /// 2048-bit SIMD (Table II `Vector++` only; SVE maximum).
    V2048,
}

musa_obs::json_enum!(VectorWidth {
    V64,
    V128,
    V256,
    V512,
    V1024,
    V2048
});

impl VectorWidth {
    /// The three widths of the main 864-point design space.
    pub const DSE: [VectorWidth; 3] = [VectorWidth::V128, VectorWidth::V256, VectorWidth::V512];

    /// Every representable width, ascending.
    pub const ALL: [VectorWidth; 6] = [
        VectorWidth::V64,
        VectorWidth::V128,
        VectorWidth::V256,
        VectorWidth::V512,
        VectorWidth::V1024,
        VectorWidth::V2048,
    ];

    /// Width in bits.
    pub const fn bits(self) -> u32 {
        match self {
            VectorWidth::V64 => 64,
            VectorWidth::V128 => 128,
            VectorWidth::V256 => 256,
            VectorWidth::V512 => 512,
            VectorWidth::V1024 => 1024,
            VectorWidth::V2048 => 2048,
        }
    }

    /// Number of 64-bit double-precision lanes.
    pub const fn lanes_f64(self) -> u32 {
        self.bits() / 64
    }

    /// Fusion factor relative to the 128-bit tracing width (§III vector
    /// model): how many traced scalar-marked instructions fuse into one
    /// simulated operation. The trace is decomposed to scalar (64-bit)
    /// elements, so this equals the f64 lane count.
    pub const fn fusion_factor(self) -> u32 {
        self.lanes_f64()
    }

    /// Label used in plots (bits).
    pub const fn label(self) -> &'static str {
        match self {
            VectorWidth::V64 => "64",
            VectorWidth::V128 => "128",
            VectorWidth::V256 => "256",
            VectorWidth::V512 => "512",
            VectorWidth::V1024 => "1024",
            VectorWidth::V2048 => "2048",
        }
    }
}

impl std::fmt::Display for VectorWidth {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}bit", self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dse_widths_match_table1() {
        let bits: Vec<u32> = VectorWidth::DSE.iter().map(|w| w.bits()).collect();
        assert_eq!(bits, vec![128, 256, 512]);
    }

    #[test]
    fn lanes_and_fusion() {
        assert_eq!(VectorWidth::V64.lanes_f64(), 1);
        assert_eq!(VectorWidth::V128.lanes_f64(), 2);
        assert_eq!(VectorWidth::V512.lanes_f64(), 8);
        assert_eq!(VectorWidth::V2048.lanes_f64(), 32);
        for w in VectorWidth::ALL {
            assert_eq!(w.fusion_factor(), w.bits() / 64);
        }
    }

    #[test]
    fn ordering_follows_bits() {
        for pair in VectorWidth::ALL.windows(2) {
            assert!(pair[0] < pair[1]);
            assert!(pair[0].bits() < pair[1].bits());
        }
    }
}
