//! Cache hierarchy configurations (Table I, top block).

/// Size / associativity / latency of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheLevelParams {
    /// Capacity in bytes.
    pub size_bytes: u64,
    /// Set associativity (ways).
    pub assoc: u32,
    /// Access latency in cycles.
    pub latency_cycles: u32,
}

impl CacheLevelParams {
    /// Number of sets for a given line size.
    pub fn sets(&self, line_bytes: u64) -> u64 {
        self.size_bytes / (line_bytes * self.assoc as u64)
    }
}

/// One of the three explored L3:L2 pairs.
///
/// From Table I:
///
/// | Label       | L3 (shared)       | L2 (private)      |
/// |-------------|-------------------|-------------------|
/// | 32M:256KB   | 32 MB / 16 / 68   | 256 kB /  8 /  9  |
/// | 64M:512KB   | 64 MB / 16 / 70   | 512 kB / 16 / 11  |
/// | 96M:1MB     | 96 MB / 16 / 72   |   1 MB / 16 / 13  |
///
/// L1 is fixed at 32 kB (see [`crate::L1_SIZE_BYTES`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CacheConfig {
    /// 32 MB shared L3, 256 kB private L2.
    C32M256K,
    /// 64 MB shared L3, 512 kB private L2.
    C64M512K,
    /// 96 MB shared L3, 1 MB private L2.
    C96M1M,
}

musa_obs::json_enum!(CacheConfig {
    C32M256K,
    C64M512K,
    C96M1M
});

impl CacheConfig {
    /// All configurations in Table I order (smallest first — also the
    /// normalisation baseline order used by Figure 6).
    pub const ALL: [CacheConfig; 3] = [
        CacheConfig::C32M256K,
        CacheConfig::C64M512K,
        CacheConfig::C96M1M,
    ];

    /// Shared L3 parameters.
    pub const fn l3(self) -> CacheLevelParams {
        match self {
            CacheConfig::C32M256K => CacheLevelParams {
                size_bytes: 32 * 1024 * 1024,
                assoc: 16,
                latency_cycles: 68,
            },
            CacheConfig::C64M512K => CacheLevelParams {
                size_bytes: 64 * 1024 * 1024,
                assoc: 16,
                latency_cycles: 70,
            },
            CacheConfig::C96M1M => CacheLevelParams {
                size_bytes: 96 * 1024 * 1024,
                assoc: 16,
                latency_cycles: 72,
            },
        }
    }

    /// Private per-core L2 parameters.
    pub const fn l2(self) -> CacheLevelParams {
        match self {
            CacheConfig::C32M256K => CacheLevelParams {
                size_bytes: 256 * 1024,
                assoc: 8,
                latency_cycles: 9,
            },
            CacheConfig::C64M512K => CacheLevelParams {
                size_bytes: 512 * 1024,
                assoc: 16,
                latency_cycles: 11,
            },
            CacheConfig::C96M1M => CacheLevelParams {
                size_bytes: 1024 * 1024,
                assoc: 16,
                latency_cycles: 13,
            },
        }
    }

    /// The label used in the paper's plots.
    pub const fn label(self) -> &'static str {
        match self {
            CacheConfig::C32M256K => "32M:256K",
            CacheConfig::C64M512K => "64M:512K",
            CacheConfig::C96M1M => "96M:1M",
        }
    }
}

impl std::fmt::Display for CacheConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CACHE_LINE_BYTES;

    #[test]
    fn table1_cache_values_match_paper() {
        let c = CacheConfig::C32M256K;
        assert_eq!(c.l3().size_bytes, 32 << 20);
        assert_eq!(c.l3().assoc, 16);
        assert_eq!(c.l3().latency_cycles, 68);
        assert_eq!(c.l2().size_bytes, 256 << 10);
        assert_eq!(c.l2().assoc, 8);
        assert_eq!(c.l2().latency_cycles, 9);

        let c = CacheConfig::C64M512K;
        assert_eq!(c.l3().size_bytes, 64 << 20);
        assert_eq!(c.l3().latency_cycles, 70);
        assert_eq!(c.l2().size_bytes, 512 << 10);
        assert_eq!(c.l2().assoc, 16);
        assert_eq!(c.l2().latency_cycles, 11);

        let c = CacheConfig::C96M1M;
        assert_eq!(c.l3().size_bytes, 96 << 20);
        assert_eq!(c.l3().latency_cycles, 72);
        assert_eq!(c.l2().size_bytes, 1 << 20);
        assert_eq!(c.l2().latency_cycles, 13);
    }

    #[test]
    fn sets_are_powers_of_two_for_l2() {
        // L2 geometry must decompose cleanly into sets of 64-byte lines.
        for c in CacheConfig::ALL {
            let sets = c.l2().sets(CACHE_LINE_BYTES);
            assert!(sets > 0);
            assert_eq!(
                c.l2().size_bytes,
                sets * CACHE_LINE_BYTES * c.l2().assoc as u64
            );
        }
    }

    #[test]
    fn larger_configs_have_higher_latency() {
        let lat: Vec<u32> = CacheConfig::ALL
            .iter()
            .map(|c| c.l3().latency_cycles)
            .collect();
        assert!(lat.windows(2).all(|w| w[0] < w[1]));
        let lat2: Vec<u32> = CacheConfig::ALL
            .iter()
            .map(|c| c.l2().latency_cycles)
            .collect();
        assert!(lat2.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn labels_match_paper() {
        assert_eq!(CacheConfig::C32M256K.label(), "32M:256K");
        assert_eq!(CacheConfig::C64M512K.label(), "64M:512K");
        assert_eq!(CacheConfig::C96M1M.label(), "96M:1M");
    }
}
