//! A complete compute-node configuration — one point of the design space.

use crate::{CacheConfig, CoreClass, Frequency, MemConfig, VectorWidth};

/// Cores per socket explored in Table I: 1, 32, 64.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CoresPerNode {
    /// Single core (scaling baseline).
    C1,
    /// 32 cores.
    C32,
    /// 64 cores.
    C64,
}

musa_obs::json_enum!(CoresPerNode { C1, C32, C64 });

impl CoresPerNode {
    /// All values in Table I order.
    pub const ALL: [CoresPerNode; 3] = [CoresPerNode::C1, CoresPerNode::C32, CoresPerNode::C64];

    /// The core count as a number.
    pub const fn count(self) -> u32 {
        match self {
            CoresPerNode::C1 => 1,
            CoresPerNode::C32 => 32,
            CoresPerNode::C64 => 64,
        }
    }

    /// Construct from a raw count if it is one of the explored values.
    pub fn from_count(n: u32) -> Option<Self> {
        match n {
            1 => Some(CoresPerNode::C1),
            32 => Some(CoresPerNode::C32),
            64 => Some(CoresPerNode::C64),
            _ => None,
        }
    }
}

impl std::fmt::Display for CoresPerNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}c", self.count())
    }
}

/// One architectural configuration of a compute node: the six explored
/// features of Table I (plus, via the extended [`VectorWidth`] and
/// [`MemConfig`] values, the unconventional points of Table II).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeConfig {
    /// Number of cores in the socket.
    pub cores: CoresPerNode,
    /// Out-of-order capability class of each core.
    pub core_class: CoreClass,
    /// L3:L2 cache configuration (L1 fixed at 32 kB).
    pub cache: CacheConfig,
    /// FPU SIMD width.
    pub vector: VectorWidth,
    /// CPU (and cache) clock frequency.
    pub freq: Frequency,
    /// Off-chip memory subsystem.
    pub mem: MemConfig,
}

musa_obs::json_struct!(NodeConfig {
    cores,
    core_class,
    cache,
    vector,
    freq,
    mem
});

impl NodeConfig {
    /// A representative mid-range configuration, useful as a default in
    /// examples and tests: 32 cores, high OoO, 64M:512K caches, 256-bit
    /// SIMD, 2 GHz, 4-channel DDR4.
    pub const REFERENCE: NodeConfig = NodeConfig {
        cores: CoresPerNode::C32,
        core_class: CoreClass::High,
        cache: CacheConfig::C64M512K,
        vector: VectorWidth::V256,
        freq: Frequency::F2_0,
        mem: MemConfig::DDR4_4CH,
    };

    /// Compact unique label, e.g. `64c-high-64M:512K-256bit-2.0GHz-4chDDR4`.
    pub fn label(&self) -> String {
        format!(
            "{}-{}-{}-{}-{}-{}",
            self.cores, self.core_class, self.cache, self.vector, self.freq, self.mem
        )
    }

    /// Total shared L3 capacity per core in bytes (the paper quotes the
    /// 96M config as "1.5MB per core" at 64 cores).
    pub fn l3_per_core_bytes(&self) -> u64 {
        self.cache.l3().size_bytes / self.cores.count().max(1) as u64
    }

    /// Returns a copy with one feature replaced — convenient for building
    /// the paired-normalisation partners used throughout §V-B.
    pub fn with_vector(mut self, v: VectorWidth) -> Self {
        self.vector = v;
        self
    }

    /// See [`Self::with_vector`].
    pub fn with_cache(mut self, c: CacheConfig) -> Self {
        self.cache = c;
        self
    }

    /// See [`Self::with_vector`].
    pub fn with_core_class(mut self, c: CoreClass) -> Self {
        self.core_class = c;
        self
    }

    /// See [`Self::with_vector`].
    pub fn with_mem(mut self, m: MemConfig) -> Self {
        self.mem = m;
        self
    }

    /// See [`Self::with_vector`].
    pub fn with_freq(mut self, f: Frequency) -> Self {
        self.freq = f;
        self
    }

    /// See [`Self::with_vector`].
    pub fn with_cores(mut self, c: CoresPerNode) -> Self {
        self.cores = c;
        self
    }
}

impl std::fmt::Display for NodeConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn core_counts_match_table1() {
        let counts: Vec<u32> = CoresPerNode::ALL.iter().map(|c| c.count()).collect();
        assert_eq!(counts, vec![1, 32, 64]);
        assert_eq!(CoresPerNode::from_count(32), Some(CoresPerNode::C32));
        assert_eq!(CoresPerNode::from_count(33), None);
    }

    #[test]
    fn l3_per_core_matches_paper_quote() {
        // "upgrading to a cache configuration with 96MB:1MB (1.5MB:1MB per
        // core)" at 64 cores.
        let cfg = NodeConfig::REFERENCE
            .with_cores(CoresPerNode::C64)
            .with_cache(CacheConfig::C96M1M);
        assert_eq!(cfg.l3_per_core_bytes(), 3 * 512 * 1024); // 1.5 MB
    }

    #[test]
    fn label_is_unique_per_feature_change() {
        let a = NodeConfig::REFERENCE;
        assert_ne!(a.label(), a.with_vector(VectorWidth::V512).label());
        assert_ne!(a.label(), a.with_freq(Frequency::F3_0).label());
        assert_ne!(a.label(), a.with_mem(MemConfig::DDR4_8CH).label());
    }

    #[test]
    fn json_roundtrip_keeps_the_serde_wire_shape() {
        let cfg = NodeConfig::REFERENCE;
        let json = musa_obs::json::to_string(&cfg);
        assert_eq!(
            json,
            r#"{"cores":"C32","core_class":"High","cache":"C64M512K","vector":"V256","freq":"F2_0","mem":{"channels":4,"tech":"Ddr4"}}"#
        );
        let back: NodeConfig = musa_obs::json::from_str(&json).unwrap();
        assert_eq!(cfg, back);
    }
}
