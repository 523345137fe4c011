//! Enumeration of the 864-point design space and the Table II
//! unconventional configurations.

use crate::{CacheConfig, CoreClass, CoresPerNode, Frequency, MemConfig, NodeConfig, VectorWidth};

/// One of the six explored architectural features. Used to drive the
/// paired-normalisation analysis of §V-B: for each feature, every simulation
/// is normalised against the simulation that shares all *other* features.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Feature {
    /// Number of cores per socket.
    Cores,
    /// Core out-of-order class.
    CoreClass,
    /// Cache configuration.
    Cache,
    /// FPU vector width.
    Vector,
    /// CPU frequency.
    Frequency,
    /// Memory channels.
    Memory,
}

impl Feature {
    /// All six features.
    pub const ALL: [Feature; 6] = [
        Feature::Cores,
        Feature::CoreClass,
        Feature::Cache,
        Feature::Vector,
        Feature::Frequency,
        Feature::Memory,
    ];

    /// Number of values this feature takes in the main design space.
    pub const fn cardinality(self) -> usize {
        match self {
            Feature::Cores => CoresPerNode::ALL.len(),
            Feature::CoreClass => CoreClass::ALL.len(),
            Feature::Cache => CacheConfig::ALL.len(),
            Feature::Vector => VectorWidth::DSE.len(),
            Feature::Frequency => Frequency::ALL.len(),
            Feature::Memory => MemConfig::DSE.len(),
        }
    }

    /// The value this feature takes in `cfg`, as a plot label.
    pub fn value_label(self, cfg: &NodeConfig) -> String {
        match self {
            Feature::Cores => cfg.cores.to_string(),
            Feature::CoreClass => cfg.core_class.to_string(),
            Feature::Cache => cfg.cache.to_string(),
            Feature::Vector => cfg.vector.to_string(),
            Feature::Frequency => cfg.freq.to_string(),
            Feature::Memory => cfg.mem.to_string(),
        }
    }

    /// The key of `cfg` with this feature *erased* — two configurations
    /// share a key iff they differ only in this feature. This is the
    /// grouping used by the paper's normalisation methodology (§V-B).
    pub fn erased_key(self, cfg: &NodeConfig) -> String {
        let mut c = *cfg;
        match self {
            Feature::Cores => c.cores = CoresPerNode::C1,
            Feature::CoreClass => c.core_class = CoreClass::LowEnd,
            Feature::Cache => c.cache = CacheConfig::C32M256K,
            Feature::Vector => c.vector = VectorWidth::V128,
            Feature::Frequency => c.freq = Frequency::F1_5,
            Feature::Memory => c.mem = MemConfig::DDR4_4CH,
        }
        c.label()
    }
}

/// The full cartesian design space of Table I.
///
/// Iterating yields all `3 × 4 × 3 × 3 × 4 × 2 = 864` configurations.
#[derive(Debug, Clone, Copy, Default)]
pub struct DesignSpace;

impl DesignSpace {
    /// Expected number of points (asserted in tests): 864, as in the paper.
    pub const SIZE: usize = CoresPerNode::ALL.len()
        * CoreClass::ALL.len()
        * CacheConfig::ALL.len()
        * VectorWidth::DSE.len()
        * Frequency::ALL.len()
        * MemConfig::DSE.len();

    /// Enumerate every configuration of the design space.
    pub fn iter() -> impl Iterator<Item = NodeConfig> {
        CoresPerNode::ALL.into_iter().flat_map(|cores| {
            CoreClass::ALL.into_iter().flat_map(move |core_class| {
                CacheConfig::ALL.into_iter().flat_map(move |cache| {
                    VectorWidth::DSE.into_iter().flat_map(move |vector| {
                        Frequency::ALL.into_iter().flat_map(move |freq| {
                            MemConfig::DSE.into_iter().map(move |mem| NodeConfig {
                                cores,
                                core_class,
                                cache,
                                vector,
                                freq,
                                mem,
                            })
                        })
                    })
                })
            })
        })
    }

    /// All configurations as a vector.
    pub fn all() -> Vec<NodeConfig> {
        Self::iter().collect()
    }

    /// The subset used by the PCA study (§V-C): 2 GHz, 64 cores.
    pub fn pca_subset() -> Vec<NodeConfig> {
        Self::iter()
            .filter(|c| c.freq == Frequency::F2_0 && c.cores == CoresPerNode::C64)
            .collect()
    }
}

/// A named unconventional configuration from Table II.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Unconventional {
    /// Paper label, e.g. `Vector+`.
    pub name: &'static str,
    /// The node configuration.
    pub config: NodeConfig,
}

/// Table II, SPMZ block. All 64-core, 2 GHz.
///
/// * `DSE Best`: aggressive OoO, 512-bit, 96M:1M, 8-ch DDR4.
/// * `Vector+`: high OoO, 1024-bit, 64M:512K, 4-ch DDR4.
/// * `Vector++`: high OoO, 2048-bit, 64M:512K, 4-ch DDR4.
pub const UNCONVENTIONAL_SPMZ: [Unconventional; 3] = [
    Unconventional {
        name: "Best-DSE",
        config: NodeConfig {
            cores: CoresPerNode::C64,
            core_class: CoreClass::Aggressive,
            cache: CacheConfig::C96M1M,
            vector: VectorWidth::V512,
            freq: Frequency::F2_0,
            mem: MemConfig::DDR4_8CH,
        },
    },
    Unconventional {
        name: "Vector+",
        config: NodeConfig {
            cores: CoresPerNode::C64,
            core_class: CoreClass::High,
            cache: CacheConfig::C64M512K,
            vector: VectorWidth::V1024,
            freq: Frequency::F2_0,
            mem: MemConfig::DDR4_4CH,
        },
    },
    Unconventional {
        name: "Vector++",
        config: NodeConfig {
            cores: CoresPerNode::C64,
            core_class: CoreClass::High,
            cache: CacheConfig::C64M512K,
            vector: VectorWidth::V2048,
            freq: Frequency::F2_0,
            mem: MemConfig::DDR4_4CH,
        },
    },
];

/// Table II, LULESH block. All 64-core, 2 GHz.
///
/// * `DSE Best`: high OoO, 512-bit, 96M:1M, 8-ch DDR4.
/// * `MEM+`: medium OoO, 64-bit, 64M:512K, 16-ch DDR4.
/// * `MEM++`: medium OoO, 64-bit, 64M:512K, 16-ch HBM.
pub const UNCONVENTIONAL_LULESH: [Unconventional; 3] = [
    Unconventional {
        name: "Best-DSE",
        config: NodeConfig {
            cores: CoresPerNode::C64,
            core_class: CoreClass::High,
            cache: CacheConfig::C96M1M,
            vector: VectorWidth::V512,
            freq: Frequency::F2_0,
            mem: MemConfig::DDR4_8CH,
        },
    },
    Unconventional {
        name: "MEM+",
        config: NodeConfig {
            cores: CoresPerNode::C64,
            core_class: CoreClass::Medium,
            cache: CacheConfig::C64M512K,
            vector: VectorWidth::V64,
            freq: Frequency::F2_0,
            mem: MemConfig::DDR4_16CH,
        },
    },
    Unconventional {
        name: "MEM++",
        config: NodeConfig {
            cores: CoresPerNode::C64,
            core_class: CoreClass::Medium,
            cache: CacheConfig::C64M512K,
            vector: VectorWidth::V64,
            freq: Frequency::F2_0,
            mem: MemConfig::HBM_16CH,
        },
    },
];

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn design_space_has_864_points() {
        assert_eq!(DesignSpace::SIZE, 864);
        assert_eq!(DesignSpace::iter().count(), 864);
    }

    #[test]
    fn all_points_are_distinct() {
        let labels: HashSet<String> = DesignSpace::iter().map(|c| c.label()).collect();
        assert_eq!(labels.len(), 864);
    }

    #[test]
    fn erased_key_partitions_space() {
        // For each feature, grouping by erased key must give exactly
        // 864 / cardinality groups of size cardinality — the property the
        // paper's normalisation relies on ("96 samples per bar": for the
        // vector feature with cardinality 3, 864/3 = 288 per width, and
        // per (app, cores) slice 96).
        for feature in Feature::ALL {
            let mut groups: std::collections::HashMap<String, usize> = Default::default();
            for cfg in DesignSpace::iter() {
                *groups.entry(feature.erased_key(&cfg)).or_default() += 1;
            }
            let k = feature.cardinality();
            assert_eq!(groups.len(), 864 / k, "{feature:?}");
            assert!(groups.values().all(|&n| n == k), "{feature:?}");
        }
    }

    #[test]
    fn pca_subset_is_2ghz_64core() {
        let subset = DesignSpace::pca_subset();
        // 864 / 4 freqs / 3 core-counts = 72 points.
        assert_eq!(subset.len(), 72);
        assert!(subset
            .iter()
            .all(|c| c.freq == Frequency::F2_0 && c.cores == CoresPerNode::C64));
    }

    #[test]
    fn unconventional_match_table2() {
        let best = &UNCONVENTIONAL_SPMZ[0];
        assert_eq!(best.config.core_class, CoreClass::Aggressive);
        assert_eq!(best.config.vector, VectorWidth::V512);
        assert_eq!(best.config.mem.channels, 8);

        let vplus = &UNCONVENTIONAL_SPMZ[1];
        assert_eq!(vplus.config.vector, VectorWidth::V1024);
        assert_eq!(vplus.config.core_class, CoreClass::High);
        assert_eq!(vplus.config.mem.channels, 4);

        let vpp = &UNCONVENTIONAL_SPMZ[2];
        assert_eq!(vpp.config.vector, VectorWidth::V2048);

        let memp = &UNCONVENTIONAL_LULESH[1];
        assert_eq!(memp.config.vector, VectorWidth::V64);
        assert_eq!(memp.config.mem, MemConfig::DDR4_16CH);

        let mempp = &UNCONVENTIONAL_LULESH[2];
        assert_eq!(mempp.config.mem, MemConfig::HBM_16CH);

        for u in UNCONVENTIONAL_SPMZ.iter().chain(&UNCONVENTIONAL_LULESH) {
            assert_eq!(u.config.cores, CoresPerNode::C64);
            assert_eq!(u.config.freq, Frequency::F2_0);
        }
    }
}
