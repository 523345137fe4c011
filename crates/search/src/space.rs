//! Parameterized, index-addressable design spaces.
//!
//! The paper's sweep is a fixed 864-config grid
//! ([`musa_arch::DesignSpace`]). Search needs two generalisations:
//!
//! 1. **A parameterized space.** [`SpaceId::Expanded`] crosses *every*
//!    enum axis (all 6 vector widths, not the DSE 3) and replaces the
//!    two-option memory axis with a channel-count × technology grid
//!    (the `MemConfig` struct already accepts arbitrary channel
//!    counts), giving 20,736 configurations — ×5 applications ≥100k
//!    candidate points, far past exhaustive-sweep territory.
//! 2. **Index addressing.** Strategies reason about points as integers
//!    (mixed-radix digit vectors), so the space must map a dense index
//!    `0..len()` to a `NodeConfig` and back, deterministically and in
//!    O(axes). Sampling, mutation and journaling all speak these
//!    indices.
//!
//! A [`PointSpace`] crosses a config space with an application
//! selection: a *point* is one (app, config) pair, indexed
//! `app_idx * configs + config_idx`.

use musa_apps::AppId;
use musa_arch::{
    CacheConfig, CoreClass, CoresPerNode, Frequency, MemConfig, MemTechnology, NodeConfig,
    VectorWidth,
};

/// Channel counts of the expanded memory axis. Powers-of-two plus the
/// intermediate 3·2ⁿ points, spanning laptop-class (1 ch) to
/// HBM-stack-class (64 ch) bandwidth.
pub const EXPANDED_CHANNELS: [u32; 12] = [1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64];

/// Which configuration space a search runs over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpaceId {
    /// The paper's 864-point grid (Table I axes).
    Paper,
    /// All enum axes crossed, plus a 24-option memory axis
    /// (12 channel counts × {DDR4, HBM}): 20,736 configurations.
    Expanded,
}

impl SpaceId {
    /// Parse a CLI space name.
    pub fn parse(s: &str) -> Option<SpaceId> {
        match s {
            "paper" => Some(SpaceId::Paper),
            "expanded" => Some(SpaceId::Expanded),
            _ => None,
        }
    }

    /// The CLI name.
    pub fn label(self) -> &'static str {
        match self {
            SpaceId::Paper => "paper",
            SpaceId::Expanded => "expanded",
        }
    }
}

/// An index-addressable configuration space: the cross product of six
/// per-axis value lists, in fixed axis order (cores, class, cache,
/// vector, freq, mem) with the memory axis as the fastest-varying
/// digit.
#[derive(Debug, Clone)]
pub struct SearchSpace {
    id: SpaceId,
    cores: Vec<CoresPerNode>,
    classes: Vec<CoreClass>,
    caches: Vec<CacheConfig>,
    vectors: Vec<VectorWidth>,
    freqs: Vec<Frequency>,
    mems: Vec<MemConfig>,
}

impl SearchSpace {
    /// Materialise the axis value lists for a space.
    pub fn new(id: SpaceId) -> SearchSpace {
        let (vectors, mems) = match id {
            SpaceId::Paper => (VectorWidth::DSE.to_vec(), MemConfig::DSE.to_vec()),
            SpaceId::Expanded => {
                let mut mems = Vec::new();
                for tech in [MemTechnology::Ddr4, MemTechnology::Hbm] {
                    for ch in EXPANDED_CHANNELS {
                        mems.push(MemConfig { channels: ch, tech });
                    }
                }
                (VectorWidth::ALL.to_vec(), mems)
            }
        };
        SearchSpace {
            id,
            cores: CoresPerNode::ALL.to_vec(),
            classes: CoreClass::ALL.to_vec(),
            caches: CacheConfig::ALL.to_vec(),
            vectors,
            freqs: Frequency::ALL.to_vec(),
            mems,
        }
    }

    /// Which space this is.
    pub fn id(&self) -> SpaceId {
        self.id
    }

    /// Number of configurations (the product of the axis radices).
    pub fn len(&self) -> u64 {
        self.radices().iter().product::<u64>()
    }

    /// True only for a degenerate space (never, in practice).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Per-axis radices in digit order (cores, class, cache, vector,
    /// freq, mem).
    pub fn radices(&self) -> [u64; 6] {
        [
            self.cores.len() as u64,
            self.classes.len() as u64,
            self.caches.len() as u64,
            self.vectors.len() as u64,
            self.freqs.len() as u64,
            self.mems.len() as u64,
        ]
    }

    /// Decode an index into its mixed-radix digits (mem fastest).
    pub fn digits(&self, index: u64) -> [u64; 6] {
        let r = self.radices();
        let mut rest = index;
        let mut d = [0u64; 6];
        for axis in (0..6).rev() {
            d[axis] = rest % r[axis];
            rest /= r[axis];
        }
        debug_assert_eq!(rest, 0, "index within space");
        d
    }

    /// Encode mixed-radix digits back into an index.
    pub fn from_digits(&self, d: [u64; 6]) -> u64 {
        let r = self.radices();
        let mut idx = 0;
        for axis in 0..6 {
            debug_assert!(d[axis] < r[axis], "digit within radix");
            idx = idx * r[axis] + d[axis];
        }
        idx
    }

    /// The configuration at an index.
    pub fn config(&self, index: u64) -> NodeConfig {
        let d = self.digits(index);
        NodeConfig {
            cores: self.cores[d[0] as usize],
            core_class: self.classes[d[1] as usize],
            cache: self.caches[d[2] as usize],
            vector: self.vectors[d[3] as usize],
            freq: self.freqs[d[4] as usize],
            mem: self.mems[d[5] as usize],
        }
    }

    /// The index of a configuration, if its axis values are all in
    /// this space.
    pub fn index_of(&self, cfg: &NodeConfig) -> Option<u64> {
        let d = [
            self.cores.iter().position(|&v| v == cfg.cores)? as u64,
            self.classes.iter().position(|&v| v == cfg.core_class)? as u64,
            self.caches.iter().position(|&v| v == cfg.cache)? as u64,
            self.vectors.iter().position(|&v| v == cfg.vector)? as u64,
            self.freqs.iter().position(|&v| v == cfg.freq)? as u64,
            self.mems.iter().position(|&v| v == cfg.mem)? as u64,
        ];
        Some(self.from_digits(d))
    }
}

/// A config space crossed with an application selection: the actual
/// search domain. A *point index* is `app_idx * space.len() + config_idx`.
#[derive(Debug, Clone)]
pub struct PointSpace {
    /// The configuration space.
    pub space: SearchSpace,
    /// Applications under search, in [`AppId::ALL`] order.
    pub apps: Vec<AppId>,
}

impl PointSpace {
    /// Cross a space with an app selection. The selection is
    /// deduplicated and normalised to [`AppId::ALL`] order so the
    /// point indexing never depends on CLI argument order.
    pub fn new(space: SearchSpace, apps: &[AppId]) -> PointSpace {
        let apps: Vec<AppId> = AppId::ALL
            .into_iter()
            .filter(|a| apps.contains(a))
            .collect();
        assert!(!apps.is_empty(), "at least one application");
        PointSpace { space, apps }
    }

    /// Total candidate points.
    pub fn len(&self) -> u64 {
        self.apps.len() as u64 * self.space.len()
    }

    /// True only for a degenerate space.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Decode a point index into (app, config index).
    pub fn split(&self, point: u64) -> (AppId, u64) {
        let n = self.space.len();
        (self.apps[(point / n) as usize], point % n)
    }

    /// Decode a point index into (app, config).
    pub fn decode(&self, point: u64) -> (AppId, NodeConfig) {
        let (app, ci) = self.split(point);
        (app, self.space.config(ci))
    }

    /// Encode (app index, config index) into a point index.
    pub fn encode(&self, app_idx: usize, config_idx: u64) -> u64 {
        debug_assert!(app_idx < self.apps.len());
        debug_assert!(config_idx < self.space.len());
        app_idx as u64 * self.space.len() + config_idx
    }

    /// Per-axis radices of the 7-digit point representation:
    /// `[apps, cores, class, cache, vector, freq, mem]`.
    pub fn point_radices(&self) -> [u64; 7] {
        let r = self.space.radices();
        [self.apps.len() as u64, r[0], r[1], r[2], r[3], r[4], r[5]]
    }

    /// Decode a point into its 7 digits (app first).
    pub fn point_digits(&self, point: u64) -> [u64; 7] {
        let (app, ci) = (point / self.space.len(), point % self.space.len());
        let d = self.space.digits(ci);
        [app, d[0], d[1], d[2], d[3], d[4], d[5]]
    }

    /// Encode 7 digits back into a point index.
    pub fn from_point_digits(&self, d: [u64; 7]) -> u64 {
        let cfg = self.space.from_digits([d[1], d[2], d[3], d[4], d[5], d[6]]);
        d[0] * self.space.len() + cfg
    }

    /// The point index of the per-app reference evaluation
    /// ([`NodeConfig::REFERENCE`]) for app `app_idx`. The reference
    /// config is a member of both spaces by construction — asserted at
    /// space build time via this call.
    pub fn reference_point(&self, app_idx: usize) -> u64 {
        let ci = self
            .space
            .index_of(&NodeConfig::REFERENCE)
            .expect("NodeConfig::REFERENCE is a member of every search space");
        self.encode(app_idx, ci)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_space_is_the_864_grid() {
        let s = SearchSpace::new(SpaceId::Paper);
        assert_eq!(s.len(), 864);
        // Same *set* of configurations as DesignSpace::all(), whatever
        // the enumeration order.
        let mut ours: Vec<String> = (0..s.len()).map(|i| s.config(i).label()).collect();
        let mut theirs: Vec<String> = musa_arch::DesignSpace::all()
            .iter()
            .map(|c| c.label())
            .collect();
        ours.sort();
        theirs.sort();
        assert_eq!(ours, theirs);
    }

    #[test]
    fn expanded_space_crosses_100k_points() {
        let s = SearchSpace::new(SpaceId::Expanded);
        assert_eq!(s.len(), 3 * 4 * 3 * 6 * 4 * 24);
        assert_eq!(s.len(), 20_736);
        let ps = PointSpace::new(s, &AppId::ALL);
        assert_eq!(ps.len(), 103_680);
        assert!(ps.len() >= 100_000);
    }

    #[test]
    fn index_roundtrip_paper() {
        let s = SearchSpace::new(SpaceId::Paper);
        for i in 0..s.len() {
            let cfg = s.config(i);
            assert_eq!(s.index_of(&cfg), Some(i), "config {}", cfg.label());
            assert_eq!(s.from_digits(s.digits(i)), i);
        }
    }

    #[test]
    fn index_roundtrip_expanded_sampled() {
        let s = SearchSpace::new(SpaceId::Expanded);
        // Stride through the space rather than exhausting 20k configs.
        let mut i = 0;
        while i < s.len() {
            let cfg = s.config(i);
            assert_eq!(s.index_of(&cfg), Some(i));
            i += 37;
        }
    }

    #[test]
    fn configs_are_distinct() {
        let s = SearchSpace::new(SpaceId::Paper);
        let mut labels: Vec<String> = (0..s.len()).map(|i| s.config(i).label()).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), 864, "label collision would break memoization");
    }

    #[test]
    fn reference_config_in_both_spaces() {
        for id in [SpaceId::Paper, SpaceId::Expanded] {
            let s = SearchSpace::new(id);
            assert!(
                s.index_of(&NodeConfig::REFERENCE).is_some(),
                "REFERENCE must be inside {}",
                id.label()
            );
        }
    }

    #[test]
    fn point_space_normalises_app_order() {
        let s = SearchSpace::new(SpaceId::Paper);
        let a = PointSpace::new(s.clone(), &[AppId::ALL[2], AppId::ALL[0]]);
        let b = PointSpace::new(s, &[AppId::ALL[0], AppId::ALL[2], AppId::ALL[0]]);
        assert_eq!(a.apps, b.apps);
        assert_eq!(a.len(), 2 * 864);
    }

    #[test]
    fn point_digit_roundtrip() {
        let s = SearchSpace::new(SpaceId::Expanded);
        let ps = PointSpace::new(s, &AppId::ALL);
        let mut p = 0;
        while p < ps.len() {
            assert_eq!(ps.from_point_digits(ps.point_digits(p)), p);
            let (app, ci) = ps.split(p);
            let back = ps.encode(ps.apps.iter().position(|&a| a == app).unwrap(), ci);
            assert_eq!(back, p);
            p += 997;
        }
    }
}
