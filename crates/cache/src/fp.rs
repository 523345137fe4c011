//! Artifact fingerprints: deterministic 64-bit content addresses for
//! every intermediate artifact the pipeline can reuse.
//!
//! A key seals *exactly* the inputs that determine its artifact, and
//! nothing else:
//!
//! * a **trace** is determined by the application and the generation
//!   parameters (trace generation never sees a [`NodeConfig`]);
//! * a **detailed-sim window** is determined by the trace plus the node
//!   configuration — but *not* by whether the full-application replay
//!   will run afterwards, so both replay modes share one artifact;
//! * a **burst baseline** is determined by the trace's sampled region
//!   and the core count alone — 288 of the 864 design-space points
//!   share each one.
//!
//! Every builder destructures its input structs **exhaustively**:
//! adding a field to [`GenParams`] or [`NodeConfig`] breaks the
//! destructuring pattern at compile time, forcing the author to decide
//! whether the new field belongs in the fingerprint. A silently stale
//! cache is a compile error here, not a runtime bug.

use musa_apps::{AppId, GenParams};
use musa_arch::NodeConfig;

/// Version of the on-disk artifact formats (header layout *and* every
/// payload shape). Bump when [`crate::DetailArtifact`],
/// [`crate::BurstArtifact`] or the serialised trace change meaning;
/// old artifacts then stop matching and are recomputed (and reclaimed
/// by `dse cache gc`) instead of being misread. Schema 2: detail
/// windows from the OoO window's stop rule, not its fixed
/// 216-iteration walk.
pub const CACHE_SCHEMA_VERSION: u32 = 2;

/// 64-bit FNV-1a — deterministic across runs, processes and platforms
/// (unlike `DefaultHasher`, which is not guaranteed stable), so every
/// writer sharing an artifact directory agrees on every key. This is
/// the same construction `musa-store` fingerprints rows with; it lives
/// here because the cache sits below the store in the crate graph.
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(PRIME);
    }
    hash
}

/// The content address of one cached artifact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ArtifactKey(pub u64);

impl ArtifactKey {
    /// Fixed-width hex form used in file names and headers.
    pub fn to_hex(self) -> String {
        format!("{:016x}", self.0)
    }

    /// Parse the hex form back.
    pub fn from_hex(s: &str) -> Option<ArtifactKey> {
        if s.len() != 16 {
            return None;
        }
        u64::from_str_radix(s, 16).ok().map(ArtifactKey)
    }
}

impl std::fmt::Display for ArtifactKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.to_hex())
    }
}

/// Key of the generated two-level trace of `(app, gen)`.
pub fn trace_key(app: AppId, gen: &GenParams) -> ArtifactKey {
    // Exhaustive: a new GenParams field fails to compile here until it
    // is added to (or deliberately excluded from) the canonical string.
    let GenParams {
        ranks,
        iterations,
        seed,
    } = *gen;
    let canonical = format!(
        "musa-cache:v{CACHE_SCHEMA_VERSION}|trace|app={}|ranks={ranks}|iters={iterations}|seed={seed}",
        app.label(),
    );
    ArtifactKey(fnv1a_64(canonical.as_bytes()))
}

/// Key of the detailed-simulation window of `(trace, config)`.
///
/// The detailed simulator reads every [`NodeConfig`] field (core count
/// and class, cache geometry, SIMD width, frequency, memory subsystem)
/// — but it never sees the replay mode, so a detail artifact is shared
/// between `full_replay` on and off.
pub fn detail_key(trace: ArtifactKey, config: &NodeConfig) -> ArtifactKey {
    let NodeConfig {
        cores,
        core_class,
        cache,
        vector,
        freq,
        mem,
    } = *config;
    let canonical = format!(
        "musa-cache:v{CACHE_SCHEMA_VERSION}|detail|trace={trace}|cores={cores}|class={core_class}|cache={cache}|vector={vector}|freq={freq}|mem={mem}",
    );
    ArtifactKey(fnv1a_64(canonical.as_bytes()))
}

/// Key of the burst-mode baseline makespan of the trace's sampled
/// region at `cores` — the only two inputs `simulate_region_burst`
/// reads (the region is a deterministic function of the trace).
pub fn burst_key(trace: ArtifactKey, cores: u32) -> ArtifactKey {
    let canonical = format!("musa-cache:v{CACHE_SCHEMA_VERSION}|burst|trace={trace}|cores={cores}");
    ArtifactKey(fnv1a_64(canonical.as_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use musa_arch::{
        CacheConfig, CoreClass, CoresPerNode, DesignSpace, Frequency, MemConfig, VectorWidth,
    };

    #[test]
    fn hex_roundtrip() {
        let k = trace_key(AppId::Hydro, &GenParams::tiny());
        assert_eq!(ArtifactKey::from_hex(&k.to_hex()), Some(k));
        assert_eq!(ArtifactKey::from_hex("nope"), None);
        assert_eq!(ArtifactKey::from_hex(""), None);
    }

    #[test]
    fn every_gen_params_field_changes_the_trace_key() {
        let base = GenParams::tiny();
        let k = |g: &GenParams| trace_key(AppId::Hydro, g);
        let variants = [
            k(&base),
            k(&GenParams {
                ranks: base.ranks + 1,
                ..base
            }),
            k(&GenParams {
                iterations: base.iterations + 1,
                ..base
            }),
            k(&GenParams {
                seed: base.seed + 1,
                ..base
            }),
            trace_key(AppId::Spmz, &base),
        ];
        let set: std::collections::HashSet<_> = variants.iter().collect();
        assert_eq!(set.len(), variants.len());
    }

    #[test]
    fn every_node_config_field_changes_the_detail_key() {
        let t = trace_key(AppId::Hydro, &GenParams::tiny());
        let base = NodeConfig::REFERENCE;
        let keys = [
            detail_key(t, &base),
            detail_key(t, &base.with_cores(CoresPerNode::C64)),
            detail_key(t, &base.with_core_class(CoreClass::LowEnd)),
            detail_key(t, &base.with_cache(CacheConfig::C96M1M)),
            detail_key(t, &base.with_vector(VectorWidth::V512)),
            detail_key(t, &base.with_freq(Frequency::F3_0)),
            detail_key(t, &base.with_mem(MemConfig::DDR4_8CH)),
        ];
        let set: std::collections::HashSet<_> = keys.iter().collect();
        assert_eq!(set.len(), keys.len());
        // A different trace gives a disjoint key for the same config.
        let t2 = trace_key(AppId::Spmz, &GenParams::tiny());
        assert_ne!(detail_key(t, &base), detail_key(t2, &base));
    }

    #[test]
    fn burst_key_depends_only_on_trace_and_cores() {
        let t = trace_key(AppId::Lulesh, &GenParams::tiny());
        assert_eq!(burst_key(t, 32), burst_key(t, 32));
        assert_ne!(burst_key(t, 32), burst_key(t, 64));
        let t2 = trace_key(AppId::Lulesh, &GenParams::small());
        assert_ne!(burst_key(t, 32), burst_key(t2, 32));
    }

    #[test]
    fn all_design_space_detail_keys_are_distinct() {
        let t = trace_key(AppId::Btmz, &GenParams::small());
        let mut set = std::collections::HashSet::new();
        for cfg in DesignSpace::iter() {
            set.insert(detail_key(t, &cfg));
        }
        assert_eq!(set.len(), DesignSpace::SIZE);
    }

    #[test]
    fn kinds_never_collide() {
        // The kind tag is part of the canonical string, so a trace key
        // can never be confused with a detail or burst key even if the
        // raw inputs hash alike.
        let t = trace_key(AppId::Hydro, &GenParams::tiny());
        assert_ne!(t, detail_key(t, &NodeConfig::REFERENCE));
        assert_ne!(t, burst_key(t, 32));
        assert_ne!(detail_key(t, &NodeConfig::REFERENCE), burst_key(t, 32));
    }
}
