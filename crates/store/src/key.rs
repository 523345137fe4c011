//! Content-addressed point keys.
//!
//! Every campaign row is identified by a deterministic 64-bit
//! fingerprint of *everything that defines the simulation*: the
//! application, the full [`NodeConfig`] label, the trace-generation
//! parameters, whether the full-application replay ran, and the store
//! schema version. Two rows with equal keys are the same simulation;
//! rows produced under different `GenParams` (or an older schema) get
//! different keys and can never be served for each other — the
//! stale-cache class of bug is structurally impossible.

use musa_apps::{AppId, GenParams};
use musa_arch::NodeConfig;
use musa_core::SweepOptions;

/// Version of the on-disk row schema. Bump when [`crate::StoreRow`] (or
/// anything inside `ConfigResult`) changes shape; old rows then stop
/// matching and are re-simulated instead of being misparsed.
pub const SCHEMA_VERSION: u32 = 1;

/// 64-bit FNV-1a — deterministic across runs, processes and platforms
/// (unlike `DefaultHasher`, which is not guaranteed stable), so shard
/// partitions and resume runs agree on every key. One implementation
/// serves the whole pipeline: `musa-fault`'s, whose failpoint decisions
/// hash the same way.
pub use musa_fault::fnv1a_64;

/// The fingerprint of one campaign point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PointKey(pub u64);

impl PointKey {
    /// Fingerprint from the raw row coordinates (the app label as it
    /// appears in a `ConfigResult`).
    pub fn of(app: &str, config: &NodeConfig, gen: &GenParams, full_replay: bool) -> PointKey {
        // Exhaustive destructuring: adding a field to `GenParams` fails
        // to compile here until its key relevance is decided — a new
        // generation knob silently missing from the fingerprint would
        // serve stale rows for new simulations.
        let GenParams {
            ranks,
            iterations,
            seed,
        } = *gen;
        let canonical = format!(
            "musa-store:v{SCHEMA_VERSION}|app={app}|cfg={}|ranks={ranks}|iters={iterations}|seed={seed}|replay={full_replay}",
            config.label(),
        );
        PointKey(fnv1a_64(canonical.as_bytes()))
    }

    /// Fingerprint for a (application, configuration) point under the
    /// given sweep options.
    pub fn for_point(app: AppId, config: &NodeConfig, opts: &SweepOptions) -> PointKey {
        PointKey::of(app.label(), config, &opts.gen, opts.full_replay)
    }

    /// Fixed-width hex form used in the JSONL rows.
    pub fn to_hex(self) -> String {
        format!("{:016x}", self.0)
    }

    /// Parse the hex form back.
    pub fn from_hex(s: &str) -> Option<PointKey> {
        if s.len() != 16 {
            return None;
        }
        u64::from_str_radix(s, 16).ok().map(PointKey)
    }
}

impl std::fmt::Display for PointKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.to_hex())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use musa_arch::{DesignSpace, VectorWidth};

    #[test]
    fn hex_roundtrip() {
        let k = PointKey::of("hydro", &NodeConfig::REFERENCE, &GenParams::tiny(), true);
        assert_eq!(PointKey::from_hex(&k.to_hex()), Some(k));
        assert_eq!(PointKey::from_hex("xyz"), None);
        assert_eq!(PointKey::from_hex(""), None);
    }

    #[test]
    fn every_coordinate_changes_the_key() {
        let base = PointKey::of("hydro", &NodeConfig::REFERENCE, &GenParams::tiny(), true);
        let other_app = PointKey::of("spmz", &NodeConfig::REFERENCE, &GenParams::tiny(), true);
        let other_cfg = PointKey::of(
            "hydro",
            &NodeConfig::REFERENCE.with_vector(VectorWidth::V512),
            &GenParams::tiny(),
            true,
        );
        let other_gen = PointKey::of(
            "hydro",
            &NodeConfig::REFERENCE,
            &GenParams {
                seed: 1,
                ..GenParams::tiny()
            },
            true,
        );
        let other_replay = PointKey::of("hydro", &NodeConfig::REFERENCE, &GenParams::tiny(), false);
        let keys = [base, other_app, other_cfg, other_gen, other_replay];
        let set: std::collections::HashSet<_> = keys.iter().collect();
        assert_eq!(set.len(), keys.len());
    }

    #[test]
    fn every_gen_params_field_changes_the_key() {
        // Mirrors the exhaustive destructuring in `PointKey::of`: one
        // variant per `GenParams` field, all keys distinct. When a new
        // field is added, `of` stops compiling and this list grows.
        let base = GenParams::tiny();
        let variants = [
            base,
            GenParams {
                ranks: base.ranks + 1,
                ..base
            },
            GenParams {
                iterations: base.iterations + 1,
                ..base
            },
            GenParams {
                seed: base.seed + 1,
                ..base
            },
        ];
        let keys: std::collections::HashSet<_> = variants
            .iter()
            .map(|g| PointKey::of("hydro", &NodeConfig::REFERENCE, g, true))
            .collect();
        assert_eq!(keys.len(), variants.len());
    }

    #[test]
    fn all_864_points_have_distinct_keys() {
        let gen = GenParams::small();
        let mut set = std::collections::HashSet::new();
        for app in AppId::ALL {
            for cfg in DesignSpace::iter() {
                set.insert(PointKey::of(app.label(), &cfg, &gen, true));
            }
        }
        assert_eq!(set.len(), 5 * DesignSpace::SIZE);
    }
}
