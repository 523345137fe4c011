//! Trace metadata and sampling information.

/// Sampling relationship between the burst trace and the detailed trace.
///
/// MUSA traces one representative region (usually the second iteration) of
/// one rank in detail; the timestamps of the coarse-grain trace are then
/// used to correct deviations and to extrapolate the detailed timing to the
/// whole execution (§II-A "Tracing").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SamplingInfo {
    /// Rank whose region was traced in detail.
    pub rank: u32,
    /// Region id (within the rank's burst trace) traced in detail.
    pub region_id: u32,
    /// Duration of that region in the burst (native, coarse-grain) trace,
    /// in nanoseconds — the correction reference.
    pub native_region_ns: f64,
}

musa_obs::json_struct!(SamplingInfo {
    rank,
    region_id,
    native_region_ns
});

/// Whole-trace metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceMeta {
    /// Application name (e.g. `"lulesh"`).
    pub app: String,
    /// Number of MPI ranks traced.
    pub ranks: u32,
    /// Number of timestep iterations in the traced execution.
    pub iterations: u32,
    /// RNG seed the generator used (traces are reproducible).
    pub seed: u64,
    /// Threads per rank during tracing (MUSA traces with a single thread
    /// per rank and injects runtime calls at simulation time).
    pub traced_threads: u32,
    /// Sampling information for the detailed trace, if one was taken.
    pub sampling: Option<SamplingInfo>,
}

musa_obs::json_struct!(TraceMeta {
    app,
    ranks,
    iterations,
    seed,
    traced_threads,
    sampling
});

impl TraceMeta {
    /// Construct metadata for a single-threaded trace, as MUSA records.
    pub fn new(app: impl Into<String>, ranks: u32, iterations: u32, seed: u64) -> Self {
        TraceMeta {
            app: app.into(),
            ranks,
            iterations,
            seed,
            traced_threads: 1,
            sampling: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_defaults_to_single_threaded() {
        let m = TraceMeta::new("hydro", 256, 10, 42);
        assert_eq!(m.traced_threads, 1);
        assert_eq!(m.ranks, 256);
        assert!(m.sampling.is_none());
    }

    #[test]
    fn json_roundtrip() {
        let mut m = TraceMeta::new("lulesh", 8, 5, 7);
        m.sampling = Some(SamplingInfo {
            rank: 0,
            region_id: 1,
            native_region_ns: 1.5e6,
        });
        let s = musa_obs::json::to_string(&m);
        let back: TraceMeta = musa_obs::json::from_str(&s).unwrap();
        assert_eq!(m, back);
        // A seed above 2^53 survives: integer tokens stay exact.
        m.seed = u64::MAX;
        m.sampling = None;
        let s = musa_obs::json::to_string(&m);
        assert!(s.ends_with(r#""sampling":null}"#), "{s}");
        assert_eq!(musa_obs::json::from_str::<TraceMeta>(&s).unwrap(), m);
    }
}
