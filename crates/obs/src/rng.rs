//! The one seeded PRNG of the workspace: SplitMix64 (Steele, Lea &
//! Flood, OOPSLA'14), the generator Java's `SplittableRandom` and
//! xoshiro's seeding routine use. A bijective mixing function on a
//! 64-bit counter — trivially deterministic, fast, and it passes
//! BigCrush when used as here.
//!
//! Trace generation and search decisions must be byte-identical on
//! every platform and on every rerun of the same seed, so nothing here
//! reads the clock, the OS entropy pool or thread identity: the
//! sequence is a pure function of the seed.

/// SplitMix64 sequence generator.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A generator producing the sequence for `seed`. Distinct seeds
    /// give uncorrelated sequences (the mixer is bijective on the
    /// counter, and the golden-gamma increment is odd).
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// Next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        // Add the golden-ratio gamma, then mix.
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform f64 in `[0, 1)` (53 mantissa bits).
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Run a property on `cases` generators seeded `0..cases`. A failing
/// case prints its seed, so `property(&mut SplitMix64::new(seed))`
/// reproduces it.
pub fn check_cases(cases: u64, mut property: impl FnMut(&mut SplitMix64)) {
    struct NameSeedOnPanic(u64);
    impl Drop for NameSeedOnPanic {
        fn drop(&mut self) {
            if std::thread::panicking() {
                eprintln!("property failed for case seed {}", self.0);
            }
        }
    }
    for seed in 0..cases {
        let _guard = NameSeedOnPanic(seed);
        property(&mut SplitMix64::new(seed));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinned_sequence() {
        // The first values of SplitMix64 from seed 0 and seed 42 —
        // pinned so any accidental change to the mixer (which would
        // silently change every generated trace and break replay of
        // historical search journals) fails loudly.
        let mut r = SplitMix64::new(0);
        assert_eq!(r.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(r.next_u64(), 0x6E78_9E6A_A1B9_65F4);
        let mut r = SplitMix64::new(42);
        assert_eq!(r.next_u64(), 0xBDD7_3226_2FEB_6E95);
    }

    #[test]
    fn same_seed_same_sequence() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SplitMix64::new(9);
        for _ in 0..1000 {
            let v = r.next_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }
}
