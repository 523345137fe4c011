//! Stand-in for the slice of `rand` 0.8 that `musa-apps` uses: a
//! SplitMix64 `SmallRng` with `seed_from_u64`, `gen::<f64>()` and
//! `gen::<u64>()`. The stream differs from the published `SmallRng`, so
//! traces generated under it are self-consistent but not comparable
//! with values recorded under the real crate.

pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

/// A type `Rng::gen` can produce.
pub trait Sample {
    fn sample(bits: u64) -> Self;
}

impl Sample for u64 {
    fn sample(bits: u64) -> u64 {
        bits
    }
}

impl Sample for f64 {
    /// Uniform in `[0, 1)` from the top 53 bits.
    fn sample(bits: u64) -> f64 {
        (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

pub trait Rng {
    fn next_u64(&mut self) -> u64;

    fn gen<T: Sample>(&mut self) -> T {
        T::sample(self.next_u64())
    }
}

pub mod rngs {
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct SmallRng {
        state: u64,
    }

    impl crate::SeedableRng for SmallRng {
        fn seed_from_u64(seed: u64) -> Self {
            SmallRng { state: seed }
        }
    }

    impl crate::Rng for SmallRng {
        fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }
}
