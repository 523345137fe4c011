//! The seeded generator behind every search decision: the workspace's
//! [`SplitMix64`] plus the unbiased integer draws strategies need.
//!
//! The driver must make byte-identical decisions on every platform and
//! on every rerun of the same seed — the sequence is a pure function
//! of the seed.

use musa_obs::rng::SplitMix64;

/// [`SplitMix64`] with range, shuffle and choice draws.
#[derive(Debug, Clone)]
pub struct SearchRng(SplitMix64);

impl std::ops::Deref for SearchRng {
    type Target = SplitMix64;
    fn deref(&self) -> &SplitMix64 {
        &self.0
    }
}

impl std::ops::DerefMut for SearchRng {
    fn deref_mut(&mut self) -> &mut SplitMix64 {
        &mut self.0
    }
}

impl SearchRng {
    /// A generator producing the sequence for `seed`.
    pub fn new(seed: u64) -> SearchRng {
        SearchRng(SplitMix64::new(seed))
    }

    /// A uniform integer in `[0, n)`. `n = 0` returns 0.
    ///
    /// Debiased by rejection (Lemire's reject threshold simplified to
    /// plain modulo-rejection): draws whose value falls in the final
    /// partial block are re-drawn, so every residue is exactly equally
    /// likely — important because strategies use this for axis picks,
    /// where a bias would systematically favour low indices.
    pub fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            return 0;
        }
        let zone = u64::MAX - (u64::MAX % n);
        loop {
            let v = self.next_u64();
            if v < zone {
                return v % n;
            }
        }
    }

    /// Fisher–Yates shuffle driven by this generator.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }

    /// Pick one element of a non-empty slice.
    pub fn choose<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.below(xs.len() as u64) as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn below_is_in_range_and_covers() {
        let mut r = SearchRng::new(3);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            let v = r.below(7) as usize;
            assert!(v < 7);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues reachable");
        assert_eq!(r.below(0), 0);
        assert_eq!(r.below(1), 0);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = SearchRng::new(11);
        let mut xs: Vec<u32> = (0..50).collect();
        r.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(xs, (0..50).collect::<Vec<_>>(), "seed 11 permutes");
    }
}
