//! Network model parameters.

/// Latency/bandwidth network parameters (Dimemas's model).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkParams {
    /// One-way network latency, nanoseconds.
    pub latency_ns: f64,
    /// Link bandwidth, bytes per nanosecond (== GB/s).
    pub bandwidth_gbs: f64,
    /// Per-message MPI software overhead on the CPU, nanoseconds.
    pub overhead_ns: f64,
    /// Messages at or below this size use the eager protocol (sender
    /// does not block on the receiver).
    pub eager_bytes: u64,
}

impl NetworkParams {
    /// MareNostrum 4-class interconnect (100 Gb/s Omni-Path): ≈1.4 µs
    /// MPI latency, 12.5 GB/s per link, 32 kB eager threshold.
    pub const fn marenostrum4() -> Self {
        NetworkParams {
            latency_ns: 1400.0,
            bandwidth_gbs: 12.5,
            overhead_ns: 400.0,
            eager_bytes: 32 * 1024,
        }
    }

    /// Transfer time for a message of `bytes`.
    pub fn transfer_ns(&self, bytes: u64) -> f64 {
        self.latency_ns + bytes as f64 / self.bandwidth_gbs
    }

    /// Cost of an `MPI_Allreduce` over `ranks` of `bytes` each:
    /// reduce + broadcast trees of depth ⌈log₂ P⌉.
    pub fn allreduce_ns(&self, ranks: u32, bytes: u64) -> f64 {
        2.0 * self.tree_depth(ranks) * (self.transfer_ns(bytes) + self.overhead_ns)
    }

    /// Cost of an `MPI_Barrier` over `ranks`.
    pub fn barrier_ns(&self, ranks: u32) -> f64 {
        2.0 * self.tree_depth(ranks) * (self.latency_ns + self.overhead_ns)
    }

    /// Cost of an `MPI_Bcast` over `ranks` of `bytes`.
    pub fn bcast_ns(&self, ranks: u32, bytes: u64) -> f64 {
        self.tree_depth(ranks) * (self.transfer_ns(bytes) + self.overhead_ns)
    }

    /// Cost of an `MPI_Alltoall` over `ranks` with `bytes` per pair.
    pub fn alltoall_ns(&self, ranks: u32, bytes: u64) -> f64 {
        self.latency_ns
            + (ranks.saturating_sub(1)) as f64 * (bytes as f64 / self.bandwidth_gbs)
            + self.overhead_ns
    }

    fn tree_depth(&self, ranks: u32) -> f64 {
        (ranks.max(1) as f64).log2().ceil().max(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_combines_latency_and_bandwidth() {
        let n = NetworkParams::marenostrum4();
        let t = n.transfer_ns(125_000); // 125 kB at 12.5 GB/s = 10 µs
        assert!((t - (1400.0 + 10_000.0)).abs() < 1e-9);
    }

    #[test]
    fn collectives_scale_logarithmically() {
        let n = NetworkParams::marenostrum4();
        let a16 = n.allreduce_ns(16, 8);
        let a256 = n.allreduce_ns(256, 8);
        assert!((a256 / a16 - 2.0).abs() < 1e-9); // log2: 4 vs 8
        assert!(n.barrier_ns(256) < n.allreduce_ns(256, 1 << 20));
    }

    #[test]
    fn alltoall_grows_linearly_with_ranks() {
        let n = NetworkParams::marenostrum4();
        // Payload term grows ∝ (P−1); latency/overhead dilute the ratio.
        assert!(n.alltoall_ns(256, 1024) > n.alltoall_ns(16, 1024) * 5.0);
    }
}
