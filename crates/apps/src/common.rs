//! Machinery shared by the application models: deterministic RNG helpers,
//! rank topologies, imbalance generation and trace assembly.

use std::num::NonZeroU32;

use musa_obs::rng::SplitMix64;
use musa_trace::{
    AppTrace, BurstEvent, CollectiveOp, ComputeRegion, KernelInvocation, MpiEvent, RankTrace,
    SamplingInfo, TraceMeta,
};

use crate::GenParams;

/// Deterministic per-(seed, rank, salt) RNG so each rank's trace is
/// reproducible independently of generation order.
pub fn rank_rng(seed: u64, rank: u32, salt: u64) -> SplitMix64 {
    SplitMix64::new(
        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ ((rank as u64) << 32)
            ^ salt.wrapping_mul(0xBF58_476D_1CE4_E5B9),
    )
}

/// Multiplicative load-imbalance factor for a rank, drawn uniformly from
/// `[1 - spread, 1 + spread]`. Models the domain-decomposition imbalance
/// that causes the paper's Fig. 4 barrier waits.
pub fn rank_imbalance(seed: u64, rank: u32, spread: f64) -> f64 {
    let mut rng = rank_rng(seed, rank, 0x1111);
    1.0 + spread * (rng.next_f64() * 2.0 - 1.0)
}

/// A 2-D periodic process grid over `ranks` ranks, as HPC stencil codes
/// use for domain decomposition.
#[derive(Debug, Clone, Copy)]
pub struct Grid2D {
    /// Columns.
    pub nx: u32,
    /// Rows.
    pub ny: u32,
}

impl Grid2D {
    /// Most-square factorisation of `ranks`.
    pub fn new(ranks: u32) -> Self {
        assert!(ranks > 0);
        let mut nx = (ranks as f64).sqrt() as u32;
        while nx > 1 && !ranks.is_multiple_of(nx) {
            nx -= 1;
        }
        Grid2D {
            nx,
            ny: ranks / nx.max(1),
        }
    }

    /// Coordinates of a rank.
    pub fn coords(&self, rank: u32) -> (u32, u32) {
        (rank % self.nx, rank / self.nx)
    }

    /// The four periodic neighbours (E, W, N, S) of a rank.
    pub fn neighbours(&self, rank: u32) -> [u32; 4] {
        let (x, y) = self.coords(rank);
        let e = (x + 1) % self.nx + y * self.nx;
        let w = (x + self.nx - 1) % self.nx + y * self.nx;
        let n = x + ((y + 1) % self.ny) * self.nx;
        let s = x + ((y + self.ny - 1) % self.ny) * self.nx;
        [e, w, n, s]
    }
}

/// Emit a 2-D halo exchange for `rank`: one `SendRecv` per neighbour of
/// `bytes` each, in E/W/N/S order (every rank does the same, so the
/// pattern matches globally).
pub fn halo_exchange_2d(grid: &Grid2D, rank: u32, bytes: u64) -> [MpiEvent; 4] {
    let recv = opposite_order(grid, rank);
    let send = grid.neighbours(rank);
    std::array::from_fn(|k| MpiEvent::SendRecv {
        send_peer: send[k],
        recv_peer: recv[k],
        bytes,
    })
}

/// Receive order matching [`halo_exchange_2d`]: when everyone sends East
/// they receive from the West, and so on.
fn opposite_order(grid: &Grid2D, rank: u32) -> [u32; 4] {
    let [e, w, n, s] = grid.neighbours(rank);
    [w, e, s, n]
}

/// Every rank's burst trace, built in place: `iteration(rank, iter,
/// events)` appends iteration `iter` of `rank`, exactly
/// `events_per_iteration` events, to a list sized once for them all.
pub fn build_ranks(
    params: &GenParams,
    events_per_iteration: usize,
    mut iteration: impl FnMut(u32, u32, &mut Vec<BurstEvent>),
) -> Vec<RankTrace> {
    (0..params.ranks)
        .map(|rank| {
            let mut events = Vec::with_capacity(params.iterations as usize * events_per_iteration);
            for iter in 0..params.iterations {
                iteration(rank, iter, &mut events);
            }
            RankTrace { rank, events }
        })
        .collect()
}

/// Assemble an [`AppTrace`] from the rank traces, attaching the
/// detailed trace and sampling metadata for the representative region.
pub fn assemble_trace(
    app: &'static str,
    params: &GenParams,
    ranks: Vec<RankTrace>,
    detail: musa_trace::DetailedTrace,
    sampled_region_id: u32,
) -> AppTrace {
    let native_region_ns = ranks
        .first()
        .and_then(|r| {
            r.regions()
                .find(|reg| reg.region_id == sampled_region_id)
                .map(|reg| reg.work.serial_time_ns())
        })
        .unwrap_or(0.0);

    let mut meta = TraceMeta::new(app, params.ranks, params.iterations, params.seed);
    meta.sampling = Some(SamplingInfo {
        rank: 0,
        region_id: sampled_region_id,
        native_region_ns,
    });

    AppTrace {
        meta,
        ranks,
        detail: Some(detail),
    }
}

/// Events [`iteration_comms`] makes.
pub const ITERATION_COMMS: usize = 5;

/// Standard per-iteration closing communication: a halo exchange followed
/// by a scalar all-reduce (timestep control), the idiom all five
/// applications share in some form.
pub fn iteration_comms(grid: &Grid2D, rank: u32, halo_bytes: u64) -> [BurstEvent; ITERATION_COMMS] {
    let [e, w, n, s] = halo_exchange_2d(grid, rank, halo_bytes).map(BurstEvent::Mpi);
    let reduce = MpiEvent::Collective(CollectiveOp::AllReduce { bytes: 8 });
    [e, w, n, s, BurstEvent::Mpi(reduce)]
}

/// A work item's call of its application's one kernel (id 0) for
/// `trips` iterations. Panics on zero: every generator's chunk runs at
/// least a thousand.
pub fn kernel_call(trips: u32) -> Option<KernelInvocation> {
    let trips = NonZeroU32::new(trips).expect("a kernel call runs at least one iteration");
    Some(KernelInvocation { kernel: 0, trips })
}

/// Build a serial region (initialisation, boundary fix-up, …).
pub fn serial_region(region_id: u32, duration_ns: f64) -> ComputeRegion {
    ComputeRegion {
        region_id,
        work: musa_trace::RegionWork::Serial {
            item: musa_trace::WorkItem::simple(duration_ns),
        },
        spawn_overhead_ns: 0.0,
        dispatch_overhead_ns: 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_factorisation_covers_all_ranks() {
        for ranks in [1u32, 4, 16, 64, 256, 6, 12] {
            let g = Grid2D::new(ranks);
            assert_eq!(g.nx * g.ny, ranks);
        }
        let g = Grid2D::new(256);
        assert_eq!((g.nx, g.ny), (16, 16));
    }

    #[test]
    fn neighbours_are_symmetric() {
        let g = Grid2D::new(16);
        for r in 0..16 {
            let [e, w, n, s] = g.neighbours(r);
            // My east neighbour's west neighbour is me, etc.
            assert_eq!(g.neighbours(e)[1], r);
            assert_eq!(g.neighbours(w)[0], r);
            assert_eq!(g.neighbours(n)[3], r);
            assert_eq!(g.neighbours(s)[2], r);
        }
    }

    #[test]
    fn halo_exchange_matches_globally() {
        // For every rank r sending to peer p in slot k, p must be
        // receiving from r in slot k.
        let g = Grid2D::new(16);
        let all: Vec<[MpiEvent; 4]> = (0..16).map(|r| halo_exchange_2d(&g, r, 64)).collect();
        for (r, events) in all.iter().enumerate() {
            for (k, ev) in events.iter().enumerate() {
                if let MpiEvent::SendRecv { send_peer, .. } = ev {
                    match all[*send_peer as usize][k] {
                        MpiEvent::SendRecv { recv_peer, .. } => {
                            assert_eq!(recv_peer, r as u32, "slot {k}");
                        }
                        _ => panic!("expected SendRecv"),
                    }
                }
            }
        }
    }

    #[test]
    fn imbalance_is_deterministic_and_bounded() {
        for rank in 0..32 {
            let a = rank_imbalance(7, rank, 0.2);
            let b = rank_imbalance(7, rank, 0.2);
            assert_eq!(a, b);
            assert!((0.8..=1.2).contains(&a));
        }
        // Different ranks get different factors (overwhelmingly likely).
        let distinct: std::collections::HashSet<u64> = (0..32)
            .map(|r| rank_imbalance(7, r, 0.2).to_bits())
            .collect();
        assert!(distinct.len() > 16);
    }

    #[test]
    fn rank_rng_differs_by_salt() {
        let a = rank_rng(1, 0, 1).next_u64();
        let b = rank_rng(1, 0, 2).next_u64();
        assert_ne!(a, b);
    }
}
