//! Lockstep replay of the per-rank burst traces over the network model.

use musa_trace::{AppTrace, BurstEvent, CollectiveOp, MpiEvent};

use crate::params::NetworkParams;
use crate::timer::ComputeTimer;

/// What a rank was doing during a span (for timelines and accounting).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RankPhase {
    /// Executing a compute region.
    Compute,
    /// Blocked waiting for a peer or a collective to assemble —
    /// the load-imbalance cost the paper highlights in Fig. 4.
    Wait,
    /// Transferring data (point-to-point payload or collective).
    Transfer,
}

/// Per-rank MPI time decomposition.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MpiBreakdown {
    /// Time blocked on peers / collective assembly.
    pub wait_ns: f64,
    /// Time in actual message transfer.
    pub transfer_ns: f64,
}

impl MpiBreakdown {
    /// Total MPI time.
    pub fn total_ns(&self) -> f64 {
        self.wait_ns + self.transfer_ns
    }
}

/// One span of a rank's replay timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Phase during the span.
    pub phase: RankPhase,
    /// Start, ns.
    pub start_ns: f64,
    /// End, ns.
    pub end_ns: f64,
}

/// Result of replaying an application trace.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayResult {
    /// End-to-end parallel runtime (max over ranks), ns.
    pub total_ns: f64,
    /// Per-rank compute time.
    pub compute_ns: Vec<f64>,
    /// Per-rank MPI decomposition.
    pub mpi: Vec<MpiBreakdown>,
    /// Per-rank phase timelines (Fig. 4 source data).
    pub timelines: Vec<Vec<Span>>,
}

impl ReplayResult {
    /// Mean fraction of time spent computing.
    pub fn compute_fraction(&self) -> f64 {
        if self.total_ns <= 0.0 {
            return 1.0;
        }
        let mean: f64 = self.compute_ns.iter().sum::<f64>() / self.compute_ns.len().max(1) as f64;
        mean / self.total_ns
    }

    /// Mean MPI fraction (wait + transfer).
    pub fn mpi_fraction(&self) -> f64 {
        if self.total_ns <= 0.0 {
            return 0.0;
        }
        let mean: f64 =
            self.mpi.iter().map(|m| m.total_ns()).sum::<f64>() / self.mpi.len().max(1) as f64;
        mean / self.total_ns
    }

    /// Wait share of the MPI time — the paper finds "message passing
    /// represents a minimal part of the total MPI overheads" with load
    /// imbalance at barriers dominating.
    pub fn wait_share_of_mpi(&self) -> f64 {
        let wait: f64 = self.mpi.iter().map(|m| m.wait_ns).sum();
        let total: f64 = self.mpi.iter().map(|m| m.total_ns()).sum();
        if total <= 0.0 {
            0.0
        } else {
            wait / total
        }
    }
}

/// Replay an application trace.
///
/// The trace must be SPMD-shaped: every rank has the same number of
/// events with matching kinds per slot (the `musa-apps` generators
/// guarantee this). Panics otherwise.
pub fn replay(trace: &AppTrace, net: &NetworkParams, timer: &mut dyn ComputeTimer) -> ReplayResult {
    let _replay = musa_obs::span_app(musa_obs::phase::NET_REPLAY, &trace.meta.app);
    let ranks = trace.ranks.len();
    assert!(ranks > 0, "empty trace");
    let n_events = trace.ranks[0].events.len();
    for r in &trace.ranks {
        assert_eq!(
            r.events.len(),
            n_events,
            "non-SPMD trace: rank {} has a different event count",
            r.rank
        );
    }

    musa_obs::counter_add("net.replays", 1);
    musa_obs::counter_add("net.events_replayed", (ranks * n_events) as u64);

    let mut clock = vec![0.0_f64; ranks];
    let mut compute = vec![0.0_f64; ranks];
    let mut mpi = vec![MpiBreakdown::default(); ranks];
    let mut timelines: Vec<Vec<Span>> = vec![Vec::with_capacity(n_events * 2); ranks];

    let push_span = |timelines: &mut Vec<Vec<Span>>, r: usize, phase, start: f64, end: f64| {
        if end > start {
            timelines[r].push(Span {
                phase,
                start_ns: start,
                end_ns: end,
            });
        }
    };

    for slot in 0..n_events {
        // All ranks hold the same event kind in this slot.
        match &trace.ranks[0].events[slot] {
            BurstEvent::Compute(_) => {
                for (r, rt) in trace.ranks.iter().enumerate() {
                    let BurstEvent::Compute(region) = &rt.events[slot] else {
                        panic!("non-SPMD trace at slot {slot}");
                    };
                    let t = timer.region_time_ns(rt.rank, region);
                    push_span(
                        &mut timelines,
                        r,
                        RankPhase::Compute,
                        clock[r],
                        clock[r] + t,
                    );
                    clock[r] += t;
                    compute[r] += t;
                }
            }
            BurstEvent::Mpi(MpiEvent::Collective(op)) => {
                let assemble = clock.iter().copied().fold(0.0_f64, f64::max);
                let cost = match op {
                    CollectiveOp::Barrier => net.barrier_ns(ranks as u32),
                    CollectiveOp::AllReduce { bytes } => net.allreduce_ns(ranks as u32, *bytes),
                    CollectiveOp::Bcast { bytes } => net.bcast_ns(ranks as u32, *bytes),
                    CollectiveOp::AllToAll { bytes } => net.alltoall_ns(ranks as u32, *bytes),
                };
                let done = assemble + cost;
                for r in 0..ranks {
                    push_span(&mut timelines, r, RankPhase::Wait, clock[r], assemble);
                    push_span(&mut timelines, r, RankPhase::Transfer, assemble, done);
                    mpi[r].wait_ns += assemble - clock[r];
                    mpi[r].transfer_ns += cost;
                    clock[r] = done;
                }
            }
            BurstEvent::Mpi(MpiEvent::SendRecv { .. }) => {
                // Synchronous pairwise exchange: both sides must arrive;
                // then the payload crosses the network.
                let old = clock.clone();
                for (r, rt) in trace.ranks.iter().enumerate() {
                    let BurstEvent::Mpi(MpiEvent::SendRecv {
                        send_peer,
                        recv_peer,
                        bytes,
                    }) = rt.events[slot]
                    else {
                        panic!("non-SPMD trace at slot {slot}");
                    };
                    let ready = old[r]
                        .max(old[send_peer as usize])
                        .max(old[recv_peer as usize]);
                    let cost = net.transfer_ns(bytes) + net.overhead_ns;
                    push_span(&mut timelines, r, RankPhase::Wait, old[r], ready);
                    push_span(&mut timelines, r, RankPhase::Transfer, ready, ready + cost);
                    mpi[r].wait_ns += ready - old[r];
                    mpi[r].transfer_ns += cost;
                    clock[r] = ready + cost;
                }
            }
            BurstEvent::Mpi(MpiEvent::Send { .. }) | BurstEvent::Mpi(MpiEvent::Recv { .. }) => {
                // Eager/rendezvous point-to-point. Senders deposit, then
                // receivers match within the same slot.
                let old = clock.clone();
                for (r, rt) in trace.ranks.iter().enumerate() {
                    match rt.events[slot] {
                        BurstEvent::Mpi(MpiEvent::Send { peer, bytes }) => {
                            let cost = net.overhead_ns;
                            let block = if bytes > net.eager_bytes {
                                // Rendezvous: wait for the receiver.
                                old[peer as usize].max(old[r]) - old[r]
                            } else {
                                0.0
                            };
                            mpi[r].wait_ns += block;
                            mpi[r].transfer_ns += cost;
                            push_span(&mut timelines, r, RankPhase::Wait, old[r], old[r] + block);
                            clock[r] = old[r] + block + cost;
                        }
                        BurstEvent::Mpi(MpiEvent::Recv { peer, bytes }) => {
                            let arrival =
                                old[peer as usize] + net.transfer_ns(bytes) + net.overhead_ns;
                            let ready = old[r].max(arrival);
                            mpi[r].wait_ns += ready - old[r];
                            mpi[r].transfer_ns += net.overhead_ns;
                            push_span(&mut timelines, r, RankPhase::Wait, old[r], ready);
                            clock[r] = ready + net.overhead_ns;
                        }
                        _ => panic!("non-SPMD trace at slot {slot}"),
                    }
                }
            }
        }
    }

    ReplayResult {
        total_ns: clock.iter().copied().fold(0.0, f64::max),
        compute_ns: compute,
        mpi,
        timelines,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timer::BurstTimer;
    use musa_apps::{generate, AppId, GenParams};

    fn net() -> NetworkParams {
        NetworkParams::marenostrum4()
    }

    #[test]
    fn replay_of_every_app_is_consistent() {
        for app in AppId::ALL {
            let trace = generate(app, &GenParams::tiny());
            let res = replay(&trace, &net(), &mut BurstTimer { cores: 4 });
            assert!(res.total_ns > 0.0, "{app}");
            // Compute + MPI accounts for each rank's full clock.
            for r in 0..trace.ranks.len() {
                let acc = res.compute_ns[r] + res.mpi[r].total_ns();
                assert!(
                    (acc - res.total_ns).abs() / res.total_ns < 1e-6,
                    "{app}: rank {r} accounting {acc} vs {}",
                    res.total_ns
                );
            }
            // Timeline spans are ordered and non-overlapping.
            for tl in &res.timelines {
                for w in tl.windows(2) {
                    assert!(w[1].start_ns >= w[0].end_ns - 1e-6);
                }
            }
        }
    }

    #[test]
    fn more_cores_reduce_total_time() {
        let trace = generate(AppId::Hydro, &GenParams::tiny());
        let t1 = replay(&trace, &net(), &mut BurstTimer { cores: 1 }).total_ns;
        let t32 = replay(&trace, &net(), &mut BurstTimer { cores: 32 }).total_ns;
        assert!(t32 < t1 * 0.1, "hydro full-app speedup: {}", t1 / t32);
    }

    #[test]
    fn parallel_efficiency_drops_with_mpi() {
        // §V-A: with MPI included, average efficiency at 32 cores is
        // well below the compute-only number.
        let trace = generate(AppId::Lulesh, &GenParams::tiny());
        let t1 = replay(&trace, &net(), &mut BurstTimer { cores: 1 }).total_ns;
        let t32 = replay(&trace, &net(), &mut BurstTimer { cores: 32 }).total_ns;
        let eff = t1 / t32 / 32.0;
        assert!(eff < 0.8, "lulesh full-app efficiency {eff}");
    }

    #[test]
    fn lulesh_wait_dominates_mpi_time() {
        // Fig. 4: barrier waits from rank imbalance dominate; actual
        // message passing is minimal.
        let trace = generate(AppId::Lulesh, &GenParams::small());
        let res = replay(&trace, &net(), &mut BurstTimer { cores: 32 });
        let share = res.wait_share_of_mpi();
        assert!(share > 0.5, "wait share {share}");
    }

    #[test]
    fn imbalanced_compute_creates_waits() {
        let trace = generate(AppId::Lulesh, &GenParams::tiny());
        let res = replay(&trace, &net(), &mut BurstTimer { cores: 4 });
        let total_wait: f64 = res.mpi.iter().map(|m| m.wait_ns).sum();
        assert!(total_wait > 0.0);
        // The slowest rank waits least.
        let slowest = res
            .compute_ns
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        let min_wait = res.mpi.iter().map(|m| m.wait_ns).fold(f64::MAX, f64::min);
        assert!(
            res.mpi[slowest].wait_ns <= min_wait * 1.5 + 1e4,
            "slowest rank should wait little"
        );
    }

    #[test]
    fn fractions_sum_to_one() {
        let trace = generate(AppId::Btmz, &GenParams::tiny());
        let res = replay(&trace, &net(), &mut BurstTimer { cores: 8 });
        let s = res.compute_fraction() + res.mpi_fraction();
        assert!((s - 1.0).abs() < 1e-6, "{s}");
    }
}
