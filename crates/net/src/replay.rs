//! Lockstep replay of the per-rank burst traces over the network model.

use musa_trace::{AppTrace, BurstEvent, CollectiveOp, ComputeRegion, MpiEvent};

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

/// Replay an application trace, timing every compute event with `timer`.
///
/// The trace must be SPMD-shaped: every rank has the same number of
/// events with matching kinds per slot (the `musa-apps` generators
/// guarantee this). Panics otherwise.
pub fn replay(trace: &AppTrace, net: &NetworkParams, timer: &mut dyn ComputeTimer) -> ReplayResult {
    replay_accounted(trace, net, timer, |_, _, _, _| {})
}

/// [`replay`], plus what each rank was doing when: one list of
/// non-empty spans per rank, in time order (Fig. 4's source data).
pub fn replay_with_timelines(
    trace: &AppTrace,
    net: &NetworkParams,
    timer: &mut dyn ComputeTimer,
) -> (ReplayResult, Vec<Vec<Span>>) {
    let mut timelines = vec![Vec::new(); trace.ranks.len()];
    let result = replay_accounted(trace, net, timer, |r, phase, start_ns, end_ns| {
        if end_ns > start_ns {
            timelines[r].push(Span {
                phase,
                start_ns,
                end_ns,
            });
        }
    });
    (result, timelines)
}

/// [`replay`], with `span(rank index, phase, start, end)` hearing of
/// every interval of every rank's clock, empty ones included.
fn replay_accounted(
    trace: &AppTrace,
    net: &NetworkParams,
    timer: &mut dyn ComputeTimer,
    mut span: impl FnMut(usize, RankPhase, f64, f64),
) -> ReplayResult {
    let plan = SlotPlan::compile(trace, |_| {});
    let mut compute_ns = vec![0.0_f64; plan.ranks];
    let mut mpi = vec![MpiBreakdown::default(); plan.ranks];
    let time = |_, r: usize, slot: usize| match &trace.ranks[r].events[slot] {
        BurstEvent::Compute(region) => timer.region_time_ns(trace.ranks[r].rank, region),
        BurstEvent::Mpi(_) => unreachable!("the plan computes in this slot"),
    };
    let total_ns = replay_events(
        &plan,
        &trace.meta.app,
        net,
        time,
        |r, phase, start, end, ns| {
            span(r, phase, start, end);
            match phase {
                RankPhase::Compute => compute_ns[r] += ns,
                RankPhase::Wait => mpi[r].wait_ns += ns,
                RankPhase::Transfer => mpi[r].transfer_ns += ns,
            }
        },
    );
    ReplayResult {
        total_ns,
        compute_ns,
        mpi,
    }
}

/// What every rank does in one slot of an SPMD trace.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Step {
    Compute,
    Collective(CollectiveOp),
    /// `SendRecv`: the slot's `ranks` messages, in rank order, are the
    /// next in the plan.
    Exchange,
    /// `Send` or `Recv`, likewise.
    PointToPoint,
}

impl Step {
    fn of(event: &BurstEvent) -> Step {
        match event {
            BurstEvent::Compute(_) => Step::Compute,
            BurstEvent::Mpi(MpiEvent::Collective(op)) => Step::Collective(*op),
            BurstEvent::Mpi(MpiEvent::SendRecv { .. }) => Step::Exchange,
            BurstEvent::Mpi(_) => Step::PointToPoint,
        }
    }
}

/// A trace compiled for the replay loop, which reads it in order instead
/// of each rank's event list: one step per slot, and the messages of the
/// point-to-point slots, slot-major.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SlotPlan {
    pub(crate) ranks: usize,
    steps: Vec<Step>,
    messages: Vec<MpiEvent>,
}

impl SlotPlan {
    /// Compile `trace`, handing every compute region to `compute` in the
    /// order the loop asks for their durations: slot by slot and, within
    /// a slot, rank by rank. Panics on an empty or non-SPMD trace.
    pub(crate) fn compile(trace: &AppTrace, mut compute: impl FnMut(&ComputeRegion)) -> SlotPlan {
        assert!(!trace.ranks.is_empty(), "empty trace");
        let first = &trace.ranks[0].events;
        let steps: Vec<Step> = first.iter().map(Step::of).collect();
        let exchanges = steps
            .iter()
            .filter(|s| matches!(s, Step::Exchange | Step::PointToPoint));
        let mut messages = Vec::with_capacity(exchanges.count() * trace.ranks.len());
        for rt in &trace.ranks {
            assert_eq!(
                rt.events.len(),
                first.len(),
                "non-SPMD trace: rank {} has a different event count",
                rt.rank
            );
        }
        for (slot, step) in steps.iter().enumerate() {
            for rt in &trace.ranks {
                let event = &rt.events[slot];
                let kind = std::mem::discriminant(&Step::of(event));
                assert!(
                    kind == std::mem::discriminant(step),
                    "non-SPMD trace at slot {slot}"
                );
                match event {
                    BurstEvent::Compute(region) => compute(region),
                    BurstEvent::Mpi(MpiEvent::Collective(_)) => {}
                    BurstEvent::Mpi(message) => messages.push(*message),
                }
            }
        }
        SlotPlan {
            ranks: trace.ranks.len(),
            steps,
            messages,
        }
    }

    /// Whether `trace` has the rank and slot counts of the trace this plan
    /// was compiled from.
    pub(crate) fn fits(&self, trace: &AppTrace) -> bool {
        trace.ranks.len() == self.ranks && trace.ranks[0].events.len() == self.steps.len()
    }
}

/// The one replay loop: additions and `max`es over durations it is
/// given, along `plan`, returning the end-to-end runtime (max over
/// ranks). `compute_ns(i, rank index, slot)` is the duration of the
/// compute event that rank holds in that slot, `i` counting compute
/// events slot by slot and, within a slot, rank by rank; `hear(rank
/// index, phase, start, end, ns)` hears of every interval of every
/// rank's clock, empty ones included, `ns` being what it adds to that
/// phase's account. With a no-op `hear` the loop monomorphises to the
/// clocks alone.
pub(crate) fn replay_events(
    plan: &SlotPlan,
    app: &str,
    net: &NetworkParams,
    mut compute_ns: impl FnMut(usize, usize, usize) -> f64,
    mut hear: impl FnMut(usize, RankPhase, f64, f64, f64),
) -> f64 {
    let _replay = musa_obs::span_app(musa_obs::phase::NET_REPLAY, app);
    let ranks = plan.ranks;
    musa_obs::counter_add("net.replays", 1);
    musa_obs::counter_add("net.events_replayed", (ranks * plan.steps.len()) as u64);

    let mut clock = vec![0.0_f64; ranks];
    // The clocks as a point-to-point slot found them.
    let mut old = vec![0.0_f64; ranks];
    let mut computed = 0;
    let mut messages = plan.messages.chunks_exact(ranks);

    for (slot, step) in plan.steps.iter().enumerate() {
        match step {
            Step::Compute => {
                for (r, clock) in clock.iter_mut().enumerate() {
                    let t = compute_ns(computed + r, r, slot);
                    hear(r, RankPhase::Compute, *clock, *clock + t, t);
                    *clock += t;
                }
                computed += ranks;
            }
            Step::Collective(op) => {
                let assemble = clock.iter().copied().fold(0.0_f64, f64::max);
                let cost = match *op {
                    CollectiveOp::Barrier => net.barrier_ns(ranks as u32),
                    CollectiveOp::AllReduce { bytes } => net.allreduce_ns(ranks as u32, bytes),
                    CollectiveOp::Bcast { bytes } => net.bcast_ns(ranks as u32, bytes),
                    CollectiveOp::AllToAll { bytes } => net.alltoall_ns(ranks as u32, bytes),
                };
                let done = assemble + cost;
                for (r, clock) in clock.iter_mut().enumerate() {
                    hear(r, RankPhase::Wait, *clock, assemble, assemble - *clock);
                    hear(r, RankPhase::Transfer, assemble, done, cost);
                    *clock = done;
                }
            }
            Step::Exchange | Step::PointToPoint => {
                old.copy_from_slice(&clock);
                let slot_messages = messages.next().expect("one message per rank");
                for (r, message) in slot_messages.iter().enumerate() {
                    // When the rank is ready to transfer, how long it
                    // waited for that, and what the transfer costs it.
                    let (ready, waited, cost) = match *message {
                        // Synchronous pairwise exchange: both sides must
                        // arrive; then the payload crosses the network.
                        MpiEvent::SendRecv {
                            send_peer,
                            recv_peer,
                            bytes,
                        } => {
                            let ready = old[r]
                                .max(old[send_peer as usize])
                                .max(old[recv_peer as usize]);
                            let cost = net.transfer_ns(bytes) + net.overhead_ns;
                            (ready, ready - old[r], cost)
                        }
                        // Eager/rendezvous point-to-point. Senders deposit,
                        // then receivers match within the same slot.
                        MpiEvent::Send { peer, bytes } => {
                            let block = if bytes > net.eager_bytes {
                                // Rendezvous: wait for the receiver.
                                old[peer as usize].max(old[r]) - old[r]
                            } else {
                                0.0
                            };
                            (old[r] + block, block, net.overhead_ns)
                        }
                        MpiEvent::Recv { peer, bytes } => {
                            let arrival =
                                old[peer as usize] + net.transfer_ns(bytes) + net.overhead_ns;
                            let ready = old[r].max(arrival);
                            (ready, ready - old[r], net.overhead_ns)
                        }
                        MpiEvent::Collective(_) => {
                            unreachable!("a plan holds no collective message")
                        }
                    };
                    hear(r, RankPhase::Wait, old[r], ready, waited);
                    clock[r] = ready + cost;
                    hear(r, RankPhase::Transfer, ready, clock[r], cost);
                }
            }
        }
    }

    clock.iter().copied().fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timer::{BurstTimer, BurstTimes, FixedRatioTimer};
    use musa_apps::{generate, AppId, GenParams};
    use musa_arch::CoresPerNode;
    use musa_trace::{RankTrace, RegionWork, TraceMeta, WorkItem};

    fn net() -> NetworkParams {
        NetworkParams::marenostrum4()
    }

    /// The replay as it stood before `replay_events`: it schedules and
    /// records spans unconditionally. Kept as the oracle.
    fn replay_reference(
        trace: &AppTrace,
        net: &NetworkParams,
        timer: &mut dyn ComputeTimer,
    ) -> (ReplayResult, Vec<Vec<Span>>) {
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
                    let old = clock.to_vec();
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
                    let old = clock.to_vec();
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
                                push_span(
                                    &mut timelines,
                                    r,
                                    RankPhase::Wait,
                                    old[r],
                                    old[r] + block,
                                );
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

        let result = ReplayResult {
            total_ns: clock.iter().copied().fold(0.0, f64::max),
            compute_ns: compute,
            mpi,
        };
        (result, timelines)
    }

    /// Every bit of a replay result.
    fn bits(r: &ReplayResult) -> Vec<u64> {
        let mut v = vec![r.total_ns.to_bits()];
        v.extend(r.compute_ns.iter().map(|t| t.to_bits()));
        for m in &r.mpi {
            v.extend([m.wait_ns.to_bits(), m.transfer_ns.to_bits()]);
        }
        v
    }

    /// What must hold of any replay: per rank the spans tile `[0,
    /// clock]` in order and their phases add up to the accounting, no
    /// rank waits a negative time, and the run ends with the last rank.
    fn assert_conserved(what: &str, res: &ReplayResult, timelines: &[Vec<Span>]) {
        let near = |a: f64, b: f64| (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0);
        let mut last_clock = 0.0_f64;
        for (r, tl) in timelines.iter().enumerate() {
            let mut clock = 0.0;
            let mut by_phase = [0.0_f64; 3];
            for s in tl {
                assert_eq!(
                    s.start_ns.to_bits(),
                    f64::to_bits(clock),
                    "{what}: rank {r} gap"
                );
                assert!(s.end_ns > s.start_ns, "{what}: rank {r} empty span");
                by_phase[s.phase as usize] += s.end_ns - s.start_ns;
                clock = s.end_ns;
            }
            let m = res.mpi[r];
            assert!(m.wait_ns >= 0.0 && m.transfer_ns >= 0.0, "{what}: rank {r}");
            assert!(near(
                by_phase[RankPhase::Compute as usize],
                res.compute_ns[r]
            ));
            assert!(near(by_phase[RankPhase::Wait as usize], m.wait_ns));
            assert!(near(by_phase[RankPhase::Transfer as usize], m.transfer_ns));
            assert!(
                near(res.compute_ns[r] + m.wait_ns + m.transfer_ns, clock),
                "{what}: rank {r} accounts for {} of its clock {clock}",
                res.compute_ns[r] + m.total_ns()
            );
            last_clock = last_clock.max(clock);
        }
        assert_eq!(res.total_ns.to_bits(), last_clock.to_bits(), "{what}");
    }

    #[test]
    fn table_replay_and_the_loop_equal_their_oracles_bit_for_bit() {
        for gen in [GenParams::tiny(), GenParams::small()] {
            for app in AppId::ALL {
                let trace = generate(app, &gen);
                // One walk for every core count.
                let table = BurstTimes::build(&trace);
                for count in CoresPerNode::ALL {
                    let cores = count.count();
                    let what = format!("{app} at {} ranks, {cores} cores", gen.ranks);
                    for ratio in [0.37, 1.0, 2.9] {
                        let mut timer = FixedRatioTimer { cores, ratio };
                        let want = replay(&trace, &net(), &mut timer).total_ns;
                        let got = table.replay(&trace, &net(), count, ratio);
                        assert_eq!(got.to_bits(), want.to_bits(), "{what}, ratio {ratio}");
                    }
                    // The loop itself against the one it replaced, and
                    // the burst timer against the table at ratio 1.
                    let mut timer = BurstTimer { cores };
                    let (want, want_spans) = replay_reference(&trace, &net(), &mut timer);
                    let (got, spans) = replay_with_timelines(&trace, &net(), &mut timer);
                    assert_eq!(bits(&got), bits(&want), "{what}");
                    assert_eq!(spans, want_spans, "{what}");
                    assert_eq!(
                        table.replay(&trace, &net(), count, 1.0).to_bits(),
                        want.total_ns.to_bits()
                    );
                    assert_conserved(&what, &got, &spans);
                }
            }
        }
    }

    /// Two ranks: compute, an eager then a rendezvous send from 0 to 1,
    /// a barrier.
    fn send_recv_trace() -> AppTrace {
        let rank = |rank: u32, work_ns: f64| {
            let mpi = |bytes| {
                BurstEvent::Mpi(if rank == 0 {
                    MpiEvent::Send { peer: 1, bytes }
                } else {
                    MpiEvent::Recv { peer: 0, bytes }
                })
            };
            RankTrace {
                rank,
                events: vec![
                    BurstEvent::Compute(ComputeRegion {
                        region_id: 0,
                        work: RegionWork::Serial {
                            item: WorkItem::simple(work_ns),
                        },
                        spawn_overhead_ns: 0.0,
                        dispatch_overhead_ns: 0.0,
                    }),
                    mpi(1024),
                    mpi(1 << 20),
                    BurstEvent::Mpi(MpiEvent::Collective(CollectiveOp::Barrier)),
                ],
            }
        };
        AppTrace {
            meta: TraceMeta::new("p2p", 2, 1, 0),
            ranks: vec![rank(0, 5e4), rank(1, 9e4)],
            detail: None,
        }
    }

    #[test]
    fn point_to_point_sends_are_conserved_too() {
        let trace = send_recv_trace();
        let mut timer = BurstTimer { cores: 1 };
        let (res, spans) = replay_with_timelines(&trace, &net(), &mut timer);
        assert_conserved("p2p", &res, &spans);
        assert!(res.mpi[0].wait_ns > 0.0, "the rendezvous send waits");
        let (want, _) = replay_reference(&trace, &net(), &mut timer);
        assert_eq!(bits(&res), bits(&want));
        // The table replays the two message slots from its plan.
        let table = BurstTimes::build(&trace);
        let plan = SlotPlan::compile(&trace, |_| {});
        assert_eq!(
            plan.steps
                .iter()
                .filter(|&&s| s == Step::PointToPoint)
                .count(),
            2
        );
        assert_eq!(
            plan.messages,
            [
                MpiEvent::Send {
                    peer: 1,
                    bytes: 1024
                },
                MpiEvent::Recv {
                    peer: 0,
                    bytes: 1024
                },
                MpiEvent::Send {
                    peer: 1,
                    bytes: 1 << 20
                },
                MpiEvent::Recv {
                    peer: 0,
                    bytes: 1 << 20
                },
            ]
        );
        assert_eq!(
            table
                .replay(&trace, &net(), CoresPerNode::C1, 1.0)
                .to_bits(),
            want.total_ns.to_bits()
        );
    }

    fn non_spmd_trace() -> AppTrace {
        let mut trace = generate(AppId::Hydro, &GenParams::tiny());
        let slot = trace.ranks[1]
            .events
            .iter()
            .position(|e| matches!(e, BurstEvent::Compute(_)))
            .unwrap();
        trace.ranks[1].events[slot] = BurstEvent::Mpi(MpiEvent::Collective(CollectiveOp::Barrier));
        trace
    }

    #[test]
    #[should_panic(expected = "non-SPMD trace")]
    fn non_spmd_trace_panics_in_the_timer_replay() {
        replay(&non_spmd_trace(), &net(), &mut BurstTimer { cores: 4 });
    }

    #[test]
    #[should_panic(expected = "non-SPMD trace")]
    fn non_spmd_trace_panics_in_the_table_build() {
        BurstTimes::build(&non_spmd_trace());
    }

    #[test]
    #[should_panic(expected = "non-SPMD trace")]
    fn ranks_of_different_lengths_panic_in_the_table_build() {
        let mut trace = generate(AppId::Hydro, &GenParams::tiny());
        trace.ranks[2].events.pop();
        BurstTimes::build(&trace);
    }

    #[test]
    #[should_panic(expected = "non-SPMD trace at slot 1")]
    fn an_exchange_beside_a_send_panics_in_the_table_build() {
        let mut trace = send_recv_trace();
        trace.ranks[1].events[1] = BurstEvent::Mpi(MpiEvent::SendRecv {
            send_peer: 0,
            recv_peer: 0,
            bytes: 1024,
        });
        BurstTimes::build(&trace);
    }

    #[test]
    #[should_panic(expected = "replayed over another trace")]
    fn table_of_another_trace_is_rejected() {
        let table = BurstTimes::build(&generate(AppId::Hydro, &GenParams::tiny()));
        table.replay(&send_recv_trace(), &net(), CoresPerNode::C1, 1.0);
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
