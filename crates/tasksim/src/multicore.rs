//! Multicore region simulation: the runtime system (task scheduling,
//! parallel-loop chunking, critical sections, spawn/dispatch overheads)
//! plus shared-resource contention.
//!
//! This is where MUSA "injects runtime system API calls … effectively
//! simulating the runtime system, including scheduling and
//! synchronization for the desired number of simulated cores" (§II-A).
//! Two modes share the scheduler:
//!
//! * **burst** — work-item durations come straight from the trace
//!   (hardware-agnostic, used for the Fig. 2 scaling study);
//! * **detailed** — durations come from kernel profiles and a
//!   memory-bandwidth contention fixed point stretches the memory-bound
//!   component of each item.
//!
//! Runtime overheads are wall-clock values recorded in the native trace
//! and deliberately do *not* scale with the simulated core frequency —
//! reproducing the paper's HYDRO scheduling plateau above 2.5 GHz.
//!
//! **One loop, one lane per core count.** `place_items` list-schedules a
//! region's items in trace order for several core counts in one pass:
//! each count is a lane with its own core pool, lock time and makespan,
//! and each item's duration, critical tail and availability are read
//! once for all of them. [`schedule_region`] is the one-lane case;
//! [`burst_makespans_ns`] runs the design space's three counts (1, 32,
//! 64) in one pass, and more counts three at a time. A static loop's
//! chunks go round-robin (`RoundRobin`, which counts instead of dividing)
//! in every lane; otherwise an item takes the earliest-free core. Lanes
//! share nothing that one writes and another reads, so each lane computes
//! exactly what a pass of its own would. Task dependencies are the
//! exception: a finish time is a lane's own, so a task region that has
//! any is scheduled one lane at a time (none of the five applications
//! has one). Whether it has any is read once per region, from the
//! region's edge list ([`RegionWork::deps`]).
//! Core free times are never NaN and never −0.0: they are sums of
//! durations clamped by `max(0.0)`, so two equally early cores hold the
//! same bits, and a compare-select (`later`) takes the place of
//! `f64::max` on them.
//!
//! **Value-only pools.** For a dynamic loop or a task graph the loop does
//! two things with the core free times: it reads the minimum, and it
//! overwrites the core holding the minimum with the item's end, which is
//! no earlier. Which of several equally early cores is overwritten cannot
//! change the multiset of free times, so a pool that keeps only that
//! multiset, sorted, reads the same minimum bit for bit as a scan over the
//! cores — and with it the same start, end, lock time and makespan.
//! Only [`schedule_region`] names the core of every item, in its timeline
//! (Fig. 3 reads it), so only it keeps the indexed scan (`EarliestFree`,
//! lowest index on ties); `schedule_region_totals` (the detailed node
//! simulation's contention step) and [`burst_makespans_ns`] report no
//! core and keep the free times sorted
//! in a window that slides along its buffer (`SortedFree`): it pops the
//! front and inserts the item's end. Items start in trace order, each no
//! earlier than the one before, so an end usually belongs among the
//! latest few free times (at 64 cores, HYDRO's among the last 16 for 99 %
//! of items); there the insert is a branch-free merge into the last
//! `MERGE_SLOTS` slots (as `Pool::take` busies a functional unit
//! in `pipeline.rs`), and anywhere else, or in a pool of `MERGE_SLOTS`
//! cores or fewer, a scalar insert from the back. (A scan from the back
//! that stops where the end belongs stops after a different number of
//! steps nearly every item, and mispredicts.)

use musa_trace::{ComputeRegion, LoopSchedule, RegionWork};

use crate::pipeline::{earlier, later};

/// Where each work item ran.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduledItem {
    /// The work item's position in its region.
    pub item: u32,
    /// Core that executed it.
    pub core: u32,
    /// Start time (ns, region-relative).
    pub start_ns: f64,
    /// End time (ns).
    pub end_ns: f64,
}

/// Result of scheduling one region on `cores` cores.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    /// Region makespan in nanoseconds.
    pub makespan_ns: f64,
    /// Per-item placement, in execution order; empty for a schedule that
    /// records none (the detailed node simulation's, which only its
    /// makespan and busy time are read from).
    pub timeline: Vec<ScheduledItem>,
    /// Sum of item execution times (excludes idle).
    pub busy_ns: f64,
    /// Number of cores used.
    pub cores: u32,
}

impl Schedule {
    /// Average concurrency: busy time over makespan.
    pub fn avg_concurrency(&self) -> f64 {
        if self.makespan_ns <= 0.0 {
            0.0
        } else {
            self.busy_ns / self.makespan_ns
        }
    }

    /// Parallel efficiency vs. the serial execution of the same items.
    pub fn parallel_efficiency(&self) -> f64 {
        if self.makespan_ns <= 0.0 || self.cores == 0 {
            return 1.0;
        }
        self.busy_ns / (self.makespan_ns * self.cores as f64)
    }

    /// Per-core busy time, for occupancy timelines (Fig. 3).
    pub fn core_busy_ns(&self) -> Vec<f64> {
        let mut busy = vec![0.0; self.cores as usize];
        for s in &self.timeline {
            busy[s.core as usize] += s.end_ns - s.start_ns;
        }
        busy
    }
}

/// Schedule a region's work items on `cores` cores.
///
/// `duration_of(item_index)` supplies each item's execution time in ns
/// (trace durations in burst mode; profiled durations in detailed mode).
/// `critical_of(item_index)` supplies the serialised portion.
pub fn schedule_region(
    region: &ComputeRegion,
    cores: u32,
    duration_of: impl FnMut(usize) -> f64,
    critical_of: impl FnMut(usize) -> f64,
) -> Schedule {
    schedule_one::<EarliestFree>(region, cores, duration_of, critical_of, true)
}

/// [`schedule_region`]'s makespan and busy time, bit for bit, without its
/// placements: the timeline is empty. The earliest-free core comes from
/// sorted free times that name no core (see "Value-only pools" above).
pub(crate) fn schedule_region_totals(
    region: &ComputeRegion,
    cores: u32,
    duration_of: impl FnMut(usize) -> f64,
    critical_of: impl FnMut(usize) -> f64,
) -> Schedule {
    schedule_one::<SortedFree>(region, cores, duration_of, critical_of, false)
}

/// One lane of `P`'s schedule, its placements kept when `placements`.
fn schedule_one<P: CorePool>(
    region: &ComputeRegion,
    cores: u32,
    duration_of: impl FnMut(usize) -> f64,
    critical_of: impl FnMut(usize) -> f64,
    placements: bool,
) -> Schedule {
    let cores = cores.max(1);
    let mut timeline = Vec::with_capacity(placements as usize * region.work.items().len());
    let mut busy_ns = 0.0;
    let mut lanes = [Lane::of(cores)];
    place_with::<P>(region, &mut lanes, duration_of, critical_of, |_, placed| {
        busy_ns += placed.end_ns - placed.start_ns;
        if placements {
            timeline.push(placed)
        }
    });
    Schedule {
        makespan_ns: lanes[0].makespan,
        timeline,
        busy_ns,
        cores,
    }
}

/// One pass over a region's items serves up to this many lanes, which
/// live on the stack: the design space's three core counts.
const PASS_LANES: usize = 3;

/// Core free times live on the stack up to this many slots (the design
/// space's 1, 32 and 64 cores take 97, or 289 in sorted pools).
const STACK_SLOTS: usize = 320;

/// A sorted pool inserts branch-free into its last this many slots.
const MERGE_SLOTS: usize = 16;

/// A sorted pool's window slides this many slots before it moves back to
/// the start of its buffer.
const SLIDE_SLOTS: usize = 64;

/// One core count's schedule in the scheduling loop: its pool's slots in
/// the loop's free-time buffer and cursor, its lock and makespan.
#[derive(Clone, Copy, Default)]
struct Lane {
    /// Cores in the pool, at least 1.
    cores: usize,
    /// Where the pool's slots start in the free-time buffer.
    base: usize,
    /// The pool's cursor: the next core round-robin, or the front of the
    /// sorted window.
    next: usize,
    /// When the critical-section lock is next free.
    lock_free: f64,
    makespan: f64,
}

impl Lane {
    fn of(cores: u32) -> Lane {
        Lane {
            cores: cores.max(1) as usize,
            ..Lane::default()
        }
    }
}

/// Where the scheduling loop puts each item. A pool keeps its free times
/// in the slots of the buffer it is handed on every call, so that the
/// buffer can live on the loop's stack, and its cursor in the lane.
trait CorePool {
    /// Free-time slots a pool of `cores` cores takes.
    fn slots(cores: usize) -> usize {
        cores
    }
    /// Lays out `free` (all 0) for a region whose master core joins at
    /// `master_free`.
    fn seat(_: &mut Lane, free: &mut [f64], master_free: f64) {
        free[0] = master_free;
    }
    /// The slot the next item runs in; `free[slot]` is when it is free.
    fn pick(lane: &Lane, free: &[f64]) -> usize;
    /// The item just picked into `slot` ends at `end`, no earlier than
    /// `free[slot]`; where slots are cores, that core is busy until then.
    fn occupy(_: &mut Lane, free: &mut [f64], slot: usize, end: f64) {
        free[slot] = end;
    }
}

/// Static pre-assignment: item `i` runs on core `i % cores`, counted.
struct RoundRobin;

impl CorePool for RoundRobin {
    fn pick(lane: &Lane, _: &[f64]) -> usize {
        lane.next
    }

    fn occupy(lane: &mut Lane, free: &mut [f64], slot: usize, end: f64) {
        free[slot] = end;
        lane.next = if slot + 1 == lane.cores { 0 } else { slot + 1 };
    }
}

/// The earliest-free core by scan, the lowest index on ties; slots are
/// cores and core 0 is the master.
struct EarliestFree;

impl CorePool for EarliestFree {
    fn pick(_: &Lane, free: &[f64]) -> usize {
        let mut best = 0;
        for (c, &f) in free.iter().enumerate().skip(1) {
            if f < free[best] {
                best = c;
            }
        }
        best
    }
}

/// The earliest-free time without its core: the free times sorted in a
/// window of `cores` slots from `next`, sliding along `SLIDE_SLOTS` more.
/// A slot names no core.
struct SortedFree;

impl CorePool for SortedFree {
    fn slots(cores: usize) -> usize {
        cores + SLIDE_SLOTS
    }

    fn seat(lane: &mut Lane, free: &mut [f64], master_free: f64) {
        // Every core is free at 0; the master is busied like an item.
        SortedFree::occupy(lane, free, 0, master_free);
    }

    fn pick(lane: &Lane, _: &[f64]) -> usize {
        lane.next
    }

    fn occupy(lane: &mut Lane, free: &mut [f64], _: usize, end: f64) {
        let n = lane.cores;
        if n == 1 {
            // One free time, always in slot 0: nothing to slide or sort.
            free[0] = end;
            return;
        }
        // Pop the front; at the buffer's end, move the rest to its start.
        let mut front = lane.next + 1;
        if front + n > free.len() {
            free.copy_within(front..front + n - 1, 0);
            front = 0;
        }
        lane.next = front;
        // `free[front..hole]` is sorted; insert `end` into `..=hole`.
        let hole = front + n - 1;
        if n > MERGE_SLOTS && end >= free[hole - MERGE_SLOTS] {
            // It belongs after the slot before the window: a branch-free
            // merge into the window, its hole read as +inf.
            let w: &mut [f64; MERGE_SLOTS + 1] = (&mut free[hole - MERGE_SLOTS..=hole])
                .try_into()
                .expect("a window of MERGE_SLOTS + 1 slots");
            w[MERGE_SLOTS] = f64::INFINITY;
            let r = *w;
            for k in 1..=MERGE_SLOTS {
                w[k] = earlier(r[k], later(r[k - 1], end));
            }
        } else {
            let mut at = hole;
            while at > front && free[at - 1] > end {
                free[at] = free[at - 1];
                at -= 1;
            }
            free[at] = end;
        }
    }
}

/// Schedules `region` in every lane with `P` choosing the earliest-free
/// core, except that a static loop's chunks are pre-assigned round-robin;
/// `place(lane, placement)` hears of every placement.
fn place_with<P: CorePool>(
    region: &ComputeRegion,
    lanes: &mut [Lane],
    duration_of: impl FnMut(usize) -> f64,
    critical_of: impl FnMut(usize) -> f64,
    place: impl FnMut(usize, ScheduledItem),
) {
    if let RegionWork::ParallelFor {
        schedule: LoopSchedule::Static,
        ..
    } = region.work
    {
        place_lanes::<RoundRobin>(region, lanes, duration_of, critical_of, place)
    } else {
        place_lanes::<P>(region, lanes, duration_of, critical_of, place)
    }
}

/// Lays the lanes' pools out in one free-time buffer and runs the loop
/// over `PASS_LANES` of them at a time, or, for a region with task
/// dependencies, one lane at a time: a finish time is a lane's own.
fn place_lanes<P: CorePool>(
    region: &ComputeRegion,
    lanes: &mut [Lane],
    mut duration_of: impl FnMut(usize) -> f64,
    mut critical_of: impl FnMut(usize) -> f64,
    mut place: impl FnMut(usize, ScheduledItem),
) {
    let mut slots = 0;
    for lane in lanes.iter_mut() {
        lane.base = slots;
        slots += P::slots(lane.cores);
    }
    let (mut on_stack, mut on_heap) = ([0.0_f64; STACK_SLOTS], Vec::new());
    let free: &mut [f64] = if slots <= STACK_SLOTS {
        &mut on_stack[..slots]
    } else {
        on_heap.resize(slots, 0.0);
        &mut on_heap
    };

    let width = if region.work.deps().is_empty() {
        PASS_LANES
    } else {
        1
    };
    for (k, group) in lanes.chunks_mut(width).enumerate() {
        let (d, c) = (&mut duration_of, &mut critical_of);
        let mut place = |l, placed| place(k * width + l, placed);
        match group.len() {
            1 => place_items::<P, 1>(region, lane_array(group), free, d, c, &mut place),
            2 => place_items::<P, 2>(region, lane_array(group), free, d, c, &mut place),
            _ => place_items::<P, 3>(region, lane_array(group), free, d, c, &mut place),
        }
    }
}

/// `group` as the array of lanes it is.
fn lane_array<const L: usize>(group: &mut [Lane]) -> &mut [Lane; L] {
    group.try_into().expect("a group of L lanes")
}

/// The one scheduling loop: list-schedules the items in trace order, in
/// every lane on the cores its `P` pool picks from its slots of `free`
/// (all 0), and hands every placement to `place` with its lane's index
/// (its `core` is `P`'s slot). A region with task edges is scheduled in
/// one lane: item `i` waits for the positions `edges[i]` names (an item
/// past the end of `edges` waits for none), and an edge to its own or a
/// later position never gates. Each lane ends holding its makespan in
/// ns.
fn place_items<P: CorePool, const L: usize>(
    region: &ComputeRegion,
    lanes: &mut [Lane; L],
    free: &mut [f64],
    mut duration_of: impl FnMut(usize) -> f64,
    mut critical_of: impl FnMut(usize) -> f64,
    mut place: impl FnMut(usize, ScheduledItem),
) {
    let n = region.work.items().len();
    let edges = region.work.deps();
    let spawn = region.spawn_overhead_ns;
    let dispatch = region.dispatch_overhead_ns;

    // Item availability, when the runtime has created it. Streamed: the
    // master publishes items one by one, then joins. Otherwise every
    // item exists as soon as the master is free: at once for a serial
    // region, after the single fork for statically pre-assigned chunks.
    let (streamed, master_free) = match &region.work {
        RegionWork::Serial { .. } => (false, 0.0),
        RegionWork::ParallelFor {
            schedule: LoopSchedule::Static,
            ..
        } => (false, spawn),
        RegionWork::ParallelFor {
            schedule: LoopSchedule::Dynamic,
            ..
        }
        | RegionWork::Tasks { .. } => (true, spawn * n as f64),
    };

    // Finish times by position, kept only for task graphs: a position
    // not yet placed (or past the end) reads 0, so it never gates.
    let has_deps = !edges.is_empty();
    debug_assert!(!has_deps || L == 1, "dependencies in a shared pass");
    let mut finish = if has_deps {
        vec![0.0_f64; n]
    } else {
        Vec::new()
    };

    // Each lane's pool; its master joins after spawning. The lanes are
    // copied in so that their cursors and times can stay in registers.
    let mut lanes_in = *lanes;
    for lane in lanes_in.iter_mut() {
        *lane = Lane {
            cores: lane.cores,
            base: lane.base,
            makespan: master_free,
            ..Lane::default()
        };
        P::seat(
            lane,
            &mut free[lane.base..lane.base + P::slots(lane.cores)],
            master_free,
        );
    }

    for i in 0..n {
        let dur = duration_of(i).max(0.0) + dispatch;
        let crit = critical_of(i).max(0.0).min(dur);

        let avail = if streamed {
            spawn * (i + 1) as f64
        } else {
            master_free
        };
        let deps_done = edges
            .get(i)
            .into_iter()
            .flatten()
            .filter_map(|&j| finish.get(j as usize))
            .fold(0.0_f64, |done, &f| done.max(f));
        let ready = avail.max(deps_done);

        for (l, lane) in lanes_in.iter_mut().enumerate() {
            let free = &mut free[lane.base..lane.base + P::slots(lane.cores)];
            let slot = P::pick(lane, free);
            let start = later(ready, free[slot]);
            let mut end = start + dur;
            // Critical section at the item's tail serialises on the lock.
            if crit > 0.0 {
                let crit_start = later(end - crit, lane.lock_free);
                end = crit_start + crit;
                lane.lock_free = end;
            }

            P::occupy(lane, free, slot, end);
            if has_deps {
                finish[i] = end;
            }
            lane.makespan = later(end, lane.makespan);
            place(
                l,
                ScheduledItem {
                    item: i as u32,
                    core: slot as u32,
                    start_ns: start,
                    end_ns: end,
                },
            );
        }
    }

    *lanes = lanes_in;
    musa_obs::counter_add("tasksim.items_scheduled", (n * L) as u64);
}

/// Burst-mode (hardware-agnostic) simulation of a region: durations come
/// from the trace, unchanged.
pub fn simulate_region_burst(region: &ComputeRegion, cores: u32) -> Schedule {
    let items = region.work.items();
    schedule_region(
        region,
        cores,
        |i| items[i].duration_ns,
        |i| items[i].critical_ns,
    )
}

/// The makespan of [`simulate_region_burst`] at each of `cores`, bit for
/// bit: `makespans[k]` is that at `cores[k]`. Up to three counts take one
/// pass over the region's items. It records no placement and, for a
/// region without task dependencies at up to three core counts whose
/// pools fit on the stack (1, 32 and 64 do), allocates nothing. Panics
/// unless the two slices have one length.
pub fn burst_makespans_ns(region: &ComputeRegion, cores: &[u32], makespans: &mut [f64]) {
    assert_eq!(cores.len(), makespans.len(), "one makespan per core count");
    let (mut on_stack, mut on_heap) = ([Lane::default(); PASS_LANES], Vec::new());
    let lanes: &mut [Lane] = if cores.len() <= PASS_LANES {
        &mut on_stack[..cores.len()]
    } else {
        on_heap.resize(cores.len(), Lane::default());
        &mut on_heap
    };
    for (lane, &c) in lanes.iter_mut().zip(cores) {
        *lane = Lane::of(c);
    }
    let items = region.work.items();
    place_with::<SortedFree>(
        region,
        lanes,
        |i| items[i].duration_ns,
        |i| items[i].critical_ns,
        |_, _| {},
    );
    for (m, lane) in makespans.iter_mut().zip(lanes.iter()) {
        *m = lane.makespan;
    }
}

/// [`burst_makespans_ns`] at one core count.
pub fn burst_makespan_ns(region: &ComputeRegion, cores: u32) -> f64 {
    let mut makespan = [0.0];
    burst_makespans_ns(region, &[cores], &mut makespan);
    makespan[0]
}

#[cfg(test)]
mod tests {
    use super::*;
    use musa_obs::rng::SplitMix64;
    use musa_trace::WorkItem;

    fn par_for(durations: &[f64], spawn: f64, schedule: LoopSchedule) -> ComputeRegion {
        ComputeRegion {
            region_id: 0,
            work: RegionWork::ParallelFor {
                chunks: durations.iter().map(|&d| WorkItem::simple(d)).collect(),
                schedule,
            },
            spawn_overhead_ns: spawn,
            dispatch_overhead_ns: 0.0,
        }
    }

    /// The scheduler as it stood before `place_items`: availability in a
    /// `Vec`, finish times in one by position (an edge to a position not
    /// yet placed finds none). Kept as the oracle.
    fn schedule_region_reference(
        region: &ComputeRegion,
        cores: u32,
        mut duration_of: impl FnMut(usize) -> f64,
        mut critical_of: impl FnMut(usize) -> f64,
    ) -> Schedule {
        let cores = cores.max(1);
        let items = region.work.items();
        let n = items.len();
        let spawn = region.spawn_overhead_ns;
        let dispatch = region.dispatch_overhead_ns;

        // Item availability: when the runtime has created it, plus deps.
        let (avail, master_free, static_assign): (Vec<f64>, f64, bool) = match &region.work {
            RegionWork::Serial { .. } => (vec![0.0], 0.0, false),
            RegionWork::ParallelFor { chunks, schedule } => match schedule {
                // Static: single fork, chunks pre-assigned round-robin.
                LoopSchedule::Static => (vec![spawn; chunks.len()], spawn, true),
                // Dynamic: master publishes chunks one by one.
                LoopSchedule::Dynamic => (
                    (0..chunks.len()).map(|i| spawn * (i + 1) as f64).collect(),
                    spawn * chunks.len() as f64,
                    false,
                ),
            },
            RegionWork::Tasks { items, .. } => (
                (0..items.len()).map(|i| spawn * (i + 1) as f64).collect(),
                spawn * items.len() as f64,
                false,
            ),
        };

        // Finish time by position, for dependency resolution.
        let edges = region.work.deps();
        let mut finish: Vec<f64> = Vec::with_capacity(n);

        // Core free times; core 0 is the master and joins after spawning.
        let mut core_free = vec![0.0_f64; cores as usize];
        core_free[0] = master_free;

        let mut lock_free = 0.0_f64;
        let mut timeline = Vec::with_capacity(n);
        let mut busy = 0.0_f64;
        let mut makespan = master_free;

        for (i, avail) in avail.into_iter().enumerate() {
            let dur = duration_of(i).max(0.0) + dispatch;
            let crit = critical_of(i).max(0.0).min(dur);

            let deps_done = edges
                .get(i)
                .into_iter()
                .flatten()
                .filter_map(|&d| finish.get(d as usize).copied())
                .fold(0.0_f64, f64::max);
            let ready = avail.max(deps_done);

            // Pick the core: static pre-assignment or earliest-free.
            let core = if static_assign {
                (i as u32) % cores
            } else {
                let mut best = 0usize;
                for (c, &f) in core_free.iter().enumerate().skip(1) {
                    if f < core_free[best] {
                        best = c;
                    }
                }
                best as u32
            };

            let start = ready.max(core_free[core as usize]);
            let mut end = start + dur;
            // Critical section at the item's tail serialises on the lock.
            if crit > 0.0 {
                let crit_start = (end - crit).max(lock_free);
                end = crit_start + crit;
                lock_free = end;
            }

            core_free[core as usize] = end;
            finish.push(end);
            busy += end - start;
            if end > makespan {
                makespan = end;
            }
            timeline.push(ScheduledItem {
                item: i as u32,
                core,
                start_ns: start,
                end_ns: end,
            });
        }

        Schedule {
            makespan_ns: makespan,
            timeline,
            busy_ns: busy,
            cores,
        }
    }

    /// A seeded region of any of the four shapes: serial, static or
    /// dynamic loop, or a task graph with dependencies (backward,
    /// repeated, and now and then naming the task's own or a later
    /// position, in range or past the end), and critical tails. One in
    /// eight is Hydro-sized (300–1,100 items, so a 64-core pool turns
    /// over many times); one in six is tie-heavy: every duration equal
    /// or zero, no critical tail, no spawn or dispatch overhead.
    fn random_region(rng: &mut SplitMix64) -> ComputeRegion {
        let below = |rng: &mut SplitMix64, n: u64| rng.next_u64() % n;
        let n = if below(rng, 8) == 0 {
            300 + below(rng, 801) as usize
        } else {
            1 + below(rng, 90) as usize
        };
        let tie_ns = match below(rng, 12) {
            0 => Some(0.0),
            1 => Some(1.0 + rng.next_f64() * 1e4),
            _ => None,
        };
        let tasks = below(rng, 2) == 0;
        let mut items: Vec<WorkItem> = (0..n)
            .map(|_| {
                let duration_ns = match tie_ns {
                    Some(ns) => ns,
                    None if below(rng, 10) == 0 => 0.0,
                    None => 1.0 + rng.next_f64() * 1e4,
                };
                WorkItem {
                    critical_ns: if tie_ns.is_none() && below(rng, 3) == 0 {
                        duration_ns * rng.next_f64()
                    } else {
                        0.0
                    },
                    ..WorkItem::simple(duration_ns)
                }
            })
            .collect();
        let mut deps: Vec<Vec<u32>> = Vec::new();
        if tasks {
            for i in 0..n {
                let named = (0..below(rng, 4))
                    .map(|_| match below(rng, 8) {
                        0 => below(rng, 3 * n as u64),
                        _ => below(rng, i as u64 + 1),
                    } as u32)
                    .collect();
                deps.push(named);
            }
        }
        let work = match below(rng, 6) {
            0 => RegionWork::Serial {
                item: items.swap_remove(0),
            },
            1 | 2 if !tasks => RegionWork::ParallelFor {
                chunks: items,
                schedule: LoopSchedule::Static,
            },
            3 | 4 if !tasks => RegionWork::ParallelFor {
                chunks: items,
                schedule: LoopSchedule::Dynamic,
            },
            _ => RegionWork::Tasks { items, deps },
        };
        let (spawn, dispatch) = if tie_ns.is_some() {
            (0.0, 0.0)
        } else {
            (
                [0.0, 35.0, 400.0][below(rng, 3) as usize],
                [0.0, 120.0][below(rng, 2) as usize],
            )
        };
        ComputeRegion {
            region_id: 0,
            work,
            spawn_overhead_ns: spawn,
            dispatch_overhead_ns: dispatch,
        }
    }

    #[test]
    fn schedule_equals_the_reference_bit_for_bit_on_random_regions() {
        let bits = |s: &Schedule| {
            let mut v = vec![s.makespan_ns.to_bits(), s.busy_ns.to_bits(), s.cores as u64];
            for t in &s.timeline {
                v.extend([
                    t.item as u64,
                    t.core as u64,
                    t.start_ns.to_bits(),
                    t.end_ns.to_bits(),
                ]);
            }
            v
        };
        let (mut with_deps, mut long, mut tied) = (0, 0, 0);
        musa_obs::rng::check_cases(1200, |rng| {
            let region = random_region(rng);
            let items = region.work.items();
            with_deps += region.work.deps().iter().any(|d| !d.is_empty()) as u32;
            long += (items.len() >= 300) as u32;
            tied += (items.len() > 1
                && items.iter().all(|w| w.duration_ns == items[0].duration_ns)
                && region.spawn_overhead_ns == 0.0) as u32;
            // Detailed mode hands in its own durations: exercise that too.
            let scale = 0.25 + rng.next_f64() * 4.0;
            // Every count in one pass: lanes of different widths, the
            // heap past the stack's slots, the scalar insert of narrow
            // pools.
            let counts = [0u32, 1, 2, 7, 32, 64, 65, 200];
            let mut makespans = [0.0; 8];
            burst_makespans_ns(&region, &counts, &mut makespans);
            for (cores, makespan) in counts.into_iter().zip(makespans) {
                let want = schedule_region_reference(
                    &region,
                    cores,
                    |i| items[i].duration_ns * scale,
                    |i| items[i].critical_ns * scale,
                );
                let got = schedule_region(
                    &region,
                    cores,
                    |i| items[i].duration_ns * scale,
                    |i| items[i].critical_ns * scale,
                );
                assert_eq!(bits(&got), bits(&want), "cores {cores}: {region:?}");
                // The contention step's schedule: no placements, and the
                // makespan and busy time of the scan, bit for bit.
                let totals = schedule_region_totals(
                    &region,
                    cores,
                    |i| items[i].duration_ns * scale,
                    |i| items[i].critical_ns * scale,
                );
                assert_eq!(
                    bits(&totals),
                    bits(&Schedule {
                        timeline: Vec::new(),
                        ..want
                    }),
                    "totals, cores {cores}: {region:?}"
                );
                let burst = simulate_region_burst(&region, cores).makespan_ns;
                assert_eq!(
                    makespan.to_bits(),
                    burst.to_bits(),
                    "one-pass entry, cores {cores}: {region:?}"
                );
                assert_eq!(
                    burst_makespan_ns(&region, cores).to_bits(),
                    burst.to_bits(),
                    "one-count entry, cores {cores}: {region:?}"
                );
            }
        });
        assert!(with_deps > 200, "only {with_deps} task graphs generated");
        assert!(long > 100, "only {long} Hydro-sized regions generated");
        assert!(tied > 120, "only {tied} tie-heavy regions generated");
    }

    /// Every region a paper-scale burst table schedules: each compute
    /// region of each rank of the five applications, the one pass at 1,
    /// 32 and 64 cores against the scheduler that names cores; and the
    /// contention step's schedule, which names none, against its makespan
    /// and busy time, the five sampled regions among them.
    #[test]
    #[ignore = "every region of the five paper-scale traces; scripts/check.sh runs it in release"]
    fn burst_makespans_equal_the_schedule_on_every_paper_scale_region() {
        let (mut regions, mut sampled) = (0, 0);
        for app in musa_apps::AppId::ALL {
            let trace = musa_apps::generate(app, &musa_apps::GenParams::paper());
            let sampled_region = trace.sampled_region().unwrap();
            for (rank, region) in trace
                .ranks
                .iter()
                .flat_map(|rt| rt.regions().map(move |r| (rt.rank, r)))
            {
                let items = region.work.items();
                let counts = [1, 32, 64];
                let mut makespans = [0.0; 3];
                burst_makespans_ns(region, &counts, &mut makespans);
                for (cores, makespan) in counts.into_iter().zip(makespans) {
                    let what = format!(
                        "{app:?} rank {rank} region {} at {cores} cores",
                        region.region_id
                    );
                    let want = simulate_region_burst(region, cores);
                    assert_eq!(makespan.to_bits(), want.makespan_ns.to_bits(), "{what}");
                    let totals = schedule_region_totals(
                        region,
                        cores,
                        |i| items[i].duration_ns,
                        |i| items[i].critical_ns,
                    );
                    assert_eq!(
                        [totals.makespan_ns.to_bits(), totals.busy_ns.to_bits()],
                        [want.makespan_ns.to_bits(), want.busy_ns.to_bits()],
                        "totals: {what}"
                    );
                }
                regions += 1;
                sampled += std::ptr::eq(region, sampled_region) as u32;
            }
        }
        assert!(regions > 5 * 256, "only {regions} paper-scale regions");
        assert_eq!(sampled, 5, "the five sampled regions are among them");
    }

    /// The sorted pool against a sorted list: after every insert its
    /// window holds the multiset a pop-the-minimum, insert-the-end list
    /// holds, bit for bit. Ends land anywhere from the front to past the
    /// back, often on ties, in pools narrower and wider than the merge.
    #[test]
    fn sorted_pool_keeps_the_free_times_a_sorted_list_keeps() {
        musa_obs::rng::check_cases(200, |rng| {
            let cores = [1, 2, 16, 17, 18, 33, 64, 65][(rng.next_u64() % 8) as usize];
            let mut free = vec![0.0; SortedFree::slots(cores)];
            let mut lane = Lane::of(cores as u32);
            let mut want = vec![0.0; cores];
            let master = (rng.next_u64() % 4) as f64 * 100.0;
            SortedFree::seat(&mut lane, &mut free, master);
            want.remove(0);
            want.push(master);
            want.sort_by(f64::total_cmp);
            for step in 0..600 {
                let slot = SortedFree::pick(&lane, &free);
                assert_eq!(free[slot].to_bits(), want[0].to_bits(), "step {step}");
                let end = match rng.next_u64() % 4 {
                    // A tie with a free time at or after the front.
                    0 => want[(rng.next_u64() % cores as u64) as usize],
                    1 => want[0] + (rng.next_u64() % 50) as f64,
                    _ => want[cores - 1] + rng.next_f64() * 40.0 - 20.0,
                }
                .max(want[0]);
                SortedFree::occupy(&mut lane, &mut free, slot, end);
                want.remove(0);
                want.push(end);
                want.sort_by(f64::total_cmp);
                let got = &free[lane.next..lane.next + cores];
                assert!(
                    got.iter()
                        .zip(&want)
                        .all(|(a, b)| a.to_bits() == b.to_bits()),
                    "{cores} cores, step {step}: {got:?} against {want:?}"
                );
            }
        });
    }

    #[test]
    fn serial_region_takes_serial_time() {
        let r = ComputeRegion {
            region_id: 0,
            work: RegionWork::Serial {
                item: WorkItem::simple(100.0),
            },
            spawn_overhead_ns: 0.0,
            dispatch_overhead_ns: 0.0,
        };
        let s = simulate_region_burst(&r, 64);
        assert_eq!(s.makespan_ns, 100.0);
        assert!((s.parallel_efficiency() - 100.0 / (100.0 * 64.0)).abs() < 1e-12);
    }

    #[test]
    fn balanced_loop_scales_nearly_linearly() {
        let r = par_for(&[10.0; 128], 0.0, LoopSchedule::Dynamic);
        let s1 = simulate_region_burst(&r, 1);
        let s32 = simulate_region_burst(&r, 32);
        let speedup = s1.makespan_ns / s32.makespan_ns;
        assert!(speedup > 30.0, "speedup {speedup}");
    }

    #[test]
    fn makespan_at_least_critical_path_and_at_most_serial() {
        let durations: Vec<f64> = (0..50).map(|i| 10.0 + i as f64).collect();
        let r = par_for(&durations, 0.0, LoopSchedule::Dynamic);
        let serial: f64 = durations.iter().sum();
        let longest = 59.0;
        for cores in [1u32, 7, 32, 64] {
            let s = simulate_region_burst(&r, cores);
            assert!(s.makespan_ns >= longest - 1e-9);
            assert!(s.makespan_ns <= serial + 1e-9);
        }
    }

    #[test]
    fn one_big_chunk_caps_speedup() {
        // SPMZ-shaped: one 2× boundary chunk first, then 43 unit chunks.
        let mut d = vec![20.5];
        d.extend(std::iter::repeat_n(10.0, 43));
        let r = par_for(&d, 0.0, LoopSchedule::Dynamic);
        let s32 = simulate_region_burst(&r, 32);
        let s64 = simulate_region_burst(&r, 64);
        // Flat between 32 and 64 cores (the big chunk dominates).
        assert!((s32.makespan_ns - s64.makespan_ns).abs() / s64.makespan_ns < 0.05);
    }

    #[test]
    fn spawn_overhead_gates_dynamic_loops() {
        // 64 chunks of 1 ns each with 100 ns spawns: makespan is
        // spawn-bound regardless of core count.
        let r = par_for(&[1.0; 64], 100.0, LoopSchedule::Dynamic);
        let s = simulate_region_burst(&r, 64);
        assert!(s.makespan_ns >= 64.0 * 100.0);
    }

    #[test]
    fn static_loops_pay_only_one_fork() {
        let r = par_for(&[100.0; 64], 50.0, LoopSchedule::Static);
        let s = simulate_region_burst(&r, 64);
        assert!((s.makespan_ns - 150.0).abs() < 1e-9, "{}", s.makespan_ns);
    }

    #[test]
    fn dependencies_serialise() {
        let items = vec![WorkItem::simple(10.0); 3];
        let r = ComputeRegion {
            region_id: 0,
            work: RegionWork::Tasks {
                items,
                deps: vec![vec![], vec![0], vec![1]],
            },
            spawn_overhead_ns: 0.0,
            dispatch_overhead_ns: 0.0,
        };
        let s = simulate_region_burst(&r, 64);
        assert!(s.makespan_ns >= 30.0 - 1e-9);
    }

    #[test]
    fn critical_sections_serialise() {
        // 8 items, each 10 ns with 10 ns critical: fully serialised.
        let items = vec![
            WorkItem {
                critical_ns: 10.0,
                ..WorkItem::simple(10.0)
            };
            8
        ];
        let r = ComputeRegion {
            region_id: 0,
            work: RegionWork::Tasks {
                items,
                deps: Vec::new(),
            },
            spawn_overhead_ns: 0.0,
            dispatch_overhead_ns: 0.0,
        };
        let s = simulate_region_burst(&r, 8);
        assert!(s.makespan_ns >= 80.0 - 1e-9, "{}", s.makespan_ns);
    }

    #[test]
    fn timeline_is_consistent() {
        let r = par_for(&[5.0; 20], 1.0, LoopSchedule::Dynamic);
        let s = simulate_region_burst(&r, 4);
        assert_eq!(s.timeline.len(), 20);
        // No overlapping items on the same core.
        let mut by_core: std::collections::HashMap<u32, Vec<(f64, f64)>> = Default::default();
        for t in &s.timeline {
            by_core
                .entry(t.core)
                .or_default()
                .push((t.start_ns, t.end_ns));
        }
        for (_, mut spans) in by_core {
            spans.sort_by(|a, b| a.0.total_cmp(&b.0));
            for w in spans.windows(2) {
                assert!(w[1].0 >= w[0].1 - 1e-9, "overlap: {w:?}");
            }
        }
        assert!(s.avg_concurrency() <= 4.0 + 1e-9);
    }
}
