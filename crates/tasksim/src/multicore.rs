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
//! **One loop, three core pools.** `place_items` list-schedules a
//! region's items in trace order and asks a `CorePool` where each one
//! runs: a static loop's chunks go round-robin (`RoundRobin`) on every
//! path; otherwise an item takes the earliest-free core. Core free times
//! are never NaN and never −0.0: they are sums of durations clamped by
//! `max(0.0)`, so two equally early cores hold the same bits.
//!
//! **Value-only pools.** For a dynamic loop or a task graph the loop does
//! two things with the core free times: it reads the minimum, and it
//! overwrites the core holding the minimum with the item's end. Which of
//! several equally early cores is overwritten cannot change the multiset
//! of free times, so a pool that keeps only that multiset, sorted, reads
//! the same minimum bit for bit as a scan over the cores — and with it the
//! same start, end, lock time and makespan. [`schedule_region`] names the
//! core of every item in its timeline, so it keeps the indexed scan
//! (`EarliestFree`, lowest index on ties); [`burst_makespan_ns`] reports
//! no core and uses a sorted ring (`FreeRing`): it pops the earliest
//! time and inserts the item's end from the back. An item starts no
//! earlier than any running item started, so its end is usually the
//! latest free time, and the insert then moves nothing — where the scan
//! reads every core for every item.

use musa_trace::{ComputeRegion, LoopSchedule, RegionWork, WorkItem};

/// Where each work item ran.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduledItem {
    /// Work-item id.
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
    /// Per-item placement, in execution order.
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
    let cores = cores.max(1);
    let mut timeline = Vec::with_capacity(region.work.items().len());
    let (makespan_ns, busy_ns) =
        place_with::<EarliestFree>(region, cores, duration_of, critical_of, |placed| {
            timeline.push(placed)
        });
    Schedule {
        makespan_ns,
        timeline,
        busy_ns,
        cores,
    }
}

/// Core free-times live on the stack up to this many cores (the design
/// space stops at 64).
const STACK_CORES: usize = 64;

/// Where the scheduling loop puts each item. A pool keeps one free time
/// per core in a slice it is handed on every call, so that the slice can
/// live on the loop's stack.
trait CorePool {
    /// Lays out `free` (one slot per core, all 0) for a region whose
    /// master core joins at `master_free`.
    fn seat(free: &mut [f64], master_free: f64) -> Self;
    /// The slot item `i` runs in; `free[slot]` is when it is free.
    fn pick(&mut self, free: &[f64], i: usize) -> usize;
    /// The item just picked into `slot` ends at `end`; where slots are
    /// cores, that core is busy until then.
    fn occupy(&mut self, free: &mut [f64], slot: usize, end: f64) {
        free[slot] = end;
    }
}

/// Static pre-assignment: item `i` runs on core `i % cores`.
struct RoundRobin;

impl CorePool for RoundRobin {
    fn seat(free: &mut [f64], master_free: f64) -> Self {
        free[0] = master_free;
        RoundRobin
    }

    fn pick(&mut self, free: &[f64], i: usize) -> usize {
        i % free.len()
    }
}

/// The earliest-free core by scan, the lowest index on ties; slots are
/// cores and core 0 is the master.
struct EarliestFree;

impl CorePool for EarliestFree {
    fn seat(free: &mut [f64], master_free: f64) -> Self {
        free[0] = master_free;
        EarliestFree
    }

    fn pick(&mut self, free: &[f64], _: usize) -> usize {
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
/// ring that starts at `head`. A slot names no core.
struct FreeRing {
    head: usize,
}

impl CorePool for FreeRing {
    fn seat(free: &mut [f64], master_free: f64) -> Self {
        // Every core is free at 0; the master is busied like an item.
        let mut ring = FreeRing { head: 0 };
        ring.occupy(free, 0, master_free);
        ring
    }

    fn pick(&mut self, _: &[f64], _: usize) -> usize {
        self.head
    }

    fn occupy(&mut self, free: &mut [f64], _: usize, end: f64) {
        // Pop the front: its slot becomes the back of the ring.
        let n = free.len();
        let mut hole = self.head;
        self.head = if hole + 1 == n { 0 } else { hole + 1 };
        // Insert from the back, moving each later free time back a slot.
        while hole != self.head {
            let prev = if hole == 0 { n - 1 } else { hole - 1 };
            if free[prev] <= end {
                break;
            }
            free[hole] = free[prev];
            hole = prev;
        }
        free[hole] = end;
    }
}

/// Schedules `region` with `P` choosing the earliest-free core, except
/// that a static loop's chunks are pre-assigned round-robin.
fn place_with<P: CorePool>(
    region: &ComputeRegion,
    cores: u32,
    duration_of: impl FnMut(usize) -> f64,
    critical_of: impl FnMut(usize) -> f64,
    place: impl FnMut(ScheduledItem),
) -> (f64, f64) {
    if let RegionWork::ParallelFor {
        schedule: LoopSchedule::Static,
        ..
    } = region.work
    {
        place_items::<RoundRobin>(region, cores, duration_of, critical_of, place)
    } else {
        place_items::<P>(region, cores, duration_of, critical_of, place)
    }
}

/// For every dependency of every item, in item then dependency order:
/// the index of the latest *earlier* item carrying that id, if any. A
/// dependency that names no earlier item never gates, and a repeated id
/// resolves to its latest holder.
fn resolve_deps(items: &[WorkItem]) -> Vec<Option<usize>> {
    let mut index_of_id = std::collections::HashMap::with_capacity(items.len());
    let mut resolved = Vec::new();
    for (i, item) in items.iter().enumerate() {
        resolved.extend(item.deps.iter().map(|d| index_of_id.get(d).copied()));
        index_of_id.insert(item.id, i);
    }
    resolved
}

/// The one scheduling loop: list-schedules the items in trace order on
/// the cores `P` picks and hands every placement to `place` (its `core`
/// is `P`'s slot); returns `(makespan, busy)` in ns. `cores` is at
/// least 1.
fn place_items<P: CorePool>(
    region: &ComputeRegion,
    cores: u32,
    mut duration_of: impl FnMut(usize) -> f64,
    mut critical_of: impl FnMut(usize) -> f64,
    mut place: impl FnMut(ScheduledItem),
) -> (f64, f64) {
    let items = region.work.items();
    let n = items.len();
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

    // Finish times by item index, kept only for task graphs.
    let has_deps = items.iter().any(|w| !w.deps.is_empty());
    let (deps, mut finish) = if has_deps {
        (resolve_deps(items), vec![0.0_f64; n])
    } else {
        (Vec::new(), Vec::new())
    };
    let mut next_dep = 0;

    // Core free times; the master joins after spawning.
    let (mut on_stack, mut on_heap) = ([0.0_f64; STACK_CORES], Vec::new());
    let free: &mut [f64] = if cores as usize <= STACK_CORES {
        &mut on_stack[..cores as usize]
    } else {
        on_heap.resize(cores as usize, 0.0);
        &mut on_heap
    };
    let mut pool = P::seat(free, master_free);

    let mut lock_free = 0.0_f64;
    let mut busy = 0.0_f64;
    let mut makespan = master_free;

    for (i, item) in items.iter().enumerate() {
        let dur = duration_of(i).max(0.0) + dispatch;
        let crit = critical_of(i).max(0.0).min(dur);

        let avail = if streamed {
            spawn * (i + 1) as f64
        } else {
            master_free
        };
        let named = next_dep..next_dep + item.deps.len();
        next_dep = named.end;
        let deps_done = deps[named]
            .iter()
            .flatten()
            .fold(0.0_f64, |done, &j| done.max(finish[j]));
        let ready = avail.max(deps_done);

        let slot = pool.pick(free, i);
        let start = ready.max(free[slot]);
        let mut end = start + dur;
        // Critical section at the item's tail serialises on the lock.
        if crit > 0.0 {
            let crit_start = (end - crit).max(lock_free);
            end = crit_start + crit;
            lock_free = end;
        }

        pool.occupy(free, slot, end);
        if has_deps {
            finish[i] = end;
        }
        busy += end - start;
        if end > makespan {
            makespan = end;
        }
        place(ScheduledItem {
            item: item.id,
            core: slot as u32,
            start_ns: start,
            end_ns: end,
        });
    }

    musa_obs::counter_add("tasksim.items_scheduled", n as u64);
    (makespan, busy)
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

/// The makespan of [`simulate_region_burst`] alone, bit for bit, with no
/// placement recorded and (for regions without task dependencies, up to
/// 64 cores) no allocation.
pub fn burst_makespan_ns(region: &ComputeRegion, cores: u32) -> f64 {
    let items = region.work.items();
    place_with::<FreeRing>(
        region,
        cores.max(1),
        |i| items[i].duration_ns,
        |i| items[i].critical_ns,
        |_| {},
    )
    .0
}

#[cfg(test)]
mod tests {
    use super::*;
    use musa_obs::rng::SplitMix64;

    fn par_for(durations: &[f64], spawn: f64, schedule: LoopSchedule) -> ComputeRegion {
        ComputeRegion {
            region_id: 0,
            name: "r".into(),
            work: RegionWork::ParallelFor {
                chunks: durations
                    .iter()
                    .enumerate()
                    .map(|(i, &d)| WorkItem::simple(i as u32, d))
                    .collect(),
                schedule,
            },
            spawn_overhead_ns: spawn,
            dispatch_overhead_ns: 0.0,
        }
    }

    /// The scheduler as it stood before `place_items`: availability in a
    /// `Vec`, finish times in a map by id. Kept as the oracle.
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
            RegionWork::Tasks { items } => (
                (0..items.len()).map(|i| spawn * (i + 1) as f64).collect(),
                spawn * items.len() as f64,
                false,
            ),
        };

        // Map item id → finish time for dependency resolution.
        let mut finish_by_id: std::collections::HashMap<u32, f64> =
            std::collections::HashMap::with_capacity(n);

        // Core free times; core 0 is the master and joins after spawning.
        let mut core_free = vec![0.0_f64; cores as usize];
        core_free[0] = master_free;

        let mut lock_free = 0.0_f64;
        let mut timeline = Vec::with_capacity(n);
        let mut busy = 0.0_f64;
        let mut makespan = master_free;

        for (i, item) in items.iter().enumerate() {
            let dur = duration_of(i).max(0.0) + dispatch;
            let crit = critical_of(i).max(0.0).min(dur);

            let deps_done = item
                .deps
                .iter()
                .filter_map(|d| finish_by_id.get(d).copied())
                .fold(0.0_f64, f64::max);
            let ready = avail[i].max(deps_done);

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
            finish_by_id.insert(item.id, end);
            busy += end - start;
            if end > makespan {
                makespan = end;
            }
            timeline.push(ScheduledItem {
                item: item.id,
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
    /// repeated, and now and then naming no earlier item), critical
    /// tails, and ids that are sometimes not the item's index. One in
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
        let sparse_ids = below(rng, 4) == 0;
        let tasks = below(rng, 2) == 0;
        let mut items: Vec<WorkItem> = (0..n)
            .map(|i| {
                let duration_ns = match tie_ns {
                    Some(ns) => ns,
                    None if below(rng, 10) == 0 => 0.0,
                    None => 1.0 + rng.next_f64() * 1e4,
                };
                WorkItem {
                    id: if sparse_ids {
                        below(rng, 2 * n as u64) as u32
                    } else {
                        i as u32
                    },
                    critical_ns: if tie_ns.is_none() && below(rng, 3) == 0 {
                        duration_ns * rng.next_f64()
                    } else {
                        0.0
                    },
                    ..WorkItem::simple(0, duration_ns)
                }
            })
            .collect();
        if tasks {
            for i in 0..n {
                for _ in 0..below(rng, 4) {
                    let dep = match below(rng, 8) {
                        0 => below(rng, 3 * n as u64) as u32,
                        _ => items[below(rng, i as u64 + 1) as usize].id,
                    };
                    items[i].deps.push(dep);
                }
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
            _ => RegionWork::Tasks { items },
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
            name: "random".into(),
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
            with_deps += items.iter().any(|w| !w.deps.is_empty()) as u32;
            long += (items.len() >= 300) as u32;
            tied += (items.len() > 1
                && items.iter().all(|w| w.duration_ns == items[0].duration_ns)
                && region.spawn_overhead_ns == 0.0) as u32;
            // Detailed mode hands in its own durations: exercise that too.
            let scale = 0.25 + rng.next_f64() * 4.0;
            for cores in [0u32, 1, 2, 7, 32, 64, 65, 200] {
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
                let burst = simulate_region_burst(&region, cores);
                assert_eq!(
                    burst_makespan_ns(&region, cores).to_bits(),
                    burst.makespan_ns.to_bits(),
                    "makespan-only entry, cores {cores}: {region:?}"
                );
            }
        });
        assert!(with_deps > 200, "only {with_deps} task graphs generated");
        assert!(long > 100, "only {long} Hydro-sized regions generated");
        assert!(tied > 120, "only {tied} tie-heavy regions generated");
    }

    /// Every region a paper-scale burst table schedules: each compute
    /// region of each rank of the five applications at 1, 32 and 64
    /// cores, the ring against the scheduler that names cores.
    #[test]
    #[ignore = "every region of the five paper-scale traces; scripts/check.sh runs it in release"]
    fn burst_makespan_equals_the_schedule_on_every_paper_scale_region() {
        let mut regions = 0;
        for app in musa_apps::AppId::ALL {
            let trace = musa_apps::generate(app, &musa_apps::GenParams::paper());
            for (rank, region) in trace
                .ranks
                .iter()
                .flat_map(|rt| rt.regions().map(move |r| (rt.rank, r)))
            {
                for cores in [1, 32, 64] {
                    assert_eq!(
                        burst_makespan_ns(region, cores).to_bits(),
                        simulate_region_burst(region, cores).makespan_ns.to_bits(),
                        "{app:?} rank {rank} region {} at {cores} cores",
                        region.region_id
                    );
                }
                regions += 1;
            }
        }
        assert!(regions > 5 * 256, "only {regions} paper-scale regions");
    }

    #[test]
    fn serial_region_takes_serial_time() {
        let r = ComputeRegion {
            region_id: 0,
            name: "s".into(),
            work: RegionWork::Serial {
                item: WorkItem::simple(0, 100.0),
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
        let items = vec![
            WorkItem::simple(0, 10.0),
            WorkItem {
                deps: vec![0],
                ..WorkItem::simple(1, 10.0)
            },
            WorkItem {
                deps: vec![1],
                ..WorkItem::simple(2, 10.0)
            },
        ];
        let r = ComputeRegion {
            region_id: 0,
            name: "chain".into(),
            work: RegionWork::Tasks { items },
            spawn_overhead_ns: 0.0,
            dispatch_overhead_ns: 0.0,
        };
        let s = simulate_region_burst(&r, 64);
        assert!(s.makespan_ns >= 30.0 - 1e-9);
    }

    #[test]
    fn critical_sections_serialise() {
        // 8 items, each 10 ns with 10 ns critical: fully serialised.
        let items: Vec<WorkItem> = (0..8)
            .map(|i| WorkItem {
                critical_ns: 10.0,
                ..WorkItem::simple(i, 10.0)
            })
            .collect();
        let r = ComputeRegion {
            region_id: 0,
            name: "crit".into(),
            work: RegionWork::Tasks { items },
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
