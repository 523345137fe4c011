//! Windowed out-of-order pipeline timing model.
//!
//! A limited-window dataflow simulation in the TaskSim spirit: the fused
//! loop body is streamed through a ROB of the configured size at the
//! configured dispatch width; each instruction issues when its producers
//! have finished and a functional unit is free; loads draw their service
//! level deterministically from the template's analytic cache mix;
//! off-chip misses are bounded by an MSHR count and stores by the store
//! buffer. Simulating a few hundred iterations reaches the steady state,
//! whose cycles-per-iteration is then extrapolated to the kernel's full
//! trip count by the profiler.
//!
//! **Two lanes, one walk.** The profiler times every window twice: with
//! real DRAM (lane 0) and with "perfect" memory, DRAM serviced at L3
//! latency (lane 1), to split core-bound from memory-bound cycles. One
//! walk advances both lanes in lockstep, every time value being a
//! `[real, perfect]` pair. This is exact because the level an access
//! draws depends only on its template's mix — the [`LevelSampler`] never
//! reads a time — so both passes draw the same level sequence and one
//! draw serves both lanes. Levels 0–2 cost the same in both, so the lanes
//! stay bit-equal until the first level-3 draw; after it their times
//! differ and each lane picks its own functional unit. The walk is
//! latency-bound (chains through dispatch, the FU pools, the producers'
//! finish times and the ROB), and two independent chains in one step let
//! the CPU overlap them.
//!
//! **The lane count is generic.** The perfect-memory lane reads neither
//! the frequency nor the memory technology, so the profile table
//! (`crate::profile`) often already knows it when a real lane is still
//! missing: [`window_cycles`] takes the number of lanes `N` as a
//! constant, 1 or 2, and lane 0 is always the real one (the only one
//! with MSHR bookkeeping). Lanes never read each other's times, so the
//! real lane of a one-lane walk is the real lane of a two-lane walk, bit
//! for bit. One loop serves both counts; it is inlined into each caller,
//! which keeps the two-lane walk as fast as the loop written for two.
//!
//! **Fixed rings.** The ROB and the store buffer never hold more than
//! `rob` / `store_buffer` entries: an instruction arriving at a full one
//! first waits for the oldest entry, which leaves. Each is a ring whose
//! oldest slot is read, then overwritten; a slot never written reads as
//! time 0, which no dispatch or issue time undercuts. MSHRs are subtler:
//! every level-3 load of the real lane takes one (stream-prefetched ones
//! included), but only a demand miss waits — for every outstanding entry
//! except the `MSHRS - 1` newest. So the MSHR ring keeps those newest
//! entries plus the running max of the ones pushed out of it, which the
//! next demand miss consumes. Every float operation takes the operands of
//! the two-pass loop it replaced, in the same order, so both lanes are
//! bit-identical to it (asserted against that loop, kept as the test
//! oracle).
//!
//! **Sorted pools.** The walk asks a functional-unit pool (ALUs, FPUs, the
//! load/store ports) two things: when its earliest unit is free, and to
//! busy that unit until a time no earlier than that. Which of several
//! equally early units is busied cannot change the multiset of free
//! times, so a pool kept sorted answers the first question, bit for bit,
//! exactly as a scan for the earliest slot did — without the scan. A
//! [`Pool`] is a sorted array padded with `+inf` to a width fixed at
//! compile time ([`MAX_UNITS`], the widest pool of any core class), and
//! busying its first unit is a branch-free sorted insert. Every
//! maximum and minimum in the walk is a compare-select on times that are
//! never NaN ([`later`], [`earlier`]) rather than `f64::max`/`f64::min`,
//! whose NaN handling puts extra instructions on the walk's critical
//! path.

use musa_arch::{CoreClass, OooParams};
use musa_trace::Op;

use crate::fusion::FusedBody;
use crate::geometry::CacheGeometry;

/// Outstanding off-chip misses a core can sustain (MSHR entries).
const MSHRS: usize = 16;
/// Fraction of DRAM latency still exposed on prefetched (sequential /
/// strided) streams — the stream prefetcher hides the rest. Random
/// accesses are not prefetchable and pay the full latency.
const PREFETCH_EXPOSED: f64 = 0.15;
/// Fraction of a load's beyond-L1 service latency charged as a dispatch
/// stall: scheduler replays and fill-port pressure partially serialise
/// the front end on every missing load *instruction*. Fused SIMD loads
/// stall once for all their lanes, which is part of why wide vectors pay
/// off on miss-heavy strided code.
const L1_MISS_DISPATCH_STALL: f64 = 0.35;
/// Load/store ports.
const LSU_PORTS: usize = 2;
/// Slots of an ALU or FPU [`Pool`]: the most units of either kind any
/// [`CoreClass`] has. A window with more panics; there is no fallback.
const MAX_UNITS: usize = {
    let mut max = 0;
    let mut i = 0;
    while i < CoreClass::ALL.len() {
        let ooo = CoreClass::ALL[i].ooo();
        if ooo.alus > max {
            max = ooo.alus;
        }
        if ooo.fpus > max {
            max = ooo.fpus;
        }
        i += 1;
    }
    max as usize
};
/// Warm-up fused iterations discarded before measuring.
const WARMUP_ITERS: u32 = 24;
/// Measured fused iterations.
const MEASURE_ITERS: u32 = 192;

/// The real-memory lane, the only one with MSHR bookkeeping.
const REAL: usize = 0;

/// Execution latency (cycles) of non-memory operations.
fn op_latency(op: Op) -> f64 {
    match op {
        Op::IntAlu | Op::Branch | Op::Other => 1.0,
        Op::IntMul => 3.0,
        Op::FpAdd => 3.0,
        Op::FpMul => 4.0,
        Op::FpFma => 5.0,
        Op::FpDiv => 18.0,
        Op::Load | Op::Store => 1.0, // plus cache service, added separately
    }
}

/// Cache-service latencies in cycles at a given core frequency.
#[derive(Debug, Clone, Copy)]
pub struct ServiceLatencies {
    l1: f64,
    l2: f64,
    l3: f64,
    /// Core frequency in GHz (converts per-template DRAM ns).
    ghz: f64,
    /// When true, [`cycles_per_fused_iter`] returns the perfect-memory
    /// lane (DRAM accesses serviced at L3 latency) — used to split
    /// core-bound from memory-bound cycles — else the real one.
    perfect_mem: bool,
}

impl ServiceLatencies {
    /// Latencies from the cache geometry at `ghz`.
    pub fn new(geom: &CacheGeometry, ghz: f64, perfect_mem: bool) -> Self {
        ServiceLatencies {
            l1: geom.l1_latency as f64,
            l2: geom.l2_latency as f64,
            l3: geom.l3_latency as f64,
            ghz,
            perfect_mem,
        }
    }
}

/// Largest-remainder deterministic sampler over the four service levels.
#[derive(Debug, Clone, Copy, Default)]
struct LevelSampler {
    acc: [f64; 4],
}

impl LevelSampler {
    /// Add the per-access probabilities and pick the level with the
    /// largest accumulated mass.
    fn pick(&mut self, p: [f64; 4]) -> usize {
        let mut best = 0;
        let mut best_v = f64::MIN;
        for (i, &pi) in p.iter().enumerate() {
            self.acc[i] += pi;
            if self.acc[i] > best_v {
                best_v = self.acc[i];
                best = i;
            }
        }
        self.acc[best] -= 1.0;
        best
    }
}

/// The pool an instruction issues to.
#[derive(Clone, Copy, PartialEq)]
enum Unit {
    Alu,
    Fpu,
    Load,
    Store,
}

/// One fused instruction, compiled for a walk of `N` lanes.
struct Step<const N: usize> {
    unit: Unit,
    /// Cycles from issue to the result (memory: to the port's release).
    latency: f64,
    /// Cycles the unit stays busy after issue.
    occupancy: f64,
    /// `last_finish` slot of the producer: the never-written sentinel
    /// slot for an instruction without one.
    dep: usize,
    /// Original-body template (finish-time slot and sampler).
    template: usize,
    /// Service-level probabilities (memory only).
    mix: [f64; 4],
    /// A level-3 draw is a demand miss (not stream-prefetched): in the
    /// real lane it waits for the MSHRs.
    demand_miss: bool,
    /// Service latency per level and lane.
    service: [[f64; N]; 4],
    /// Dispatch stall per level and lane (loads beyond L1 only; zero
    /// otherwise).
    stall: [[f64; N]; 4],
}

/// Flatten the body for one walk of `N` lanes at `lat`.
fn compile<const N: usize>(body: &FusedBody, lat: &ServiceLatencies) -> Vec<Step<N>> {
    let sentinel = body.n_templates;
    let slot = |t: u16| {
        let t = usize::from(t);
        assert!(t < sentinel, "template {t} of a {sentinel}-template body");
        t
    };
    body.instrs
        .iter()
        .map(|ins| {
            let unit = match ins.op {
                Op::Load => Unit::Load,
                Op::Store => Unit::Store,
                op if op.is_fp() => Unit::Fpu,
                _ => Unit::Alu,
            };
            let latency = op_latency(ins.op);
            let mut step = Step {
                unit,
                latency,
                // Divides occupy the unit for their full latency.
                occupancy: if ins.op == Op::FpDiv { latency } else { 1.0 },
                dep: ins.dep_template.map_or(sentinel, slot),
                template: slot(ins.template),
                mix: [0.0; 4],
                demand_miss: false,
                service: [[0.0; N]; 4],
                stall: [[0.0; N]; 4],
            };
            if let Unit::Load | Unit::Store = unit {
                let loc = ins.locality.expect("memory op has locality");
                let dram = if loc.row_friendly {
                    // Stream-prefetched: latency mostly hidden; the line
                    // arrives near the L2.
                    lat.l2 + PREFETCH_EXPOSED * loc.mem_latency_ns * lat.ghz
                } else {
                    // Demand miss: MSHR-bounded full latency.
                    lat.l3 + loc.mem_latency_ns * lat.ghz
                };
                step.mix = [loc.mix.p_l1, loc.mix.p_l2, loc.mix.p_l3, loc.mix.p_mem];
                step.demand_miss = !loc.row_friendly;
                let level3 = std::array::from_fn(|l| if l == REAL { dram } else { lat.l3 });
                step.service = [[lat.l1; N], [lat.l2; N], [lat.l3; N], level3];
                if unit == Unit::Load {
                    for level in 1..4 {
                        step.stall[level] = step.service[level].map(|s| L1_MISS_DISPATCH_STALL * s);
                    }
                }
            }
            step
        })
        .collect()
}

/// A ring that is always full: `head` is the entry pushed `len` pushes
/// ago (`zero` while the ring has not wrapped), and `push` overwrites it.
struct Ring<T> {
    slots: Vec<T>,
    pos: usize,
}

impl<T: Copy> Ring<T> {
    fn new(len: usize, zero: T) -> Self {
        assert!(len > 0, "a ring needs a slot");
        Ring {
            slots: vec![zero; len],
            pos: 0,
        }
    }

    fn head(&self) -> T {
        self.slots[self.pos]
    }

    /// Replace the head with `v` and return what it held.
    fn push(&mut self, v: T) -> T {
        let old = std::mem::replace(&mut self.slots[self.pos], v);
        self.pos += 1;
        if self.pos == self.slots.len() {
            self.pos = 0;
        }
        old
    }
}

/// The later of two times (a compare-select: neither is ever NaN).
fn later(a: f64, b: f64) -> f64 {
    if a > b {
        a
    } else {
        b
    }
}

/// The earlier of two times (a compare-select: neither is ever NaN).
fn earlier(a: f64, b: f64) -> f64 {
    if a < b {
        a
    } else {
        b
    }
}

/// A functional-unit pool: its units' next-free times, sorted ascending
/// and padded with `+inf` to `P` slots.
#[derive(Clone, Copy)]
struct Pool<const P: usize>([f64; P]);

impl<const P: usize> Pool<P> {
    /// `units` units (at least one), all free at time 0.
    fn new(units: u32) -> Self {
        let units = units.max(1) as usize;
        assert!(
            units <= P,
            "{units} units exceed a {P}-slot pool: the OoO window supports at most \
             MAX_UNITS = {MAX_UNITS} ALUs or FPUs"
        );
        Pool(std::array::from_fn(|i| {
            if i < units {
                0.0
            } else {
                f64::INFINITY
            }
        }))
    }

    /// When the earliest unit is free.
    fn free(&self) -> f64 {
        self.0[0]
    }

    /// Busy the earliest unit until `v`, no earlier than [`Pool::free`]:
    /// slot 0 leaves and `v` is inserted in order, without a branch.
    fn take(&mut self, v: f64) {
        let r = self.0;
        for j in 0..P - 1 {
            self.0[j] = earlier(r[j + 1], later(r[j], v));
        }
        self.0[P - 1] = later(r[P - 1], v);
    }
}

/// Steady-state timing of a fused body on one core.
///
/// Returns cycles per *fused* iteration, with real memory or — when
/// `lat` says so — perfect memory: a one-lane [`window_cycles`] walk for
/// the real lane, a two-lane one for the perfect lane.
pub fn cycles_per_fused_iter(body: &FusedBody, ooo: &OooParams, lat: &ServiceLatencies) -> f64 {
    if lat.perfect_mem {
        window_cycles::<2>(body, ooo, lat)[1]
    } else {
        window_cycles::<1>(body, ooo, lat)[REAL]
    }
}

/// Steady-state cycles per *fused* iteration of a body on one core, one
/// walk for `N` lanes: `[real]` or `[real, perfect]` (`lat.perfect_mem`
/// is not read).
#[inline(always)]
pub(crate) fn window_cycles<const N: usize>(
    body: &FusedBody,
    ooo: &OooParams,
    lat: &ServiceLatencies,
) -> [f64; N] {
    const { assert!(N == 1 || N == 2, "lane 0 is real memory, lane 1 perfect") };
    if body.instrs.is_empty() {
        return [0.0; N];
    }
    let steps = compile::<N>(body, lat);
    let dispatch_interval = 1.0 / ooo.issue_width as f64;

    // Per-template last completion time, plus the sentinel slot.
    let mut last_finish = vec![[0.0_f64; N]; body.n_templates + 1];
    let mut samplers = vec![LevelSampler::default(); body.n_templates];
    // Completion times of the ROB's entries and store-buffer release
    // times.
    let mut rob = Ring::new(ooo.rob as usize, [0.0_f64; N]);
    let mut store_buf = Ring::new(ooo.store_buffer.max(1) as usize, [0.0_f64; N]);
    // The real lane's newest outstanding off-chip misses, and the latest
    // completion among those pushed out since the last demand miss.
    let mut mshrs = Ring::new(MSHRS - 1, 0.0_f64);
    let mut mshr_evicted = 0.0_f64;
    // Functional-unit pools, per lane.
    let mut alus = [Pool::<MAX_UNITS>::new(ooo.alus); N];
    let mut fpus = [Pool::<MAX_UNITS>::new(ooo.fpus); N];
    let mut lsus = [Pool::<LSU_PORTS>::new(LSU_PORTS as u32); N];

    let mut t_dispatch = [0.0_f64; N];
    let mut t_warm_end = [0.0_f64; N];
    let mut t_end = [0.0_f64; N];

    for iter in 0..WARMUP_ITERS + MEASURE_ITERS {
        for s in &steps {
            // ROB space: dispatch stalls until the head committed; then
            // operand readiness.
            let head = rob.head();
            let producer = last_finish[s.dep];
            let mut ready = [0.0_f64; N];
            for l in 0..N {
                t_dispatch[l] = later(head[l], t_dispatch[l]) + dispatch_interval;
                ready[l] = later(producer[l], t_dispatch[l]);
            }

            // Functional unit and service latency.
            let mut finish = [0.0_f64; N];
            match s.unit {
                Unit::Alu | Unit::Fpu => {
                    for l in 0..N {
                        let pool = if s.unit == Unit::Alu {
                            &mut alus[l]
                        } else {
                            &mut fpus[l]
                        };
                        let issue = later(ready[l], pool.free());
                        pool.take(issue + s.occupancy);
                        finish[l] = issue + s.latency;
                    }
                }
                Unit::Load | Unit::Store => {
                    let mut issue = [0.0_f64; N];
                    for l in 0..N {
                        issue[l] = later(ready[l], lsus[l].free());
                    }
                    let level = samplers[s.template].pick(s.mix);
                    if level == 3 && s.demand_miss {
                        // Demand miss: wait for every outstanding miss
                        // but the `MSHRS - 1` newest.
                        issue[REAL] = later(mshr_evicted, issue[REAL]);
                        mshr_evicted = 0.0;
                    }
                    let service = s.service[level];
                    // Zero for stores and L1 hits: adding it leaves a
                    // (positive) dispatch time's bits unchanged.
                    let stall = s.stall[level];
                    for l in 0..N {
                        t_dispatch[l] += stall[l];
                    }
                    if s.unit == Unit::Store {
                        // Store retires quickly into the buffer; the
                        // buffer entry drains at the service latency.
                        let oldest = store_buf.head();
                        let mut release = [0.0_f64; N];
                        for l in 0..N {
                            issue[l] = later(oldest[l], issue[l]);
                            lsus[l].take(issue[l] + s.latency);
                            release[l] = issue[l] + service[l];
                            finish[l] = issue[l] + s.latency;
                        }
                        store_buf.push(release);
                    } else {
                        for l in 0..N {
                            let freed = issue[l] + s.latency;
                            lsus[l].take(freed);
                            finish[l] = freed + service[l];
                        }
                        if level == 3 {
                            mshr_evicted = later(mshrs.push(finish[REAL]), mshr_evicted);
                        }
                    }
                }
            }

            last_finish[s.template] = finish;
            rob.push(finish);
            for l in 0..N {
                t_end[l] = later(finish[l], t_end[l]);
            }
        }
        if iter + 1 == WARMUP_ITERS {
            for l in 0..N {
                t_warm_end[l] = later(t_end[l], t_dispatch[l]);
            }
        }
    }

    std::array::from_fn(|l| {
        let span = later(later(t_end[l], t_dispatch[l]) - t_warm_end[l], 0.0);
        span / MEASURE_ITERS as f64
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fusion::{fuse, FusedInstr};
    use crate::locality::{analyze_kernel, AccessMix, TemplateLocality};
    use musa_arch::{CoreClass, NodeConfig, VectorWidth};
    use musa_obs::rng::SplitMix64;

    /// Index and value of the smallest element: the reference's pool scan,
    /// which [`Pool`] replaced.
    fn min_slot(v: &[f64]) -> (usize, f64) {
        let mut bi = 0;
        let mut bv = v[0];
        for (i, &x) in v.iter().enumerate().skip(1) {
            if x < bv {
                bi = i;
                bv = x;
            }
        }
        (bi, bv)
    }

    /// The window as it stood before the two lanes: one memory mode per
    /// walk, `VecDeque` ROB / MSHRs / store buffer. Kept as the oracle.
    fn cycles_per_fused_iter_reference(
        body: &FusedBody,
        ooo: &OooParams,
        lat: &ServiceLatencies,
    ) -> f64 {
        if body.instrs.is_empty() {
            return 0.0;
        }
        let rob = ooo.rob as usize;
        let dispatch_interval = 1.0 / ooo.issue_width as f64;

        // Per-template last completion time (dependency tracking).
        let mut last_finish = vec![0.0_f64; body.n_templates];
        // ROB occupancy as a ring of completion times.
        let mut rob_ring: std::collections::VecDeque<f64> =
            std::collections::VecDeque::with_capacity(rob);
        // Functional-unit pools: next-free times.
        let mut alus = vec![0.0_f64; ooo.alus.max(1) as usize];
        let mut fpus = vec![0.0_f64; ooo.fpus.max(1) as usize];
        let mut lsus = vec![0.0_f64; LSU_PORTS];
        // Outstanding off-chip misses.
        let mut mshrs: std::collections::VecDeque<f64> = std::collections::VecDeque::new();
        // Store-buffer entries: release times.
        let mut store_buf: std::collections::VecDeque<f64> = std::collections::VecDeque::new();
        let sb_cap = ooo.store_buffer.max(1) as usize;

        let mut samplers = vec![LevelSampler::default(); body.n_templates];

        let mut t_dispatch = 0.0_f64;
        let mut t_warm_end = 0.0_f64;
        let mut t_end = 0.0_f64;

        let total_iters = WARMUP_ITERS + MEASURE_ITERS;
        for iter in 0..total_iters {
            for ins in &body.instrs {
                // ROB space: dispatch stalls until the head committed.
                if rob_ring.len() >= rob {
                    let head = rob_ring.pop_front().expect("rob non-empty");
                    if head > t_dispatch {
                        t_dispatch = head;
                    }
                }
                t_dispatch += dispatch_interval;

                // Operand readiness.
                let mut ready = t_dispatch;
                if let Some(dep) = ins.dep_template {
                    let f = last_finish[dep as usize];
                    if f > ready {
                        ready = f;
                    }
                }

                // Functional unit and service latency.
                let finish = match ins.op {
                    Op::Load | Op::Store => {
                        // LSU port.
                        let (pi, pfree) = min_slot(&lsus);
                        let mut issue = ready.max(pfree);

                        let loc = ins.locality.expect("memory op has locality");
                        let level = samplers[ins.template as usize].pick([
                            loc.mix.p_l1,
                            loc.mix.p_l2,
                            loc.mix.p_l3,
                            loc.mix.p_mem,
                        ]);
                        let service = match level {
                            0 => lat.l1,
                            1 => lat.l2,
                            2 => lat.l3,
                            _ => {
                                if lat.perfect_mem {
                                    lat.l3
                                } else if loc.row_friendly {
                                    // Stream-prefetched: latency mostly
                                    // hidden; the line arrives near the L2.
                                    lat.l2 + PREFETCH_EXPOSED * loc.mem_latency_ns * lat.ghz
                                } else {
                                    // Demand miss: MSHR-bounded full latency.
                                    while let Some(&f) = mshrs.front() {
                                        if mshrs.len() >= MSHRS {
                                            if f > issue {
                                                issue = f;
                                            }
                                            mshrs.pop_front();
                                        } else {
                                            break;
                                        }
                                    }
                                    lat.l3 + loc.mem_latency_ns * lat.ghz
                                }
                            }
                        };

                        if ins.op == Op::Load && level >= 1 {
                            t_dispatch += L1_MISS_DISPATCH_STALL * service;
                        }
                        if ins.op == Op::Store {
                            // Store retires quickly into the buffer; the
                            // buffer entry drains at the service latency.
                            while store_buf.front().is_some() && store_buf.len() >= sb_cap {
                                let f = store_buf.pop_front().expect("non-empty");
                                if f > issue {
                                    issue = f;
                                }
                            }
                            lsus[pi] = issue + 1.0;
                            store_buf.push_back(issue + service);
                            issue + 1.0
                        } else {
                            lsus[pi] = issue + 1.0;
                            let f = issue + 1.0 + service;
                            if level == 3 && !lat.perfect_mem {
                                mshrs.push_back(f);
                            }
                            f
                        }
                    }
                    op if op.is_fp() => {
                        let (pi, pfree) = min_slot(&fpus);
                        let issue = ready.max(pfree);
                        let l = op_latency(op);
                        // Divides occupy the unit for their full latency.
                        fpus[pi] = issue + if op == Op::FpDiv { l } else { 1.0 };
                        issue + l
                    }
                    op => {
                        let (pi, pfree) = min_slot(&alus);
                        let issue = ready.max(pfree);
                        alus[pi] = issue + 1.0;
                        issue + op_latency(op)
                    }
                };

                last_finish[ins.template as usize] = finish;
                rob_ring.push_back(finish);
                if finish > t_end {
                    t_end = finish;
                }
            }
            if iter + 1 == WARMUP_ITERS {
                t_warm_end = t_end.max(t_dispatch);
            }
        }

        let span = (t_end.max(t_dispatch) - t_warm_end).max(0.0);
        span / MEASURE_ITERS as f64
    }

    /// Both lanes of a two-lane walk against two reference walks, the
    /// one-lane walk against the real one, and the single-lane entry
    /// against each, bit for bit.
    fn assert_lanes_match_reference(body: &FusedBody, ooo: &OooParams, lat: ServiceLatencies) {
        let lat_of = |perfect_mem| ServiceLatencies { perfect_mem, ..lat };
        let want = [false, true].map(|p| cycles_per_fused_iter_reference(body, ooo, &lat_of(p)));
        let got = window_cycles::<2>(body, ooo, &lat);
        assert_eq!(
            got.map(f64::to_bits),
            want.map(f64::to_bits),
            "lanes {got:?} vs reference {want:?} at {ooo:?}, {lat:?}: {body:?}"
        );
        assert_eq!(
            window_cycles::<1>(body, ooo, &lat)[REAL].to_bits(),
            want[REAL].to_bits(),
            "one-lane walk at {ooo:?}, {lat:?}: {body:?}"
        );
        for p in [false, true] {
            assert_eq!(
                cycles_per_fused_iter(body, ooo, &lat_of(p)).to_bits(),
                want[usize::from(p)].to_bits(),
                "single-lane entry, perfect_mem {p}"
            );
        }
    }

    const OPS: [Op; 10] = [
        Op::IntAlu,
        Op::IntMul,
        Op::FpAdd,
        Op::FpMul,
        Op::FpFma,
        Op::FpDiv,
        Op::Load,
        Op::Store,
        Op::Branch,
        Op::Other,
    ];

    /// A seeded synthetic body: every op, producers earlier in the body,
    /// carried or none, and memory mixes that are random, never DRAM
    /// (`p_mem` = 0) or always DRAM (`p_mem` = 1). One case in four is
    /// store-heavy; one in four is a run of stream-prefetched DRAM loads
    /// longer than the MSHR count, all waiting on a pointer chase of
    /// demand misses (so they issue late and are outstanding together),
    /// closed by an independent demand miss that must wait for the MSHRs.
    fn random_body(rng: &mut SplitMix64) -> FusedBody {
        let below = |rng: &mut SplitMix64, n: usize| (rng.next_u64() % n as u64) as usize;
        let shape = below(rng, 4);
        const CHASE: usize = 3;
        let n_templates = if shape == 0 {
            CHASE + MSHRS + 1 + below(rng, 24)
        } else {
            1 + below(rng, 24)
        };
        let demand_miss = |t: usize| t < CHASE || t + 1 == n_templates;
        let locality = |rng: &mut SplitMix64, dram_only: bool| {
            let mix = if dram_only {
                AccessMix {
                    p_l1: 0.0,
                    p_l2: 0.0,
                    p_l3: 0.0,
                    p_mem: 1.0,
                }
            } else {
                let mut w = [0.0; 4].map(|_| rng.next_f64());
                match below(rng, 3) {
                    0 => w[3] = 0.0,
                    1 => w = [0.0, 0.0, 0.0, 1.0],
                    _ => {}
                }
                let sum: f64 = w.iter().sum();
                AccessMix {
                    p_l1: w[0] / sum,
                    p_l2: w[1] / sum,
                    p_l3: w[2] / sum,
                    p_mem: w[3] / sum,
                }
            };
            TemplateLocality {
                mix,
                lines_per_access: 1.0,
                row_friendly: below(rng, 2) == 0,
                mem_latency_ns: 40.0 + rng.next_f64() * 120.0,
            }
        };
        let templates: Vec<FusedInstr> = (0..n_templates)
            .map(|t| {
                let op = match shape {
                    0 if demand_miss(t) => [Op::Load, Op::Store][below(rng, 2)],
                    0 => Op::Load,
                    1 if below(rng, 2) == 0 => Op::Store,
                    _ => OPS[below(rng, OPS.len())],
                };
                let (dep_template, carried) = match (shape, below(rng, 3)) {
                    (0, _) if t + 1 == n_templates => (None, false),
                    (0, _) if t > 0 => (Some(t.min(CHASE) as u16 - 1), false),
                    (_, 0) => (None, false),
                    (_, 1) if t > 0 => (Some(below(rng, t) as u16), false),
                    _ => (Some(t as u16), true),
                };
                let locality = op.is_mem().then(|| {
                    let mut loc = locality(rng, shape == 0);
                    if shape == 0 {
                        loc.row_friendly = !demand_miss(t);
                    }
                    loc
                });
                FusedInstr {
                    op,
                    dep_template,
                    carried,
                    template: t as u16,
                    locality,
                    lines_per_access: 1.0,
                    lanes: 1,
                }
            })
            .collect();
        // Templates repeat, as unmarked ones do across sub-iterations.
        let instrs = match shape {
            0 => templates,
            _ => (0..1 + below(rng, 3 * n_templates))
                .map(|_| templates[below(rng, n_templates)])
                .collect(),
        };
        FusedBody {
            instrs,
            f_eff: 1,
            n_templates,
        }
    }

    /// A seeded small window: ROBs, widths and store buffers of a few
    /// entries, and unit counts from zero (clamped to one) up to the pool
    /// cap.
    fn random_ooo(rng: &mut SplitMix64) -> OooParams {
        let below = |rng: &mut SplitMix64, n: u64| (rng.next_u64() % n) as u32;
        OooParams {
            rob: 1 + below(rng, 8),
            issue_width: 1 + below(rng, 8),
            store_buffer: below(rng, 4),
            alus: below(rng, MAX_UNITS as u64 + 1),
            fpus: below(rng, MAX_UNITS as u64 + 1),
            int_rf: 0,
            fp_rf: 0,
        }
    }

    /// A seeded tie-heavy case: a long run of ALU and FPU ops, independent
    /// of each other and each waiting on one long-latency producer or on
    /// none, dispatched wider than either pool. The ops released together
    /// by the producer issue at one time on several units, which then
    /// share a free time, as do all units at the start.
    fn tie_heavy_case(rng: &mut SplitMix64) -> (FusedBody, OooParams) {
        let below = |rng: &mut SplitMix64, n: usize| (rng.next_u64() % n as u64) as usize;
        const ALU_FPU: [Op; 7] = [
            Op::IntAlu,
            Op::Branch,
            Op::Other,
            Op::IntMul,
            Op::FpAdd,
            Op::FpMul,
            Op::FpFma,
        ];
        let n_templates = 2 + below(rng, 8);
        let templates: Vec<FusedInstr> = (0..n_templates)
            .map(|t| FusedInstr {
                op: if t == 0 {
                    [Op::FpDiv, Op::IntMul][below(rng, 2)]
                } else {
                    ALU_FPU[below(rng, ALU_FPU.len())]
                },
                dep_template: (t > 0 && below(rng, 4) != 0).then_some(0),
                carried: false,
                template: t as u16,
                locality: None,
                lines_per_access: 1.0,
                lanes: 1,
            })
            .collect();
        let instrs = std::iter::once(templates[0])
            .chain((0..16 + below(rng, 48)).map(|_| templates[1 + below(rng, n_templates - 1)]))
            .collect();
        let alus = 1 + below(rng, MAX_UNITS) as u32;
        let fpus = 1 + below(rng, MAX_UNITS) as u32;
        let ooo = OooParams {
            rob: 8 + below(rng, 64) as u32,
            issue_width: alus.max(fpus) + 1 + below(rng, 4) as u32,
            store_buffer: 1,
            alus,
            fpus,
            int_rf: 0,
            fp_rf: 0,
        };
        let body = FusedBody {
            instrs,
            f_eff: 1,
            n_templates,
        };
        (body, ooo)
    }

    #[test]
    fn both_lanes_equal_the_reference_bit_for_bit_on_random_bodies() {
        musa_obs::rng::check_cases(400, |rng| {
            let body = random_body(rng);
            let ooo = random_ooo(rng);
            let lat = ServiceLatencies {
                l1: 4.0,
                l2: 10.0 + rng.next_f64() * 8.0,
                l3: 30.0 + rng.next_f64() * 30.0,
                ghz: [1.5, 2.0, 2.5, 3.0][(rng.next_u64() % 4) as usize],
                perfect_mem: false,
            };
            let class = CoreClass::ALL[(rng.next_u64() % 4) as usize];
            for ooo in [ooo, class.ooo()] {
                assert_lanes_match_reference(&body, &ooo, lat);
            }
            let (body, ooo) = tie_heavy_case(rng);
            assert_lanes_match_reference(&body, &ooo, lat);
        });
        let empty = FusedBody {
            instrs: vec![],
            f_eff: 1,
            n_templates: 0,
        };
        assert_lanes_match_reference(&empty, &CoreClass::High.ooo(), lat(false));
    }

    /// Random `take` sequences, with many equal times, leave a sorted pool
    /// with the minimum — and the multiset — of the scan-and-overwrite
    /// pool it replaced, after every step.
    #[test]
    fn a_sorted_pool_keeps_the_scanned_pools_minimum() {
        fn check<const P: usize>(rng: &mut SplitMix64, units: usize) {
            let mut pool = Pool::<P>::new(units as u32);
            let mut slots = vec![0.0_f64; units.max(1)];
            for step in 0..64 {
                let (i, min) = min_slot(&slots);
                assert_eq!(pool.free().to_bits(), min.to_bits(), "step {step}");
                // Mostly small whole steps, so that units share free times.
                let v = match rng.next_u64() % 4 {
                    0 => min,
                    1 => min + rng.next_f64() * 4.0,
                    _ => min + (rng.next_u64() % 3) as f64,
                };
                slots[i] = v;
                pool.take(v);
                let mut sorted = slots.clone();
                sorted.sort_by(f64::total_cmp);
                assert_eq!(&pool.0[..sorted.len()], &sorted[..], "step {step}");
                assert!(pool.0[sorted.len()..].iter().all(|&x| x == f64::INFINITY));
            }
        }
        musa_obs::rng::check_cases(200, |rng| {
            let units = (rng.next_u64() % (MAX_UNITS as u64 + 1)) as usize;
            check::<MAX_UNITS>(rng, units);
            check::<LSU_PORTS>(rng, LSU_PORTS);
        });
    }

    #[test]
    fn every_core_class_fits_the_pool_cap() {
        for class in CoreClass::ALL {
            let ooo = class.ooo();
            assert!(
                ooo.alus as usize <= MAX_UNITS && ooo.fpus as usize <= MAX_UNITS,
                "{class}: {} ALUs / {} FPUs over MAX_UNITS = {MAX_UNITS}",
                ooo.alus,
                ooo.fpus
            );
        }
        let widest = CoreClass::ALL.map(|c| c.ooo().alus.max(c.ooo().fpus));
        assert_eq!(widest.into_iter().max(), Some(MAX_UNITS as u32));
    }

    #[test]
    #[should_panic(expected = "the OoO window supports at most MAX_UNITS")]
    fn a_core_wider_than_the_pool_cap_panics() {
        let ooo = OooParams {
            alus: MAX_UNITS as u32 + 1,
            ..CoreClass::Aggressive.ooo()
        };
        let body = setup(musa_apps::AppId::Hydro, VectorWidth::V128);
        cycles_per_fused_iter(&body, &ooo, &lat(false));
    }

    /// Every window the paper-scale design space times: the 135 fused
    /// bodies of the five applications' kernels at every core count,
    /// cache and SIMD width, under every OoO class and frequency.
    #[test]
    #[ignore = "2,160 paper-scale windows; scripts/check.sh runs it in release"]
    fn both_lanes_equal_the_reference_on_every_paper_scale_window() {
        use musa_arch::{CacheConfig, CoresPerNode, Frequency};
        let mut bodies = 0;
        for app in musa_apps::AppId::ALL {
            let trace = musa_apps::generate(app, &musa_apps::GenParams::paper());
            let detail = trace.detail.as_ref().unwrap();
            let items = trace.sampled_region().unwrap().work.items();
            let ws: f64 = items
                .iter()
                .flat_map(|w| &w.kernels)
                .filter_map(|inv| detail.kernel(inv.kernel))
                .map(crate::locality::kernel_footprint_bytes)
                .sum();
            for cores in CoresPerNode::ALL {
                let active = (items.len() as u32).min(cores.count()).max(1);
                for cache in CacheConfig::ALL {
                    let cfg = NodeConfig::REFERENCE.with_cores(cores).with_cache(cache);
                    let geom = CacheGeometry::new(&cfg, active);
                    for k in &detail.kernels {
                        let loc = analyze_kernel(k, &geom, ws);
                        for width in VectorWidth::DSE {
                            let body = fuse(k, &loc, width);
                            bodies += 1;
                            for class in CoreClass::ALL {
                                for freq in Frequency::ALL {
                                    let lat = ServiceLatencies::new(&geom, freq.ghz(), false);
                                    assert_lanes_match_reference(&body, &class.ooo(), lat);
                                }
                            }
                        }
                    }
                }
            }
        }
        assert_eq!(bodies, 135, "paper-scale fused bodies");
    }

    fn setup(app: musa_apps::AppId, width: VectorWidth) -> FusedBody {
        let trace = musa_apps::generate(app, &musa_apps::GenParams::tiny());
        let detail = trace.detail.as_ref().unwrap();
        let k = &detail.kernels[0];
        // Region working set as NodeSim computes it: one footprint per
        // kernel invocation of the sampled region.
        let ws: f64 = trace
            .sampled_region()
            .unwrap()
            .work
            .items()
            .iter()
            .flat_map(|w| &w.kernels)
            .filter_map(|inv| detail.kernel(inv.kernel))
            .map(crate::locality::kernel_footprint_bytes)
            .sum();
        let geom = CacheGeometry::new(&NodeConfig::REFERENCE, 32);
        let loc = analyze_kernel(k, &geom, ws);
        fuse(k, &loc, width)
    }

    fn lat(perfect: bool) -> ServiceLatencies {
        let geom = CacheGeometry::new(&NodeConfig::REFERENCE, 32);
        ServiceLatencies::new(&geom, 2.0, perfect)
    }

    #[test]
    fn wider_issue_is_never_slower() {
        let body = setup(musa_apps::AppId::Hydro, VectorWidth::V128);
        let mut prev = f64::MAX;
        for class in CoreClass::ALL {
            let c = cycles_per_fused_iter(&body, &class.ooo(), &lat(false));
            assert!(c > 0.0);
            assert!(
                c <= prev * 1.001,
                "{class:?} slower than weaker class: {c} > {prev}"
            );
            prev = c;
        }
    }

    #[test]
    fn perfect_memory_is_faster_for_latency_bound_code() {
        // Specfem3D's random gathers cannot be prefetched: DRAM latency
        // is exposed.
        let body = setup(musa_apps::AppId::Spec3d, VectorWidth::V128);
        let ooo = CoreClass::High.ooo();
        let real = cycles_per_fused_iter(&body, &ooo, &lat(false));
        let perfect = cycles_per_fused_iter(&body, &ooo, &lat(true));
        assert!(
            perfect < real * 0.9,
            "Specfem3D must be latency-bound: perfect={perfect} real={real}"
        );
    }

    #[test]
    fn simd_fusion_speeds_up_spmz_but_not_lulesh() {
        let ooo = CoreClass::High.ooo();
        let t = |app, w| {
            let b = setup(app, w);
            cycles_per_fused_iter(&b, &ooo, &lat(false)) / b.f_eff as f64
        };
        let spmz_128 = t(musa_apps::AppId::Spmz, VectorWidth::V128);
        let spmz_512 = t(musa_apps::AppId::Spmz, VectorWidth::V512);
        assert!(
            spmz_512 < spmz_128 * 0.75,
            "SPMZ 512-bit: {spmz_512} vs {spmz_128}"
        );
        let lul_128 = t(musa_apps::AppId::Lulesh, VectorWidth::V128);
        let lul_512 = t(musa_apps::AppId::Lulesh, VectorWidth::V512);
        assert!(
            (lul_512 - lul_128).abs() / lul_128 < 0.05,
            "LULESH flat: {lul_512} vs {lul_128}"
        );
    }

    #[test]
    fn spec3d_is_most_ooo_sensitive() {
        let slowdown = |app| {
            let b = setup(app, VectorWidth::V128);
            let low = cycles_per_fused_iter(&b, &CoreClass::LowEnd.ooo(), &lat(false));
            let agg = cycles_per_fused_iter(&b, &CoreClass::Aggressive.ooo(), &lat(false));
            low / agg
        };
        let spec = slowdown(musa_apps::AppId::Spec3d);
        let hydro = slowdown(musa_apps::AppId::Hydro);
        assert!(spec > 1.8, "spec3d low-end slowdown {spec}");
        // Chain-bound HYDRO gains less from a deep window than the
        // MLP-rich Specfem3D (paper: 60 % vs 35 % low-end penalty).
        assert!(spec > hydro, "spec3d ({spec}) must exceed hydro ({hydro})");
    }

    #[test]
    fn frequency_shrinks_cache_bound_time_not_memory_time() {
        // At higher GHz, DRAM ns cost more cycles: cycles/iter grows for
        // memory-bound code.
        let body = setup(musa_apps::AppId::Lulesh, VectorWidth::V128);
        let ooo = CoreClass::High.ooo();
        let geom = CacheGeometry::new(&NodeConfig::REFERENCE, 32);
        let c2 = cycles_per_fused_iter(&body, &ooo, &ServiceLatencies::new(&geom, 2.0, false));
        let c3 = cycles_per_fused_iter(&body, &ooo, &ServiceLatencies::new(&geom, 3.0, false));
        assert!(c3 > c2, "more cycles per iter at 3 GHz: {c3} vs {c2}");
        // But wall-clock still improves (sub-linear).
        assert!(c3 / 3.0 < c2 / 2.0);
    }

    #[test]
    fn empty_body_is_zero_cycles() {
        let b = FusedBody {
            instrs: vec![],
            f_eff: 1,
            n_templates: 0,
        };
        assert_eq!(
            cycles_per_fused_iter(&b, &CoreClass::High.ooo(), &lat(false)),
            0.0
        );
    }
}
