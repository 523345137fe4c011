//! Windowed out-of-order pipeline timing model.
//!
//! A limited-window dataflow simulation in the TaskSim spirit: the fused
//! loop body is streamed through a ROB of the configured size at the
//! configured dispatch width; each instruction issues when its producers
//! have finished and a functional unit is free; loads draw their service
//! level deterministically from the template's analytic cache mix;
//! off-chip misses are bounded by an MSHR count and stores by the store
//! buffer. The walk's steady-state cycles per iteration is extrapolated
//! to the kernel's full trip count by the profiler.
//!
//! **A walk stops when it settles.** After [`WARMUP_ITERS`] warm-up
//! iterations a walk measures blocks of [`BLOCK_ITERS`] iterations, and
//! it stops at the first block whose span (cycles) agrees with the
//! previous block's within [`SETTLE_EPS`], relatively. Its estimate is
//! the span since warm-up divided by the iterations measured; a walk
//! that never settles stops at the cap, [`MEASURE_ITERS`], with exactly
//! the estimate of a fixed-length walk. This is a declared model change
//! against the fixed 216-iteration walk, kept under `#[cfg(test)]` as
//! the reference; on the paper slice no walk lands more than 1 % from
//! it, while 64-bit walks of the expanded space reach 1.5 %
//! (EXPERIMENTS.md, "Window length", scores the cut).
//!
//! **One memory per walk.** A walk times real DRAM, or — when
//! [`ServiceLatencies`] says so — "perfect" memory: a level-3 draw is
//! serviced at L3 latency and never waits for an MSHR. The profiler walks
//! real memory only; the node simulation prices bandwidth contention on
//! top of it as a roofline.
//!
//! **DRAM-free windows.** Whether a walk ever draws level 3 is a property
//! of the body alone ([`draws_dram`] replays the draws without the
//! times): the [`LevelSampler`] never reads a time. A body that never
//! draws it reads neither the frequency nor the DRAM latency, so its
//! real walk is one value at every frequency and technology, and equals
//! its perfect-memory walk. Everything else a walk reads, apart from the
//! core class, is [`walk_input`]: the profile table keys its walks by
//! that content, and one walk of a DRAM-free input serves every
//! frequency and technology.
//!
//! **Fixed rings.** The ROB and the store buffer never hold more than
//! `rob` / `store_buffer` entries: an instruction arriving at a full one
//! first waits for the oldest entry, which leaves. Each is a ring whose
//! oldest slot is read, then overwritten; a slot never written reads as
//! time 0, which no dispatch or issue time undercuts. MSHRs are subtler:
//! every level-3 load takes one (stream-prefetched ones included), but
//! only a demand miss waits — for every outstanding entry except the
//! `MSHRS - 1` newest. So the MSHR ring keeps those newest entries plus
//! the running max of the ones pushed out of it, which the next demand
//! miss consumes. Every float operation takes the operands of the
//! two-pass loop it replaced, in the same order, so a walk in either
//! memory is bit-identical to it (asserted against that loop, kept as
//! the test oracle).
//!
//! **Sorted pools.** The walk asks a functional-unit pool (ALUs, FPUs, the
//! load/store ports) two things: when its earliest unit is free, and to
//! busy that unit until a time no earlier than that. Which of several
//! equally early units is busied cannot change the multiset of free
//! times, so a pool kept sorted answers the first question, bit for bit,
//! exactly as a scan for the earliest slot did — without the scan. A
//! [`Pool`] is a sorted array of a width fixed at compile time, and
//! busying its first unit is a branch-free sorted insert. The pools are
//! as wide as the core: [`window_cycles`] walks each [`CoreClass`]'s
//! window with an instance whose ALU and FPU pools hold exactly that
//! class's unit counts, as the pool update is the walk's critical path
//! and an empty slot costs a compare-select on every issue. Only a
//! window of no class (the tests' random ones) walks pools padded with
//! `+inf` to [`MAX_UNITS`], the widest pool of any class. Every
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
/// Slots of the padded ALU and FPU [`Pool`]s a window of no
/// [`CoreClass`] walks: the most units of either kind any class has. A
/// window with more panics; there is no fallback.
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
/// Most fused iterations a walk measures: one that never settles stops
/// here.
const MEASURE_ITERS: u32 = 192;
/// Fused iterations per block of the stop rule.
const BLOCK_ITERS: u32 = 24;
/// Largest relative difference between two successive blocks' spans at
/// which a walk has settled.
const SETTLE_EPS: f64 = 0.0075;

/// When a walk stops measuring: at the end of the first block of
/// `block` iterations whose span agrees with the previous block's within
/// `eps` (relative), or at the cap.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StopRule {
    block: u32,
    eps: f64,
}

impl StopRule {
    /// The rule every profile walk uses.
    pub(crate) const SETTLED: StopRule = StopRule::new(BLOCK_ITERS, SETTLE_EPS);

    const fn new(block: u32, eps: f64) -> StopRule {
        assert!(
            block > 0 && MEASURE_ITERS.is_multiple_of(block),
            "blocks must tile the measured iterations"
        );
        StopRule { block, eps }
    }
}

/// What a walk found: cycles per fused iteration, and the iterations
/// measured after warm-up when it stopped.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Lane {
    pub(crate) cycles: f64,
    /// Read by the tests, which check where each walk stopped.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) measured: u32,
}

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
    /// When true, a walk times perfect memory: DRAM accesses serviced at
    /// L3 latency, without MSHR waits.
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

/// One fused instruction, compiled for a walk.
struct Step {
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
    /// A level-3 draw waits for the MSHRs: a demand miss (not
    /// stream-prefetched) to real memory.
    demand_miss: bool,
    /// Service latency per level.
    service: [f64; 4],
    /// Dispatch stall per level (loads beyond L1 only; zero otherwise).
    stall: [f64; 4],
}

/// Flatten the body for one walk at `lat`.
fn compile(body: &FusedBody, lat: &ServiceLatencies) -> Vec<Step> {
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
                service: [0.0; 4],
                stall: [0.0; 4],
            };
            if let Unit::Load | Unit::Store = unit {
                let loc = ins.locality.expect("memory op has locality");
                let dram = if lat.perfect_mem {
                    lat.l3
                } else if loc.row_friendly {
                    // Stream-prefetched: latency mostly hidden; the line
                    // arrives near the L2.
                    lat.l2 + PREFETCH_EXPOSED * loc.mem_latency_ns * lat.ghz
                } else {
                    // Demand miss: MSHR-bounded full latency.
                    lat.l3 + loc.mem_latency_ns * lat.ghz
                };
                step.mix = [loc.mix.p_l1, loc.mix.p_l2, loc.mix.p_l3, loc.mix.p_mem];
                step.demand_miss = !loc.row_friendly && !lat.perfect_mem;
                step.service = [lat.l1, lat.l2, lat.l3, dram];
                if unit == Unit::Load {
                    for level in 1..4 {
                        step.stall[level] = L1_MISS_DISPATCH_STALL * step.service[level];
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
pub(crate) fn later(a: f64, b: f64) -> f64 {
    if a > b {
        a
    } else {
        b
    }
}

/// The earlier of two times (a compare-select: neither is ever NaN).
pub(crate) fn earlier(a: f64, b: f64) -> f64 {
    if a < b {
        a
    } else {
        b
    }
}

/// A functional-unit pool: its units' next-free times, sorted ascending,
/// in `P` slots; slots beyond its units hold `+inf`.
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
    /// slot 0 leaves and `v` is inserted in order, without a branch. As
    /// `v` is no earlier than the slot that leaves, slot 0 takes the
    /// earlier of `v` and slot 1 (a one-slot pool just holds `v`). The
    /// tests on `j` fold away in the unrolled loop.
    fn take(&mut self, v: f64) {
        let r = self.0;
        for j in 0..P {
            let kept = if j == 0 { v } else { later(r[j], v) };
            self.0[j] = if j + 1 < P {
                earlier(r[j + 1], kept)
            } else {
                kept
            };
        }
    }
}

/// Steady-state timing of a fused body on one core.
///
/// Returns cycles per *fused* iteration, with real memory or — when
/// `lat` says so — perfect memory.
pub fn cycles_per_fused_iter(body: &FusedBody, ooo: &OooParams, lat: &ServiceLatencies) -> f64 {
    window_cycles(body, ooo, lat, StopRule::SETTLED).cycles
}

/// A core class's ALU and FPU counts: the widths of its pools.
const fn pool_widths(class: CoreClass) -> (usize, usize) {
    let ooo = class.ooo();
    (ooo.alus as usize, ooo.fpus as usize)
}
const LOW_END: (usize, usize) = pool_widths(CoreClass::LowEnd);
const MEDIUM: (usize, usize) = pool_widths(CoreClass::Medium);
const HIGH: (usize, usize) = pool_widths(CoreClass::High);
const AGGRESSIVE: (usize, usize) = pool_widths(CoreClass::Aggressive);

/// Steady-state cycles per *fused* iteration of a body on one core, in
/// the memory `lat` names, the walk stopping by `rule`. A core class's
/// window walks pools of exactly its unit counts; any other window walks
/// pools padded to [`MAX_UNITS`]. Inlined into each caller: one shared
/// copy walked the profile table's windows ≈ 8 % slower (see DESIGN.md,
/// "One window walk").
#[inline(always)]
pub(crate) fn window_cycles(
    body: &FusedBody,
    ooo: &OooParams,
    lat: &ServiceLatencies,
    rule: StopRule,
) -> Lane {
    if body.instrs.is_empty() {
        return Lane {
            cycles: 0.0,
            measured: 0,
        };
    }
    match (ooo.alus as usize, ooo.fpus as usize) {
        LOW_END => walk::<{ LOW_END.0 }, { LOW_END.1 }>(body, ooo, lat, rule),
        MEDIUM => walk::<{ MEDIUM.0 }, { MEDIUM.1 }>(body, ooo, lat, rule),
        HIGH => walk::<{ HIGH.0 }, { HIGH.1 }>(body, ooo, lat, rule),
        AGGRESSIVE => walk::<{ AGGRESSIVE.0 }, { AGGRESSIVE.1 }>(body, ooo, lat, rule),
        _ => walk::<MAX_UNITS, MAX_UNITS>(body, ooo, lat, rule),
    }
}

/// [`window_cycles`] of a non-empty body with `A` ALU and `F` FPU slots.
#[inline(always)]
fn walk<const A: usize, const F: usize>(
    body: &FusedBody,
    ooo: &OooParams,
    lat: &ServiceLatencies,
    rule: StopRule,
) -> Lane {
    #[cfg(test)]
    tests::WALKED_WIDTHS.set((A, F));
    let steps = compile(body, lat);
    let dispatch_interval = 1.0 / ooo.issue_width as f64;

    // Per-template last completion time, plus the sentinel slot.
    let mut last_finish = vec![0.0_f64; body.n_templates + 1];
    let mut samplers = vec![LevelSampler::default(); body.n_templates];
    // Completion times of the ROB's entries and store-buffer release
    // times.
    let mut rob = Ring::new(ooo.rob as usize, 0.0_f64);
    let mut store_buf = Ring::new(ooo.store_buffer.max(1) as usize, 0.0_f64);
    // The newest outstanding off-chip misses, and the latest completion
    // among those pushed out since the last demand miss.
    let mut mshrs = Ring::new(MSHRS - 1, 0.0_f64);
    let mut mshr_evicted = 0.0_f64;
    // Functional-unit pools.
    let mut alus = Pool::<A>::new(ooo.alus);
    let mut fpus = Pool::<F>::new(ooo.fpus);
    let mut lsus = Pool::<LSU_PORTS>::new(LSU_PORTS as u32);

    let mut t_dispatch = 0.0_f64;
    let mut t_end = 0.0_f64;
    // When warm-up ended, and when the last block ended and how long it
    // took.
    let mut t_warm_end = 0.0_f64;
    let mut t_block_end = 0.0_f64;
    let mut block_span = 0.0_f64;

    for iters in 1..=WARMUP_ITERS + MEASURE_ITERS {
        for s in &steps {
            // ROB space: dispatch stalls until the head committed; then
            // operand readiness.
            t_dispatch = later(rob.head(), t_dispatch) + dispatch_interval;
            let ready = later(last_finish[s.dep], t_dispatch);

            // Functional unit and service latency: a unit of the step's
            // pool issues it when ready. One arm per pool, so that neither
            // is picked by address.
            let finish = match s.unit {
                Unit::Alu => {
                    let issue = later(ready, alus.free());
                    alus.take(issue + s.occupancy);
                    issue + s.latency
                }
                Unit::Fpu => {
                    let issue = later(ready, fpus.free());
                    fpus.take(issue + s.occupancy);
                    issue + s.latency
                }
                Unit::Load | Unit::Store => {
                    let mut issue = later(ready, lsus.free());
                    let level = samplers[s.template].pick(s.mix);
                    if level == 3 && s.demand_miss {
                        // Demand miss: wait for every outstanding miss
                        // but the `MSHRS - 1` newest.
                        issue = later(mshr_evicted, issue);
                        mshr_evicted = 0.0;
                    }
                    // Zero for stores and L1 hits: adding it leaves a
                    // (positive) dispatch time's bits unchanged.
                    t_dispatch += s.stall[level];
                    if s.unit == Unit::Store {
                        // Store retires quickly into the buffer; the
                        // buffer entry drains at the service latency.
                        issue = later(store_buf.head(), issue);
                        lsus.take(issue + s.latency);
                        store_buf.push(issue + s.service[level]);
                        issue + s.latency
                    } else {
                        let freed = issue + s.latency;
                        lsus.take(freed);
                        let finish = freed + s.service[level];
                        if level == 3 {
                            mshr_evicted = later(mshrs.push(finish), mshr_evicted);
                        }
                        finish
                    }
                }
            };

            last_finish[s.template] = finish;
            rob.push(finish);
            t_end = later(finish, t_end);
        }
        if iters == WARMUP_ITERS {
            t_warm_end = later(t_end, t_dispatch);
            t_block_end = t_warm_end;
        }
        let measured = iters.saturating_sub(WARMUP_ITERS);
        if measured == 0 || measured % rule.block != 0 {
            continue;
        }
        let t = later(t_end, t_dispatch);
        let span = t - t_block_end;
        let settled = measured > rule.block && (span - block_span).abs() <= rule.eps * block_span;
        if settled || measured == MEASURE_ITERS {
            return Lane {
                cycles: later(t - t_warm_end, 0.0) / measured as f64,
                measured,
            };
        }
        t_block_end = t;
        block_span = span;
    }
    unreachable!("a walk stops at the cap")
}

/// Everything a walk of `body` at `lat` reads except the core class, the
/// frequency and the DRAM latencies, as words: the template count, the
/// L1/L2/L3 cycles, and per instruction its op, producer and template,
/// plus a memory instruction's mix and `row_friendly`. Two bodies with
/// equal inputs walk alike under one core class: with perfect memory,
/// and with real memory at one frequency and DRAM latency per template.
/// Nothing else of a [`FusedInstr`](crate::fusion::FusedInstr)
/// is read: not `lines_per_access`, `carried` or `lanes`.
pub(crate) fn walk_input(body: &FusedBody, lat: &ServiceLatencies) -> Vec<u64> {
    let mem = body.instrs.iter().filter(|ins| ins.op.is_mem()).count();
    let mut input = Vec::with_capacity(4 + body.instrs.len() + 4 * mem);
    input.extend([
        body.n_templates as u64,
        lat.l1.to_bits(),
        lat.l2.to_bits(),
        lat.l3.to_bits(),
    ]);
    for ins in &body.instrs {
        // 16 bits of template, 17 of producer (or none), then the op.
        let dep = ins.dep_template.map_or(1 << 16, u64::from);
        let word = (ins.op as u64) << 40 | dep << 16 | u64::from(ins.template);
        if ins.op.is_mem() {
            let loc = ins.locality.expect("memory op has locality");
            let m = loc.mix;
            input.push(word | u64::from(loc.row_friendly) << 48);
            input.extend([m.p_l1, m.p_l2, m.p_l3, m.p_mem].map(f64::to_bits));
        } else {
            input.push(word);
        }
    }
    input
}

/// Whether a walk of `body` ever draws level 3 (DRAM): the walk's level
/// draws alone, in walk order, up to the first level-3 one. A body that
/// never does walks alike at every frequency and DRAM latency, and in
/// either memory (see the module docs).
pub(crate) fn draws_dram(body: &FusedBody) -> bool {
    // The samplers of a body of up to 64 templates stay on the stack.
    let mut stack = [LevelSampler::default(); 64];
    let mut heap = Vec::new();
    let samplers = match stack.get_mut(..body.n_templates) {
        Some(samplers) => samplers,
        None => {
            heap.resize(body.n_templates, LevelSampler::default());
            &mut heap[..]
        }
    };
    for _ in 0..WARMUP_ITERS + MEASURE_ITERS {
        for ins in body.instrs.iter().filter(|ins| ins.op.is_mem()) {
            let m = ins.locality.expect("memory op has locality").mix;
            if samplers[usize::from(ins.template)].pick([m.p_l1, m.p_l2, m.p_l3, m.p_mem]) == 3 {
                return true;
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fusion::{fuse, FusedInstr};
    use crate::locality::{analyze_kernel, AccessMix, TemplateLocality};
    use musa_arch::{CoreClass, Frequency, MemConfig, NodeConfig, VectorWidth};
    use musa_obs::rng::SplitMix64;

    thread_local! {
        /// The ALU and FPU pool widths of this thread's last walk.
        pub(super) static WALKED_WIDTHS: std::cell::Cell<(usize, usize)> =
            const { std::cell::Cell::new((0, 0)) };
    }

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

    /// The fixed-length walk: one block spanning the cap, so no walk
    /// stops before it.
    const FULL: StopRule = StopRule::new(MEASURE_ITERS, 0.0);

    /// The window as it stood before the fixed rings and sorted pools:
    /// `VecDeque` ROB / MSHRs / store buffer, scanned pools, measuring
    /// `measured` iterations after warm-up. Kept as the oracle.
    fn cycles_per_fused_iter_reference(
        body: &FusedBody,
        ooo: &OooParams,
        lat: &ServiceLatencies,
        measured: u32,
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

        let total_iters = WARMUP_ITERS + measured;
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
        span / measured as f64
    }

    /// A walk in each memory against the reference walk cut where it
    /// stopped, and the public entry against it, bit for bit; and the
    /// fixed-length walk against the reference walk of the full length.
    /// Returns whether either walk stopped before the cap.
    fn assert_walks_match_reference(
        body: &FusedBody,
        ooo: &OooParams,
        lat: ServiceLatencies,
    ) -> bool {
        let mut early = false;
        for perfect_mem in [false, true] {
            let lat = ServiceLatencies { perfect_mem, ..lat };
            let got = window_cycles(body, ooo, &lat, StopRule::SETTLED);
            let want = cycles_per_fused_iter_reference(body, ooo, &lat, got.measured);
            assert_eq!(
                got.cycles.to_bits(),
                want.to_bits(),
                "walk {got:?} vs reference {want} at {ooo:?}, {lat:?}: {body:?}"
            );
            assert_eq!(
                cycles_per_fused_iter(body, ooo, &lat).to_bits(),
                want.to_bits(),
                "public entry at {lat:?}"
            );
            early |= got.measured < MEASURE_ITERS;

            let want = cycles_per_fused_iter_reference(body, ooo, &lat, MEASURE_ITERS);
            let got = window_cycles(body, ooo, &lat, FULL);
            assert_eq!(
                got.cycles.to_bits(),
                want.to_bits(),
                "fixed-length walk {got:?} vs reference {want} at {ooo:?}, {lat:?}: {body:?}"
            );
        }
        early
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

    /// Walks stop before the cap in some cases, and the random windows
    /// walk the padded pools.
    #[test]
    fn walks_in_either_memory_equal_the_reference_bit_for_bit_on_random_bodies() {
        let (mut early, mut padded) = (0, 0);
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
                early += usize::from(assert_walks_match_reference(&body, &ooo, lat));
                padded += usize::from(WALKED_WIDTHS.get() == (MAX_UNITS, MAX_UNITS));
            }
            let (body, ooo) = tie_heavy_case(rng);
            assert_walks_match_reference(&body, &ooo, lat);
        });
        assert!(early > 0, "no walk stopped before the cap");
        assert!(padded > 0, "no walk took the padded pools");
        let empty = FusedBody {
            instrs: vec![],
            f_eff: 1,
            n_templates: 0,
        };
        assert_walks_match_reference(&empty, &CoreClass::High.ooo(), lat(false));
    }

    /// Level-3 draws in a walk of `body`, counted template by template
    /// rather than in walk order: each template's sampler sees only its
    /// own instances, all `WARMUP_ITERS + MEASURE_ITERS` times over.
    fn level3_draws(body: &FusedBody) -> usize {
        let iters = (WARMUP_ITERS + MEASURE_ITERS) as usize;
        (0..body.n_templates)
            .map(|t| {
                let mixes: Vec<[f64; 4]> = body
                    .instrs
                    .iter()
                    .filter(|ins| ins.op.is_mem() && usize::from(ins.template) == t)
                    .map(|ins| {
                        let m = ins.locality.unwrap().mix;
                        [m.p_l1, m.p_l2, m.p_l3, m.p_mem]
                    })
                    .collect();
                let mut sampler = LevelSampler::default();
                (0..iters)
                    .flat_map(|_| &mixes)
                    .filter(|&&p| sampler.pick(p) == 3)
                    .count()
            })
            .sum()
    }

    /// `body` with each memory template's DRAM latency as under `mem`.
    fn with_dram_of(body: &FusedBody, mem: MemConfig) -> FusedBody {
        let geom = CacheGeometry::new(&NodeConfig::REFERENCE.with_mem(mem), 1);
        let mut body = body.clone();
        for loc in body
            .instrs
            .iter_mut()
            .filter_map(|ins| ins.locality.as_mut())
        {
            loc.mem_latency_ns = if loc.row_friendly {
                geom.mem_latency_seq_ns
            } else {
                geom.mem_latency_rand_ns
            };
        }
        body
    }

    /// For a body that never draws DRAM: at every frequency and under
    /// both technologies, the real-memory walk and the perfect-memory
    /// walk are one value, bit for bit, stopped at one iteration.
    fn assert_dram_free_walks_agree(body: &FusedBody, ooo: &OooParams, lat: ServiceLatencies) {
        let key = |lane: Lane| (lane.cycles.to_bits(), lane.measured);
        let want = key(window_cycles(body, ooo, &lat, StopRule::SETTLED));
        for mem in [MemConfig::DDR4_4CH, MemConfig::HBM_16CH] {
            let body = with_dram_of(body, mem);
            for freq in Frequency::ALL {
                let walk = |perfect_mem| {
                    let lat = ServiceLatencies {
                        ghz: freq.ghz(),
                        perfect_mem,
                        ..lat
                    };
                    key(window_cycles(&body, ooo, &lat, StopRule::SETTLED))
                };
                assert_eq!(
                    [walk(false), walk(true)],
                    [want; 2],
                    "DRAM-free walks at {freq:?}, {mem:?}, {ooo:?}: {body:?}"
                );
            }
        }
    }

    /// `draws_dram` agrees with the count of level-3 draws; bodies that
    /// never draw DRAM walk alike whatever the frequency, technology and
    /// memory. Both kinds of body occur.
    #[test]
    fn dram_free_bodies_walk_one_lane_for_all_on_random_bodies() {
        let mut seen = [0; 2];
        musa_obs::rng::check_cases(400, |rng| {
            let body = random_body(rng);
            let draws = draws_dram(&body);
            assert_eq!(draws, level3_draws(&body) > 0, "{body:?}");
            seen[usize::from(draws)] += 1;
            if !draws {
                let lat = ServiceLatencies {
                    l1: 4.0,
                    l2: 10.0 + rng.next_f64() * 8.0,
                    l3: 30.0 + rng.next_f64() * 30.0,
                    ghz: 2.0,
                    perfect_mem: false,
                };
                let class = CoreClass::ALL[(rng.next_u64() % 4) as usize];
                for ooo in [random_ooo(rng), class.ooo()] {
                    assert_dram_free_walks_agree(&body, &ooo, lat);
                }
            }
        });
        assert!(seen.iter().all(|&n| n > 0), "[DRAM-free, DRAM]: {seen:?}");

        // Bodies too long for the samplers on the stack: the last template
        // alone may draw DRAM.
        for p_mem in [0.0, 0.5] {
            let load = |t: u16| FusedInstr {
                op: Op::Load,
                dep_template: None,
                carried: false,
                template: t,
                locality: Some(TemplateLocality {
                    mix: AccessMix {
                        p_l1: 1.0 - if t == 69 { p_mem } else { 0.0 },
                        p_l2: 0.0,
                        p_l3: 0.0,
                        p_mem: if t == 69 { p_mem } else { 0.0 },
                    },
                    lines_per_access: 1.0,
                    row_friendly: false,
                    mem_latency_ns: 80.0,
                }),
                lines_per_access: 1.0,
                lanes: 1,
            };
            let body = FusedBody {
                instrs: (0..70).map(load).collect(),
                f_eff: 1,
                n_templates: 70,
            };
            assert_eq!(draws_dram(&body), p_mem > 0.0);
            assert_eq!(draws_dram(&body), level3_draws(&body) > 0);
        }
    }

    /// Every field `compile` and `window_cycles` read changes the walk
    /// input; fields they do not read, the DRAM latency and the frequency
    /// leave it alone (and the first three leave the walk in either
    /// memory alone too).
    #[test]
    fn walk_input_holds_what_a_walk_reads_and_nothing_else() {
        type Edit = fn(&mut FusedBody, &mut ServiceLatencies);
        fn loc(b: &mut FusedBody) -> &mut TemplateLocality {
            b.instrs[0].locality.as_mut().unwrap()
        }
        fn repeat(b: &mut FusedBody) -> &mut TemplateLocality {
            b.instrs[3].locality.as_mut().unwrap()
        }
        let mem = TemplateLocality {
            mix: AccessMix {
                p_l1: 0.5,
                p_l2: 0.25,
                p_l3: 0.125,
                p_mem: 0.125,
            },
            lines_per_access: 1.0,
            row_friendly: true,
            mem_latency_ns: 60.0,
        };
        let instr = |op, dep_template, template, locality| FusedInstr {
            op,
            dep_template,
            carried: false,
            template,
            locality,
            lines_per_access: 1.0,
            lanes: 1,
        };
        let body = FusedBody {
            instrs: vec![
                instr(Op::Load, None, 0, Some(mem)),
                instr(Op::FpAdd, Some(0), 1, None),
                instr(Op::Store, Some(1), 2, Some(mem)),
                // Template 0 again, as fusion repeats it: each instance
                // has its own mix.
                instr(Op::Load, Some(2), 0, Some(mem)),
            ],
            f_eff: 1,
            n_templates: 3,
        };
        let lat = ServiceLatencies {
            l1: 4.0,
            l2: 13.0,
            l3: 72.0,
            ghz: 2.0,
            perfect_mem: false,
        };
        let ooo = CoreClass::High.ooo();
        let base = walk_input(&body, &lat);
        let edited = |edit: Edit| {
            let (mut b, mut l) = (body.clone(), lat);
            edit(&mut b, &mut l);
            (b, l)
        };
        let read: [(&str, Edit); 16] = [
            ("op", |b, _| b.instrs[1].op = Op::FpMul),
            ("op, load to store", |b, _| b.instrs[0].op = Op::Store),
            ("dep_template", |b, _| b.instrs[2].dep_template = Some(0)),
            ("dep_template, to none", |b, _| {
                b.instrs[1].dep_template = None
            }),
            ("template", |b, _| b.instrs[1].template = 2),
            ("p_l1", |b, _| loc(b).mix.p_l1 = 0.375),
            ("p_l2", |b, _| loc(b).mix.p_l2 = 0.375),
            ("p_l3", |b, _| loc(b).mix.p_l3 = 0.375),
            ("p_mem", |b, _| loc(b).mix.p_mem = 0.375),
            ("row_friendly", |b, _| loc(b).row_friendly = false),
            ("p_mem, repeated template", |b, _| {
                repeat(b).mix.p_mem = 0.375
            }),
            ("row_friendly, repeated template", |b, _| {
                repeat(b).row_friendly = false
            }),
            ("n_templates", |b, _| b.n_templates = 4),
            ("l1", |_, l| l.l1 = 5.0),
            ("l2", |_, l| l.l2 = 14.0),
            ("l3", |_, l| l.l3 = 73.0),
        ];
        for (field, edit) in read {
            let (b, l) = edited(edit);
            assert_ne!(walk_input(&b, &l), base, "{field} is read");
        }
        let unread: [(&str, Edit); 8] = [
            ("lines_per_access", |b, _| {
                b.instrs[0].lines_per_access = 2.0
            }),
            ("carried", |b, _| b.instrs[1].carried = true),
            ("lanes", |b, _| b.instrs[0].lanes = 4),
            ("locality lines_per_access", |b, _| {
                loc(b).lines_per_access = 2.0
            }),
            ("mem_latency_ns", |b, _| loc(b).mem_latency_ns = 90.0),
            ("mem_latency_ns, repeated template", |b, _| {
                repeat(b).mem_latency_ns = 90.0
            }),
            ("ghz", |_, l| l.ghz = 3.0),
            ("f_eff", |b, _| b.f_eff = 2),
        ];
        for (i, (field, edit)) in unread.into_iter().enumerate() {
            let (b, l) = edited(edit);
            assert_eq!(walk_input(&b, &l), base, "{field} is not in the input");
            if i < 3 {
                let walk = |b, l: &ServiceLatencies| {
                    [false, true].map(|perfect_mem| {
                        let l = ServiceLatencies { perfect_mem, ..*l };
                        let lane = window_cycles(b, &ooo, &l, StopRule::SETTLED);
                        (lane.cycles.to_bits(), lane.measured)
                    })
                };
                assert_eq!(
                    walk(&b, &l),
                    walk(&body, &lat),
                    "{field} is not read by the walk"
                );
            }
        }
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
            // Pools as wide as a core class's: one slot, and full ones.
            check::<1>(rng, 1);
            check::<3>(rng, 3);
            check::<4>(rng, 4);
        });
    }

    /// A core class's window walks pools of exactly its unit counts, not
    /// the padded ones; a window of no class walks the padded ones.
    #[test]
    fn each_core_class_walks_pools_as_wide_as_its_units() {
        let body = setup(musa_apps::AppId::Hydro, VectorWidth::V128);
        for class in CoreClass::ALL {
            let ooo = class.ooo();
            cycles_per_fused_iter(&body, &ooo, &lat(false));
            let widths = (ooo.alus as usize, ooo.fpus as usize);
            assert_eq!(WALKED_WIDTHS.get(), widths, "{class}");
        }
        let ooo = OooParams {
            alus: 2,
            ..CoreClass::Aggressive.ooo()
        };
        cycles_per_fused_iter(&body, &ooo, &lat(false));
        assert_eq!(WALKED_WIDTHS.get(), (MAX_UNITS, MAX_UNITS));
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
    fn walks_equal_the_reference_on_every_paper_scale_window() {
        use musa_arch::{CacheConfig, CoresPerNode};
        let (mut bodies, mut dram_free) = (0, 0);
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
                            let draws = draws_dram(&body);
                            assert_eq!(draws, level3_draws(&body) > 0, "{app}");
                            dram_free += usize::from(!draws);
                            for class in CoreClass::ALL {
                                for freq in Frequency::ALL {
                                    let lat = ServiceLatencies::new(&geom, freq.ghz(), false);
                                    assert_walks_match_reference(&body, &class.ooo(), lat);
                                }
                                if !draws {
                                    let lat = ServiceLatencies::new(&geom, 2.0, false);
                                    assert_dram_free_walks_agree(&body, &class.ooo(), lat);
                                }
                            }
                        }
                    }
                }
            }
        }
        assert_eq!(bodies, 135, "paper-scale fused bodies");
        assert!(dram_free > 0 && dram_free < bodies, "{dram_free} DRAM-free");
    }

    /// The `q`-quantile of ascending `sorted`: its `ceil(q·n)`-th value.
    fn quantile(sorted: &[f64], q: f64) -> f64 {
        let rank = (q * sorted.len() as f64).ceil() as usize;
        sorted[rank.clamp(1, sorted.len()) - 1]
    }

    /// A walk: what it reads, and the vector width its body was fused at.
    struct Walk {
        body: FusedBody,
        lat: ServiceLatencies,
        class: CoreClass,
        width: VectorWidth,
    }

    /// Every walk the profile tables of the five traces at `gen` make
    /// over `configs`, in order, keyed as the tables key them, each
    /// followed, when its input draws DRAM and its `(input, class)` is
    /// new, by the perfect-memory walk of the same window.
    fn slice_walks(configs: &[NodeConfig], gen: &musa_apps::GenParams) -> Vec<Walk> {
        use std::collections::{HashMap, HashSet};

        let mut walks = vec![];
        for app in musa_apps::AppId::ALL {
            let trace = musa_apps::generate(app, gen);
            let detail = trace.detail.as_ref().unwrap();
            let items = trace.sampled_region().unwrap().work.items();
            let invoked: Vec<_> = items.iter().flat_map(|w| &w.kernels).collect();
            let ws: f64 = invoked
                .iter()
                .filter_map(|inv| detail.kernel(inv.kernel))
                .map(crate::locality::kernel_footprint_bytes)
                .sum();
            let mut inputs: HashMap<Vec<u64>, (usize, bool)> = HashMap::new();
            let mut known = HashSet::new();
            for cfg in configs {
                let active = (items.len() as u32).min(cfg.cores.count()).max(1);
                let geom = CacheGeometry::new(cfg, active);
                let lat = ServiceLatencies::new(&geom, cfg.freq.ghz(), false);
                for k in detail
                    .kernels
                    .iter()
                    .filter(|k| invoked.iter().any(|inv| inv.kernel == k.id))
                {
                    let body = fuse(k, &analyze_kernel(k, &geom, ws), cfg.vector);
                    let n = inputs.len();
                    let (id, draws) = *inputs
                        .entry(walk_input(&body, &lat))
                        .or_insert_with(|| (n, draws_dram(&body)));
                    let at = draws.then_some((cfg.freq, cfg.mem.tech));
                    if !known.insert((id, cfg.core_class, at)) {
                        continue;
                    }
                    let perfect = draws && known.insert((id, cfg.core_class, None));
                    let walk = |perfect_mem| Walk {
                        body: body.clone(),
                        lat: ServiceLatencies { perfect_mem, ..lat },
                        class: cfg.core_class,
                        width: cfg.vector,
                    };
                    walks.push(walk(false));
                    if perfect {
                        walks.push(walk(true));
                    }
                }
            }
        }
        walks
    }

    /// Every walk under `rule`: its steps (instructions walked), and each
    /// walk's value.
    fn walk_all(walks: &[Walk], rule: StopRule) -> (u64, Vec<f64>) {
        let (mut steps, mut values) = (0, vec![]);
        for w in walks {
            let got = window_cycles(&w.body, &w.class.ooo(), &w.lat, rule);
            steps += u64::from(WARMUP_ITERS + got.measured) * w.body.instrs.len() as u64;
            values.push(got.cycles);
        }
        (steps, values)
    }

    /// Each lane's relative error against `reference`, ascending.
    fn lane_errors(values: &[f64], reference: &[f64]) -> Vec<f64> {
        let mut errors: Vec<f64> = values
            .iter()
            .zip(reference)
            .map(|(v, r)| if *r == 0.0 { 0.0 } else { (v - r).abs() / r })
            .collect();
        errors.sort_by(f64::total_cmp);
        errors
    }

    /// The stop rule against the fixed-length walk on every lane two
    /// slices walk: a lane is a walk the profile table makes, with real
    /// memory, or the perfect-memory walk of the same window.
    ///
    /// The paper slice: the 79 configurations `MUSA_CONFIG_SLICE=79`
    /// takes of the 864, for the five paper-scale traces (309 real-memory
    /// walks, 436 lanes). Prints, for the chosen rule and its neighbours, the share
    /// of walk steps kept and the quantiles of the lanes' relative error;
    /// asserts the chosen rule's p99 and max within 1 %.
    ///
    /// The expanded digest's slice: every 97th of the 20,736 expanded
    /// configurations, in the order `musa_search`'s expanded space
    /// indexes them, for the five tiny traces (580 real-memory walks, 800
    /// lanes).
    /// There the chosen rule does *not* stay within 1 %: 12 lanes err by
    /// more, all 64-bit (a width the paper grid lacks). The test pins
    /// that exception: its p99 and max, and that no other width joins it.
    #[test]
    #[ignore = "309 paper-scale walks under eight rules; scripts/check.sh runs it in release"]
    fn the_cut_stays_within_its_bound_on_every_slice_lane() {
        use musa_arch::{CacheConfig, CoresPerNode, MemTechnology};

        const P99_BOUND: f64 = 0.008;
        const MAX_BOUND: f64 = 0.010;
        const EXPANDED_P99_BOUND: f64 = 0.012;
        const EXPANDED_MAX_BOUND: f64 = 0.016;

        let paper: Vec<NodeConfig> = {
            let all = musa_arch::DesignSpace::all();
            all.iter()
                .copied()
                .step_by(all.len() / 79)
                .take(79)
                .collect()
        };
        let walks = slice_walks(&paper, &musa_apps::GenParams::paper());
        let real = |walks: &[Walk]| walks.iter().filter(|w| !w.lat.perfect_mem).count();
        assert_eq!(
            (real(&walks), walks.len()),
            (309, 436),
            "paper-slice real-memory walks and lanes"
        );
        let (full_steps, reference) = walk_all(&walks, FULL);
        println!("| B, ε | walk steps kept | lane error p50 / p99 / max |");
        println!("|---|---|---|");
        let mut chosen = None;
        for rule in [
            StopRule::new(16, 0.01),
            StopRule::new(24, 0.005),
            StopRule::new(24, 0.01),
            StopRule::new(24, 0.02),
            StopRule::new(32, 0.01),
            StopRule::new(48, 0.01),
            StopRule::SETTLED,
        ] {
            let (steps, values) = walk_all(&walks, rule);
            let errors = lane_errors(&values, &reference);
            let [p50, p99, max] = [0.5, 0.99, 1.0].map(|q| quantile(&errors, q));
            println!(
                "| {}, {} % | {:.3} | {:.2} / {:.2} / {:.2} % |",
                rule.block,
                100.0 * rule.eps,
                steps as f64 / full_steps as f64,
                100.0 * p50,
                100.0 * p99,
                100.0 * max
            );
            chosen = Some((p99, max));
        }
        let (p99, max) = chosen.unwrap();
        assert!(p99 <= P99_BOUND, "p99 lane error {p99} over {P99_BOUND}");
        assert!(max <= MAX_BOUND, "max lane error {max} over {MAX_BOUND}");

        // The expanded space crosses every axis, mem fastest: 12 channel
        // counts of DDR4, then of HBM.
        let mems = [MemTechnology::Ddr4, MemTechnology::Hbm]
            .into_iter()
            .flat_map(|tech| {
                [1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64]
                    .map(|channels| MemConfig { channels, tech })
            });
        let mut expanded = vec![];
        for cores in CoresPerNode::ALL {
            for core_class in CoreClass::ALL {
                for cache in CacheConfig::ALL {
                    for vector in VectorWidth::ALL {
                        for freq in Frequency::ALL {
                            for mem in mems.clone() {
                                expanded.push(NodeConfig {
                                    cores,
                                    core_class,
                                    cache,
                                    vector,
                                    freq,
                                    mem,
                                });
                            }
                        }
                    }
                }
            }
        }
        assert_eq!(expanded.len(), 20_736);
        let expanded: Vec<NodeConfig> = expanded.into_iter().step_by(97).collect();
        let walks = slice_walks(&expanded, &musa_apps::GenParams::tiny());
        assert_eq!(
            (real(&walks), walks.len()),
            (580, 800),
            "expanded-slice real-memory walks and lanes"
        );
        let (_, reference) = walk_all(&walks, FULL);
        let (_, values) = walk_all(&walks, StopRule::SETTLED);
        let errors = lane_errors(&values, &reference);
        let [p50, p99, max] = [0.5, 0.99, 1.0].map(|q| quantile(&errors, q));
        println!(
            "expanded slice, 800 lanes: lane error p50 / p99 / max {:.2} / {:.2} / {:.2} %",
            100.0 * p50,
            100.0 * p99,
            100.0 * max
        );
        let over: Vec<VectorWidth> = walks
            .iter()
            .map(|w| w.width)
            .zip(values.iter().zip(&reference))
            .filter(|(_, (v, r))| (*v - *r).abs() > MAX_BOUND * **r)
            .map(|(width, _)| width)
            .collect();
        println!("{} of them over 1 %, widths {over:?}", over.len());
        assert!(
            p99 <= EXPANDED_P99_BOUND,
            "expanded p99 lane error {p99} over {EXPANDED_P99_BOUND}"
        );
        assert!(
            max <= EXPANDED_MAX_BOUND,
            "expanded max lane error {max} over {EXPANDED_MAX_BOUND}"
        );
        assert!(
            over.iter().all(|&w| w == VectorWidth::V64),
            "lanes over {MAX_BOUND} beyond 64-bit: {over:?}"
        );
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
