//! Per-kernel characterisation: steady-state timing plus per-iteration
//! statistics, ready for extrapolation to full trip counts.
//!
//! **One profile table per trace.** A profile is three stages, and each
//! reads less of the node configuration than the one after it. The
//! [`ProfileTable`] keeps each stage's output under a key holding
//! exactly what that stage reads:
//!
//! | stage | reads | key |
//! |---|---|---|
//! | locality, fusion, per-iteration statistics | kernel, cache config, active cores, `f_eff`, region working set | `ShapeKey` |
//! | walk input | the fused body and the L1/L2/L3 cycles, as [`walk_input`] lists them | its content, interned as an `Input` the shape keeps |
//! | window walk | the walk input, core class, frequency, memory technology | `(input, class, Some((freq, tech)))` |
//! | window walk of an input that never draws DRAM | the walk input, core class | `(input, class, None)` |
//!
//! * *Active cores* is `min(items, cores)`, the cores sharing the L3
//!   ([`CacheGeometry`] reads nothing else of the core count): a region
//!   of 24 items profiles the same at 32 and at 64 cores.
//! * *`f_eff`* is `min(F, fusible_run)` ([`crate::fusion::effective_factor`]):
//!   fusion reads nothing else of the vector width.
//! * No stage reads the channel count: bandwidth contention is applied
//!   by the node simulation on top of the profile.
//! * The window stages are keyed by what a walk reads, not by the
//!   configuration that built the window: many shapes — other kernels,
//!   caches, core counts or widths — build the same window and walk it
//!   once. Inputs are compared word for word, never by hash alone.
//! * The fused body carries each memory template's DRAM latency, which
//!   the walk input leaves out: it is the sequential or the random
//!   latency of the memory technology, as the template's `row_friendly`
//!   (in the input) says. The technology stands for it in the walk's key.
//! * An input that never draws DRAM ([`draws_dram`], replayed once per
//!   distinct input) reads neither frequency nor technology: one walk
//!   serves it at every frequency and technology.
//! * The table keeps scalars only. On a walk miss it re-runs locality and
//!   fusion from the current configuration's geometry, then walks the
//!   window once, with real memory.
//!
//! Every entry is what [`profile_kernel`] computes for any configuration
//! with that key, bit for bit.

use std::collections::HashMap;
use std::sync::Mutex;

use musa_arch::{CacheConfig, CoreClass, Frequency, MemTechnology, NodeConfig};
use musa_trace::{Kernel, KernelId, Op};

use crate::fusion::{effective_factor, fuse, FusedBody};
use crate::geometry::CacheGeometry;
use crate::locality::{analyze_kernel, TemplateLocality};
use crate::pipeline::{draws_dram, walk_input, window_cycles, ServiceLatencies, StopRule};
use crate::stats::SimStats;

/// Steady-state profile of one kernel under one node configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelProfile {
    /// Cycles per original loop iteration, unloaded memory.
    pub cycles_per_iter: f64,
    /// Statistics per original iteration.
    pub stats_per_iter: SimStats,
    /// DRAM bytes (reads + write-backs) per original iteration.
    pub mem_bytes_per_iter: f64,
    /// Effective SIMD fusion factor applied.
    pub f_eff: u32,
}

impl KernelProfile {
    /// The profile from its three stages: per-iteration statistics at
    /// fusion factor `f_eff`, and the window's cycles per fused
    /// iteration.
    fn from_stages(stats: SimStats, f_eff: u32, cycles: f64) -> KernelProfile {
        KernelProfile {
            cycles_per_iter: cycles / f_eff as f64,
            stats_per_iter: stats,
            mem_bytes_per_iter: stats.mem_bytes(),
            f_eff,
        }
    }

    /// Wall-clock nanoseconds for `trips` iterations at `ghz`
    /// (uncontended; node-level bandwidth contention is applied by
    /// `NodeSim` as a roofline on top of this).
    pub fn duration_ns(&self, trips: u32, ghz: f64) -> f64 {
        self.cycles_per_iter * trips as f64 / ghz
    }
}

/// Build the per-original-iteration statistics from the analytic
/// locality of the (unfused) body plus the fused instruction count.
fn stats_per_iter(
    kernel: &Kernel,
    locality: &[Option<TemplateLocality>],
    fused: &FusedBody,
) -> SimStats {
    let mut s = SimStats {
        instructions: fused.instrs_per_orig_iter(),
        baseline_instructions: FusedBody::baseline_instrs_per_orig_iter(kernel),
        ..Default::default()
    };

    let mut mem_reads_seq = 0.0;
    for (t, loc) in kernel.body.iter().zip(locality) {
        match t.op {
            Op::Load | Op::Store => {
                let loc = loc.expect("memory template has locality");
                let m = loc.mix;
                s.ops_mem += 1.0;
                s.l1.accesses += 1.0;
                let beyond_l1 = m.p_l2 + m.p_l3 + m.p_mem;
                s.l1.misses += beyond_l1;
                s.l2.accesses += beyond_l1;
                s.l2.misses += m.p_l3 + m.p_mem;
                s.l3.accesses += m.p_l3 + m.p_mem;
                s.l3.misses += m.p_mem;
                if t.op == Op::Store {
                    // Lines written by streaming stores return to DRAM.
                    s.mem_writes += m.p_mem;
                    s.l3.writebacks += m.p_mem;
                    s.l2.writebacks += m.p_l3 + m.p_mem;
                    s.l1.writebacks += beyond_l1;
                } else {
                    s.mem_reads += m.p_mem;
                    if loc.row_friendly {
                        mem_reads_seq += m.p_mem;
                    }
                }
            }
            op if op.is_fp() => {
                s.ops_fp += 1.0;
                s.flops += op.flops() as f64;
            }
            Op::Branch => s.ops_branch += 1.0,
            _ => s.ops_int += 1.0,
        }
    }
    // Store misses also read the line (write-allocate).
    s.mem_reads += s.mem_writes;
    s.mem_seq_fraction = if s.mem_reads > 0.0 {
        ((mem_reads_seq + s.mem_writes) / s.mem_reads).min(1.0)
    } else {
        0.0
    };
    s
}

/// Characterise a kernel under a node configuration.
///
/// * `geom` must be built for the same `config` (it carries the active-
///   core L3 share);
/// * `region_ws_bytes` is the region's total working set.
pub fn profile_kernel(
    kernel: &Kernel,
    config: &NodeConfig,
    geom: &CacheGeometry,
    region_ws_bytes: f64,
) -> KernelProfile {
    let locality = analyze_kernel(kernel, geom, region_ws_bytes);
    let fused = fuse(kernel, &locality, config.vector);
    let lat = ServiceLatencies::new(geom, config.freq.ghz(), false);
    let cycles = window_cycles(&fused, &config.core_class.ooo(), &lat, StopRule::SETTLED).cycles;
    let stats = stats_per_iter(kernel, &locality, &fused);
    KernelProfile::from_stages(stats, fused.f_eff, cycles)
}

/// What locality, fusion and the per-iteration statistics read.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct ShapeKey {
    kernel: KernelId,
    cache: CacheConfig,
    /// Cores sharing the L3, not the core count.
    active: u32,
    /// Effective fusion factor, not the vector width.
    f_eff: u32,
    region_ws_bits: u64,
}

/// A distinct walk input: its number, in the order first seen, and
/// whether its walk draws DRAM.
#[derive(Debug, Clone, Copy)]
struct Input {
    id: usize,
    draws_dram: bool,
}

/// What a window walk reads: the walk input and the core class, and for
/// an input that draws DRAM the frequency and memory technology too.
type WalkKey = (usize, CoreClass, Option<(Frequency, MemTechnology)>);

/// A [`ProfileTable`]'s maps behind its one lock.
#[derive(Default)]
struct Stages {
    shapes: HashMap<ShapeKey, (SimStats, Input)>,
    /// Walk inputs by content.
    inputs: HashMap<Vec<u64>, Input>,
    cycles: HashMap<WalkKey, f64>,
    /// Window walks made.
    walks: u64,
}

impl Stages {
    /// The key of `input`'s walk at `config`, and its cycles if known.
    fn walk(&self, input: Input, config: &NodeConfig) -> (WalkKey, Option<f64>) {
        let at = input.draws_dram.then_some((config.freq, config.mem.tech));
        let key = (input.id, config.core_class, at);
        (key, self.cycles.get(&key).copied())
    }
}

/// The kernel profiles of one detailed trace, each stage kept for what it
/// reads (see the module docs). A table must only ever serve one trace:
/// its shape keys name kernels by id.
#[derive(Default)]
pub struct ProfileTable {
    stages: Mutex<Stages>,
}

impl ProfileTable {
    /// An empty table.
    pub fn new() -> ProfileTable {
        ProfileTable::default()
    }

    /// Window walks made so far, one per walk key known.
    pub fn walks(&self) -> u64 {
        self.lock().walks
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Stages> {
        // Every update is one insert of a finished value: a panic
        // elsewhere never leaves the maps half-written.
        self.stages.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// [`profile_kernel`]`(kernel, config, geom, region_ws_bytes)`, each
    /// stage computed only if nothing earlier with the same key has.
    /// `geom` must be built for `config` with `active` cores sharing the
    /// L3.
    pub(crate) fn profile(
        &self,
        kernel: &Kernel,
        config: &NodeConfig,
        geom: &CacheGeometry,
        active: u32,
        region_ws_bytes: f64,
    ) -> KernelProfile {
        let shape = ShapeKey {
            kernel: kernel.id,
            cache: config.cache,
            active,
            f_eff: effective_factor(kernel, config.vector),
            region_ws_bits: region_ws_bytes.to_bits(),
        };
        let known = {
            let stages = self.lock();
            let shape = stages.shapes.get(&shape).copied();
            shape.map(|(stats, input)| (stats, stages.walk(input, config)))
        };
        if let Some((stats, (_, Some(cycles)))) = known {
            return KernelProfile::from_stages(stats, shape.f_eff, cycles);
        }

        // The body is rebuilt from this configuration's geometry: it
        // carries the DRAM latency of this memory technology.
        let locality = analyze_kernel(kernel, geom, region_ws_bytes);
        let fused = fuse(kernel, &locality, config.vector);
        let lat = ServiceLatencies::new(geom, config.freq.ghz(), false);
        let (stats, (key, walked)) = match known {
            Some(known) => known,
            None => {
                let stats = stats_per_iter(kernel, &locality, &fused);
                let content = walk_input(&fused, &lat);
                let seen = self.lock().inputs.get(&content).copied();
                // Replayed outside the lock, once per distinct input.
                let draws_dram = match seen {
                    Some(input) => input.draws_dram,
                    None => draws_dram(&fused),
                };
                // The input enters with its flag, and the shape naming it,
                // in one critical section.
                let mut stages = self.lock();
                let id = stages.inputs.len();
                let input = *stages
                    .inputs
                    .entry(content)
                    .or_insert(Input { id, draws_dram });
                stages.shapes.insert(shape, (stats, input));
                (stats, stages.walk(input, config))
            }
        };
        // Another shape may have walked this input already.
        let cycles = walked.unwrap_or_else(|| {
            let ooo = config.core_class.ooo();
            let cycles = window_cycles(&fused, &ooo, &lat, StopRule::SETTLED).cycles;
            let mut stages = self.lock();
            stages.cycles.insert(key, cycles);
            stages.walks += 1;
            cycles
        });
        KernelProfile::from_stages(stats, shape.f_eff, cycles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use musa_arch::{CoresPerNode, Frequency, MemConfig, VectorWidth};

    /// The sampled region's working set, as `NodeSim` computes it.
    fn region_ws(trace: &musa_trace::AppTrace) -> f64 {
        let detail = trace.detail.as_ref().unwrap();
        trace
            .sampled_region()
            .unwrap()
            .work
            .items()
            .iter()
            .flat_map(|w| &w.kernels)
            .filter_map(|inv| detail.kernel(inv.kernel))
            .map(crate::locality::kernel_footprint_bytes)
            .sum()
    }

    fn profile(app: musa_apps::AppId, cfg: &NodeConfig) -> KernelProfile {
        let trace = musa_apps::generate(app, &musa_apps::GenParams::tiny());
        let k = &trace.detail.as_ref().unwrap().kernels[0];
        let geom = CacheGeometry::new(cfg, cfg.cores.count());
        profile_kernel(k, cfg, &geom, region_ws(&trace))
    }

    #[test]
    fn duration_scales_linearly_with_trips() {
        let p = profile(musa_apps::AppId::Hydro, &NodeConfig::REFERENCE);
        let d1 = p.duration_ns(1000, 2.0);
        let d2 = p.duration_ns(2000, 2.0);
        assert!((d2 / d1 - 2.0).abs() < 1e-9);
        // Higher frequency means shorter wall-clock for the same cycles.
        assert!(p.duration_ns(1000, 3.0) < d1);
    }

    #[test]
    fn lulesh_mpki_profile_matches_fig1_shape() {
        let p = profile(musa_apps::AppId::Lulesh, &NodeConfig::REFERENCE);
        let s = &p.stats_per_iter;
        let l1 = s.mpki(&s.l1);
        let l2 = s.mpki(&s.l2);
        let l3wb = s.l3_mpki_with_writebacks();
        // Fig. 1: L1 ≈ 13.5, L2 ≈ 4.6, mem requests ≈ 5.3 (> L2!).
        assert!(l1 > 8.0 && l1 < 25.0, "lulesh L1 MPKI {l1}");
        assert!(l2 > 2.0 && l2 < 9.0, "lulesh L2 MPKI {l2}");
        assert!(
            l3wb > l2,
            "writeback traffic must top L2 MPKI: {l3wb} vs {l2}"
        );
    }

    #[test]
    fn spmz_has_extreme_l1_mpki() {
        let p = profile(musa_apps::AppId::Spmz, &NodeConfig::REFERENCE);
        let s = &p.stats_per_iter;
        let l1 = s.mpki(&s.l1);
        assert!(l1 > 60.0, "spmz L1 MPKI {l1}");
    }

    #[test]
    fn hydro_is_compute_bound_lulesh_memory_hungry() {
        // With the stream prefetcher, LULESH's memory cost shows up as
        // *bandwidth* (bytes per core-nanosecond), not exposed latency.
        let ph = profile(musa_apps::AppId::Hydro, &NodeConfig::REFERENCE);
        let pl = profile(musa_apps::AppId::Lulesh, &NodeConfig::REFERENCE);
        let demand = |p: &KernelProfile| p.mem_bytes_per_iter / p.duration_ns(1, 2.0);
        assert!(
            demand(&pl) > 5.0 * demand(&ph),
            "lulesh {} B/ns vs hydro {} B/ns",
            demand(&pl),
            demand(&ph)
        );
    }

    #[test]
    fn vector_width_cuts_spmz_time() {
        let base = NodeConfig {
            cores: CoresPerNode::C64,
            core_class: musa_arch::CoreClass::High,
            cache: musa_arch::CacheConfig::C64M512K,
            vector: VectorWidth::V128,
            freq: Frequency::F2_0,
            mem: MemConfig::DDR4_4CH,
        };
        let p128 = profile(musa_apps::AppId::Spmz, &base);
        let p512 = profile(musa_apps::AppId::Spmz, &base.with_vector(VectorWidth::V512));
        let speedup = p128.cycles_per_iter / p512.cycles_per_iter;
        assert!(speedup > 1.3, "spmz 512-bit speedup {speedup}");
    }

    #[test]
    fn bigger_cache_gives_hydro_its_l2_mpki_cliff() {
        // The paper's HYDRO signature: the working set fits in 512 kB but
        // not 256 kB, giving a large L2-MPKI drop (§V-B2 reports ≈4×).
        let small = NodeConfig::REFERENCE.with_cache(musa_arch::CacheConfig::C32M256K);
        let big = NodeConfig::REFERENCE.with_cache(musa_arch::CacheConfig::C64M512K);
        let ps = profile(musa_apps::AppId::Hydro, &small);
        let pb = profile(musa_apps::AppId::Hydro, &big);
        let ms = ps.stats_per_iter.mpki(&ps.stats_per_iter.l2);
        let mb = pb.stats_per_iter.mpki(&pb.stats_per_iter.l2);
        assert!(ms > 2.0 * mb, "L2 MPKI drop {ms} → {mb}");
    }

    #[test]
    fn bigger_cache_speeds_up_lulesh_and_spmz() {
        let small = NodeConfig::REFERENCE.with_cache(musa_arch::CacheConfig::C32M256K);
        let big = NodeConfig::REFERENCE.with_cache(musa_arch::CacheConfig::C64M512K);
        for (app, threshold) in [
            (musa_apps::AppId::Lulesh, 1.05),
            (musa_apps::AppId::Spmz, 1.02),
        ] {
            let ps = profile(app, &small);
            let pb = profile(app, &big);
            let speedup = ps.cycles_per_iter / pb.cycles_per_iter;
            assert!(speedup > threshold, "{app}: cache speedup {speedup}");
        }
    }

    /// One shared table, fed a seeded sequence of expanded-space points
    /// over the five tiny traces, equals `profile_kernel` at every point,
    /// bit for bit, and a `NodeSim` profiling through it equals a fresh
    /// one on the whole region. After each random point come the same
    /// point again (nothing is walked), the same shape under the other
    /// memory technology and at another frequency, and, for Specfem3D at
    /// 32 or 64 cores, the other of the two: its 24 items share the L3
    /// alike at both, so nothing is walked.
    #[test]
    fn shared_table_equals_profile_kernel_bit_for_bit() {
        use crate::node::NodeSim;
        use musa_apps::{generate, AppId, GenParams};
        use musa_arch::{CacheConfig, CoreClass, MemTechnology};
        use musa_obs::rng::{check_cases, SplitMix64};

        let traces = AppId::ALL.map(|app| {
            let trace = generate(app, &GenParams::tiny());
            (app, region_ws(&trace), trace)
        });
        let table = ProfileTable::new();
        // Cases that met a frequency share and a Specfem3D core share.
        let mut shared = [0; 2];
        check_cases(48, |rng| {
            fn pick<T: Copy>(rng: &mut SplitMix64, all: &[T]) -> T {
                all[(rng.next_u64() % all.len() as u64) as usize]
            }
            let (app, ws, trace) = &traces[(rng.next_u64() % 5) as usize];
            let detail = trace.detail.as_ref().unwrap();
            let region = trace.sampled_region().unwrap();
            let cfg = NodeConfig {
                cores: pick(rng, &CoresPerNode::ALL),
                core_class: pick(rng, &CoreClass::ALL),
                cache: pick(rng, &CacheConfig::ALL),
                vector: pick(rng, &VectorWidth::ALL),
                freq: pick(rng, &Frequency::ALL),
                mem: MemConfig {
                    channels: 1 + (rng.next_u64() % 64) as u32,
                    tech: pick(rng, &[MemTechnology::Ddr4, MemTechnology::Hbm]),
                },
            };
            let fresh = NodeSim::new(cfg, detail, region).simulate_region(region);
            let through = NodeSim::new(cfg, detail, region)
                .with_profiles(&table)
                .simulate_region(region);
            assert_eq!(format!("{through:?}"), format!("{fresh:?}"), "{cfg}");

            // Every kernel at `cfg` through the table; the walks it took.
            let walks_at = |cfg: NodeConfig| {
                let before = table.walks();
                let sim = NodeSim::new(cfg, detail, region).with_profiles(&table);
                for k in &detail.kernels {
                    let want = profile_kernel(k, &cfg, sim.geometry(), *ws);
                    let got = sim.profile(k.id).unwrap();
                    assert_eq!(format!("{got:?}"), format!("{want:?}"), "{app} at {cfg}");
                }
                table.walks() - before
            };
            walks_at(cfg);
            assert_eq!(walks_at(cfg), 0, "a known point walks nothing");
            let other_tech = match cfg.mem.tech {
                MemTechnology::Ddr4 => MemTechnology::Hbm,
                MemTechnology::Hbm => MemTechnology::Ddr4,
            };
            let mem = MemConfig {
                channels: 1 + (rng.next_u64() % 64) as u32,
                tech: other_tech,
            };
            walks_at(cfg.with_mem(mem));
            let freq = pick(rng, &Frequency::ALL);
            if freq != cfg.freq {
                walks_at(cfg.with_freq(freq));
                shared[0] += 1;
            }
            let other_cores = match cfg.cores {
                CoresPerNode::C32 => Some(CoresPerNode::C64),
                CoresPerNode::C64 => Some(CoresPerNode::C32),
                CoresPerNode::C1 => None,
            };
            if let (AppId::Spec3d, Some(cores)) = (app, other_cores) {
                assert_eq!(walks_at(cfg.with_cores(cores)), 0, "spec3d shares C32/C64");
                shared[1] += 1;
            }
        });
        assert!(
            shared.iter().all(|&n| n > 0),
            "every share exercised: {shared:?}"
        );
    }

    /// Sweep `app`'s paper-scale trace over the whole 864-point grid
    /// through one table, and assert it walked each key once — the keys
    /// `(walk input, class, frequency and technology or none)` counted
    /// here from the configurations alone. Returns the key count.
    fn paper_grid_walks(app: musa_apps::AppId) -> usize {
        use crate::node::NodeSim;
        use crate::pipeline::{draws_dram, walk_input};
        use std::collections::{HashMap, HashSet};

        let trace = musa_apps::generate(app, &musa_apps::GenParams::paper());
        let detail = trace.detail.as_ref().unwrap();
        let region = trace.sampled_region().unwrap();
        let ws = region_ws(&trace);
        let invoked: HashSet<KernelId> = region
            .work
            .items()
            .iter()
            .flat_map(|w| &w.kernels)
            .map(|inv| inv.kernel)
            .collect();
        let table = ProfileTable::new();
        let mut dram = HashMap::new();
        let mut keys = HashSet::new();
        for cfg in musa_arch::DesignSpace::iter() {
            let mut sim = NodeSim::new(cfg, detail, region).with_profiles(&table);
            sim.simulate_region(region);
            let geom = sim.geometry();
            let lat = ServiceLatencies::new(geom, cfg.freq.ghz(), false);
            for k in detail.kernels.iter().filter(|k| invoked.contains(&k.id)) {
                let fused = fuse(k, &analyze_kernel(k, geom, ws), cfg.vector);
                let input = walk_input(&fused, &lat);
                let draws = *dram
                    .entry(input.clone())
                    .or_insert_with(|| draws_dram(&fused));
                let at = draws.then_some((cfg.freq, cfg.mem.tech));
                keys.insert((input, cfg.core_class, at));
            }
        }
        assert_eq!(table.walks(), keys.len() as u64, "{app}: one walk per key");
        keys.len()
    }

    /// Counts, not clocks: Specfem3D at paper scale over the whole
    /// 864-point grid walks each distinct window once. Its one kernel
    /// builds 144 keys: the 24 items share the L3 alike at 32 and 64
    /// cores, and some caches and widths build the same window.
    #[test]
    fn a_full_grid_sweep_walks_each_key_once() {
        assert_eq!(paper_grid_walks(musa_apps::AppId::Spec3d), 144);
    }

    /// The whole paper grid, one table per application: 1,728 walks by
    /// configuration axes are 588 distinct windows.
    #[test]
    #[ignore = "the paper grid of five applications; scripts/check.sh runs it in release"]
    fn the_paper_grid_walks_588_distinct_windows() {
        use musa_apps::AppId;
        let mut total = 0;
        for (app, want) in [
            (AppId::Hydro, 120),
            (AppId::Spmz, 204),
            (AppId::Btmz, 72),
            (AppId::Spec3d, 144),
            (AppId::Lulesh, 48),
        ] {
            let walks = paper_grid_walks(app);
            assert_eq!(walks, want, "{app}");
            total += walks;
        }
        assert_eq!(total, 588, "paper-grid walks");
    }

    #[test]
    fn mem_bytes_match_request_counts() {
        let p = profile(musa_apps::AppId::Lulesh, &NodeConfig::REFERENCE);
        let s = &p.stats_per_iter;
        assert!((p.mem_bytes_per_iter - s.mem_requests() * 64.0).abs() < 1e-9);
        assert!(p.mem_bytes_per_iter > 0.0);
    }
}
