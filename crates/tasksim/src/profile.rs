//! Per-kernel characterisation: steady-state timing plus per-iteration
//! statistics, ready for extrapolation to full trip counts.

use musa_arch::NodeConfig;
use musa_trace::{Kernel, Op};

use crate::fusion::{fuse, FusedBody};
use crate::geometry::CacheGeometry;
use crate::locality::{analyze_kernel, TemplateLocality};
use crate::pipeline::{window_cycles, ServiceLatencies};
use crate::stats::SimStats;

/// Steady-state profile of one kernel under one node configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelProfile {
    /// Cycles per original loop iteration, unloaded memory.
    pub cycles_per_iter: f64,
    /// Cycles per original iteration with perfect (L3-latency) memory —
    /// the core-bound component; the difference is the memory-bound
    /// component that bandwidth contention stretches.
    pub cycles_per_iter_nomem: f64,
    /// Statistics per original iteration.
    pub stats_per_iter: SimStats,
    /// DRAM bytes (reads + write-backs) per original iteration.
    pub mem_bytes_per_iter: f64,
    /// Effective SIMD fusion factor applied.
    pub f_eff: u32,
}

impl KernelProfile {
    /// Memory-bound cycles per iteration (stretchable under contention).
    pub fn cycles_mem_per_iter(&self) -> f64 {
        (self.cycles_per_iter - self.cycles_per_iter_nomem).max(0.0)
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
    let ooo = config.core_class.ooo();
    let ghz = config.freq.ghz();

    let [real, perfect] = window_cycles(&fused, &ooo, &ServiceLatencies::new(geom, ghz, false));

    let stats = stats_per_iter(kernel, &locality, &fused);
    let mem_bytes = stats.mem_bytes();

    KernelProfile {
        cycles_per_iter: real / fused.f_eff as f64,
        cycles_per_iter_nomem: (perfect / fused.f_eff as f64).min(real / fused.f_eff as f64),
        stats_per_iter: stats,
        mem_bytes_per_iter: mem_bytes,
        f_eff: fused.f_eff,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use musa_arch::{CoresPerNode, Frequency, MemConfig, VectorWidth};

    fn profile(app: musa_apps::AppId, cfg: &NodeConfig) -> KernelProfile {
        let trace = musa_apps::generate(app, &musa_apps::GenParams::tiny());
        let detail = trace.detail.as_ref().unwrap();
        let k = &detail.kernels[0];
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
        let geom = CacheGeometry::new(cfg, cfg.cores.count());
        profile_kernel(k, cfg, &geom, ws)
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

    #[test]
    fn mem_bytes_match_request_counts() {
        let p = profile(musa_apps::AppId::Lulesh, &NodeConfig::REFERENCE);
        let s = &p.stats_per_iter;
        assert!((p.mem_bytes_per_iter - s.mem_requests() * 64.0).abs() < 1e-9);
        assert!(p.mem_bytes_per_iter > 0.0);
    }
}
