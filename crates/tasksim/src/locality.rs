//! Analytic cache-locality model.
//!
//! The DSE campaign simulates 864 configurations × 5 applications on a
//! single host, so per-address cache simulation is off the table. Instead
//! we exploit the fact that the detailed traces are loop-compressed with
//! *declared* access patterns: for cyclically walked and uniform-random
//! streams, LRU behaviour is an analytic function of reuse distance vs.
//! capacity. The model below computes, per memory instruction template,
//! the probability that an access is serviced by each level of the
//! hierarchy. It is validated against the reference set-associative
//! simulator in `setassoc.rs` (see `tests/`).
//!
//! Reuse-distance rules:
//!
//! * a sequential/strided stream of walk length `L` iterations,
//!   interleaved with streams touching `Λ` new lines per iteration,
//!   re-touches a line after seeing `RD = L × Λ` distinct lines;
//! * a uniform-random stream over `F` lines re-touches a given line
//!   after `I = F / rate` iterations; the distinct lines seen in that
//!   interval are `Σ_r unique_r(I)`, where a random stream contributes
//!   `F_r (1 − e^{−rate_r I / F_r})` and a walked stream `rate_r × I`;
//! * a line "fits" a level of capacity `C` lines with probability
//!   `clamp(2 − RD/C, 0, 1)` — a linear roll-off that stands in for the
//!   mix of associativity conflicts and partial residency a real cache
//!   exhibits around the capacity cliff;
//! * the first touch of a line (cold miss) skips the private levels and
//!   hits the shared L3 with the *residency* probability
//!   `min(1, L3_total / region_working_set)` — data left there by the
//!   previous traversal of the region.

use musa_trace::{AccessPattern, Kernel, Op};

use crate::geometry::CacheGeometry;

/// Where an access is serviced: probabilities over the hierarchy.
/// `p_l1 + p_l2 + p_l3 + p_mem = 1`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccessMix {
    /// Served by the L1 (same line still resident or stream fits L1).
    pub p_l1: f64,
    /// Served by the private L2.
    pub p_l2: f64,
    /// Served by the shared L3.
    pub p_l3: f64,
    /// Served by DRAM.
    pub p_mem: f64,
}

impl AccessMix {
    /// All-hit mix.
    pub const L1: AccessMix = AccessMix {
        p_l1: 1.0,
        p_l2: 0.0,
        p_l3: 0.0,
        p_mem: 0.0,
    };

    /// Check the distribution sums to one.
    pub fn is_normalised(&self) -> bool {
        (self.p_l1 + self.p_l2 + self.p_l3 + self.p_mem - 1.0).abs() < 1e-9
            && self.p_l1 >= -1e-12
            && self.p_l2 >= -1e-12
            && self.p_l3 >= -1e-12
            && self.p_mem >= -1e-12
    }
}

/// Locality of one memory instruction template.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TemplateLocality {
    /// Service-level distribution per dynamic access.
    pub mix: AccessMix,
    /// Distinct cache lines touched per access (≤ 1 for dense streams,
    /// exactly 1 for wide strides and random accesses). After SIMD
    /// fusion this can exceed 1 (a fused gather touches several lines).
    pub lines_per_access: f64,
    /// Whether the stream is sequential/strided (row-buffer friendly in
    /// DRAM) as opposed to random. Row-friendly streams are also covered
    /// by the hardware stream prefetcher, which hides most of their DRAM
    /// latency (their cost resurfaces as *bandwidth* at the node level).
    pub row_friendly: bool,
    /// Unloaded DRAM latency for this template's misses (ns).
    pub mem_latency_ns: f64,
}

/// Smooth capacity-fit probability: 1 below capacity, 0 beyond 2×.
fn fit(rd_lines: f64, capacity_lines: f64) -> f64 {
    if capacity_lines <= 0.0 {
        return 0.0;
    }
    (2.0 - rd_lines / capacity_lines).clamp(0.0, 1.0)
}

/// New lines touched per iteration by one access to a stream.
fn line_rate(pattern: AccessPattern) -> f64 {
    match pattern {
        AccessPattern::Sequential { stride } | AccessPattern::Strided { stride } => {
            (stride as f64 / musa_arch::CACHE_LINE_BYTES as f64).min(1.0)
        }
        AccessPattern::Random => 1.0,
        // Hot locals effectively never touch a new line.
        AccessPattern::Local => 1.0 / 1024.0,
    }
}

/// Distinct lines in a stream's footprint that a full walk touches.
/// Strides wider than a line skip lines: only `footprint / stride` are
/// ever touched.
fn touched_lines(pattern: AccessPattern, footprint: u64) -> f64 {
    let line = musa_arch::CACHE_LINE_BYTES as f64;
    match pattern {
        AccessPattern::Sequential { stride } | AccessPattern::Strided { stride } => {
            (footprint as f64 / (stride as f64).max(line)).max(1.0)
        }
        AccessPattern::Random | AccessPattern::Local => (footprint as f64 / line).max(1.0),
    }
}

/// Distinct lines a stream contributes during an interval of `iters`
/// iterations, given `refs` accesses per iteration.
fn unique_lines(pattern: AccessPattern, footprint: u64, refs: f64, iters: f64) -> f64 {
    let cap = touched_lines(pattern, footprint);
    match pattern {
        AccessPattern::Sequential { .. } | AccessPattern::Strided { .. } => {
            (line_rate(pattern) * refs * iters).min(cap)
        }
        AccessPattern::Random => {
            let touches = refs * iters;
            cap * (1.0 - (-touches / cap).exp())
        }
        AccessPattern::Local => 1.0,
    }
}

/// Analyse one kernel against a cache geometry.
///
/// * `region_ws_bytes` — total distinct data touched by the whole region
///   across all its work items (drives L3 residency for cold misses);
/// * returns one entry per body template (`None` for non-memory ops).
pub fn analyze_kernel(
    kernel: &Kernel,
    geom: &CacheGeometry,
    region_ws_bytes: f64,
) -> Vec<Option<TemplateLocality>> {
    let line = musa_arch::CACHE_LINE_BYTES as f64;
    let n_streams = kernel.streams.len();

    // Per-stream reference counts per iteration.
    let mut refs = vec![0.0_f64; n_streams];
    for t in &kernel.body {
        if let Some(s) = t.stream {
            refs[s as usize] += 1.0;
        }
    }

    // Λ: total new lines per iteration.
    let lambda: f64 = kernel
        .streams
        .iter()
        .zip(&refs)
        .map(|(s, &r)| line_rate(s.pattern) * r)
        .sum();

    // L3 residency probability for cold misses.
    let resident = if region_ws_bytes <= 0.0 {
        1.0
    } else {
        (geom.l3_total_lines * line / region_ws_bytes).min(1.0)
    };

    // Per-stream mixes.
    let mixes: Vec<Option<TemplateLocality>> = kernel
        .streams
        .iter()
        .enumerate()
        .map(|(si, s)| {
            let r = refs[si];
            if r == 0.0 {
                return None;
            }
            let f_lines = (s.footprint as f64 / line).max(1.0);
            match s.pattern {
                AccessPattern::Local => Some(TemplateLocality {
                    mix: AccessMix::L1,
                    lines_per_access: line_rate(s.pattern),
                    row_friendly: true,
                    mem_latency_ns: geom.mem_latency_seq_ns,
                }),
                AccessPattern::Sequential { .. } | AccessPattern::Strided { .. } => {
                    let rate = line_rate(s.pattern);
                    let walk_lines = touched_lines(s.pattern, s.footprint);
                    // Walk length in iterations.
                    let walk_iters = walk_lines / (rate * r);
                    let rd = walk_iters * lambda;
                    // Walks per invocation: cold fraction.
                    let total_new_lines = rate * r * kernel.trip_count as f64;
                    let walks = (total_new_lines / walk_lines).max(1.0);
                    let cold = 1.0 / walks;

                    let g1 = fit(rd, geom.l1_lines);
                    let g2 = fit(rd, geom.l2_lines);
                    let g3 = fit(rd, geom.l3_share_lines);

                    // Same-line hits plus new-line distribution.
                    let p_new = rate;
                    let warm = 1.0 - cold;
                    let nl1 = warm * g1;
                    let nl2 = warm * (1.0 - g1) * g2;
                    let nl3 = warm * (1.0 - g1) * (1.0 - g2) * g3 + cold * resident;
                    let nmem = 1.0 - nl1 - nl2 - nl3;

                    Some(TemplateLocality {
                        mix: AccessMix {
                            p_l1: (1.0 - p_new) + p_new * nl1,
                            p_l2: p_new * nl2,
                            p_l3: p_new * nl3,
                            p_mem: p_new * nmem,
                        },
                        lines_per_access: rate,
                        row_friendly: true,
                        mem_latency_ns: geom.mem_latency_seq_ns,
                    })
                }
                AccessPattern::Random => {
                    // Re-touch interval and distinct lines seen in it.
                    let interval = f_lines / r;
                    let rd: f64 = kernel
                        .streams
                        .iter()
                        .zip(&refs)
                        .map(|(o, &orefs)| unique_lines(o.pattern, o.footprint, orefs, interval))
                        .sum();
                    let touches = r * kernel.trip_count as f64;
                    let cold = (f_lines / touches.max(1.0)).min(1.0);

                    let g1 = fit(rd, geom.l1_lines);
                    let g2 = fit(rd, geom.l2_lines);
                    let g3 = fit(rd, geom.l3_share_lines);
                    let warm = 1.0 - cold;
                    let p_l1 = warm * g1;
                    let p_l2 = warm * (1.0 - g1) * g2;
                    let p_l3 = warm * (1.0 - g1) * (1.0 - g2) * g3 + cold * resident;
                    let p_mem = 1.0 - p_l1 - p_l2 - p_l3;

                    Some(TemplateLocality {
                        mix: AccessMix {
                            p_l1,
                            p_l2,
                            p_l3,
                            p_mem,
                        },
                        lines_per_access: 1.0,
                        row_friendly: false,
                        mem_latency_ns: geom.mem_latency_rand_ns,
                    })
                }
            }
        })
        .collect();

    // Map stream mixes onto body templates.
    kernel
        .body
        .iter()
        .map(|t| match (t.op, t.stream) {
            (Op::Load | Op::Store, Some(s)) => mixes[s as usize],
            _ => None,
        })
        .collect()
}

/// Total distinct bytes a single invocation of the kernel touches
/// (its working-set contribution to the region).
pub fn kernel_footprint_bytes(kernel: &Kernel) -> f64 {
    // Called per kernel invocation of a region: the referenced-stream
    // table stays on the stack (a `u8` names at most 256 streams).
    let mut refs = [false; 256];
    for t in &kernel.body {
        if let Some(s) = t.stream {
            refs[usize::from(s)] = true;
        }
    }
    kernel
        .streams
        .iter()
        .zip(refs)
        .filter(|&(_, r)| r)
        .map(|(s, _)| s.footprint as f64)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use musa_arch::NodeConfig;
    use musa_trace::{InstrTemplate, StreamDesc};

    fn geom() -> CacheGeometry {
        CacheGeometry::new(&NodeConfig::REFERENCE, 32)
    }

    fn kernel_with(streams: Vec<StreamDesc>, body: Vec<InstrTemplate>, trips: u32) -> Kernel {
        Kernel {
            id: 0,
            name: "t".into(),
            body,
            trip_count: trips,
            fusible_run: 8,
            streams,
        }
    }

    #[test]
    fn local_stream_hits_l1() {
        let k = kernel_with(
            vec![StreamDesc {
                base: 0,
                footprint: 4096,
                pattern: AccessPattern::Local,
            }],
            vec![InstrTemplate::mem(Op::Load, 0, 0, false)],
            1000,
        );
        let loc = analyze_kernel(&k, &geom(), 1e9);
        let t = loc[0].unwrap();
        assert!(t.mix.is_normalised());
        assert!(t.mix.p_l1 > 0.999);
    }

    #[test]
    fn huge_sequential_stream_misses_everywhere_at_line_rate() {
        let k = kernel_with(
            vec![StreamDesc {
                base: 0,
                footprint: 1 << 30, // 1 GB: no level holds it
                pattern: AccessPattern::Sequential { stride: 8 },
            }],
            vec![InstrTemplate::mem(Op::Load, 0, 0, false)],
            1 << 20,
        );
        let loc = analyze_kernel(&k, &geom(), 1e12);
        let t = loc[0].unwrap();
        assert!(t.mix.is_normalised());
        // 1/8 of accesses touch a new line and go to memory.
        assert!((t.mix.p_mem - 0.125).abs() < 0.01, "{:?}", t.mix);
        assert!(t.mix.p_l1 > 0.85);
        assert!(t.row_friendly);
    }

    #[test]
    fn l2_resident_stream_hits_l2_after_first_walk() {
        // 200 kB stream walked 10 times: fits the 512 kB L2, not L1.
        let trips = 10 * (200 * 1024 / 8);
        let k = kernel_with(
            vec![StreamDesc {
                base: 0,
                footprint: 200 * 1024,
                pattern: AccessPattern::Sequential { stride: 8 },
            }],
            vec![InstrTemplate::mem(Op::Load, 0, 0, false)],
            trips,
        );
        let loc = analyze_kernel(&k, &geom(), 1e12);
        let t = loc[0].unwrap();
        // New-line accesses (1/8) hit mostly L2; cold walk 1/10 → memory.
        assert!(t.mix.p_l2 > 0.10, "{:?}", t.mix);
        assert!(t.mix.p_mem < 0.02, "{:?}", t.mix);
    }

    #[test]
    fn l2_cliff_between_256k_and_512k() {
        // HYDRO-like: 384 kB walked 4×: big L2-miss difference between
        // the 256 kB and 512 kB configs.
        let mk = || {
            kernel_with(
                vec![
                    StreamDesc {
                        base: 0,
                        footprint: 128 * 1024,
                        pattern: AccessPattern::Sequential { stride: 8 },
                    },
                    StreamDesc {
                        base: 1 << 30,
                        footprint: 128 * 1024,
                        pattern: AccessPattern::Sequential { stride: 8 },
                    },
                    StreamDesc {
                        base: 2 << 30,
                        footprint: 128 * 1024,
                        pattern: AccessPattern::Sequential { stride: 8 },
                    },
                ],
                vec![
                    InstrTemplate::mem(Op::Load, 0, 0, false),
                    InstrTemplate::mem(Op::Load, 1, 1, false),
                    InstrTemplate::mem(Op::Store, 2, 2, false),
                ],
                4 * (128 * 1024 / 8),
            )
        };
        let small = CacheGeometry::new(
            &NodeConfig::REFERENCE.with_cache(musa_arch::CacheConfig::C32M256K),
            32,
        );
        let big = CacheGeometry::new(
            &NodeConfig::REFERENCE.with_cache(musa_arch::CacheConfig::C64M512K),
            32,
        );
        let k = mk();
        let miss_to_l3 = |g: &CacheGeometry| -> f64 {
            analyze_kernel(&k, g, 40e6)
                .iter()
                .flatten()
                .map(|t| t.mix.p_l3 + t.mix.p_mem)
                .sum()
        };
        let m_small = miss_to_l3(&small);
        let m_big = miss_to_l3(&big);
        assert!(
            m_small > 2.0 * m_big,
            "L2 cliff missing: 256K={m_small} 512K={m_big}"
        );
    }

    #[test]
    fn random_fitting_l2_is_cache_size_insensitive() {
        // Specfem3D-like small gathers: fit both L2 sizes.
        let k = kernel_with(
            (0..8)
                .map(|i| StreamDesc {
                    base: i << 20,
                    footprint: 28 * 1024,
                    pattern: AccessPattern::Random,
                })
                .collect(),
            (0..8)
                .map(|i| InstrTemplate::mem(Op::Load, i, i as u8, false))
                .collect(),
            100_000,
        );
        let g256 = CacheGeometry::new(
            &NodeConfig::REFERENCE.with_cache(musa_arch::CacheConfig::C32M256K),
            32,
        );
        let g1m = CacheGeometry::new(
            &NodeConfig::REFERENCE.with_cache(musa_arch::CacheConfig::C96M1M),
            32,
        );
        let deep = |g: &CacheGeometry| -> f64 {
            analyze_kernel(&k, g, 1e9)
                .iter()
                .flatten()
                .map(|t| t.mix.p_l3 + t.mix.p_mem)
                .sum()
        };
        let d_small = deep(&g256);
        let d_big = deep(&g1m);
        assert!(
            (d_small - d_big).abs() < 0.05 * d_small.max(0.01) + 0.02,
            "should be insensitive: {d_small} vs {d_big}"
        );
        // But they must miss L1 heavily.
        let l1_miss: f64 = analyze_kernel(&k, &g256, 1e9)
            .iter()
            .flatten()
            .map(|t| 1.0 - t.mix.p_l1)
            .sum::<f64>()
            / 8.0;
        assert!(l1_miss > 0.5, "l1 miss rate {l1_miss}");
    }

    #[test]
    fn all_mixes_normalised_for_app_kernels() {
        // Run the model over every real application kernel.
        let g = geom();
        for app in musa_apps::AppId::ALL {
            let trace = musa_apps::generate(app, &musa_apps::GenParams::tiny());
            for k in &trace.detail.as_ref().unwrap().kernels {
                for t in analyze_kernel(k, &g, 1e9).iter().flatten() {
                    assert!(t.mix.is_normalised(), "{app}: {:?}", t.mix);
                }
            }
        }
    }

    #[test]
    fn footprint_sums_referenced_streams() {
        let k = kernel_with(
            vec![
                StreamDesc {
                    base: 0,
                    footprint: 1000,
                    pattern: AccessPattern::Random,
                },
                StreamDesc {
                    base: 0,
                    footprint: 5000,
                    pattern: AccessPattern::Random,
                },
            ],
            vec![InstrTemplate::mem(Op::Load, 0, 0, false)],
            10,
        );
        // Stream 1 unreferenced.
        assert_eq!(kernel_footprint_bytes(&k), 1000.0);
    }
}
