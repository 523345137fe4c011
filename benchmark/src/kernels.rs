//! The per-kernel stages of the detailed node simulation, driven
//! directly: every kernel of the five detailed traces against the
//! distinct cache geometries, vector widths and out-of-order classes of
//! the design space. These are the calls `NodeSim::simulate_region`
//! spends its time in, so a change to one of them shows here first and
//! in `tasksim.node_sim.us_per_call` second.

use std::hint::black_box;

use musa_arch::{CacheConfig, CoreClass, CoresPerNode, Frequency, NodeConfig, VectorWidth};
use musa_tasksim::{
    analyze_kernel, cycles_per_fused_iter, fuse, kernel_footprint_bytes, profile_kernel,
    schedule_region, CacheGeometry, ServiceLatencies,
};

use crate::measure::Report;
use crate::spans::{Layer, Recorder};
use crate::sweep::Inputs;

pub fn drive(inp: &Inputs, rec: &mut Recorder, report: &mut Report) {
    for (_, trace) in &inp.traces {
        let region = trace.sampled_region().expect("trace has a sampled region");
        let detail = trace.detail.as_ref().expect("trace has a detailed trace");
        let kernels = &detail.kernels;
        let calls = kernels.len() as u64;
        let items = region.work.items();
        // The region working set and active-core count, as
        // `NodeSim::new` derives them.
        let ws: f64 = items
            .iter()
            .flat_map(|w| &w.kernels)
            .filter_map(|inv| detail.kernel(inv.kernel))
            .map(kernel_footprint_bytes)
            .sum();

        for cores in CoresPerNode::ALL {
            rec.enter(Layer::ScheduleRegion);
            black_box(schedule_region(
                region,
                cores.count(),
                |i| items[i].duration_ns,
                |i| items[i].critical_ns,
            ));
            rec.exit();

            let active = (items.len() as u32).min(cores.count()).max(1);
            for cache in CacheConfig::ALL {
                let base = NodeConfig::REFERENCE.with_cores(cores).with_cache(cache);
                let geom = CacheGeometry::new(&base, active);

                rec.enter(Layer::AnalyzeKernel);
                let locality: Vec<_> = kernels
                    .iter()
                    .map(|k| analyze_kernel(k, &geom, ws))
                    .collect();
                rec.exit_calls(calls);

                for width in VectorWidth::DSE {
                    rec.enter(Layer::Fuse);
                    let fused: Vec<_> = kernels
                        .iter()
                        .zip(&locality)
                        .map(|(k, loc)| fuse(k, loc, width))
                        .collect();
                    rec.exit_calls(calls);

                    for class in CoreClass::ALL {
                        let ooo = class.ooo();
                        for freq in Frequency::ALL {
                            let lat = ServiceLatencies::new(&geom, freq.ghz(), false);
                            rec.enter(Layer::Pipeline);
                            for body in &fused {
                                black_box(cycles_per_fused_iter(body, &ooo, &lat));
                            }
                            rec.exit_calls(calls);
                        }

                        let cfg = base.with_vector(width).with_core_class(class);
                        rec.enter(Layer::ProfileKernel);
                        for k in kernels {
                            black_box(profile_kernel(k, &cfg, &geom, ws));
                        }
                        rec.exit_calls(calls);
                    }
                }
            }
        }
    }

    let us = |l: Layer| rec.agg(l).ns_per_call() * 1e-3;
    report.set(
        "tasksim.profile_kernel.us_per_call",
        us(Layer::ProfileKernel),
    );
    report.set(
        "tasksim.schedule_region.us_per_call",
        us(Layer::ScheduleRegion),
    );
    report.set(
        "tasksim.analyze_kernel.ns_per_call",
        rec.agg(Layer::AnalyzeKernel).ns_per_call(),
    );
    report.set(
        "tasksim.fuse.ns_per_call",
        rec.agg(Layer::Fuse).ns_per_call(),
    );
    report.set(
        "tasksim.pipeline.ns_per_call",
        rec.agg(Layer::Pipeline).ns_per_call(),
    );
    report.exact("tasksim.pipeline.calls", rec.agg(Layer::Pipeline).calls);
}
