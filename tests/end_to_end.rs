//! End-to-end integration tests: the full multiscale pipeline per
//! application, cross-crate consistency, and serialisation.

use musa::prelude::*;
use musa::tasksim::simulate_region_burst;

fn tiny() -> GenParams {
    GenParams::tiny()
}

#[test]
fn full_pipeline_completes_for_every_app_and_reference_config() {
    for app in AppId::ALL {
        let trace = generate(app, &tiny());
        let sim = MultiscaleSim::new(&trace);
        let r = sim.simulate(NodeConfig::REFERENCE, true);
        assert!(r.time_ns.is_finite() && r.time_ns > 0.0, "{app}");
        assert!(r.region_ns > 0.0, "{app}");
        assert!(
            r.power.total_w() > 10.0 && r.power.total_w() < 500.0,
            "{app}: {} W",
            r.power.total_w()
        );
        assert!(r.energy_j > 0.0, "{app}");
        assert!(r.l1_mpki > 0.0 && r.l1_mpki < 250.0, "{app}: {}", r.l1_mpki);
    }
}

#[test]
fn burst_mode_is_monotone_in_cores() {
    for app in AppId::ALL {
        let trace = generate(app, &tiny());
        let region = trace.sampled_region().expect("region");
        let mut prev = f64::INFINITY;
        for cores in [1u32, 2, 4, 8, 16, 32, 64] {
            let t = simulate_region_burst(region, cores).makespan_ns;
            assert!(
                t <= prev * 1.001,
                "{app}: {cores} cores slower than fewer ({t} > {prev})"
            );
            prev = t;
        }
    }
}

#[test]
fn detailed_region_time_respects_bounds() {
    // The detailed makespan must be at least the longest item and at most
    // the serial sum of items (per the scheduler's guarantees), for every
    // app and a few configurations.
    use musa::tasksim::NodeSim;
    for app in AppId::ALL {
        let trace = generate(app, &tiny());
        let region = trace.sampled_region().unwrap().clone();
        let detail = trace.detail.as_ref().unwrap();
        for config in [
            NodeConfig::REFERENCE,
            NodeConfig::REFERENCE.with_cores(CoresPerNode::C64),
            NodeConfig::REFERENCE.with_cores(CoresPerNode::C1),
        ] {
            let mut sim = NodeSim::new(config, detail, &region);
            let r = sim.simulate_region(&region);
            assert!(r.schedule.makespan_ns > 0.0, "{app} {config}");
            let eff = r.schedule.parallel_efficiency();
            assert!(eff > 0.0 && eff <= 1.0 + 1e-9, "{app} {config}: eff {eff}");
        }
    }
}

#[test]
fn trace_roundtrips_through_disk() {
    // Floats are written shortest-round-trip, so the trace read back is
    // equal bit for bit.
    let dir = std::env::temp_dir().join(format!("musa-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for app in AppId::ALL {
        let trace = generate(app, &tiny());
        let path = dir.join(format!("{app}.json"));
        musa::trace::io::save_trace(&trace, &path).unwrap();
        let back = musa::trace::io::load_trace(&path).unwrap();
        assert_eq!(trace, back, "{app}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn campaign_slice_is_deterministic() {
    let opts = SweepOptions {
        gen: tiny(),
        full_replay: true,
    };
    let configs = [
        NodeConfig::REFERENCE,
        NodeConfig::REFERENCE.with_cores(CoresPerNode::C64),
    ];
    let a = musa::core::sweep_app(AppId::Btmz, &configs, &opts);
    let b = musa::core::sweep_app(AppId::Btmz, &configs, &opts);
    assert_eq!(a, b, "simulation must be deterministic");
}

#[test]
fn single_core_region_equals_serial_time_in_burst() {
    for app in AppId::ALL {
        let trace = generate(app, &tiny());
        let region = trace.sampled_region().unwrap();
        let serial = region.work.serial_time_ns();
        let t = simulate_region_burst(region, 1).makespan_ns;
        // One core executes items back-to-back plus runtime overheads.
        assert!(t >= serial - 1e-6, "{app}");
        assert!(t < serial * 1.2 + 1e6, "{app}: overheads out of hand");
    }
}
