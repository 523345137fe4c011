//! Pinned-seed reproducibility, through the real simulator: the same
//! seed must produce byte-identical journals, byte-identical reports
//! and identical evaluated-point sets — across reruns and regardless
//! of how the evaluator schedules its work internally (the in-process
//! stand-in for the store fill's threads). Different seeds must explore
//! differently.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use musa_apps::{AppId, GenParams};
use musa_arch::NodeConfig;
use musa_core::SweepOptions;
use musa_search::{
    render_report, run_search, Evaluator, MemEvaluator, SearchConfig, SearchJournal, SpaceId,
};

fn tmp_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "musa-search-repro-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn config(seed: u64) -> SearchConfig {
    SearchConfig {
        strategy: "anneal".into(),
        seed,
        budget: 24,
        batch: 8,
        space: SpaceId::Paper,
        apps: vec![AppId::Hydro, AppId::Spmz],
        hv_ref: 8.0,
        scale: "tiny".into(),
    }
}

fn evaluator() -> MemEvaluator {
    MemEvaluator::new(SweepOptions {
        gen: GenParams::tiny(),
        full_replay: true,
    })
}

/// Journal bytes + report bytes + evaluated point set of one run.
fn run(seed: u64, ev: &mut dyn Evaluator) -> (String, String, Vec<u64>) {
    let dir = tmp_dir("run");
    let path = dir.join("search.journal");
    let mut journal = SearchJournal::open(&path).unwrap();
    let out = run_search(&config(seed), ev, Some(&mut journal), None).unwrap();
    drop(journal);
    let bytes = std::fs::read_to_string(&path).unwrap();
    let report = render_report(&out);
    let points = out.state.evaluated.keys().copied().collect();
    let _ = std::fs::remove_dir_all(&dir);
    (bytes, report, points)
}

/// Wraps an evaluator and *reverses* each batch before evaluating,
/// restoring order afterwards — the decisions a multi-worker backend
/// is allowed to make (any internal schedule) without being allowed to
/// change a single output byte.
struct ReversedEvaluator(MemEvaluator);

impl Evaluator for ReversedEvaluator {
    fn evaluate(&mut self, batch: &[(AppId, NodeConfig)]) -> Vec<(f64, f64)> {
        let mut rev: Vec<(AppId, NodeConfig)> = batch.to_vec();
        rev.reverse();
        let mut results = self.0.evaluate(&rev);
        results.reverse();
        results
    }

    fn memo_hits(&self) -> u64 {
        self.0.memo_hits()
    }
}

#[test]
fn same_seed_is_byte_identical_across_runs_and_schedules() {
    let (j1, r1, p1) = run(42, &mut evaluator());
    let (j2, r2, p2) = run(42, &mut evaluator());
    assert_eq!(j1, j2, "same seed, same journal bytes");
    assert_eq!(r1, r2, "same seed, same report bytes");
    assert_eq!(p1, p2, "same seed, same evaluated points");
    assert!(j1.lines().count() >= 3, "header + gens + done");

    // A differently-scheduled evaluator must change nothing.
    let (j3, r3, p3) = run(42, &mut ReversedEvaluator(evaluator()));
    assert_eq!(j1, j3, "evaluation schedule must not leak into the journal");
    assert_eq!(r1, r3, "evaluation schedule must not leak into the report");
    assert_eq!(p1, p3);
}

#[test]
fn different_seeds_explore_differently() {
    let (j1, r1, p1) = run(42, &mut evaluator());
    let (j2, r2, p2) = run(43, &mut evaluator());
    assert_ne!(p1, p2, "different seeds, different evaluated sets");
    assert_ne!(j1, j2);
    assert_ne!(r1, r2);
}
