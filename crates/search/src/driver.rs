//! The search driver: the seeded, journaled, resumable generation
//! loop.
//!
//! ## Determinism model
//!
//! Every decision the driver makes is a pure function of
//! `(SearchConfig, simulator results)`: candidate proposals come from
//! the seeded [`SearchRng`] and the [`SearchState`], and the simulator
//! itself is deterministic per point. Wall-clock, thread scheduling,
//! store warmth and the fill's thread count influence *nothing* —
//! which yields the two properties the tests pin:
//!
//! * **Byte-identical reruns.** Same seed → identical journal, report
//!   and evaluated-point set, across runs and on one thread or many.
//! * **Resume by replay.** A killed search is continued by re-running
//!   the decision loop from generation zero. Previously evaluated
//!   points are memoized (by `PointKey` in the store, or in-process in
//!   [`MemEvaluator`]), so replay costs no simulation; each replayed
//!   journal line is verified against the on-disk prefix
//!   (see `crates/search/src/journal.rs`) and the loop continues
//!   exactly where it was killed.
//!
//! ## Objectives
//!
//! Points are scored in the (time, energy) plane, normalized per
//! application against [`NodeConfig::REFERENCE`] — evaluated first, as
//! generation 0 — so one hypervolume scale spans applications with
//! wildly different absolute runtimes (the rl-explorer normalization
//! trick). The scalar score is the sum over applications of the
//! dominated hypervolume against `(hv_ref, hv_ref)`.

use std::collections::BTreeMap;
use std::collections::HashMap;
use std::sync::Arc;

use musa_apps::{generate, AppId};
use musa_arch::NodeConfig;
use musa_core::{
    dominated_hypervolume, pareto_front_indices, MultiscaleSim, SweepOptions, TraceMemo,
};
use musa_trace::AppTrace;

use crate::journal::{self, JournalMismatch, SearchJournal};
use crate::rng::SearchRng;
use crate::space::{PointSpace, SearchSpace, SpaceId};
use crate::strategy::{strategy_by_name, SearchState};

/// Everything that shapes a search trajectory. Two runs with equal
/// configs (and equal simulators) produce byte-identical journals.
#[derive(Debug, Clone)]
pub struct SearchConfig {
    /// Strategy name (see [`crate::strategy::STRATEGIES`]).
    pub strategy: String,
    /// PRNG seed.
    pub seed: u64,
    /// Maximum distinct points to evaluate (reference points
    /// included).
    pub budget: u64,
    /// Points proposed per generation.
    pub batch: u64,
    /// Configuration space.
    pub space: SpaceId,
    /// Applications under search.
    pub apps: Vec<AppId>,
    /// Hypervolume reference point, as a multiple of the per-app
    /// reference config's (time, energy) — the front is scored inside
    /// `[0, hv_ref] × [0, hv_ref]` in normalized coordinates.
    pub hv_ref: f64,
    /// Trace-scale label ("tiny" / "small" / "paper") — pinned into
    /// the journal header so a resume at a different scale is refused
    /// rather than silently mixing incomparable rows.
    pub scale: String,
}

impl SearchConfig {
    /// The app selection as a stable comma-joined label
    /// ([`AppId::ALL`] order).
    pub fn apps_label(&self) -> String {
        let ps: Vec<&str> = AppId::ALL
            .iter()
            .filter(|a| self.apps.contains(a))
            .map(|a| a.label())
            .collect();
        ps.join(",")
    }
}

/// One journaled generation, for the report trajectory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GenerationRecord {
    /// Generation number (0 = reference evaluation).
    pub generation: u64,
    /// Strategy temperature when proposing it.
    pub temperature: f64,
    /// Points proposed (= newly evaluated) this generation.
    pub proposed: u64,
    /// Cumulative distinct points evaluated.
    pub evaluated: u64,
    /// Front size after this generation.
    pub front: u64,
    /// Hypervolume after this generation.
    pub hypervolume: f64,
}

/// The completed search: final state plus everything the report needs.
#[derive(Debug)]
pub struct SearchOutcome {
    /// The configuration that produced it.
    pub config: SearchConfig,
    /// The searched point space.
    pub ps: PointSpace,
    /// Final search state (normalized objectives, front, hypervolume).
    pub state: SearchState,
    /// Raw `(time_ns, energy_j)` per evaluated point.
    pub raw: BTreeMap<u64, (f64, f64)>,
    /// Per-app raw reference `(time_ns, energy_j)`, in `ps.apps`
    /// order.
    pub refs: Vec<(f64, f64)>,
    /// Hypervolume-vs-evaluations trajectory, one row per generation.
    pub trajectory: Vec<GenerationRecord>,
    /// True when the space ran out of fresh points before the budget.
    pub exhausted: bool,
}

/// How a search run failed.
#[derive(Debug)]
pub enum SearchError {
    /// Journal or store I/O failed.
    Io(std::io::Error),
    /// Resume replay disagreed with the recorded journal.
    Mismatch(Box<JournalMismatch>),
    /// No such strategy.
    UnknownStrategy(String),
}

impl From<std::io::Error> for SearchError {
    fn from(e: std::io::Error) -> Self {
        SearchError::Io(e)
    }
}

impl std::fmt::Display for SearchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SearchError::Io(e) => write!(f, "search journal I/O: {e}"),
            SearchError::Mismatch(m) => write!(f, "{m}"),
            SearchError::UnknownStrategy(s) => write!(f, "unknown strategy '{s}'"),
        }
    }
}

/// The evaluation backend: turn (app, config) pairs into raw
/// `(time_ns, energy_j)`. Implementations must be deterministic per
/// pair and are expected to memoize — the driver re-requests
/// previously evaluated pairs freely during resume replay.
pub trait Evaluator {
    /// Evaluate a batch, returning one `(time_ns, energy_j)` per pair,
    /// in order.
    fn evaluate(&mut self, batch: &[(AppId, NodeConfig)]) -> Vec<(f64, f64)>;

    /// Cumulative memoization hits — observability only (never
    /// journaled: the count depends on store warmth).
    fn memo_hits(&self) -> u64 {
        0
    }
}

/// In-process evaluator over the real multiscale simulator: one trace
/// per app (generated once, kept with the burst-time tables and kernel
/// profiles its points share), results memoized by point. Powers the
/// library tests and `examples/bench_search.rs`; the `dse` binary uses
/// store-backed evaluators instead so rows persist.
pub struct MemEvaluator {
    opts: SweepOptions,
    traces: HashMap<AppId, (AppTrace, Arc<TraceMemo>)>,
    memo: HashMap<(AppId, NodeConfig), (f64, f64)>,
    hits: u64,
}

impl MemEvaluator {
    /// An evaluator simulating at the given sweep options.
    pub fn new(opts: SweepOptions) -> MemEvaluator {
        MemEvaluator {
            opts,
            traces: HashMap::new(),
            memo: HashMap::new(),
            hits: 0,
        }
    }
}

impl Evaluator for MemEvaluator {
    fn evaluate(&mut self, batch: &[(AppId, NodeConfig)]) -> Vec<(f64, f64)> {
        let mut out = Vec::with_capacity(batch.len());
        for &(app, cfg) in batch {
            if let Some(&v) = self.memo.get(&(app, cfg)) {
                self.hits += 1;
                out.push(v);
                continue;
            }
            let gen = self.opts.gen;
            let (trace, memo) = self.traces.entry(app).or_insert_with(|| {
                let trace = generate(app, &gen);
                let memo = Arc::new(TraceMemo::for_trace(&trace));
                (trace, memo)
            });
            let sim = MultiscaleSim::new(trace).with_trace_memo(Arc::clone(memo));
            let r = sim.simulate(cfg, self.opts.full_replay);
            let v = (r.time_ns, r.energy_j);
            self.memo.insert((app, cfg), v);
            out.push(v);
        }
        out
    }

    fn memo_hits(&self) -> u64 {
        self.hits
    }
}

/// Normalize a raw objective pair against an app reference. A
/// non-finite or non-positive reference coordinate falls back to the
/// raw value (no normalization) rather than poisoning the front with
/// NaNs.
fn normalize(raw: (f64, f64), reference: (f64, f64)) -> (f64, f64) {
    let safe = |v: f64, r: f64| {
        if r.is_finite() && r > 0.0 {
            v / r
        } else {
            v
        }
    };
    (safe(raw.0, reference.0), safe(raw.1, reference.1))
}

/// Recompute the front union and hypervolume sum from scratch.
/// O(evaluated · log) per call — trivial next to simulation.
fn rescore(ps: &PointSpace, state: &mut SearchState, hv_ref: f64) {
    let configs = ps.space.len();
    let mut front = Vec::new();
    let mut hv = 0.0;
    for app_idx in 0..ps.apps.len() as u64 {
        let lo = app_idx * configs;
        let hi = lo + configs;
        let rows: Vec<(u64, (f64, f64))> = state
            .evaluated
            .range(lo..hi)
            .map(|(&p, &v)| (p, v))
            .collect();
        let points: Vec<(f64, f64)> = rows.iter().map(|&(_, v)| v).collect();
        front.extend(pareto_front_indices(&points).into_iter().map(|i| rows[i].0));
        hv += dominated_hypervolume(&points, (hv_ref, hv_ref));
    }
    front.sort_unstable();
    front.dedup();
    state.front = front;
    state.hypervolume = hv;
}

/// Verify-or-append one journal line (no-op without a journal).
fn record_line(journal: &mut Option<&mut SearchJournal>, line: &str) -> Result<(), SearchError> {
    match journal {
        Some(j) => match j.record(line)? {
            Ok(()) => Ok(()),
            Err(m) => Err(SearchError::Mismatch(m)),
        },
        None => Ok(()),
    }
}

/// Journal one generation, extend the trajectory, fire the progress
/// callback and refresh the obs gauges.
fn emit_generation(
    gen: GenerationRecord,
    total: u64,
    journal: &mut Option<&mut SearchJournal>,
    trajectory: &mut Vec<GenerationRecord>,
    on_generation: &mut Option<&mut dyn FnMut(&GenerationRecord)>,
) -> Result<(), SearchError> {
    record_line(
        journal,
        &journal::gen_line(
            gen.generation,
            gen.temperature,
            gen.proposed,
            gen.evaluated,
            total,
            gen.front,
            gen.hypervolume,
        ),
    )?;
    trajectory.push(gen);
    if let Some(cb) = on_generation.as_mut() {
        cb(&gen);
    }
    musa_obs::gauge_set("search.front_size", gen.front as f64);
    musa_obs::gauge_set("search.hypervolume", gen.hypervolume);
    Ok(())
}

/// Run (or resume — same code path) a search to completion.
///
/// The journal is optional: `None` runs unjournaled (library tests);
/// `Some` verifies-then-appends every line, so passing a journal with
/// recorded history *is* resume.
pub fn run_search(
    config: &SearchConfig,
    evaluator: &mut dyn Evaluator,
    mut journal: Option<&mut SearchJournal>,
    mut on_generation: Option<&mut dyn FnMut(&GenerationRecord)>,
) -> Result<SearchOutcome, SearchError> {
    let mut strategy = strategy_by_name(&config.strategy)
        .ok_or_else(|| SearchError::UnknownStrategy(config.strategy.clone()))?;
    let ps = PointSpace::new(SearchSpace::new(config.space), &config.apps);
    let total = ps.len();
    let mut rng = SearchRng::new(config.seed);
    let mut state = SearchState::default();
    let mut raw = BTreeMap::new();
    let mut trajectory = Vec::new();
    let mut exhausted = false;

    record_line(
        &mut journal,
        &journal::header_line(
            &config.strategy,
            config.seed,
            config.space.label(),
            &config.apps_label(),
            config.budget,
            config.batch,
            config.hv_ref,
            &config.scale,
        ),
    )?;

    // Generation 0: the per-app reference evaluations that anchor
    // normalization. Charged against the budget like any other point.
    let ref_points: Vec<u64> = (0..ps.apps.len()).map(|i| ps.reference_point(i)).collect();
    let ref_pairs: Vec<(AppId, NodeConfig)> = ref_points.iter().map(|&p| ps.decode(p)).collect();
    let refs = evaluator.evaluate(&ref_pairs);
    for (&p, &r) in ref_points.iter().zip(refs.iter()) {
        raw.insert(p, r);
        state.evaluated.insert(p, normalize(r, r));
    }
    rescore(&ps, &mut state, config.hv_ref);
    musa_obs::counter_add("search.evaluated", ref_points.len() as u64);
    emit_generation(
        GenerationRecord {
            generation: 0,
            temperature: strategy.temperature(&state),
            proposed: ref_points.len() as u64,
            evaluated: state.evaluated.len() as u64,
            front: state.front.len() as u64,
            hypervolume: state.hypervolume,
        },
        total,
        &mut journal,
        &mut trajectory,
        &mut on_generation,
    )?;
    state.generation = 1;

    // The adaptive loop.
    while (state.evaluated.len() as u64) < config.budget {
        let want = (config.budget - state.evaluated.len() as u64).min(config.batch) as usize;
        let proposals = strategy.propose(&ps, &state, &mut rng, want);
        if proposals.is_empty() {
            exhausted = true;
            break;
        }
        let temperature = strategy.temperature(&state);
        let pairs: Vec<(AppId, NodeConfig)> = proposals.iter().map(|&p| ps.decode(p)).collect();
        let results = evaluator.evaluate(&pairs);
        for (&p, &r) in proposals.iter().zip(results.iter()) {
            let app_idx = (p / ps.space.len()) as usize;
            raw.insert(p, r);
            state.evaluated.insert(p, normalize(r, refs[app_idx]));
        }
        rescore(&ps, &mut state, config.hv_ref);
        musa_obs::counter_add("search.evaluated", proposals.len() as u64);
        emit_generation(
            GenerationRecord {
                generation: state.generation,
                temperature,
                proposed: proposals.len() as u64,
                evaluated: state.evaluated.len() as u64,
                front: state.front.len() as u64,
                hypervolume: state.hypervolume,
            },
            total,
            &mut journal,
            &mut trajectory,
            &mut on_generation,
        )?;
        state.generation += 1;
    }

    record_line(
        &mut journal,
        &journal::done_line(
            state.evaluated.len() as u64,
            state.front.len() as u64,
            state.hypervolume,
        ),
    )?;
    musa_obs::counter_add("search.memo_hits", evaluator.memo_hits());

    Ok(SearchOutcome {
        config: config.clone(),
        ps,
        state,
        raw,
        refs,
        trajectory,
        exhausted,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fast deterministic analytic evaluator: smooth objectives over
    /// the digit vector with a per-app offset — no simulator, so the
    /// driver loop can be exercised thousands of points at a time.
    pub struct SynthEvaluator {
        ps: PointSpace,
        calls: u64,
    }

    impl SynthEvaluator {
        pub fn new(space: SpaceId, apps: &[AppId]) -> SynthEvaluator {
            SynthEvaluator {
                ps: PointSpace::new(SearchSpace::new(space), apps),
                calls: 0,
            }
        }
    }

    impl Evaluator for SynthEvaluator {
        fn evaluate(&mut self, batch: &[(AppId, NodeConfig)]) -> Vec<(f64, f64)> {
            self.calls += batch.len() as u64;
            batch
                .iter()
                .map(|(app, cfg)| {
                    let ci = self.ps.space.index_of(cfg).expect("config in space") as f64;
                    let a = (app.label().len() % 3) as f64;
                    // Anti-correlated smooth objectives: time falls,
                    // energy rises along the index, plus ripples.
                    let n = self.ps.space.len() as f64;
                    let t = 100.0 + a + 50.0 * (1.0 - ci / n) + 10.0 * (ci * 0.37).sin();
                    let e = 100.0 + a + 50.0 * (ci / n) + 10.0 * (ci * 0.61).cos();
                    (t, e)
                })
                .collect()
        }
    }

    fn cfg(strategy: &str, seed: u64, budget: u64) -> SearchConfig {
        SearchConfig {
            strategy: strategy.into(),
            seed,
            budget,
            batch: 16,
            space: SpaceId::Paper,
            apps: AppId::ALL.to_vec(),
            hv_ref: 8.0,
            scale: "synth".into(),
        }
    }

    #[test]
    fn budget_is_respected_exactly() {
        for (name, _) in crate::strategy::STRATEGIES {
            let mut ev = SynthEvaluator::new(SpaceId::Paper, &AppId::ALL);
            let out = run_search(&cfg(name, 42, 100), &mut ev, None, None).unwrap();
            assert_eq!(out.state.evaluated.len(), 100, "{name}");
            assert_eq!(out.raw.len(), 100);
            assert!(!out.exhausted);
            assert_eq!(
                out.trajectory.last().unwrap().evaluated,
                100,
                "{name} trajectory ends at budget"
            );
        }
    }

    #[test]
    fn same_seed_same_outcome_different_seed_differs() {
        let run = |seed: u64| {
            let mut ev = SynthEvaluator::new(SpaceId::Paper, &AppId::ALL);
            run_search(&cfg("anneal", seed, 120), &mut ev, None, None).unwrap()
        };
        let (a, b, c) = (run(7), run(7), run(8));
        let keys = |o: &SearchOutcome| o.state.evaluated.keys().copied().collect::<Vec<_>>();
        assert_eq!(keys(&a), keys(&b), "same seed, same point set");
        assert_eq!(a.state.hypervolume, b.state.hypervolume);
        assert_eq!(a.trajectory, b.trajectory);
        assert_ne!(keys(&a), keys(&c), "different seed, different samples");
    }

    #[test]
    fn hypervolume_is_monotone_along_trajectory() {
        let mut ev = SynthEvaluator::new(SpaceId::Paper, &AppId::ALL);
        let out = run_search(&cfg("anneal", 3, 200), &mut ev, None, None).unwrap();
        let mut last = -1.0;
        for g in &out.trajectory {
            assert!(
                g.hypervolume >= last,
                "hv can only grow as points accumulate"
            );
            last = g.hypervolume;
        }
        assert!(last > 0.0, "something dominates the reference box");
    }

    #[test]
    fn expanded_space_search_is_tractable() {
        // ≥100k points, budget 400: completes in milliseconds with the
        // synthetic evaluator — the driver itself is O(budget²) at
        // worst, never O(space).
        let mut ev = SynthEvaluator::new(SpaceId::Expanded, &AppId::ALL);
        let mut c = cfg("anneal", 42, 400);
        c.space = SpaceId::Expanded;
        let out = run_search(&c, &mut ev, None, None).unwrap();
        assert_eq!(out.ps.len(), 103_680);
        assert_eq!(out.state.evaluated.len(), 400);
    }

    #[test]
    fn journal_replay_resumes_and_extends() {
        let dir = std::env::temp_dir().join(format!("musa-search-driver-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("search.journal");

        // Short run: budget 60.
        let mut ev = SynthEvaluator::new(SpaceId::Paper, &AppId::ALL);
        let mut j = SearchJournal::open(&path).unwrap();
        let out_short = run_search(&cfg("anneal", 9, 60), &mut ev, Some(&mut j), None).unwrap();
        drop(j);
        let short_lines = SearchJournal::open(&path).unwrap().existing().len();

        // Resume with a larger budget: prefix must verify, then extend.
        // (A real resume re-runs with identical flags after a kill; a
        // budget increase exercises the same replay path.)
        let mut ev = SynthEvaluator::new(SpaceId::Paper, &AppId::ALL);
        let mut j = SearchJournal::open(&path).unwrap();
        let mut c = cfg("anneal", 9, 120);
        c.budget = 120;
        let out_long = run_search(&c, &mut ev, Some(&mut j), None);
        // The header line differs (budget is pinned there), so this
        // *must* be refused — budget changes fork history.
        assert!(matches!(out_long, Err(SearchError::Mismatch(_))));

        // Same flags: replay verifies every line and appends none.
        let mut ev = SynthEvaluator::new(SpaceId::Paper, &AppId::ALL);
        let mut j = SearchJournal::open(&path).unwrap();
        let out_replay = run_search(&cfg("anneal", 9, 60), &mut ev, Some(&mut j), None).unwrap();
        assert_eq!(
            SearchJournal::open(&path).unwrap().existing().len(),
            short_lines,
            "pure replay appends nothing"
        );
        assert_eq!(
            out_short.state.evaluated.keys().collect::<Vec<_>>(),
            out_replay.state.evaluated.keys().collect::<Vec<_>>(),
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_journal_resumes_cleanly() {
        // Simulate kill -9: keep only the first 3 journal lines, then
        // re-run — replay must verify the prefix and regenerate the
        // rest byte-identically.
        let dir = std::env::temp_dir().join(format!("musa-search-trunc-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("search.journal");

        let mut ev = SynthEvaluator::new(SpaceId::Paper, &AppId::ALL);
        let mut j = SearchJournal::open(&path).unwrap();
        run_search(&cfg("stratified", 21, 90), &mut ev, Some(&mut j), None).unwrap();
        drop(j);
        let full = std::fs::read_to_string(&path).unwrap();

        // Truncate mid-file (plus a torn tail for good measure).
        let cut: String = full.lines().take(3).map(|l| format!("{l}\n")).collect();
        std::fs::write(&path, format!("{cut}{{\"v\":1,\"kind\":\"ge")).unwrap();

        let mut ev = SynthEvaluator::new(SpaceId::Paper, &AppId::ALL);
        let mut j = SearchJournal::open(&path).unwrap();
        run_search(&cfg("stratified", 21, 90), &mut ev, Some(&mut j), None).unwrap();
        drop(j);
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            full,
            "resumed journal byte-identical to the never-killed run"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unknown_strategy_is_an_error() {
        let mut ev = SynthEvaluator::new(SpaceId::Paper, &AppId::ALL);
        let err = run_search(&cfg("gradient", 1, 10), &mut ev, None, None);
        assert!(matches!(err, Err(SearchError::UnknownStrategy(_))));
    }

    #[test]
    fn anneal_beats_random_on_synthetic_objective() {
        // Not a general theorem — but on this smooth anti-correlated
        // landscape with a pinned seed, exploitation must pay.
        let hv = |name: &str| {
            let mut ev = SynthEvaluator::new(SpaceId::Expanded, &AppId::ALL);
            let mut c = cfg(name, 42, 300);
            c.space = SpaceId::Expanded;
            run_search(&c, &mut ev, None, None)
                .unwrap()
                .state
                .hypervolume
        };
        let (anneal, random) = (hv("anneal"), hv("random"));
        assert!(
            anneal >= random,
            "anneal {anneal} should beat random {random} here"
        );
    }
}
