//! The one place a campaign point is simulated.
//!
//! [`PointExecutor::run`] turns `(app, config, sweep)` into either the
//! sealed row line the store persists or a [`PoisonedPoint`], plus the
//! point's sealed profile line. The sequential fill
//! ([`crate::CampaignStore::fill`]) and the worker loop (`musa-dist`)
//! both go through it, which is why a row produced by a remote worker
//! is byte-identical to the one a sequential run appends: the bytes
//! come from the same [`SealedRow::seal`], never from a re-encode.
//!
//! The executor owns what makes consecutive points of one application
//! cheap — the per-app trace memo — and
//! what makes one bad point harmless: a panic inside the simulation (a
//! bug, or an injected `sim.point` fault) is caught and returned as the
//! poison record; the executor stays usable.

use std::sync::Arc;

use musa_apps::{generate, AppId, GenParams};
use musa_arch::NodeConfig;
use musa_core::{MultiscaleSim, SweepOptions, TraceMemo};
use musa_trace::AppTrace;

use crate::integrity::seal_line;
use crate::key::PointKey;
use crate::store::{PoisonedPoint, StoreRow};

/// A row together with the exact line the store holds for it.
#[derive(Debug, Clone, PartialEq)]
pub struct SealedRow {
    /// The row.
    pub row: StoreRow,
    /// Its canonical JSON sealed with the trailing `"crc"` member (no
    /// newline) — the bytes every writer appends verbatim.
    pub line: String,
}

impl SealedRow {
    /// Serialise and seal a row.
    pub fn seal(row: StoreRow) -> SealedRow {
        let line = seal_line(&musa_obs::json::to_string(&row));
        SealedRow { row, line }
    }
}

/// What running one point produced.
#[derive(Debug, Clone)]
pub struct PointOutput {
    /// The sealed row, or the poison record when the simulation
    /// panicked.
    pub row: Result<SealedRow, PoisonedPoint>,
    /// The point's sealed profile line (no newline); `None` while no
    /// flight recorder is installed.
    pub profile: Option<String>,
    /// Wall-clock seconds the point took (progress reporting only).
    pub secs: f64,
}

/// Best-effort text of a caught panic payload.
fn panic_reason(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// A trace kept across points, with what its points share.
#[derive(Clone)]
struct CachedTrace {
    app: AppId,
    gen: GenParams,
    trace: Arc<AppTrace>,
    memo: Arc<TraceMemo>,
}

/// Simulates points one at a time; see the module docs.
pub struct PointExecutor {
    /// The last application's trace, and the burst-time tables and
    /// kernel profiles its points share. Points arrive grouped by
    /// application, so one slot is a full memo.
    trace: Option<CachedTrace>,
    worker: String,
    attempt: u32,
}

impl Default for PointExecutor {
    fn default() -> PointExecutor {
        PointExecutor::new()
    }
}

impl PointExecutor {
    /// A new executor. Profile records are stamped as the sequential
    /// fill's until [`Self::set_origin`] says otherwise.
    pub fn new() -> PointExecutor {
        PointExecutor {
            trace: None,
            worker: "fill".to_string(),
            attempt: 0,
        }
    }

    /// Stamp subsequent profile records with this worker label and
    /// lease attempt.
    pub fn set_origin(&mut self, worker: String, attempt: u32) {
        self.worker = worker;
        self.attempt = attempt;
    }

    fn trace_for(&mut self, app: AppId, gen: &GenParams) -> CachedTrace {
        if let Some(cached) = &self.trace {
            if cached.app == app && cached.gen == *gen {
                return cached.clone();
            }
        }
        musa_obs::info(
            "musa-store",
            "acquiring trace",
            &[("app", app.label().into())],
        );
        let trace = {
            let _gen = musa_obs::span_app(musa_obs::phase::TRACE_GEN, app.label());
            Arc::new(generate(app, gen))
        };
        let cached = CachedTrace {
            app,
            gen: *gen,
            memo: Arc::new(TraceMemo::for_trace(&trace)),
            trace,
        };
        self.trace = Some(cached.clone());
        cached
    }

    /// Simulate one point. Never panics on a panicking simulation and
    /// never touches a store: persisting the line is the caller's job.
    pub fn run(&mut self, app: AppId, config: &NodeConfig, sweep: &SweepOptions) -> PointOutput {
        let key = PointKey::for_point(app, config, sweep).to_hex();
        // The profile window opens before the trace is acquired, so
        // the first point of an application carries its generation.
        musa_prof::point_begin();
        let t0 = std::time::Instant::now();
        let cached = self.trace_for(app, &sweep.gen);
        let sim = MultiscaleSim::new(&cached.trace).with_trace_memo(cached.memo);
        let row = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let result = sim.simulate(*config, sweep.full_replay);
            SealedRow::seal(StoreRow::new(sweep.gen, sweep.full_replay, result))
        }))
        .map_err(|payload| PoisonedPoint {
            app: app.label().to_string(),
            config: config.label(),
            key: key.clone(),
            reason: panic_reason(payload),
        });
        let profile = musa_prof::point_finish(
            &key,
            app.label(),
            &config.label(),
            &self.worker,
            row.is_err(),
            self.attempt,
        );
        PointOutput {
            row,
            profile,
            secs: t0.elapsed().as_secs_f64(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{CampaignStore, FillOptions, DEFAULT_WRITE_FILE};
    use musa_arch::DesignSpace;

    fn tiny() -> SweepOptions {
        SweepOptions {
            gen: GenParams::tiny(),
            full_replay: true,
        }
    }

    #[test]
    fn row_line_is_byte_equal_to_what_fill_writes() {
        let dir = std::env::temp_dir().join(format!("musa-exec-fill-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let configs: Vec<NodeConfig> = DesignSpace::all().into_iter().step_by(400).collect();
        let mut store = CampaignStore::open(&dir).unwrap();
        let fill = FillOptions {
            progress: false,
            ..FillOptions::new(tiny())
        };
        store.fill(&[AppId::Hydro], &configs, &fill).unwrap();
        drop(store);
        let written = std::fs::read_to_string(dir.join(DEFAULT_WRITE_FILE)).unwrap();

        let mut exec = PointExecutor::new();
        let lines: Vec<String> = configs
            .iter()
            .map(|c| exec.run(AppId::Hydro, c, &tiny()).row.unwrap().line)
            .collect();
        assert_eq!(written.lines().collect::<Vec<_>>(), lines);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
