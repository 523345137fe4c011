//! The one place a campaign point is simulated.
//!
//! A [`PointExecutor`] holds one application's trace and what its
//! points share: the burst-time tables and kernel profiles of its
//! [`TraceMemo`]. [`PointExecutor::run`] turns a configuration into
//! either the sealed row line the store persists or a
//! [`PoisonedPoint`], and leaves the point's profile record with the
//! flight recorder. It takes `&self`, so the fill's worker threads
//! ([`crate::CampaignStore::fill`]) run the points of one application
//! against one executor, and every row's bytes come from the same
//! [`SealedRow::seal`] whichever thread ran it.
//!
//! What makes one bad point harmless lives here too: a panic inside the
//! simulation (a bug, or an injected `sim.point` fault) is caught and
//! returned as the poison record; the executor stays usable.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use musa_apps::{generate, AppId};
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

/// Simulates the points of one application; see the module docs.
pub struct PointExecutor {
    app: AppId,
    sweep: SweepOptions,
    trace: AppTrace,
    memo: Arc<TraceMemo>,
    /// Trace-generation time no profile record carries yet: the first
    /// point to start takes it, as if it had generated the trace.
    unclaimed_gen_ns: AtomicU64,
}

impl PointExecutor {
    /// Generate `app`'s trace at `sweep`'s scale, on the calling
    /// thread, with an empty memo.
    pub fn new(app: AppId, sweep: SweepOptions) -> PointExecutor {
        musa_obs::info(
            "musa-store",
            "acquiring trace",
            &[("app", app.label().into())],
        );
        let t0 = Instant::now();
        let trace = {
            let _gen = musa_obs::span_app(musa_obs::phase::TRACE_GEN, app.label());
            generate(app, &sweep.gen)
        };
        PointExecutor {
            app,
            sweep,
            memo: Arc::new(TraceMemo::for_trace(&trace)),
            trace,
            unclaimed_gen_ns: AtomicU64::new(t0.elapsed().as_nanos() as u64),
        }
    }

    /// Simulate one point. Never panics on a panicking simulation and
    /// never touches a store: persisting the line is the caller's job.
    pub fn run(&self, config: &NodeConfig) -> PointOutput {
        let (app, sweep) = (self.app, &self.sweep);
        let key = PointKey::for_point(app, config, sweep).to_hex();
        musa_prof::point_begin();
        let gen_ns = self.unclaimed_gen_ns.swap(0, Ordering::Relaxed);
        if gen_ns > 0 {
            musa_prof::point_carry(musa_obs::phase::TRACE_GEN, gen_ns);
        }
        let t0 = Instant::now();
        let sim = MultiscaleSim::new(&self.trace).with_trace_memo(Arc::clone(&self.memo));
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
        musa_prof::point_finish(&key, app.label(), &config.label(), "fill", row.is_err(), 0);
        PointOutput {
            row,
            secs: t0.elapsed().as_secs_f64(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{CampaignStore, FillOptions, DEFAULT_WRITE_FILE};
    use musa_apps::GenParams;
    use musa_arch::DesignSpace;

    fn tiny() -> SweepOptions {
        SweepOptions {
            gen: GenParams::tiny(),
            full_replay: true,
        }
    }

    #[test]
    fn row_line_is_byte_equal_to_what_fill_writes() {
        let _lock = crate::store::tests::fault_lock();
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

        let exec = PointExecutor::new(AppId::Hydro, tiny());
        let lines: Vec<String> = configs
            .iter()
            .map(|c| exec.run(c).row.unwrap().line)
            .collect();
        assert_eq!(written.lines().collect::<Vec<_>>(), lines);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
