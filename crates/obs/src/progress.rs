//! The fill heartbeat: points done/total, rows/s, p95 point latency
//! and ETA on stderr, rate-limited so tiny batches don't spam the
//! terminal.
//!
//! All timing is monotonic ([`Instant`]), never wall-clock — an NTP
//! step mid-campaign must not produce a negative rate or a bogus ETA.
//! The p95 is over per-point latencies fed via [`Progress::observe`]:
//! a mean hides stragglers, and stragglers are what an operator
//! watching a week-long sweep needs to see.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::level::Level;
use crate::sink::{event, FieldValue};

/// Human-readable duration (`850ms`, `12.3s`, `2m 05s`, `1h 04m`).
pub(crate) fn fmt_secs(secs: f64) -> String {
    if !secs.is_finite() || secs < 0.0 {
        return "?".into();
    }
    if secs < 1.0 {
        format!("{:.0}ms", secs * 1e3)
    } else if secs < 100.0 {
        format!("{secs:.1}s")
    } else if secs < 3600.0 {
        format!("{}m {:02}s", (secs / 60.0) as u64, (secs % 60.0) as u64)
    } else {
        format!(
            "{}h {:02}m",
            (secs / 3600.0) as u64,
            ((secs % 3600.0) / 60.0) as u64
        )
    }
}

/// Rate (rows/s) and ETA (seconds) for `done` of `total` points after
/// `elapsed` seconds. Pure so the edge cases are unit-testable:
///
/// * `done == 0` (a first heartbeat firing before any point finished):
///   the rate is 0 and the ETA is **unknown**, reported as `+inf` —
///   which [`fmt_secs`] renders as `?` — never the absurd-but-finite
///   `total / ε` horizon a naive guard produces;
/// * `done >= total`: ETA 0;
/// * `elapsed == 0`: treated as one nanosecond, keeping the rate finite.
pub(crate) fn rate_eta(done: u64, total: u64, elapsed_secs: f64) -> (f64, f64) {
    let rate = done as f64 / elapsed_secs.max(1e-9);
    let eta = if done >= total {
        0.0
    } else if done == 0 {
        f64::INFINITY
    } else {
        (total - done) as f64 / rate
    };
    (rate, eta)
}

/// Nearest-rank percentile of **unsorted** observations; `None` when
/// empty. Pure so the heartbeat's p95 is unit-testable.
pub(crate) fn percentile_of(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// A progress heartbeat over a known total.
///
/// Printing goes straight to stderr — the heartbeat is explicit opt-in
/// (`--progress`), not subject to `MUSA_LOG` — and a copy of each beat
/// is offered to the JSONL sink as a debug event.
pub struct Progress {
    label: String,
    total: u64,
    start: Instant,
    /// When the last beat printed, and the `done` it reported.
    last_print: Mutex<Option<(Instant, u64)>>,
    min_interval: Duration,
    latencies: Mutex<Vec<f64>>,
}

impl Progress {
    /// New heartbeat for `total` points under a display label
    /// (e.g. `"fill"`).
    pub fn new(label: impl Into<String>, total: u64) -> Progress {
        Progress {
            label: label.into(),
            total,
            start: Instant::now(),
            last_print: Mutex::new(None),
            min_interval: Duration::from_millis(200),
            latencies: Mutex::new(Vec::new()),
        }
    }

    /// Record one point's simulation latency (seconds); subsequent
    /// beats report the running p95 so stragglers are visible live.
    pub fn observe(&self, secs: f64) {
        if !crate::COMPILED || !secs.is_finite() || secs < 0.0 {
            return;
        }
        self.latencies
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(secs);
    }

    /// The current p95 point latency, seconds (`None` before any
    /// [`Self::observe`]).
    pub fn p95_latency(&self) -> Option<f64> {
        let lat = self.latencies.lock().unwrap_or_else(|e| e.into_inner());
        percentile_of(&lat, 0.95)
    }

    /// Report completion of `done` points so far (absolute, not delta).
    /// Prints at most once per rate-limit window.
    pub fn tick(&self, done: u64) {
        self.beat(done, false);
    }

    /// Final beat: prints regardless of the rate limit, unless the
    /// last printed beat already reported this `done`.
    pub fn finish(&self, done: u64) {
        self.beat(done, true);
    }

    fn beat(&self, done: u64, force: bool) {
        if !crate::COMPILED {
            return;
        }
        {
            let mut last = self.last_print.lock().unwrap_or_else(|e| e.into_inner());
            let now = Instant::now();
            if let Some((prev, prev_done)) = *last {
                let repeat = force && prev_done == done;
                let too_soon = !force && now.duration_since(prev) < self.min_interval;
                if repeat || too_soon {
                    return;
                }
            }
            *last = Some((now, done));
        }
        let elapsed = self.start.elapsed().as_secs_f64();
        let (rate, eta) = rate_eta(done, self.total, elapsed);
        let pct = if self.total == 0 {
            100.0
        } else {
            100.0 * done as f64 / self.total as f64
        };
        let p95 = self.p95_latency();
        let p95_str = match p95 {
            Some(s) => format!(" p95 {}", fmt_secs(s)),
            None => String::new(),
        };
        eprintln!(
            "[musa progress] {}: {}/{} ({:.1}%) {:.2} rows/s{} elapsed {} eta {}",
            self.label,
            done,
            self.total,
            pct,
            rate,
            p95_str,
            fmt_secs(elapsed),
            fmt_secs(eta),
        );
        event(
            Level::Debug,
            "progress",
            &self.label,
            &[
                ("done", FieldValue::U64(done)),
                ("total", FieldValue::U64(self.total)),
                ("rows_per_s", FieldValue::F64(rate)),
                ("p95_s", FieldValue::F64(p95.unwrap_or(0.0))),
                ("eta_s", FieldValue::F64(eta)),
            ],
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn durations_format_humanely() {
        assert_eq!(fmt_secs(0.25), "250ms");
        assert_eq!(fmt_secs(12.34), "12.3s");
        assert_eq!(fmt_secs(125.0), "2m 05s");
        assert_eq!(fmt_secs(3840.0), "1h 04m");
        assert_eq!(fmt_secs(f64::NAN), "?");
    }

    #[test]
    fn duration_edges_and_unit_boundaries() {
        assert_eq!(fmt_secs(0.0), "0ms");
        assert_eq!(fmt_secs(0.9994), "999ms");
        assert_eq!(fmt_secs(1.0), "1.0s");
        assert_eq!(fmt_secs(99.99), "100.0s");
        assert_eq!(fmt_secs(100.0), "1m 40s");
        assert_eq!(fmt_secs(3599.0), "59m 59s");
        assert_eq!(fmt_secs(3600.0), "1h 00m");
        assert_eq!(fmt_secs(-1.0), "?");
        assert_eq!(fmt_secs(f64::INFINITY), "?");
        assert_eq!(fmt_secs(f64::NEG_INFINITY), "?");
    }

    #[test]
    fn first_heartbeat_with_nothing_done_renders_sanely() {
        // The fill loop's first beat can fire before any point lands:
        // rate must be 0 (not NaN), the ETA unknown (rendered "?"),
        // never a giant finite horizon.
        let (rate, eta) = rate_eta(0, 864, 0.5);
        assert_eq!(rate, 0.0);
        assert!(eta.is_infinite());
        assert_eq!(fmt_secs(eta), "?");
        // Even at elapsed == 0 exactly.
        let (rate, eta) = rate_eta(0, 864, 0.0);
        assert!(rate == 0.0 && eta.is_infinite());
    }

    #[test]
    fn p95_latency_tracks_stragglers_not_the_mean() {
        assert_eq!(percentile_of(&[], 0.95), None);
        assert_eq!(percentile_of(&[0.2], 0.95), Some(0.2));
        // 19 fast points and one straggler: the mean stays near 0.1,
        // the p95 must surface the tail.
        let mut v = vec![0.1; 19];
        v.push(30.0);
        assert_eq!(percentile_of(&v, 0.95), Some(0.1));
        v.push(31.0);
        assert_eq!(percentile_of(&v, 0.95), Some(30.0));

        let p = Progress::new("fill", 100);
        assert_eq!(p.p95_latency(), None);
        for secs in [0.1, 0.2, 0.3] {
            p.observe(secs);
        }
        p.observe(f64::NAN); // ignored, never poisons the percentile
        p.observe(-1.0);
        if crate::COMPILED {
            assert_eq!(p.p95_latency(), Some(0.3));
        } else {
            assert_eq!(p.p95_latency(), None);
        }
    }

    #[test]
    fn rate_eta_midway_and_done() {
        let (rate, eta) = rate_eta(100, 300, 10.0);
        assert!((rate - 10.0).abs() < 1e-12);
        assert!((eta - 20.0).abs() < 1e-9);
        assert!(fmt_secs(eta).ends_with('s'));
        // Complete (and overshooting) fills report ETA 0.
        assert_eq!(rate_eta(300, 300, 10.0).1, 0.0);
        assert_eq!(rate_eta(301, 300, 10.0).1, 0.0);
        // Zero elapsed stays finite.
        let (rate, eta) = rate_eta(10, 20, 0.0);
        assert!(rate.is_finite() && eta.is_finite());
        assert!(eta >= 0.0);
    }
}
