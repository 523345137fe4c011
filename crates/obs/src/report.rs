//! End-of-run reporting: the metrics snapshot schema, its JSON
//! (de)serialisation, and the human "where did the time go" phase
//! table.

use std::collections::BTreeMap;

use crate::json::{JsonObj, JsonValue};
use crate::progress::fmt_secs;

/// Version of the `--metrics` JSON schema. Bump on shape changes.
pub const METRICS_SCHEMA: u32 = 1;

/// Aggregate of one histogram.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HistSummary {
    /// Observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: f64,
    /// Smallest observation (0 when empty).
    pub min: f64,
    /// Largest observation (0 when empty).
    pub max: f64,
    /// Power-of-two buckets: `buckets[i]` counts values in
    /// `[2^(i-1), 2^i)`; bucket 0 is everything below 1.
    pub buckets: Vec<u64>,
}

impl HistSummary {
    /// Mean observation (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// Wall-clock total of one (phase, app) pair.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PhaseRow {
    /// Pipeline phase name ([`crate::phase`]).
    pub phase: String,
    /// Application label; `""` when the span was not app-attributed.
    pub app: String,
    /// Total wall time spent, ns. Spans nest, so a parent's total
    /// includes its children's.
    pub wall_ns: f64,
    /// Completed spans folded into `wall_ns`.
    pub count: u64,
}

/// A point-in-time fold of the whole metrics registry — what
/// `dse --metrics PATH` writes.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// [`METRICS_SCHEMA`] at capture time.
    pub schema: u32,
    /// Counter totals by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram summaries by name.
    pub histograms: BTreeMap<String, HistSummary>,
    /// Per-(phase, app) wall-clock totals, sorted by (phase, app).
    pub phases: Vec<PhaseRow>,
}

impl MetricsSnapshot {
    /// The row for one (phase, app) pair.
    pub fn phase(&self, phase: &str, app: &str) -> Option<&PhaseRow> {
        self.phases
            .iter()
            .find(|p| p.phase == phase && p.app == app)
    }

    /// Total wall time of one phase across apps, ns.
    pub fn phase_total_ns(&self, phase: &str) -> f64 {
        self.phases
            .iter()
            .filter(|p| p.phase == phase)
            .map(|p| p.wall_ns)
            .sum()
    }

    /// One counter's total (0 when never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Serialise to deterministic JSON.
    pub fn to_json(&self) -> String {
        let mut counters = JsonObj::new();
        for (k, v) in &self.counters {
            counters = counters.field_u64(k, *v);
        }
        let mut gauges = JsonObj::new();
        for (k, v) in &self.gauges {
            gauges = gauges.field_f64(k, *v);
        }
        let mut hists = JsonObj::new();
        for (k, h) in &self.histograms {
            let buckets: Vec<String> = h.buckets.iter().map(|b| b.to_string()).collect();
            let obj = JsonObj::new()
                .field_u64("count", h.count)
                .field_f64("sum", h.sum)
                .field_f64("min", h.min)
                .field_f64("max", h.max)
                .field_raw("buckets", &format!("[{}]", buckets.join(",")))
                .finish();
            hists = hists.field_raw(k, &obj);
        }
        let phases: Vec<String> = self
            .phases
            .iter()
            .map(|p| {
                JsonObj::new()
                    .field_str("phase", &p.phase)
                    .field_str("app", &p.app)
                    .field_f64("wall_ns", p.wall_ns)
                    .field_u64("count", p.count)
                    .finish()
            })
            .collect();
        JsonObj::new()
            .field_u64("schema", u64::from(self.schema))
            .field_raw("counters", &counters.finish())
            .field_raw("gauges", &gauges.finish())
            .field_raw("histograms", &hists.finish())
            .field_raw("phases", &format!("[{}]", phases.join(",")))
            .finish()
    }

    /// Parse a snapshot back from [`Self::to_json`]'s output.
    pub fn from_json(text: &str) -> Result<MetricsSnapshot, String> {
        let v = JsonValue::parse(text)?;
        let schema = v
            .get("schema")
            .and_then(JsonValue::as_u64)
            .ok_or("missing schema")? as u32;
        let mut snap = MetricsSnapshot {
            schema,
            ..MetricsSnapshot::default()
        };
        for (k, val) in v
            .get("counters")
            .and_then(JsonValue::as_obj)
            .ok_or("missing counters")?
        {
            snap.counters
                .insert(k.clone(), val.as_u64().ok_or("non-integer counter")?);
        }
        for (k, val) in v
            .get("gauges")
            .and_then(JsonValue::as_obj)
            .ok_or("missing gauges")?
        {
            snap.gauges
                .insert(k.clone(), val.as_f64().ok_or("non-number gauge")?);
        }
        for (k, val) in v
            .get("histograms")
            .and_then(JsonValue::as_obj)
            .ok_or("missing histograms")?
        {
            let buckets = val
                .get("buckets")
                .and_then(JsonValue::as_arr)
                .ok_or("missing buckets")?
                .iter()
                .map(|b| b.as_u64().ok_or("non-integer bucket"))
                .collect::<Result<Vec<u64>, _>>()?;
            snap.histograms.insert(
                k.clone(),
                HistSummary {
                    count: val
                        .get("count")
                        .and_then(JsonValue::as_u64)
                        .ok_or("count")?,
                    sum: val.get("sum").and_then(JsonValue::as_f64).unwrap_or(0.0),
                    min: val.get("min").and_then(JsonValue::as_f64).unwrap_or(0.0),
                    max: val.get("max").and_then(JsonValue::as_f64).unwrap_or(0.0),
                    buckets,
                },
            );
        }
        for p in v
            .get("phases")
            .and_then(JsonValue::as_arr)
            .ok_or("missing phases")?
        {
            snap.phases.push(PhaseRow {
                phase: p
                    .get("phase")
                    .and_then(JsonValue::as_str)
                    .ok_or("phase name")?
                    .to_string(),
                app: p
                    .get("app")
                    .and_then(JsonValue::as_str)
                    .unwrap_or("")
                    .to_string(),
                wall_ns: p.get("wall_ns").and_then(JsonValue::as_f64).unwrap_or(0.0),
                count: p.get("count").and_then(JsonValue::as_u64).unwrap_or(0),
            });
        }
        Ok(snap)
    }

    /// Write [`Self::to_json`] (plus a trailing newline) to `path`.
    pub fn write_json_file(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        let mut text = self.to_json();
        text.push('\n');
        std::fs::write(path, text)
    }
}

/// Render the "where did the time go" table: one row per (phase, app)
/// plus a per-phase total, in pipeline-flow order.
pub fn phase_table(snap: &MetricsSnapshot) -> String {
    // Pipeline order first, anything unknown after, alphabetically.
    const ORDER: [&str; 7] = [
        crate::phase::TRACE_GEN,
        crate::phase::DETAILED_SIM,
        crate::phase::BURST,
        crate::phase::DRAM,
        crate::phase::POWER,
        crate::phase::NET_REPLAY,
        crate::phase::STORE_FLUSH,
    ];
    let rank = |name: &str| ORDER.iter().position(|p| *p == name).unwrap_or(ORDER.len());
    let mut rows = snap.phases.clone();
    rows.sort_by(|a, b| {
        rank(&a.phase)
            .cmp(&rank(&b.phase))
            .then_with(|| a.phase.cmp(&b.phase))
            .then_with(|| a.app.cmp(&b.app))
    });

    let mut table: Vec<[String; 4]> = Vec::new();
    table.push(["phase".into(), "app".into(), "wall".into(), "spans".into()]);
    let mut i = 0;
    while i < rows.len() {
        let phase = rows[i].phase.clone();
        let mut phase_total = 0.0;
        let mut apps = 0;
        while i < rows.len() && rows[i].phase == phase {
            let r = &rows[i];
            table.push([
                r.phase.clone(),
                if r.app.is_empty() {
                    "-".into()
                } else {
                    r.app.clone()
                },
                fmt_secs(r.wall_ns * 1e-9),
                r.count.to_string(),
            ]);
            phase_total += r.wall_ns;
            apps += 1;
            i += 1;
        }
        if apps > 1 {
            table.push([
                format!("{phase} (total)"),
                "".into(),
                fmt_secs(phase_total * 1e-9),
                "".into(),
            ]);
        }
    }

    let mut width = [0usize; 4];
    for row in &table {
        for (w, cell) in width.iter_mut().zip(row.iter()) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::from("== where did the time go ==\n");
    for (n, row) in table.iter().enumerate() {
        let line = format!(
            "{:<w0$}  {:<w1$}  {:>w2$}  {:>w3$}",
            row[0],
            row[1],
            row[2],
            row[3],
            w0 = width[0],
            w1 = width[1],
            w2 = width[2],
            w3 = width[3],
        );
        out.push_str(line.trim_end());
        out.push('\n');
        if n == 0 {
            let total: usize = width.iter().sum::<usize>() + 6;
            out.push_str(&"-".repeat(total));
            out.push('\n');
        }
    }
    if let Some(robustness) = robustness_table(snap) {
        out.push('\n');
        out.push_str(&robustness);
    }
    out
}

/// Fault-injection and self-healing counters that are usually all
/// zero; the section only appears when at least one event happened.
const ROBUSTNESS_COUNTERS: [(&str, &str); 6] = [
    ("fault.injected", "faults injected"),
    ("fill.poisoned", "points poisoned (panic caught)"),
    ("fill.retries", "flush retries"),
    ("store.quarantined", "rows quarantined"),
    (
        "store.quarantine_suppressed",
        "duplicate quarantines suppressed",
    ),
    ("store.tail_truncated", "torn tails truncated"),
];

/// The "what went wrong (and was survived)" companion of the phase
/// table: one line per nonzero robustness counter, `None` when a run
/// saw no faults, panics, retries or corruption at all.
fn robustness_table(snap: &MetricsSnapshot) -> Option<String> {
    let nonzero: Vec<(&str, &str, u64)> = ROBUSTNESS_COUNTERS
        .iter()
        .map(|&(name, label)| (name, label, snap.counter(name)))
        .filter(|&(_, _, v)| v > 0)
        .collect();
    if nonzero.is_empty() {
        return None;
    }
    let width = nonzero.iter().map(|(_, l, _)| l.len()).max().unwrap_or(0);
    let mut out = String::from("== what went wrong (and was survived) ==\n");
    for (_, label, value) in nonzero {
        out.push_str(&format!("{label:<width$}  {value}\n"));
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MetricsSnapshot {
        let mut s = MetricsSnapshot {
            schema: METRICS_SCHEMA,
            ..MetricsSnapshot::default()
        };
        s.counters.insert("sim.points".into(), 10);
        s.gauges.insert("store.batch".into(), 64.0);
        s.histograms.insert(
            "store.batch_rows".into(),
            HistSummary {
                count: 2,
                sum: 96.0,
                min: 32.0,
                max: 64.0,
                buckets: vec![0, 1, 1],
            },
        );
        s.phases.push(PhaseRow {
            phase: "detailed-sim".into(),
            app: "hydro".into(),
            wall_ns: 2.5e9,
            count: 4,
        });
        s.phases.push(PhaseRow {
            phase: "detailed-sim".into(),
            app: "spmz".into(),
            wall_ns: 1.5e9,
            count: 4,
        });
        s
    }

    #[test]
    fn json_roundtrip_is_lossless() {
        let s = sample();
        let back = MetricsSnapshot::from_json(&s.to_json()).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn phase_table_totals_and_order() {
        let t = phase_table(&sample());
        assert!(t.contains("where did the time go"));
        assert!(t.contains("hydro"));
        assert!(t.contains("detailed-sim (total)"));
        // Per-phase total of 2.5s + 1.5s.
        assert!(t.contains("4.0s"), "table was:\n{t}");
    }

    #[test]
    fn robustness_section_only_when_something_went_wrong() {
        // A clean run shows no robustness section at all.
        let clean = phase_table(&sample());
        assert!(!clean.contains("what went wrong"), "table was:\n{clean}");

        let mut s = sample();
        s.counters.insert("fault.injected".into(), 3);
        s.counters.insert("fill.poisoned".into(), 1);
        s.counters.insert("store.quarantined".into(), 2);
        let t = phase_table(&s);
        assert!(t.contains("what went wrong (and was survived)"));
        assert!(t.contains("faults injected"));
        assert!(t.contains("points poisoned (panic caught)"));
        assert!(t.contains("rows quarantined"));
        // Zero counters stay out of the table.
        assert!(!t.contains("flush retries"), "table was:\n{t}");
        assert!(!t.contains("torn tails truncated"));
    }

    #[test]
    fn helpers() {
        let s = sample();
        assert_eq!(s.counter("sim.points"), 10);
        assert_eq!(s.counter("absent"), 0);
        assert!(s.phase("detailed-sim", "hydro").is_some());
        assert!(s.phase("detailed-sim", "lulesh").is_none());
        assert!((s.phase_total_ns("detailed-sim") - 4e9).abs() < 1.0);
        assert_eq!(s.histograms["store.batch_rows"].mean(), 48.0);
    }
}
