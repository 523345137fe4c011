//! Prometheus text-exposition rendering of a [`MetricsSnapshot`]
//! (exposition format version 0.0.4): counters, gauges, power-of-two
//! histograms with cumulative `le` buckets, and the per-(phase, app)
//! wall-clock table as labelled series — what `musa-serve` answers
//! `GET /metrics?format=prometheus` with, so any standard scraper can
//! watch a campaign.
//!
//! Pure string rendering over an already-captured snapshot: works in
//! every build, deterministic (snapshot maps are ordered), and every
//! metric name is prefixed `musa_` with non-alphanumerics folded to
//! `_`.

use crate::json::fmt_f64;
use crate::report::MetricsSnapshot;

/// `musa_` + the name with every non-`[a-zA-Z0-9_]` byte folded to `_`.
fn metric_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 5);
    out.push_str("musa_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == '_' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Escape a label value per the exposition format.
fn label_value(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Render `snap` in the Prometheus text exposition format. Ends with a
/// newline; deterministic for a given snapshot.
pub fn prometheus_text(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();

    for (name, value) in &snap.counters {
        let n = metric_name(name);
        out.push_str(&format!("# TYPE {n} counter\n{n} {value}\n"));
    }
    for (name, value) in &snap.gauges {
        let n = metric_name(name);
        out.push_str(&format!("# TYPE {n} gauge\n{n} {}\n", fmt_f64(*value)));
    }
    for (name, h) in &snap.histograms {
        let n = metric_name(name);
        out.push_str(&format!("# TYPE {n} histogram\n"));
        let mut cumulative = 0u64;
        for (i, count) in h.buckets.iter().enumerate() {
            cumulative += count;
            // Bucket i counts values in [2^(i-1), 2^i); its inclusive
            // upper bound is just below 2^i, so le="2^i" is correct.
            let le = 2f64.powi(i as i32);
            out.push_str(&format!(
                "{n}_bucket{{le=\"{}\"}} {cumulative}\n",
                fmt_f64(le)
            ));
        }
        out.push_str(&format!("{n}_bucket{{le=\"+Inf\"}} {}\n", h.count));
        out.push_str(&format!("{n}_sum {}\n", fmt_f64(h.sum)));
        out.push_str(&format!("{n}_count {}\n", h.count));
    }
    if !snap.phases.is_empty() {
        out.push_str("# TYPE musa_phase_wall_seconds gauge\n");
        for p in &snap.phases {
            out.push_str(&format!(
                "musa_phase_wall_seconds{{phase=\"{}\",app=\"{}\"}} {}\n",
                label_value(&p.phase),
                label_value(&p.app),
                fmt_f64(p.wall_ns * 1e-9)
            ));
        }
        out.push_str("# TYPE musa_phase_spans_total counter\n");
        for p in &snap.phases {
            out.push_str(&format!(
                "musa_phase_spans_total{{phase=\"{}\",app=\"{}\"}} {}\n",
                label_value(&p.phase),
                label_value(&p.app),
                p.count
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{HistSummary, PhaseRow, METRICS_SCHEMA};

    fn sample() -> MetricsSnapshot {
        let mut s = MetricsSnapshot {
            schema: METRICS_SCHEMA,
            ..MetricsSnapshot::default()
        };
        s.counters.insert("sim.points".into(), 864);
        s.gauges.insert("store.batch".into(), 64.0);
        s.histograms.insert(
            "store.batch_rows".into(),
            HistSummary {
                count: 3,
                sum: 96.0,
                min: 0.5,
                max: 64.0,
                buckets: vec![1, 1, 1],
            },
        );
        s.phases.push(PhaseRow {
            phase: "detailed-sim".into(),
            app: "hydro".into(),
            wall_ns: 2.5e9,
            count: 4,
        });
        s
    }

    #[test]
    fn renders_all_families_with_sane_names() {
        let text = prometheus_text(&sample());
        assert!(text.contains("# TYPE musa_sim_points counter\nmusa_sim_points 864\n"));
        assert!(text.contains("# TYPE musa_store_batch gauge\nmusa_store_batch 64\n"));
        assert!(text.contains("# TYPE musa_store_batch_rows histogram\n"));
        assert!(
            text.contains("musa_phase_wall_seconds{phase=\"detailed-sim\",app=\"hydro\"} 2.5\n")
        );
        assert!(text.contains("musa_phase_spans_total{phase=\"detailed-sim\",app=\"hydro\"} 4\n"));
        assert!(text.ends_with('\n'));
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_close_with_inf() {
        let text = prometheus_text(&sample());
        // buckets [1,1,1] → cumulative 1,2,3 at le=1,2,4, then +Inf=3.
        assert!(text.contains("musa_store_batch_rows_bucket{le=\"1\"} 1\n"));
        assert!(text.contains("musa_store_batch_rows_bucket{le=\"2\"} 2\n"));
        assert!(text.contains("musa_store_batch_rows_bucket{le=\"4\"} 3\n"));
        assert!(text.contains("musa_store_batch_rows_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("musa_store_batch_rows_sum 96\n"));
        assert!(text.contains("musa_store_batch_rows_count 3\n"));
    }

    #[test]
    fn empty_snapshot_renders_empty() {
        assert_eq!(prometheus_text(&MetricsSnapshot::default()), "");
    }

    #[test]
    fn label_values_are_escaped() {
        let mut s = MetricsSnapshot::default();
        s.phases.push(PhaseRow {
            phase: "od\"d".into(),
            app: "a\\b".into(),
            wall_ns: 1e9,
            count: 1,
        });
        let text = prometheus_text(&s);
        assert!(text.contains("phase=\"od\\\"d\",app=\"a\\\\b\""));
    }
}
