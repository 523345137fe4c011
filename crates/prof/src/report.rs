//! Offline aggregation of profile records: the `dse profile` report.
//!
//! Everything here is pure data processing over [`PointProfile`]s —
//! available in every build (no `runtime` feature needed), so a
//! stripped binary can still analyse profiles recorded elsewhere.

use std::collections::BTreeMap;

use crate::record::PointProfile;

/// Pipeline-flow display order for phases; anything unknown sorts
/// after, alphabetically.
const PHASE_ORDER: [&str; 7] = [
    "trace-gen",
    "detailed-sim",
    "burst",
    "dram",
    "power",
    "net-replay",
    "store-flush",
];

/// Distribution of one value set, ns.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DistStat {
    /// Observations.
    pub count: u64,
    /// Sum, ns.
    pub total_ns: u64,
    /// Median, ns.
    pub p50_ns: u64,
    /// 95th percentile, ns.
    pub p95_ns: u64,
    /// Maximum, ns.
    pub max_ns: u64,
}

impl DistStat {
    fn of(mut values: Vec<u64>) -> DistStat {
        values.sort_unstable();
        DistStat {
            count: values.len() as u64,
            total_ns: values.iter().sum(),
            p50_ns: percentile(&values, 0.50),
            p95_ns: percentile(&values, 0.95),
            max_ns: values.last().copied().unwrap_or(0),
        }
    }
}

/// Nearest-rank percentile of an ascending-sorted slice (0 when
/// empty).
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The aggregate view `dse profile` prints.
#[derive(Debug, Clone, Default)]
pub struct ProfileSummary {
    /// Records aggregated.
    pub points: usize,
    /// Of which poisoned attempts.
    pub poisoned: usize,
    /// Distinct worker identities seen.
    pub workers: usize,
    /// (phase, stats over the points that ran it), pipeline order.
    pub phases: Vec<(String, DistStat)>,
    /// (app, point-wall stats), alphabetical.
    pub apps: Vec<(String, DistStat)>,
    /// Peak RSS over all writers, kB.
    pub peak_rss_kb: u64,
    /// The k slowest points, descending wall time.
    pub top: Vec<PointProfile>,
}

impl ProfileSummary {
    /// Aggregate `records`, keeping the `k` slowest points.
    pub fn build(records: &[PointProfile], k: usize) -> ProfileSummary {
        let mut by_phase: BTreeMap<&str, Vec<u64>> = BTreeMap::new();
        let mut by_app: BTreeMap<&str, Vec<u64>> = BTreeMap::new();
        let mut workers: std::collections::HashSet<&str> = std::collections::HashSet::new();
        let mut s = ProfileSummary {
            points: records.len(),
            ..ProfileSummary::default()
        };
        for r in records {
            s.poisoned += usize::from(r.poisoned);
            s.peak_rss_kb = s.peak_rss_kb.max(r.peak_rss_kb);
            workers.insert(&r.worker);
            by_app.entry(&r.app).or_default().push(r.wall_ns);
            for (phase, ns) in &r.phases {
                by_phase.entry(phase).or_default().push(*ns);
            }
        }
        s.workers = workers.len();
        let rank = |name: &str| {
            PHASE_ORDER
                .iter()
                .position(|p| *p == name)
                .unwrap_or(PHASE_ORDER.len())
        };
        s.phases = by_phase
            .into_iter()
            .map(|(p, v)| (p.to_string(), DistStat::of(v)))
            .collect();
        s.phases
            .sort_by(|a, b| rank(&a.0).cmp(&rank(&b.0)).then_with(|| a.0.cmp(&b.0)));
        s.apps = by_app
            .into_iter()
            .map(|(a, v)| (a.to_string(), DistStat::of(v)))
            .collect();
        let mut top: Vec<PointProfile> = records.to_vec();
        top.sort_by(|a, b| {
            b.wall_ns
                .cmp(&a.wall_ns)
                .then_with(|| (&a.app, &a.config).cmp(&(&b.app, &b.config)))
        });
        top.truncate(k);
        s.top = top;
        s
    }
}

/// Human byte count (B, then KiB/MiB/GiB to one decimal).
fn human_bytes(n: u64) -> String {
    const UNITS: [&str; 4] = ["B", "KiB", "MiB", "GiB"];
    let mut v = n as f64;
    let mut unit = 0;
    while v >= 1024.0 && unit < UNITS.len() - 1 {
        v /= 1024.0;
        unit += 1;
    }
    if unit == 0 {
        format!("{n} B")
    } else {
        format!("{v:.1} {}", UNITS[unit])
    }
}

/// Human duration from ns (µs/ms/s granularity, matching magnitude).
pub(crate) fn fmt_ns(ns: u64) -> String {
    let secs = ns as f64 * 1e-9;
    if ns < 1_000_000 {
        format!("{:.0}µs", ns as f64 / 1e3)
    } else if secs < 1.0 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else if secs < 100.0 {
        format!("{secs:.2}s")
    } else {
        format!("{}m {:02}s", (secs / 60.0) as u64, (secs % 60.0) as u64)
    }
}

fn push_table(out: &mut String, rows: &[Vec<String>]) {
    let cols = rows.iter().map(Vec::len).max().unwrap_or(0);
    let mut width = vec![0usize; cols];
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            width[i] = width[i].max(cell.len());
        }
    }
    for (n, row) in rows.iter().enumerate() {
        let mut line = String::new();
        for (i, cell) in row.iter().enumerate() {
            if i > 0 {
                line.push_str("  ");
            }
            if i == 0 {
                line.push_str(&format!("{cell:<w$}", w = width[0]));
            } else {
                line.push_str(&format!("{cell:>w$}", w = width[i]));
            }
        }
        out.push_str(line.trim_end());
        out.push('\n');
        if n == 0 {
            out.push_str(&"-".repeat(width.iter().sum::<usize>() + 2 * (cols - 1)));
            out.push('\n');
        }
    }
}

fn dist_row(label: &str, d: &DistStat) -> Vec<String> {
    vec![
        label.to_string(),
        d.count.to_string(),
        fmt_ns(d.total_ns),
        fmt_ns(d.p50_ns),
        fmt_ns(d.p95_ns),
        fmt_ns(d.max_ns),
    ]
}

/// Render the full human report of `records` with a top-`k` table.
pub fn render_summary(records: &[PointProfile], k: usize) -> String {
    let s = ProfileSummary::build(records, k);
    let mut out = format!(
        "== profile: {} point{} · {} worker{}",
        s.points,
        if s.points == 1 { "" } else { "s" },
        s.workers,
        if s.workers == 1 { "" } else { "s" },
    );
    if s.poisoned > 0 {
        out.push_str(&format!(" · {} poisoned", s.poisoned));
    }
    out.push_str(" ==\n");
    if s.points == 0 {
        out.push_str("no profile records (run a campaign with profiling enabled first)\n");
        return out;
    }

    let header = || {
        vec![
            "".to_string(),
            "points".to_string(),
            "total".to_string(),
            "p50".to_string(),
            "p95".to_string(),
            "max".to_string(),
        ]
    };

    let mut rows = vec![header()];
    rows[0][0] = "phase".to_string();
    for (phase, d) in &s.phases {
        rows.push(dist_row(phase, d));
    }
    out.push('\n');
    push_table(&mut out, &rows);

    let mut rows = vec![header()];
    rows[0][0] = "app (point wall)".to_string();
    for (app, d) in &s.apps {
        rows.push(dist_row(app, d));
    }
    out.push('\n');
    push_table(&mut out, &rows);

    if !s.top.is_empty() {
        out.push_str(&format!("\n== top {} slowest points ==\n", s.top.len()));
        let mut rows = vec![vec![
            "wall".to_string(),
            "app".to_string(),
            "config".to_string(),
            "worker".to_string(),
            "dominant phase".to_string(),
        ]];
        for p in &s.top {
            let dominant = p
                .phases
                .iter()
                .max_by(|a, b| a.1.cmp(b.1).then_with(|| b.0.cmp(a.0)))
                .map(|(name, ns)| format!("{name} ({})", fmt_ns(*ns)))
                .unwrap_or_else(|| "-".to_string());
            rows.push(vec![
                fmt_ns(p.wall_ns),
                p.app.clone(),
                p.config.clone(),
                if p.poisoned {
                    format!("{} ☠", p.worker)
                } else {
                    p.worker.clone()
                },
                dominant,
            ]);
        }
        push_table(&mut out, &rows);
    }

    if s.peak_rss_kb > 0 {
        out.push_str(&format!(
            "\npeak rss: {} across writers\n",
            human_bytes(s.peak_rss_kb * 1024)
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::tests::sample;

    #[test]
    fn percentile_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), 50);
        assert_eq!(percentile(&v, 0.95), 95);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&[42], 0.95), 42);
        assert_eq!(percentile(&[], 0.5), 0);
        // p95 of 20 equal-ish values picks the 19th rank.
        let v: Vec<u64> = (1..=20).collect();
        assert_eq!(percentile(&v, 0.95), 19);
    }

    #[test]
    fn summary_aggregates_phases_apps_and_top_k() {
        let mut records = Vec::new();
        for i in 1..=10u64 {
            let mut p = sample(&format!("k{i:02}"), "hydro", &format!("c{i}"), i * 1000);
            p.start_us = i;
            records.push(p);
        }
        let mut slow = sample("kslow", "spmz", "cS", 1_000_000);
        slow.poisoned = true;
        records.push(slow);

        let s = ProfileSummary::build(&records, 3);
        assert_eq!(s.points, 11);
        assert_eq!(s.poisoned, 1);
        assert_eq!(s.workers, 1);
        assert_eq!(s.top.len(), 3);
        assert_eq!(s.top[0].key, "kslow");
        assert_eq!(s.top[1].wall_ns, 10_000);
        let apps: Vec<&str> = s.apps.iter().map(|(a, _)| a.as_str()).collect();
        assert_eq!(apps, ["hydro", "spmz"]);
        let hydro = &s.apps[0].1;
        assert_eq!(hydro.count, 10);
        assert_eq!(hydro.max_ns, 10_000);
        assert_eq!(hydro.p50_ns, 5_000);
        // Phases come out in pipeline order.
        let phases: Vec<&str> = s.phases.iter().map(|(p, _)| p.as_str()).collect();
        assert_eq!(phases, ["detailed-sim", "net-replay"]);
    }

    #[test]
    fn human_bytes_renders() {
        assert_eq!(human_bytes(0), "0 B");
        assert_eq!(human_bytes(512), "512 B");
        assert_eq!(human_bytes(2048), "2.0 KiB");
        assert_eq!(human_bytes(3 * 1024 * 1024), "3.0 MiB");
    }

    #[test]
    fn render_handles_empty_and_full() {
        let empty = render_summary(&[], 5);
        assert!(empty.contains("no profile records"));
        let records = vec![
            sample("k1", "hydro", "c64", 2_000_000),
            sample("k2", "hydro", "c128", 4_000_000),
        ];
        let text = render_summary(&records, 10);
        assert!(text.contains("== profile: 2 points"), "was:\n{text}");
        assert!(text.contains("top 2 slowest"), "was:\n{text}");
        assert!(text.contains("detailed-sim"));
        assert!(text.contains("peak rss: 10.0 MiB"), "was:\n{text}");
        assert!(!text.contains("hit rate"));
    }
}
