//! Plain-text rendering of the paper's tables, bar groups and timelines
//! — the output side of every experiment harness — plus the CSV export
//! of DSE campaigns.

use musa_tasksim::Schedule;

use crate::dse::Campaign;

/// Column header of [`campaign_csv`].
pub const CAMPAIGN_CSV_HEADER: &str = "app,config,cores,class,cache,vector,freq,mem,time_ns,\
     region_ns,power_w,core_l1_w,l2_l3_w,mem_w,energy_j,l1_mpki,l2_mpki,mem_mpki";

/// Render a campaign as CSV, one row per (application, configuration) —
/// the export format of the `dse` binary.
pub fn campaign_csv(campaign: &Campaign) -> String {
    let mut csv = String::with_capacity(128 * (campaign.results.len() + 1));
    csv.push_str(CAMPAIGN_CSV_HEADER);
    csv.push('\n');
    for r in &campaign.results {
        let c = &r.config;
        csv.push_str(&format!(
            "{},{},{},{},{},{},{},{},{:.3},{:.3},{:.3},{:.3},{:.3},{:.3},{:.6},{:.3},{:.3},{:.3}\n",
            r.app,
            c.label(),
            c.cores.count(),
            c.core_class,
            c.cache,
            c.vector,
            c.freq,
            c.mem,
            r.time_ns,
            r.region_ns,
            r.power.total_w(),
            r.power.core_l1_w,
            r.power.l2_l3_w,
            r.power.mem_w,
            r.energy_j,
            r.l1_mpki,
            r.l2_mpki,
            r.mem_mpki,
        ));
    }
    csv
}

/// Render a labelled horizontal bar (max `width` characters at `scale`).
pub fn bar(label: &str, value: f64, scale: f64, width: usize) -> String {
    let filled = if scale > 0.0 {
        ((value / scale) * width as f64)
            .round()
            .clamp(0.0, width as f64) as usize
    } else {
        0
    };
    format!(
        "{label:>14} {value:7.3} |{}{}|",
        "█".repeat(filled),
        " ".repeat(width - filled)
    )
}

/// Render a simple aligned table: header row plus rows of cells.
pub fn table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(cols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let mut line = String::new();
    for (h, w) in headers.iter().zip(&widths) {
        line.push_str(&format!("{h:>w$}  ", w = w));
    }
    out.push_str(line.trim_end());
    out.push('\n');
    out.push_str(&"-".repeat(line.trim_end().len()));
    out.push('\n');
    for row in rows {
        let mut line = String::new();
        for (c, w) in row.iter().zip(&widths) {
            line.push_str(&format!("{c:>w$}  ", w = w));
        }
        out.push_str(line.trim_end());
        out.push('\n');
    }
    out
}

/// Render a per-core occupancy timeline of a region schedule — the
/// Fig. 3 view (idle cores show as dots).
pub fn core_occupancy(schedule: &Schedule, width: usize) -> String {
    let total = schedule.makespan_ns.max(1.0);
    let mut rows = vec![vec!['.'; width]; schedule.cores as usize];
    for item in &schedule.timeline {
        let a = ((item.start_ns / total) * width as f64) as usize;
        let b = (((item.end_ns / total) * width as f64).ceil() as usize).min(width);
        let row = &mut rows[item.core as usize];
        for c in row.iter_mut().take(b).skip(a) {
            *c = '#';
        }
    }
    let mut out = String::new();
    for (core, row) in rows.iter().enumerate() {
        out.push_str(&format!("cpu {core:>3} |"));
        out.extend(row.iter());
        out.push_str("|\n");
    }
    out
}

/// Fraction of cores that executed at least one work item.
pub fn occupancy_fraction(schedule: &Schedule) -> f64 {
    let busy = schedule.core_busy_ns().iter().filter(|&&b| b > 0.0).count();
    busy as f64 / schedule.cores.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use musa_tasksim::simulate_region_burst;
    use musa_trace::{ComputeRegion, LoopSchedule, RegionWork, WorkItem};

    #[test]
    fn campaign_csv_has_header_and_one_line_per_row() {
        use crate::dse::{sweep_app, SweepOptions};
        use musa_apps::{AppId, GenParams};
        use musa_arch::NodeConfig;

        let opts = SweepOptions {
            gen: GenParams::tiny(),
            full_replay: false,
        };
        let configs = [
            NodeConfig::REFERENCE,
            NodeConfig::REFERENCE.with_vector(musa_arch::VectorWidth::V512),
        ];
        let campaign = Campaign {
            results: sweep_app(AppId::Hydro, &configs, &opts),
        };
        let csv = campaign_csv(&campaign);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 1 + campaign.results.len());
        assert_eq!(lines[0], CAMPAIGN_CSV_HEADER);
        assert_eq!(lines[0].split(',').count(), 18);
        for line in &lines[1..] {
            assert!(line.starts_with("hydro,"), "{line}");
            assert_eq!(line.split(',').count(), 18, "{line}");
        }
    }

    #[test]
    fn bar_clamps_and_scales() {
        let s = bar("x", 1.0, 2.0, 10);
        assert!(s.contains("█████     "), "{s}");
        let s = bar("x", 5.0, 2.0, 10);
        assert!(s.contains("██████████"), "{s}");
    }

    #[test]
    fn table_aligns() {
        let t = table(
            &["app", "speedup"],
            &[
                vec!["hydro".into(), "1.20".into()],
                vec!["spmz".into(), "1.75".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[2].contains("hydro"));
    }

    #[test]
    fn occupancy_shows_idle_cores() {
        // 4 items on 8 cores: half the cores idle.
        let region = ComputeRegion {
            region_id: 0,
            work: RegionWork::ParallelFor {
                chunks: (0..4).map(|i| WorkItem::simple(i, 100.0)).collect(),
                schedule: LoopSchedule::Dynamic,
            },
            spawn_overhead_ns: 0.0,
            dispatch_overhead_ns: 0.0,
        };
        let s = simulate_region_burst(&region, 8);
        let frac = occupancy_fraction(&s);
        assert!((frac - 0.5).abs() < 1e-9);
        let viz = core_occupancy(&s, 20);
        assert_eq!(viz.lines().count(), 8);
        assert!(viz.contains('#'));
        assert!(viz.contains('.'));
    }
}
