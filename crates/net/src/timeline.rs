//! ASCII rendering of replay timelines — the Paraver-substitute view of
//! Fig. 4 (MPI and compute phases per rank, barrier waits visible as
//! gaps).

use crate::replay::{RankPhase, Span};

/// Timeline span re-export for rendering.
pub type TimelineSpan = Span;

/// Render a subset of ranks as ASCII rows: `#` compute, `.` wait,
/// `-` transfer. `timelines` are the per-rank spans of
/// [`replay_with_timelines`](crate::replay_with_timelines); `width`
/// characters cover `[0, total_ns]`.
pub fn render_rank_timeline(
    total_ns: f64,
    timelines: &[Vec<Span>],
    max_ranks: usize,
    width: usize,
) -> String {
    let total = total_ns.max(1.0);
    let mut out = String::new();
    for (r, tl) in timelines.iter().enumerate().take(max_ranks) {
        let mut row = vec![' '; width];
        for span in tl {
            let a = ((span.start_ns / total) * width as f64) as usize;
            let b = (((span.end_ns / total) * width as f64).ceil() as usize).min(width);
            let ch = match span.phase {
                RankPhase::Compute => '#',
                RankPhase::Wait => '.',
                RankPhase::Transfer => '-',
            };
            for c in row.iter_mut().take(b).skip(a) {
                *c = ch;
            }
        }
        out.push_str(&format!("rank {r:>4} |"));
        out.extend(row);
        out.push_str("|\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_phases() {
        let span = |phase, start_ns, end_ns| Span {
            phase,
            start_ns,
            end_ns,
        };
        let timelines = vec![vec![
            span(RankPhase::Compute, 0.0, 60.0),
            span(RankPhase::Wait, 60.0, 90.0),
            span(RankPhase::Transfer, 90.0, 100.0),
        ]];
        let s = render_rank_timeline(100.0, &timelines, 4, 50);
        assert!(s.contains('#'));
        assert!(s.contains('.'));
        assert!(s.contains('-'));
        assert!(s.starts_with("rank    0 |"));
        // Compute occupies roughly the first 60 %.
        let hash = s.chars().filter(|&c| c == '#').count();
        assert!((25..=35).contains(&hash), "{hash}");
    }

    #[test]
    fn respects_max_ranks() {
        let s = render_rank_timeline(10.0, &vec![vec![]; 8], 3, 10);
        assert_eq!(s.lines().count(), 3);
    }
}
