//! Chrome Trace Event Format export: a campaign's flight record as one
//! timeline, loadable in Perfetto (`ui.perfetto.dev`) or
//! `chrome://tracing`.
//!
//! One track per (pid, thread tag): each thread that simulated points
//! gets a lane. Each point is a `B`/`E` slice pair named `app/config`;
//! its phases are nested slices laid out sequentially inside it
//! (`burst` and `dram` nest inside `detailed-sim`, mirroring the span
//! hierarchy). Poisoned attempts emit an instant event at the point's
//! start.
//!
//! Profile records carry durations, not intra-point offsets, so the
//! layout *within* a point is canonical-order packing rather than
//! measured offsets; points are placed at their recorded wall-clock
//! start, pushed right just enough to keep every track's timestamps
//! monotonic (overlap can only appear through clock skew between
//! records — the export must stay valid regardless).

use std::collections::HashMap;

use musa_obs::json::JsonObj;

use crate::record::PointProfile;

/// Phases laid out at point level, in canonical order; `detailed-sim`
/// additionally nests its children.
const TOP_PHASES: [&str; 5] = [
    "trace-gen",
    "detailed-sim",
    "power",
    "net-replay",
    "store-flush",
];
const DETAIL_CHILDREN: [&str; 2] = ["burst", "dram"];

fn event(
    ph: &str,
    name: &str,
    cat: &str,
    ts_ns: u64,
    pid: u64,
    tid: u64,
    args: Option<String>,
) -> String {
    let mut o = JsonObj::new()
        .field_str("ph", ph)
        .field_str("name", name)
        .field_str("cat", cat)
        .field_f64("ts", ts_ns as f64 / 1e3)
        .field_u64("pid", pid)
        .field_u64("tid", tid);
    if ph == "i" {
        // Thread-scoped instant: rendered as a marker on its track.
        o = o.field_str("s", "t");
    }
    if let Some(args) = args {
        o = o.field_raw("args", &args);
    }
    o.finish()
}

fn meta(name: &str, value: &str, pid: u64, tid: u64) -> String {
    JsonObj::new()
        .field_str("ph", "M")
        .field_str("name", name)
        .field_u64("pid", pid)
        .field_u64("tid", tid)
        .field_raw("args", &JsonObj::new().field_str("name", value).finish())
        .finish()
}

/// Render `records` as a Chrome Trace Event Format document.
/// Deterministic for a given input.
pub fn export_trace(records: &[PointProfile]) -> String {
    let mut sorted: Vec<&PointProfile> = records.iter().collect();
    sorted.sort_by(|a, b| {
        (a.start_us, a.pid, a.tid, &a.key).cmp(&(b.start_us, b.pid, b.tid, &b.key))
    });
    let t0_us = sorted.iter().map(|r| r.start_us).min().unwrap_or(0);

    let mut events: Vec<String> = Vec::new();
    let mut tracks_named: HashMap<(u64, u64), ()> = HashMap::new();
    // Per-track monotonic cursor, ns relative to t0.
    let mut cursor: HashMap<(u64, u64), u64> = HashMap::new();

    for r in &sorted {
        let (pid, tid) = (u64::from(r.pid), u64::from(r.tid));
        if tracks_named.insert((pid, tid), ()).is_none() {
            events.push(meta(
                "process_name",
                &format!("{} (pid {})", r.worker, r.pid),
                pid,
                tid,
            ));
            events.push(meta("thread_name", &format!("sim thread {tid}"), pid, tid));
        }
        let rel_ns = r.start_us.saturating_sub(t0_us).saturating_mul(1000);
        let track = cursor.entry((pid, tid)).or_insert(0);
        let start = rel_ns.max(*track);
        let name = format!("{}/{}", r.app, r.config);
        let args = JsonObj::new()
            .field_str("key", &r.key)
            .field_str("worker", &r.worker)
            .finish();
        events.push(event("B", &name, "point", start, pid, tid, Some(args)));
        if r.poisoned {
            events.push(event("i", "poisoned", "fault", start, pid, tid, None));
        }
        let mut cur = start;
        for phase in TOP_PHASES {
            let dur = r.phase_ns(phase);
            if dur == 0 {
                continue;
            }
            events.push(event("B", phase, "phase", cur, pid, tid, None));
            if phase == "detailed-sim" {
                let mut inner = cur;
                let mut children_ns = 0;
                for child in DETAIL_CHILDREN {
                    let cdur = r.phase_ns(child);
                    if cdur == 0 {
                        continue;
                    }
                    events.push(event("B", child, "phase", inner, pid, tid, None));
                    events.push(event("E", child, "phase", inner + cdur, pid, tid, None));
                    inner += cdur;
                    children_ns += cdur;
                }
                // A parent must close at or after its last child.
                cur += dur.max(children_ns);
            } else {
                cur += dur;
            }
            events.push(event("E", phase, "phase", cur, pid, tid, None));
        }
        let end = cur.max(start + r.wall_ns);
        events.push(event("E", &name, "point", end, pid, tid, None));
        *cursor.get_mut(&(pid, tid)).expect("cursor") = end;
    }

    format!(
        "{{\"traceEvents\":[{}],\"displayTimeUnit\":\"ms\"}}\n",
        events.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::tests::sample;
    use musa_obs::json::JsonValue;

    fn records() -> Vec<PointProfile> {
        let mut a = sample("aaaa", "hydro", "c64", 3_000_000);
        a.start_us = 1_000_000;
        a.phases.insert("burst".into(), 200_000);
        a.phases.insert("dram".into(), 300_000);
        a.phases.insert("trace-gen".into(), 400_000);
        let mut b = sample("bbbb", "hydro", "c128", 2_000_000);
        // Overlapping start on the same track: must be pushed right.
        b.start_us = 1_001_000;
        let mut c = sample("cccc", "spmz", "c64", 1_000_000);
        c.start_us = 1_002_000;
        c.pid = 4243; // second process → own track
        c.poisoned = true;
        vec![a, b, c]
    }

    #[test]
    fn export_is_valid_monotonic_and_balanced() {
        let text = export_trace(&records());
        let doc = JsonValue::parse(text.trim()).expect("strict JSON");
        let events = doc
            .get("traceEvents")
            .and_then(JsonValue::as_arr)
            .expect("traceEvents");
        assert!(!events.is_empty());

        let mut last_ts: HashMap<(u64, u64), f64> = HashMap::new();
        let mut depth: HashMap<(u64, u64), i64> = HashMap::new();
        let mut instants = 0;
        for e in events {
            let ph = e.get("ph").and_then(JsonValue::as_str).expect("ph");
            if ph == "M" {
                continue;
            }
            let pid = e.get("pid").and_then(JsonValue::as_u64).expect("pid");
            let tid = e.get("tid").and_then(JsonValue::as_u64).expect("tid");
            let ts = e.get("ts").and_then(JsonValue::as_f64).expect("ts");
            let track = (pid, tid);
            // Monotonic ts per track, in emission order.
            if let Some(prev) = last_ts.get(&track) {
                assert!(ts >= *prev, "ts regressed on track {track:?}");
            }
            last_ts.insert(track, ts);
            match ph {
                "B" => *depth.entry(track).or_insert(0) += 1,
                "E" => {
                    let d = depth.entry(track).or_insert(0);
                    *d -= 1;
                    assert!(*d >= 0, "E without B on {track:?}");
                }
                "i" => instants += 1,
                other => panic!("unexpected ph {other}"),
            }
        }
        // Every B has its E.
        assert!(depth.values().all(|d| *d == 0), "unbalanced: {depth:?}");
        // The poisoned record made it.
        assert_eq!(instants, 1);
        // Two tracks, one per process.
        let pids: std::collections::HashSet<u64> = last_ts.keys().map(|(p, _)| *p).collect();
        assert_eq!(pids.len(), 2);
    }

    #[test]
    fn empty_input_is_still_valid() {
        let text = export_trace(&[]);
        let doc = JsonValue::parse(text.trim()).unwrap();
        assert_eq!(
            doc.get("traceEvents").and_then(JsonValue::as_arr).unwrap(),
            &[] as &[JsonValue]
        );
    }
}
