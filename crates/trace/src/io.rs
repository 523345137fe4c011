//! Trace (de)serialisation: one JSON document per application trace.
//!
//! MUSA stores a trace so that one generation can drive the whole
//! 864-point exploration, "reducing trace generation time and storage
//! requirements" (§II-A). Here no campaign path stores one: each run
//! generates its traces in memory, once per application, and replays
//! them at every point. The codec serves the round-trip tests (this
//! crate's and the workspace's end-to-end suite) and anyone who wants a
//! trace on disk. A work item is written without a name (it is its
//! position in its region), its `kernels` is `null` or one invocation
//! object whose `trips` is never zero, and a task region's `deps` holds
//! its edges (one list of earlier positions per task, or none). A trace
//! file written by an older build no longer loads: such a file held an
//! `id` per item (and edges that named ids), a `"trips":null`, a
//! `kernels` list per item, or a task region without `deps` (older
//! builds kept each item's dependencies, and a region name, which this
//! reader does not read).

use std::fs::File;
use std::io::{Read, Write};
use std::path::Path;

use crate::AppTrace;

/// Errors arising while loading or saving traces.
#[derive(Debug)]
pub enum TraceIoError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The bytes are not the JSON of a trace.
    Json(String),
    /// The trace violated a structural invariant (see
    /// [`AppTrace::validate`]).
    Invalid(String),
}

impl std::fmt::Display for TraceIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceIoError::Io(e) => write!(f, "trace I/O error: {e}"),
            TraceIoError::Json(e) => write!(f, "trace JSON error: {e}"),
            TraceIoError::Invalid(msg) => write!(f, "invalid trace: {msg}"),
        }
    }
}

impl std::error::Error for TraceIoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceIoError::Io(e) => Some(e),
            TraceIoError::Json(_) | TraceIoError::Invalid(_) => None,
        }
    }
}

impl From<std::io::Error> for TraceIoError {
    fn from(e: std::io::Error) -> Self {
        TraceIoError::Io(e)
    }
}

/// Serialise a trace to a writer.
pub fn write_trace<W: Write>(trace: &AppTrace, mut writer: W) -> Result<(), TraceIoError> {
    writer.write_all(musa_obs::json::to_string(trace).as_bytes())?;
    writer.flush()?;
    Ok(())
}

/// Deserialise and validate a trace from a reader.
pub fn read_trace<R: Read>(mut reader: R) -> Result<AppTrace, TraceIoError> {
    let mut text = String::new();
    reader.read_to_string(&mut text)?;
    let trace: AppTrace = musa_obs::json::from_str(&text).map_err(TraceIoError::Json)?;
    trace.validate().map_err(TraceIoError::Invalid)?;
    Ok(trace)
}

/// Save a trace to `path`.
pub fn save_trace(trace: &AppTrace, path: impl AsRef<Path>) -> Result<(), TraceIoError> {
    write_trace(trace, File::create(path)?)
}

/// Load and validate a trace from `path`.
pub fn load_trace(path: impl AsRef<Path>) -> Result<AppTrace, TraceIoError> {
    read_trace(File::open(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BurstEvent, ComputeRegion, RankTrace, RegionWork, TraceMeta, WorkItem};

    fn tiny_trace() -> AppTrace {
        AppTrace {
            meta: TraceMeta::new("t", 1, 1, 1),
            ranks: vec![RankTrace {
                rank: 0,
                events: vec![BurstEvent::Compute(ComputeRegion {
                    region_id: 0,
                    work: RegionWork::Serial {
                        item: WorkItem::simple(1.0),
                    },
                    spawn_overhead_ns: 0.0,
                    dispatch_overhead_ns: 0.0,
                })],
            }],
            detail: None,
        }
    }

    #[test]
    fn roundtrip_through_memory() {
        let trace = tiny_trace();
        let mut buf = Vec::new();
        write_trace(&trace, &mut buf).unwrap();
        let back = read_trace(buf.as_slice()).unwrap();
        assert_eq!(trace, back);
    }

    #[test]
    fn roundtrip_through_file() {
        let dir = std::env::temp_dir().join("musa-trace-io-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.json");
        let trace = tiny_trace();
        save_trace(&trace, &path).unwrap();
        let back = load_trace(&path).unwrap();
        assert_eq!(trace, back);
        std::fs::remove_file(&path).ok();
    }

    /// An item writes no name, and its kernel as one object or `null`;
    /// an item with an `id` or a call without a nonzero trip count does
    /// not load.
    #[test]
    fn an_item_encodes_its_kernel_as_one_object_or_null() {
        let item = WorkItem {
            kernels: Some(crate::KernelInvocation {
                kernel: 3,
                trips: std::num::NonZeroU32::new(7).unwrap(),
            }),
            ..WorkItem::simple(1.0)
        };
        let text = musa_obs::json::to_string(&item);
        assert_eq!(
            text,
            r#"{"duration_ns":1,"critical_ns":0,"kernels":{"kernel":3,"trips":7}}"#
        );
        assert_eq!(musa_obs::json::from_str::<WorkItem>(&text).unwrap(), item);
        let text = musa_obs::json::to_string(&WorkItem::simple(1.0));
        assert_eq!(text, r#"{"duration_ns":1,"critical_ns":0,"kernels":null}"#);
        for old in [
            r#"{"id":0,"duration_ns":1,"critical_ns":0,"kernels":null}"#,
            r#"{"duration_ns":1,"critical_ns":0,"kernels":{"kernel":3,"trips":0}}"#,
            r#"{"duration_ns":1,"critical_ns":0,"kernels":{"kernel":3,"trips":null}}"#,
        ] {
            assert!(musa_obs::json::from_str::<WorkItem>(old).is_err(), "{old}");
        }
    }

    /// A task region keeps its edges, one list of earlier positions per
    /// task, through a round trip; a region without edges writes an
    /// empty list, and a file with an edge to the task's own position
    /// does not load.
    #[test]
    fn a_task_region_keeps_its_edges() {
        let mut trace = tiny_trace();
        let items = vec![WorkItem::simple(1.0); 3];
        let BurstEvent::Compute(region) = &mut trace.ranks[0].events[0] else {
            unreachable!()
        };
        region.work = RegionWork::Tasks {
            items: items.clone(),
            deps: vec![vec![], vec![0], vec![0, 1]],
        };
        let mut buf = Vec::new();
        write_trace(&trace, &mut buf).unwrap();
        let text = String::from_utf8(buf.clone()).unwrap();
        assert!(text.contains(r#""deps":[[],[0],[0,1]]"#), "{text}");
        assert_eq!(read_trace(buf.as_slice()).unwrap(), trace);
        let own = text.replace(r#""deps":[[],[0],[0,1]]"#, r#""deps":[[],[1],[0,1]]"#);
        assert!(matches!(
            read_trace(own.as_bytes()),
            Err(TraceIoError::Invalid(_))
        ));

        let free = RegionWork::Tasks {
            items,
            deps: Vec::new(),
        };
        let text = musa_obs::json::to_string(&free);
        assert!(text.contains(r#""deps":[]"#), "{text}");
        assert_eq!(musa_obs::json::from_str::<RegionWork>(&text).unwrap(), free);
    }

    #[test]
    fn read_rejects_invalid_trace() {
        let mut trace = tiny_trace();
        trace.meta.ranks = 5; // now inconsistent
        let mut buf = Vec::new();
        write_trace(&trace, &mut buf).unwrap();
        match read_trace(buf.as_slice()) {
            Err(TraceIoError::Invalid(_)) => {}
            other => panic!("expected Invalid, got {other:?}"),
        }
    }

    #[test]
    fn read_rejects_garbage() {
        assert!(matches!(
            read_trace(&b"not json"[..]),
            Err(TraceIoError::Json(_))
        ));
    }
}
