//! The crash-safe lease journal for pool execution.
//!
//! The pool supervisor (`musa-dist`) hands point batches to worker
//! processes as **leases** and records every lifecycle transition —
//! grant, completion, death, requeue, poisoning — as one JSON line in
//! `leases.journal` inside the store directory. The journal is the
//! pool's memory across crashes: `--resume` replays it to restore
//! which points are poisoned and how many workers each point has
//! already killed, so a kill-9'd *supervisor* resumes mid-campaign
//! without re-running a point past its poison cap.
//!
//! ## Durability model
//!
//! Appends are `write + fdatasync`, one event per line, so the journal
//! survives anything the store's own rows survive. A crash can still
//! tear the final line; [`LeaseJournal::open`] repairs exactly like
//! the row stores do — unparsable interior lines go on record in the
//! quarantine file, the surviving lines are rewritten atomically and
//! verbatim (tmp + fsync + rename) and the torn tail is dropped. Replay
//! ([`replay`]) is lenient: a torn tail or an unparsable interior line
//! is counted and skipped, never fatal, because the journal is
//! recovery metadata — losing an event costs at most one redundant
//! worker attempt, while refusing to start would cost the campaign.
//!
//! The file is deliberately **not** named `*.jsonl`: the row loader
//! globs `*.jsonl`, and lease events must never be mistaken for
//! campaign rows.
//!
//! Serialisation uses the `musa_obs::json` reader and writer, like
//! every other persisted format.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

use musa_obs::json::{JsonObj, JsonValue};

use crate::integrity::{read_log, scan, Scan, Verdict};

/// Name of the lease journal inside the store directory.
pub const LEASE_JOURNAL_FILE: &str = "leases.journal";

/// A point the pool quarantined: it killed (or hung past the
/// deadline) `strikes` workers and will not be retried until the
/// operator clears the journal. Carried verbatim in the journal so
/// the provenance survives the supervisor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolPoisonRecord {
    /// Hex [`crate::PointKey`] of the point.
    pub key: String,
    /// Application label.
    pub app: String,
    /// Configuration label.
    pub config: String,
    /// Workers this point took down before quarantine.
    pub strikes: u32,
    /// Why the last strike was charged (exit status, signal, or
    /// deadline).
    pub reason: String,
}

/// Peer recorded for an old `"ev":"grant"` line, which named none.
const LEGACY_GRANT_PEER: &str = "local";

/// One lease lifecycle event.
#[derive(Debug, Clone, PartialEq)]
pub enum LeaseEvent {
    /// The worker finished its lease and exited cleanly.
    Done {
        /// Lease id.
        lease: u64,
        /// Attempt number.
        attempt: u32,
        /// Rows the worker reported persisting.
        rows: u64,
    },
    /// The worker died (crash, kill -9, nonzero exit, or watchdog
    /// kill) before finishing.
    Dead {
        /// Lease id.
        lease: u64,
        /// Attempt number.
        attempt: u32,
        /// Points the worker had completed (from its heartbeat).
        done: u64,
        /// Hex key of the point blamed for the death, if known.
        blamed: Option<String>,
        /// How the worker died.
        reason: String,
    },
    /// A lease was granted to a worker connected to the supervisor's
    /// hub — a child it spawned or a remote machine. The peer tag
    /// records where the work went so a post-mortem can tell remote
    /// deaths from local ones. Journals written before every worker
    /// spoke the wire protocol hold `"ev":"grant"` lines (a directly
    /// spawned worker, no peer): they parse as this variant with peer
    /// `"local"`.
    RemoteGrant {
        /// Lease id (unique within the journal).
        lease: u64,
        /// 0 for the first grant of a point set, +1 per requeue.
        attempt: u32,
        /// Global point indices (enumeration order) in the lease.
        points: Vec<u64>,
        /// Peer tag of the worker (`<worker>@<address>`).
        peer: String,
    },
    /// The unfinished remainder of a dead lease was requeued.
    Requeue {
        /// New lease id.
        lease: u64,
        /// Attempt number of the new lease.
        attempt: u32,
        /// Lease id this one continues.
        from: u64,
        /// Backoff applied before the regrant, in milliseconds.
        backoff_ms: u64,
        /// Points in the requeued lease.
        points: u64,
    },
    /// A point crossed the poison cap and was quarantined.
    Poison(PoolPoisonRecord),
    /// The run was interrupted (SIGINT/SIGTERM) after draining.
    Interrupted {
        /// What interrupted it.
        reason: String,
    },
    /// The sweep finished (possibly with poisoned points).
    Complete {
        /// Rows simulated across all workers.
        simulated: u64,
        /// Points left poisoned.
        poisoned: u64,
    },
}

fn points_json(points: &[u64]) -> String {
    let mut out = String::from("[");
    for (i, p) in points.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&p.to_string());
    }
    out.push(']');
    out
}

impl LeaseEvent {
    /// One-line JSON serialisation (no trailing newline).
    pub fn to_json(&self) -> String {
        match self {
            LeaseEvent::Done {
                lease,
                attempt,
                rows,
            } => JsonObj::new()
                .field_str("ev", "done")
                .field_u64("lease", *lease)
                .field_u64("attempt", u64::from(*attempt))
                .field_u64("rows", *rows)
                .finish(),
            LeaseEvent::Dead {
                lease,
                attempt,
                done,
                blamed,
                reason,
            } => {
                let mut obj = JsonObj::new()
                    .field_str("ev", "dead")
                    .field_u64("lease", *lease)
                    .field_u64("attempt", u64::from(*attempt))
                    .field_u64("done", *done);
                obj = match blamed {
                    Some(key) => obj.field_str("blamed", key),
                    None => obj.field_raw("blamed", "null"),
                };
                obj.field_str("reason", reason).finish()
            }
            LeaseEvent::RemoteGrant {
                lease,
                attempt,
                points,
                peer,
            } => JsonObj::new()
                .field_str("ev", "rgrant")
                .field_u64("lease", *lease)
                .field_u64("attempt", u64::from(*attempt))
                .field_raw("points", &points_json(points))
                .field_str("peer", peer)
                .finish(),
            LeaseEvent::Requeue {
                lease,
                attempt,
                from,
                backoff_ms,
                points,
            } => JsonObj::new()
                .field_str("ev", "requeue")
                .field_u64("lease", *lease)
                .field_u64("attempt", u64::from(*attempt))
                .field_u64("from", *from)
                .field_u64("backoff_ms", *backoff_ms)
                .field_u64("points", *points)
                .finish(),
            LeaseEvent::Poison(p) => JsonObj::new()
                .field_str("ev", "poison")
                .field_str("key", &p.key)
                .field_str("app", &p.app)
                .field_str("config", &p.config)
                .field_u64("strikes", u64::from(p.strikes))
                .field_str("reason", &p.reason)
                .finish(),
            LeaseEvent::Interrupted { reason } => JsonObj::new()
                .field_str("ev", "interrupted")
                .field_str("reason", reason)
                .finish(),
            LeaseEvent::Complete {
                simulated,
                poisoned,
            } => JsonObj::new()
                .field_str("ev", "complete")
                .field_u64("simulated", *simulated)
                .field_u64("poisoned", *poisoned)
                .finish(),
        }
    }

    /// Parse one journal line. Errors name what is missing so replay
    /// diagnostics stay actionable.
    pub fn parse(line: &str) -> Result<LeaseEvent, String> {
        let v = JsonValue::parse(line)?;
        let str_of = |k: &str| -> Result<String, String> {
            v.get(k)
                .and_then(|x| x.as_str())
                .map(str::to_string)
                .ok_or_else(|| format!("missing string field {k:?}"))
        };
        let u64_of = |k: &str| -> Result<u64, String> {
            v.get(k)
                .and_then(|x| x.as_u64())
                .ok_or_else(|| format!("missing integer field {k:?}"))
        };
        let u32_of = |k: &str| -> Result<u32, String> {
            u32::try_from(u64_of(k)?).map_err(|_| format!("field {k:?} out of range"))
        };
        let points_of = || -> Result<Vec<u64>, String> {
            v.get("points")
                .and_then(|x| x.as_arr())
                .ok_or("missing array field \"points\"")?
                .iter()
                .map(|p| p.as_u64().ok_or("non-integer point index".to_string()))
                .collect()
        };
        match str_of("ev")?.as_str() {
            "done" => Ok(LeaseEvent::Done {
                lease: u64_of("lease")?,
                attempt: u32_of("attempt")?,
                rows: u64_of("rows")?,
            }),
            "dead" => Ok(LeaseEvent::Dead {
                lease: u64_of("lease")?,
                attempt: u32_of("attempt")?,
                done: u64_of("done")?,
                blamed: v.get("blamed").and_then(|x| x.as_str()).map(str::to_string),
                reason: str_of("reason")?,
            }),
            ev @ ("rgrant" | "grant") => Ok(LeaseEvent::RemoteGrant {
                lease: u64_of("lease")?,
                attempt: u32_of("attempt")?,
                points: points_of()?,
                peer: if ev == "grant" {
                    LEGACY_GRANT_PEER.to_string()
                } else {
                    str_of("peer")?
                },
            }),
            "requeue" => Ok(LeaseEvent::Requeue {
                lease: u64_of("lease")?,
                attempt: u32_of("attempt")?,
                from: u64_of("from")?,
                backoff_ms: u64_of("backoff_ms")?,
                points: u64_of("points")?,
            }),
            "poison" => Ok(LeaseEvent::Poison(PoolPoisonRecord {
                key: str_of("key")?,
                app: str_of("app")?,
                config: str_of("config")?,
                strikes: u32_of("strikes")?,
                reason: str_of("reason")?,
            })),
            "interrupted" => Ok(LeaseEvent::Interrupted {
                reason: str_of("reason")?,
            }),
            "complete" => Ok(LeaseEvent::Complete {
                simulated: u64_of("simulated")?,
                poisoned: u64_of("poisoned")?,
            }),
            other => Err(format!("unknown event {other:?}")),
        }
    }
}

/// What replaying a journal recovered.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JournalReplay {
    /// Every parseable event, in journal order.
    pub events: Vec<LeaseEvent>,
    /// Final line torn by a crash (no trailing newline, unparsable).
    pub torn_tail: bool,
    /// Interior lines that failed to parse (skipped, not fatal).
    pub skipped: u64,
    /// File absent, empty, or newline-terminated. False means the
    /// last line is missing its newline — even if it parsed (a crash
    /// can cut exactly between the final `}` and the `\n`), a later
    /// append would concatenate onto it, so an appendable open must
    /// rewrite first.
    pub clean_terminated: bool,
}

impl JournalReplay {
    /// The poisoned set: last [`LeaseEvent::Poison`] record per key.
    pub fn poisoned(&self) -> Vec<PoolPoisonRecord> {
        let mut by_key: HashMap<&str, &PoolPoisonRecord> = HashMap::new();
        let mut order: Vec<&str> = Vec::new();
        for ev in &self.events {
            if let LeaseEvent::Poison(p) = ev {
                if by_key.insert(p.key.as_str(), p).is_none() {
                    order.push(p.key.as_str());
                }
            }
        }
        order.into_iter().map(|k| by_key[k].clone()).collect()
    }

    /// The first lease id not yet used by any grant or requeue: ids
    /// stay unique across a resume.
    pub fn next_lease(&self) -> u64 {
        self.events
            .iter()
            .filter_map(|ev| match ev {
                LeaseEvent::RemoteGrant { lease, .. } | LeaseEvent::Requeue { lease, .. } => {
                    Some(*lease)
                }
                _ => None,
            })
            .max()
            .map_or(1, |max| max + 1)
    }

    /// Strikes already charged per blamed point key — the poison-cap
    /// bookkeeping a resumed supervisor starts from.
    pub fn strikes(&self) -> HashMap<String, u32> {
        let mut strikes: HashMap<String, u32> = HashMap::new();
        for ev in &self.events {
            if let LeaseEvent::Dead {
                blamed: Some(key), ..
            } = ev
            {
                *strikes.entry(key.clone()).or_default() += 1;
            }
        }
        strikes
    }
}

/// Replay the journal in `dir` **leniently**: a missing file is an
/// empty replay, a torn tail or unparsable interior line is counted
/// and skipped. Never writes.
pub fn replay(dir: &Path) -> JournalReplay {
    replay_path(&dir.join(LEASE_JOURNAL_FILE))
}

/// The lease family's line classifier for [`scan`].
pub fn classify_event(_line_no: usize, line: &str) -> Verdict<LeaseEvent> {
    match LeaseEvent::parse(line) {
        Ok(ev) => Verdict::Record(ev),
        Err(e) => Verdict::Corrupt(format!("lease journal line failed to parse: {e}")),
    }
}

impl JournalReplay {
    fn of(scan: Scan<LeaseEvent>) -> JournalReplay {
        JournalReplay {
            torn_tail: scan.torn.is_some(),
            skipped: scan.bad.len() as u64,
            clean_terminated: !scan.unterminated,
            events: scan.records,
        }
    }
}

fn replay_path(path: &Path) -> JournalReplay {
    // Lenient: an unreadable journal is an empty one.
    let log = read_log(path).unwrap_or_default();
    JournalReplay::of(scan(&log, classify_event))
}

/// An open, appendable lease journal.
pub struct LeaseJournal {
    path: PathBuf,
    file: File,
    seq: u64,
}

impl LeaseJournal {
    /// Open (or create) the journal in `dir` and return it together
    /// with the replayed state. A torn tail or corrupt interior lines
    /// are repaired first: the corrupt lines go on record in the
    /// store's quarantine file, then the surviving lines are rewritten
    /// atomically, verbatim. Only the supervisor calls this; workers
    /// never touch the journal.
    pub fn open(dir: &Path) -> std::io::Result<(LeaseJournal, JournalReplay)> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(LEASE_JOURNAL_FILE);
        let log = read_log(&path).unwrap_or_default();
        let scan = scan(&log, classify_event);
        if scan.needs_rewrite() {
            musa_obs::warn(
                "musa-store",
                "lease journal repaired",
                &[
                    ("torn_tail", scan.torn.is_some().to_string().into()),
                    ("skipped", scan.bad.len().into()),
                ],
            );
            crate::set_aside(dir, LEASE_JOURNAL_FILE, &scan.bad)?;
            scan.rewrite(&path, "store.rewrite")?;
        }
        let replayed = JournalReplay::of(scan);
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        Ok((
            LeaseJournal {
                path,
                file,
                seq: replayed.events.len() as u64,
            },
            replayed,
        ))
    }

    /// Path of the journal file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Append one event durably (`write + fdatasync`). Carries the
    /// `pool.lease` failpoint, keyed by the append sequence number.
    pub fn append(&mut self, ev: &LeaseEvent) -> std::io::Result<()> {
        self.seq += 1;
        musa_fault::fail_io("pool.lease", self.seq)?;
        let mut line = ev.to_json();
        line.push('\n');
        self.file.write_all(line.as_bytes())?;
        self.file.sync_data()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "musa-journal-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_events() -> Vec<LeaseEvent> {
        vec![
            LeaseEvent::RemoteGrant {
                lease: 1,
                attempt: 0,
                points: vec![0, 3, 7],
                peer: "w4242@127.0.0.1:45001".into(),
            },
            LeaseEvent::Dead {
                lease: 1,
                attempt: 0,
                done: 1,
                blamed: Some("00c0ffee00c0ffee".into()),
                reason: "signal (killed)".into(),
            },
            LeaseEvent::Requeue {
                lease: 2,
                attempt: 1,
                from: 1,
                backoff_ms: 6,
                points: 2,
            },
            LeaseEvent::RemoteGrant {
                lease: 3,
                attempt: 0,
                points: vec![9, 10],
                peer: "127.0.0.1:45123".into(),
            },
            LeaseEvent::Dead {
                lease: 2,
                attempt: 1,
                done: 0,
                blamed: None,
                reason: "exit status 101".into(),
            },
            LeaseEvent::Poison(PoolPoisonRecord {
                key: "00c0ffee00c0ffee".into(),
                app: "hydro".into(),
                config: "cfg with \"quotes\"".into(),
                strikes: 3,
                reason: "deadline exceeded (300ms)".into(),
            }),
            LeaseEvent::Done {
                lease: 2,
                attempt: 1,
                rows: 2,
            },
            LeaseEvent::Interrupted {
                reason: "SIGINT".into(),
            },
            LeaseEvent::Complete {
                simulated: 3,
                poisoned: 1,
            },
        ]
    }

    #[test]
    fn events_roundtrip_through_json() {
        for ev in sample_events() {
            let line = ev.to_json();
            let back =
                LeaseEvent::parse(&line).unwrap_or_else(|e| panic!("parse failed for {line}: {e}"));
            assert_eq!(back, ev);
        }
    }

    #[test]
    fn append_then_replay_restores_state() {
        let dir = tmp_dir("roundtrip");
        let (mut journal, replayed) = LeaseJournal::open(&dir).unwrap();
        assert!(replayed.events.is_empty());
        for ev in sample_events() {
            journal.append(&ev).unwrap();
        }
        drop(journal);

        let replayed = replay(&dir);
        assert_eq!(replayed.events, sample_events());
        assert!(!replayed.torn_tail);
        assert_eq!(replayed.skipped, 0);
        assert_eq!(replayed.poisoned().len(), 1);
        assert_eq!(replayed.poisoned()[0].strikes, 3);
        assert_eq!(replayed.strikes().get("00c0ffee00c0ffee").copied(), Some(1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A journal written before every worker spoke the wire protocol
    /// holds `grant` lines (no peer). It must restore exactly the state
    /// the same history spelled with `rgrant` lines restores.
    #[test]
    fn legacy_grant_lines_replay_to_the_same_state() {
        let history = |grant: fn(u64, u32, &str) -> String| {
            [
                grant(1, 0, "[0,3,7]"),
                r#"{"ev":"dead","lease":1,"attempt":0,"done":1,"blamed":"00c0ffee00c0ffee","reason":"signal (killed)"}"#.to_string(),
                r#"{"ev":"requeue","lease":2,"attempt":1,"from":1,"backoff_ms":6,"points":2}"#.to_string(),
                grant(2, 1, "[3,7]"),
                r#"{"ev":"dead","lease":2,"attempt":1,"done":0,"blamed":"00c0ffee00c0ffee","reason":"exit status 101"}"#.to_string(),
                r#"{"ev":"poison","key":"00c0ffee00c0ffee","app":"hydro","config":"c","strikes":2,"reason":"exit status 101"}"#.to_string(),
                grant(3, 0, "[9]"),
            ]
            .join("\n")
                + "\n"
        };
        let replay_of = |tag: &str, text: String| {
            let dir = tmp_dir(tag);
            std::fs::write(dir.join(LEASE_JOURNAL_FILE), text).unwrap();
            let replayed = replay(&dir);
            let _ = std::fs::remove_dir_all(&dir);
            replayed
        };
        let old = replay_of(
            "legacy-grant",
            history(|lease, attempt, points| {
                format!(r#"{{"ev":"grant","lease":{lease},"attempt":{attempt},"points":{points}}}"#)
            }),
        );
        let new = replay_of(
            "legacy-rgrant",
            history(|lease, attempt, points| {
                format!(
                    r#"{{"ev":"rgrant","lease":{lease},"attempt":{attempt},"points":{points},"peer":"w1@127.0.0.1:9"}}"#
                )
            }),
        );
        assert_eq!((old.skipped, old.torn_tail), (0, false));
        assert_eq!(old.events.len(), new.events.len());
        assert!(old.events.iter().any(|ev| matches!(
            ev,
            LeaseEvent::RemoteGrant { lease: 3, peer, .. } if peer == LEGACY_GRANT_PEER
        )));
        // The last grant holds the highest id: losing the legacy lines
        // would hand lease 3 out twice.
        assert_eq!((old.next_lease(), new.next_lease()), (4, 4));
        assert_eq!(old.strikes(), new.strikes());
        assert_eq!(old.strikes().get("00c0ffee00c0ffee").copied(), Some(2));
        assert_eq!(old.poisoned(), new.poisoned());
        assert_eq!(old.poisoned().len(), 1);
    }

    #[test]
    fn replay_of_missing_journal_is_empty() {
        let dir = tmp_dir("missing");
        let replayed = replay(&dir);
        assert!(replayed.events.is_empty() && !replayed.torn_tail);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_repairs_a_torn_tail() {
        let dir = tmp_dir("torn");
        let path = dir.join(LEASE_JOURNAL_FILE);
        let good = LeaseEvent::RemoteGrant {
            lease: 1,
            attempt: 0,
            points: vec![1, 2],
            peer: "w7@127.0.0.1:45002".into(),
        };
        std::fs::write(&path, format!("{}\n{{\"ev\":\"dea", good.to_json())).unwrap();

        let (mut journal, replayed) = LeaseJournal::open(&dir).unwrap();
        assert!(replayed.torn_tail);
        assert_eq!(replayed.events, vec![good.clone()]);
        // The repair truncated the torn bytes; appends keep working.
        journal
            .append(&LeaseEvent::Done {
                lease: 1,
                attempt: 0,
                rows: 2,
            })
            .unwrap();
        drop(journal);
        let replayed = replay(&dir);
        assert_eq!(replayed.events.len(), 2);
        assert!(!replayed.torn_tail && replayed.skipped == 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The repairing open must not lose bytes: a corrupt interior line
    /// goes on record in the quarantine file before the rewrite drops
    /// it, the surviving lines stay verbatim (a legacy `grant` line is
    /// not respelled), and the replayed state is what a read-only
    /// replay of the damaged file gives.
    #[test]
    fn open_sets_corrupt_interior_lines_aside() {
        let dir = tmp_dir("aside");
        let path = dir.join(LEASE_JOURNAL_FILE);
        let legacy = r#"{"ev":"grant","lease":1,"attempt":0,"points":[0,3]}"#;
        let garbage = r#"{"ev":"dead","lease":1,"att\u0000 flipped bits"#;
        let done = LeaseEvent::Done {
            lease: 1,
            attempt: 0,
            rows: 2,
        };
        std::fs::write(&path, format!("{legacy}\n{garbage}\n{}\n", done.to_json())).unwrap();
        let before = replay(&dir);
        assert_eq!((before.events.len(), before.skipped), (2, 1));

        let (journal, replayed) = LeaseJournal::open(&dir).unwrap();
        drop(journal);
        assert_eq!(replayed, before, "the repair must not change the state");
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            format!("{legacy}\n{}\n", done.to_json())
        );
        let evidence = std::fs::read_to_string(dir.join(crate::QUARANTINE_FILE)).unwrap();
        let record: crate::QuarantineRecord =
            musa_obs::json::from_str(evidence.lines().next().unwrap()).unwrap();
        assert_eq!(record.raw, garbage);
        assert_eq!((record.file.as_str(), record.line), (LEASE_JOURNAL_FILE, 2));
        assert!(
            record
                .reason
                .starts_with("lease journal line failed to parse: "),
            "{}",
            record.reason
        );
        assert_eq!(evidence.lines().count(), 1);

        // The same incident met again is the same record.
        std::fs::write(&path, format!("{garbage}\n")).unwrap();
        let _ = LeaseJournal::open(&dir).unwrap();
        assert_eq!(
            std::fs::read_to_string(dir.join(crate::QUARANTINE_FILE)).unwrap(),
            evidence
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
