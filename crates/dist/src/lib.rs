//! # musa-dist
//!
//! Supervised, fault-tolerant campaign execution: the layer that turns
//! `dse` into `dse --workers N` without changing what lands in the
//! store, byte for byte. Workers connect to the supervisor over a
//! hand-rolled, length-prefixed, CRC-32-sealed framed TCP protocol.
//! `dse --workers N` runs its own N `dse dist-worker` children over
//! loopback, `--listen ADDR` lets any number of
//! `dse dist-worker --connect ADDR` processes on other machines join
//! the same campaign — there is one worker program and one
//! worker→supervisor channel.
//!
//! A [`Supervisor`] enumerates the missing points of a run, partitions
//! them into self-describing **leases**, keeps N workers connected to
//! its hub, and journals every lease transition — grant, completion,
//! death, requeue, poisoning — durably (`musa-store`'s
//! [`LeaseJournal`](musa_store::LeaseJournal)) *before* it takes
//! effect, so a crash of any process, supervisor included, is
//! recoverable by `--resume`.
//!
//! The failure model, in one paragraph: a worker ships each finished
//! point in its own frame and the hub appends the row durably before
//! counting it; a dead connection (process death, a frame failing its
//! seal, a per-point deadline `--point-timeout`) ends its lease with
//! the shipped prefix kept, the point in flight blamed, and the
//! remainder requeued with jittered exponential backoff; any point
//! that kills `--poison-cap` workers is quarantined as **poisoned** —
//! with provenance — rather than letting one pathological
//! configuration starve the other 863. SIGINT/SIGTERM drains: workers
//! finish their in-flight point and report partial progress; the
//! journal records the interruption.
//!
//! Correctness leans on the store, not on process choreography: rows
//! are content-addressed and CRC-sealed, duplicate keys collapse on
//! load, and every lease appends to a file of its own. That is what
//! makes `--workers N` (and any crash/retry interleaving of it)
//! byte-identical to a sequential fill after the final repair pass —
//! the e2e suite asserts exactly that.
//!
//! Module map:
//! * [`supervisor`] — [`Supervisor`]: granting, folding, requeueing,
//!   poisoning, reaping, draining.
//! * [`codec`] — the wire format. One frame is a JSON header line plus
//!   an opaque body, length-prefixed and CRC-sealed; decoding never
//!   panics and never trusts the wire (typed errors, hard size cap).
//!   Leases are self-describing — a grant names the points and the
//!   sweep, so a worker derives nothing from its environment — and
//!   campaign rows travel in frame bodies as the exact sealed line
//!   [`musa_store::PointExecutor`] produced, which is what makes
//!   distributed runs byte-identical to sequential ones.
//! * `hub` — the supervisor's endpoint: a nonblocking TCP listener
//!   polled from the lease loop. It accepts a shipped row only if it
//!   unseals and is the leased point's, appends it durably, appends
//!   the point's profile line to the store's flight record, and
//!   converts every connection failure (EOF, CRC mismatch, wrong-point
//!   row, liveness timeout) into a lease-death event the supervisor
//!   folds through its strike/poison/requeue path.
//! * [`worker`] — [`run_dist_worker`], the worker side: handshake,
//!   lease execution through a [`PointRunner`] (the real one is
//!   [`musa_store::PointExecutor`]), heartbeats over the wire, and
//!   seeded-jittered reconnect that survives a supervisor `kill -9` +
//!   `--resume`.
//! * [`signals`] — dependency-free SIGINT/SIGTERM latching and
//!   SIGTERM/SIGKILL delivery (inert on non-unix targets).
//!
//! Network chaos is first-class: the `dist.accept`, `dist.frame.send`
//! and `dist.frame.recv` failpoints (see `musa-fault`) inject dropped
//! accepts, I/O errors, delays and single-bit garbles, and the smoke
//! suite asserts byte-identity of the resulting store under all of it.

#![warn(missing_docs)]

pub mod codec;
mod hub;
pub mod signals;
pub mod supervisor;
pub mod worker;

pub use codec::{Frame, FrameBuf, FrameError, Msg, MAX_FRAME, PROTOCOL_VERSION};
pub use supervisor::{
    PoolOptions, PoolReport, Supervisor, DEFAULT_LEASE_BATCH, DEFAULT_POISON_CAP, DEFAULT_WORKERS,
    MAX_LEASE_ATTEMPTS,
};
pub use worker::{
    run_dist_worker, DistWorkerOptions, PointRunner, WorkerExit, DEFAULT_MAX_RECONNECTS,
    DEFAULT_RECONNECT_FOR,
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hub::{DistHub, LeaseProgress, RemoteEvent, RemoteLease};
    use musa_apps::{AppId, GenParams};
    use musa_arch::{DesignSpace, NodeConfig};
    use musa_core::SweepOptions;
    use musa_store::{PointExecutor, PointKey, PointOutput, PoisonedPoint};
    use std::io::{Read, Write};
    use std::time::{Duration, Instant};

    fn hub_in(dir: &std::path::Path) -> DistHub {
        DistHub::bind("127.0.0.1:0", dir, Some(Duration::from_secs(5)), 0).expect("bind loopback")
    }

    fn worker_opts(hub: &DistHub, tag: &str) -> DistWorkerOptions {
        DistWorkerOptions {
            connect: hub.local_addr().to_string(),
            tag: tag.to_string(),
            reconnect_for: Duration::from_secs(5),
            max_reconnects: DEFAULT_MAX_RECONNECTS,
        }
    }

    fn sweep() -> SweepOptions {
        SweepOptions {
            gen: GenParams::tiny(),
            full_replay: false,
        }
    }

    /// A three-point hydro lease spread across the design space.
    fn lease(id: u64, attempt: u32) -> RemoteLease {
        RemoteLease {
            id,
            attempt,
            sweep: sweep(),
            points: DesignSpace::all()
                .into_iter()
                .step_by(400)
                .map(|config| (AppId::Hydro, config))
                .collect(),
        }
    }

    /// Poll the hub until `stop` says so or the deadline passes,
    /// collecting events.
    fn drive(
        hub: &mut DistHub,
        events: &mut Vec<RemoteEvent>,
        deadline: Instant,
        mut stop: impl FnMut(&DistHub, &[RemoteEvent]) -> bool,
    ) {
        loop {
            events.extend(hub.poll().expect("poll"));
            if stop(hub, events) || Instant::now() > deadline {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// A real executor whose output a script may tamper with.
    struct ScriptedRunner {
        exec: PointExecutor,
        ran: u64,
        script: fn(&mut PointExecutor, u64, AppId, &NodeConfig, &SweepOptions) -> PointOutput,
    }

    impl ScriptedRunner {
        fn new(
            script: fn(&mut PointExecutor, u64, AppId, &NodeConfig, &SweepOptions) -> PointOutput,
        ) -> ScriptedRunner {
            ScriptedRunner {
                exec: PointExecutor::new(),
                ran: 0,
                script,
            }
        }
    }

    impl PointRunner for ScriptedRunner {
        fn begin_lease(&mut self, _lease: u64, _attempt: u32) {}
        fn run_point(&mut self, app: AppId, config: &NodeConfig, s: &SweepOptions) -> PointOutput {
            self.ran += 1;
            (self.script)(&mut self.exec, self.ran, app, config, s)
        }
    }

    fn spawn_worker(
        hub: &DistHub,
        tag: &str,
        mut runner: ScriptedRunner,
    ) -> std::thread::JoinHandle<WorkerExit> {
        let opts = worker_opts(hub, tag);
        std::thread::spawn(move || run_dist_worker(&opts, &mut runner))
    }

    fn profile_line(key: &str) -> String {
        musa_prof::PointProfile {
            schema: musa_prof::PROF_SCHEMA,
            key: key.to_string(),
            app: "hydro".into(),
            worker: "l0001-a0".into(),
            ..musa_prof::PointProfile::default()
        }
        .to_line()
    }

    #[test]
    fn lease_roundtrip_ships_rows_and_profiles_and_completes() {
        let dir = tempdir("dist-roundtrip");
        let mut hub = hub_in(&dir);
        let worker = spawn_worker(
            &hub,
            "w1",
            ScriptedRunner::new(|exec, _, app, config, s| {
                let mut out = exec.run(app, config, s);
                out.profile = Some(profile_line(&out.row.as_ref().unwrap().row.key));
                out
            }),
        );

        let mut events = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(10);
        drive(&mut hub, &mut events, deadline, |h, _| h.idle() > 0);
        assert_eq!(hub.connected(), 1, "worker should have joined");

        let lease = lease(1, 0);
        let peer = hub.offer(&lease).expect("idle worker takes the lease");
        assert!(peer.starts_with("w1@127.0.0.1:"), "peer tag: {peer}");

        drive(&mut hub, &mut events, deadline, |_, evs| !evs.is_empty());
        match &events[..] {
            [RemoteEvent::LeaseDone(LeaseProgress {
                lease: 1,
                attempt: 0,
                done: 3,
                rows: 3,
                poisoned,
                ..
            })] => assert!(poisoned.is_empty()),
            other => panic!("expected one LeaseDone, got {other:?}"),
        }
        // The shard holds exactly the lines a local executor produces.
        let mut exec = PointExecutor::new();
        let want: String = lease
            .points
            .iter()
            .map(|(app, config)| exec.run(*app, config, &sweep()).row.unwrap().line + "\n")
            .collect();
        let shipped = std::fs::read_to_string(dir.join("dist-l0001-a0.jsonl")).expect("rows file");
        assert_eq!(shipped, want);
        let (profiles, rep) = musa_prof::load_profiles(&dir).expect("profiles");
        assert_eq!((profiles.len(), rep.corrupt, rep.torn_tails), (3, 0, 0));

        // Drain: the idle worker must exit cleanly.
        hub.drain();
        drive(&mut hub, &mut events, deadline, |h, _| h.connected() == 0);
        hub.shutdown();
        assert_eq!(worker.join().expect("worker thread"), WorkerExit::Drained);
        let status =
            std::fs::read_to_string(dir.join(musa_store::DIST_STATUS_FILE)).expect("status beacon");
        assert!(status.contains("\"draining\":true"), "status: {status}");
        cleanup(&dir);
    }

    #[test]
    fn poisoned_points_travel_in_the_point_frame() {
        let dir = tempdir("dist-poison");
        let mut hub = hub_in(&dir);
        let worker = spawn_worker(
            &hub,
            "w1",
            ScriptedRunner::new(|exec, ran, app, config, s| {
                let mut out = exec.run(app, config, s);
                if ran == 1 {
                    out.row = Err(PoisonedPoint {
                        app: app.label().into(),
                        config: config.label(),
                        key: PointKey::for_point(app, config, s).to_hex(),
                        reason: "panicked: boom".into(),
                    });
                }
                out
            }),
        );

        let mut events = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(10);
        drive(&mut hub, &mut events, deadline, |h, _| h.idle() > 0);
        hub.offer(&lease(2, 1)).expect("offer");
        drive(&mut hub, &mut events, deadline, |_, evs| !evs.is_empty());
        match &events[..] {
            [RemoteEvent::LeaseDone(LeaseProgress {
                lease: 2,
                attempt: 1,
                done: 3,
                rows: 2,
                poisoned,
                ..
            })] => {
                assert_eq!(poisoned.len(), 1);
                assert_eq!(poisoned[0].reason, "panicked: boom");
            }
            other => panic!("expected one LeaseDone, got {other:?}"),
        }
        hub.drain();
        drive(&mut hub, &mut events, deadline, |h, _| h.connected() == 0);
        hub.shutdown();
        assert_eq!(worker.join().unwrap(), WorkerExit::Drained);
        cleanup(&dir);
    }

    /// A validly sealed row for the *wrong* point is the same verdict
    /// as a garbled frame: the connection dies, the lease with it, and
    /// nothing reaches the shard.
    #[test]
    fn wrong_point_row_kills_the_lease_and_appends_nothing() {
        let dir = tempdir("dist-wrongpoint");
        let mut hub = hub_in(&dir);
        let worker = spawn_worker(
            &hub,
            "w1",
            ScriptedRunner::new(|exec, _, app, _config, s| {
                exec.run(app, &NodeConfig::REFERENCE, s)
            }),
        );
        let mut events = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(10);
        drive(&mut hub, &mut events, deadline, |h, _| h.idle() > 0);
        let lease = lease(4, 0);
        assert!(lease
            .points
            .iter()
            .all(|(_, c)| *c != NodeConfig::REFERENCE));
        hub.offer(&lease).expect("offer");
        drive(&mut hub, &mut events, deadline, |_, evs| !evs.is_empty());
        match &events[..] {
            [RemoteEvent::LeaseDead {
                progress:
                    LeaseProgress {
                        lease: 4,
                        done: 0,
                        rows: 0,
                        ..
                    },
                blamed: Some(0),
                reason,
                deadline: false,
                ..
            }] => assert!(
                reason.contains("does not carry the leased point"),
                "{reason}"
            ),
            other => panic!("expected one LeaseDead, got {other:?}"),
        }
        assert!(
            !dir.join("dist-l0004-a0.jsonl").exists(),
            "a refused row must not reach the shard"
        );
        // The worker sees its connection cut and, the endpoint being
        // gone, runs out of reconnects.
        hub.shutdown();
        drop(hub);
        assert!(matches!(worker.join().unwrap(), WorkerExit::GaveUp(_)));
        cleanup(&dir);
    }

    /// A worker built before leases were self-describing speaks
    /// protocol 1 (its hello also carries a sweep signature): it is
    /// turned away with the typed version code before it sees a lease.
    #[test]
    fn protocol_one_worker_is_rejected_with_the_version_code() {
        let dir = tempdir("dist-v1");
        let mut hub = hub_in(&dir);
        let mut stream = std::net::TcpStream::connect(hub.local_addr()).expect("connect");
        let payload = b"{\"t\":\"hello\",\"ver\":1,\"sig\":\"v1:5x6:aa:bb\",\"worker\":\"w9\"}\n";
        let mut hello = (payload.len() as u32).to_le_bytes().to_vec();
        hello.extend_from_slice(&musa_store::crc32(payload).to_le_bytes());
        hello.extend_from_slice(payload);
        stream.write_all(&hello).expect("send hello");
        stream
            .set_read_timeout(Some(Duration::from_millis(20)))
            .unwrap();

        let mut inbuf = FrameBuf::new();
        let mut scratch = [0u8; 4096];
        let deadline = Instant::now() + Duration::from_secs(10);
        let reject = loop {
            assert!(hub.poll().expect("poll").is_empty());
            if let Ok(n) = stream.read(&mut scratch) {
                inbuf.extend(&scratch[..n]);
            }
            if let Some(frame) = inbuf.next_frame().expect("clean frame") {
                break frame.msg;
            }
            assert!(Instant::now() < deadline, "no reject frame arrived");
        };
        match reject {
            Msg::Reject { code, reason } => {
                assert_eq!(code, codec::REJECT_VERSION);
                assert!(reason.contains("1 != 2"), "reason: {reason}");
            }
            other => panic!("expected a reject, got {other:?}"),
        }
        assert_eq!(hub.idle(), 0, "a rejected peer never becomes a worker");
        hub.shutdown();
        cleanup(&dir);
    }

    #[test]
    fn connection_death_mid_lease_surfaces_progress_and_blame() {
        let dir = tempdir("dist-death");
        let mut hub = hub_in(&dir);
        // A runner that ships one point, then takes its whole thread —
        // and with it the connection — down.
        let worker = spawn_worker(
            &hub,
            "w1",
            ScriptedRunner::new(|exec, ran, app, config, s| {
                assert!(ran < 2, "worker exploded");
                exec.run(app, config, s)
            }),
        );
        let mut events = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(10);
        drive(&mut hub, &mut events, deadline, |h, _| h.idle() > 0);
        hub.offer(&lease(3, 0)).expect("offer");
        drive(&mut hub, &mut events, deadline, |_, evs| !evs.is_empty());
        match &events[..] {
            [RemoteEvent::LeaseDead {
                progress:
                    LeaseProgress {
                        lease: 3,
                        done: 1,
                        rows: 1,
                        ..
                    },
                blamed,
                worker,
                ..
            }] => {
                // The heartbeat named the second point before the
                // runner blew up.
                assert_eq!(*blamed, Some(1));
                assert!(worker.starts_with("w1@"), "worker tag: {worker}");
            }
            other => panic!("expected one LeaseDead, got {other:?}"),
        }
        // The one shipped row is durable despite the death.
        let shipped = std::fs::read_to_string(dir.join("dist-l0003-a0.jsonl")).expect("rows file");
        assert_eq!(shipped.lines().count(), 1);
        hub.shutdown();
        assert!(worker.join().is_err(), "the runner's panic took the thread");
        cleanup(&dir);
    }

    #[test]
    fn hub_gone_for_good_exhausts_max_reconnects_with_a_summary() {
        // Bind then immediately drop a listener: the port refuses every
        // connect, fast — the "hub decommissioned" signature.
        let addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
            l.local_addr().unwrap().to_string()
        };
        let opts = DistWorkerOptions {
            connect: addr,
            tag: "w-gone".to_string(),
            // A window long enough that only the failure budget can end
            // this test: proves the bound is what fired.
            reconnect_for: Duration::from_secs(300),
            max_reconnects: 2,
        };
        let exit = run_dist_worker(&opts, &mut PointExecutor::new());
        match &exit {
            WorkerExit::GaveUp(summary) => {
                assert!(
                    summary.contains("3 consecutive connection failures"),
                    "summary: {summary}"
                );
                assert!(summary.contains("--max-reconnects 2"), "summary: {summary}");
            }
            other => panic!("expected GaveUp, got {other:?}"),
        }
        assert_eq!(exit.code(), 1, "a gone hub is an operator-visible failure");
    }

    fn tempdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("musa-dist-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create tempdir");
        dir
    }

    fn cleanup(dir: &std::path::Path) {
        let _ = std::fs::remove_dir_all(dir);
    }
}
