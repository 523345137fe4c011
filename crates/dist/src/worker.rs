//! The campaign worker: connect, handshake, execute leases, survive
//! the network.
//!
//! The loop is deliberately pessimistic about the wire and optimistic
//! about the work: any connection trouble — refused connect, EOF, a
//! frame that fails its CRC seal, an unresponsive supervisor — tears
//! the connection down and retries with seeded-jittered exponential
//! backoff ([`musa_fault::jittered_backoff`]) until the reconnect
//! window closes. Progress is never lost to a reconnect: every
//! finished point was already shipped (and made durable by the hub)
//! in its own frame, so a re-granted lease resumes exactly after the
//! last persisted row.
//!
//! ## Failure model (worker side)
//!
//! | observation                          | reaction                      |
//! |--------------------------------------|-------------------------------|
//! | connect refused / EOF / I/O error    | reconnect with backoff        |
//! | frame CRC / length / header error    | drop connection, reconnect    |
//! | no frame while idle > 15 s           | drop connection, reconnect    |
//! | `reject` frame                       | exit — retrying cannot help   |
//! | `drain` frame                        | finish in-flight point, ship  |
//! |                                      | partial result, exit cleanly  |
//! | SIGINT/SIGTERM                       | same as drain, exit 130       |
//! | reconnect window exhausted           | give up with an error         |
//! | `--max-reconnects` consecutive fails | give up with an error         |
//!
//! The reconnect window restarts on every successful handshake, so a
//! supervisor that is merely being restarted (`kill -9` + `--resume`)
//! keeps its workers as long as it comes back within the window. The
//! consecutive-failure budget ([`DEFAULT_MAX_RECONNECTS`]) resets the
//! same way; it bounds the worker's lifetime when the hub is gone for
//! good (decommissioned, DNS removed) and the window alone would keep
//! it retrying pointlessly.

use std::io::{ErrorKind, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use musa_apps::AppId;
use musa_arch::NodeConfig;
use musa_core::SweepOptions;
use musa_store::{PointExecutor, PointOutput};

use crate::codec::{encode, Frame, FrameBuf, Msg, PROTOCOL_VERSION};

/// How long a worker keeps retrying to (re)connect without one
/// successful handshake before giving up.
pub const DEFAULT_RECONNECT_FOR: Duration = Duration::from_secs(120);

/// Consecutive failed connection attempts (no successful handshake in
/// between) a worker tolerates before giving up — the `--max-reconnects`
/// default.
pub const DEFAULT_MAX_RECONNECTS: u32 = 10;

/// Idle liveness: the worker pings about once a second; a supervisor
/// silent this long is presumed gone.
const IDLE_SILENCE: Duration = Duration::from_secs(15);

/// Handshake deadline: a supervisor that accepts but never answers the
/// hello is treated as dead.
const HELLO_DEADLINE: Duration = Duration::from_secs(10);

/// Worker configuration.
#[derive(Debug, Clone)]
pub struct DistWorkerOptions {
    /// Supervisor address (`host:port`).
    pub connect: String,
    /// Worker tag for provenance (`w<pid>`), also the salt for the
    /// backoff jitter and the wire failpoint keys.
    pub tag: String,
    /// Reconnect window (see [`DEFAULT_RECONNECT_FOR`]).
    pub reconnect_for: Duration,
    /// Consecutive connection failures tolerated before giving up
    /// (see [`DEFAULT_MAX_RECONNECTS`]); a successful handshake resets
    /// the count.
    pub max_reconnects: u32,
}

/// The execution half of the worker; the loop here owns the protocol
/// half. The one real implementation is [`PointExecutor`]; tests
/// script their own to misbehave on the wire.
pub trait PointRunner {
    /// A lease was granted.
    fn begin_lease(&mut self, lease: u64, attempt: u32);
    /// Execute one point. A panicking simulation must be caught inside
    /// and returned as a poisoned [`PointOutput`].
    fn run_point(&mut self, app: AppId, config: &NodeConfig, sweep: &SweepOptions) -> PointOutput;
}

impl PointRunner for PointExecutor {
    fn begin_lease(&mut self, lease: u64, attempt: u32) {
        self.set_origin(format!("l{lease:04}-a{attempt}"), attempt);
    }

    fn run_point(&mut self, app: AppId, config: &NodeConfig, sweep: &SweepOptions) -> PointOutput {
        self.run(app, config, sweep)
    }
}

/// How the worker ended.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkerExit {
    /// The supervisor drained us (campaign finished or sup shutting
    /// down); exit 0.
    Drained,
    /// SIGINT/SIGTERM: partial results shipped; exit 130 by
    /// convention.
    Interrupted,
    /// The supervisor refused the handshake; `code` is
    /// [`crate::codec::REJECT_VERSION`].
    Rejected {
        /// Machine-readable cause.
        code: String,
        /// Human-readable detail.
        reason: String,
    },
    /// The reconnect window closed without a successful handshake.
    GaveUp(String),
}

impl WorkerExit {
    /// The process exit code this outcome maps to (130 = interrupted,
    /// by convention).
    pub fn code(&self) -> i32 {
        match self {
            WorkerExit::Drained => 0,
            WorkerExit::Interrupted => 130,
            WorkerExit::Rejected { .. } | WorkerExit::GaveUp(_) => 1,
        }
    }
}

enum ServeEnd {
    Drained,
    Interrupted,
    Rejected { code: String, reason: String },
}

enum LeaseEnd {
    Done,
    Draining,
    Interrupted,
}

struct Wire {
    stream: TcpStream,
    inbuf: FrameBuf,
    send_seq: u64,
    recv_seq: u64,
    key_prefix: String,
}

impl Wire {
    /// Encode, pass through the `dist.frame.send` failpoint (garble
    /// flips a bit *after* the CRC seal so the hub detects it), send.
    fn send(&mut self, msg: &Msg, body: &[u8]) -> std::io::Result<()> {
        let mut bytes = encode(msg, body);
        let key = musa_store::fnv1a_64(format!("{}:{}", self.key_prefix, self.send_seq).as_bytes());
        self.send_seq += 1;
        musa_fault::fail_wire("dist.frame.send", key, &mut bytes)?;
        musa_obs::counter_add("dist.frames_sent", 1);
        self.stream.write_all(&bytes)
    }

    /// Pull at most one frame, waiting up to `wait` for bytes (a zero
    /// wait only looks at what has already arrived). `Ok(None)` means
    /// nothing arrived in time. Frame decode errors come back as I/O
    /// errors: the connection is unusable.
    fn recv(&mut self, wait: Duration) -> std::io::Result<Option<Frame>> {
        if let Some(frame) = self.next_frame()? {
            return Ok(Some(frame));
        }
        // A read timeout is rounded up to the kernel's timer tick —
        // several milliseconds, per point, for the between-points
        // peek — so a zero wait reads nonblocking instead.
        let mut scratch = [0u8; 64 * 1024];
        let read = if wait.is_zero() {
            self.stream.set_nonblocking(true)?;
            let read = self.stream.read(&mut scratch);
            self.stream.set_nonblocking(false)?;
            read
        } else {
            self.stream.set_read_timeout(Some(wait))?;
            self.stream.read(&mut scratch)
        };
        match read {
            Ok(0) => Err(std::io::Error::new(
                ErrorKind::UnexpectedEof,
                "supervisor closed the connection",
            )),
            Ok(n) => {
                let chunk = &mut scratch[..n];
                let key = musa_store::fnv1a_64(
                    format!("{}:r{}", self.key_prefix, self.recv_seq).as_bytes(),
                );
                self.recv_seq += 1;
                musa_fault::fail_wire("dist.frame.recv", key, chunk)?;
                self.inbuf.extend(chunk);
                self.next_frame()
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                Ok(None)
            }
            Err(e) => Err(e),
        }
    }

    fn next_frame(&mut self) -> std::io::Result<Option<Frame>> {
        match self.inbuf.next_frame() {
            Ok(f) => {
                if f.is_some() {
                    musa_obs::counter_add("dist.frames_recv", 1);
                }
                Ok(f)
            }
            Err(e) => {
                musa_obs::counter_add("dist.frame_errors", 1);
                Err(std::io::Error::other(format!("frame error: {e}")))
            }
        }
    }
}

/// Run the worker until the campaign drains, a signal arrives, the
/// supervisor rejects us, or the reconnect window closes. I/O errors
/// inside a connection never escape: they trigger reconnect.
pub fn run_dist_worker(opts: &DistWorkerOptions, runner: &mut dyn PointRunner) -> WorkerExit {
    crate::signals::install_term_handlers();
    let salt = musa_store::fnv1a_64(opts.tag.as_bytes());
    let mut conn_attempt: u32 = 0;
    let mut failures: u32 = 0;
    let mut window_ends = Instant::now() + opts.reconnect_for;
    loop {
        if crate::signals::termination_requested() {
            return WorkerExit::Interrupted;
        }
        let window_before = window_ends;
        match serve_connection(opts, runner, conn_attempt, &mut window_ends) {
            Ok(ServeEnd::Drained) => return WorkerExit::Drained,
            Ok(ServeEnd::Interrupted) => return WorkerExit::Interrupted,
            Ok(ServeEnd::Rejected { code, reason }) => {
                return WorkerExit::Rejected { code, reason }
            }
            Err(e) => {
                // A restarted window means this connection handshook
                // before dying: the hub is alive, so the
                // consecutive-failure budget starts over.
                if window_ends != window_before {
                    failures = 0;
                }
                failures = failures.saturating_add(1);
                if failures > opts.max_reconnects {
                    return WorkerExit::GaveUp(format!(
                        "supervisor unreachable after {failures} consecutive connection \
                         failures (--max-reconnects {}; last error: {e})",
                        opts.max_reconnects
                    ));
                }
                if Instant::now() >= window_ends {
                    return WorkerExit::GaveUp(format!(
                        "no supervisor within the reconnect window (last error: {e})"
                    ));
                }
                let pause = musa_fault::jittered_backoff(conn_attempt, salt);
                musa_obs::counter_add("dist.reconnects", 1);
                musa_obs::warn(
                    "musa-dist",
                    "connection lost, backing off before reconnect",
                    &[
                        ("error", e.to_string().into()),
                        ("attempt", conn_attempt.into()),
                        ("backoff_ms", (pause.as_millis() as u64).into()),
                    ],
                );
                conn_attempt = conn_attempt.saturating_add(1);
                // Sleep in slices so a signal still interrupts promptly.
                let until = Instant::now() + pause;
                while Instant::now() < until {
                    if crate::signals::termination_requested() {
                        return WorkerExit::Interrupted;
                    }
                    std::thread::sleep(Duration::from_millis(25));
                }
            }
        }
    }
}

fn serve_connection(
    opts: &DistWorkerOptions,
    runner: &mut dyn PointRunner,
    conn_attempt: u32,
    window_ends: &mut Instant,
) -> std::io::Result<ServeEnd> {
    let addr = opts
        .connect
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| std::io::Error::other(format!("cannot resolve {:?}", opts.connect)))?;
    let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
    let _ = stream.set_nodelay(true);
    stream.set_write_timeout(Some(Duration::from_secs(10)))?;
    let mut wire = Wire {
        stream,
        inbuf: FrameBuf::new(),
        send_seq: 0,
        recv_seq: 0,
        // The failpoint key covers (worker, connection attempt, frame
        // seq): a frame resent after a reconnect re-rolls its fault
        // decision, so a seeded garble plan cannot pin one frame into a
        // forever-garble loop.
        key_prefix: format!("{}:{}", opts.tag, conn_attempt),
    };
    wire.send(
        &Msg::Hello {
            ver: PROTOCOL_VERSION,
            worker: opts.tag.clone(),
        },
        &[],
    )?;
    let hello_deadline = Instant::now() + HELLO_DEADLINE;
    loop {
        match wire.recv(Duration::from_millis(100))? {
            Some(Frame {
                msg: Msg::HelloOk { .. },
                ..
            }) => break,
            Some(Frame {
                msg: Msg::Reject { code, reason },
                ..
            }) => {
                musa_obs::warn(
                    "musa-dist",
                    "supervisor rejected the handshake",
                    &[
                        ("code", code.clone().into()),
                        ("reason", reason.clone().into()),
                    ],
                );
                return Ok(ServeEnd::Rejected { code, reason });
            }
            Some(f) => {
                return Err(std::io::Error::other(format!(
                    "protocol error: {:?} before hello_ok",
                    f.msg
                )))
            }
            None => {
                if Instant::now() > hello_deadline {
                    return Err(std::io::Error::new(
                        ErrorKind::TimedOut,
                        "supervisor never answered the hello",
                    ));
                }
            }
        }
    }
    musa_obs::info(
        "musa-dist",
        "joined supervisor",
        &[("addr", opts.connect.clone().into())],
    );
    // A successful handshake restarts the reconnect window: as long as
    // some supervisor keeps coming back, the worker keeps serving.
    *window_ends = Instant::now() + opts.reconnect_for;

    let mut last_rx = Instant::now();
    let mut last_ping = Instant::now();
    loop {
        if crate::signals::termination_requested() {
            let _ = wire.send(
                &Msg::Bye {
                    reason: "interrupted".into(),
                },
                &[],
            );
            return Ok(ServeEnd::Interrupted);
        }
        match wire.recv(Duration::from_millis(250))? {
            Some(frame) => {
                last_rx = Instant::now();
                match frame.msg {
                    Msg::Grant {
                        lease,
                        attempt,
                        gen,
                        full_replay,
                        points,
                    } => match run_lease(
                        &mut wire,
                        runner,
                        lease,
                        attempt,
                        &SweepOptions { gen, full_replay },
                        &points,
                    )? {
                        LeaseEnd::Done => {}
                        LeaseEnd::Draining => {
                            wire.send(
                                &Msg::Bye {
                                    reason: "drained".into(),
                                },
                                &[],
                            )?;
                            return Ok(ServeEnd::Drained);
                        }
                        LeaseEnd::Interrupted => {
                            let _ = wire.send(
                                &Msg::Bye {
                                    reason: "interrupted".into(),
                                },
                                &[],
                            );
                            return Ok(ServeEnd::Interrupted);
                        }
                    },
                    Msg::Drain => {
                        wire.send(
                            &Msg::Bye {
                                reason: "drained".into(),
                            },
                            &[],
                        )?;
                        return Ok(ServeEnd::Drained);
                    }
                    Msg::Pong => {}
                    other => {
                        return Err(std::io::Error::other(format!(
                            "protocol error: unexpected {other:?} while idle"
                        )))
                    }
                }
            }
            None => {
                let now = Instant::now();
                if now.duration_since(last_rx) > IDLE_SILENCE {
                    return Err(std::io::Error::new(
                        ErrorKind::TimedOut,
                        "supervisor unresponsive",
                    ));
                }
                if now.duration_since(last_ping) > Duration::from_secs(1) {
                    wire.send(&Msg::Ping, &[])?;
                    last_ping = now;
                }
            }
        }
    }
}

fn run_lease(
    wire: &mut Wire,
    runner: &mut dyn PointRunner,
    lease: u64,
    attempt: u32,
    sweep: &SweepOptions,
    points: &[(AppId, NodeConfig)],
) -> std::io::Result<LeaseEnd> {
    musa_obs::debug(
        "musa-dist",
        "lease granted",
        &[
            ("lease", lease.into()),
            ("attempt", attempt.into()),
            ("points", (points.len() as u64).into()),
        ],
    );
    runner.begin_lease(lease, attempt);
    let mut done: u64 = 0;
    let mut rows: u64 = 0;
    let mut end = LeaseEnd::Done;
    for (app, config) in points {
        // Between points: notice a drain (a nonblocking peek) or a
        // signal, then finish the lease partially.
        if crate::signals::termination_requested() {
            end = LeaseEnd::Interrupted;
            break;
        }
        match wire.recv(Duration::ZERO)? {
            Some(Frame {
                msg: Msg::Drain, ..
            }) => {
                end = LeaseEnd::Draining;
                break;
            }
            Some(Frame { msg: Msg::Pong, .. }) | None => {}
            Some(f) => {
                return Err(std::io::Error::other(format!(
                    "protocol error: unexpected {:?} mid-lease",
                    f.msg
                )))
            }
        }
        // Heartbeat *before* simulating: if this point kills or hangs
        // the process, `current` is the evidence the supervisor uses
        // to charge the strike.
        wire.send(
            &Msg::Hb {
                lease,
                done,
                current: Some(done),
            },
            &[],
        )?;
        let out = runner.run_point(*app, config, sweep);
        let (body, poisoned) = match out.row {
            Ok(row) => (format!("{}\n", row.line).into_bytes(), None),
            Err(p) => (Vec::new(), Some(p)),
        };
        rows += u64::from(poisoned.is_none());
        wire.send(
            &Msg::Point {
                lease,
                seq: done,
                poisoned,
                profile: out.profile,
            },
            &body,
        )?;
        done += 1;
    }
    wire.send(
        &Msg::Hb {
            lease,
            done,
            current: None,
        },
        &[],
    )?;
    // The result carries this process's metrics since the previous
    // result, so the supervisor can simply add up what it receives.
    let metrics = if musa_obs::metrics_enabled() {
        let snap = musa_obs::snapshot().to_json();
        musa_obs::reset_metrics();
        snap.into_bytes()
    } else {
        Vec::new()
    };
    wire.send(
        &Msg::Result {
            lease,
            attempt,
            done,
            rows,
        },
        &metrics,
    )?;
    Ok(end)
}
