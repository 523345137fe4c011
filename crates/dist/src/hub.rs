//! The supervisor-side TCP endpoint: [`DistHub`], nonblocking sockets
//! polled from the lease loop, and the lease/event types that cross
//! between it and the [`crate::Supervisor`].
//!
//! The supervisor offers self-describing leases to whichever worker is
//! idle — a child it spawned on loopback or a remote machine, the hub
//! does not tell them apart — and folds the hub's completion/death
//! events through one strike/poison/requeue path.
//!
//! One `poll()` tick (the supervisor calls it every ~20 ms) accepts
//! pending connections, moves queued bytes both ways, parses arrived
//! frames, applies the liveness deadlines, reaps dead peers into
//! [`RemoteEvent`]s and refreshes the `dist-status.json` beacon. No
//! call ever blocks: the listener and every stream run nonblocking,
//! and each connection owns an in/out byte buffer so a slow peer can
//! never stall the supervisor's lease loop.
//!
//! Rows stream into the store **through the hub** (it appends the
//! shipped row bytes to its own per-lease `dist-*.jsonl` files as
//! frames arrive, after checking each row is the leased point's);
//! events carry counts, never row data. A lease that dies after
//! shipping `done` points therefore resumes exactly at `done` — the
//! rows for the prefix are already durable.
//!
//! ## Failure model (supervisor side)
//!
//! | observation                        | verdict                        |
//! |------------------------------------|--------------------------------|
//! | EOF / ECONNRESET / write error     | connection dead immediately    |
//! | frame CRC / length / header error  | dead — resync is guesswork     |
//! | row that is not the leased point's | dead — same verdict as a garble|
//! | idle and silent > 10 s             | dead (workers ping every ~1 s) |
//! | leased and silent > timeout + 5 s  | dead (workers heartbeat/point) |
//!
//! A dead connection holding a lease surfaces as
//! [`RemoteEvent::LeaseDead`] carrying the durable progress (`done`
//! points — their rows were appended as the frames arrived) and the
//! heartbeat blame, and the supervisor's strike/poison/requeue
//! machinery takes it from there. The busy deadline is the campaign's
//! `--point-timeout`; without one a leased connection is never cut for
//! silence.

use std::collections::VecDeque;
use std::fs;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant, SystemTime};

use musa_apps::AppId;
use musa_arch::NodeConfig;
use musa_core::SweepOptions;
use musa_obs::json::JsonObj;
use musa_obs::MetricsSnapshot;
use musa_prof::{PointProfile, ProfileSink};
use musa_store::{PointKey, PoisonedPoint, StoreRow, DIST_STATUS_FILE};

use crate::codec::{encode, Frame, FrameBuf, Msg, PROTOCOL_VERSION, REJECT_VERSION};

/// An idle (or still-handshaking) connection with no frame for this
/// long is dead; healthy workers ping about once a second.
const IDLE_TIMEOUT: Duration = Duration::from_secs(10);

/// Grace added on top of the campaign's point timeout for leased
/// connections (covers the frame transit the local watchdog never
/// pays).
const BUSY_GRACE: Duration = Duration::from_secs(5);

/// A connection marked closing (reject sent, drain goodbye) that
/// cannot flush its farewell within this long is cut off anyway.
const CLOSING_TIMEOUT: Duration = Duration::from_secs(5);

/// Refresh period for the status beacon even when nothing changed.
const STATUS_PERIOD: Duration = Duration::from_secs(2);

/// A lease offered to a worker. It names the points themselves and the
/// sweep they run under, so the worker derives nothing from its own
/// environment.
#[derive(Debug, Clone)]
pub(crate) struct RemoteLease {
    /// Lease id.
    pub id: u64,
    /// Attempt number (0 first grant, +1 per requeue).
    pub attempt: u32,
    /// Scale and replay mode of every point in the lease.
    pub sweep: SweepOptions,
    /// The points, in execution order.
    pub points: Vec<(AppId, NodeConfig)>,
}

/// What a lease had achieved when it ended, one way or the other.
#[derive(Debug, Clone, Default)]
pub(crate) struct LeaseProgress {
    /// Lease id.
    pub lease: u64,
    /// Attempt number.
    pub attempt: u32,
    /// Points handled (row shipped, or poisoned in the worker); their
    /// rows are durable.
    pub done: u64,
    /// Rows shipped (already appended to the store by the hub).
    pub rows: u64,
    /// Points that panicked inside the worker (caught, recorded,
    /// skipped).
    pub poisoned: Vec<PoisonedPoint>,
    /// The worker's metrics for this lease (empty when it ran with
    /// metrics off, or died before reporting).
    pub metrics: MetricsSnapshot,
}

/// What happened to leases since the last poll.
#[derive(Debug, Clone)]
pub(crate) enum RemoteEvent {
    /// The worker finished every point of its lease and shipped the
    /// result manifest.
    LeaseDone(LeaseProgress),
    /// The connection executing a lease died: EOF, I/O error, a frame
    /// that failed its CRC seal or carried a row for another point, a
    /// liveness deadline, or a drain that stopped the worker mid-lease.
    LeaseDead {
        /// How far the lease got.
        progress: LeaseProgress,
        /// Position (within the lease) of the point in flight when the
        /// connection died, if the last heartbeat named one.
        blamed: Option<usize>,
        /// Why the connection was declared dead.
        reason: String,
        /// The verdict was the per-point deadline.
        deadline: bool,
        /// Tag the worker announced in its hello (`w<pid>`), so the
        /// supervisor can reap the process if it spawned it.
        worker: String,
    },
}

struct LeaseState {
    progress: LeaseProgress,
    /// Hex [`PointKey`] of every leased point, in lease order: a point
    /// frame is accepted only if it carries exactly the next one.
    keys: Vec<String>,
    /// Position of the point the last heartbeat named.
    current: Option<u64>,
    file: Option<fs::File>,
    /// Durable length of `file`.
    bytes: u64,
}

/// The hub's side of the store directory.
struct Disk {
    store_dir: PathBuf,
    max_retries: u32,
    /// Row appends attempted (the `store.flush` failpoint key).
    flush_seq: u64,
    profiles: Option<ProfileSink>,
}

impl Disk {
    /// Append one shipped row to the lease's shard and push it to the
    /// device: `done` must never run ahead of durable rows (the
    /// journal-before-reality stance). A failed attempt is truncated
    /// away before the retry, so the shard never holds a torn interior
    /// line.
    fn append_row(&mut self, ls: &mut LeaseState, row: &[u8]) -> std::io::Result<()> {
        let mut retries = 0;
        loop {
            self.flush_seq += 1;
            let res = musa_fault::fail_io("store.flush", self.flush_seq).and_then(|()| {
                if ls.file.is_none() {
                    let path = self.store_dir.join(format!(
                        "dist-l{:04}-a{}.jsonl",
                        ls.progress.lease, ls.progress.attempt
                    ));
                    ls.file = Some(
                        fs::OpenOptions::new()
                            .create(true)
                            .append(true)
                            .open(path)?,
                    );
                }
                let f = ls.file.as_mut().expect("file opened above");
                f.set_len(ls.bytes)?;
                f.write_all(row)?;
                f.sync_data()
            });
            match res {
                Ok(()) => {
                    ls.bytes += row.len() as u64;
                    return Ok(());
                }
                Err(e) if retries < self.max_retries => {
                    retries += 1;
                    musa_obs::counter_add("fill.retries", 1);
                    musa_obs::warn(
                        "musa-dist",
                        "row append failed, retrying",
                        &[
                            ("error", e.to_string().into()),
                            ("attempt", retries.into()),
                            ("max_retries", self.max_retries.into()),
                        ],
                    );
                    std::thread::sleep(musa_fault::jittered_backoff(retries, ls.progress.lease));
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Append one shipped profile line to the store's flight record.
    /// Telemetry: a line that does not unseal is dropped, never fatal.
    fn append_profile(&mut self, line: &str) {
        if PointProfile::parse(line).is_none() {
            musa_obs::counter_add("prof.dropped", 1);
            return;
        }
        if self.profiles.is_none() {
            self.profiles = ProfileSink::open(&self.store_dir).ok();
        }
        if let Some(sink) = self.profiles.as_mut() {
            sink.append(line);
        }
    }
}

/// Whether `body` is exactly one sealed, self-consistent row line
/// stored under `key`.
fn row_is_for(body: &[u8], key: &str) -> bool {
    let Some(line) = std::str::from_utf8(body)
        .ok()
        .and_then(|text| text.strip_suffix('\n'))
    else {
        return false;
    };
    let sealed = musa_store::integrity::unseal_line(line)
        .is_some_and(|(canonical, crc)| musa_store::crc32(canonical.as_bytes()) == crc);
    sealed
        && !line.contains('\n')
        && musa_obs::json::from_str::<StoreRow>(line)
            .is_ok_and(|row| row.key == key && row.is_consistent())
}

struct Conn {
    stream: TcpStream,
    peer: String,
    inbuf: FrameBuf,
    outbuf: VecDeque<u8>,
    ready: bool,
    lease: Option<LeaseState>,
    last_frame: Instant,
    closing: Option<(String, Instant)>,
    dead: Option<String>,
    /// `dead` was the per-point deadline's verdict.
    timed_out: bool,
    send_seq: u64,
    recv_seq: u64,
}

impl Conn {
    /// Encode and queue a frame. The `dist.frame.send` failpoint fires
    /// here, after the CRC seal — an injected garble corrupts the
    /// framed bytes in flight and the peer's CRC check catches it.
    fn queue(&mut self, msg: &Msg, body: &[u8]) {
        let mut bytes = encode(msg, body);
        let key = musa_store::fnv1a_64(format!("{}:{}", self.peer, self.send_seq).as_bytes());
        self.send_seq += 1;
        if let Err(e) = musa_fault::fail_wire("dist.frame.send", key, &mut bytes) {
            self.dead = Some(format!("send fault: {e}"));
            return;
        }
        musa_obs::counter_add("dist.frames_sent", 1);
        self.outbuf.extend(bytes);
    }

    fn mark_closing(&mut self, reason: &str) {
        if self.closing.is_none() {
            self.closing = Some((reason.to_string(), Instant::now()));
        }
    }
}

/// The endpoint workers connect to; owned and polled by the
/// [`crate::Supervisor`].
pub(crate) struct DistHub {
    listener: TcpListener,
    addr: SocketAddr,
    point_timeout: Option<Duration>,
    disk: Disk,
    conns: Vec<Conn>,
    events: Vec<RemoteEvent>,
    draining: bool,
    shut: bool,
    accept_seq: u64,
    status_body: String,
    status_at: Instant,
}

impl DistHub {
    /// Bind the endpoint (use port 0 to let the OS pick; the chosen
    /// address is published in the status beacon) and write the
    /// initial beacon. Shipped rows land in `store_dir` as
    /// `dist-l{lease:04}-a{attempt}.jsonl`, shipped profile lines in
    /// its `profiles.jsonl`. `point_timeout` scales the busy liveness
    /// deadline; `max_retries` bounds the row-append retries (with
    /// backoff) before a transient I/O error costs the connection its
    /// lease.
    pub fn bind(
        addr: &str,
        store_dir: &Path,
        point_timeout: Option<Duration>,
        max_retries: u32,
    ) -> std::io::Result<DistHub> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let mut hub = DistHub {
            listener,
            addr,
            point_timeout,
            disk: Disk {
                store_dir: store_dir.to_path_buf(),
                max_retries,
                flush_seq: 0,
                profiles: None,
            },
            conns: Vec::new(),
            events: Vec::new(),
            draining: false,
            shut: false,
            accept_seq: 0,
            status_body: String::new(),
            status_at: Instant::now(),
        };
        hub.write_status(true);
        musa_obs::info(
            "musa-dist",
            "listening for campaign workers",
            &[("addr", hub.addr.to_string().into())],
        );
        Ok(hub)
    }

    /// The bound address (resolved port when `--listen` used port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    fn accept_pending(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, peer)) => {
                    self.accept_seq += 1;
                    // `dist.accept` failpoint: io drops the connection
                    // on the floor (the worker sees EOF and retries
                    // with backoff), delay stalls the tick.
                    if let Err(e) = musa_fault::fail_io("dist.accept", self.accept_seq) {
                        musa_obs::counter_add("dist.accept_faults", 1);
                        musa_obs::warn(
                            "musa-dist",
                            "accept dropped by fault injection",
                            &[
                                ("peer", peer.to_string().into()),
                                ("error", e.to_string().into()),
                            ],
                        );
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    musa_obs::counter_add("dist.accepts", 1);
                    self.conns.push(Conn {
                        stream,
                        peer: peer.to_string(),
                        inbuf: FrameBuf::new(),
                        outbuf: VecDeque::new(),
                        ready: false,
                        lease: None,
                        last_frame: Instant::now(),
                        closing: None,
                        dead: None,
                        timed_out: false,
                        send_seq: 0,
                        recv_seq: 0,
                    });
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => {
                    musa_obs::warn(
                        "musa-dist",
                        "accept failed",
                        &[("error", e.to_string().into())],
                    );
                    break;
                }
            }
        }
    }

    fn read_conn(conn: &mut Conn) {
        let mut scratch = [0u8; 64 * 1024];
        loop {
            match conn.stream.read(&mut scratch) {
                Ok(0) => {
                    conn.dead = Some("peer closed the connection".to_string());
                    return;
                }
                Ok(n) => {
                    let chunk = &mut scratch[..n];
                    let key =
                        musa_store::fnv1a_64(format!("{}:{}", conn.peer, conn.recv_seq).as_bytes());
                    conn.recv_seq += 1;
                    // Received bytes pass through the `dist.frame.recv`
                    // failpoint before decoding: garble flips a bit and
                    // the CRC seal downstream must catch it.
                    if let Err(e) = musa_fault::fail_wire("dist.frame.recv", key, chunk) {
                        conn.dead = Some(format!("recv fault: {e}"));
                        return;
                    }
                    conn.inbuf.extend(chunk);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => {
                    conn.dead = Some(format!("read error: {e}"));
                    return;
                }
            }
        }
    }

    fn write_conn(conn: &mut Conn) {
        while !conn.outbuf.is_empty() {
            let (front, _) = conn.outbuf.as_slices();
            match conn.stream.write(front) {
                Ok(0) => {
                    conn.dead = Some("peer stopped accepting bytes".to_string());
                    return;
                }
                Ok(n) => {
                    conn.outbuf.drain(..n);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => {
                    conn.dead = Some(format!("write error: {e}"));
                    return;
                }
            }
        }
    }

    /// Apply one frame; `false` once it drew a verdict against the
    /// connection. Frames behind a verdict must not be applied: a
    /// later heartbeat would rewrite the blame, a later point frame
    /// the reason.
    fn handle_frame(&mut self, ci: usize, frame: Frame) -> bool {
        musa_obs::counter_add("dist.frames_recv", 1);
        // A connection already dead by EOF still gets its buffered
        // frames applied; only a verdict from a frame itself stops it.
        let eof = self.conns[ci].dead.take();
        if let Some(ev) =
            Self::frame_on_conn(&mut self.conns[ci], frame, self.draining, &mut self.disk)
        {
            self.events.push(ev);
        }
        let conn = &mut self.conns[ci];
        if conn.dead.is_some() {
            return false;
        }
        conn.dead = eof;
        true
    }

    /// Apply one frame to one connection; a completed lease comes back
    /// as the event to surface.
    fn frame_on_conn(
        conn: &mut Conn,
        frame: Frame,
        draining: bool,
        disk: &mut Disk,
    ) -> Option<RemoteEvent> {
        conn.last_frame = Instant::now();
        if !conn.ready {
            match frame.msg {
                Msg::Hello { ver, worker } => {
                    if ver != PROTOCOL_VERSION {
                        conn.queue(
                            &Msg::Reject {
                                code: REJECT_VERSION.to_string(),
                                reason: format!("protocol version {ver} != {PROTOCOL_VERSION}"),
                            },
                            &[],
                        );
                        conn.mark_closing("version mismatch");
                    } else {
                        conn.ready = true;
                        conn.peer = format!("{worker}@{}", conn.peer);
                        conn.queue(
                            &Msg::HelloOk {
                                ver: PROTOCOL_VERSION,
                            },
                            &[],
                        );
                        musa_obs::info(
                            "musa-dist",
                            "worker joined",
                            &[("peer", conn.peer.clone().into())],
                        );
                        if draining {
                            // Late joiner during drain: send it away.
                            conn.queue(&Msg::Drain, &[]);
                        }
                    }
                }
                other => {
                    conn.dead = Some(format!("protocol error: {other:?} before hello"));
                }
            }
            return None;
        }
        match frame.msg {
            Msg::Ping => conn.queue(&Msg::Pong, &[]),
            Msg::Hb { lease, current, .. } => {
                if let Some(ls) = conn.lease.as_mut() {
                    if ls.progress.lease == lease {
                        ls.current = current;
                    }
                }
            }
            Msg::Point {
                lease,
                seq,
                poisoned,
                profile,
            } => {
                let Some(ls) = conn.lease.as_mut() else {
                    conn.dead = Some("protocol error: point frame without a lease".into());
                    return None;
                };
                if ls.progress.lease != lease || seq != ls.progress.done {
                    conn.dead = Some(format!(
                        "protocol error: point frame out of order \
                         (lease {lease} seq {seq}, expected lease {} seq {})",
                        ls.progress.lease, ls.progress.done
                    ));
                    return None;
                }
                // The frame must carry the next leased point and
                // nothing else: its sealed, self-consistent row, or
                // its poison record with an empty body.
                let is_row = poisoned.is_none();
                let genuine = ls
                    .keys
                    .get(seq as usize)
                    .is_some_and(|key| match &poisoned {
                        Some(p) => frame.body.is_empty() && p.key == *key,
                        None => row_is_for(&frame.body, key),
                    });
                if !genuine {
                    conn.dead = Some(format!(
                        "protocol error: point frame {seq} of lease {lease} does not \
                         carry the leased point"
                    ));
                    return None;
                }
                if is_row {
                    if let Err(e) = disk.append_row(ls, &frame.body) {
                        // Local disk trouble is *our* fault, not the
                        // worker's: drop the connection so the lease
                        // requeues rather than silently losing rows.
                        conn.dead = Some(format!("store append failed: {e}"));
                        return None;
                    }
                    ls.progress.rows += 1;
                    musa_obs::counter_add("dist.rows_shipped", 1);
                }
                ls.progress.poisoned.extend(poisoned);
                if let Some(line) = profile {
                    disk.append_profile(&line);
                }
                ls.progress.done += 1;
                ls.current = None;
            }
            Msg::Result {
                lease, done, rows, ..
            } => {
                let Some(ls) = conn.lease.as_mut() else {
                    conn.dead = Some("protocol error: result frame without a lease".into());
                    return None;
                };
                if ls.progress.lease != lease {
                    conn.dead = Some(format!(
                        "protocol error: result for lease {lease}, expected {}",
                        ls.progress.lease
                    ));
                    return None;
                }
                if let Some(snap) = std::str::from_utf8(&frame.body)
                    .ok()
                    .and_then(|text| MetricsSnapshot::from_json(text).ok())
                {
                    ls.progress.metrics.absorb(&snap);
                }
                if done as usize == ls.keys.len() {
                    if ls.progress.done != done || ls.progress.rows != rows {
                        conn.dead = Some(format!(
                            "protocol error: result manifest disagrees with shipped \
                             points (manifest {done}/{rows}, shipped {}/{})",
                            ls.progress.done, ls.progress.rows
                        ));
                        return None;
                    }
                    let ls = conn.lease.take().expect("lease checked above");
                    musa_obs::counter_add("dist.leases_done", 1);
                    musa_obs::debug(
                        "musa-dist",
                        "lease completed",
                        &[
                            ("lease", ls.progress.lease.into()),
                            ("attempt", ls.progress.attempt.into()),
                            ("rows", ls.progress.rows.into()),
                            ("peer", conn.peer.clone().into()),
                        ],
                    );
                    return Some(RemoteEvent::LeaseDone(ls.progress));
                }
                // A partial manifest (drain) is informational: the
                // Bye/EOF that follows settles the lease as dead with
                // the durable progress the Point frames already proved.
            }
            Msg::Bye { reason } => {
                conn.dead = Some(format!("worker left: {reason}"));
            }
            other => {
                conn.dead = Some(format!("protocol error: unexpected {other:?}"));
            }
        }
        None
    }

    fn apply_liveness(&mut self) {
        let now = Instant::now();
        for conn in &mut self.conns {
            if conn.dead.is_some() {
                continue;
            }
            if let Some((reason, since)) = &conn.closing {
                if conn.outbuf.is_empty() || now.duration_since(*since) > CLOSING_TIMEOUT {
                    conn.dead = Some(reason.clone());
                }
                continue;
            }
            let silent = now.duration_since(conn.last_frame);
            if conn.lease.is_none() {
                if silent > IDLE_TIMEOUT {
                    conn.dead = Some(format!(
                        "liveness timeout ({}s without a frame)",
                        silent.as_secs()
                    ));
                }
            } else if let Some(timeout) = self.point_timeout {
                // Only enforce a busy deadline when the campaign has a
                // point timeout — an unbounded point must not get its
                // connection cut from under it.
                if silent > timeout + BUSY_GRACE {
                    conn.timed_out = true;
                    conn.dead = Some(format!(
                        "deadline exceeded ({timeout:?} point timeout, {}s without a frame)",
                        silent.as_secs()
                    ));
                }
            }
        }
    }

    fn reap_dead(&mut self) {
        let mut i = 0;
        while i < self.conns.len() {
            if self.conns[i].dead.is_none() {
                i += 1;
                continue;
            }
            let mut conn = self.conns.swap_remove(i);
            let reason = conn.dead.take().unwrap_or_default();
            musa_obs::counter_add("dist.disconnects", 1);
            if let Some(ls) = conn.lease.take() {
                musa_obs::warn(
                    "musa-dist",
                    "connection died holding a lease",
                    &[
                        ("peer", conn.peer.clone().into()),
                        ("lease", ls.progress.lease.into()),
                        ("attempt", ls.progress.attempt.into()),
                        ("done", ls.progress.done.into()),
                        ("reason", reason.clone().into()),
                    ],
                );
                self.events.push(RemoteEvent::LeaseDead {
                    progress: ls.progress,
                    blamed: ls.current.map(|pos| pos as usize),
                    reason,
                    deadline: conn.timed_out,
                    worker: conn.peer,
                });
            } else {
                musa_obs::debug(
                    "musa-dist",
                    "connection closed",
                    &[
                        ("peer", conn.peer.clone().into()),
                        ("reason", reason.into()),
                    ],
                );
            }
        }
    }

    /// All connected workers.
    pub fn connected(&self) -> usize {
        self.conns
            .iter()
            .filter(|c| c.ready && c.dead.is_none() && c.closing.is_none())
            .count()
    }

    fn write_status(&mut self, force: bool) {
        let body = JsonObj::new()
            .field_str("addr", &self.addr.to_string())
            .field_u64("connected", self.connected() as u64)
            .field_bool("draining", self.draining || self.shut)
            .finish();
        let elapsed = self.status_at.elapsed();
        if !force && body == self.status_body && elapsed < STATUS_PERIOD {
            return;
        }
        let updated = SystemTime::now()
            .duration_since(SystemTime::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        // Splice the timestamp in rather than including it in the
        // change check, so an unchanged hub rewrites once per period
        // and readers can tell a live beacon from an abandoned one.
        let stamped = format!(
            "{}{}",
            &body[..body.len() - 1],
            format_args!(",\"updated_unix\":{updated}}}")
        );
        let path = self.disk.store_dir.join(DIST_STATUS_FILE);
        if musa_store::atomic_write(&path, stamped.as_bytes(), "dist.status").is_ok() {
            self.status_body = body;
            self.status_at = Instant::now();
        }
    }

    /// Service the endpoint: accept connections, move queued bytes,
    /// parse arrived frames, detect dead peers. Returns the lease
    /// events since the last poll. Never blocks.
    pub fn poll(&mut self) -> std::io::Result<Vec<RemoteEvent>> {
        if !self.shut {
            if !self.draining {
                self.accept_pending();
            }
            for ci in 0..self.conns.len() {
                Self::read_conn(&mut self.conns[ci]);
                // Parse even when the read marked the connection dead:
                // frames buffered ahead of an EOF arrived intact and
                // still count (e.g. the final heartbeat naming the
                // point to blame).
                loop {
                    match self.conns[ci].inbuf.next_frame() {
                        Ok(Some(frame)) => {
                            if !self.handle_frame(ci, frame) {
                                break;
                            }
                        }
                        Ok(None) => break,
                        Err(e) => {
                            musa_obs::counter_add("dist.frame_errors", 1);
                            if self.conns[ci].dead.is_none() {
                                self.conns[ci].dead = Some(format!("frame error: {e}"));
                            }
                            break;
                        }
                    }
                }
            }
            for conn in &mut self.conns {
                if conn.dead.is_none() {
                    Self::write_conn(conn);
                }
            }
            self.apply_liveness();
        }
        self.reap_dead();
        self.write_status(false);
        Ok(std::mem::take(&mut self.events))
    }

    /// Connected workers currently without a lease.
    pub fn idle(&self) -> usize {
        self.conns
            .iter()
            .filter(|c| c.ready && c.lease.is_none() && c.dead.is_none() && c.closing.is_none())
            .count()
    }

    /// Queue a grant to an idle worker and return its peer tag
    /// (`<worker>@<address>`), or `None` when no worker can take it.
    /// Only **queues** the frame (no socket I/O): the supervisor
    /// journals the grant after `offer` returns and before the next
    /// [`DistHub::poll`], and only `poll` moves bytes — so the journal
    /// never under-describes reality.
    pub fn offer(&mut self, lease: &RemoteLease) -> Option<String> {
        if self.draining || self.shut {
            return None;
        }
        for conn in &mut self.conns {
            if !(conn.ready
                && conn.lease.is_none()
                && conn.dead.is_none()
                && conn.closing.is_none())
            {
                continue;
            }
            conn.queue(
                &Msg::Grant {
                    lease: lease.id,
                    attempt: lease.attempt,
                    gen: lease.sweep.gen,
                    full_replay: lease.sweep.full_replay,
                    points: lease.points.clone(),
                },
                &[],
            );
            if conn.dead.is_some() {
                // The send failpoint killed this connection at queue
                // time; the grant never left, try the next worker.
                continue;
            }
            conn.lease = Some(LeaseState {
                progress: LeaseProgress {
                    lease: lease.id,
                    attempt: lease.attempt,
                    ..LeaseProgress::default()
                },
                keys: lease
                    .points
                    .iter()
                    .map(|(app, config)| PointKey::for_point(*app, config, &lease.sweep).to_hex())
                    .collect(),
                current: None,
                file: None,
                bytes: 0,
            });
            return Some(conn.peer.clone());
        }
        None
    }

    /// Begin drain: ask every worker to finish its in-flight point,
    /// ship partial results and disconnect.
    pub fn drain(&mut self) {
        if self.draining {
            return;
        }
        self.draining = true;
        for conn in &mut self.conns {
            if conn.ready && conn.dead.is_none() && conn.closing.is_none() {
                conn.queue(&Msg::Drain, &[]);
            }
        }
        self.write_status(true);
    }

    /// Tear the endpoint down: drain idle workers, close every
    /// connection. Outstanding leases surface as
    /// [`RemoteEvent::LeaseDead`] on the next [`DistHub::poll`].
    /// Idempotent.
    pub fn shutdown(&mut self) {
        if self.shut {
            return;
        }
        self.drain();
        self.shut = true;
        // Best-effort farewell flush: give the kernel the queued drain
        // frames so idle workers exit cleanly, then cut every stream.
        // TCP delivers bytes written before close ahead of the EOF, so
        // a worker that is alive reads its Drain first.
        let deadline = Instant::now() + Duration::from_millis(200);
        loop {
            for conn in &mut self.conns {
                if conn.dead.is_none() {
                    Self::write_conn(conn);
                }
            }
            let pending = self
                .conns
                .iter()
                .any(|c| c.dead.is_none() && !c.outbuf.is_empty());
            if !pending || Instant::now() >= deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        for conn in &mut self.conns {
            let _ = conn.stream.shutdown(std::net::Shutdown::Both);
            if conn.dead.is_none() {
                conn.dead = Some("endpoint shut down".to_string());
            }
        }
        self.write_status(true);
    }
}
