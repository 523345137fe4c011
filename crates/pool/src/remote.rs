//! The supervisor-side abstraction over campaign workers.
//!
//! `musa-dist` implements [`RemoteHub`] over a framed TCP endpoint;
//! the supervisor ([`crate::Supervisor`]) stays transport-agnostic: it
//! offers self-describing leases to whichever worker is idle — a child
//! it spawned on loopback or a remote machine, the hub does not tell
//! them apart — and folds the hub's completion/death events through
//! one strike/poison/requeue path.
//!
//! ## Contract
//!
//! * [`RemoteHub::offer`] must only **queue** the grant (no socket
//!   I/O): the supervisor journals the
//!   [`musa_store::LeaseEvent::RemoteGrant`] after `offer` returns and
//!   before the next [`RemoteHub::poll`], and only `poll` may move
//!   bytes — so the journal never under-describes reality.
//! * Rows stream into the store **through the hub** (it appends the
//!   shipped row bytes to its own per-lease `dist-*.jsonl` files as
//!   frames arrive, after checking each row is the leased point's);
//!   events carry counts, never row data. A lease that dies after
//!   shipping `done` points therefore resumes exactly at `done` — the
//!   rows for the prefix are already durable.
//! * `poll` must be non-blocking and cheap: the supervisor calls it
//!   every ~20 ms tick.

use musa_apps::AppId;
use musa_arch::NodeConfig;
use musa_core::SweepOptions;
use musa_obs::MetricsSnapshot;
use musa_store::PoisonedPoint;

/// A lease offered to a worker. It names the points themselves and the
/// sweep they run under, so the worker derives nothing from its own
/// environment.
#[derive(Debug, Clone)]
pub struct RemoteLease {
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
pub struct LeaseProgress {
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
pub enum RemoteEvent {
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
        /// Tag the worker announced in its hello (`w<pid>`), so a
        /// supervisor can reap the process if it spawned it.
        worker: String,
    },
}

/// A supervisor endpoint workers connect to.
pub trait RemoteHub {
    /// The address workers should connect to.
    fn addr(&self) -> String;

    /// Service the endpoint: accept connections, move queued bytes,
    /// parse arrived frames, detect dead peers. Returns the lease
    /// events since the last poll. Must not block.
    fn poll(&mut self) -> std::io::Result<Vec<RemoteEvent>>;

    /// Connected workers currently without a lease.
    fn idle(&self) -> usize;

    /// All connected workers.
    fn connected(&self) -> usize;

    /// Queue a grant to an idle worker and return its peer tag
    /// (`<worker>@<address>`), or `None` when no worker can take it.
    /// Must not perform socket I/O (see the module contract).
    fn offer(&mut self, lease: &RemoteLease) -> Option<String>;

    /// Begin drain: ask every worker to finish its in-flight point,
    /// ship partial results and disconnect.
    fn drain(&mut self);

    /// Tear the endpoint down: drain idle workers, close every
    /// connection. Outstanding leases surface as
    /// [`RemoteEvent::LeaseDead`] on the next [`RemoteHub::poll`].
    /// Idempotent.
    fn shutdown(&mut self);
}
