//! # musa-pool
//!
//! Supervised multi-process execution for DSE campaigns: the layer
//! that turns `dse` into `dse --workers N` without changing what lands
//! in the store, byte for byte.
//!
//! A [`Supervisor`] enumerates the missing points of a run, partitions
//! them into self-describing **leases**, keeps N `dse dist-worker`
//! children connected to its [`RemoteHub`] (the framed endpoint
//! `musa-dist` implements; remote machines join the same one), and
//! journals every lease transition — grant, completion, death,
//! requeue, poisoning — durably (`musa-store`'s
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
//!   poisoning, reaping, draining;
//! * [`remote`] — the [`RemoteHub`] trait the supervisor drives and
//!   the lease/event types that cross it;
//! * [`signals`] — dependency-free SIGINT/SIGTERM latching and
//!   SIGTERM/SIGKILL delivery (inert on non-unix targets).

pub mod remote;
pub mod signals;
pub mod supervisor;

pub use remote::{LeaseProgress, RemoteEvent, RemoteHub, RemoteLease};
pub use supervisor::{
    PoolOptions, PoolReport, Supervisor, DEFAULT_LEASE_BATCH, DEFAULT_POISON_CAP, DEFAULT_WORKERS,
    MAX_LEASE_ATTEMPTS,
};
