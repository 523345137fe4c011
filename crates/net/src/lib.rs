//! # musa-net
//!
//! Full-application MPI replay over a network model — the Dimemas
//! substitute of the MUSA toolflow (§II-A "Simulation", §IV-C).
//!
//! After the computation phases have been simulated, MUSA "replays the
//! execution of the communication trace events in order to simulate the
//! communication network": the durations of compute regions are replaced
//! by simulated values (via a [`ComputeTimer`]), and MPI events are
//! timed with a latency/bandwidth network model configured like
//! MareNostrum 4 (the paper's reference network).
//!
//! The replay is a lockstep discrete-event simulation: the traces
//! produced by `musa-apps` are SPMD (every rank has the same event
//! skeleton), so event slot *k* is processed across all ranks at once —
//! point-to-point exchanges synchronise the involved pair, collectives
//! synchronise everyone. The per-rank decomposition into compute time,
//! transfer time and blocked (wait) time feeds the Fig. 4 timeline and
//! the §V-A MPI-overhead analysis.

pub mod params;
pub mod replay;
pub mod timeline;
pub mod timer;

pub use params::NetworkParams;
pub use replay::{replay, replay_with_timelines, MpiBreakdown, RankPhase, ReplayResult};
pub use timeline::{render_rank_timeline, TimelineSpan};
pub use timer::{BurstTimer, BurstTimes, ComputeTimer, FixedRatioTimer};
