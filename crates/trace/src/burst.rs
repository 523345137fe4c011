//! Burst (coarse-grain) trace representation.
//!
//! A burst trace records, per MPI rank, the alternation of compute regions
//! and MPI communication events through the whole execution, plus the
//! runtime-system events inside each compute region (task creation,
//! dependencies, parallel-loop chunks, critical sections). Durations are
//! native single-thread timings in nanoseconds — burst-mode simulation is
//! "hardware agnostic" (§V-A): it replays these durations unchanged while
//! simulating the runtime system for the desired core count.

use crate::detail::KernelInvocation;
use crate::meta::TraceMeta;
use crate::DetailedTrace;

/// A schedulable unit of work: an OmpSs/OpenMP task or a parallel-loop
/// chunk.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkItem {
    /// Identifier, unique within its region.
    pub id: u32,
    /// Native single-thread duration in nanoseconds (from the trace).
    pub duration_ns: f64,
    /// Predecessor work-item ids (task dependencies). Empty for
    /// parallel-loop chunks, which are mutually independent.
    pub deps: Vec<u32>,
    /// Portion of `duration_ns` spent inside an `omp critical` section
    /// (serialises against every other item's critical portion).
    pub critical_ns: f64,
    /// Detailed-trace content: kernel invocations executed by this item.
    /// Empty when only the burst level was traced.
    pub kernels: Vec<KernelInvocation>,
}

impl WorkItem {
    /// A plain independent item with the given duration.
    pub fn simple(id: u32, duration_ns: f64) -> Self {
        WorkItem {
            id,
            duration_ns,
            deps: Vec::new(),
            critical_ns: 0.0,
            kernels: Vec::new(),
        }
    }
}

/// Loop scheduling policy for `parallel for` regions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoopSchedule {
    /// Chunks pre-assigned round-robin to threads.
    Static,
    /// Chunks pulled from a shared queue (models `schedule(dynamic)` and
    /// task-based worksharing).
    Dynamic,
}

/// The parallel structure of a compute region.
#[derive(Debug, Clone, PartialEq)]
pub enum RegionWork {
    /// Task-graph parallelism (OmpSs / OpenMP tasks with dependencies).
    Tasks {
        /// The task set; `deps` fields define the DAG.
        items: Vec<WorkItem>,
    },
    /// `omp parallel for`: independent chunks with an implicit barrier at
    /// the end of the loop.
    ParallelFor {
        /// Loop chunks. The scheduler makes a chunk wait for the earlier
        /// chunks its `deps` name, as it does a task; no generator gives
        /// a chunk any.
        chunks: Vec<WorkItem>,
        /// Scheduling policy.
        schedule: LoopSchedule,
    },
    /// Serial execution on the master thread.
    Serial {
        /// The single work item.
        item: WorkItem,
    },
}

impl RegionWork {
    /// All work items, regardless of structure.
    pub fn items(&self) -> &[WorkItem] {
        match self {
            RegionWork::Tasks { items } => items,
            RegionWork::ParallelFor { chunks, .. } => chunks,
            RegionWork::Serial { item } => std::slice::from_ref(item),
        }
    }

    /// Mutable access to all work items.
    pub fn items_mut(&mut self) -> &mut [WorkItem] {
        match self {
            RegionWork::Tasks { items } => items,
            RegionWork::ParallelFor { chunks, .. } => chunks,
            RegionWork::Serial { item } => std::slice::from_mut(item),
        }
    }

    /// Sum of native durations (the serial execution time of the region).
    pub fn serial_time_ns(&self) -> f64 {
        self.items().iter().map(|i| i.duration_ns).sum()
    }
}

/// One compute region of a rank's burst trace.
#[derive(Debug, Clone, PartialEq)]
pub struct ComputeRegion {
    /// Region id, unique within the rank trace. Matching ids across ranks
    /// denote the same source-level region (e.g. the same timestep).
    pub region_id: u32,
    /// Human-readable name.
    pub name: String,
    /// Parallel structure and work items.
    pub work: RegionWork,
    /// Runtime cost of creating one task/chunk, in nanoseconds, paid on
    /// the creating thread. Recorded from the native trace; MUSA keeps it
    /// constant in wall-clock terms when the simulated frequency changes
    /// (the cause of the paper's HYDRO >2.5 GHz scheduling bottleneck).
    pub spawn_overhead_ns: f64,
    /// Runtime cost of dispatching one ready task to a worker thread, in
    /// nanoseconds, paid on the worker.
    pub dispatch_overhead_ns: f64,
}

impl ComputeRegion {
    /// Critical-path length through the task DAG, in native nanoseconds —
    /// an upper bound on achievable parallel speedup of the region.
    pub fn critical_path_ns(&self) -> f64 {
        let items = self.work.items();
        match &self.work {
            RegionWork::Serial { item } => item.duration_ns,
            RegionWork::ParallelFor { chunks, .. } => {
                chunks.iter().map(|c| c.duration_ns).fold(0.0_f64, f64::max)
            }
            RegionWork::Tasks { .. } => {
                // Longest path; items are topologically ordered by id
                // (generators guarantee deps reference earlier ids).
                let mut finish = vec![0.0_f64; items.len()];
                let index: std::collections::HashMap<u32, usize> =
                    items.iter().enumerate().map(|(i, w)| (w.id, i)).collect();
                for (i, w) in items.iter().enumerate() {
                    let ready = w
                        .deps
                        .iter()
                        .filter_map(|d| index.get(d).map(|&j| finish[j]))
                        .fold(0.0_f64, f64::max);
                    finish[i] = ready + w.duration_ns;
                }
                finish.iter().copied().fold(0.0_f64, f64::max)
            }
        }
    }
}

/// Collective MPI operations modelled by the network replay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CollectiveOp {
    /// `MPI_Barrier`.
    Barrier,
    /// `MPI_Allreduce` of `bytes` per rank.
    AllReduce {
        /// Payload per rank in bytes.
        bytes: u64,
    },
    /// `MPI_Bcast` of `bytes` from rank 0.
    Bcast {
        /// Payload in bytes.
        bytes: u64,
    },
    /// `MPI_Alltoall` with `bytes` per pair.
    AllToAll {
        /// Per-pair payload in bytes.
        bytes: u64,
    },
}

/// MPI communication events recorded in the burst trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MpiEvent {
    /// Blocking send of `bytes` to `peer`.
    Send {
        /// Destination rank.
        peer: u32,
        /// Message size in bytes.
        bytes: u64,
    },
    /// Blocking receive of `bytes` from `peer`.
    Recv {
        /// Source rank.
        peer: u32,
        /// Message size in bytes.
        bytes: u64,
    },
    /// Combined send+receive (halo exchange idiom). Sends to `send_peer`
    /// while receiving from `recv_peer`.
    SendRecv {
        /// Destination rank of the outgoing message.
        send_peer: u32,
        /// Source rank of the incoming message.
        recv_peer: u32,
        /// Message size in bytes (both directions).
        bytes: u64,
    },
    /// A collective involving all ranks.
    Collective(CollectiveOp),
}

/// One event of a rank's burst trace.
#[derive(Debug, Clone, PartialEq)]
pub enum BurstEvent {
    /// A compute region.
    Compute(ComputeRegion),
    /// An MPI communication event.
    Mpi(MpiEvent),
}

/// The burst trace of one MPI rank.
#[derive(Debug, Clone, PartialEq)]
pub struct RankTrace {
    /// MPI rank number.
    pub rank: u32,
    /// Event sequence in program order.
    pub events: Vec<BurstEvent>,
}

impl RankTrace {
    /// Iterate over compute regions only.
    pub fn regions(&self) -> impl Iterator<Item = &ComputeRegion> {
        self.events.iter().filter_map(|e| match e {
            BurstEvent::Compute(r) => Some(r),
            BurstEvent::Mpi(_) => None,
        })
    }

    /// Serial compute time of this rank in nanoseconds.
    pub fn serial_compute_ns(&self) -> f64 {
        self.regions().map(|r| r.work.serial_time_ns()).sum()
    }
}

/// A complete two-level application trace.
#[derive(Debug, Clone, PartialEq)]
pub struct AppTrace {
    /// Metadata.
    pub meta: TraceMeta,
    /// Per-rank burst traces.
    pub ranks: Vec<RankTrace>,
    /// Detailed trace of the sampled representative region, if taken.
    pub detail: Option<DetailedTrace>,
}

impl AppTrace {
    /// The region of `rank` with id `region_id`, if present.
    pub fn region(&self, rank: u32, region_id: u32) -> Option<&ComputeRegion> {
        self.ranks
            .iter()
            .find(|r| r.rank == rank)?
            .regions()
            .find(|r| r.region_id == region_id)
    }

    /// The representative compute region named by the sampling metadata
    /// (falls back to the first region of rank 0).
    pub fn sampled_region(&self) -> Option<&ComputeRegion> {
        match self.meta.sampling {
            Some(s) => self.region(s.rank, s.region_id),
            None => self.ranks.first()?.regions().next(),
        }
    }

    /// Sanity checks a generator must uphold; returns a description of the
    /// first violation found.
    pub fn validate(&self) -> Result<(), String> {
        if self.ranks.len() != self.meta.ranks as usize {
            return Err(format!(
                "meta.ranks={} but {} rank traces",
                self.meta.ranks,
                self.ranks.len()
            ));
        }
        for rt in &self.ranks {
            for region in rt.regions() {
                let items = region.work.items();
                for (i, w) in items.iter().enumerate() {
                    if !w.duration_ns.is_finite() || w.duration_ns < 0.0 {
                        return Err(format!(
                            "rank {} region {} item {}: bad duration {}",
                            rt.rank, region.region_id, w.id, w.duration_ns
                        ));
                    }
                    if w.critical_ns > w.duration_ns {
                        return Err(format!(
                            "rank {} region {} item {}: critical > duration",
                            rt.rank, region.region_id, w.id
                        ));
                    }
                    // Deps must reference earlier items (topological ids).
                    for d in &w.deps {
                        if !items[..i].iter().any(|p| p.id == *d) {
                            return Err(format!(
                                "rank {} region {} item {}: dep {} not an earlier item",
                                rt.rank, region.region_id, w.id, d
                            ));
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

// The trace-file encodings (`musa_trace::io`), fields in declaration
// order.
musa_obs::json_struct!(WorkItem {
    id,
    duration_ns,
    deps,
    critical_ns,
    kernels
});
musa_obs::json_enum!(LoopSchedule { Static, Dynamic });
musa_obs::json_enum!(RegionWork {
    Tasks { items },
    ParallelFor { chunks, schedule },
    Serial { item }
});
musa_obs::json_struct!(ComputeRegion {
    region_id,
    name,
    work,
    spawn_overhead_ns,
    dispatch_overhead_ns
});
musa_obs::json_enum!(CollectiveOp {
    Barrier,
    AllReduce { bytes },
    Bcast { bytes },
    AllToAll { bytes }
});
musa_obs::json_enum!(MpiEvent {
    Send { peer, bytes },
    Recv { peer, bytes },
    SendRecv {
        send_peer,
        recv_peer,
        bytes
    },
    Collective(op)
});
musa_obs::json_enum!(BurstEvent {
    Compute(region),
    Mpi(event)
});
musa_obs::json_struct!(RankTrace { rank, events });
musa_obs::json_struct!(AppTrace {
    meta,
    ranks,
    detail
});

#[cfg(test)]
mod tests {
    use super::*;

    fn region_tasks() -> ComputeRegion {
        // DAG: 0 → 2, 1 → 2 ; durations 10, 20, 5 ⇒ critical path 25.
        ComputeRegion {
            region_id: 0,
            name: "r".into(),
            work: RegionWork::Tasks {
                items: vec![
                    WorkItem::simple(0, 10.0),
                    WorkItem::simple(1, 20.0),
                    WorkItem {
                        deps: vec![0, 1],
                        ..WorkItem::simple(2, 5.0)
                    },
                ],
            },
            spawn_overhead_ns: 0.0,
            dispatch_overhead_ns: 0.0,
        }
    }

    #[test]
    fn critical_path_tasks() {
        assert_eq!(region_tasks().critical_path_ns(), 25.0);
    }

    #[test]
    fn critical_path_parallel_for_is_max_chunk() {
        let r = ComputeRegion {
            region_id: 0,
            name: "r".into(),
            work: RegionWork::ParallelFor {
                chunks: vec![WorkItem::simple(0, 3.0), WorkItem::simple(1, 7.0)],
                schedule: LoopSchedule::Dynamic,
            },
            spawn_overhead_ns: 0.0,
            dispatch_overhead_ns: 0.0,
        };
        assert_eq!(r.critical_path_ns(), 7.0);
        assert_eq!(r.work.serial_time_ns(), 10.0);
    }

    #[test]
    fn validate_catches_forward_dep() {
        let mut region = region_tasks();
        if let RegionWork::Tasks { items } = &mut region.work {
            items[0].deps = vec![2]; // forward reference
        }
        let trace = AppTrace {
            meta: TraceMeta::new("x", 1, 1, 0),
            ranks: vec![RankTrace {
                rank: 0,
                events: vec![BurstEvent::Compute(region)],
            }],
            detail: None,
        };
        assert!(trace.validate().is_err());
    }

    #[test]
    fn validate_ok_and_rank_count() {
        let trace = AppTrace {
            meta: TraceMeta::new("x", 1, 1, 0),
            ranks: vec![RankTrace {
                rank: 0,
                events: vec![BurstEvent::Compute(region_tasks())],
            }],
            detail: None,
        };
        assert!(trace.validate().is_ok());

        let bad = AppTrace {
            meta: TraceMeta::new("x", 2, 1, 0),
            ranks: vec![],
            detail: None,
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn serial_compute_sums_regions() {
        let rt = RankTrace {
            rank: 0,
            events: vec![
                BurstEvent::Compute(region_tasks()),
                BurstEvent::Mpi(MpiEvent::Collective(CollectiveOp::Barrier)),
                BurstEvent::Compute(region_tasks()),
            ],
        };
        assert_eq!(rt.serial_compute_ns(), 70.0);
        assert_eq!(rt.regions().count(), 2);
    }

    #[test]
    fn sampled_region_falls_back_to_first() {
        let trace = AppTrace {
            meta: TraceMeta::new("x", 1, 1, 0),
            ranks: vec![RankTrace {
                rank: 0,
                events: vec![BurstEvent::Compute(region_tasks())],
            }],
            detail: None,
        };
        assert_eq!(trace.sampled_region().unwrap().region_id, 0);
    }
}
