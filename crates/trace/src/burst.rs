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
/// chunk. It is named by its position in its region's item list, and
/// owns no heap memory: its task dependencies, if any, are held by its
/// region ([`RegionWork::Tasks`]).
#[derive(Debug, Clone, PartialEq)]
pub struct WorkItem {
    /// Native single-thread duration in nanoseconds (from the trace).
    pub duration_ns: f64,
    /// Portion of `duration_ns` spent inside an `omp critical` section
    /// (serialises against every other item's critical portion).
    pub critical_ns: f64,
    /// Detailed-trace content: the kernel this item invokes, if any (at
    /// most one). `None` when only the burst level was traced.
    pub kernels: Option<KernelInvocation>,
}

impl WorkItem {
    /// A plain independent item with the given duration.
    pub fn simple(duration_ns: f64) -> Self {
        WorkItem {
            duration_ns,
            critical_ns: 0.0,
            kernels: None,
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
        /// The task set.
        items: Vec<WorkItem>,
        /// The task graph's edges: empty when no task has a predecessor
        /// (no cost per task), or one list of predecessor positions per
        /// task, in task order. [`AppTrace::validate`] rejects an edge to
        /// the task's own or a later position, and the scheduler lets
        /// such an edge never gate.
        deps: Vec<Vec<u32>>,
    },
    /// `omp parallel for`: independent chunks with an implicit barrier at
    /// the end of the loop.
    ParallelFor {
        /// Loop chunks, mutually independent.
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
            RegionWork::Tasks { items, .. } => items,
            RegionWork::ParallelFor { chunks, .. } => chunks,
            RegionWork::Serial { item } => std::slice::from_ref(item),
        }
    }

    /// The task graph's edges (see [`RegionWork::Tasks`]); empty for a
    /// loop or a serial region, and for tasks without dependencies.
    pub fn deps(&self) -> &[Vec<u32>] {
        match self {
            RegionWork::Tasks { deps, .. } => deps,
            RegionWork::ParallelFor { .. } | RegionWork::Serial { .. } => &[],
        }
    }

    /// Mutable access to all work items.
    pub fn items_mut(&mut self) -> &mut [WorkItem] {
        match self {
            RegionWork::Tasks { items, .. } => items,
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
                // A task graph's edges, checked in the same pass: one
                // list per task, each naming an earlier position.
                let deps = region.work.deps();
                if !deps.is_empty() && deps.len() != items.len() {
                    return Err(format!(
                        "rank {} region {}: {} dependency lists for {} tasks",
                        rt.rank,
                        region.region_id,
                        deps.len(),
                        items.len()
                    ));
                }
                for (i, w) in items.iter().enumerate() {
                    if !w.duration_ns.is_finite() || w.duration_ns < 0.0 {
                        return Err(format!(
                            "rank {} region {} item {i}: bad duration {}",
                            rt.rank, region.region_id, w.duration_ns
                        ));
                    }
                    if w.critical_ns > w.duration_ns {
                        return Err(format!(
                            "rank {} region {} item {i}: critical > duration",
                            rt.rank, region.region_id
                        ));
                    }
                    let named = deps.get(i).map_or(&[][..], Vec::as_slice);
                    if let Some(d) = named.iter().find(|&&d| d as usize >= i) {
                        return Err(format!(
                            "rank {} region {} item {i}: dep {d} not an earlier item",
                            rt.rank, region.region_id
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

// The trace-file encodings (`musa_trace::io`), fields in declaration
// order. An item is its position: one that carries an `id` was written
// by a build whose task edges named ids, and is refused.
impl musa_obs::json::ToJson for WorkItem {
    fn write_json(&self, out: &mut String) {
        let WorkItem {
            duration_ns,
            critical_ns,
            kernels,
        } = self;
        musa_obs::__json_members!(out, duration_ns, critical_ns, kernels);
    }
}

impl musa_obs::json::FromJson for WorkItem {
    fn read_json(v: &musa_obs::json::JsonValue) -> Result<Self, String> {
        use musa_obs::json::field;
        if v.get("id").is_some() {
            return Err("a work item is named by its position, not an id".into());
        }
        Ok(WorkItem {
            duration_ns: field(v, "duration_ns")?,
            critical_ns: field(v, "critical_ns")?,
            kernels: field(v, "kernels")?,
        })
    }
}
musa_obs::json_enum!(LoopSchedule { Static, Dynamic });
musa_obs::json_enum!(RegionWork {
    Tasks { items, deps },
    ParallelFor { chunks, schedule },
    Serial { item }
});
musa_obs::json_struct!(ComputeRegion {
    region_id,
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
        // DAG: 0 → 2, 1 → 2 ; durations 10, 20, 5.
        ComputeRegion {
            region_id: 0,
            work: RegionWork::Tasks {
                items: vec![
                    WorkItem::simple(10.0),
                    WorkItem::simple(20.0),
                    WorkItem::simple(5.0),
                ],
                deps: vec![vec![], vec![], vec![0, 1]],
            },
            spawn_overhead_ns: 0.0,
            dispatch_overhead_ns: 0.0,
        }
    }

    fn one_region(region: ComputeRegion) -> AppTrace {
        AppTrace {
            meta: TraceMeta::new("x", 1, 1, 0),
            ranks: vec![RankTrace {
                rank: 0,
                events: vec![BurstEvent::Compute(region)],
            }],
            detail: None,
        }
    }

    /// An item is its position, holds its one invocation inline (the
    /// nonzero trip count's niche makes the `Option` free) and its
    /// region holds its edges: 24 bytes and no heap chunk of its own,
    /// times the 692,224 items of the five paper-scale traces.
    #[test]
    fn a_work_item_stays_small() {
        assert_eq!(std::mem::size_of::<Option<KernelInvocation>>(), 8);
        assert_eq!(std::mem::size_of::<WorkItem>(), 24);
    }

    /// A region is its id, its work's two lists and two overheads: no
    /// field of its own on the heap (a name would add 24 bytes).
    #[test]
    fn a_region_stays_small() {
        assert!(std::mem::size_of::<ComputeRegion>() <= 72);
    }

    /// An edge names an earlier position: one to the task's own or a
    /// later position (in range or past the end) is refused.
    #[test]
    fn validate_catches_forward_dep() {
        for (task, named) in [(0, 2), (1, 1), (2, 2), (2, 3), (1, u32::MAX)] {
            let mut region = region_tasks();
            if let RegionWork::Tasks { deps, .. } = &mut region.work {
                deps[task].push(named);
            }
            assert!(
                one_region(region).validate().is_err(),
                "task {task} waits for {named}"
            );
        }
    }

    /// A task graph's edge list is empty or has one list per task.
    #[test]
    fn validate_catches_an_edge_list_of_the_wrong_length() {
        let mut region = region_tasks();
        if let RegionWork::Tasks { deps, .. } = &mut region.work {
            deps.pop();
        }
        assert!(one_region(region.clone()).validate().is_err());
        if let RegionWork::Tasks { deps, .. } = &mut region.work {
            deps.clear();
        }
        assert!(one_region(region).validate().is_ok());
    }

    #[test]
    fn validate_ok_and_rank_count() {
        assert!(one_region(region_tasks()).validate().is_ok());

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
        assert_eq!(
            one_region(region_tasks())
                .sampled_region()
                .unwrap()
                .region_id,
            0
        );
    }
}
