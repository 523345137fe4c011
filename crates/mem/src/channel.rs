//! One DRAM channel: banks, FR-FCFS scheduling, open-row policy, data bus,
//! refresh.
//!
//! The controller is event-driven rather than ticked: requests are pushed
//! into a pending queue ([`Channel::push`]) and scheduled by
//! [`Channel::advance`], which repeatedly picks the FR-FCFS candidate
//! (oldest row hit, else oldest request) among the arrived requests and
//! reserves the bank/bus resources it needs. All state is kept in
//! nanoseconds for easy composition with the CPU-side simulator.

use std::collections::VecDeque;

use crate::timing::DramTiming;

/// A memory request as seen by the channel (already address-mapped).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Request {
    /// Caller-chosen identifier, returned in the [`Completion`].
    pub id: u64,
    /// Bank index within the channel.
    pub bank: u32,
    /// Row index within the bank.
    pub row: u64,
    /// True for writes.
    pub is_write: bool,
    /// Earliest time the request may be issued (arrival at controller).
    pub ready_ns: f64,
}

/// A serviced request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Completion {
    /// The id passed in the [`Request`].
    pub id: u64,
    /// Time the last data beat left the bus.
    pub done_ns: f64,
}

/// Row-buffer outcome of an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RowOutcome {
    Hit,
    Closed,
    Conflict,
}

#[derive(Debug, Clone, Copy, Default)]
struct BankState {
    /// Currently open row, if any.
    open_row: Option<u64>,
    /// Earliest time a CAS (RD/WR) to the open row may start.
    cas_ready_ns: f64,
    /// Earliest time a PRE may start (tRAS / tWR / tRTP recovery).
    pre_ready_ns: f64,
    /// Earliest time an ACT may start (tRC from last ACT, tRP from PRE).
    act_ready_ns: f64,
}

/// Command and row-buffer statistics of one channel.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ChannelStats {
    /// Read bursts issued.
    pub reads: u64,
    /// Write bursts issued.
    pub writes: u64,
    /// ACT commands issued.
    pub acts: u64,
    /// PRE commands issued.
    pub pres: u64,
    /// All-bank refresh operations performed.
    pub refreshes: u64,
    /// Requests that hit the open row.
    pub row_hits: u64,
    /// Requests to a closed (precharged) bank.
    pub row_closed: u64,
    /// Requests that conflicted with a different open row.
    pub row_conflicts: u64,
    /// Nanoseconds the data bus carried data.
    pub bus_busy_ns: f64,
    /// Sum over requests of (completion − arrival), for mean latency.
    pub total_latency_ns: f64,
    /// Bytes transferred.
    pub bytes: u64,
    /// Completion time of the latest request.
    pub last_done_ns: f64,
}

musa_obs::json_struct!(ChannelStats {
    reads,
    writes,
    acts,
    pres,
    refreshes,
    row_hits,
    row_closed,
    row_conflicts,
    bus_busy_ns,
    total_latency_ns,
    bytes,
    last_done_ns
});

impl ChannelStats {
    /// Mean request latency in nanoseconds.
    pub fn mean_latency_ns(&self) -> f64 {
        let n = self.reads + self.writes;
        if n == 0 {
            0.0
        } else {
            self.total_latency_ns / n as f64
        }
    }

    /// Row-buffer hit rate over all requests.
    pub fn row_hit_rate(&self) -> f64 {
        let n = self.row_hits + self.row_closed + self.row_conflicts;
        if n == 0 {
            0.0
        } else {
            self.row_hits as f64 / n as f64
        }
    }

    /// Achieved bandwidth in GB/s over the interval `[0, last_done_ns]`.
    pub fn achieved_gbs(&self) -> f64 {
        if self.last_done_ns <= 0.0 {
            0.0
        } else {
            self.bytes as f64 / self.last_done_ns
        }
    }

    /// Merge another channel's stats into this one (for system totals).
    pub fn merge(&mut self, other: &ChannelStats) {
        self.reads += other.reads;
        self.writes += other.writes;
        self.acts += other.acts;
        self.pres += other.pres;
        self.refreshes += other.refreshes;
        self.row_hits += other.row_hits;
        self.row_closed += other.row_closed;
        self.row_conflicts += other.row_conflicts;
        self.bus_busy_ns += other.bus_busy_ns;
        self.total_latency_ns += other.total_latency_ns;
        self.bytes += other.bytes;
        self.last_done_ns = self.last_done_ns.max(other.last_done_ns);
    }
}

/// One DRAM channel with FR-FCFS scheduling and an open-row policy.
#[derive(Debug, Clone)]
pub struct Channel {
    timing: DramTiming,
    banks: Vec<BankState>,
    /// Data-bus free time.
    bus_free_ns: f64,
    /// Last four ACT start times (tFAW window).
    act_window: VecDeque<f64>,
    /// Earliest next ACT anywhere on the channel (tRRD).
    rrd_ready_ns: f64,
    /// Next scheduled all-bank refresh.
    next_refresh_ns: f64,
    /// Pending (unscheduled) requests in arrival order.
    pending: VecDeque<Request>,
    /// Completions [`Channel::service_one`] serviced for other requests,
    /// in service order; the next [`Channel::drain`] returns them first.
    held: Vec<Completion>,
    stats: ChannelStats,
}

impl Channel {
    /// New idle channel.
    pub fn new(timing: DramTiming) -> Self {
        let refi_ns = timing.cycles_to_ns(timing.refi);
        Channel {
            timing,
            banks: vec![BankState::default(); timing.banks as usize],
            bus_free_ns: 0.0,
            act_window: VecDeque::with_capacity(4),
            rrd_ready_ns: 0.0,
            next_refresh_ns: refi_ns,
            pending: VecDeque::new(),
            held: Vec::new(),
            stats: ChannelStats::default(),
        }
    }

    /// The timing set this channel runs with.
    pub fn timing(&self) -> &DramTiming {
        &self.timing
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &ChannelStats {
        &self.stats
    }

    /// Number of requests waiting to be scheduled.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Queue a request. Requests may arrive in any order; scheduling
    /// respects each request's `ready_ns`.
    pub fn push(&mut self, req: Request) {
        debug_assert!((req.bank as usize) < self.banks.len(), "bank out of range");
        self.pending.push_back(req);
    }

    /// Schedule every pending request, FR-FCFS, and return completions in
    /// service order (those a [`Self::service_one`] call serviced since
    /// the last drain first). Call after pushing a batch.
    pub fn drain(&mut self) -> Vec<Completion> {
        let mut done = Vec::with_capacity(self.held.len() + self.pending.len());
        done.append(&mut self.held);
        while !self.pending.is_empty() {
            let idx = self.pick_fr_fcfs();
            let req = self.pending.remove(idx).expect("index in range");
            let completion = self.service(req);
            done.push(completion);
        }
        done
    }

    /// Convenience: push a single request and service the whole queue,
    /// returning this request's completion time. The other requests'
    /// completions stay on the channel for the next [`Self::drain`].
    pub fn service_one(&mut self, req: Request) -> f64 {
        let id = req.id;
        self.push(req);
        let earlier = self.held.len();
        let mut done = self.drain();
        let mine = earlier
            + done[earlier..]
                .iter()
                .position(|c| c.id == id)
                .expect("request just pushed is serviced");
        let done_ns = done.remove(mine).done_ns;
        self.held = done;
        done_ns
    }

    /// FR-FCFS: oldest request whose row is open in its bank; otherwise
    /// the oldest request overall. "Oldest" is by `ready_ns` then queue
    /// order.
    fn pick_fr_fcfs(&self) -> usize {
        let mut best_hit: Option<(usize, f64)> = None;
        let mut best_any: Option<(usize, f64)> = None;
        for (i, r) in self.pending.iter().enumerate() {
            let is_hit = self.banks[r.bank as usize].open_row == Some(r.row);
            if is_hit && best_hit.is_none_or(|(_, t)| r.ready_ns < t) {
                best_hit = Some((i, r.ready_ns));
            }
            if best_any.is_none_or(|(_, t)| r.ready_ns < t) {
                best_any = Some((i, r.ready_ns));
            }
        }
        best_hit.or(best_any).map(|(i, _)| i).unwrap_or(0)
    }

    /// Run all-bank refreshes scheduled before `t`.
    fn refresh_until(&mut self, t: f64) {
        let t_ns = &self.timing;
        let rfc_ns = t_ns.cycles_to_ns(t_ns.rfc);
        let refi_ns = t_ns.cycles_to_ns(t_ns.refi);
        while self.next_refresh_ns <= t {
            let start = self.next_refresh_ns;
            let end = start + rfc_ns;
            // All banks are precharged and unavailable until refresh ends.
            for b in &mut self.banks {
                b.open_row = None;
                b.act_ready_ns = b.act_ready_ns.max(end);
            }
            self.rrd_ready_ns = self.rrd_ready_ns.max(end);
            self.stats.refreshes += 1;
            self.next_refresh_ns = start + refi_ns;
        }
    }

    /// Schedule one request, updating bank/bus state; returns completion.
    fn service(&mut self, req: Request) -> Completion {
        let t = self.timing;
        self.refresh_until(req.ready_ns);

        let bank = &self.banks[req.bank as usize];
        let outcome = match bank.open_row {
            Some(r) if r == req.row => RowOutcome::Hit,
            Some(_) => RowOutcome::Conflict,
            None => RowOutcome::Closed,
        };

        // Compute when the CAS (RD/WR) command can start.
        let cas_start = match outcome {
            RowOutcome::Hit => req.ready_ns.max(bank.cas_ready_ns),
            RowOutcome::Closed | RowOutcome::Conflict => {
                let mut act_start = req.ready_ns.max(bank.act_ready_ns);
                if outcome == RowOutcome::Conflict {
                    // PRE first; PRE→ACT is tRP.
                    let pre_start = req.ready_ns.max(bank.pre_ready_ns);
                    act_start = act_start.max(pre_start + t.cycles_to_ns(t.rp));
                    self.stats.pres += 1;
                }
                // Inter-bank ACT constraints: tRRD and tFAW.
                act_start = act_start.max(self.rrd_ready_ns);
                if self.act_window.len() == 4 {
                    let oldest = *self.act_window.front().expect("len checked");
                    act_start = act_start.max(oldest + t.cycles_to_ns(t.faw));
                    self.act_window.pop_front();
                }
                self.act_window.push_back(act_start);
                self.rrd_ready_ns = act_start + t.cycles_to_ns(t.rrd);
                self.stats.acts += 1;

                // Bank is busy with ACT until tRCD; row registered open.
                let b = &mut self.banks[req.bank as usize];
                b.open_row = Some(req.row);
                b.act_ready_ns = act_start + t.cycles_to_ns(t.rc);
                b.pre_ready_ns = act_start + t.cycles_to_ns(t.ras);
                act_start + t.cycles_to_ns(t.rcd)
            }
        };

        // Data bus: transfer begins CL (or CWL) after CAS, needs BL slots,
        // and consecutive CAS bursts are separated by max(BL, tCCD).
        let cas_lat = if req.is_write { t.cwl } else { t.cl };
        let data_start = (cas_start + t.cycles_to_ns(cas_lat)).max(self.bus_free_ns);
        let data_end = data_start + t.cycles_to_ns(t.bl);
        self.bus_free_ns = data_start + t.cycles_to_ns(t.bl.max(t.ccd));

        // Recovery constraints on the bank.
        {
            let b = &mut self.banks[req.bank as usize];
            b.cas_ready_ns = b
                .cas_ready_ns
                .max(cas_start + t.cycles_to_ns(t.bl.max(t.ccd)));
            if req.is_write {
                // Write recovery before PRE; write-to-read turnaround.
                b.pre_ready_ns = b.pre_ready_ns.max(data_end + t.cycles_to_ns(t.wr));
                b.cas_ready_ns = b.cas_ready_ns.max(data_end + t.cycles_to_ns(t.wtr));
            } else {
                b.pre_ready_ns = b.pre_ready_ns.max(cas_start + t.cycles_to_ns(t.rtp));
            }
        }

        // Statistics.
        match outcome {
            RowOutcome::Hit => self.stats.row_hits += 1,
            RowOutcome::Closed => self.stats.row_closed += 1,
            RowOutcome::Conflict => self.stats.row_conflicts += 1,
        }
        if req.is_write {
            self.stats.writes += 1;
        } else {
            self.stats.reads += 1;
        }
        self.stats.bytes += t.burst_bytes;
        self.stats.bus_busy_ns += t.cycles_to_ns(t.bl);
        self.stats.total_latency_ns += data_end - req.ready_ns;
        self.stats.last_done_ns = self.stats.last_done_ns.max(data_end);

        Completion {
            id: req.id,
            done_ns: data_end,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ch() -> Channel {
        Channel::new(DramTiming::ddr4_2400())
    }

    fn read(id: u64, bank: u32, row: u64, ready: f64) -> Request {
        Request {
            id,
            bank,
            row,
            is_write: false,
            ready_ns: ready,
        }
    }

    #[test]
    fn idle_closed_read_latency_matches_timing() {
        let mut c = ch();
        let t = *c.timing();
        let done = c.service_one(read(0, 0, 0, 0.0));
        assert!((done - t.row_closed_ns()).abs() < 1e-9, "{done}");
        assert_eq!(c.stats().row_closed, 1);
    }

    #[test]
    fn second_access_same_row_is_a_hit() {
        let mut c = ch();
        let d1 = c.service_one(read(0, 0, 7, 0.0));
        let d2 = c.service_one(read(1, 0, 7, d1));
        assert_eq!(c.stats().row_hits, 1);
        // Hit latency from its arrival must be under the closed latency.
        assert!(d2 - d1 < c.timing().row_closed_ns());
    }

    #[test]
    fn row_conflict_pays_precharge() {
        let mut c = ch();
        let d1 = c.service_one(read(0, 0, 1, 0.0));
        // Wait out bank recovery so only the conflict cost remains.
        let start = d1 + 200.0;
        let d2 = c.service_one(read(1, 0, 2, start));
        assert_eq!(c.stats().row_conflicts, 1);
        assert!(
            d2 - start >= c.timing().row_conflict_ns() - 1e-9,
            "conflict {} < {}",
            d2 - start,
            c.timing().row_conflict_ns()
        );
    }

    #[test]
    fn bus_serialises_back_to_back_hits() {
        let mut c = ch();
        let t = *c.timing();
        // Open the row, then issue a burst of hits at the same time.
        let open = c.service_one(read(0, 0, 0, 0.0));
        for i in 1..=8 {
            c.push(read(i, 0, 0, open));
        }
        let done = c.drain();
        let last = done.iter().map(|d| d.done_ns).fold(0.0, f64::max);
        // 8 bursts cannot finish faster than 8 × max(BL, CCD).
        let min_span = t.cycles_to_ns(t.bl.max(t.ccd)) * 8.0;
        assert!(last - open >= min_span - 1e-9);
    }

    #[test]
    fn fr_fcfs_prefers_row_hits() {
        let mut c = ch();
        let d0 = c.service_one(read(0, 0, 5, 0.0)); // opens row 5
                                                    // Conflict (row 9) arrives slightly earlier than a hit (row 5).
        c.push(read(1, 0, 9, d0));
        c.push(read(2, 0, 5, d0 + 0.1));
        let done = c.drain();
        assert_eq!(done[0].id, 2, "row hit should be scheduled first");
        assert_eq!(c.stats().row_hits, 1);
        assert_eq!(c.stats().row_conflicts, 1);
    }

    #[test]
    fn refresh_fires_and_blocks() {
        let mut c = ch();
        let t = *c.timing();
        let refi_ns = t.cycles_to_ns(t.refi);
        // Ask for a read well past several refresh intervals.
        let late = refi_ns * 3.5;
        c.service_one(read(0, 0, 0, late));
        assert_eq!(c.stats().refreshes, 3);
    }

    #[test]
    fn completions_monotone_under_load() {
        let mut c = ch();
        for i in 0..64 {
            c.push(read(i, (i % 16) as u32, i / 16, 0.0));
        }
        let done = c.drain();
        assert_eq!(done.len(), 64);
        for w in done.windows(2) {
            assert!(w[1].done_ns >= w[0].done_ns - 1e-9);
        }
        let s = c.stats();
        assert_eq!(s.reads, 64);
        assert_eq!(s.bytes, 64 * t_bytes());
    }

    fn t_bytes() -> u64 {
        DramTiming::ddr4_2400().burst_bytes
    }

    #[test]
    fn writes_delay_subsequent_reads_by_wtr() {
        let mut c = ch();
        let w = Request {
            id: 0,
            bank: 0,
            row: 0,
            is_write: true,
            ready_ns: 0.0,
        };
        let dw = c.service_one(w);
        let dr = c.service_one(read(1, 0, 0, dw));
        let t = *c.timing();
        // Read data cannot start before write end + tWTR + CL.
        assert!(dr >= dw + t.cycles_to_ns(t.wtr + t.cl) - 1e-9);
    }

    #[test]
    fn saturated_channel_approaches_peak_bandwidth() {
        let mut c = ch();
        let t = *c.timing();
        // Stream of row hits across banks, all ready at 0: bandwidth-bound.
        let n = 2000u64;
        for i in 0..n {
            c.push(read(i, 0, 0, 0.0));
        }
        let done = c.drain();
        let last = done.iter().map(|d| d.done_ns).fold(0.0, f64::max);
        let gbs = (n * t.burst_bytes) as f64 / last;
        // tCCD_L (6 cycles) > BL (4 cycles) limits same-bank-group streams
        // to BL/CCD of peak; allow refresh overhead on top.
        let bound = t.peak_gbs() * (t.bl as f64 / t.ccd as f64);
        assert!(gbs > bound * 0.85, "achieved {gbs} GB/s, bound {bound}");
        assert!(gbs <= t.peak_gbs() + 1e-9);
    }
}
