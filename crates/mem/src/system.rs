//! Multi-channel DRAM system with physical-address mapping.

use crate::channel::{Channel, ChannelStats, Completion, Request};
use crate::timing::DramTiming;
use musa_arch::MemConfig;

/// Address-interleaving decomposition of a physical address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MappedAddr {
    /// Channel index.
    pub channel: u32,
    /// Bank index within the channel.
    pub bank: u32,
    /// Row index within the bank.
    pub row: u64,
}

/// Aggregated statistics of a [`DramSystem`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DramSystemStats {
    /// Per-channel statistics.
    pub channels: Vec<ChannelStats>,
    /// Totals across channels.
    pub total: ChannelStats,
}

/// The node's memory subsystem: `config.channels` channels of
/// `config.tech` devices, interleaved at cache-line granularity.
#[derive(Debug, Clone)]
pub struct DramSystem {
    config: MemConfig,
    timing: DramTiming,
    channels: Vec<Channel>,
    next_id: u64,
}

impl DramSystem {
    /// Build the memory system for a node configuration.
    pub fn new(config: MemConfig) -> Self {
        let timing = DramTiming::for_tech(config.tech);
        DramSystem {
            config,
            timing,
            channels: (0..config.channels).map(|_| Channel::new(timing)).collect(),
            next_id: 0,
        }
    }

    /// The memory configuration this system implements.
    pub fn config(&self) -> MemConfig {
        self.config
    }

    /// The timing set in use.
    pub fn timing(&self) -> &DramTiming {
        &self.timing
    }

    /// Map a physical address: cache-line-interleaved channels, then
    /// line-interleaved banks, then rows (RoBaCh-style, the mapping
    /// Ramulator defaults to for multi-channel systems).
    pub fn map(&self, addr: u64) -> MappedAddr {
        let line = addr / musa_arch::CACHE_LINE_BYTES;
        let nch = self.config.channels as u64;
        let channel = (line % nch) as u32;
        let line_in_ch = line / nch;
        let lines_per_row = (self.timing.row_bytes / musa_arch::CACHE_LINE_BYTES).max(1);
        let row_addr = line_in_ch / lines_per_row;
        let nbanks = self.timing.banks as u64;
        let bank = (row_addr % nbanks) as u32;
        let row = row_addr / nbanks;
        MappedAddr { channel, bank, row }
    }

    /// Service one cache-line request immediately (convenience API):
    /// returns the completion time in nanoseconds.
    pub fn access(&mut self, addr: u64, is_write: bool, ready_ns: f64) -> f64 {
        musa_obs::counter_add("mem.requests", 1);
        let m = self.map(addr);
        let id = self.next_id;
        self.next_id += 1;
        self.channels[m.channel as usize].service_one(Request {
            id,
            bank: m.bank,
            row: m.row,
            is_write,
            ready_ns,
        })
    }

    /// Queue a request for batched FR-FCFS scheduling; pair with
    /// [`Self::drain`]. Returns the request id.
    pub fn push(&mut self, addr: u64, is_write: bool, ready_ns: f64) -> u64 {
        musa_obs::counter_add("mem.requests", 1);
        let m = self.map(addr);
        let id = self.next_id;
        self.next_id += 1;
        self.channels[m.channel as usize].push(Request {
            id,
            bank: m.bank,
            row: m.row,
            is_write,
            ready_ns,
        });
        id
    }

    /// Schedule all queued requests on all channels; completions are
    /// returned sorted by id.
    pub fn drain(&mut self) -> Vec<Completion> {
        let mut all: Vec<Completion> = self.channels.iter_mut().flat_map(|c| c.drain()).collect();
        all.sort_by_key(|c| c.id);
        musa_obs::counter_add("mem.drained", all.len() as u64);
        all
    }

    /// Snapshot statistics.
    pub fn stats(&self) -> DramSystemStats {
        let channels: Vec<ChannelStats> = self.channels.iter().map(|c| *c.stats()).collect();
        let mut total = ChannelStats::default();
        for c in &channels {
            total.merge(c);
        }
        DramSystemStats { channels, total }
    }

    /// Aggregate peak bandwidth in GB/s.
    pub fn peak_gbs(&self) -> f64 {
        self.config.channels as f64 * self.timing.peak_gbs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use musa_arch::CACHE_LINE_BYTES;

    #[test]
    fn mapping_interleaves_channels_at_line_granularity() {
        let sys = DramSystem::new(MemConfig::DDR4_4CH);
        let m0 = sys.map(0);
        let m1 = sys.map(CACHE_LINE_BYTES);
        let m4 = sys.map(4 * CACHE_LINE_BYTES);
        assert_eq!(m0.channel, 0);
        assert_eq!(m1.channel, 1);
        assert_eq!(m4.channel, 0);
        // Same line maps identically regardless of offset within the line.
        assert_eq!(sys.map(7), m0);
    }

    #[test]
    fn mapping_covers_all_channels_and_banks() {
        let sys = DramSystem::new(MemConfig::DDR4_8CH);
        let mut chs = std::collections::HashSet::new();
        let mut banks = std::collections::HashSet::new();
        for i in 0..100_000u64 {
            let m = sys.map(i * CACHE_LINE_BYTES);
            chs.insert(m.channel);
            banks.insert(m.bank);
        }
        assert_eq!(chs.len(), 8);
        assert_eq!(banks.len(), sys.timing().banks as usize);
    }

    #[test]
    fn more_channels_give_more_bandwidth_on_streams() {
        // Identical random-ish line stream serviced by 4 and 8 channels:
        // the 8-channel system must finish sooner.
        let run = |cfg: MemConfig| -> f64 {
            let mut sys = DramSystem::new(cfg);
            for i in 0..4000u64 {
                sys.push(i * CACHE_LINE_BYTES, false, 0.0);
            }
            sys.drain().iter().map(|c| c.done_ns).fold(0.0, f64::max)
        };
        let t4 = run(MemConfig::DDR4_4CH);
        let t8 = run(MemConfig::DDR4_8CH);
        assert!(
            t8 < t4 * 0.6,
            "8ch should be nearly 2x faster: t4={t4} t8={t8}"
        );
    }

    #[test]
    fn access_and_push_drain_agree_for_isolated_requests() {
        let mut a = DramSystem::new(MemConfig::DDR4_4CH);
        let mut b = DramSystem::new(MemConfig::DDR4_4CH);
        let addr = 123 * CACHE_LINE_BYTES;
        let t_access = a.access(addr, false, 10.0);
        let id = b.push(addr, false, 10.0);
        let done = b.drain();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].id, id);
        assert!((done[0].done_ns - t_access).abs() < 1e-9);
    }

    #[test]
    fn access_keeps_the_completions_it_services_for_queued_requests() {
        // A request queued on channel 0, another on channel 1, then an
        // immediate access on channel 0, which services the queued one.
        let mut a = DramSystem::new(MemConfig::DDR4_4CH);
        a.push(0, false, 0.0);
        a.push(CACHE_LINE_BYTES, true, 0.0);
        let t_access = a.access(4 * CACHE_LINE_BYTES, false, 0.0);
        // The same three requests drained as one batch.
        let mut b = DramSystem::new(MemConfig::DDR4_4CH);
        for (line, is_write) in [(0, false), (1, true), (4, false)] {
            b.push(line * CACHE_LINE_BYTES, is_write, 0.0);
        }
        let want = b.drain();
        assert_eq!(a.drain(), want[..2]);
        assert_eq!(t_access, want[2].done_ns);
        assert!(a.drain().is_empty(), "each completion is returned once");
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn stats_totals_merge_channels() {
        let mut sys = DramSystem::new(MemConfig::DDR4_4CH);
        for i in 0..256u64 {
            sys.push(i * CACHE_LINE_BYTES, i % 4 == 0, 0.0);
        }
        sys.drain();
        let stats = sys.stats();
        assert_eq!(stats.total.reads + stats.total.writes, 256);
        let sum: u64 = stats.channels.iter().map(|c| c.reads + c.writes).sum();
        assert_eq!(sum, 256);
        assert_eq!(stats.total.bytes, 256 * sys.timing().burst_bytes);
    }

    #[test]
    fn hbm_system_has_higher_aggregate_peak() {
        let hbm = DramSystem::new(MemConfig::HBM_16CH);
        let ddr = DramSystem::new(MemConfig::DDR4_16CH);
        assert!(hbm.peak_gbs() > ddr.peak_gbs());
    }
}
