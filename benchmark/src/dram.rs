//! `dram_stream`: the cycle-level `DramSystem`, one push-batch plus drain
//! per operation.
//!
//! The only workload where `mem` does the work: the campaign prices DRAM
//! with the analytic `estimate_dram_stats` and never builds a
//! `DramSystem`. Reads run beside writes and shallow queues beside deep
//! ones (the FR-FCFS scan grows with queue depth), so a gain for one
//! that costs the other shows.

use std::time::Instant;

use musa_arch::{MemConfig, CACHE_LINE_BYTES};
use musa_mem::{ChannelStats, DramSystem};

use crate::measure::{run_rounds, time_setup, Fnv, PassOut, Report};
use crate::spans::{Layer, Recorder};
use crate::Args;

const CONFIGS: [MemConfig; 3] = [
    MemConfig::DDR4_4CH,
    MemConfig::DDR4_8CH,
    MemConfig::HBM_16CH,
];
/// Write share of the two mixes, percent: read-mostly and write-heavy.
const WRITE_PCT: [u64; 2] = [25, 60];
/// Requests pushed before each drain.
const DEPTHS: [(usize, Layer); 2] = [(256, Layer::MemDrain256), (4096, Layer::MemDrain4096)];
/// Share of requests that continue the current sequential run, percent;
/// the rest jump to a random line.
const SEQUENTIAL_PCT: u64 = 70;
/// Lines addressed: 1 GiB, far beyond any row buffer.
const LINES: u64 = 1 << 24;

#[derive(Clone, Copy)]
struct Req {
    addr: u64,
    is_write: bool,
}

pub struct Inputs {
    /// One request stream per mix.
    streams: Vec<Vec<Req>>,
}

struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

fn setup(seed: u64, reqs_per_cell: usize) -> Inputs {
    let streams = WRITE_PCT
        .iter()
        .map(|&write_pct| {
            let mut rng = SplitMix64(seed ^ write_pct.wrapping_mul(0xA24B_AED4_963E_E407));
            let mut line = rng.next() % LINES;
            (0..reqs_per_cell)
                .map(|_| {
                    line = if rng.next() % 100 < SEQUENTIAL_PCT {
                        (line + 1) % LINES
                    } else {
                        rng.next() % LINES
                    };
                    Req {
                        addr: line * CACHE_LINE_BYTES,
                        is_write: rng.next() % 100 < write_pct,
                    }
                })
                .collect()
        })
        .collect();
    Inputs { streams }
}

fn digest_stats(h: &mut Fnv, s: &ChannelStats) {
    for v in [
        s.reads,
        s.writes,
        s.acts,
        s.pres,
        s.refreshes,
        s.row_hits,
        s.row_closed,
        s.row_conflicts,
        s.bytes,
    ] {
        h.u64(v);
    }
    for v in [s.bus_busy_ns, s.total_latency_ns, s.last_done_ns] {
        h.f64(v);
    }
}

/// One pass: every (configuration, mix, depth) cell on a fresh
/// `DramSystem`, its stream pushed `depth` requests at a time and
/// drained. Each batch arrives when the previous one has completed.
fn pass(
    inp: &Inputs,
    rec: &mut Recorder,
    lat_us: &mut Vec<f64>,
    total: &mut ChannelStats,
) -> PassOut {
    let mut h = Fnv::new();
    let (mut ops, mut failed) = (0, 0);
    rec.enter(Layer::Workload);
    for config in CONFIGS {
        for stream in &inp.streams {
            for (depth, drain_layer) in DEPTHS {
                rec.enter(Layer::Cell);
                let mut sys = DramSystem::new(config);
                let mut clock_ns = 0.0_f64;
                let mut next_id = 0u64;
                for batch in stream.chunks(depth) {
                    rec.set_op(ops);
                    rec.enter(Layer::Batch);
                    let t = Instant::now();
                    rec.enter(Layer::MemPush);
                    for req in batch {
                        sys.push(req.addr, req.is_write, clock_ns);
                    }
                    rec.exit_calls(batch.len() as u64);
                    rec.enter(drain_layer);
                    let done = sys.drain();
                    rec.exit_calls(batch.len() as u64);
                    lat_us.push(t.elapsed().as_secs_f64() * 1e6);

                    // Every request pushed is completed exactly once:
                    // completions come back sorted by id, so they must
                    // be exactly the ids just pushed, in order.
                    let mut ok = done.len() == batch.len();
                    for (i, c) in done.iter().enumerate() {
                        ok &=
                            c.id == next_id + i as u64 && c.done_ns.is_finite() && c.done_ns > 0.0;
                        h.f64(c.done_ns);
                        clock_ns = clock_ns.max(c.done_ns);
                    }
                    next_id += batch.len() as u64;
                    ops += 1;
                    if !ok {
                        failed += 1;
                    }
                    rec.exit();
                }
                let stats = sys.stats().total;
                digest_stats(&mut h, &stats);
                total.merge(&stats);
                rec.exit();
            }
        }
    }
    rec.exit();
    PassOut {
        digest: h.finish(),
        ops,
        failed,
    }
}

/// `DramSystem::access`, the immediate-service path: one request
/// outstanding at a time, each issued when the previous one completed.
fn drive_access(inp: &Inputs, rec: &mut Recorder) {
    for config in CONFIGS {
        for stream in &inp.streams {
            let mut sys = DramSystem::new(config);
            let mut clock_ns = 0.0;
            rec.enter(Layer::MemAccess);
            for req in stream {
                clock_ns = sys.access(req.addr, req.is_write, clock_ns);
            }
            rec.exit_calls(stream.len() as u64);
            std::hint::black_box(clock_ns);
        }
    }
}

pub fn run(args: &Args, rec: &mut Recorder) -> Report {
    let mut report = Report::default();
    let (inp, setup_s) = time_setup(|| setup(args.seed, args.scale.dram_reqs_per_cell));

    // Simulated statistics are the same in every pass, traced or not.
    let mut stats = ChannelStats::default();
    let (untraced, traced) = run_rounds(args.seconds, args.trace, rec, |rec, lat| {
        pass(&inp, rec, lat, &mut stats)
    });
    report.count(&untraced);

    if let Some(traced) = &traced {
        rec.start();
        drive_access(&inp, rec);
        rec.stop();
        report.count_traced(&untraced, traced);

        let traced_ns = rec.agg(Layer::Workload).total_ns as f64;
        report.set("mem.push.ns_per_req", rec.agg(Layer::MemPush).ns_per_call());
        report.set(
            "mem.drain.ns_per_req.depth256",
            rec.agg(Layer::MemDrain256).ns_per_call(),
        );
        report.set(
            "mem.drain.ns_per_req.depth4096",
            rec.agg(Layer::MemDrain4096).ns_per_call(),
        );
        report.set(
            "mem.access.ns_per_req",
            rec.agg(Layer::MemAccess).ns_per_call(),
        );
        report.set("mem.row_hit_rate", stats.row_hit_rate());
        let own = rec.agg(Layer::Workload).self_ns
            + rec.agg(Layer::Cell).self_ns
            + rec.agg(Layer::Batch).self_ns;
        report.set("bench.unattributed_share", own as f64 / traced_ns);
        report.exact("mem.row_hit_rate", stats.row_hit_rate());
        report.exact(
            "mem.drain.allocs_per_req.depth4096",
            rec.agg(Layer::MemDrain4096).allocs_per_call(),
        );
    }
    report.end_to_end(setup_s, &untraced);
    report
}
