//! In-memory span recorder for the traced pass.
//!
//! Spans are opened and closed at the benchmark's own call sites, around
//! the calls into each simulator layer. Each close folds the span into a
//! per-layer aggregate (calls, total time, self time, allocations); the
//! spans of the first traced pass are also kept whole and written to
//! `out/trace-<workload>.json` at exit. A layer's self time is its
//! duration minus the part its child spans cover.

use std::fmt::Write as _;
use std::time::Instant;

use crate::alloc;

macro_rules! layers {
    ($($variant:ident => $name:literal,)*) => {
        /// The span names: simulator layers by crate, plus the
        /// benchmark's own enclosing spans (`bench.*`).
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Layer { $($variant,)* }

        impl Layer {
            pub const ALL: &'static [Layer] = &[$(Layer::$variant,)*];

            pub const fn name(self) -> &'static str {
                match self { $(Layer::$variant => $name,)* }
            }
        }
    };
}

layers! {
    Workload => "bench.workload",
    AppSweep => "bench.app_sweep",
    Point => "bench.point",
    Cell => "bench.dram_cell",
    Batch => "bench.dram_batch",
    Generate => "apps.generate",
    Simulate => "core.simulate",
    NodeSim => "tasksim.node_sim",
    Burst => "tasksim.burst",
    ProfileKernel => "tasksim.profile_kernel",
    AnalyzeKernel => "tasksim.analyze_kernel",
    Fuse => "tasksim.fuse",
    Pipeline => "tasksim.pipeline",
    ScheduleRegion => "tasksim.schedule_region",
    Replay => "net.replay",
    NodePower => "power.node_power",
    SearchRun => "search.run",
    SearchEvaluate => "search.evaluate",
    MemPush => "mem.push",
    MemDrain256 => "mem.drain.depth256",
    MemDrain4096 => "mem.drain.depth4096",
    MemAccess => "mem.access",
}

/// Per-layer totals over every traced span of that layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct Agg {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    /// Allocations between open and close, children included.
    pub allocs: u64,
}

impl Agg {
    pub fn total_s(&self) -> f64 {
        self.total_ns as f64 * 1e-9
    }

    fn per_call(&self, total: f64) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            total / self.calls as f64
        }
    }

    pub fn ns_per_call(&self) -> f64 {
        self.per_call(self.total_ns as f64)
    }

    pub fn allocs_per_call(&self) -> f64 {
        self.per_call(self.allocs as f64)
    }
}

struct Open {
    layer: Layer,
    start_ns: u64,
    child_ns: u64,
    allocs_at_open: u64,
    kept: Option<usize>,
}

struct Kept {
    layer: Layer,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    op: u64,
}

/// Kept spans are capped so a long traced pass cannot grow the trace
/// file without bound; the aggregates always cover every span.
const KEEP_CAP: usize = 200_000;

pub struct Recorder {
    on: bool,
    keep: bool,
    origin: Instant,
    stack: Vec<Open>,
    agg: Vec<Agg>,
    kept: Vec<Kept>,
    op: u64,
}

impl Recorder {
    /// A recorder that records nothing until [`Recorder::start`].
    pub fn new() -> Recorder {
        Recorder {
            on: false,
            keep: true,
            origin: Instant::now(),
            stack: Vec::with_capacity(16),
            agg: vec![Agg::default(); Layer::ALL.len()],
            kept: Vec::with_capacity(1 << 16),
            op: 0,
        }
    }

    /// Record spans and count allocations from here on.
    pub fn start(&mut self) {
        self.on = true;
        alloc::set_counting(true);
    }

    /// Stop recording. Whole spans are kept only up to the first stop,
    /// which is the end of the first traced pass.
    pub fn stop(&mut self) {
        self.on = false;
        self.keep = false;
        alloc::set_counting(false);
    }

    /// The identifier shared by the spans of one operation.
    pub fn is_on(&self) -> bool {
        self.on
    }

    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, layer: Layer) {
        if !self.on {
            return;
        }
        let kept = if self.keep && self.kept.len() < KEEP_CAP {
            let parent = self.stack.iter().rev().find_map(|o| o.kept);
            self.kept.push(Kept {
                layer,
                start_ns: 0,
                end_ns: 0,
                parent,
                op: self.op,
            });
            Some(self.kept.len() - 1)
        } else {
            None
        };
        // Read the counter and the clock last, so the recorder's own
        // work above is charged to the parent and not to this span.
        let allocs_at_open = alloc::count();
        let start_ns = self.now_ns();
        self.stack.push(Open {
            layer,
            start_ns,
            child_ns: 0,
            allocs_at_open,
            kept,
        });
    }

    /// Close the innermost span, counting it as one call.
    pub fn exit(&mut self) {
        self.exit_calls(1);
    }

    /// Close the innermost span, which covered `calls` calls into the
    /// layer (a loop too fine to time call by call).
    pub fn exit_calls(&mut self, calls: u64) {
        if !self.on {
            return;
        }
        let end_ns = self.now_ns();
        let allocs = alloc::count();
        let open = self.stack.pop().expect("exit without a matching enter");
        let dur = end_ns - open.start_ns;
        let a = &mut self.agg[open.layer as usize];
        a.calls += calls;
        a.total_ns += dur;
        a.self_ns += dur.saturating_sub(open.child_ns);
        a.allocs += allocs - open.allocs_at_open;
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
        if let Some(i) = open.kept {
            self.kept[i].start_ns = open.start_ns;
            self.kept[i].end_ns = end_ns;
        }
    }

    pub fn agg(&self, layer: Layer) -> Agg {
        self.agg[layer as usize]
    }

    /// The kept spans as JSON: name, start, end, parent index, op id.
    pub fn to_json(&self, workload: &str) -> String {
        let mut s = String::with_capacity(self.kept.len() * 96 + 64);
        let _ = write!(s, "{{\"workload\":\"{workload}\",\"spans\":[");
        for (i, k) in self.kept.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "\n{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op\":{}}}",
                k.layer.name(),
                k.start_ns,
                k.end_ns,
                k.parent.map_or("null".to_string(), |p| p.to_string()),
                k.op
            );
        }
        s.push_str("\n]}\n");
        s
    }
}
