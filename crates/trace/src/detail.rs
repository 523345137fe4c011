//! Detailed (instruction-level) trace representation.
//!
//! The DynamoRIO-based tracer of the paper records, per instruction, the
//! opcode, program counter, registers and memory addresses, and decomposes
//! vector instructions into *marked scalar* instructions (§III, "Support
//! for vectorization"). We store the same information in loop-compressed
//! form: a [`Kernel`] is a loop body (one [`InstrTemplate`] per static
//! instruction) plus a trip count and memory-stream descriptors. The
//! dynamic stream is recovered by iterating the body `trip_count` times —
//! [`Kernel::dyn_instrs`] does exactly that.

/// Instruction operation classes, as recorded by the tracer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// Integer ALU operation (also covers address arithmetic).
    IntAlu,
    /// Integer multiply/divide (long latency, uses the ALU pool).
    IntMul,
    /// FP add/sub.
    FpAdd,
    /// FP multiply.
    FpMul,
    /// Fused multiply-add.
    FpFma,
    /// FP divide / sqrt (long latency, unpipelined).
    FpDiv,
    /// Memory load.
    Load,
    /// Memory store.
    Store,
    /// Branch (conditional or not).
    Branch,
    /// No-op / other (consumes an issue slot only).
    Other,
}

impl Op {
    /// True for ops executed by the floating-point unit pool.
    pub const fn is_fp(self) -> bool {
        matches!(self, Op::FpAdd | Op::FpMul | Op::FpFma | Op::FpDiv)
    }

    /// True for memory operations.
    pub const fn is_mem(self) -> bool {
        matches!(self, Op::Load | Op::Store)
    }

    /// FLOPs contributed by one scalar (64-bit lane) instance.
    pub const fn flops(self) -> u32 {
        match self {
            Op::FpAdd | Op::FpMul | Op::FpDiv => 1,
            Op::FpFma => 2,
            _ => 0,
        }
    }
}

/// Data dependency of an instruction template on earlier instructions.
///
/// The tracer records architectural registers; for simulation what matters
/// is the *dataflow distance*. We encode it relative to the loop body.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DepKind {
    /// No register dependency (operands long since ready).
    None,
    /// Depends on the instruction `k` positions earlier **within the same
    /// iteration** (k ≥ 1; saturates at the start of the body).
    Prev(u8),
    /// Loop-carried: depends on the same template's result from the
    /// previous iteration (serialises iterations, e.g. accumulators).
    Carried,
}

/// Memory access pattern of one stream within a kernel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AccessPattern {
    /// Sequential walk with a fixed byte stride (unit-stride when
    /// `stride == element size`).
    Sequential {
        /// Byte stride between consecutive accesses.
        stride: u32,
    },
    /// Strided walk (e.g. column-major access to a row-major array).
    Strided {
        /// Byte stride between consecutive accesses.
        stride: u32,
    },
    /// Uniform-random access within the stream footprint (models
    /// irregular gather/scatter such as Specfem3D's unstructured meshes).
    Random,
    /// Repeated access to a tiny hot set (stack/locals; near-perfect L1
    /// locality).
    Local,
}

/// One memory-access stream of a kernel: a region of the address space
/// walked with a given pattern. Addresses wrap within `footprint` bytes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamDesc {
    /// Base virtual address of the stream's region.
    pub base: u64,
    /// Footprint in bytes (working-set contribution of this stream).
    pub footprint: u64,
    /// Access pattern.
    pub pattern: AccessPattern,
}

/// One static instruction of a kernel's loop body.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InstrTemplate {
    /// Operation class.
    pub op: Op,
    /// Static program counter (unique per template within the trace) —
    /// the fusion key for the vectorisation model.
    pub static_pc: u32,
    /// Dataflow dependency.
    pub dep: DepKind,
    /// Vector-decomposition marker: `true` when this scalar instruction
    /// came from decomposing a SIMD instruction, i.e. it is eligible for
    /// re-fusion at simulation time (§III).
    pub vector_marked: bool,
    /// Index into [`Kernel::streams`] for memory operations.
    pub stream: Option<u8>,
    /// Access size in bytes for memory operations (per scalar lane).
    pub access_bytes: u8,
}

impl InstrTemplate {
    /// Non-memory instruction helper.
    pub fn compute(op: Op, static_pc: u32, dep: DepKind, vector_marked: bool) -> Self {
        InstrTemplate {
            op,
            static_pc,
            dep,
            vector_marked,
            stream: None,
            access_bytes: 0,
        }
    }

    /// Memory instruction helper (8-byte scalar lanes).
    pub fn mem(op: Op, static_pc: u32, stream: u8, vector_marked: bool) -> Self {
        InstrTemplate {
            op,
            static_pc,
            dep: DepKind::None,
            vector_marked,
            stream: Some(stream),
            access_bytes: 8,
        }
    }
}

/// Identifier of a kernel within a [`DetailedTrace`].
pub type KernelId = u32;

/// A loop-compressed instruction-trace fragment: `body` executed
/// `trip_count` times back to back.
#[derive(Debug, Clone, PartialEq)]
pub struct Kernel {
    /// Identifier referenced by [`KernelInvocation`]s.
    pub id: KernelId,
    /// Human-readable name (e.g. `"riemann_solve"`).
    pub name: String,
    /// One loop iteration's instructions, in program order.
    pub body: Vec<InstrTemplate>,
    /// Number of consecutive iterations executed per invocation.
    pub trip_count: u32,
    /// Longest run of *consecutive* dynamic instances of the same static
    /// instruction that the tracer observes (uninterrupted basic-block
    /// repeats). This gates the §III wide-vector fusion model: simulating
    /// a SIMD width of `64 × F` bits requires fusing `F` marked scalar
    /// instances, which is only possible when `fusible_run ≥ F`. Vector
    /// instructions traced at 128 bits always decompose into runs of at
    /// least 2, so `fusible_run ≥ 2` for marked code; short-trip loops
    /// like LULESH's stay at 2 and gain nothing from wider units.
    pub fusible_run: u32,
    /// Memory streams touched by the body.
    pub streams: Vec<StreamDesc>,
}

impl Kernel {
    /// Dynamic instruction count of one invocation.
    pub fn dyn_len(&self) -> u64 {
        self.body.len() as u64 * self.trip_count as u64
    }

    /// Total bytes touched per invocation (upper bound, before caching).
    pub fn bytes_touched(&self) -> u64 {
        self.body
            .iter()
            .filter(|t| t.op.is_mem())
            .map(|t| t.access_bytes as u64)
            .sum::<u64>()
            * self.trip_count as u64
    }

    /// FP operations per invocation (scalar lanes).
    pub fn flops(&self) -> u64 {
        self.body.iter().map(|t| t.op.flops() as u64).sum::<u64>() * self.trip_count as u64
    }

    /// Expand the dynamic instruction stream (for tests and small-scale
    /// validation; simulators iterate templates directly for speed).
    pub fn dyn_instrs(&self) -> impl Iterator<Item = DynInstr> + '_ {
        (0..self.trip_count).flat_map(move |iter| {
            self.body.iter().enumerate().map(move |(idx, t)| DynInstr {
                template: *t,
                iteration: iter,
                index_in_body: idx as u32,
            })
        })
    }
}

/// One dynamic instruction (an expanded template instance).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DynInstr {
    /// The static template.
    pub template: InstrTemplate,
    /// Which loop iteration this instance belongs to.
    pub iteration: u32,
    /// Position within the body.
    pub index_in_body: u32,
}

/// An invocation of a kernel from a work item (task / loop chunk).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelInvocation {
    /// Which kernel.
    pub kernel: KernelId,
    /// Trip-count override (chunks of a parallel loop run a slice of the
    /// full iteration space). `None` uses the kernel's own trip count.
    pub trips: Option<u32>,
}

/// The detailed trace of one sampled region: the kernel dictionary.
/// Work items in the burst trace reference kernels by id.
#[derive(Debug, Clone, PartialEq)]
pub struct DetailedTrace {
    /// Application name.
    pub app: String,
    /// Sampled region id.
    pub region_id: u32,
    /// Kernel dictionary.
    pub kernels: Vec<Kernel>,
}

impl DetailedTrace {
    /// Look up a kernel by id.
    pub fn kernel(&self, id: KernelId) -> Option<&Kernel> {
        self.kernels.iter().find(|k| k.id == id)
    }

    /// Total dynamic instructions across all kernels (one invocation each).
    pub fn total_dyn_instrs(&self) -> u64 {
        self.kernels.iter().map(|k| k.dyn_len()).sum()
    }
}

// The trace-file encodings (`musa_trace::io`), fields in declaration
// order.
musa_obs::json_enum!(Op {
    IntAlu,
    IntMul,
    FpAdd,
    FpMul,
    FpFma,
    FpDiv,
    Load,
    Store,
    Branch,
    Other
});
musa_obs::json_enum!(DepKind { None, Prev(k), Carried });
musa_obs::json_enum!(AccessPattern {
    Sequential { stride },
    Strided { stride },
    Random,
    Local
});
musa_obs::json_struct!(StreamDesc {
    base,
    footprint,
    pattern
});
musa_obs::json_struct!(InstrTemplate {
    op,
    static_pc,
    dep,
    vector_marked,
    stream,
    access_bytes
});
musa_obs::json_struct!(Kernel {
    id,
    name,
    body,
    trip_count,
    fusible_run,
    streams
});
musa_obs::json_struct!(KernelInvocation { kernel, trips });
musa_obs::json_struct!(DetailedTrace {
    app,
    region_id,
    kernels
});

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_kernel() -> Kernel {
        Kernel {
            id: 0,
            name: "saxpy".into(),
            body: vec![
                InstrTemplate::mem(Op::Load, 100, 0, true),
                InstrTemplate::mem(Op::Load, 101, 1, true),
                InstrTemplate::compute(Op::FpFma, 102, DepKind::Prev(1), true),
                InstrTemplate::mem(Op::Store, 103, 1, true),
                InstrTemplate::compute(Op::IntAlu, 104, DepKind::None, false),
                InstrTemplate::compute(Op::Branch, 105, DepKind::None, false),
            ],
            trip_count: 128,
            fusible_run: 16,
            streams: vec![
                StreamDesc {
                    base: 0x1000_0000,
                    footprint: 1 << 20,
                    pattern: AccessPattern::Sequential { stride: 8 },
                },
                StreamDesc {
                    base: 0x2000_0000,
                    footprint: 1 << 20,
                    pattern: AccessPattern::Sequential { stride: 8 },
                },
            ],
        }
    }

    #[test]
    fn dyn_len_counts_body_times_trips() {
        let k = sample_kernel();
        assert_eq!(k.dyn_len(), 6 * 128);
        assert_eq!(k.dyn_instrs().count() as u64, k.dyn_len());
    }

    #[test]
    fn bytes_and_flops() {
        let k = sample_kernel();
        // 3 mem ops × 8 B × 128 trips.
        assert_eq!(k.bytes_touched(), 3 * 8 * 128);
        // FMA counts 2 flops.
        assert_eq!(k.flops(), 2 * 128);
    }

    #[test]
    fn dyn_instrs_preserve_program_order() {
        let k = sample_kernel();
        let v: Vec<_> = k.dyn_instrs().collect();
        assert_eq!(v[0].template.static_pc, 100);
        assert_eq!(v[5].template.static_pc, 105);
        assert_eq!(v[6].template.static_pc, 100);
        assert_eq!(v[6].iteration, 1);
    }

    #[test]
    fn op_classes() {
        assert!(Op::FpFma.is_fp());
        assert!(!Op::Load.is_fp());
        assert!(Op::Store.is_mem());
        assert_eq!(Op::FpFma.flops(), 2);
        assert_eq!(Op::IntAlu.flops(), 0);
    }

    #[test]
    fn detailed_trace_lookup() {
        let t = DetailedTrace {
            app: "x".into(),
            region_id: 1,
            kernels: vec![sample_kernel()],
        };
        assert!(t.kernel(0).is_some());
        assert!(t.kernel(1).is_none());
        assert_eq!(t.total_dyn_instrs(), 6 * 128);
    }

    #[test]
    fn json_roundtrip() {
        let t = DetailedTrace {
            app: "x".into(),
            region_id: 1,
            kernels: vec![sample_kernel()],
        };
        let s = musa_obs::json::to_string(&t);
        let back: DetailedTrace = musa_obs::json::from_str(&s).unwrap();
        assert_eq!(t, back);
        // Unit variants are bare strings, data variants externally
        // tagged — the shape a serde-derived build wrote.
        assert!(s.contains(r#""dep":"None""#), "{s}");
        assert!(
            s.contains(r#""pattern":{"Sequential":{"stride":8}}"#),
            "{s}"
        );
        let prev = musa_obs::json::to_string(&DepKind::Prev(3));
        assert_eq!(prev, r#"{"Prev":3}"#);
        assert_eq!(
            musa_obs::json::from_str::<DepKind>(&prev).unwrap(),
            DepKind::Prev(3)
        );
    }
}
