//! # musa-fault
//!
//! Deterministic, seeded fault injection for the MUSA pipeline.
//!
//! A campaign that takes hours must survive crashed simulations, torn
//! writes and transient I/O errors — and that survival must be
//! **testable on demand**, not just argued. This crate places named
//! *failpoints* at the pipeline's hazardous edges (simulating a point,
//! flushing a batch, replacing a file) and fires configured faults at
//! them with per-site determinism:
//!
//! ```text
//! MUSA_FAULTS='seed=7,store.flush=io@0.02,sim.point=panic@0.001' dse --resume
//! dse --faults 'sim.point=delay:50ms@0.01' --max-retries 4
//! ```
//!
//! ## Spec grammar
//!
//! A spec is a comma-separated list of entries:
//!
//! ```text
//! spec    := entry (',' entry)*
//! entry   := 'seed=' u64 | point '=' action '@' prob
//! point   := 'sim.point' | 'store.flush' | 'store.rewrite' | 'export.write'
//!          | 'prof.append' | 'doctor.scan' | 'doctor.repair'
//! action  := 'io' | 'panic' | 'delay:' count unit
//! unit    := 'us' | 'ms' | 's'
//! prob    := decimal in (0, 1]
//! ```
//!
//! ## Determinism
//!
//! Whether a fault fires at a site is a pure function of
//! `(seed, point name, site key)` — the key is stable content (a point
//! fingerprint, a flush sequence number, a path hash), **never** a
//! global hit counter — so runs are reproducible whichever of the
//! fill's threads reaches the site first, and a failing chaos run can be replayed
//! exactly by its seed.
//!
//! ## Compile-out
//!
//! Like `musa-obs`, the runtime is feature-gated: built without
//! `runtime` (`--no-default-features`), [`COMPILED`] is `false`,
//! [`fire`] is a constant `None` and every failpoint disappears at the
//! call site. Spec parsing stays available either way so the strict
//! CLI keeps rejecting bad `--faults` values with exit 2.
//!
//! ## File integrity
//!
//! [`integrity`] is the durability discipline every durable family
//! shares: the CRC-32 line seal, crash-atomic file replacement and the
//! line-log rule. Its `atomic_write` fires a failpoint, so it lives
//! here, below the profile recorder, the store and the doctor.

use std::time::Duration;

pub mod integrity;

/// `true` when fault injection was compiled in (the `runtime` feature).
pub const COMPILED: bool = cfg!(feature = "runtime");

/// Failpoints known to the pipeline; [`FaultPlan::parse`] rejects
/// anything else so a typo'd spec fails fast instead of silently
/// injecting nothing.
pub const KNOWN_POINTS: [&str; 7] = [
    "sim.point",
    "store.flush",
    "store.rewrite",
    "export.write",
    "prof.append",
    "doctor.scan",
    "doctor.repair",
];

/// Seed used when a spec does not carry a `seed=` entry.
pub const DEFAULT_SEED: u64 = 0x6d75_7361; // "musa"

/// What an injected fault does at its failpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Return an injected `std::io::Error` (I/O failpoints) or panic
    /// (non-I/O failpoints).
    Io,
    /// Panic with an `"injected panic"` payload.
    Panic,
    /// Sleep for the given duration, then proceed normally.
    Delay(Duration),
}

impl FaultAction {
    fn parse(s: &str) -> Result<FaultAction, String> {
        match s {
            "io" => Ok(FaultAction::Io),
            "panic" => Ok(FaultAction::Panic),
            _ => match s.strip_prefix("delay:") {
                Some(dur) => Ok(FaultAction::Delay(parse_duration(dur)?)),
                None => Err(format!(
                    "unknown action {s:?} (expected io, panic or delay:<n><us|ms|s>)"
                )),
            },
        }
    }
}

/// Parse a `<n><us|ms|s>` duration (the grammar's `delay:` argument).
fn parse_duration(s: &str) -> Result<Duration, String> {
    let (digits, unit): (&str, fn(u64) -> Duration) = if let Some(d) = s.strip_suffix("us") {
        (d, Duration::from_micros)
    } else if let Some(d) = s.strip_suffix("ms") {
        (d, Duration::from_millis)
    } else if let Some(d) = s.strip_suffix('s') {
        (d, Duration::from_secs)
    } else {
        return Err(format!("bad delay {s:?} (expected <n><us|ms|s>)"));
    };
    let n: u64 = digits
        .parse()
        .map_err(|_| format!("bad delay {s:?} (expected <n><us|ms|s>)"))?;
    Ok(unit(n))
}

/// One configured failpoint: fire `action` at `point` with
/// probability `probability`.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPoint {
    /// Failpoint name (one of [`KNOWN_POINTS`]).
    pub point: String,
    /// What to do when the fault fires.
    pub action: FaultAction,
    /// Firing probability in `(0, 1]`.
    pub probability: f64,
}

/// A full parsed fault specification: the seed plus every configured
/// point.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Seed mixed into every firing decision.
    pub seed: u64,
    /// Configured failpoints.
    pub points: Vec<FaultPoint>,
}

impl FaultPlan {
    /// Parse a spec string (see the crate docs for the grammar).
    /// Errors name the offending entry so the CLI can print them
    /// verbatim before exiting 2.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan {
            seed: DEFAULT_SEED,
            points: Vec::new(),
        };
        for entry in spec.split(',') {
            let entry = entry.trim();
            if entry.is_empty() {
                continue;
            }
            let (lhs, rhs) = entry
                .split_once('=')
                .ok_or_else(|| format!("bad fault entry {entry:?} (expected point=action@prob)"))?;
            if lhs == "seed" {
                plan.seed = rhs
                    .parse()
                    .map_err(|_| format!("bad seed {rhs:?} (expected an unsigned integer)"))?;
                continue;
            }
            if !KNOWN_POINTS.contains(&lhs) {
                return Err(format!(
                    "unknown failpoint {lhs:?} (known: {})",
                    KNOWN_POINTS.join(", ")
                ));
            }
            let (action, prob) = rhs
                .split_once('@')
                .ok_or_else(|| format!("bad fault entry {entry:?} (expected point=action@prob)"))?;
            let probability: f64 = prob
                .parse()
                .map_err(|_| format!("bad probability {prob:?} (expected a decimal)"))?;
            if !(probability > 0.0 && probability <= 1.0) {
                return Err(format!("probability {prob} out of range (0, 1]"));
            }
            plan.points.push(FaultPoint {
                point: lhs.to_string(),
                action: FaultAction::parse(action)?,
                probability,
            });
        }
        if plan.points.is_empty() {
            return Err("fault spec configures no failpoints".into());
        }
        Ok(plan)
    }

    /// The action to take at `(point, key)` under this plan, if any —
    /// a pure function, independent of call order and thread
    /// interleaving.
    pub fn decide(&self, point: &str, key: u64) -> Option<FaultAction> {
        for p in &self.points {
            if p.point != point {
                continue;
            }
            let h = decision_hash(self.seed, point, key);
            // Top 53 bits → uniform in [0, 1).
            let u = (h >> 11) as f64 / (1u64 << 53) as f64;
            if u < p.probability {
                return Some(p.action);
            }
        }
        None
    }
}

fn decision_hash(seed: u64, point: &str, key: u64) -> u64 {
    key_of(&[&seed.to_le_bytes(), point.as_bytes(), &key.to_le_bytes()])
}

/// Stable site key from content parts (FNV-1a over the concatenation):
/// the one FNV-1a loop of the tree.
pub fn key_of(parts: &[&[u8]]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64; // FNV-1a offset basis
    for part in parts {
        for &b in *part {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// 64-bit FNV-1a of `bytes`: the one-part [`key_of`]. The store's
/// `PointKey` and every other content fingerprint hash with it.
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    key_of(&[bytes])
}

/// Exponential backoff with deterministic jitter for retry loops.
///
/// Doubles from 2 ms up to a 64 ms ceiling, then adds a jitter drawn
/// from the same FNV hash as failpoint decisions, keyed by
/// `(salt, attempt)`. Two retriers with different salts (e.g. two
/// writers hashing their own write paths) land on different schedules
/// instead of hammering the disk in lockstep — yet each schedule is a
/// pure function of its inputs, so chaos runs stay replayable.
pub fn jittered_backoff(attempt: u32, salt: u64) -> Duration {
    let base_ms = 2u64 << attempt.min(5) as u64;
    // Jitter uniform-ish in [0, base/2]; full-jitter would let the
    // delay collapse to ~0 and defeat the exponential shape.
    let jitter_ms = decision_hash(salt, "backoff", u64::from(attempt)) % (base_ms / 2 + 1);
    Duration::from_millis(base_ms + jitter_ms)
}

#[cfg(feature = "runtime")]
mod active {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, Mutex};

    use super::FaultPlan;

    static ARMED: AtomicBool = AtomicBool::new(false);
    static PLAN: Mutex<Option<Arc<FaultPlan>>> = Mutex::new(None);

    pub fn set_plan(plan: Option<FaultPlan>) {
        let mut slot = PLAN.lock().unwrap_or_else(|e| e.into_inner());
        ARMED.store(plan.is_some(), Ordering::Release);
        *slot = plan.map(Arc::new);
    }

    pub fn active() -> bool {
        ARMED.load(Ordering::Acquire)
    }

    pub fn current() -> Option<Arc<FaultPlan>> {
        if !active() {
            return None;
        }
        PLAN.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }
}

/// Install (or clear, with `None`) the process-wide fault plan.
/// Compiled out without the `runtime` feature.
pub fn set_plan(plan: Option<FaultPlan>) {
    #[cfg(feature = "runtime")]
    active::set_plan(plan);
    #[cfg(not(feature = "runtime"))]
    let _ = plan;
}

/// `true` when a fault plan is installed (constant `false` when
/// compiled out, so guarded key computations vanish too).
pub fn active() -> bool {
    #[cfg(feature = "runtime")]
    return active::active();
    #[cfg(not(feature = "runtime"))]
    false
}

/// Read `MUSA_FAULTS` (spec) and `MUSA_FAULT_SEED` (seed override) and
/// install the resulting plan. A set-but-invalid spec is an error —
/// silently running a chaos campaign *without* its faults would be
/// worse than refusing to start.
pub fn init_from_env() -> Result<(), String> {
    let Ok(spec) = std::env::var("MUSA_FAULTS") else {
        return Ok(());
    };
    if spec.trim().is_empty() {
        return Ok(());
    }
    let mut plan = FaultPlan::parse(&spec).map_err(|e| format!("bad MUSA_FAULTS: {e}"))?;
    if let Ok(seed) = std::env::var("MUSA_FAULT_SEED") {
        plan.seed = seed
            .parse()
            .map_err(|_| format!("bad MUSA_FAULT_SEED {seed:?} (expected an unsigned integer)"))?;
    }
    set_plan(Some(plan));
    Ok(())
}

/// The fault to inject at `(point, key)`, if one fires. Counts
/// `fault.injected` when it does.
pub fn fire(point: &str, key: u64) -> Option<FaultAction> {
    #[cfg(feature = "runtime")]
    {
        let action = active::current()?.decide(point, key)?;
        musa_obs::counter_add("fault.injected", 1);
        musa_obs::debug(
            "musa-fault",
            "fault injected",
            &[("point", point.into()), ("key", key.into())],
        );
        Some(action)
    }
    #[cfg(not(feature = "runtime"))]
    {
        let _ = (point, key);
        None
    }
}

/// I/O failpoint: returns an injected error (`Io`), panics (`Panic`),
/// or sleeps then succeeds (`Delay`). No fault → `Ok(())`.
pub fn fail_io(point: &str, key: u64) -> std::io::Result<()> {
    match fire(point, key) {
        None => Ok(()),
        Some(FaultAction::Io) => Err(std::io::Error::other(format!(
            "injected fault at {point} (key {key:#x})"
        ))),
        Some(FaultAction::Panic) => panic!("injected panic at {point} (key {key:#x})"),
        Some(FaultAction::Delay(d)) => {
            std::thread::sleep(d);
            Ok(())
        }
    }
}

/// Non-I/O failpoint: `Panic` and `Io` both panic (there is no error
/// channel to return through), `Delay` sleeps.
pub fn failpoint(point: &str, key: u64) {
    match fire(point, key) {
        None => {}
        Some(FaultAction::Delay(d)) => std::thread::sleep(d),
        Some(FaultAction::Io) | Some(FaultAction::Panic) => {
            panic!("injected panic at {point} (key {key:#x})")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The plan and the env are process-global; tests touching either
    /// serialise on this lock (poisoning tolerated: a failed test must
    /// not cascade).
    static GLOBAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn global_lock() -> std::sync::MutexGuard<'static, ()> {
        GLOBAL.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn grammar_accepts_the_documented_examples() {
        let plan = FaultPlan::parse("seed=7,store.flush=io@0.02,sim.point=panic@0.001").unwrap();
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.points.len(), 2);
        assert_eq!(plan.points[0].point, "store.flush");
        assert_eq!(plan.points[0].action, FaultAction::Io);
        assert!((plan.points[0].probability - 0.02).abs() < 1e-12);

        let plan = FaultPlan::parse("sim.point=delay:50ms@0.01").unwrap();
        assert_eq!(plan.seed, DEFAULT_SEED);
        assert_eq!(
            plan.points[0].action,
            FaultAction::Delay(Duration::from_millis(50))
        );
        assert_eq!(
            FaultPlan::parse("export.write=delay:2s@1.0")
                .unwrap()
                .points[0]
                .action,
            FaultAction::Delay(Duration::from_secs(2))
        );
        assert_eq!(
            FaultPlan::parse("store.rewrite=delay:150us@0.5")
                .unwrap()
                .points[0]
                .action,
            FaultAction::Delay(Duration::from_micros(150))
        );
    }

    #[test]
    fn grammar_rejects_malformed_specs() {
        for bad in [
            "",
            "   ",
            "nonsense",
            "store.flush",
            "store.flush=io",          // missing probability
            "store.flush=io@0",        // prob must be > 0
            "store.flush=io@1.5",      // prob must be <= 1
            "store.flush=io@NaN",      // NaN fails the range check
            "store.flush=boom@0.5",    // unknown action
            "store.flush=delay:x@0.5", // bad duration
            "store.flush=delay:5@0.5", // missing unit
            "nope.point=io@0.5",       // unknown failpoint
            "cache.write=io@1.0",      // no longer a site
            "seed=banana,store.flush=io@0.5",
            "seed=1", // seed alone configures nothing
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn decisions_are_deterministic_and_seed_sensitive() {
        let plan = FaultPlan::parse("seed=1,sim.point=panic@0.5").unwrap();
        let first: Vec<bool> = (0..256)
            .map(|k| plan.decide("sim.point", k).is_some())
            .collect();
        let again: Vec<bool> = (0..256)
            .map(|k| plan.decide("sim.point", k).is_some())
            .collect();
        assert_eq!(first, again, "same plan, same keys, same decisions");
        let fired = first.iter().filter(|&&f| f).count();
        assert!(
            (64..192).contains(&fired),
            "p=0.5 over 256 keys fired {fired} times"
        );

        let reseeded = FaultPlan::parse("seed=2,sim.point=panic@0.5").unwrap();
        let other: Vec<bool> = (0..256)
            .map(|k| reseeded.decide("sim.point", k).is_some())
            .collect();
        assert_ne!(first, other, "a different seed must reshuffle decisions");

        // Unconfigured points never fire; p=1 always fires.
        assert_eq!(plan.decide("store.flush", 3), None);
        let always = FaultPlan::parse("store.flush=io@1.0").unwrap();
        assert!((0..64).all(|k| always.decide("store.flush", k).is_some()));
    }

    #[test]
    fn plan_installation_gates_fire() {
        let _g = global_lock();
        set_plan(None);
        assert!(!active());
        assert_eq!(fire("sim.point", 1), None);
        set_plan(Some(FaultPlan::parse("sim.point=panic@1.0").unwrap()));
        if COMPILED {
            assert!(active());
            assert_eq!(fire("sim.point", 1), Some(FaultAction::Panic));
        } else {
            assert!(!active());
            assert_eq!(fire("sim.point", 1), None);
        }
        set_plan(None);
        assert!(!active());
    }

    #[test]
    fn fail_io_maps_actions() {
        let _g = global_lock();
        let plan = FaultPlan::parse("store.flush=io@1.0").unwrap();
        set_plan(Some(plan));
        if COMPILED {
            let err = fail_io("store.flush", 9).unwrap_err();
            assert!(err.to_string().contains("injected fault at store.flush"));
        } else {
            assert!(fail_io("store.flush", 9).is_ok());
        }
        set_plan(Some(FaultPlan::parse("store.flush=delay:1us@1.0").unwrap()));
        assert!(fail_io("store.flush", 9).is_ok(), "delay faults succeed");
        set_plan(None);
    }

    #[test]
    fn grammar_accepts_doctor_failpoints() {
        let plan = FaultPlan::parse("doctor.scan=io@0.5,doctor.repair=io@1.0").unwrap();
        assert_eq!(plan.points.len(), 2);
        assert_eq!(plan.points[0].point, "doctor.scan");
        assert_eq!(plan.points[1].point, "doctor.repair");
        assert!(FaultPlan::parse("doctor.bogus=io@0.5").is_err());
    }

    /// The backoff schedule is part of the crash-recovery contract:
    /// concurrent writers must not retry in lockstep, and a chaos run
    /// must replay exactly. Pin the sequence so a refactor that
    /// silently changes it fails loudly here.
    #[test]
    fn jittered_backoff_is_pinned_and_salt_sensitive() {
        let at = |salt: u64| -> Vec<u64> {
            (0..8)
                .map(|a| jittered_backoff(a, salt).as_millis() as u64)
                .collect()
        };
        assert_eq!(at(7), [2, 6, 12, 19, 44, 83, 71, 75]);
        assert_eq!(at(99), [2, 4, 9, 20, 33, 64, 68, 72]);
        assert_eq!(at(7), at(7), "pure function of (attempt, salt)");
        for (attempt, ms) in at(7).into_iter().enumerate() {
            let base = 2u64 << attempt.min(5);
            assert!(
                (base..=base + base / 2).contains(&ms),
                "attempt {attempt}: {ms}ms outside [{base}, {}]",
                base + base / 2
            );
        }
    }

    /// FNV-1a's published vectors: `PointKey`s and every fault decision
    /// rest on these exact bits.
    #[test]
    fn fnv1a_64_matches_the_published_vectors() {
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(
            decision_hash(7, "sim.point", 9),
            fnv1a_64(&[&7u64.to_le_bytes()[..], b"sim.point", &9u64.to_le_bytes()].concat())
        );
    }

    #[test]
    fn key_of_concatenates() {
        assert_eq!(key_of(&[b"ab"]), key_of(&[b"a", b"b"]));
        assert_ne!(key_of(&[b"ab"]), key_of(&[b"ba"]));
        assert_ne!(key_of(&[]), key_of(&[b"x"]));
    }

    #[test]
    fn env_init_validates() {
        let _g = global_lock();
        std::env::remove_var("MUSA_FAULTS");
        assert!(init_from_env().is_ok());
        std::env::set_var("MUSA_FAULTS", "store.flush=bogus@0.5");
        assert!(init_from_env().is_err());
        std::env::set_var("MUSA_FAULTS", "store.flush=io@0.25");
        std::env::set_var("MUSA_FAULT_SEED", "99");
        assert!(init_from_env().is_ok());
        std::env::remove_var("MUSA_FAULTS");
        std::env::remove_var("MUSA_FAULT_SEED");
        set_plan(None);
    }
}
