//! The profile record schema and its sealed JSONL serialisation.
//!
//! One [`PointProfile`] is written per simulated point — including
//! poisoned ones, which is exactly when the timing breakdown of the
//! attempt matters most. Serialisation uses the dependency-free
//! `musa_obs::json` writer (fixed key order, byte-deterministic) and
//! the same sealing discipline as store rows: the line is the
//! canonical JSON with a trailing `"crc"` field holding the CRC-32 of
//! the canonical bytes, verified before a record is trusted on read.

use std::collections::BTreeMap;

use musa_fault::integrity::{crc32, seal_line, unseal_line};
use musa_obs::json::{JsonObj, JsonValue};

/// Version of the profile record schema. Bump on shape changes;
/// records of other versions are skipped (counted, never fatal) on
/// read — profiles are telemetry, not campaign data.
pub const PROF_SCHEMA: u32 = 1;

/// Name of the merged flight-recorder file inside a store directory.
///
/// The campaign row loader must never parse this as rows; the store
/// excludes it from its `*.jsonl` glob exactly like the quarantine
/// file.
pub const PROFILES_FILE: &str = "profiles.jsonl";

/// One per-point flight-recorder record.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PointProfile {
    /// [`PROF_SCHEMA`] at write time.
    pub schema: u32,
    /// Hex [`musa_store` PointKey](../musa_store/index.html) of the
    /// point — the dedup fingerprint when merging across processes.
    pub key: String,
    /// Application label.
    pub app: String,
    /// Node-configuration label.
    pub config: String,
    /// Who simulated it: `"fill"`. (Records of an older multi-process
    /// fill carry `"l####-a#"`, its lease and attempt.)
    pub worker: String,
    /// OS process id of the writer.
    pub pid: u32,
    /// Stable per-process thread tag (one per thread that simulates
    /// points).
    pub tid: u32,
    /// Wall-clock start of the point, µs since the UNIX epoch. Used
    /// only for timeline ordering — never for results.
    pub start_us: u64,
    /// Total wall time of the point's simulation, ns.
    pub wall_ns: u64,
    /// Whether the simulation panicked (point poisoned, no row).
    pub poisoned: bool,
    /// Attempt number of the lease the point ran under (always 0 now;
    /// an older multi-process fill counted re-granted leases here).
    pub retries: u32,
    /// Peak resident set size of the writing process at record time,
    /// kB (`VmHWM`; 0 where unavailable).
    pub peak_rss_kb: u64,
    /// Per-phase wall time, ns, keyed by `musa_obs::phase` name.
    /// Spans nest, so `detailed-sim` includes its `burst` and `dram`
    /// children. Trace generation is amortised per app and attributed
    /// to the first point simulated after it.
    pub phases: BTreeMap<String, u64>,
}

impl PointProfile {
    /// The record's canonical JSON (fixed key order, no `crc`).
    pub fn canonical_json(&self) -> String {
        let mut phases = JsonObj::new();
        for (k, v) in &self.phases {
            phases = phases.field_u64(k, *v);
        }
        JsonObj::new()
            .field_u64("schema", u64::from(self.schema))
            .field_str("key", &self.key)
            .field_str("app", &self.app)
            .field_str("config", &self.config)
            .field_str("worker", &self.worker)
            .field_u64("pid", u64::from(self.pid))
            .field_u64("tid", u64::from(self.tid))
            .field_u64("start_us", self.start_us)
            .field_u64("wall_ns", self.wall_ns)
            .field_bool("poisoned", self.poisoned)
            .field_u64("retries", u64::from(self.retries))
            .field_u64("peak_rss_kb", self.peak_rss_kb)
            .field_raw("phases", &phases.finish())
            .finish()
    }

    /// The sealed line written to disk: canonical JSON with a trailing
    /// `"crc"` field of the canonical bytes (no newline).
    pub fn to_line(&self) -> String {
        seal_line(&self.canonical_json())
    }

    /// Parse one sealed line back. `None` for anything untrustworthy:
    /// torn JSON, a checksum mismatch, a missing field or a foreign
    /// schema version. Readers count, never crash — a profile line is
    /// telemetry.
    pub fn parse(line: &str) -> Option<PointProfile> {
        let (canonical, crc) = unseal_line(line)?;
        if crc32(canonical.as_bytes()) != crc {
            return None;
        }
        let v = JsonValue::parse(line.trim_end()).ok()?;
        let schema = v.get("schema").and_then(JsonValue::as_u64)? as u32;
        if schema != PROF_SCHEMA {
            return None;
        }
        let mut phases = BTreeMap::new();
        for (k, val) in v.get("phases").and_then(JsonValue::as_obj)? {
            phases.insert(k.clone(), val.as_u64()?);
        }
        Some(PointProfile {
            schema,
            key: v.get("key").and_then(JsonValue::as_str)?.to_string(),
            app: v.get("app").and_then(JsonValue::as_str)?.to_string(),
            config: v.get("config").and_then(JsonValue::as_str)?.to_string(),
            worker: v.get("worker").and_then(JsonValue::as_str)?.to_string(),
            pid: v.get("pid").and_then(JsonValue::as_u64)? as u32,
            tid: v.get("tid").and_then(JsonValue::as_u64).unwrap_or(0) as u32,
            start_us: v.get("start_us").and_then(JsonValue::as_u64)?,
            wall_ns: v.get("wall_ns").and_then(JsonValue::as_u64)?,
            poisoned: matches!(v.get("poisoned"), Some(JsonValue::Bool(true))),
            retries: v.get("retries").and_then(JsonValue::as_u64).unwrap_or(0) as u32,
            peak_rss_kb: v
                .get("peak_rss_kb")
                .and_then(JsonValue::as_u64)
                .unwrap_or(0),
            phases,
        })
    }

    /// One phase's wall time, ns (0 when the phase never ran).
    pub fn phase_ns(&self, phase: &str) -> u64 {
        self.phases.get(phase).copied().unwrap_or(0)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Test fixture shared by this crate's unit tests.
    pub(crate) fn sample(key: &str, app: &str, config: &str, wall_ns: u64) -> PointProfile {
        let mut phases = BTreeMap::new();
        phases.insert("detailed-sim".to_string(), wall_ns / 2);
        phases.insert("net-replay".to_string(), wall_ns / 4);
        PointProfile {
            schema: PROF_SCHEMA,
            key: key.to_string(),
            app: app.to_string(),
            config: config.to_string(),
            worker: "fill".to_string(),
            pid: 4242,
            tid: 1,
            start_us: 1_700_000_000_000_000,
            wall_ns,
            poisoned: false,
            retries: 0,
            peak_rss_kb: 10_240,
            phases,
        }
    }

    #[test]
    fn line_roundtrip_is_lossless() {
        let p = sample("00aa11bb22cc33dd", "hydro", "c64", 1_500_000);
        let line = p.to_line();
        assert!(line.contains("\"crc\":"));
        assert_eq!(PointProfile::parse(&line), Some(p));
    }

    #[test]
    fn tampered_or_torn_lines_are_rejected() {
        let p = sample("00aa11bb22cc33dd", "hydro", "c64", 1_500_000);
        let line = p.to_line();
        // Flip one digit of wall_ns.
        let bad = line.replacen("1500000", "1500001", 1);
        assert!(PointProfile::parse(&bad).is_none());
        // Torn tails at every byte boundary parse as None, never panic.
        for cut in 0..line.len() {
            assert!(PointProfile::parse(&line[..cut]).is_none(), "cut={cut}");
        }
        assert!(PointProfile::parse("").is_none());
        assert!(PointProfile::parse("{}").is_none());
    }

    /// A record written while profiles still carried the artifact
    /// cache's `cache_hits`/`cache_misses` members (sealed over them)
    /// loads, every other field intact.
    #[test]
    fn a_record_with_the_old_cache_counters_still_loads() {
        let old = r#"{"schema":1,"key":"cf737b66e168d951","app":"hydro","config":"1c-lowend-32M:256K-128bit-1.5GHz-4chDDR4","worker":"fill","pid":11741,"tid":1,"start_us":1792312508150446,"wall_ns":2193199,"poisoned":false,"retries":0,"cache_hits":0,"cache_misses":2,"peak_rss_kb":4284,"phases":{"burst":729434,"detailed-sim":1851712,"dram":207,"net-replay":27519,"power":10846,"trace-gen":238537},"crc":1350927585}"#;
        let phases = [
            ("burst", 729_434),
            ("detailed-sim", 1_851_712),
            ("dram", 207),
            ("net-replay", 27_519),
            ("power", 10_846),
            ("trace-gen", 238_537),
        ];
        let want = PointProfile {
            schema: 1,
            key: "cf737b66e168d951".into(),
            app: "hydro".into(),
            config: "1c-lowend-32M:256K-128bit-1.5GHz-4chDDR4".into(),
            worker: "fill".into(),
            pid: 11741,
            tid: 1,
            start_us: 1_792_312_508_150_446,
            wall_ns: 2_193_199,
            poisoned: false,
            retries: 0,
            peak_rss_kb: 4284,
            phases: phases.iter().map(|&(k, v)| (k.to_string(), v)).collect(),
        };
        assert_eq!(PointProfile::parse(old), Some(want));
    }

    #[test]
    fn foreign_schema_is_skipped() {
        let mut p = sample("00aa11bb22cc33dd", "hydro", "c64", 9);
        p.schema = PROF_SCHEMA + 1;
        assert!(PointProfile::parse(&p.to_line()).is_none());
    }
}
