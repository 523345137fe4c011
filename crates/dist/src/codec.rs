//! The wire format: length-prefixed, CRC-32-sealed frames carrying
//! one JSON header line plus an optional raw byte body.
//!
//! ```text
//! frame   := len:u32le  crc:u32le  payload
//! payload := header '\n' body
//! header  := one JSON object, no interior newlines
//! body    := raw bytes (row lines travel verbatim, never re-encoded)
//! ```
//!
//! `len` counts the payload only; `crc` seals it ([`musa_store::crc32`],
//! the same polynomial every durable file in the store uses). The body
//! is deliberately opaque: a shipped campaign row is the exact sealed
//! line the worker's [`musa_store::PointExecutor`] produced, so
//! distributed execution cannot introduce a serialisation difference
//! by construction.
//!
//! Decoding **never panics and never trusts the wire**: a length
//! beyond [`MAX_FRAME`] and a CRC mismatch are typed, connection-fatal
//! errors ([`FrameError`]); anything shorter than a full frame is
//! "keep reading". The exhaustive truncation/bit-flip tests below hold
//! the same bar the store's torn-tail suite does.

use musa_apps::{AppId, GenParams};
use musa_arch::NodeConfig;
use musa_obs::json::{self, JsonObj, JsonValue};
use musa_store::PoisonedPoint;

/// Protocol version carried in the hello exchange; either side
/// rejects a peer speaking a different one. Version 2 made leases
/// self-describing (the grant names the points and the sweep) and
/// dropped the sweep-signature handshake that guarded version 1's
/// index-based leases.
pub const PROTOCOL_VERSION: u64 = 2;

/// Hard ceiling on one frame's payload, enforced *before* allocating:
/// a garbled length prefix must not become an OOM.
pub const MAX_FRAME: usize = 16 << 20;

/// Reject code for a protocol version mismatch.
pub const REJECT_VERSION: &str = "version";

/// One protocol message (the frame header). Row bytes travel in the
/// frame body, not here.
#[derive(Debug, Clone, PartialEq)]
pub enum Msg {
    /// Worker → supervisor, first frame after connect.
    Hello {
        /// Protocol version the worker speaks.
        ver: u64,
        /// Worker tag (`w<pid>`) for journal provenance.
        worker: String,
    },
    /// Supervisor → worker: handshake accepted.
    HelloOk {
        /// Protocol version the supervisor speaks.
        ver: u64,
    },
    /// Supervisor → worker: handshake refused; the worker must not
    /// retry (every retry would fail identically).
    Reject {
        /// Machine-readable cause ([`REJECT_VERSION`]).
        code: String,
        /// Human-readable detail.
        reason: String,
    },
    /// Supervisor → worker: execute a lease. The grant carries the
    /// points themselves and the sweep they run under; the worker
    /// derives nothing from its own environment.
    Grant {
        /// Lease id.
        lease: u64,
        /// Attempt number.
        attempt: u32,
        /// Trace-generation scale of every point.
        gen: GenParams,
        /// Whether the full-application replay runs.
        full_replay: bool,
        /// The points, in execution order.
        points: Vec<(AppId, NodeConfig)>,
    },
    /// Worker → supervisor: progress heartbeat (sent before each
    /// point, and with `current: None` once the lease's work stops).
    Hb {
        /// Lease id.
        lease: u64,
        /// Points completed so far.
        done: u64,
        /// Position in the lease of the point about to run, if any.
        current: Option<u64>,
    },
    /// Worker → supervisor: one point finished; the body carries its
    /// sealed row line plus newline (empty when the point poisoned).
    Point {
        /// Lease id.
        lease: u64,
        /// Position in the lease (0-based); must arrive in order.
        seq: u64,
        /// Poison record when the point panicked in the worker.
        poisoned: Option<PoisonedPoint>,
        /// The point's sealed profile line, when the worker records.
        profile: Option<String>,
    },
    /// Worker → supervisor: lease result manifest (possibly partial,
    /// during a drain). The body carries the worker's metrics snapshot
    /// for the lease as JSON (empty with metrics off).
    Result {
        /// Lease id.
        lease: u64,
        /// Attempt number.
        attempt: u32,
        /// Points completed.
        done: u64,
        /// Rows shipped.
        rows: u64,
    },
    /// Worker → supervisor: idle liveness probe.
    Ping,
    /// Supervisor → worker: liveness answer.
    Pong,
    /// Supervisor → worker: finish the in-flight point, ship partial
    /// results, disconnect. An idle worker disconnects immediately and
    /// exits cleanly.
    Drain,
    /// Either side: orderly goodbye before closing.
    Bye {
        /// Why the sender is leaving.
        reason: String,
    },
}

fn poisoned_json(p: &PoisonedPoint) -> String {
    JsonObj::new()
        .field_str("app", &p.app)
        .field_str("config", &p.config)
        .field_str("key", &p.key)
        .field_str("reason", &p.reason)
        .finish()
}

fn parse_poisoned(v: &JsonValue) -> Result<PoisonedPoint, String> {
    let str_of = |k: &str| -> Result<String, String> {
        v.get(k)
            .and_then(|x| x.as_str())
            .map(str::to_string)
            .ok_or_else(|| format!("poisoned record missing {k:?}"))
    };
    Ok(PoisonedPoint {
        app: str_of("app")?,
        config: str_of("config")?,
        key: str_of("key")?,
        reason: str_of("reason")?,
    })
}

impl Msg {
    /// Serialise the header line (no trailing newline).
    pub fn to_header(&self) -> String {
        match self {
            Msg::Hello { ver, worker } => JsonObj::new()
                .field_str("t", "hello")
                .field_u64("ver", *ver)
                .field_str("worker", worker)
                .finish(),
            Msg::HelloOk { ver } => JsonObj::new()
                .field_str("t", "hello_ok")
                .field_u64("ver", *ver)
                .finish(),
            Msg::Reject { code, reason } => JsonObj::new()
                .field_str("t", "reject")
                .field_str("code", code)
                .field_str("reason", reason)
                .finish(),
            Msg::Grant {
                lease,
                attempt,
                gen,
                full_replay,
                points,
            } => {
                let points: Vec<String> = points
                    .iter()
                    .map(|(app, config)| {
                        JsonObj::new()
                            .field_str("app", app.label())
                            .field_raw("config", &json::to_string(config))
                            .finish()
                    })
                    .collect();
                JsonObj::new()
                    .field_str("t", "grant")
                    .field_u64("lease", *lease)
                    .field_u64("attempt", u64::from(*attempt))
                    .field_raw("gen", &json::to_string(gen))
                    .field_bool("full_replay", *full_replay)
                    .field_raw("points", &format!("[{}]", points.join(",")))
                    .finish()
            }
            Msg::Hb {
                lease,
                done,
                current,
            } => {
                let mut obj = JsonObj::new()
                    .field_str("t", "hb")
                    .field_u64("lease", *lease)
                    .field_u64("done", *done);
                obj = match current {
                    Some(idx) => obj.field_u64("current", *idx),
                    None => obj.field_raw("current", "null"),
                };
                obj.finish()
            }
            Msg::Point {
                lease,
                seq,
                poisoned,
                profile,
            } => {
                let mut obj = JsonObj::new()
                    .field_str("t", "point")
                    .field_u64("lease", *lease)
                    .field_u64("seq", *seq);
                obj = match poisoned {
                    Some(p) => obj.field_raw("poisoned", &poisoned_json(p)),
                    None => obj.field_raw("poisoned", "null"),
                };
                obj = match profile {
                    Some(line) => obj.field_str("profile", line),
                    None => obj.field_raw("profile", "null"),
                };
                obj.finish()
            }
            Msg::Result {
                lease,
                attempt,
                done,
                rows,
            } => JsonObj::new()
                .field_str("t", "result")
                .field_u64("lease", *lease)
                .field_u64("attempt", u64::from(*attempt))
                .field_u64("done", *done)
                .field_u64("rows", *rows)
                .finish(),
            Msg::Ping => JsonObj::new().field_str("t", "ping").finish(),
            Msg::Pong => JsonObj::new().field_str("t", "pong").finish(),
            Msg::Drain => JsonObj::new().field_str("t", "drain").finish(),
            Msg::Bye { reason } => JsonObj::new()
                .field_str("t", "bye")
                .field_str("reason", reason)
                .finish(),
        }
    }

    /// Parse a header line. Errors name the defect (they become
    /// [`FrameError::Header`], which is connection-fatal).
    pub fn parse_header(line: &str) -> Result<Msg, String> {
        let v = JsonValue::parse(line)?;
        let str_of = |k: &str| -> Result<String, String> {
            v.get(k)
                .and_then(|x| x.as_str())
                .map(str::to_string)
                .ok_or_else(|| format!("missing string field {k:?}"))
        };
        let u64_of = |k: &str| -> Result<u64, String> {
            v.get(k)
                .and_then(|x| x.as_u64())
                .ok_or_else(|| format!("missing integer field {k:?}"))
        };
        let u32_of = |k: &str| -> Result<u32, String> {
            u32::try_from(u64_of(k)?).map_err(|_| format!("field {k:?} out of range"))
        };
        match str_of("t")?.as_str() {
            "hello" => Ok(Msg::Hello {
                ver: u64_of("ver")?,
                worker: str_of("worker")?,
            }),
            "hello_ok" => Ok(Msg::HelloOk {
                ver: u64_of("ver")?,
            }),
            "reject" => Ok(Msg::Reject {
                code: str_of("code")?,
                reason: str_of("reason")?,
            }),
            "grant" => {
                let mut points = Vec::new();
                for p in v
                    .get("points")
                    .and_then(|x| x.as_arr())
                    .ok_or("missing array field \"points\"")?
                {
                    let label = p.get("app").and_then(|x| x.as_str()).unwrap_or_default();
                    let app = AppId::ALL
                        .into_iter()
                        .find(|a| a.label() == label)
                        .ok_or_else(|| format!("unknown app {label:?}"))?;
                    points.push((app, json::field(p, "config")?));
                }
                Ok(Msg::Grant {
                    lease: u64_of("lease")?,
                    attempt: u32_of("attempt")?,
                    gen: json::field(&v, "gen")?,
                    full_replay: json::field(&v, "full_replay")?,
                    points,
                })
            }
            "hb" => Ok(Msg::Hb {
                lease: u64_of("lease")?,
                done: u64_of("done")?,
                current: v.get("current").and_then(|x| x.as_u64()),
            }),
            "point" => Ok(Msg::Point {
                lease: u64_of("lease")?,
                seq: u64_of("seq")?,
                poisoned: match v.get("poisoned") {
                    Some(p) if p.as_obj().is_some() => Some(parse_poisoned(p)?),
                    _ => None,
                },
                profile: v
                    .get("profile")
                    .and_then(|x| x.as_str())
                    .map(str::to_string),
            }),
            "result" => Ok(Msg::Result {
                lease: u64_of("lease")?,
                attempt: u32_of("attempt")?,
                done: u64_of("done")?,
                rows: u64_of("rows")?,
            }),
            "ping" => Ok(Msg::Ping),
            "pong" => Ok(Msg::Pong),
            "drain" => Ok(Msg::Drain),
            "bye" => Ok(Msg::Bye {
                reason: str_of("reason")?,
            }),
            other => Err(format!("unknown message type {other:?}")),
        }
    }
}

/// One decoded frame.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// The parsed header.
    pub msg: Msg,
    /// Raw body bytes (row lines, usually).
    pub body: Vec<u8>,
}

/// Why a frame failed to decode. Every variant is connection-fatal:
/// the stream position is unrecoverable once framing is in doubt, so
/// the peer is declared dead and the lease machinery takes over.
#[derive(Debug, Clone, PartialEq)]
pub enum FrameError {
    /// The length prefix exceeds [`MAX_FRAME`].
    TooLong {
        /// The claimed payload length.
        len: u64,
    },
    /// The payload failed its CRC-32 seal.
    Crc {
        /// CRC carried in the frame.
        sealed: u32,
        /// CRC of the payload as received.
        actual: u32,
    },
    /// The payload has no header newline, or the header line failed
    /// to parse.
    Header(String),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::TooLong { len } => {
                write!(f, "frame length {len} exceeds the {MAX_FRAME}-byte cap")
            }
            FrameError::Crc { sealed, actual } => {
                write!(
                    f,
                    "frame CRC mismatch (sealed {sealed:#010x}, got {actual:#010x})"
                )
            }
            FrameError::Header(e) => write!(f, "bad frame header: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Encode one frame: seal the payload and prefix length + CRC.
pub fn encode(msg: &Msg, body: &[u8]) -> Vec<u8> {
    let header = msg.to_header();
    let mut payload = Vec::with_capacity(header.len() + 1 + body.len());
    payload.extend_from_slice(header.as_bytes());
    payload.push(b'\n');
    payload.extend_from_slice(body);
    debug_assert!(payload.len() <= MAX_FRAME, "frame body too large");
    let crc = musa_store::crc32(&payload);
    let mut out = Vec::with_capacity(8 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc.to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Incremental frame decoder over a growing byte buffer.
#[derive(Debug, Default)]
pub struct FrameBuf {
    buf: Vec<u8>,
}

impl FrameBuf {
    /// A fresh, empty decoder.
    pub fn new() -> FrameBuf {
        FrameBuf::default()
    }

    /// Feed received bytes.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet decoded.
    pub fn pending(&self) -> usize {
        self.buf.len()
    }

    /// Decode the next complete frame, `Ok(None)` when more bytes are
    /// needed. Never panics; a poisoned prefix (oversized length, CRC
    /// mismatch, bad header) is a typed error and the connection must
    /// be torn down — resynchronising inside a corrupt stream is
    /// guesswork the protocol refuses to do.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, FrameError> {
        if self.buf.len() < 8 {
            return Ok(None);
        }
        let len = u32::from_le_bytes([self.buf[0], self.buf[1], self.buf[2], self.buf[3]]);
        if len as usize > MAX_FRAME {
            return Err(FrameError::TooLong {
                len: u64::from(len),
            });
        }
        let sealed = u32::from_le_bytes([self.buf[4], self.buf[5], self.buf[6], self.buf[7]]);
        let total = 8 + len as usize;
        if self.buf.len() < total {
            return Ok(None);
        }
        let payload = &self.buf[8..total];
        let actual = musa_store::crc32(payload);
        if actual != sealed {
            return Err(FrameError::Crc { sealed, actual });
        }
        let nl = payload
            .iter()
            .position(|&b| b == b'\n')
            .ok_or_else(|| FrameError::Header("payload has no header line".into()))?;
        let header = std::str::from_utf8(&payload[..nl])
            .map_err(|_| FrameError::Header("header is not UTF-8".into()))?;
        let msg = Msg::parse_header(header).map_err(FrameError::Header)?;
        let body = payload[nl + 1..].to_vec();
        self.buf.drain(..total);
        Ok(Some(Frame { msg, body }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_msgs() -> Vec<(Msg, Vec<u8>)> {
        vec![
            (
                Msg::Hello {
                    ver: PROTOCOL_VERSION,
                    worker: "w1234".into(),
                },
                vec![],
            ),
            (
                Msg::HelloOk {
                    ver: PROTOCOL_VERSION,
                },
                vec![],
            ),
            (
                Msg::Reject {
                    code: REJECT_VERSION.into(),
                    reason: "protocol version 1 != 2 \"quoted\"".into(),
                },
                vec![],
            ),
            (
                Msg::Grant {
                    lease: 7,
                    attempt: 2,
                    gen: GenParams::tiny(),
                    full_replay: true,
                    points: vec![
                        (AppId::Hydro, NodeConfig::REFERENCE),
                        (AppId::Lulesh, musa_arch::DesignSpace::all()[863]),
                    ],
                },
                vec![],
            ),
            (
                Msg::Hb {
                    lease: 7,
                    done: 3,
                    current: Some(11),
                },
                vec![],
            ),
            (
                Msg::Hb {
                    lease: 7,
                    done: 5,
                    current: None,
                },
                vec![],
            ),
            (
                Msg::Point {
                    lease: 7,
                    seq: 3,
                    poisoned: None,
                    profile: Some("{\"schema\":1,\"key\":\"abc\",\"crc\":7}".into()),
                },
                b"{\"key\":\"abc\",\"v\":1}\n".to_vec(),
            ),
            (
                Msg::Point {
                    lease: 7,
                    seq: 4,
                    profile: None,
                    poisoned: Some(PoisonedPoint {
                        app: "hydro".into(),
                        config: "cfg \"q\"".into(),
                        key: "00c0ffee".into(),
                        reason: "injected panic at sim.point".into(),
                    }),
                },
                vec![],
            ),
            (
                Msg::Result {
                    lease: 7,
                    attempt: 2,
                    done: 5,
                    rows: 4,
                },
                b"{\"schema\":1,\"counters\":{}}".to_vec(),
            ),
            (Msg::Ping, vec![]),
            (Msg::Pong, vec![]),
            (Msg::Drain, vec![]),
            (
                Msg::Bye {
                    reason: "drained".into(),
                },
                // A bye never carries a body, but the codec must not
                // care: bodies are opaque, including binary garbage.
                vec![0, 1, 2, 255, b'\n', 128, 0],
            ),
        ]
    }

    #[test]
    fn frames_roundtrip() {
        for (msg, body) in sample_msgs() {
            let bytes = encode(&msg, &body);
            let mut fb = FrameBuf::new();
            fb.extend(&bytes);
            let frame = fb.next_frame().unwrap().unwrap();
            assert_eq!(frame.msg, msg);
            assert_eq!(frame.body, body);
            assert_eq!(fb.pending(), 0);
            assert!(fb.next_frame().unwrap().is_none());
        }
    }

    #[test]
    fn streamed_frames_decode_across_arbitrary_chunking() {
        let mut stream = Vec::new();
        for (msg, body) in sample_msgs() {
            stream.extend_from_slice(&encode(&msg, &body));
        }
        // Feed the whole stream byte by byte — the cruellest chunking.
        let mut fb = FrameBuf::new();
        let mut decoded = Vec::new();
        for &b in &stream {
            fb.extend(&[b]);
            while let Some(frame) = fb.next_frame().unwrap() {
                decoded.push((frame.msg, frame.body));
            }
        }
        assert_eq!(decoded, sample_msgs());
    }

    /// The store's torn-tail property, applied to the wire: a stream
    /// truncated at **every** byte offset decodes exactly the frames
    /// fully received, then reports "need more" — never a panic, never
    /// a spurious error, never a phantom frame.
    #[test]
    fn truncation_at_every_offset_never_panics_or_invents_frames() {
        let msgs = sample_msgs();
        let mut stream = Vec::new();
        let mut boundaries = vec![0usize];
        for (msg, body) in &msgs {
            stream.extend_from_slice(&encode(msg, body));
            boundaries.push(stream.len());
        }
        for n in 0..=stream.len() {
            let complete = boundaries.iter().filter(|&&b| b > 0 && b <= n).count();
            let mut fb = FrameBuf::new();
            fb.extend(&stream[..n]);
            let mut decoded = 0;
            loop {
                match fb.next_frame() {
                    Ok(Some(frame)) => {
                        let (msg, body) = &msgs[decoded];
                        assert_eq!((&frame.msg, &frame.body), (msg, body), "cut at {n}");
                        decoded += 1;
                    }
                    Ok(None) => break,
                    Err(e) => panic!("cut at {n}: truncation must never error, got {e}"),
                }
            }
            assert_eq!(decoded, complete, "cut at byte {n}");
        }
    }

    /// Flipping any single bit anywhere in a frame must yield a typed
    /// error or "need more bytes" — never a panic, and never the
    /// original frame (CRC-32 catches every single-bit error in the
    /// payload; flips in the prefix derail framing detectably).
    #[test]
    fn single_bit_flips_never_panic_and_never_pass() {
        for (msg, body) in sample_msgs() {
            let clean = encode(&msg, &body);
            for byte in 0..clean.len() {
                for bit in 0..8 {
                    let mut dirty = clean.clone();
                    dirty[byte] ^= 1 << bit;
                    let mut fb = FrameBuf::new();
                    fb.extend(&dirty);
                    match fb.next_frame() {
                        Ok(Some(frame)) => panic!(
                            "bit {bit} of byte {byte}: corrupt frame decoded as {:?}",
                            frame.msg
                        ),
                        Ok(None) => {
                            // A flip in the length prefix can claim a
                            // longer frame — legitimate "keep reading".
                            assert!(byte < 4, "bit {bit} of byte {byte}: silently swallowed");
                        }
                        Err(_) => {}
                    }
                }
            }
        }
    }

    /// Seeded pseudo-random garbage: the decoder must grind through
    /// without panicking, returning only typed errors or "need more".
    #[test]
    fn random_garbage_never_panics() {
        let mut rng = musa_obs::rng::SplitMix64::new(0x6d75_7361);
        let mut next_byte = move || rng.next_u64() as u8;
        for _ in 0..64 {
            let chunk: Vec<u8> = (0..257).map(|_| next_byte()).collect();
            let mut fb = FrameBuf::new();
            fb.extend(&chunk);
            // Drive until the decoder either wants more bytes or errors;
            // both are acceptable, looping forever or panicking is not.
            for _ in 0..chunk.len() {
                match fb.next_frame() {
                    Ok(Some(_)) => continue, // astronomically unlikely, but legal
                    Ok(None) | Err(_) => break,
                }
            }
        }
    }

    #[test]
    fn oversized_length_is_rejected_before_allocation() {
        let mut bytes = ((MAX_FRAME as u32) + 1).to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0; 12]);
        let mut fb = FrameBuf::new();
        fb.extend(&bytes);
        assert_eq!(
            fb.next_frame(),
            Err(FrameError::TooLong {
                len: (MAX_FRAME as u64) + 1
            })
        );
    }

    #[test]
    fn unknown_header_types_are_typed_errors() {
        let payload = b"{\"t\":\"warp\"}\n";
        let mut bytes = (payload.len() as u32).to_le_bytes().to_vec();
        bytes.extend_from_slice(&musa_store::crc32(payload).to_le_bytes());
        bytes.extend_from_slice(payload);
        let mut fb = FrameBuf::new();
        fb.extend(&bytes);
        assert!(matches!(fb.next_frame(), Err(FrameError::Header(_))));
    }
}
