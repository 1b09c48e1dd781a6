//! The wire protocol: length-prefixed JSON frames and the job types.
//!
//! A connection is a sequence of *frames*, each a 4-byte little-endian
//! length followed by that many bytes of UTF-8 JSON. The client sends
//! [`Request`] frames and receives one [`Response`] frame per request, in
//! order. Length-prefixing (rather than newline-delimiting) keeps the
//! framing unambiguous no matter what the JSON contains, and lets the
//! server reject oversized frames before buffering them.
//!
//! Every parse failure is a *recoverable, per-connection* error: the
//! server answers malformed input with a [`Response::Error`] frame (or
//! closes just that connection when the framing itself is broken) and
//! keeps serving other tenants — a hostile client must never take the
//! daemon down.

use oppsla_nn::models::Arch;
use std::io::{self, Read, Write};

/// Frames larger than this are rejected before buffering (a hostile
/// length prefix must not make the server allocate gigabytes). 16 MiB
/// comfortably covers an inline ImageNet-scale image with JSON overhead.
pub const MAX_FRAME_LEN: u32 = 16 * 1024 * 1024;

/// Framing-layer errors (distinct from JSON-level errors so the
/// connection loop can tell "close the connection" from "answer with an
/// error response").
#[derive(Debug)]
pub enum FrameError {
    /// The underlying stream failed.
    Io(io::Error),
    /// The length prefix exceeds [`MAX_FRAME_LEN`].
    TooLong(u32),
    /// The payload is not UTF-8.
    NotUtf8,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame i/o failed: {e}"),
            FrameError::TooLong(n) => {
                write!(
                    f,
                    "frame of {n} bytes exceeds the {MAX_FRAME_LEN} byte limit"
                )
            }
            FrameError::NotUtf8 => write!(f, "frame payload is not UTF-8"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Writes one frame: `len: u32 LE` then `len` bytes of payload.
///
/// # Errors
///
/// Returns an error when the payload exceeds [`MAX_FRAME_LEN`] or the
/// stream fails.
pub fn write_frame(w: &mut impl Write, payload: &str) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .ok()
        .filter(|&n| n <= MAX_FRAME_LEN)
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("frame of {} bytes exceeds the limit", payload.len()),
            )
        })?;
    // One write for prefix + payload: a split write would let Nagle hold
    // the payload segment until the peer ACKs the prefix — a 40 ms
    // delayed-ACK stall on every frame.
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&len.to_le_bytes());
    frame.extend_from_slice(payload.as_bytes());
    w.write_all(&frame)?;
    w.flush()
}

/// Reads one frame. Returns `Ok(None)` on a clean EOF *before* the length
/// prefix (the peer hung up between requests — not an error).
///
/// # Errors
///
/// Returns [`FrameError`] on a truncated frame, an oversized length
/// prefix, non-UTF-8 payload, or stream failure.
pub fn read_frame(r: &mut impl Read) -> Result<Option<String>, FrameError> {
    let mut len_bytes = [0u8; 4];
    // A clean EOF on the very first byte means the peer closed the
    // connection between frames; EOF anywhere later is a truncation.
    match r.read(&mut len_bytes[..1]) {
        Ok(0) => return Ok(None),
        Ok(_) => {}
        Err(e) => return Err(e.into()),
    }
    r.read_exact(&mut len_bytes[1..])?;
    let len = u32::from_le_bytes(len_bytes);
    if len > MAX_FRAME_LEN {
        return Err(FrameError::TooLong(len));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    String::from_utf8(payload)
        .map(Some)
        .map_err(|_| FrameError::NotUtf8)
}

/// The image a job attacks: an index into the shard's deterministic
/// attack test set, or an inline image. The vendored serde derive has no
/// `Option`-skipping, so requests always spell out both fields (unused
/// one `null`).
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct ImageSpec {
    /// Index into the shard's attack test set (see
    /// [`crate::zoo::ShardedZoo`]); the label comes from the set.
    pub test_index: Option<u64>,
    /// Inline image, `data` in row-major `[r, g, b]` per pixel, each
    /// channel in `[0, 1]`. Requires `true_class`.
    pub inline: Option<InlineImage>,
}

/// An image shipped inside the request.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct InlineImage {
    /// Image height in pixels.
    pub height: u64,
    /// Image width in pixels.
    pub width: u64,
    /// `height * width * 3` channel values in `[0, 1]`.
    pub data: Vec<f32>,
    /// The label the attack tries to flip away from.
    pub true_class: u64,
}

/// One attack job.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct JobRequest {
    /// Model architecture id (`"mlp"`, `"vgg-small"`, `"resnet-small"`,
    /// `"googlenet-small"`, `"densenet-small"`).
    pub arch: String,
    /// Dataset scale id (`"shapes32"` or `"shapes64"`).
    pub scale: String,
    /// The image to attack.
    pub image: ImageSpec,
    /// Oracle query budget for this job.
    pub budget: u64,
    /// Sketch program source, or `null` for the paper's example program.
    pub program: Option<String>,
    /// Seed for the attack's random choices (deterministic replay).
    pub seed: u64,
}

/// Client → server frame.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub enum Request {
    /// Run one attack job.
    Attack(JobRequest),
    /// Liveness probe; answered with [`Response::Pong`].
    Ping,
    /// Snapshot the live metrics plane; answered with
    /// [`Response::Stats`]. Always available — when the server was
    /// started with metrics disabled the report is empty (zero metrics,
    /// no slow jobs) rather than an error.
    Stats,
    /// Stop accepting connections and exit once in-flight jobs drain.
    Shutdown,
}

/// Result of a completed attack job.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct JobOutcome {
    /// `"success"`, `"failure"`, or `"already_misclassified"`.
    pub status: String,
    /// Oracle queries the job consumed (counted, budget-enforced).
    pub queries: u64,
    /// Flipping pixel `[row, col]` on success.
    pub location: Option<[u64; 2]>,
    /// Adversarial RGB value on success.
    pub pixel: Option<[f32; 3]>,
    /// Number of counted queries in the job's query log.
    pub log_len: u64,
    /// Queries served from the server's per-shard memo (never counted in
    /// `queries` or logged). Always 0 unless the deployment opted into
    /// `--memo`.
    pub memo_hits: u64,
    /// FNV-1a 64 digest over the job's query log (seq, pixel, pred and
    /// per-query score hashes), as 16 hex digits. Two jobs interacted
    /// with the model identically iff their digests match — the
    /// determinism witness CI compares across scheduler configurations.
    pub log_fnv: String,
}

/// One flattened metric sample in a [`StatsReport`]: the fully-qualified
/// key (`name{label="value",…}` — same spelling as the Prometheus
/// exposition) and its current value. Counters and gauges report their
/// integer value; histograms are pre-flattened into `_count`, `_sum`,
/// `_p50`, `_p90`, and `_p99` samples. Values stay exact below 2^53.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct StatsMetric {
    /// Fully-qualified metric key, e.g. `queries_total` or
    /// `sched_queue_depth{shard="mlp/shapes32"}`.
    pub key: String,
    /// Current value. Integral for counters/gauges/`_count`.
    pub value: f64,
}

/// One entry of the slow-request log: a completed job that ranked among
/// the N worst by wall time since the server started, with enough
/// attribution (route split, memoization) to see *why* it was slow.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SlowJob {
    /// Server-assigned tenant id (`"t0"`, `"t1"`, … in connection order).
    pub tenant: String,
    /// Architecture id the job attacked.
    pub arch: String,
    /// Scale id the job attacked.
    pub scale: String,
    /// Outcome status (`"success"` / `"failure"` /
    /// `"already_misclassified"`).
    pub status: String,
    /// Counted oracle queries the job consumed.
    pub queries: u64,
    /// Queries that took the full-image scoring route.
    pub full_queries: u64,
    /// Queries that took the sparse delta route.
    pub delta_queries: u64,
    /// Queries served from the per-shard memo (uncounted).
    pub memo_hits: u64,
    /// End-to-end wall time of the job in microseconds (admission to
    /// response, as observed by the serving thread).
    pub wall_us: u64,
    /// The job's query budget.
    pub budget: u64,
}

/// Machine-readable snapshot of the live metrics plane, answered to
/// [`Request::Stats`]. The same numbers as the Prometheus `/metrics`
/// page, in a form `server_top` and scripts can consume without a text
/// parser.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct StatsReport {
    /// Milliseconds since the server started.
    pub uptime_ms: u64,
    /// Every registered metric, sorted by key.
    pub metrics: Vec<StatsMetric>,
    /// Ring of the worst-latency completed jobs, slowest first.
    pub slow_jobs: Vec<SlowJob>,
}

/// Server → client frame.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum Response {
    /// The job completed.
    Done(JobOutcome),
    /// The request was rejected or failed; the connection stays usable.
    Error(String),
    /// Answer to [`Request::Ping`].
    Pong,
    /// Answer to [`Request::Stats`].
    Stats(StatsReport),
    /// Acknowledges [`Request::Shutdown`].
    ShuttingDown,
}

/// Parses an architecture id as used in reports and requests.
///
/// # Errors
///
/// Returns the unknown id.
pub fn parse_arch(id: &str) -> Result<Arch, String> {
    [
        Arch::VggSmall,
        Arch::ResNetSmall,
        Arch::GoogLeNetSmall,
        Arch::DenseNetSmall,
        Arch::Mlp,
    ]
    .into_iter()
    .find(|a| a.id() == id)
    .ok_or_else(|| format!("unknown arch {id:?}"))
}

/// Parses a scale id (`"shapes32"` / `"shapes64"`).
///
/// # Errors
///
/// Returns the unknown id.
pub fn parse_scale(id: &str) -> Result<oppsla_eval::zoo::Scale, String> {
    [
        oppsla_eval::zoo::Scale::Cifar,
        oppsla_eval::zoo::Scale::ImageNetLike,
    ]
    .into_iter()
    .find(|s| s.id() == id)
    .ok_or_else(|| format!("unknown scale {id:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "hello").unwrap();
        write_frame(&mut buf, "").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some("hello"));
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(""));
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_buffering() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        let err = read_frame(&mut &buf[..]).unwrap_err();
        assert!(
            matches!(err, FrameError::TooLong(n) if n == u32::MAX),
            "{err}"
        );
    }

    #[test]
    fn truncated_frame_is_an_error_not_a_clean_eof() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "hello").unwrap();
        buf.truncate(buf.len() - 2);
        let err = read_frame(&mut &buf[..]).unwrap_err();
        assert!(matches!(err, FrameError::Io(_)), "{err}");
    }

    #[test]
    fn non_utf8_payload_is_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&2u32.to_le_bytes());
        buf.extend_from_slice(&[0xff, 0xfe]);
        let err = read_frame(&mut &buf[..]).unwrap_err();
        assert!(matches!(err, FrameError::NotUtf8), "{err}");
    }

    #[test]
    fn wire_forms_are_stable() {
        // The CI probe and any non-Rust client build these frames by
        // hand, so the exact JSON spelling is part of the protocol.
        assert_eq!(serde_json::to_string(&Request::Ping).unwrap(), "\"Ping\"");
        assert_eq!(
            serde_json::to_string(&Request::Shutdown).unwrap(),
            "\"Shutdown\""
        );
        assert_eq!(serde_json::to_string(&Response::Pong).unwrap(), "\"Pong\"");
        assert_eq!(serde_json::to_string(&Request::Stats).unwrap(), "\"Stats\"");
    }

    #[test]
    fn stats_report_wire_form_is_stable() {
        // `server_top`, the CI probe, and the loadtest's scrape
        // cross-check all consume this frame; its JSON spelling is part
        // of the protocol like the unit frames above.
        let report = StatsReport {
            uptime_ms: 1500,
            metrics: vec![StatsMetric {
                key: "queries_total".into(),
                value: 42.0,
            }],
            slow_jobs: vec![SlowJob {
                tenant: "t0".into(),
                arch: "mlp".into(),
                scale: "shapes32".into(),
                status: "success".into(),
                queries: 37,
                full_queries: 5,
                delta_queries: 32,
                memo_hits: 0,
                wall_us: 1234,
                budget: 600,
            }],
        };
        let json = serde_json::to_string(&Response::Stats(report.clone())).unwrap();
        assert_eq!(
            json,
            concat!(
                "{\"Stats\":{\"uptime_ms\":1500,",
                "\"metrics\":[{\"key\":\"queries_total\",\"value\":42}],",
                "\"slow_jobs\":[{\"tenant\":\"t0\",\"arch\":\"mlp\",",
                "\"scale\":\"shapes32\",\"status\":\"success\",",
                "\"queries\":37,\"full_queries\":5,\"delta_queries\":32,",
                "\"memo_hits\":0,\"wall_us\":1234,\"budget\":600}]}}"
            )
        );
        let back: Response = serde_json::from_str(&json).unwrap();
        assert_eq!(back, Response::Stats(report));
    }

    #[test]
    fn requests_round_trip_through_json() {
        let req = Request::Attack(JobRequest {
            arch: "mlp".into(),
            scale: "cifar".into(),
            image: ImageSpec {
                test_index: Some(3),
                inline: None,
            },
            budget: 500,
            program: None,
            seed: 7,
        });
        let json = serde_json::to_string(&req).unwrap();
        let back: Request = serde_json::from_str(&json).unwrap();
        match back {
            Request::Attack(j) => {
                assert_eq!(j.arch, "mlp");
                assert_eq!(j.image.test_index, Some(3));
                assert_eq!(j.budget, 500);
            }
            other => panic!("wrong variant {other:?}"),
        }
    }

    #[test]
    fn arch_and_scale_ids_round_trip() {
        for id in [
            "mlp",
            "vgg-small",
            "resnet-small",
            "googlenet-small",
            "densenet-small",
        ] {
            assert_eq!(parse_arch(id).unwrap().id(), id);
        }
        assert!(parse_arch("vgg").is_err());
        for id in ["shapes32", "shapes64"] {
            assert_eq!(parse_scale(id).unwrap().id(), id);
        }
        assert!(parse_scale("cifar10").is_err());
    }
}
