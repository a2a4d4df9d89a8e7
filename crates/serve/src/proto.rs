//! The wire protocol: framing, message encoding, spec canonicalization
//! and the result-image format.
//!
//! # Framing
//!
//! Every message is one frame: a little-endian `u32` payload length
//! (capped at [`MAX_FRAME`]) followed by that many payload bytes. The
//! payload is a one-byte message tag followed by the tag's body, encoded
//! with the `chainiq_ckpt` writer/reader primitives (the same
//! little-endian, length-prefixed encoding checkpoint images use).
//!
//! # Versioning
//!
//! The first client frame must be [`ClientMsg::Hello`]: the [`MAGIC`]
//! bytes plus the client's [`PROTO_VERSION`]. The server rejects a
//! mismatched magic or version with [`ServerMsg::Error`] before reading
//! anything else, so an old client never silently misparses a new
//! server (or vice versa). Any change to the frame layout, a message
//! body, or the spec encoding must bump [`PROTO_VERSION`].
//!
//! # Cache-key derivation
//!
//! [`spec_key`] is the FNV-1a fingerprint of the spec's canonical
//! encoding ([`pack_spec`]): every field of the benchmark name, the
//! full queue geometry, the predictor configuration, the sample length
//! and the workload seed. Two specs collide only if they are the same
//! experiment, so the key doubles as the content address of the result
//! image — and as the single-flight identity of an in-flight job.

use std::io::{Read, Write};

use chainiq::ckpt::{
    fingerprint, CkptError, CkptHeader, ImageReader, ImageWriter, Pack, Reader, Snapshot, Writer,
};
use chainiq::{
    Bench, DistanceConfig, IqKind, PrescheduleConfig, RunResult, SegmentedIqConfig, SimStats,
};
use chainiq_bench::{PredictorConfig, RunSpec};

/// Leading bytes of the Hello frame ("CHAINIQ Serve").
pub const MAGIC: [u8; 8] = *b"CHAINIQS";

/// Protocol version; bump on any change to framing, messages, or the
/// spec/result encodings.
pub const PROTO_VERSION: u16 = 2;

/// Hard ceiling on one frame's payload, so a corrupt or hostile length
/// prefix cannot ask the peer to allocate without bound.
pub const MAX_FRAME: u32 = 64 << 20;

// Ceilings on a decoded spec, a few times the largest the experiments
// use (the 1472-slot prescheduled queue, Table 1's 4-cycle load latency,
// the default sample), so no submitted spec can make a queue
// constructor allocate without bound or ask for a run that practically
// never ends.
const MAX_ENTRIES: usize = 4096;
const MAX_LATENCY: u64 = 1024;
const MAX_SAMPLE: u64 = 10 * chainiq_bench::DEFAULT_SAMPLE;

/// Why a protocol operation failed.
#[derive(Debug)]
pub enum ServeError {
    /// Socket or filesystem failure.
    Io(std::io::Error),
    /// The peer sent bytes this build cannot understand (bad magic,
    /// version, tag, or body).
    Proto(String),
    /// The server answered with a typed [`ServerMsg::Error`].
    Remote(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "serve I/O error: {e}"),
            ServeError::Proto(m) => write!(f, "serve protocol error: {m}"),
            ServeError::Remote(m) => write!(f, "server error: {m}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<CkptError> for ServeError {
    fn from(e: CkptError) -> Self {
        ServeError::Proto(e.to_string())
    }
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// Writes one length-prefixed frame and flushes.
///
/// # Errors
/// [`ServeError::Proto`] if the payload exceeds [`MAX_FRAME`],
/// [`ServeError::Io`] on socket failure.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), ServeError> {
    let len = u32::try_from(payload.len()).ok().filter(|&l| l <= MAX_FRAME).ok_or_else(|| {
        ServeError::Proto(format!("frame of {} bytes exceeds cap", payload.len()))
    })?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()?;
    Ok(())
}

/// Reads one length-prefixed frame.
///
/// # Errors
/// [`ServeError::Proto`] on an over-cap length, [`ServeError::Io`] on a
/// short or failed read.
pub fn read_frame(r: &mut impl Read) -> Result<Vec<u8>, ServeError> {
    let mut len_bytes = [0u8; 4];
    r.read_exact(&mut len_bytes)?;
    let len = u32::from_le_bytes(len_bytes);
    if len > MAX_FRAME {
        return Err(ServeError::Proto(format!("declared frame of {len} bytes exceeds cap")));
    }
    let mut buf = vec![0u8; len as usize];
    r.read_exact(&mut buf)?;
    Ok(buf)
}

// ---------------------------------------------------------------------------
// Spec canonicalization
// ---------------------------------------------------------------------------

/// Appends the canonical encoding of `spec` — the bytes [`spec_key`]
/// fingerprints and [`ClientMsg::Submit`] carries. A queue's geometry
/// is its config's checkpoint encoding.
pub fn pack_spec(spec: &RunSpec, w: &mut Writer) {
    w.put_str(spec.bench.name());
    match spec.iq {
        IqKind::Ideal(entries) => {
            w.put_u8(0);
            entries.pack(w);
        }
        IqKind::Segmented(c) => {
            w.put_u8(1);
            c.pack(w);
        }
        IqKind::Prescheduled(c) => {
            w.put_u8(2);
            c.pack(w);
        }
        IqKind::Distance(c) => {
            w.put_u8(3);
            c.pack(w);
        }
    }
    let pred = PredictorConfig::ALL.iter().position(|p| *p == spec.pred).unwrap_or(0);
    w.put_u8(pred as u8);
    spec.sample.pack(w);
    spec.seed.pack(w);
}

/// Reads back one [`pack_spec`] encoding, validating every field so a
/// malformed submission is a typed error — never a panicking or hanging
/// simulator construction.
///
/// # Errors
/// [`ServeError::Proto`] on an unknown benchmark, queue tag or
/// predictor index, a degenerate or oversize queue geometry, an
/// out-of-range load latency, or an oversize sample.
pub fn unpack_spec(r: &mut Reader<'_>) -> Result<RunSpec, ServeError> {
    let bench_name = r.take_str("bench name")?;
    let bench = Bench::from_name(&bench_name).map_err(ServeError::Proto)?;
    let iq = match r.take_u8("iq tag")? {
        0 => {
            let entries = usize::unpack(r)?;
            require_geometry(&[(entries, "ideal queue entries")], || entries, 0)?;
            IqKind::Ideal(entries)
        }
        1 => {
            let c = SegmentedIqConfig::unpack(r)?;
            let fields = [
                (c.num_segments, "segment count"),
                (c.segment_size, "segment size"),
                (c.promote_width, "promote width"),
            ];
            let latency = u64::try_from(c.predicted_load_latency).unwrap_or(u64::MAX);
            require_geometry(&fields, || c.capacity(), latency)?;
            if let Some(n) = c.max_chains.filter(|&n| n > MAX_ENTRIES) {
                return Err(ServeError::Proto(format!("chain count {n} exceeds {MAX_ENTRIES}")));
            }
            IqKind::Segmented(c)
        }
        2 => {
            let c = PrescheduleConfig::unpack(r)?;
            let fields = [
                (c.issue_buffer_size, "issue buffer size"),
                (c.num_lines, "scheduling lines"),
                (c.line_width, "line width"),
            ];
            require_geometry(&fields, || c.capacity(), c.predicted_load_latency)?;
            IqKind::Prescheduled(c)
        }
        3 => {
            let c = DistanceConfig::unpack(r)?;
            let fields = [
                (c.wait_buffer_size, "wait buffer size"),
                (c.num_lines, "scheduling lines"),
                (c.line_width, "line width"),
            ];
            require_geometry(&fields, || c.capacity(), c.predicted_load_latency)?;
            IqKind::Distance(c)
        }
        other => return Err(ServeError::Proto(format!("unknown iq tag {other}"))),
    };
    let pred_idx = r.take_u8("predictor index")? as usize;
    let pred = *PredictorConfig::ALL
        .get(pred_idx)
        .ok_or_else(|| ServeError::Proto(format!("unknown predictor index {pred_idx}")))?;
    let sample = u64::unpack(r)?;
    if sample > MAX_SAMPLE {
        return Err(ServeError::Proto(format!("sample {sample} exceeds {MAX_SAMPLE}")));
    }
    let seed = u64::unpack(r)?;
    Ok(RunSpec::new(bench, iq, pred, sample).with_seed(seed))
}

/// Rejects a decoded queue with a field outside `1..=MAX_ENTRIES` (zero
/// would make its constructor panic), more than `MAX_ENTRIES` slots in
/// all (`capacity` runs on bounded fields only, so it cannot overflow),
/// or a predicted load latency above `MAX_LATENCY`.
fn require_geometry(
    fields: &[(usize, &str)],
    capacity: impl FnOnce() -> usize,
    latency: u64,
) -> Result<(), ServeError> {
    let reject = |m: String| Err(ServeError::Proto(m));
    for &(v, what) in fields {
        if v == 0 {
            return reject(format!("{what} must be nonzero"));
        }
        if v > MAX_ENTRIES {
            return reject(format!("{what} {v} exceeds {MAX_ENTRIES}"));
        }
    }
    let n = capacity();
    if n > MAX_ENTRIES {
        return reject(format!("queue of {n} entries exceeds {MAX_ENTRIES}"));
    }
    if latency > MAX_LATENCY {
        return reject(format!("predicted load latency {latency} exceeds {MAX_LATENCY}"));
    }
    Ok(())
}

/// The content-address of a spec's result: the fingerprint of its
/// canonical encoding. Doubles as the single-flight job identity.
#[must_use]
pub fn spec_key(spec: &RunSpec) -> u64 {
    let mut w = Writer::new();
    pack_spec(spec, &mut w);
    fingerprint(w.bytes())
}

/// The result-cache file name for a spec key.
#[must_use]
pub fn entry_name(key: u64) -> String {
    format!("res-{key:016x}.bin")
}

// ---------------------------------------------------------------------------
// Server-side accounting
// ---------------------------------------------------------------------------

/// Daemon counters, returned over the wire by [`ServerMsg::Stats`].
///
/// Nothing here reads a wall clock or the environment (`clippy.toml`
/// bans both, and this crate exempts no site), so the numbers a client
/// sees are a pure function of the submissions the server handled.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ServeStats {
    /// Specs received inside accepted (non-Busy) grids.
    pub submitted: u64,
    /// Specs answered straight from the result cache.
    pub hits: u64,
    /// Specs collapsed onto an already in-flight identical job.
    pub joined: u64,
    /// Specs actually simulated by a worker.
    pub simulated: u64,
    /// Whole grids refused with [`ServerMsg::Busy`].
    pub busy: u64,
    /// Result images that could not be written to the cache (the
    /// response was still served from memory).
    pub store_failures: u64,
    /// Cache entries evicted by the size/entry cap since startup.
    pub evicted: u64,
}

chainiq::ckpt::pack_fields!(ServeStats {
    submitted,
    hits,
    joined,
    simulated,
    busy,
    store_failures,
    evicted
});

impl std::fmt::Display for ServeStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} submitted: {} hits, {} joined, {} simulated, {} busy, {} store failures, {} evicted",
            self.submitted,
            self.hits,
            self.joined,
            self.simulated,
            self.busy,
            self.store_failures,
            self.evicted
        )
    }
}

// ---------------------------------------------------------------------------
// Messages
// ---------------------------------------------------------------------------

/// Frames a client sends.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientMsg {
    /// Handshake: magic plus the client's protocol version. Must be the
    /// first frame on a connection.
    Hello {
        /// The client's [`PROTO_VERSION`].
        version: u16,
    },
    /// A grid of specs to resolve; results come back in submission
    /// order.
    Submit(
        /// The grid, in submission order.
        Vec<RunSpec>,
    ),
    /// Request the server's [`ServeStats`].
    Stats,
    /// Ask the daemon to drain its queue and exit.
    Shutdown,
}

impl ClientMsg {
    /// Encodes this message as one frame payload.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        match self {
            ClientMsg::Hello { version } => {
                w.put_u8(0);
                w.put_bytes(&MAGIC);
                w.put_u16(*version);
            }
            ClientMsg::Submit(specs) => {
                w.put_u8(1);
                w.put_u64(specs.len() as u64);
                for spec in specs {
                    pack_spec(spec, &mut w);
                }
            }
            ClientMsg::Stats => w.put_u8(2),
            ClientMsg::Shutdown => w.put_u8(3),
        }
        w.into_bytes()
    }

    /// Decodes one frame payload.
    ///
    /// # Errors
    /// [`ServeError::Proto`] on an unknown tag, bad magic, or a
    /// malformed body.
    pub fn decode(payload: &[u8]) -> Result<ClientMsg, ServeError> {
        let mut r = Reader::new(payload);
        let msg = match r.take_u8("client tag")? {
            0 => {
                let magic = r.take_bytes(MAGIC.len(), "hello magic")?;
                if magic != MAGIC {
                    return Err(ServeError::Proto("bad hello magic".to_string()));
                }
                ClientMsg::Hello { version: r.take_u16("hello version")? }
            }
            1 => {
                let n = r.take_u64("spec count")?;
                // Each spec is ≥ 20 bytes on the wire, so the count is
                // bounded by the (already capped) frame before any
                // allocation happens.
                if n > payload.len() as u64 {
                    return Err(ServeError::Proto(format!("absurd spec count {n}")));
                }
                let mut specs = Vec::with_capacity(n as usize);
                for _ in 0..n {
                    specs.push(unpack_spec(&mut r)?);
                }
                ClientMsg::Submit(specs)
            }
            2 => ClientMsg::Stats,
            3 => ClientMsg::Shutdown,
            other => return Err(ServeError::Proto(format!("unknown client tag {other}"))),
        };
        expect_exhausted(&r)?;
        Ok(msg)
    }
}

/// Frames the server sends.
#[derive(Debug, Clone, PartialEq)]
pub enum ServerMsg {
    /// Handshake acknowledgement carrying the server's version.
    HelloAck {
        /// The server's [`PROTO_VERSION`].
        version: u16,
    },
    /// The pending queue cannot take this grid; resubmit later. The
    /// grid was **not** partially enqueued.
    Busy {
        /// Jobs pending when the grid arrived.
        queued: u64,
        /// The configured queue depth.
        cap: u64,
    },
    /// The result image for the job at `index`. Sent in submission
    /// order after every job of the grid resolved.
    Result {
        /// Submission index within the grid.
        index: u64,
        /// The checkpoint-format result image ([`encode_result`]).
        image: Vec<u8>,
    },
    /// The grid is fully answered.
    GridDone {
        /// Number of results sent.
        total: u64,
    },
    /// Server counters, answering [`ClientMsg::Stats`] or
    /// [`ClientMsg::Shutdown`].
    Stats(
        /// The counters at the time of the request.
        ServeStats,
    ),
    /// The request could not be served; the connection is closed after
    /// this frame.
    Error(
        /// Human-readable description.
        String,
    ),
}

impl ServerMsg {
    /// Encodes this message as one frame payload.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        match self {
            ServerMsg::HelloAck { version } => {
                w.put_u8(0);
                w.put_u16(*version);
            }
            ServerMsg::Busy { queued, cap } => {
                w.put_u8(1);
                w.put_u64(*queued);
                w.put_u64(*cap);
            }
            ServerMsg::Result { index, image } => {
                w.put_u8(3);
                w.put_u64(*index);
                w.put_u64(image.len() as u64);
                w.put_bytes(image);
            }
            ServerMsg::GridDone { total } => {
                w.put_u8(4);
                w.put_u64(*total);
            }
            ServerMsg::Stats(stats) => {
                w.put_u8(5);
                stats.pack(&mut w);
            }
            ServerMsg::Error(message) => {
                w.put_u8(6);
                w.put_str(message);
            }
        }
        w.into_bytes()
    }

    /// Decodes one frame payload.
    ///
    /// # Errors
    /// [`ServeError::Proto`] on an unknown tag or malformed body.
    pub fn decode(payload: &[u8]) -> Result<ServerMsg, ServeError> {
        let mut r = Reader::new(payload);
        let msg = match r.take_u8("server tag")? {
            0 => ServerMsg::HelloAck { version: r.take_u16("ack version")? },
            1 => {
                ServerMsg::Busy { queued: r.take_u64("busy queued")?, cap: r.take_u64("busy cap")? }
            }
            3 => {
                let index = r.take_u64("result index")?;
                let len = r.take_len("result image length")?;
                let image = r.take_bytes(len, "result image")?.to_vec();
                ServerMsg::Result { index, image }
            }
            4 => ServerMsg::GridDone { total: r.take_u64("grid total")? },
            5 => ServerMsg::Stats(ServeStats::unpack(&mut r)?),
            6 => ServerMsg::Error(r.take_str("error message")?),
            other => return Err(ServeError::Proto(format!("unknown server tag {other}"))),
        };
        expect_exhausted(&r)?;
        Ok(msg)
    }
}

fn expect_exhausted(r: &Reader<'_>) -> Result<(), ServeError> {
    if r.is_exhausted() {
        Ok(())
    } else {
        Err(ServeError::Proto(format!("{} trailing bytes after message", r.remaining())))
    }
}

// ---------------------------------------------------------------------------
// Result images
// ---------------------------------------------------------------------------

/// Layout identity of the stored result payload, carried in the image
/// header's `config_hash` slot so a schema change invalidates old cache
/// entries by key mismatch rather than misparse.
#[must_use]
pub fn result_schema() -> u64 {
    fingerprint(b"chainiq-serve result v1")
}

/// The result payload as a checkpoint section: the full [`SimStats`]
/// plus the segmented-queue stats when that design ran.
struct StoredResult {
    result: RunResult,
}

impl Snapshot for StoredResult {
    const COMPONENT: &'static str = "run-result";
    const VERSION: u16 = 1;

    fn save(&self, w: &mut Writer) {
        self.result.stats.pack(w);
        self.result.segmented.pack(w);
    }

    fn restore(&mut self, r: &mut Reader<'_>) -> Result<(), CkptError> {
        self.result.stats = Pack::unpack(r)?;
        self.result.segmented = Pack::unpack(r)?;
        Ok(())
    }
}

/// Encodes a run's result as a self-validating checkpoint image, keyed
/// by the spec fingerprint. Deterministic: one spec, one byte string.
#[must_use]
pub fn encode_result(key: u64, sample: u64, result: &RunResult) -> Vec<u8> {
    let mut img = ImageWriter::new(CkptHeader {
        workload_fp: key,
        config_hash: result_schema(),
        warmup: sample,
    });
    img.section(&StoredResult { result: result.clone() });
    img.finish()
}

/// Decodes and validates one [`encode_result`] image, checking it is
/// keyed for `key`/`sample` and carries the current schema.
///
/// # Errors
/// [`ServeError::Proto`] on a corrupt, truncated, or differently-keyed
/// image.
pub fn decode_result(bytes: &[u8], key: u64, sample: u64) -> Result<RunResult, ServeError> {
    let mut img = ImageReader::parse(bytes)?;
    img.expect_key(CkptHeader { workload_fp: key, config_hash: result_schema(), warmup: sample })?;
    let mut stored =
        StoredResult { result: RunResult { stats: SimStats::default(), segmented: None } };
    img.section(&mut stored)?;
    img.finish()?;
    Ok(stored.result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use chainiq_bench::{ideal, prescheduled, segmented};

    fn sample_specs() -> Vec<RunSpec> {
        vec![
            RunSpec::new(Bench::Swim, ideal(32), PredictorConfig::Base, 1_000),
            RunSpec::new(Bench::Gcc, segmented(512, Some(128)), PredictorConfig::Comb, 2_000),
            RunSpec::new(Bench::Twolf, prescheduled(24), PredictorConfig::Hmp, 3_000).with_seed(7),
            RunSpec::new(
                Bench::Ammp,
                IqKind::Distance(DistanceConfig::paper_sized(8)),
                PredictorConfig::Lrp,
                4_000,
            ),
        ]
    }

    #[test]
    fn specs_round_trip_canonically() {
        for spec in sample_specs() {
            let mut w = Writer::new();
            pack_spec(&spec, &mut w);
            let bytes = w.into_bytes();
            let mut r = Reader::new(&bytes);
            let back = unpack_spec(&mut r).unwrap();
            assert!(r.is_exhausted());
            assert_eq!(back, spec);
            // Canonical: re-encoding the decoded spec is byte-identical,
            // so the fingerprint is a stable content address.
            let mut w2 = Writer::new();
            pack_spec(&back, &mut w2);
            assert_eq!(w2.bytes(), bytes.as_slice());
            assert_eq!(spec_key(&back), spec_key(&spec));
        }
    }

    /// The canonical encoding is the result cache's content address and
    /// the `serve-mix` pool's key, so its bytes are pinned: one spec per
    /// queue design. A constant changes only with a `PROTO_VERSION` bump.
    #[test]
    fn spec_keys_are_pinned() {
        let pinned = [
            0x1dc0_ab3a_9bb0_200c_u64,
            0x94c1_cfae_d690_2422,
            0x95d6_1485_0021_c017,
            0x9a65_1c73_b740_defe,
        ];
        for (spec, want) in sample_specs().iter().zip(pinned) {
            let got = spec_key(spec);
            assert_eq!(got, want, "{spec:?}: spec key changed ({got:#018x})");
        }
    }

    #[test]
    fn distinct_specs_get_distinct_keys() {
        let specs = sample_specs();
        let mut keys: Vec<u64> = specs.iter().map(spec_key).collect();
        let base = specs[0];
        keys.push(spec_key(&base.with_seed(base.seed + 1)));
        keys.push(spec_key(&RunSpec { sample: base.sample + 1, ..base }));
        keys.push(spec_key(&RunSpec { pred: PredictorConfig::Comb, ..base }));
        let distinct: std::collections::BTreeSet<u64> = keys.iter().copied().collect();
        assert_eq!(distinct.len(), keys.len(), "every field must feed the key");
    }

    #[test]
    fn degenerate_geometry_is_rejected_not_panicking() {
        // A zero queue size on the wire must come back as a typed error;
        // constructing the config directly would panic later.
        let firsts =
            ["ideal queue entries", "segment count", "issue buffer size", "wait buffer size"];
        for (spec, what) in sample_specs().iter().zip(firsts) {
            let mut w = Writer::new();
            pack_spec(spec, &mut w);
            let mut bytes = w.into_bytes();
            // The queue's first usize follows the length-prefixed bench
            // name and the one-byte iq tag.
            let at = 8 + spec.bench.name().len() + 1;
            bytes[at..at + 8].fill(0);
            let err = unpack_spec(&mut Reader::new(&bytes)).unwrap_err();
            assert!(matches!(err, ServeError::Proto(ref m) if m.contains(what)), "{err}");
        }
    }

    /// Every oversize field, each queue design's oversize total, an
    /// out-of-range latency and an oversize sample come back as typed
    /// errors. Only configs are built, never a queue, so nothing here
    /// allocates the sizes it names.
    #[test]
    fn oversize_specs_are_rejected_not_allocated() {
        let huge = 1usize << 40;
        let seg = SegmentedIqConfig::paper(512, Some(128));
        let pre = PrescheduleConfig::paper(8);
        let dist = DistanceConfig::paper_sized(8);
        let cases: Vec<(IqKind, u64, &str)> = vec![
            (IqKind::Ideal(huge), 1_000, "ideal queue entries"),
            (IqKind::Ideal(MAX_ENTRIES + 1), 1_000, "ideal queue entries"),
            (
                IqKind::Segmented(SegmentedIqConfig { num_segments: huge, ..seg }),
                1_000,
                "segment count",
            ),
            (
                IqKind::Segmented(SegmentedIqConfig { segment_size: huge, ..seg }),
                1_000,
                "segment size",
            ),
            (
                IqKind::Segmented(SegmentedIqConfig { promote_width: huge, ..seg }),
                1_000,
                "promote width",
            ),
            (
                IqKind::Segmented(SegmentedIqConfig { max_chains: Some(huge), ..seg }),
                1_000,
                "chain count",
            ),
            (
                IqKind::Segmented(SegmentedIqConfig {
                    num_segments: 4096,
                    segment_size: 4096,
                    ..seg
                }),
                1_000,
                "queue of 16777216 entries",
            ),
            (
                IqKind::Segmented(SegmentedIqConfig { predicted_load_latency: -1, ..seg }),
                1_000,
                "predicted load latency",
            ),
            (
                IqKind::Prescheduled(PrescheduleConfig { num_lines: huge, ..pre }),
                1_000,
                "scheduling lines",
            ),
            (
                IqKind::Prescheduled(PrescheduleConfig { num_lines: 4096, line_width: 12, ..pre }),
                1_000,
                "queue of 49184 entries",
            ),
            (
                IqKind::Prescheduled(PrescheduleConfig { predicted_load_latency: u64::MAX, ..pre }),
                1_000,
                "predicted load latency",
            ),
            (
                IqKind::Distance(DistanceConfig { wait_buffer_size: huge, ..dist }),
                1_000,
                "wait buffer size",
            ),
            (
                IqKind::Distance(DistanceConfig { line_width: 4096, ..dist }),
                1_000,
                "queue of 32800 entries",
            ),
            (IqKind::Ideal(512), MAX_SAMPLE + 1, "sample"),
        ];
        for (iq, sample, what) in cases {
            let spec = RunSpec::new(Bench::Gcc, iq, PredictorConfig::Base, sample);
            let mut w = Writer::new();
            pack_spec(&spec, &mut w);
            let err = unpack_spec(&mut Reader::new(w.bytes())).unwrap_err();
            assert!(matches!(err, ServeError::Proto(ref m) if m.contains(what)), "{what}: {err}");
        }
    }

    /// The largest geometries and the sample the experiments use decode.
    #[test]
    fn experiment_specs_are_within_bounds() {
        let largest = [
            ideal(512),
            segmented(512, None),
            prescheduled(120),
            IqKind::Distance(DistanceConfig::paper_sized(24)),
        ];
        for iq in largest {
            let spec =
                RunSpec::new(Bench::Swim, iq, PredictorConfig::Comb, chainiq_bench::DEFAULT_SAMPLE);
            let mut w = Writer::new();
            pack_spec(&spec, &mut w);
            assert_eq!(unpack_spec(&mut Reader::new(w.bytes())).unwrap(), spec);
        }
    }

    #[test]
    fn client_messages_round_trip() {
        let msgs = vec![
            ClientMsg::Hello { version: PROTO_VERSION },
            ClientMsg::Submit(sample_specs()),
            ClientMsg::Submit(Vec::new()),
            ClientMsg::Stats,
            ClientMsg::Shutdown,
        ];
        for msg in msgs {
            let payload = msg.encode();
            assert_eq!(ClientMsg::decode(&payload).unwrap(), msg);
        }
    }

    #[test]
    fn server_messages_round_trip() {
        let msgs = vec![
            ServerMsg::HelloAck { version: PROTO_VERSION },
            ServerMsg::Busy { queued: 3, cap: 2 },
            ServerMsg::Result { index: 0, image: vec![1, 2, 3] },
            ServerMsg::GridDone { total: 4 },
            ServerMsg::Stats(ServeStats { submitted: 9, hits: 5, ..ServeStats::default() }),
            ServerMsg::Error("nope".to_string()),
        ];
        for msg in msgs {
            let payload = msg.encode();
            assert_eq!(ServerMsg::decode(&payload).unwrap(), msg);
        }
    }

    #[test]
    fn bad_magic_version_tag_and_trailing_bytes_are_typed_errors() {
        let mut hello = ClientMsg::Hello { version: PROTO_VERSION }.encode();
        hello[1] = b'X';
        assert!(matches!(ClientMsg::decode(&hello), Err(ServeError::Proto(_))));
        assert!(matches!(ClientMsg::decode(&[99]), Err(ServeError::Proto(_))));
        assert!(matches!(ServerMsg::decode(&[99]), Err(ServeError::Proto(_))));
        // Tag 2 carried version 1's progress notes; it is retired, not reused.
        assert!(
            matches!(ServerMsg::decode(&[2]), Err(ServeError::Proto(m)) if m == "unknown server tag 2")
        );
        let mut trailing = ClientMsg::Stats.encode();
        trailing.push(0);
        assert!(matches!(ClientMsg::decode(&trailing), Err(ServeError::Proto(_))));
        assert!(matches!(ClientMsg::decode(&[]), Err(ServeError::Proto(_))));
    }

    #[test]
    fn frames_round_trip_and_reject_oversize() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        assert_eq!(read_frame(&mut cursor).unwrap(), b"hello");
        assert_eq!(read_frame(&mut cursor).unwrap(), b"");
        assert!(matches!(read_frame(&mut cursor), Err(ServeError::Io(_))), "clean EOF is I/O");

        let huge = (MAX_FRAME + 1).to_le_bytes();
        let mut cursor = std::io::Cursor::new(huge.to_vec());
        assert!(matches!(read_frame(&mut cursor), Err(ServeError::Proto(_))));
    }

    #[test]
    fn result_images_round_trip_and_validate_keys() {
        let spec = RunSpec::new(Bench::Swim, ideal(32), PredictorConfig::Base, 1_000);
        let result = spec.execute();
        let key = spec_key(&spec);
        let bytes = encode_result(key, spec.sample, &result);
        assert_eq!(bytes, encode_result(key, spec.sample, &result), "encoding is deterministic");
        let back = decode_result(&bytes, key, spec.sample).unwrap();
        assert_eq!(back.stats.cycles, result.stats.cycles);
        assert_eq!(back.stats.committed, result.stats.committed);
        assert_eq!(back.segmented.is_some(), result.segmented.is_some());
        // Keyed for a different spec → typed rejection.
        assert!(decode_result(&bytes, key ^ 1, spec.sample).is_err());
        assert!(decode_result(&bytes, key, spec.sample + 1).is_err());
        // Corruption → typed rejection.
        let mut evil = bytes.clone();
        evil[20] ^= 1;
        assert!(decode_result(&evil, key, spec.sample).is_err());
    }

    #[test]
    fn stats_pack_round_trips() {
        let stats = ServeStats {
            submitted: 1,
            hits: 2,
            joined: 3,
            simulated: 4,
            busy: 5,
            store_failures: 6,
            evicted: 7,
        };
        let mut w = Writer::new();
        stats.pack(&mut w);
        let bytes = w.into_bytes();
        assert_eq!(ServeStats::unpack(&mut Reader::new(&bytes)).unwrap(), stats);
        let line = stats.to_string();
        assert!(line.contains("2 hits") && line.contains("6 store failures"), "{line}");
    }

    #[test]
    fn entry_names_are_stable_and_valid_cache_keys() {
        assert_eq!(entry_name(0xdead_beef), "res-00000000deadbeef.bin");
    }
}
