//! `chainiq-ckpt` — versioned, fingerprinted binary serialization of
//! machine state, with zero external dependencies.
//!
//! The simulator re-simulates every sweep point from cycle 0; the paper's
//! methodology instead samples at checkpoints. This crate is the
//! substrate for warm-started grids: every stateful component implements
//! [`Snapshot`], the pipeline composes component sections into one
//! checkpoint image, and `bench` caches images keyed by (workload
//! fingerprint, config hash).
//!
//! # Format
//!
//! A checkpoint image is:
//!
//! ```text
//! magic            8 bytes  b"CHAINIQK"
//! format version   u16      FORMAT_VERSION; any mismatch rejects
//! workload fp      u64      caller-supplied identity of the instruction stream
//! config hash      u64      caller-supplied identity of the machine config
//! warmup           u64      instructions committed before the snapshot
//! sections         ...      length-prefixed, individually fingerprinted
//! file fingerprint u64      FNV-1a over every preceding byte
//! ```
//!
//! Each section is `name (len-prefixed str) · component version (u16) ·
//! payload length (u64) · payload · payload fingerprint (u64)`. Readers
//! validate magic, format version, section names/versions, both
//! fingerprint layers, and every length against the remaining buffer —
//! a stale, truncated or corrupted image produces a typed [`CkptError`],
//! never a panic and never a partial restore (restore errors are
//! surfaced before any caller uses the half-written state; callers
//! discard the component on error).
//!
//! # Versioning policy
//!
//! [`FORMAT_VERSION`] covers the container layout; each component carries
//! its own [`Snapshot::VERSION`] covering its payload layout. Any change
//! to a packed field list must bump the owning component's version (or
//! the container version for framing changes); old images are then
//! rejected with [`CkptError::ComponentVersion`] instead of being
//! silently misread. There is no cross-version migration: checkpoints
//! are a cache, the cold path always exists.

#![deny(missing_docs)]

pub mod cache;

pub use cache::{CacheDir, CacheTally};

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;
use std::path::{Path, PathBuf};

/// Container format version; bump on any framing change.
pub const FORMAT_VERSION: u16 = 1;

/// Leading magic of every checkpoint image.
pub const MAGIC: [u8; 8] = *b"CHAINIQK";

/// Why a checkpoint image was rejected.
#[derive(Debug)]
pub enum CkptError {
    /// The buffer ended before the declared content did.
    Truncated {
        /// What was being read when the bytes ran out.
        context: &'static str,
    },
    /// The image does not start with [`MAGIC`].
    BadMagic,
    /// The container format version differs from [`FORMAT_VERSION`].
    FormatVersion {
        /// Version found in the image.
        found: u16,
    },
    /// A section's name or version differs from what the reader expects.
    ComponentVersion {
        /// Section name found in the image.
        component: String,
        /// Version found in the image.
        found: u16,
        /// Version the running binary expects.
        expected: u16,
    },
    /// A fingerprint check failed: the bytes were altered after writing.
    FingerprintMismatch {
        /// Which fingerprint layer failed (`"file"` or a section name).
        context: String,
    },
    /// The image is keyed for a different workload or configuration.
    KeyMismatch {
        /// Human-readable description of the mismatching key.
        context: String,
    },
    /// The payload decoded to an invalid value (bad enum tag, bad bool,
    /// geometry that contradicts the restoring component's config).
    Corrupt {
        /// What was being decoded.
        context: String,
    },
    /// An I/O failure reading or writing a checkpoint file.
    Io(std::io::Error),
}

impl fmt::Display for CkptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CkptError::Truncated { context } => {
                write!(f, "checkpoint truncated while reading {context}")
            }
            CkptError::BadMagic => write!(f, "not a chainiq checkpoint (bad magic)"),
            CkptError::FormatVersion { found } => {
                write!(f, "checkpoint format version {found}, this build reads {FORMAT_VERSION}")
            }
            CkptError::ComponentVersion { component, found, expected } => write!(
                f,
                "checkpoint section `{component}` has version {found}, this build reads {expected}"
            ),
            CkptError::FingerprintMismatch { context } => {
                write!(f, "checkpoint fingerprint mismatch in {context} (corrupted image)")
            }
            CkptError::KeyMismatch { context } => {
                write!(f, "checkpoint keyed for a different run: {context}")
            }
            CkptError::Corrupt { context } => {
                write!(f, "checkpoint payload is corrupt: {context}")
            }
            CkptError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
        }
    }
}

impl std::error::Error for CkptError {}

impl From<std::io::Error> for CkptError {
    fn from(e: std::io::Error) -> Self {
        CkptError::Io(e)
    }
}

/// 64-bit FNV-1a over `bytes` — the content fingerprint of payloads and
/// whole images. Not cryptographic; it guards against corruption and
/// stale partial writes, not adversaries.
#[must_use]
pub fn fingerprint(bytes: &[u8]) -> u64 {
    let mut h = FpHasher::new();
    h.write_bytes(bytes);
    h.finish()
}

/// Incremental FNV-1a hasher, used for content fingerprints and for the
/// (workload, config) cache keys.
#[derive(Debug, Clone)]
pub struct FpHasher {
    state: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Default for FpHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl FpHasher {
    /// A fresh hasher at the FNV offset basis.
    #[must_use]
    pub fn new() -> Self {
        FpHasher { state: FNV_OFFSET }
    }

    /// Folds raw bytes into the state.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Folds a `u64` (little-endian) into the state.
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Folds an `i64` into the state.
    pub fn write_i64(&mut self, v: i64) {
        self.write_u64(v as u64);
    }

    /// Folds a `bool` into the state.
    pub fn write_bool(&mut self, v: bool) {
        self.write_bytes(&[u8::from(v)]);
    }

    /// Folds an `f64` (bit pattern) into the state.
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Folds a length-prefixed string into the state (prefix keeps
    /// `"ab" + "c"` distinct from `"a" + "bc"`).
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write_bytes(s.as_bytes());
    }

    /// The current digest.
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.state
    }
}

// ---------------------------------------------------------------------------
// Writer / Reader
// ---------------------------------------------------------------------------

/// An append-only byte buffer all `pack` methods write into.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    #[must_use]
    pub fn new() -> Self {
        Writer { buf: Vec::new() }
    }

    /// Bytes written so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer, yielding the buffer.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// The bytes written so far.
    #[must_use]
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Appends raw bytes.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_u64(s.len() as u64);
        self.put_bytes(s.as_bytes());
    }
}

/// A cursor over a checkpoint image; every read is bounds-checked and
/// returns [`CkptError::Truncated`] instead of panicking.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A cursor over `buf` starting at offset 0.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes left unread.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether the cursor has consumed the whole buffer.
    #[must_use]
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    /// Takes `n` raw bytes.
    ///
    /// # Errors
    /// [`CkptError::Truncated`] if fewer than `n` bytes remain.
    pub fn take_bytes(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], CkptError> {
        if self.remaining() < n {
            return Err(CkptError::Truncated { context });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Takes one byte.
    ///
    /// # Errors
    /// [`CkptError::Truncated`] at end of buffer.
    pub fn take_u8(&mut self, context: &'static str) -> Result<u8, CkptError> {
        Ok(self.take_bytes(1, context)?[0])
    }

    /// Takes a little-endian `u16`.
    ///
    /// # Errors
    /// [`CkptError::Truncated`] at end of buffer.
    pub fn take_u16(&mut self, context: &'static str) -> Result<u16, CkptError> {
        let b = self.take_bytes(2, context)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Takes a little-endian `u32`.
    ///
    /// # Errors
    /// [`CkptError::Truncated`] at end of buffer.
    pub fn take_u32(&mut self, context: &'static str) -> Result<u32, CkptError> {
        let b = self.take_bytes(4, context)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Takes a little-endian `u64`.
    ///
    /// # Errors
    /// [`CkptError::Truncated`] at end of buffer.
    pub fn take_u64(&mut self, context: &'static str) -> Result<u64, CkptError> {
        let b = self.take_bytes(8, context)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    /// Takes a length-prefixed UTF-8 string.
    ///
    /// # Errors
    /// [`CkptError::Truncated`] on short buffers, [`CkptError::Corrupt`]
    /// on invalid UTF-8 or an absurd length.
    pub fn take_str(&mut self, context: &'static str) -> Result<String, CkptError> {
        let len = self.take_len(context)?;
        let bytes = self.take_bytes(len, context)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| CkptError::Corrupt { context: format!("{context}: invalid UTF-8") })
    }

    /// Takes a `u64` length prefix, validated against the remaining
    /// buffer so a corrupted length cannot cause a huge allocation.
    ///
    /// # Errors
    /// [`CkptError::Truncated`] if the declared length exceeds what
    /// remains.
    pub fn take_len(&mut self, context: &'static str) -> Result<usize, CkptError> {
        let len = self.take_u64(context)?;
        if len > self.remaining() as u64 {
            return Err(CkptError::Truncated { context });
        }
        Ok(len as usize)
    }
}

// ---------------------------------------------------------------------------
// Pack: field-level serialization
// ---------------------------------------------------------------------------

/// Symmetric binary encode/decode for one value. Component crates
/// implement this for their own state structs; this crate provides the
/// primitive and container impls.
pub trait Pack: Sized {
    /// Appends this value's encoding to `w`.
    fn pack(&self, w: &mut Writer);

    /// Decodes one value from `r`.
    ///
    /// # Errors
    /// Any [`CkptError`] on truncated or invalid input.
    fn unpack(r: &mut Reader<'_>) -> Result<Self, CkptError>;
}

impl Pack for u8 {
    fn pack(&self, w: &mut Writer) {
        w.put_u8(*self);
    }
    fn unpack(r: &mut Reader<'_>) -> Result<Self, CkptError> {
        r.take_u8("u8")
    }
}

impl Pack for u16 {
    fn pack(&self, w: &mut Writer) {
        w.put_u16(*self);
    }
    fn unpack(r: &mut Reader<'_>) -> Result<Self, CkptError> {
        r.take_u16("u16")
    }
}

impl Pack for u32 {
    fn pack(&self, w: &mut Writer) {
        w.put_u32(*self);
    }
    fn unpack(r: &mut Reader<'_>) -> Result<Self, CkptError> {
        r.take_u32("u32")
    }
}

impl Pack for u64 {
    fn pack(&self, w: &mut Writer) {
        w.put_u64(*self);
    }
    fn unpack(r: &mut Reader<'_>) -> Result<Self, CkptError> {
        r.take_u64("u64")
    }
}

impl Pack for i64 {
    fn pack(&self, w: &mut Writer) {
        w.put_u64(*self as u64);
    }
    fn unpack(r: &mut Reader<'_>) -> Result<Self, CkptError> {
        Ok(r.take_u64("i64")? as i64)
    }
}

impl Pack for usize {
    fn pack(&self, w: &mut Writer) {
        w.put_u64(*self as u64);
    }
    fn unpack(r: &mut Reader<'_>) -> Result<Self, CkptError> {
        let v = r.take_u64("usize")?;
        usize::try_from(v)
            .map_err(|_| CkptError::Corrupt { context: format!("usize out of range: {v}") })
    }
}

impl Pack for bool {
    fn pack(&self, w: &mut Writer) {
        w.put_u8(u8::from(*self));
    }
    fn unpack(r: &mut Reader<'_>) -> Result<Self, CkptError> {
        match r.take_u8("bool")? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(CkptError::Corrupt { context: format!("bool byte {other}") }),
        }
    }
}

impl Pack for f64 {
    fn pack(&self, w: &mut Writer) {
        w.put_u64(self.to_bits());
    }
    fn unpack(r: &mut Reader<'_>) -> Result<Self, CkptError> {
        Ok(f64::from_bits(r.take_u64("f64")?))
    }
}

impl Pack for String {
    fn pack(&self, w: &mut Writer) {
        w.put_str(self);
    }
    fn unpack(r: &mut Reader<'_>) -> Result<Self, CkptError> {
        r.take_str("string")
    }
}

impl<T: Pack> Pack for Option<T> {
    fn pack(&self, w: &mut Writer) {
        match self {
            None => w.put_u8(0),
            Some(v) => {
                w.put_u8(1);
                v.pack(w);
            }
        }
    }
    fn unpack(r: &mut Reader<'_>) -> Result<Self, CkptError> {
        match r.take_u8("option tag")? {
            0 => Ok(None),
            1 => Ok(Some(T::unpack(r)?)),
            other => Err(CkptError::Corrupt { context: format!("option tag {other}") }),
        }
    }
}

impl<T: Pack> Pack for Vec<T> {
    fn pack(&self, w: &mut Writer) {
        w.put_u64(self.len() as u64);
        for v in self {
            v.pack(w);
        }
    }
    fn unpack(r: &mut Reader<'_>) -> Result<Self, CkptError> {
        // Elements are at least one byte, so the length prefix is checked
        // against the remaining buffer before any allocation.
        let n = r.take_len("vec length")?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::unpack(r)?);
        }
        Ok(out)
    }
}

impl<T: Pack> Pack for VecDeque<T> {
    fn pack(&self, w: &mut Writer) {
        w.put_u64(self.len() as u64);
        for v in self {
            v.pack(w);
        }
    }
    fn unpack(r: &mut Reader<'_>) -> Result<Self, CkptError> {
        Ok(Vec::<T>::unpack(r)?.into())
    }
}

impl<K: Pack + Ord, V: Pack> Pack for BTreeMap<K, V> {
    fn pack(&self, w: &mut Writer) {
        w.put_u64(self.len() as u64);
        for (k, v) in self {
            k.pack(w);
            v.pack(w);
        }
    }
    fn unpack(r: &mut Reader<'_>) -> Result<Self, CkptError> {
        let n = r.take_len("map length")?;
        let mut out = BTreeMap::new();
        for _ in 0..n {
            let k = K::unpack(r)?;
            let v = V::unpack(r)?;
            out.insert(k, v);
        }
        Ok(out)
    }
}

impl<T: Pack + Ord> Pack for BTreeSet<T> {
    fn pack(&self, w: &mut Writer) {
        w.put_u64(self.len() as u64);
        for v in self {
            v.pack(w);
        }
    }
    fn unpack(r: &mut Reader<'_>) -> Result<Self, CkptError> {
        let n = r.take_len("set length")?;
        let mut out = BTreeSet::new();
        for _ in 0..n {
            out.insert(T::unpack(r)?);
        }
        Ok(out)
    }
}

impl<A: Pack, B: Pack> Pack for (A, B) {
    fn pack(&self, w: &mut Writer) {
        self.0.pack(w);
        self.1.pack(w);
    }
    fn unpack(r: &mut Reader<'_>) -> Result<Self, CkptError> {
        Ok((A::unpack(r)?, B::unpack(r)?))
    }
}

impl<A: Pack, B: Pack, C: Pack> Pack for (A, B, C) {
    fn pack(&self, w: &mut Writer) {
        self.0.pack(w);
        self.1.pack(w);
        self.2.pack(w);
    }
    fn unpack(r: &mut Reader<'_>) -> Result<Self, CkptError> {
        Ok((A::unpack(r)?, B::unpack(r)?, C::unpack(r)?))
    }
}

impl<T: Pack, const N: usize> Pack for [T; N] {
    fn pack(&self, w: &mut Writer) {
        for v in self {
            v.pack(w);
        }
    }
    fn unpack(r: &mut Reader<'_>) -> Result<Self, CkptError> {
        let mut out = Vec::with_capacity(N);
        for _ in 0..N {
            out.push(T::unpack(r)?);
        }
        out.try_into().map_err(|_| CkptError::Corrupt { context: "array arity".to_string() })
    }
}

// ---------------------------------------------------------------------------
// Sparse tables
// ---------------------------------------------------------------------------

/// Appends a fixed-length table sparsely: its length, then the number of
/// entries that differ from `default`, then each such `(index, value)`
/// pair in ascending index order. A table the run barely touched costs a
/// few bytes however large its geometry.
pub fn save_sparse<T: Pack + PartialEq>(w: &mut Writer, table: &[T], default: &T) {
    w.put_u64(table.len() as u64);
    let count_at = w.len();
    w.put_u64(0);
    let mut count = 0u64;
    for (i, v) in table.iter().enumerate() {
        if v != default {
            w.put_u64(i as u64);
            v.pack(w);
            count += 1;
        }
    }
    w.buf[count_at..count_at + 8].copy_from_slice(&count.to_le_bytes());
}

/// Restores a table written by [`save_sparse`] into `table`, which the
/// owning component has already built to its geometry: every entry is
/// reset to `default`, then the saved pairs are written in.
///
/// # Errors
/// [`CkptError::Corrupt`] if the saved length differs from
/// `table.len()` or an index is not strictly ascending and below the
/// length; [`CkptError::Truncated`] if the pair count cannot fit in the
/// remaining bytes; plus whatever unpacking a value reports.
pub fn restore_sparse<T: Pack + Clone>(
    r: &mut Reader<'_>,
    table: &mut [T],
    default: &T,
    context: &'static str,
) -> Result<(), CkptError> {
    let len = r.take_u64(context)?;
    if len != table.len() as u64 {
        return Err(CkptError::Corrupt {
            context: format!("{context}: {len} entries, this machine has {}", table.len()),
        });
    }
    let count = r.take_u64(context)?;
    // Every pair carries at least its 8-byte index.
    if count > (r.remaining() / 8) as u64 {
        return Err(CkptError::Truncated { context });
    }
    table.fill(default.clone());
    let mut next = 0u64;
    for _ in 0..count {
        let i = r.take_u64(context)?;
        if i < next || i >= len {
            return Err(CkptError::Corrupt {
                context: format!("{context}: index {i} out of order or past {len}"),
            });
        }
        table[i as usize] = T::unpack(r)?;
        next = i + 1;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Snapshot: component-level sections
// ---------------------------------------------------------------------------

/// A component whose full mutable state can be saved into (and restored
/// from) a named, versioned, fingerprinted checkpoint section.
///
/// `restore` runs on an *already constructed* component (the caller
/// rebuilds it from the run's configuration first) and overwrites every
/// piece of mutable state, so that continuing the simulation after a
/// restore is cycle-for-cycle identical to never having stopped.
/// Implementations must not read clocks or the environment, directly or
/// through a helper — snapshots are pure functions of machine state
/// (enforced by `chainiq-analyze` rule T1, for which every `Snapshot`
/// method is a sink).
pub trait Snapshot {
    /// Stable section name, unique per component.
    const COMPONENT: &'static str;
    /// Payload layout version; bump whenever the packed field list
    /// changes.
    const VERSION: u16;

    /// Packs the component's mutable state.
    fn save(&self, w: &mut Writer);

    /// Overwrites this component's mutable state from `r`.
    ///
    /// # Errors
    /// Any [`CkptError`] on truncated, corrupt, or incompatible input.
    fn restore(&mut self, r: &mut Reader<'_>) -> Result<(), CkptError>;
}

/// Writes one component as a framed section: name, version, payload
/// length, payload, payload fingerprint.
pub fn save_section<T: Snapshot + ?Sized>(w: &mut Writer, component: &T) {
    w.put_str(T::COMPONENT);
    w.put_u16(T::VERSION);
    let mut body = Writer::new();
    component.save(&mut body);
    let payload = body.into_bytes();
    w.put_u64(payload.len() as u64);
    w.put_bytes(&payload);
    w.put_u64(fingerprint(&payload));
}

/// Reads one framed section and restores `component` from it, checking
/// name, version, length and fingerprint first.
///
/// # Errors
/// [`CkptError::ComponentVersion`] on a name or version mismatch,
/// [`CkptError::FingerprintMismatch`] on altered payload bytes,
/// [`CkptError::Truncated`]/[`CkptError::Corrupt`] on malformed framing,
/// plus whatever the component's own `restore` reports.
pub fn restore_section<T: Snapshot + ?Sized>(
    r: &mut Reader<'_>,
    component: &mut T,
) -> Result<(), CkptError> {
    let name = r.take_str("section name")?;
    let version = r.take_u16("section version")?;
    if name != T::COMPONENT || version != T::VERSION {
        return Err(CkptError::ComponentVersion {
            component: name,
            found: version,
            expected: T::VERSION,
        });
    }
    let len = r.take_len("section length")?;
    let payload = r.take_bytes(len, "section payload")?;
    let fp = r.take_u64("section fingerprint")?;
    if fingerprint(payload) != fp {
        return Err(CkptError::FingerprintMismatch { context: name });
    }
    let mut body = Reader::new(payload);
    component.restore(&mut body)?;
    if !body.is_exhausted() {
        return Err(CkptError::Corrupt {
            context: format!("section `{}` has {} trailing bytes", T::COMPONENT, body.remaining()),
        });
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Whole-image framing
// ---------------------------------------------------------------------------

/// The identity block at the head of every checkpoint image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CkptHeader {
    /// Fingerprint of the instruction stream feeding the run (benchmark
    /// profile + generator seed).
    pub workload_fp: u64,
    /// Hash of every configuration input that shapes machine state.
    pub config_hash: u64,
    /// Instructions committed before the snapshot was taken.
    pub warmup: u64,
}

/// Builds a checkpoint image: header, then sections, then the trailing
/// whole-file fingerprint.
#[derive(Debug)]
pub struct ImageWriter {
    w: Writer,
}

impl ImageWriter {
    /// Starts an image with the given identity header.
    #[must_use]
    pub fn new(header: CkptHeader) -> Self {
        let mut w = Writer::new();
        w.put_bytes(&MAGIC);
        w.put_u16(FORMAT_VERSION);
        w.put_u64(header.workload_fp);
        w.put_u64(header.config_hash);
        w.put_u64(header.warmup);
        ImageWriter { w }
    }

    /// Appends one component section.
    pub fn section<T: Snapshot + ?Sized>(&mut self, component: &T) {
        save_section(&mut self.w, component);
    }

    /// Seals the image with its whole-file fingerprint and returns the
    /// bytes.
    #[must_use]
    pub fn finish(self) -> Vec<u8> {
        let mut buf = self.w.into_bytes();
        let fp = fingerprint(&buf);
        buf.extend_from_slice(&fp.to_le_bytes());
        buf
    }
}

/// Parses and validates a checkpoint image's framing, then yields its
/// sections in order.
#[derive(Debug)]
pub struct ImageReader<'a> {
    header: CkptHeader,
    r: Reader<'a>,
}

impl<'a> ImageReader<'a> {
    /// Validates magic, format version and the whole-file fingerprint.
    ///
    /// # Errors
    /// [`CkptError::BadMagic`], [`CkptError::FormatVersion`],
    /// [`CkptError::FingerprintMismatch`] or [`CkptError::Truncated`].
    pub fn parse(bytes: &'a [u8]) -> Result<Self, CkptError> {
        if bytes.len() < MAGIC.len() + 8 {
            return Err(CkptError::Truncated { context: "image header" });
        }
        let (body, tail) = bytes.split_at(bytes.len() - 8);
        let declared = u64::from_le_bytes([
            tail[0], tail[1], tail[2], tail[3], tail[4], tail[5], tail[6], tail[7],
        ]);
        if body.len() < MAGIC.len() || body[..MAGIC.len()] != MAGIC {
            return Err(CkptError::BadMagic);
        }
        if fingerprint(body) != declared {
            return Err(CkptError::FingerprintMismatch { context: "file".to_string() });
        }
        let mut r = Reader::new(body);
        let _ = r.take_bytes(MAGIC.len(), "magic")?;
        let version = r.take_u16("format version")?;
        if version != FORMAT_VERSION {
            return Err(CkptError::FormatVersion { found: version });
        }
        let header = CkptHeader {
            workload_fp: r.take_u64("workload fingerprint")?,
            config_hash: r.take_u64("config hash")?,
            warmup: r.take_u64("warmup count")?,
        };
        Ok(ImageReader { header, r })
    }

    /// The identity header of this image.
    #[must_use]
    pub fn header(&self) -> CkptHeader {
        self.header
    }

    /// Validates this image's identity against the run about to restore
    /// from it.
    ///
    /// # Errors
    /// [`CkptError::KeyMismatch`] naming the first differing field.
    pub fn expect_key(&self, expected: CkptHeader) -> Result<(), CkptError> {
        let found = self.header;
        if found.workload_fp != expected.workload_fp {
            return Err(CkptError::KeyMismatch {
                context: format!(
                    "workload fingerprint {:#018x}, expected {:#018x}",
                    found.workload_fp, expected.workload_fp
                ),
            });
        }
        if found.config_hash != expected.config_hash {
            return Err(CkptError::KeyMismatch {
                context: format!(
                    "config hash {:#018x}, expected {:#018x}",
                    found.config_hash, expected.config_hash
                ),
            });
        }
        if found.warmup != expected.warmup {
            return Err(CkptError::KeyMismatch {
                context: format!("warmup {}, expected {}", found.warmup, expected.warmup),
            });
        }
        Ok(())
    }

    /// Restores the next section into `component`.
    ///
    /// # Errors
    /// Propagates [`restore_section`]'s errors.
    pub fn section<T: Snapshot + ?Sized>(&mut self, component: &mut T) -> Result<(), CkptError> {
        restore_section(&mut self.r, component)
    }

    /// Confirms every byte of the image has been consumed.
    ///
    /// # Errors
    /// [`CkptError::Corrupt`] if sections remain unread.
    pub fn finish(self) -> Result<(), CkptError> {
        if !self.r.is_exhausted() {
            return Err(CkptError::Corrupt {
                context: format!("{} trailing bytes after the last section", self.r.remaining()),
            });
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// File I/O
// ---------------------------------------------------------------------------

/// Reads a checkpoint image from disk.
///
/// # Errors
/// [`CkptError::Io`] on any filesystem failure.
pub fn read_image(path: &Path) -> Result<Vec<u8>, CkptError> {
    Ok(std::fs::read(path)?)
}

/// Atomically writes a checkpoint image: the bytes land under a unique
/// temporary name in the destination directory and are renamed into
/// place, so concurrent readers (parallel sweep workers) either see the
/// complete image or none at all, and concurrent writers of the same key
/// harmlessly last-write-win the identical bytes.
///
/// # Errors
/// [`CkptError::Io`] on any filesystem failure.
pub fn write_image_atomic(path: &Path, bytes: &[u8]) -> Result<(), CkptError> {
    let dir = path.parent().map(Path::to_path_buf).unwrap_or_else(|| PathBuf::from("."));
    std::fs::create_dir_all(&dir)?;
    let tmp = dir.join(format!(
        ".{}.tmp.{}.{}",
        path.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_default(),
        std::process::id(),
        next_tmp_id(),
    ));
    let result = std::fs::write(&tmp, bytes).and_then(|()| std::fs::rename(&tmp, path));
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result.map_err(CkptError::Io)
}

/// Process-wide counter making concurrent temp names unique across
/// threads of one sweep (the pid handles cross-process uniqueness).
fn next_tmp_id() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = Writer::new();
        42u8.pack(&mut w);
        7u16.pack(&mut w);
        9u32.pack(&mut w);
        u64::MAX.pack(&mut w);
        (-5i64).pack(&mut w);
        123usize.pack(&mut w);
        true.pack(&mut w);
        false.pack(&mut w);
        1.5f64.pack(&mut w);
        "héllo".to_string().pack(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(u8::unpack(&mut r).unwrap(), 42);
        assert_eq!(u16::unpack(&mut r).unwrap(), 7);
        assert_eq!(u32::unpack(&mut r).unwrap(), 9);
        assert_eq!(u64::unpack(&mut r).unwrap(), u64::MAX);
        assert_eq!(i64::unpack(&mut r).unwrap(), -5);
        assert_eq!(usize::unpack(&mut r).unwrap(), 123);
        assert!(bool::unpack(&mut r).unwrap());
        assert!(!bool::unpack(&mut r).unwrap());
        assert_eq!(f64::unpack(&mut r).unwrap(), 1.5);
        assert_eq!(String::unpack(&mut r).unwrap(), "héllo");
        assert!(r.is_exhausted());
    }

    #[test]
    fn containers_round_trip() {
        let v: Vec<u64> = vec![1, 2, 3];
        let d: VecDeque<u32> = VecDeque::from(vec![4, 5]);
        let m: BTreeMap<u64, bool> = [(1, true), (9, false)].into_iter().collect();
        let s: BTreeSet<(u64, u64)> = [(1, 2), (3, 4)].into_iter().collect();
        let o: Option<u8> = Some(7);
        let n: Option<u8> = None;
        let t: (u64, bool, i64) = (1, true, -1);
        let a: [u16; 3] = [10, 20, 30];
        let mut w = Writer::new();
        v.pack(&mut w);
        d.pack(&mut w);
        m.pack(&mut w);
        s.pack(&mut w);
        o.pack(&mut w);
        n.pack(&mut w);
        t.pack(&mut w);
        a.pack(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(Vec::<u64>::unpack(&mut r).unwrap(), v);
        assert_eq!(VecDeque::<u32>::unpack(&mut r).unwrap(), d);
        assert_eq!(BTreeMap::<u64, bool>::unpack(&mut r).unwrap(), m);
        assert_eq!(BTreeSet::<(u64, u64)>::unpack(&mut r).unwrap(), s);
        assert_eq!(Option::<u8>::unpack(&mut r).unwrap(), o);
        assert_eq!(Option::<u8>::unpack(&mut r).unwrap(), n);
        assert_eq!(<(u64, bool, i64)>::unpack(&mut r).unwrap(), t);
        assert_eq!(<[u16; 3]>::unpack(&mut r).unwrap(), a);
        assert!(r.is_exhausted());
    }

    #[test]
    fn nan_bits_survive() {
        let weird = f64::from_bits(0x7ff8_dead_beef_0001);
        let mut w = Writer::new();
        weird.pack(&mut w);
        let bytes = w.into_bytes();
        let got = f64::unpack(&mut Reader::new(&bytes)).unwrap();
        assert_eq!(got.to_bits(), weird.to_bits());
    }

    #[test]
    fn truncated_reads_are_typed_errors() {
        let mut w = Writer::new();
        12345u64.pack(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes[..3]);
        assert!(matches!(u64::unpack(&mut r), Err(CkptError::Truncated { .. })));
    }

    #[test]
    fn absurd_length_prefix_is_rejected_before_allocation() {
        let mut w = Writer::new();
        w.put_u64(u64::MAX); // vec claims 2^64-1 elements
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(matches!(Vec::<u8>::unpack(&mut r), Err(CkptError::Truncated { .. })));
    }

    #[test]
    fn bad_bool_and_bad_option_tag_are_corrupt() {
        let bytes = [7u8];
        assert!(matches!(bool::unpack(&mut Reader::new(&bytes)), Err(CkptError::Corrupt { .. })));
        assert!(matches!(
            Option::<u8>::unpack(&mut Reader::new(&bytes)),
            Err(CkptError::Corrupt { .. })
        ));
    }

    #[test]
    fn fingerprint_is_stable_and_sensitive() {
        // Pinned value: the FNV-1a digest of "chainiq" must never drift,
        // or every committed checkpoint invalidates silently.
        assert_eq!(fingerprint(b""), 0xcbf2_9ce4_8422_2325);
        let a = fingerprint(b"chainiq");
        assert_eq!(a, fingerprint(b"chainiq"));
        assert_ne!(a, fingerprint(b"chainiq!"));
        let mut h = FpHasher::new();
        h.write_bytes(b"chai");
        h.write_bytes(b"niq");
        assert_eq!(h.finish(), a);
    }

    #[test]
    fn hasher_str_framing_prevents_concat_collisions() {
        let mut a = FpHasher::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = FpHasher::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    const SPARSE_DEFAULT: u16 = 7;

    fn sparse_bytes(table: &[u16]) -> Vec<u8> {
        let mut w = Writer::new();
        save_sparse(&mut w, table, &SPARSE_DEFAULT);
        w.into_bytes()
    }

    fn restore_sparse_into(bytes: &[u8], len: usize) -> Result<Vec<u16>, CkptError> {
        let mut table = vec![0xdead; len];
        let mut r = Reader::new(bytes);
        restore_sparse(&mut r, &mut table, &SPARSE_DEFAULT, "toy table")?;
        assert!(r.is_exhausted(), "{} bytes left unread", r.remaining());
        Ok(table)
    }

    /// A hand-built sparse encoding: declared length, declared count, pairs.
    fn raw_sparse(len: u64, count: u64, pairs: &[(u64, u16)]) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_u64(len);
        w.put_u64(count);
        for &(i, v) in pairs {
            w.put_u64(i);
            w.put_u16(v);
        }
        w.into_bytes()
    }

    chainiq_devtest::prop_check! {
        /// Empty, sparse and full tables all restore exactly, and the
        /// encoding carries only the entries that differ from the default.
        fn sparse_table_round_trips(g, cases = 64) {
            let len = g.usize(1..400);
            let density = g.pick(3);
            let table: Vec<u16> = (0..len)
                .map(|_| {
                    let touched = match density {
                        0 => false,
                        1 => g.u64(0..16) == 0,
                        _ => true,
                    };
                    if touched { g.u64(8..u64::from(u16::MAX)) as u16 } else { SPARSE_DEFAULT }
                })
                .collect();
            let touched = table.iter().filter(|&&v| v != SPARSE_DEFAULT).count();
            let bytes = sparse_bytes(&table);
            chainiq_devtest::prop_assert_eq!(bytes.len(), 16 + touched * 10);
            let restored = restore_sparse_into(&bytes, len).map_err(|e| e.to_string())?;
            chainiq_devtest::prop_assert_eq!(restored, table);
            for cut in 0..bytes.len() {
                chainiq_devtest::prop_assert!(
                    restore_sparse_into(&bytes[..cut], len).is_err(),
                    "truncation to {cut} bytes restored"
                );
            }
        }
    }

    #[test]
    fn sparse_length_other_than_geometry_is_corrupt() {
        let bytes = sparse_bytes(&[1, 7, 3]);
        assert!(matches!(restore_sparse_into(&bytes, 4), Err(CkptError::Corrupt { .. })));
        assert!(matches!(restore_sparse_into(&bytes, 2), Err(CkptError::Corrupt { .. })));
    }

    #[test]
    fn sparse_index_past_length_is_corrupt() {
        let bytes = raw_sparse(4, 1, &[(4, 1)]);
        assert!(matches!(restore_sparse_into(&bytes, 4), Err(CkptError::Corrupt { .. })));
        let bytes = raw_sparse(4, 1, &[(u64::MAX, 1)]);
        assert!(matches!(restore_sparse_into(&bytes, 4), Err(CkptError::Corrupt { .. })));
    }

    #[test]
    fn sparse_repeated_or_descending_index_is_corrupt() {
        let repeated = raw_sparse(4, 2, &[(1, 1), (1, 2)]);
        assert!(matches!(restore_sparse_into(&repeated, 4), Err(CkptError::Corrupt { .. })));
        let descending = raw_sparse(4, 2, &[(2, 1), (0, 2)]);
        assert!(matches!(restore_sparse_into(&descending, 4), Err(CkptError::Corrupt { .. })));
        assert_eq!(
            restore_sparse_into(&raw_sparse(4, 2, &[(0, 2), (2, 1)]), 4).unwrap(),
            [2, 7, 1, 7]
        );
    }

    #[test]
    fn sparse_count_beyond_remaining_bytes_is_truncated() {
        let bytes = raw_sparse(1 << 20, u64::MAX, &[(0, 1)]);
        assert!(matches!(restore_sparse_into(&bytes, 1 << 20), Err(CkptError::Truncated { .. })));
        let bytes = raw_sparse(8, 3, &[(0, 1), (1, 1)]);
        assert!(matches!(restore_sparse_into(&bytes, 8), Err(CkptError::Truncated { .. })));
    }

    struct Toy {
        xs: Vec<u64>,
        flag: bool,
    }

    impl Snapshot for Toy {
        const COMPONENT: &'static str = "toy";
        const VERSION: u16 = 3;
        fn save(&self, w: &mut Writer) {
            self.xs.pack(w);
            self.flag.pack(w);
        }
        fn restore(&mut self, r: &mut Reader<'_>) -> Result<(), CkptError> {
            self.xs = Vec::unpack(r)?;
            self.flag = bool::unpack(r)?;
            Ok(())
        }
    }

    fn toy_image() -> Vec<u8> {
        let mut img = ImageWriter::new(CkptHeader { workload_fp: 11, config_hash: 22, warmup: 33 });
        img.section(&Toy { xs: vec![1, 2, 3], flag: true });
        img.finish()
    }

    #[test]
    fn image_round_trip() {
        let bytes = toy_image();
        let mut img = ImageReader::parse(&bytes).unwrap();
        assert_eq!(img.header(), CkptHeader { workload_fp: 11, config_hash: 22, warmup: 33 });
        img.expect_key(CkptHeader { workload_fp: 11, config_hash: 22, warmup: 33 }).unwrap();
        let mut toy = Toy { xs: Vec::new(), flag: false };
        img.section(&mut toy).unwrap();
        img.finish().unwrap();
        assert_eq!(toy.xs, vec![1, 2, 3]);
        assert!(toy.flag);
    }

    #[test]
    fn wrong_key_is_key_mismatch() {
        let bytes = toy_image();
        let img = ImageReader::parse(&bytes).unwrap();
        let err = img
            .expect_key(CkptHeader { workload_fp: 99, config_hash: 22, warmup: 33 })
            .unwrap_err();
        assert!(matches!(err, CkptError::KeyMismatch { .. }), "{err}");
        let err = img
            .expect_key(CkptHeader { workload_fp: 11, config_hash: 99, warmup: 33 })
            .unwrap_err();
        assert!(matches!(err, CkptError::KeyMismatch { .. }), "{err}");
    }

    #[test]
    fn every_single_bit_flip_is_rejected() {
        // Exhaustive over the toy image: flipping any one bit anywhere
        // must produce a typed error, never a silent wrong restore.
        let bytes = toy_image();
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut evil = bytes.clone();
                evil[byte] ^= 1 << bit;
                let outcome = ImageReader::parse(&evil).and_then(|mut img| {
                    let mut toy = Toy { xs: Vec::new(), flag: false };
                    img.section(&mut toy)?;
                    img.finish()
                });
                assert!(outcome.is_err(), "bit flip at byte {byte} bit {bit} went unnoticed");
            }
        }
    }

    #[test]
    fn every_truncation_is_rejected() {
        let bytes = toy_image();
        for cut in 0..bytes.len() {
            let outcome = ImageReader::parse(&bytes[..cut]).and_then(|mut img| {
                let mut toy = Toy { xs: Vec::new(), flag: false };
                img.section(&mut toy)?;
                img.finish()
            });
            assert!(outcome.is_err(), "truncation to {cut} bytes went unnoticed");
        }
    }

    #[test]
    fn version_bump_is_rejected() {
        let bytes = toy_image();
        // The format version lives right after the 8-byte magic; patching
        // it also requires re-sealing the file fingerprint — which is
        // exactly what an in-place format migration would do.
        let mut bumped = bytes[..bytes.len() - 8].to_vec();
        bumped[8] = (FORMAT_VERSION + 1) as u8;
        let fp = fingerprint(&bumped);
        bumped.extend_from_slice(&fp.to_le_bytes());
        assert!(matches!(
            ImageReader::parse(&bumped),
            Err(CkptError::FormatVersion { found }) if found == FORMAT_VERSION + 1
        ));
    }

    #[test]
    fn component_version_drift_is_rejected() {
        struct ToyV4(Toy);
        impl Snapshot for ToyV4 {
            const COMPONENT: &'static str = "toy";
            const VERSION: u16 = 4;
            fn save(&self, w: &mut Writer) {
                self.0.save(w);
            }
            fn restore(&mut self, r: &mut Reader<'_>) -> Result<(), CkptError> {
                self.0.restore(r)
            }
        }
        let bytes = toy_image();
        let mut img = ImageReader::parse(&bytes).unwrap();
        let mut toy = ToyV4(Toy { xs: Vec::new(), flag: false });
        let err = img.section(&mut toy).unwrap_err();
        assert!(matches!(err, CkptError::ComponentVersion { found: 3, expected: 4, .. }), "{err}");
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = toy_image();
        bytes[0] = b'X';
        assert!(matches!(
            ImageReader::parse(&bytes),
            // The file fingerprint covers the magic too, so either error
            // is acceptable; what matters is rejection with a typed error.
            Err(CkptError::BadMagic | CkptError::FingerprintMismatch { .. })
        ));
    }

    #[test]
    fn atomic_file_round_trip() {
        let dir = std::env::temp_dir().join(format!("chainiq-ckpt-test-{}", std::process::id()));
        let path = dir.join("toy.ckpt");
        let bytes = toy_image();
        write_image_atomic(&path, &bytes).unwrap();
        assert_eq!(read_image(&path).unwrap(), bytes);
        // Overwrite is fine (last write wins).
        write_image_atomic(&path, &bytes).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = read_image(Path::new("/nonexistent/chainiq/toy.ckpt")).unwrap_err();
        assert!(matches!(err, CkptError::Io(_)));
    }

    #[test]
    fn errors_display_useful_text() {
        let cases: Vec<CkptError> = vec![
            CkptError::Truncated { context: "u64" },
            CkptError::BadMagic,
            CkptError::FormatVersion { found: 9 },
            CkptError::ComponentVersion { component: "iq".into(), found: 1, expected: 2 },
            CkptError::FingerprintMismatch { context: "file".into() },
            CkptError::KeyMismatch { context: "warmup 1, expected 2".into() },
            CkptError::Corrupt { context: "bool byte 7".into() },
            CkptError::Io(std::io::Error::other("nope")),
        ];
        for e in cases {
            assert!(!e.to_string().is_empty());
        }
    }
}
