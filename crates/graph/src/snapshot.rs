//! The binary snapshot codec shared by every checkpointable structure in
//! the workspace.
//!
//! The paper's amortised bounds assume long-lived state; a process restart
//! that rebuilds the edge labelling, the per-edge distributed-tracking
//! instances and the connectivity structure from the raw edge stream pays
//! the full construction cost again.  The snapshot subsystem serialises the
//! live state instead, with one hard correctness bar: **a restored instance
//! must behave exactly like the instance that never stopped** — same
//! labels, same DT counters, and (because neighbourhood sampling is
//! positional over [`crate::IndexedSet`]) even the same adjacency-slot
//! order, so future sampled label decisions consume identical random bits.
//!
//! The format is deliberately simple and fully hand-rolled (the vendored
//! `serde` is a marker stub).  A **version 3** document is:
//!
//! ```text
//! magic    : 8 bytes  b"DSCNSNAP"
//! version  : u32 LE   (FORMAT_VERSION = 3)
//! algo     : u32 LE   (which structure the payload describes)
//! kind     : u32 LE   (0 = full snapshot, 1 = differential snapshot)
//! sequence : u64 LE   (0 for a full snapshot; k ≥ 1 for the k-th delta
//!                      of its chain)
//! base     : u64 LE   (checksum of the predecessor document a delta
//!                      applies to; 0 for a full snapshot)
//! wallclock: u64 LE   (milliseconds since the Unix epoch at write time;
//!                      0 = unstamped — the deterministic export paths
//!                      write 0 so equal state keeps producing equal bytes)
//! length   : u64 LE   (payload byte count)
//! checksum : u64 LE   (FNV-1a over the payload bytes)
//! payload  : `length` bytes of length-prefixed sections
//! ```
//!
//! # Payload encodings by version
//!
//! The header layout is shared by v2 and v3; what changed in v3 is the
//! **payload encoding** ([`Encoding`]).  Section framing (`tag: u32 LE,
//! len: u64 LE, bytes`) is fixed-width in every version so the writer can
//! back-patch section lengths in place; everything *inside* a section is
//! encoded per the document version:
//!
//! | primitive        | v1/v2 ([`Encoding::Fixed`])  | v3 ([`Encoding::Compact`])                        |
//! |------------------|------------------------------|---------------------------------------------------|
//! | `u8` / `bool`    | 1 byte                       | 1 byte                                            |
//! | `u32` / `u64`    | 4 / 8 bytes LE               | LEB128 varint (1–5 / 1–10 bytes)                  |
//! | length / count   | 8 bytes LE                   | varint                                            |
//! | `f64`            | 8-byte bit pattern           | 8-byte bit pattern (unchanged)                    |
//! | vertex id        | 4 bytes LE                   | varint                                            |
//! | edge key         | `lo: u32, hi: u32`           | `varint(lo), varint(hi − lo − 1)`                 |
//! | sorted vertex seq| plain vertex per entry       | first raw, then `varint(v − prev − 1)`            |
//! | sorted edge seq  | plain edge per entry         | `varint(lo − prev_lo)`, then gap varint (see      |
//! |                  |                              | [`SnapWriter::edge_key_seq`])                     |
//! | slot-order list  | plain vertex per entry       | first raw, then zigzag varint of `v − prev`       |
//! | bool array       | 1 byte per bool              | bit-packed LSB-first, zero padding                |
//!
//! Sorted sequences and slot-order (adjacency) lists are where the ≥ 3×
//! size win comes from: dense sorted id sets collapse to ~1 byte per
//! entry, and adjacency slots of well-clustered graphs sit close enough
//! together that their zigzag deltas fit one or two bytes.
//!
//! The legacy **version 1** header (32 bytes: magic, version, algo,
//! length, checksum — no kind/sequence/base/wallclock) is still *read*:
//! every v1 document is a full snapshot.  The decoders accept all three
//! versions — [`SnapReader::for_version`] picks the payload encoding from
//! the header — so committed v1/v2 checkpoints keep restoring.
//! [`SnapWriter`] and the document writers produce v3 only; the v1/v2
//! decoders are pinned by the committed fixtures under `tests/fixtures`.
//!
//! # Differential snapshots (since v2)
//!
//! A *delta* document (kind = 1) encodes only the state touched since the
//! previous checkpoint of the same chain.  The chain is
//! `full, delta₁, delta₂, …`: each document's `base` field carries the
//! payload checksum of its predecessor, and `sequence` its 1-based
//! position, so a reader can refuse to apply a delta to the wrong base
//! ([`SnapshotError::DeltaBaseMismatch`]) or out of order.  Replaying
//! `full + delta₁ + … + deltaₖ` reconstructs **byte-identical** state to a
//! full snapshot taken at the same moment (the payload encodings are
//! canonical functions of the semantic state).  The per-algorithm delta
//! payloads live next to their full payloads (`dynscan_core::snapshot`,
//! `dynscan_baseline`); this module only defines the framing.
//!
//! # Sections and robustness
//!
//! A *section* is `tag: u32, len: u64, bytes`, so readers can verify they
//! are looking at the field they expect and corrupt files fail loudly
//! ([`SnapshotError`]) instead of deserialising garbage.  Every header and
//! section read is length-checked — truncated or bit-flipped input of any
//! shape yields an `Err`, never a panic (pinned by the corruption
//! proptests in `tests/snapshot_corruption.rs`).  All map- or set-shaped
//! state is emitted in sorted key order, making the encoding a canonical
//! function of the semantic state: two instances with equal state produce
//! byte-identical snapshots, which the golden-fixture test and the
//! checkpoint CI gate rely on.
//!
//! # Retention (one level up)
//!
//! Chains bound restore cost and retention policy together:
//! `dynscan_core::Session` writes a full snapshot every *k*-th automatic
//! checkpoint (`full_every`) and prunes all documents older than the
//! *n*-th-newest full (`keep_last`), so the store always holds at most
//! `n` resumable chains and every chain has at most `k − 1` deltas.

use crate::dynamic_graph::DynGraph;
use crate::edge::EdgeKey;
use crate::indexed_set::IndexedSet;
use crate::vertex::VertexId;
use std::fmt;
use std::io::Read as _;

/// Magic bytes opening every snapshot.
pub const MAGIC: [u8; 8] = *b"DSCNSNAP";

/// Size of the fixed document header of the **current** format version
/// ([`FORMAT_VERSION`]): magic + version + algo + kind + sequence + base
/// checksum + wall-clock stamp + payload length + checksum.
pub const HEADER_LEN: usize = HEADER_LEN_V2;

/// Size of the legacy version-1 header (magic + version + algo + payload
/// length + checksum).
pub const HEADER_LEN_V1: usize = 8 + 4 + 4 + 8 + 8;

/// Size of the version-2 header (shared by version 3 — only the payload
/// encoding changed in v3).
pub const HEADER_LEN_V2: usize = 8 + 4 + 4 + 4 + 8 + 8 + 8 + 8 + 8;

/// Current snapshot format version.  Bump on any incompatible layout
/// change and regenerate `tests/fixtures/golden_snapshot_v*.bin`.
pub const FORMAT_VERSION: u32 = 3;

/// The previous format version (v2 header with fixed-width payload
/// primitives).  Still decoded, no longer written.
pub const FORMAT_VERSION_V2: u32 = 2;

/// The legacy format version the readers still accept (full snapshots
/// only; see the [module docs](self)).
pub const FORMAT_VERSION_V1: u32 = 1;

/// How payload primitives are encoded inside a document's sections — what
/// [`SnapReader`] decodes per document version ([`SnapWriter`] always
/// writes [`Encoding::Compact`]).
///
/// Section framing is identical in both modes; see the
/// [module docs](self) for the per-primitive table.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Encoding {
    /// Fixed-width little-endian primitives — the v1/v2 payload encoding.
    Fixed,
    /// Varint/zigzag/delta primitives — the v3 payload encoding.
    #[default]
    Compact,
}

impl Encoding {
    /// The payload encoding a given (already validated) format version
    /// uses.
    pub fn for_version(version: u32) -> Encoding {
        match version {
            FORMAT_VERSION_V1 | FORMAT_VERSION_V2 => Encoding::Fixed,
            _ => Encoding::Compact,
        }
    }
}

/// Whether a document holds the complete state or a differential update
/// against a base document.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum SnapshotKind {
    /// The complete live state; restorable on its own.
    #[default]
    Full,
    /// Only the state touched since the predecessor document; applies on
    /// top of the chain identified by the header's base checksum.
    Delta,
}

impl SnapshotKind {
    fn tag(self) -> u32 {
        match self {
            SnapshotKind::Full => 0,
            SnapshotKind::Delta => 1,
        }
    }

    fn from_tag(tag: u32) -> Result<Self, SnapshotError> {
        match tag {
            0 => Ok(SnapshotKind::Full),
            1 => Ok(SnapshotKind::Delta),
            _ => Err(SnapshotError::Corrupt("unknown snapshot kind tag")),
        }
    }
}

impl fmt::Display for SnapshotKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SnapshotKind::Full => "full",
            SnapshotKind::Delta => "delta",
        })
    }
}

/// The header fields beyond magic/version/algo/length/checksum — what a
/// writer chooses per document.  [`Default`] is a deterministic full
/// snapshot (sequence 0, no base, unstamped).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DocumentMeta {
    /// Full or differential.
    pub kind: SnapshotKind,
    /// Chain position: 0 for a full snapshot, k ≥ 1 for the k-th delta.
    pub sequence: u64,
    /// Payload checksum of the predecessor document (deltas only; 0 for
    /// full snapshots).
    pub base_checksum: u64,
    /// Wall-clock stamp in milliseconds since the Unix epoch; 0 means
    /// unstamped (the deterministic export paths).
    pub wall_time_millis: u64,
}

/// Why a snapshot could not be read back.
#[derive(Debug)]
pub enum SnapshotError {
    /// The underlying reader/writer failed.
    Io(std::io::Error),
    /// The stream does not start with [`MAGIC`].
    BadMagic,
    /// The stream was written by an unknown (newer) format version.
    UnsupportedVersion {
        /// Version found in the header.
        found: u32,
    },
    /// The payload is for a different structure than the caller expects.
    AlgorithmMismatch {
        /// Algorithm tag expected by the caller.
        expected: u32,
        /// Algorithm tag found in the header.
        found: u32,
    },
    /// The header's algorithm tag is not known to any registered restorer
    /// (erased restore via `restore_any` only).
    UnknownAlgorithm {
        /// Algorithm tag found in the header.
        found: u32,
    },
    /// The payload checksum does not match the header.
    ChecksumMismatch,
    /// The stream ended before the declared data did.
    Truncated,
    /// A section tag other than the expected one was found.
    UnexpectedSection {
        /// Section tag expected next.
        expected: u32,
        /// Section tag found.
        found: u32,
    },
    /// A differential snapshot was supplied where a full snapshot is
    /// required (a delta cannot restore on its own — apply it to the
    /// restored base instead).
    UnexpectedDelta,
    /// A differential snapshot references a different base document than
    /// the state it was applied to.
    DeltaBaseMismatch {
        /// Checksum of the document the target state was restored from or
        /// last checkpointed as.
        expected: u64,
        /// Base checksum the delta's header declares.
        found: u64,
    },
    /// The data decoded but violates an invariant of the target structure.
    Corrupt(&'static str),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot I/O error: {e}"),
            SnapshotError::BadMagic => write!(f, "not a dynscan snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion { found } => {
                write!(
                    f,
                    "unsupported snapshot version {found} (supported: \
                     {FORMAT_VERSION_V1}..={FORMAT_VERSION})"
                )
            }
            SnapshotError::AlgorithmMismatch { expected, found } => {
                write!(
                    f,
                    "snapshot holds algorithm tag {found}, expected {expected}"
                )
            }
            SnapshotError::UnknownAlgorithm { found } => {
                write!(
                    f,
                    "snapshot holds algorithm tag {found}, which no registered \
                     restorer understands"
                )
            }
            SnapshotError::ChecksumMismatch => write!(f, "snapshot payload checksum mismatch"),
            SnapshotError::Truncated => write!(f, "snapshot ended unexpectedly"),
            SnapshotError::UnexpectedSection { expected, found } => {
                write!(
                    f,
                    "unexpected snapshot section {found:#x}, expected {expected:#x}"
                )
            }
            SnapshotError::UnexpectedDelta => {
                write!(
                    f,
                    "differential snapshot where a full snapshot is required \
                     (restore its base first, then apply the delta chain)"
                )
            }
            SnapshotError::DeltaBaseMismatch { expected, found } => {
                write!(
                    f,
                    "differential snapshot applies to base {found:#018x}, but the \
                     target state's last document is {expected:#018x}"
                )
            }
            SnapshotError::Corrupt(what) => write!(f, "corrupt snapshot: {what}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

/// FNV-1a over a byte slice; the payload checksum of the header.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Length-checked little-endian `u32` at `offset` (no panic on short
/// input — truncated headers error instead).
fn le_u32_at(bytes: &[u8], offset: usize) -> Result<u32, SnapshotError> {
    let end = offset.checked_add(4).ok_or(SnapshotError::Truncated)?;
    let slice = bytes.get(offset..end).ok_or(SnapshotError::Truncated)?;
    let mut buf = [0u8; 4];
    buf.copy_from_slice(slice);
    Ok(u32::from_le_bytes(buf))
}

/// Length-checked little-endian `u64` at `offset`.
fn le_u64_at(bytes: &[u8], offset: usize) -> Result<u64, SnapshotError> {
    let end = offset.checked_add(8).ok_or(SnapshotError::Truncated)?;
    let slice = bytes.get(offset..end).ok_or(SnapshotError::Truncated)?;
    let mut buf = [0u8; 8];
    buf.copy_from_slice(slice);
    Ok(u64::from_le_bytes(buf))
}

/// Zigzag-map a signed delta into an unsigned varint payload
/// (small-magnitude values of either sign stay short).
fn zigzag(x: i64) -> u64 {
    ((x << 1) ^ (x >> 63)) as u64
}

/// Inverse of [`zigzag`].
fn unzigzag(z: u64) -> i64 {
    ((z >> 1) as i64) ^ -((z & 1) as i64)
}

/// Append-only payload writer in the current format's encoding
/// ([`Encoding::Compact`], i.e. v3 payload bytes).
#[derive(Debug, Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The accumulated payload bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Current payload length (diagnostic).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Write a single byte.
    pub fn u8(&mut self, x: u8) {
        self.buf.push(x);
    }

    /// Write a bool as one byte.
    pub fn bool(&mut self, x: bool) {
        self.u8(u8::from(x));
    }

    fn varint(&mut self, mut x: u64) {
        loop {
            let byte = (x & 0x7f) as u8;
            x >>= 7;
            if x == 0 {
                self.buf.push(byte);
                return;
            }
            self.buf.push(byte | 0x80);
        }
    }

    /// Write a `u32` as a varint.
    pub fn u32(&mut self, x: u32) {
        self.varint(u64::from(x));
    }

    /// Write a `u64` as a varint.
    pub fn u64(&mut self, x: u64) {
        self.varint(x);
    }

    /// Write a `usize` as `u64`.
    pub fn len_prefix(&mut self, x: usize) {
        self.u64(x as u64);
    }

    /// Write an `f64` as its exact bit pattern (raw 8 bytes — float bit
    /// patterns do not varint-compress).
    pub fn f64(&mut self, x: f64) {
        self.buf.extend_from_slice(&x.to_bits().to_le_bytes());
    }

    /// Write a vertex id.
    pub fn vertex(&mut self, v: VertexId) {
        self.u32(v.raw());
    }

    /// Write an edge key as `lo` and the gap `hi − lo − 1` (≥ 0 by
    /// canonicality).
    pub fn edge(&mut self, e: EdgeKey) {
        self.varint(u64::from(e.lo().raw()));
        self.varint(u64::from(e.hi().raw() - e.lo().raw() - 1));
    }

    /// Write the next element of a **strictly ascending** vertex
    /// sequence.  `prev` threads the sequence state; start each sequence
    /// from `None`.  Stores the first id raw and every successor as
    /// `v − prev − 1`.
    pub fn vertex_seq(&mut self, prev: &mut Option<VertexId>, v: VertexId) {
        match *prev {
            None => self.varint(u64::from(v.raw())),
            Some(p) => self.varint(u64::from(v.raw()) - u64::from(p.raw()) - 1),
        }
        *prev = Some(v);
    }

    /// Write the next element of a **strictly ascending** edge-key
    /// sequence (sorted by `(lo, hi)`).  Stores `varint(lo − prev_lo)`,
    /// then — if `lo` repeats — the gap `hi − prev_hi − 1`, otherwise the
    /// fresh gap `hi − lo − 1`; the first key is a plain [`Self::edge`].
    pub fn edge_key_seq(&mut self, prev: &mut Option<EdgeKey>, e: EdgeKey) {
        match *prev {
            None => self.edge(e),
            Some(p) => {
                let (lo, hi) = (u64::from(e.lo().raw()), u64::from(e.hi().raw()));
                let prev_lo = u64::from(p.lo().raw());
                self.varint(lo - prev_lo);
                if lo == prev_lo {
                    self.varint(hi - u64::from(p.hi().raw()) - 1);
                } else {
                    self.varint(hi - lo - 1);
                }
            }
        }
        *prev = Some(e);
    }

    /// Write the next element of a **slot-order** (unsorted,
    /// order-significant) vertex list, e.g. an adjacency list.  Stores
    /// the first id raw and every successor as the zigzag varint of
    /// `v − prev`, so clustered neighbourhoods compress even though
    /// swap-remove leaves them unsorted.
    pub fn slot_vertex(&mut self, prev: &mut Option<VertexId>, v: VertexId) {
        match *prev {
            None => self.varint(u64::from(v.raw())),
            Some(p) => self.varint(zigzag(i64::from(v.raw()) - i64::from(p.raw()))),
        }
        *prev = Some(v);
    }

    /// Write a bool array bit-packed LSB-first (zero padding in the last
    /// byte).  Sections use this for label arrays; the element count
    /// travels separately.
    pub fn packed_bools(&mut self, bits: impl ExactSizeIterator<Item = bool>) {
        let mut acc = 0u8;
        let mut filled = 0u8;
        for bit in bits {
            acc |= u8::from(bit) << filled;
            filled += 1;
            if filled == 8 {
                self.buf.push(acc);
                acc = 0;
                filled = 0;
            }
        }
        if filled > 0 {
            self.buf.push(acc);
        }
    }

    /// Write a length-prefixed section: `tag`, byte length, then the bytes
    /// `fill` appends.  The length slot is reserved up front and
    /// back-patched afterwards, so multi-megabyte sections (graph
    /// adjacency, DT state) are serialised in place instead of through a
    /// temporary buffer and a second copy.  Framing is fixed-width (raw
    /// `u32` tag + raw `u64` length) in every format version —
    /// back-patching needs a stable slot width.
    pub fn section(&mut self, tag: u32, fill: impl FnOnce(&mut SnapWriter)) {
        self.buf.extend_from_slice(&tag.to_le_bytes());
        let length_slot = self.buf.len();
        self.buf.extend_from_slice(&0u64.to_le_bytes());
        let body_start = self.buf.len();
        fill(self);
        let body_len = (self.buf.len() - body_start) as u64;
        self.buf[length_slot..body_start].copy_from_slice(&body_len.to_le_bytes());
    }
}

/// Sequential payload reader mirroring [`SnapWriter`].
#[derive(Debug)]
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
    encoding: Encoding,
}

impl<'a> SnapReader<'a> {
    /// Read from a payload slice in the current format's encoding
    /// ([`Encoding::Compact`], i.e. v3 payload bytes).
    pub fn new(buf: &'a [u8]) -> Self {
        SnapReader {
            buf,
            pos: 0,
            encoding: Encoding::Compact,
        }
    }

    /// Read a payload written by a document of the given (already
    /// validated) format version — v1/v2 payloads decode fixed-width,
    /// v3 compact.
    pub fn for_version(version: u32, buf: &'a [u8]) -> Self {
        SnapReader {
            buf,
            pos: 0,
            encoding: Encoding::for_version(version),
        }
    }

    /// Whether this reader decodes the compact (v3) encoding.  Payload
    /// decoders branch on this where v3 changed a section's *structure*
    /// (bit-packed label arrays) rather than just its primitives.
    pub fn compact(&self) -> bool {
        self.encoding == Encoding::Compact
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self.pos.checked_add(n).ok_or(SnapshotError::Truncated)?;
        let slice = self
            .buf
            .get(self.pos..end)
            .ok_or(SnapshotError::Truncated)?;
        self.pos = end;
        Ok(slice)
    }

    /// Read a single byte.
    pub fn u8(&mut self) -> Result<u8, SnapshotError> {
        match *self.take(1)? {
            [b] => Ok(b),
            _ => Err(SnapshotError::Truncated),
        }
    }

    /// Read a bool; any value other than 0/1 is corrupt.
    pub fn bool(&mut self) -> Result<bool, SnapshotError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapshotError::Corrupt("bool byte outside {0, 1}")),
        }
    }

    fn raw_u32(&mut self) -> Result<u32, SnapshotError> {
        let slice = self.take(4)?;
        let mut buf = [0u8; 4];
        buf.copy_from_slice(slice);
        Ok(u32::from_le_bytes(buf))
    }

    fn raw_u64(&mut self) -> Result<u64, SnapshotError> {
        let slice = self.take(8)?;
        let mut buf = [0u8; 8];
        buf.copy_from_slice(slice);
        Ok(u64::from_le_bytes(buf))
    }

    /// Decode one LEB128 varint (at most 10 bytes; bits beyond the 64th
    /// are corrupt, short input is truncated).
    fn varint(&mut self) -> Result<u64, SnapshotError> {
        let mut value: u64 = 0;
        let mut shift: u32 = 0;
        loop {
            let byte = self.u8()?;
            let low = u64::from(byte & 0x7f);
            if shift >= 64 || (shift == 63 && low > 1) {
                return Err(SnapshotError::Corrupt("varint exceeds 64 bits"));
            }
            value |= low << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
            shift += 7;
        }
    }

    /// Read a `u32` (little-endian in fixed mode, varint in compact).
    pub fn u32(&mut self) -> Result<u32, SnapshotError> {
        match self.encoding {
            Encoding::Fixed => self.raw_u32(),
            Encoding::Compact => u32::try_from(self.varint()?)
                .map_err(|_| SnapshotError::Corrupt("varint exceeds 32 bits")),
        }
    }

    /// Read a `u64` (little-endian in fixed mode, varint in compact).
    pub fn u64(&mut self) -> Result<u64, SnapshotError> {
        match self.encoding {
            Encoding::Fixed => self.raw_u64(),
            Encoding::Compact => self.varint(),
        }
    }

    /// Read a length written by [`SnapWriter::len_prefix`].  Lengths that
    /// could not possibly fit the remaining bytes are rejected up front so
    /// corrupt files cannot trigger huge allocations, and the `u64 →
    /// usize` conversion is checked — on a 32-bit target an
    /// address-space-exceeding length is a decode error, never a silent
    /// truncation.
    pub fn len_prefix(&mut self) -> Result<usize, SnapshotError> {
        let x = self.u64()?;
        if x > self.remaining() as u64 {
            return Err(SnapshotError::Corrupt(
                "length prefix exceeds remaining bytes",
            ));
        }
        usize::try_from(x).map_err(|_| {
            SnapshotError::Corrupt("length prefix exceeds the platform's address space")
        })
    }

    /// Read a count written by [`SnapWriter::len_prefix`] whose elements
    /// are *not* materialised in the following bytes (e.g. a vertex-space
    /// size in a differential section, where untouched vertices are
    /// implied).  [`SnapReader::len_prefix`]'s remaining-bytes bound would
    /// wrongly reject such counts; this one bounds by the 32-bit id space
    /// instead, with the same checked `u64 → usize` conversion.
    pub fn count_prefix(&mut self) -> Result<usize, SnapshotError> {
        let x = self.u64()?;
        if x > u64::from(u32::MAX) + 1 {
            return Err(SnapshotError::Corrupt("count exceeds the vertex id space"));
        }
        usize::try_from(x)
            .map_err(|_| SnapshotError::Corrupt("count exceeds the platform's address space"))
    }

    /// Read an `f64` bit pattern (raw 8 bytes in both encodings).
    pub fn f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.raw_u64()?))
    }

    /// Read a vertex id.
    pub fn vertex(&mut self) -> Result<VertexId, SnapshotError> {
        Ok(VertexId(self.u32()?))
    }

    fn vertex_from(&mut self, base: u64) -> Result<VertexId, SnapshotError> {
        let raw = base
            .checked_add(self.varint()?)
            .ok_or(SnapshotError::Corrupt("vertex id overflows the id space"))?;
        u32::try_from(raw)
            .map(VertexId)
            .map_err(|_| SnapshotError::Corrupt("vertex id overflows the id space"))
    }

    /// Read an edge key; the endpoints must be stored canonically
    /// (`lo < hi`).
    pub fn edge(&mut self) -> Result<EdgeKey, SnapshotError> {
        match self.encoding {
            Encoding::Fixed => {
                let lo = self.vertex()?;
                let hi = self.vertex()?;
                if lo >= hi {
                    return Err(SnapshotError::Corrupt(
                        "edge key endpoints not in canonical order",
                    ));
                }
                Ok(EdgeKey::new(lo, hi))
            }
            Encoding::Compact => {
                let lo = self.vertex()?;
                let hi = self.vertex_from(u64::from(lo.raw()) + 1)?;
                Ok(EdgeKey::new(lo, hi))
            }
        }
    }

    /// Read the next element of a strictly ascending vertex sequence
    /// (mirrors [`SnapWriter::vertex_seq`]).  Compact mode enforces
    /// ascension structurally; fixed mode decodes a plain vertex and
    /// leaves ordering checks to the caller (the v2 decode contract).
    pub fn vertex_seq(&mut self, prev: &mut Option<VertexId>) -> Result<VertexId, SnapshotError> {
        let v = match (self.encoding, *prev) {
            (Encoding::Fixed, _) => self.vertex()?,
            (Encoding::Compact, None) => self.vertex()?,
            (Encoding::Compact, Some(p)) => self.vertex_from(u64::from(p.raw()) + 1)?,
        };
        *prev = Some(v);
        Ok(v)
    }

    /// Read the next element of a strictly ascending edge-key sequence
    /// (mirrors [`SnapWriter::edge_key_seq`]).
    pub fn edge_key_seq(&mut self, prev: &mut Option<EdgeKey>) -> Result<EdgeKey, SnapshotError> {
        let e = match (self.encoding, *prev) {
            (Encoding::Fixed, _) | (Encoding::Compact, None) => self.edge()?,
            (Encoding::Compact, Some(p)) => {
                let dlo = self.varint()?;
                let lo = u64::from(p.lo().raw())
                    .checked_add(dlo)
                    .and_then(|x| u32::try_from(x).ok())
                    .map(VertexId)
                    .ok_or(SnapshotError::Corrupt(
                        "edge endpoint overflows the id space",
                    ))?;
                let hi_base = if dlo == 0 {
                    u64::from(p.hi().raw()) + 1
                } else {
                    u64::from(lo.raw()) + 1
                };
                let hi = self.vertex_from(hi_base)?;
                EdgeKey::new(lo, hi)
            }
        };
        *prev = Some(e);
        Ok(e)
    }

    /// Read the next element of a slot-order vertex list (mirrors
    /// [`SnapWriter::slot_vertex`]).  Range, self-loop and duplicate
    /// validation stay with the caller, as with plain vertices.
    pub fn slot_vertex(&mut self, prev: &mut Option<VertexId>) -> Result<VertexId, SnapshotError> {
        let v = match (self.encoding, *prev) {
            (Encoding::Fixed, _) => self.vertex()?,
            (Encoding::Compact, None) => self.vertex()?,
            (Encoding::Compact, Some(p)) => {
                let delta = unzigzag(self.varint()?);
                i64::from(p.raw())
                    .checked_add(delta)
                    .and_then(|x| u32::try_from(x).ok())
                    .map(VertexId)
                    .ok_or(SnapshotError::Corrupt("vertex id outside the id space"))?
            }
        };
        *prev = Some(v);
        Ok(v)
    }

    /// Read `n` bools written by [`SnapWriter::packed_bools`].  Nonzero
    /// padding bits are corrupt — the encoding stays canonical.
    pub fn packed_bools(&mut self, n: usize) -> Result<Vec<bool>, SnapshotError> {
        let byte_len = n.div_ceil(8);
        let bytes = self.take(byte_len)?;
        let mut out = Vec::new();
        out.try_reserve_exact(n)
            .map_err(|_| SnapshotError::Corrupt("bool array exceeds available memory"))?;
        for i in 0..n {
            let byte = bytes.get(i / 8).copied().ok_or(SnapshotError::Truncated)?;
            out.push((byte >> (i % 8)) & 1 == 1);
        }
        if !n.is_multiple_of(8) {
            let last = bytes.last().copied().ok_or(SnapshotError::Truncated)?;
            if last >> (n % 8) != 0 {
                return Err(SnapshotError::Corrupt("nonzero padding in packed bools"));
            }
        }
        Ok(out)
    }

    /// Open the next section, which must carry `tag`; returns a reader
    /// over exactly that section's bytes, in this reader's encoding.
    /// Framing is fixed-width in both encodings (see
    /// [`SnapWriter::section`]).
    pub fn section(&mut self, tag: u32) -> Result<SnapReader<'a>, SnapshotError> {
        let found = self.raw_u32()?;
        if found != tag {
            return Err(SnapshotError::UnexpectedSection {
                expected: tag,
                found,
            });
        }
        let len = self.raw_u64()?;
        if len > self.remaining() as u64 {
            return Err(SnapshotError::Corrupt(
                "length prefix exceeds remaining bytes",
            ));
        }
        let len = usize::try_from(len).map_err(|_| {
            SnapshotError::Corrupt("length prefix exceeds the platform's address space")
        })?;
        let body = self.take(len)?;
        Ok(SnapReader {
            buf: body,
            pos: 0,
            encoding: self.encoding,
        })
    }

    /// Assert every byte was consumed (call at the end of a section).
    pub fn finish(&self) -> Result<(), SnapshotError> {
        if self.remaining() != 0 {
            return Err(SnapshotError::Corrupt("trailing bytes after expected data"));
        }
        Ok(())
    }
}

/// Write a deterministic **full** snapshot document (v3 header with
/// [`DocumentMeta::default`] + checksummed payload) to `w`.  Equal payload
/// bytes produce equal documents — the canonical-encoding path every
/// byte-identity test relies on.
pub fn write_document(
    w: impl std::io::Write,
    algo_tag: u32,
    payload: &[u8],
) -> Result<(), SnapshotError> {
    write_document_meta(w, algo_tag, &DocumentMeta::default(), payload)?;
    Ok(())
}

/// Write a v3 snapshot document with explicit [`DocumentMeta`] (kind,
/// chain position, base checksum, wall-clock stamp).  Returns the payload
/// checksum, which a chained writer records as the next delta's base.
pub fn write_document_meta(
    w: impl std::io::Write,
    algo_tag: u32,
    meta: &DocumentMeta,
    payload: &[u8],
) -> Result<u64, SnapshotError> {
    let checksum = fnv1a(payload);
    write_document_prechecked(w, algo_tag, meta, payload, checksum)?;
    Ok(checksum)
}

/// [`write_document_meta`] with a checksum the caller already computed
/// (`CheckpointCapture` hashes the payload once at capture time; hashing
/// multi-megabyte full payloads a second time at write time would be a
/// pure waste).  The caller is responsible for `checksum == fnv1a(payload)`
/// — a wrong value produces a document every reader rejects.
pub fn write_document_prechecked(
    mut w: impl std::io::Write,
    algo_tag: u32,
    meta: &DocumentMeta,
    payload: &[u8],
    checksum: u64,
) -> Result<(), SnapshotError> {
    w.write_all(&MAGIC)?;
    w.write_all(&FORMAT_VERSION.to_le_bytes())?;
    w.write_all(&algo_tag.to_le_bytes())?;
    w.write_all(&meta.kind.tag().to_le_bytes())?;
    w.write_all(&meta.sequence.to_le_bytes())?;
    w.write_all(&meta.base_checksum.to_le_bytes())?;
    w.write_all(&meta.wall_time_millis.to_le_bytes())?;
    w.write_all(&(payload.len() as u64).to_le_bytes())?;
    w.write_all(&checksum.to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()?;
    Ok(())
}

/// The fixed-size document header, decoded without touching the payload.
///
/// Surfaced through `dynscan_core`'s `restore_any_with_info` so services
/// can log what they are restoring (format version, algorithm, kind, chain
/// position, payload size) before — or without — paying for the payload
/// decode.  For a v1 document the v2-only fields take their full-snapshot
/// defaults (kind [`SnapshotKind::Full`], sequence 0, base 0, unstamped).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SnapshotHeader {
    /// The writer's format version ([`FORMAT_VERSION_V1`] or
    /// [`FORMAT_VERSION`] after a successful peek; newer versions are
    /// rejected).
    pub format_version: u32,
    /// Which structure the payload describes.
    pub algo_tag: u32,
    /// Full or differential.
    pub kind: SnapshotKind,
    /// Chain position (0 = full, k ≥ 1 = k-th delta).
    pub sequence: u64,
    /// Payload checksum of the predecessor document (deltas only).
    pub base_checksum: u64,
    /// Wall-clock stamp in ms since the Unix epoch (0 = unstamped).
    pub wall_time_millis: u64,
    /// Payload byte count declared by the header.
    pub payload_len: u64,
    /// FNV-1a checksum of the payload declared by the header.
    pub checksum: u64,
}

impl SnapshotHeader {
    /// Byte length of this document's fixed header (version-dependent).
    pub fn header_len(&self) -> usize {
        match self.format_version {
            FORMAT_VERSION_V1 => HEADER_LEN_V1,
            _ => HEADER_LEN_V2,
        }
    }
}

/// Decode a snapshot's header without decoding the payload, verifying
/// magic and version first.  Accepts both format versions; every read is
/// length-checked, so arbitrarily short input errors instead of panicking.
pub fn peek_header(bytes: &[u8]) -> Result<SnapshotHeader, SnapshotError> {
    if bytes.len() < 12 {
        return Err(SnapshotError::Truncated);
    }
    if bytes.get(0..8) != Some(&MAGIC[..]) {
        return Err(SnapshotError::BadMagic);
    }
    let version = le_u32_at(bytes, 8)?;
    match version {
        FORMAT_VERSION_V1 => {
            if bytes.len() < HEADER_LEN_V1 {
                return Err(SnapshotError::Truncated);
            }
            Ok(SnapshotHeader {
                format_version: version,
                algo_tag: le_u32_at(bytes, 12)?,
                kind: SnapshotKind::Full,
                sequence: 0,
                base_checksum: 0,
                wall_time_millis: 0,
                payload_len: le_u64_at(bytes, 16)?,
                checksum: le_u64_at(bytes, 24)?,
            })
        }
        FORMAT_VERSION_V2 | FORMAT_VERSION => {
            if bytes.len() < HEADER_LEN_V2 {
                return Err(SnapshotError::Truncated);
            }
            Ok(SnapshotHeader {
                format_version: version,
                algo_tag: le_u32_at(bytes, 12)?,
                kind: SnapshotKind::from_tag(le_u32_at(bytes, 16)?)?,
                sequence: le_u64_at(bytes, 20)?,
                base_checksum: le_u64_at(bytes, 28)?,
                wall_time_millis: le_u64_at(bytes, 36)?,
                payload_len: le_u64_at(bytes, 44)?,
                checksum: le_u64_at(bytes, 52)?,
            })
        }
        found => Err(SnapshotError::UnsupportedVersion { found }),
    }
}

/// Read the algorithm tag out of a snapshot header without decoding the
/// payload, verifying magic and version first.
///
/// This is what lets an *erased* restore path (a registry keyed by
/// algorithm tag, such as `dynscan_core`'s `restore_any`) decide which
/// concrete restorer to dispatch to before any payload bytes are touched.
pub fn peek_algo_tag(bytes: &[u8]) -> Result<u32, SnapshotError> {
    Ok(peek_header(bytes)?.algo_tag)
}

/// Split an in-memory document into its verified header and payload:
/// magic, version, algorithm tag, declared length and checksum are all
/// validated.  Accepts both full and delta documents of either format
/// version — callers that require a full snapshot check `header.kind`.
pub fn split_document(
    bytes: &[u8],
    algo_tag: u32,
) -> Result<(SnapshotHeader, &[u8]), SnapshotError> {
    let header = peek_header(bytes)?;
    if header.algo_tag != algo_tag {
        return Err(SnapshotError::AlgorithmMismatch {
            expected: algo_tag,
            found: header.algo_tag,
        });
    }
    let start = header.header_len();
    let len = usize::try_from(header.payload_len)
        .map_err(|_| SnapshotError::Corrupt("payload length exceeds the address space"))?;
    let end = start.checked_add(len).ok_or(SnapshotError::Truncated)?;
    let payload = bytes.get(start..end).ok_or(SnapshotError::Truncated)?;
    if fnv1a(payload) != header.checksum {
        return Err(SnapshotError::ChecksumMismatch);
    }
    Ok((header, payload))
}

/// Read a **full** snapshot document from `r`, verifying magic, version
/// (v1 or v2), algorithm tag, kind and checksum; returns the payload
/// bytes.  A differential document is rejected with
/// [`SnapshotError::UnexpectedDelta`] — restore its base first.
pub fn read_document(r: impl std::io::Read, algo_tag: u32) -> Result<Vec<u8>, SnapshotError> {
    let (header, payload) = read_document_meta(r, algo_tag)?;
    if header.kind != SnapshotKind::Full {
        return Err(SnapshotError::UnexpectedDelta);
    }
    Ok(payload)
}

/// Like [`read_document`], but accepts both kinds and returns the decoded
/// header alongside the verified payload.
pub fn read_document_meta(
    mut r: impl std::io::Read,
    algo_tag: u32,
) -> Result<(SnapshotHeader, Vec<u8>), SnapshotError> {
    // The two header layouts share their first 12 bytes (magic + version);
    // read those, decide the layout, then read the version-specific rest.
    let mut prefix = [0u8; HEADER_LEN_V2];
    let shared_prefix = prefix
        .get_mut(..12)
        .ok_or(SnapshotError::Corrupt("header buffer narrower than prefix"))?;
    read_exact_or_truncated(&mut r, shared_prefix)?;
    if prefix.get(0..8) != Some(&MAGIC[..]) {
        return Err(SnapshotError::BadMagic);
    }
    let version = le_u32_at(&prefix, 8)?;
    let header_len = match version {
        FORMAT_VERSION_V1 => HEADER_LEN_V1,
        FORMAT_VERSION_V2 | FORMAT_VERSION => HEADER_LEN_V2,
        found => return Err(SnapshotError::UnsupportedVersion { found }),
    };
    let rest = prefix
        .get_mut(12..header_len)
        .ok_or(SnapshotError::Corrupt("header length outside buffer"))?;
    read_exact_or_truncated(&mut r, rest)?;
    let header_bytes = prefix
        .get(..header_len)
        .ok_or(SnapshotError::Corrupt("header length outside buffer"))?;
    let header = peek_header(header_bytes)?;
    if header.algo_tag != algo_tag {
        return Err(SnapshotError::AlgorithmMismatch {
            expected: algo_tag,
            found: header.algo_tag,
        });
    }
    let mut payload = Vec::new();
    r.take(header.payload_len).read_to_end(&mut payload)?;
    if payload.len() as u64 != header.payload_len {
        return Err(SnapshotError::Truncated);
    }
    if fnv1a(&payload) != header.checksum {
        return Err(SnapshotError::ChecksumMismatch);
    }
    Ok((header, payload))
}

fn read_exact_or_truncated(mut r: impl std::io::Read, buf: &mut [u8]) -> Result<(), SnapshotError> {
    r.read_exact(buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            SnapshotError::Truncated
        } else {
            SnapshotError::Io(e)
        }
    })
}

/// Validate a decoded adjacency structure (range, self-loops, duplicates
/// already rejected during decode): symmetry and half-edge parity.
/// Returns the edge count.  Shared by the full decode and the delta-apply
/// path.  Works over both tiers by collecting half-edges and checking the
/// sorted multiset for pairing — O(m log m), no per-probe hash lookups.
fn validate_adjacency(graph: &DynGraph) -> Result<usize, SnapshotError> {
    let n = graph.num_vertices();
    let mut half_edges: Vec<(u32, u32)> = Vec::new();
    for v in graph.vertices() {
        for x in graph.neighbours_iter(v) {
            if x.index() >= n {
                return Err(SnapshotError::Corrupt("neighbour id outside vertex space"));
            }
            half_edges
                .try_reserve(1)
                .map_err(|_| SnapshotError::Corrupt("adjacency exceeds available memory"))?;
            half_edges.push((v.raw(), x.raw()));
        }
    }
    if !half_edges.len().is_multiple_of(2) {
        return Err(SnapshotError::Corrupt("odd half-edge count"));
    }
    half_edges.sort_unstable();
    if half_edges
        .iter()
        .zip(half_edges.iter().skip(1))
        .any(|(a, b)| a == b)
    {
        return Err(SnapshotError::Corrupt("duplicate neighbour in adjacency"));
    }
    for &(v, x) in &half_edges {
        if half_edges.binary_search(&(x, v)).is_err() {
            return Err(SnapshotError::Corrupt("asymmetric adjacency"));
        }
    }
    Ok(half_edges.len() / 2)
}

/// Decode one vertex's adjacency list (length + slots, in slot order) into
/// an [`IndexedSet`], validating range, self-loops and duplicates against
/// the vertex space `n`.
fn read_adjacency_list(
    r: &mut SnapReader<'_>,
    v: usize,
    n: usize,
) -> Result<IndexedSet, SnapshotError> {
    let d = r.len_prefix()?;
    let mut set = IndexedSet::with_capacity(d);
    let mut prev: Option<VertexId> = None;
    for _ in 0..d {
        let x = r.slot_vertex(&mut prev)?;
        if x.index() >= n {
            return Err(SnapshotError::Corrupt("neighbour id outside vertex space"));
        }
        if x.index() == v {
            return Err(SnapshotError::Corrupt("self-loop in adjacency"));
        }
        if !set.insert(x) {
            return Err(SnapshotError::Corrupt("duplicate neighbour in adjacency"));
        }
    }
    Ok(set)
}

impl DynGraph {
    fn write_adjacency_list(&self, w: &mut SnapWriter, v: VertexId) {
        let adj = self.neighbours(v);
        let slots = adj.as_slice();
        w.len_prefix(slots.len());
        let mut prev: Option<VertexId> = None;
        for &x in slots {
            w.slot_vertex(&mut prev, x);
        }
    }

    /// Serialise the graph topology, preserving the *internal slot order*
    /// of every adjacency set.  Cold-tier vertices are decoded on the fly
    /// — the wire bytes are independent of the tier split.
    ///
    /// The order matters for bit-identical resume: uniform neighbourhood
    /// sampling indexes the dense adjacency vector positionally, so two
    /// graphs with equal edge sets but different slot orders consume the
    /// same random bits into different sample sequences.
    pub fn write_snapshot(&self, w: &mut SnapWriter) {
        w.len_prefix(self.num_vertices());
        for v in self.vertices() {
            self.write_adjacency_list(w, v);
        }
    }

    /// Rebuild a graph from [`DynGraph::write_snapshot`] bytes, restoring
    /// each adjacency set in its recorded slot order and validating that
    /// the adjacency lists are symmetric and self-loop free.  The restored
    /// graph starts fully hot, then demotes down to the process-default
    /// memory budget if one is set.
    pub fn read_snapshot(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        let n = r.len_prefix()?;
        let mut adjacency: Vec<IndexedSet> = Vec::with_capacity(n);
        for v in 0..n {
            adjacency.push(read_adjacency_list(r, v, n)?);
        }
        r.finish()?;
        let mut graph = DynGraph::from_parts(adjacency, 0);
        let edges = validate_adjacency(&graph)?;
        graph.set_num_edges(edges);
        graph.rebalance();
        Ok(graph)
    }

    /// Serialise only the adjacency of `dirty` vertices (which must be
    /// sorted), prefixed by the current vertex-space size — the graph
    /// section of a differential snapshot.
    pub fn write_snapshot_delta(&self, w: &mut SnapWriter, dirty: &[VertexId]) {
        w.len_prefix(self.num_vertices());
        w.len_prefix(dirty.len());
        let mut prev: Option<VertexId> = None;
        for &v in dirty {
            w.vertex_seq(&mut prev, v);
            self.write_adjacency_list(w, v);
        }
    }

    /// Apply a [`DynGraph::write_snapshot_delta`] section **in place**:
    /// grow the vertex space to the recorded size, replace only the
    /// recorded vertices' adjacency (slot order preserved), and
    /// re-validate the whole structure (symmetry, parity, ranges).  The
    /// vertex space never shrinks; a delta declaring fewer vertices than
    /// present is corrupt.  On error the graph may hold partially merged
    /// state — callers discard the instance (the contract of every
    /// delta-apply path).
    pub fn apply_snapshot_delta(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapshotError> {
        // The vertex-space size is a bare count (untouched vertices are
        // implied), so the byte-bounded `len_prefix` does not apply — and
        // the growth allocation is fallible, so a crafted count yields an
        // error instead of an allocation abort.
        let n = r.count_prefix()?;
        if n < self.num_vertices() {
            return Err(SnapshotError::Corrupt("delta shrinks the vertex space"));
        }
        if !self.try_grow(n) {
            return Err(SnapshotError::Corrupt(
                "vertex space exceeds available memory",
            ));
        }
        let dirty_count = r.len_prefix()?;
        let mut prev: Option<VertexId> = None;
        for _ in 0..dirty_count {
            let before = prev;
            let v = r.vertex_seq(&mut prev)?;
            if v.index() >= n {
                return Err(SnapshotError::Corrupt("dirty vertex outside vertex space"));
            }
            if before.is_some_and(|p| p >= v) {
                return Err(SnapshotError::Corrupt("dirty vertices not sorted"));
            }
            let list = read_adjacency_list(r, v.index(), n)?;
            self.set_adjacency(v, list);
        }
        r.finish()?;
        let edges = validate_adjacency(self)?;
        self.set_num_edges(edges);
        self.rebalance();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> VertexId {
        VertexId(i)
    }

    fn roundtrip(g: &DynGraph) -> DynGraph {
        let mut w = SnapWriter::new();
        g.write_snapshot(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        DynGraph::read_snapshot(&mut r).expect("roundtrip")
    }

    #[test]
    fn primitives_roundtrip() {
        let mut w = SnapWriter::new();
        w.u8(7);
        w.bool(true);
        w.u32(0xdead_beef);
        w.u64(u64::MAX - 3);
        w.f64(0.25);
        w.vertex(v(9));
        w.edge(EdgeKey::new(v(5), v(2)));
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert!(r.bool().unwrap());
        assert_eq!(r.u32().unwrap(), 0xdead_beef);
        assert_eq!(r.u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.f64().unwrap(), 0.25);
        assert_eq!(r.vertex().unwrap(), v(9));
        assert_eq!(r.edge().unwrap(), EdgeKey::new(v(2), v(5)));
        r.finish().unwrap();
    }

    #[test]
    fn sections_are_length_prefixed_and_tagged() {
        let mut w = SnapWriter::new();
        w.section(0x11, |s| s.u64(42));
        w.section(0x22, |s| {
            s.u32(1);
            s.u32(2);
        });
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let mut first = r.section(0x11).unwrap();
        assert_eq!(first.u64().unwrap(), 42);
        first.finish().unwrap();
        // Asking for the wrong tag is an error.
        assert!(matches!(
            r.section(0x33),
            Err(SnapshotError::UnexpectedSection {
                expected: 0x33,
                found: 0x22
            })
        ));
    }

    #[test]
    fn document_header_is_validated() {
        let payload = {
            let mut w = SnapWriter::new();
            w.u64(123);
            w.into_bytes()
        };
        let mut doc = Vec::new();
        write_document(&mut doc, 7, &payload).unwrap();
        assert_eq!(doc.len(), HEADER_LEN_V2 + payload.len());
        assert_eq!(read_document(&doc[..], 7).unwrap(), payload);
        // Wrong algorithm tag.
        assert!(matches!(
            read_document(&doc[..], 8),
            Err(SnapshotError::AlgorithmMismatch {
                expected: 8,
                found: 7
            })
        ));
        // Flipped payload byte → checksum mismatch.
        let mut bad = doc.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0xff;
        assert!(matches!(
            read_document(&bad[..], 7),
            Err(SnapshotError::ChecksumMismatch)
        ));
        // Truncated payload.
        assert!(matches!(
            read_document(&doc[..doc.len() - 2], 7),
            Err(SnapshotError::Truncated)
        ));
        // Bad magic.
        let mut nonsense = doc.clone();
        nonsense[0] = b'X';
        assert!(matches!(
            read_document(&nonsense[..], 7),
            Err(SnapshotError::BadMagic)
        ));
        // Future version.
        let mut future = doc;
        future[8..12].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
        assert!(matches!(
            read_document(&future[..], 7),
            Err(SnapshotError::UnsupportedVersion { .. })
        ));
    }

    #[test]
    fn v1_documents_still_read() {
        // The committed legacy fixture (a DynStrClu document, algorithm
        // tag 2): no v1 writer exists any more.
        let doc: &[u8] = include_bytes!("../../../tests/fixtures/golden_snapshot_v1.bin");
        let header = peek_header(doc).unwrap();
        assert_eq!(header.format_version, FORMAT_VERSION_V1);
        assert_eq!(header.algo_tag, 2);
        assert_eq!(header.kind, SnapshotKind::Full);
        assert_eq!(header.sequence, 0);
        assert_eq!(header.header_len(), HEADER_LEN_V1);
        assert_eq!(doc.len(), HEADER_LEN_V1 + header.payload_len as usize);
        let payload = &doc[HEADER_LEN_V1..];
        assert_eq!(read_document(doc, 2).unwrap(), payload);
        let (split_header, split_payload) = split_document(doc, 2).unwrap();
        assert_eq!(split_header, header);
        assert_eq!(split_payload, payload);
        assert!(!SnapReader::for_version(header.format_version, payload).compact());
    }

    #[test]
    fn delta_documents_carry_chain_metadata_and_are_rejected_as_full() {
        let payload = {
            let mut w = SnapWriter::new();
            w.u64(5);
            w.into_bytes()
        };
        let meta = DocumentMeta {
            kind: SnapshotKind::Delta,
            sequence: 3,
            base_checksum: 0xabcd,
            wall_time_millis: 1_700_000_000_000,
        };
        let mut doc = Vec::new();
        let checksum = write_document_meta(&mut doc, 7, &meta, &payload).unwrap();
        assert_eq!(checksum, fnv1a(&payload));
        let header = peek_header(&doc).unwrap();
        assert_eq!(header.kind, SnapshotKind::Delta);
        assert_eq!(header.sequence, 3);
        assert_eq!(header.base_checksum, 0xabcd);
        assert_eq!(header.wall_time_millis, 1_700_000_000_000);
        // A delta is not restorable on its own.
        assert!(matches!(
            read_document(&doc[..], 7),
            Err(SnapshotError::UnexpectedDelta)
        ));
        // …but the meta-aware reader hands it over with its header.
        let (h, p) = read_document_meta(&doc[..], 7).unwrap();
        assert_eq!(h, header);
        assert_eq!(p, payload);
        // An out-of-range kind tag is corrupt, not a panic.
        let mut bad = doc.clone();
        bad[16] = 9;
        assert!(matches!(
            peek_header(&bad),
            Err(SnapshotError::Corrupt("unknown snapshot kind tag"))
        ));
    }

    #[test]
    fn peek_header_reads_without_decoding() {
        let payload = {
            let mut w = SnapWriter::new();
            w.u64(9);
            w.into_bytes()
        };
        let mut doc = Vec::new();
        write_document(&mut doc, 42, &payload).unwrap();
        let header = peek_header(&doc).unwrap();
        assert_eq!(header.format_version, FORMAT_VERSION);
        assert_eq!(header.algo_tag, 42);
        assert_eq!(header.kind, SnapshotKind::Full);
        assert_eq!(header.payload_len, payload.len() as u64);
        assert_eq!(header.checksum, fnv1a(&payload));
        // Truncation anywhere in the header errors, never panics.
        for cut in 0..HEADER_LEN_V2 {
            assert!(
                matches!(peek_header(&doc[..cut]), Err(SnapshotError::Truncated)),
                "cut at {cut}"
            );
        }
        let mut bad = doc;
        bad[2] ^= 0xff;
        assert!(matches!(peek_header(&bad), Err(SnapshotError::BadMagic)));
    }

    #[test]
    fn oversized_length_prefix_is_rejected() {
        let mut w = SnapWriter::new();
        w.u64(u64::MAX);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert!(matches!(r.len_prefix(), Err(SnapshotError::Corrupt(_))));
    }

    #[test]
    fn graph_roundtrip_preserves_slot_order() {
        let mut g = DynGraph::new();
        for (a, b) in [(0u32, 1u32), (0, 2), (0, 3), (1, 2), (2, 3), (0, 4)] {
            g.insert_edge(v(a), v(b)).unwrap();
        }
        // Swap-remove shuffles slot order away from insertion order.
        g.delete_edge(v(0), v(2)).unwrap();
        let restored = roundtrip(&g);
        assert_eq!(restored.num_vertices(), g.num_vertices());
        assert_eq!(restored.num_edges(), g.num_edges());
        for x in g.vertices() {
            assert_eq!(
                restored.neighbours(x).as_slice(),
                g.neighbours(x).as_slice(),
                "slot order must survive the roundtrip for vertex {x}"
            );
        }
    }

    #[test]
    fn empty_graph_roundtrips() {
        let g = DynGraph::new();
        let restored = roundtrip(&g);
        assert_eq!(restored.num_vertices(), 0);
        assert_eq!(restored.num_edges(), 0);
        let g2 = DynGraph::with_vertices(5);
        let restored2 = roundtrip(&g2);
        assert_eq!(restored2.num_vertices(), 5);
        assert_eq!(restored2.num_edges(), 0);
    }

    #[test]
    fn graph_delta_replays_to_the_full_snapshot() {
        let mut g = DynGraph::new();
        for (a, b) in [(0u32, 1u32), (0, 2), (1, 2), (2, 3)] {
            g.insert_edge(v(a), v(b)).unwrap();
        }
        let mut base = g.clone();
        // Mutate: touch vertices 0, 2, 4, 5.
        g.delete_edge(v(0), v(2)).unwrap();
        g.insert_edge(v(4), v(5)).unwrap();
        g.insert_edge(v(2), v(5)).unwrap();
        let mut w = SnapWriter::new();
        g.write_snapshot_delta(&mut w, &[v(0), v(2), v(4), v(5)]);
        let bytes = w.into_bytes();
        base.apply_snapshot_delta(&mut SnapReader::new(&bytes))
            .expect("delta applies");
        assert_eq!(base.num_edges(), g.num_edges());
        for x in g.vertices() {
            assert_eq!(
                base.neighbours(x).as_slice(),
                g.neighbours(x).as_slice(),
                "vertex {x}"
            );
        }
    }

    #[test]
    fn graph_delta_rejects_asymmetry_and_shrink() {
        let mut g = DynGraph::new();
        g.insert_edge(v(0), v(1)).unwrap();
        // A delta rewriting vertex 0's list to [2] breaks symmetry while
        // keeping the half-edge count even (0 → [2], 1 → [0], 2 → []).
        let mut w = SnapWriter::new();
        w.len_prefix(3); // n grows to 3
        w.len_prefix(1); // one dirty vertex
        w.vertex(v(0));
        w.len_prefix(1);
        w.vertex(v(2));
        let bytes = w.into_bytes();
        assert!(matches!(
            g.clone().apply_snapshot_delta(&mut SnapReader::new(&bytes)),
            Err(SnapshotError::Corrupt("asymmetric adjacency"))
        ));
        // Shrinking the vertex space is corrupt.
        let mut w = SnapWriter::new();
        w.len_prefix(1);
        w.len_prefix(0);
        let bytes = w.into_bytes();
        assert!(matches!(
            g.apply_snapshot_delta(&mut SnapReader::new(&bytes)),
            Err(SnapshotError::Corrupt("delta shrinks the vertex space"))
        ));
    }

    #[test]
    fn corrupt_adjacency_is_rejected() {
        // Asymmetric adjacency (even half-edge count so the parity check
        // does not trip first): 0 lists 1, 1 lists 2, 2 lists nothing.
        let mut w = SnapWriter::new();
        w.len_prefix(3);
        w.len_prefix(1);
        w.vertex(v(1));
        w.len_prefix(1);
        w.vertex(v(2));
        w.len_prefix(0);
        let bytes = w.into_bytes();
        assert!(matches!(
            DynGraph::read_snapshot(&mut SnapReader::new(&bytes)),
            Err(SnapshotError::Corrupt("asymmetric adjacency"))
        ));
        // Out-of-range neighbour id.
        let mut w = SnapWriter::new();
        w.len_prefix(1);
        w.len_prefix(1);
        w.vertex(v(7));
        let bytes = w.into_bytes();
        assert!(matches!(
            DynGraph::read_snapshot(&mut SnapReader::new(&bytes)),
            Err(SnapshotError::Corrupt("neighbour id outside vertex space"))
        ));
    }
}
