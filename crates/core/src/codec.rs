//! Storage & wire codecs: the text v2 formats and the binary v3 format
//! behind one [`Codec`] trait.
//!
//! Everything durable or shipped — snapshot generations, WAL records,
//! replication batches, protocol frames — is encoded through a codec so
//! the serving and recovery layers are format-agnostic:
//!
//! * [`TextV2`] — the human-readable formats, unchanged on disk:
//!   `STREAMLINK-SNAP v2` framed JSON snapshots and `F <seq> <u> <v>
//!   <crc32>` WAL lines. Kept both for rollback (`serve --format v2`)
//!   and for `grep`-ability.
//! * [`BinaryV3`] — the default ([`WireFormat::default`]): a
//!   checksummed binary envelope with LEB128 varints and delta-encoded
//!   sorted columns. Snapshots shrink several-fold and decode without a
//!   JSON parser; recovery replay gets correspondingly faster
//!   (experiment E24 gates the ratio).
//!
//! ## The v3 envelope
//!
//! Every v3 record — on disk or on the wire — is one envelope:
//!
//! ```text
//! "SLB3"  version  mode  body_len  body        crc32
//! 4 bytes  1 byte 1 byte  varint  body_len B  4 B LE
//! ```
//!
//! The CRC-32 ([`hashkit::crc32()`]) covers everything between the magic
//! and the trailer (version, mode, length varint, body), so any bit flip
//! in the framing or payload fails verification; the magic itself is the
//! format sniff, so a flipped magic simply stops being v3. Decoders are
//! hard-limit bounded ([`MAX_BODY_LEN`], [`MAX_SLOT_COUNT`]) and never
//! allocate more than the input could justify, so corrupt or adversarial
//! length fields cannot balloon memory — they fail closed into the same
//! quarantine paths the text formats use.
//!
//! Store snapshots, the one large record, are read from a seekable
//! source in chunks ([`read_store_snapshot`]): a first pass checks the
//! framing and the CRC, a second decodes, so a generation file is never
//! held whole beside the store it decodes into.
//!
//! ## Columnar snapshot bodies
//!
//! A v3 snapshot body stores per-sketch slot state as three columns:
//! the non-empty slot hashes sorted ascending and delta-encoded (minima
//! of uniform hashes delta-compress well), the slot-index permutation
//! that returns each hash to its slot, and the argmin vertex ids.
//! Vertex ids are likewise sorted and delta-encoded across the store.
//!
//! ## Varints
//!
//! Unsigned LEB128: 7 value bits per byte, high bit is the continuation
//! flag, low groups first, at most 10 bytes for a `u64`.

use std::fmt;
use std::io;

use graphstream::VertexId;
use hashkit::crc32::{crc32, Crc32};

use crate::config::{HasherBackend, SketchConfig};
use crate::journal::JournalEntry;
use crate::sketch::{Slot, VertexSketch};
use crate::snapshot::{self, StoreSnapshot, VertexEntry};

/// The 4-byte magic opening every binary v3 envelope.
pub const BINARY_MAGIC: [u8; 4] = *b"SLB3";

/// The format version byte carried after the magic.
pub const BINARY_VERSION: u8 = 3;

/// Hard upper bound on one envelope's body length. A corrupt length
/// field beyond this fails decoding immediately instead of driving a
/// huge read or allocation.
pub const MAX_BODY_LEN: u64 = 1 << 28;

/// Hard upper bound on the slot count of a decoded sketch (far above
/// any configurable width).
pub const MAX_SLOT_COUNT: u64 = 1 << 20;

/// Envelope mode byte: one WAL edge record.
pub const MODE_WAL_ENTRY: u8 = 0x01;
/// Envelope mode byte: a [`StoreSnapshot`] body.
pub const MODE_STORE_SNAPSHOT: u8 = 0x02;
// Mode byte 0x03 is retired (robust-store snapshots). Never reuse it:
// a file written with it must never decode as something else.
/// Envelope mode byte: a protocol frame whose body is UTF-8 command or
/// response text (the negotiated binary wire mode).
pub const MODE_TEXT_FRAME: u8 = 0x04;
/// Envelope mode byte: a replication batch of WAL entries.
pub const MODE_WAL_BATCH: u8 = 0x05;
/// Envelope mode byte: an anti-entropy snapshot transfer whose body is
/// `varint seq · varint raw_len · LZ-compressed snapshot bytes`. The
/// snapshot bytes are a v3 [`MODE_STORE_SNAPSHOT`] envelope; primaries
/// older than that shipped the JSON document the text plane ships, so
/// receivers sniff ([`is_binary`]) before decoding.
pub const MODE_SNAPSHOT_FRAME: u8 = 0x06;

/// Why a binary decode failed. Every variant is a fail-closed outcome:
/// callers treat the input as corrupt and route it to quarantine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The input ends before the envelope (or a field) is complete.
    Truncated,
    /// The input does not start with [`BINARY_MAGIC`].
    BadMagic,
    /// The version byte is not [`BINARY_VERSION`].
    BadVersion(u8),
    /// The mode byte is not one this decoder accepts.
    BadMode(u8),
    /// The CRC-32 trailer does not match the framed bytes.
    BadCrc,
    /// A length field exceeds its hard limit.
    TooLarge(&'static str),
    /// The framing verified but the body is structurally invalid.
    Malformed(&'static str),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "truncated record"),
            CodecError::BadMagic => write!(f, "missing binary magic"),
            CodecError::BadVersion(v) => write!(f, "unsupported format version {v}"),
            CodecError::BadMode(m) => write!(f, "unexpected record mode {m:#04x}"),
            CodecError::BadCrc => write!(f, "CRC mismatch"),
            CodecError::TooLarge(what) => write!(f, "{what} exceeds hard limit"),
            CodecError::Malformed(what) => write!(f, "malformed body: {what}"),
        }
    }
}

impl From<CodecError> for io::Error {
    fn from(e: CodecError) -> Self {
        io::Error::new(io::ErrorKind::InvalidData, e.to_string())
    }
}

/// Appends `value` as an unsigned LEB128 varint.
pub fn write_varint(out: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads one LEB128 varint at `*pos`, advancing it.
///
/// # Errors
/// [`CodecError::Truncated`] if the input ends mid-varint;
/// [`CodecError::Malformed`] if the encoding overflows a `u64`.
pub fn read_varint(bytes: &[u8], pos: &mut usize) -> Result<u64, CodecError> {
    let mut value: u64 = 0;
    for i in 0..10u32 {
        let Some(&b) = bytes.get(*pos) else {
            return Err(CodecError::Truncated);
        };
        *pos += 1;
        let group = u64::from(b & 0x7f);
        if i == 9 && group > 1 {
            return Err(CodecError::Malformed("varint overflows u64"));
        }
        value |= group << (7 * i);
        if b & 0x80 == 0 {
            return Ok(value);
        }
    }
    Err(CodecError::Malformed("varint longer than 10 bytes"))
}

/// Whether `bytes` opens with the binary v3 magic — the format sniff
/// used by every auto-detecting read path.
#[must_use]
pub fn is_binary(bytes: &[u8]) -> bool {
    bytes.starts_with(&BINARY_MAGIC)
}

/// A decoded v3 envelope: the mode byte, the body slice, and how many
/// input bytes the whole record consumed (for scanning concatenated
/// records).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Envelope<'a> {
    /// The record's mode byte.
    pub mode: u8,
    /// The verified body.
    pub body: &'a [u8],
    /// Total encoded length including magic and CRC trailer.
    pub consumed: usize,
}

/// Wraps `body` in a v3 envelope (magic, version, mode, length varint,
/// body, CRC-32 trailer).
#[must_use]
pub fn encode_envelope(mode: u8, body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(body.len() + 20);
    push_envelope_head(&mut out, mode, body.len() as u64);
    out.extend_from_slice(body);
    let crc = crc32(&out[BINARY_MAGIC.len()..]);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Appends an envelope's opening bytes: magic, version, mode and the
/// body length varint.
fn push_envelope_head(out: &mut Vec<u8>, mode: u8, body_len: u64) {
    out.extend_from_slice(&BINARY_MAGIC);
    out.push(BINARY_VERSION);
    out.push(mode);
    write_varint(out, body_len);
}

/// Decodes and verifies one envelope at the start of `bytes`.
///
/// Trailing bytes after the record are fine (concatenated records);
/// [`Envelope::consumed`] says where this one ends.
///
/// # Errors
/// Fails closed on any framing defect — missing magic, bad version,
/// truncation, an oversized length field, or a CRC mismatch.
pub fn decode_envelope(bytes: &[u8]) -> Result<Envelope<'_>, CodecError> {
    if bytes.len() < BINARY_MAGIC.len() {
        return Err(if is_binary(bytes) || BINARY_MAGIC.starts_with(bytes) {
            CodecError::Truncated
        } else {
            CodecError::BadMagic
        });
    }
    if !is_binary(bytes) {
        return Err(CodecError::BadMagic);
    }
    let mut pos = BINARY_MAGIC.len();
    let Some(&version) = bytes.get(pos) else {
        return Err(CodecError::Truncated);
    };
    if version != BINARY_VERSION {
        return Err(CodecError::BadVersion(version));
    }
    pos += 1;
    let Some(&mode) = bytes.get(pos) else {
        return Err(CodecError::Truncated);
    };
    pos += 1;
    let body_len = read_varint(bytes, &mut pos)?;
    if body_len > MAX_BODY_LEN {
        return Err(CodecError::TooLarge("record body length"));
    }
    let body_len =
        usize::try_from(body_len).map_err(|_| CodecError::TooLarge("record body length"))?;
    let body_end = pos
        .checked_add(body_len)
        .ok_or(CodecError::TooLarge("record body length"))?;
    let trailer_end = body_end
        .checked_add(4)
        .ok_or(CodecError::TooLarge("record body length"))?;
    if bytes.len() < trailer_end {
        return Err(CodecError::Truncated);
    }
    let expected = u32::from_le_bytes(
        bytes[body_end..trailer_end]
            .try_into()
            .expect("4-byte slice"),
    );
    if crc32(&bytes[BINARY_MAGIC.len()..body_end]) != expected {
        return Err(CodecError::BadCrc);
    }
    Ok(Envelope {
        mode,
        body: &bytes[pos..body_end],
        consumed: trailer_end,
    })
}

// ---------------------------------------------------------------------
// WAL entries and replication batches
// ---------------------------------------------------------------------

fn wal_entry_body(entry: &JournalEntry) -> Vec<u8> {
    let mut body = Vec::with_capacity(16);
    write_varint(&mut body, entry.seq);
    write_varint(&mut body, entry.u.0);
    write_varint(&mut body, entry.v.0);
    body
}

/// Encodes one WAL entry as a standalone v3 record.
#[must_use]
pub fn encode_wal_entry(entry: &JournalEntry) -> Vec<u8> {
    encode_envelope(MODE_WAL_ENTRY, &wal_entry_body(entry))
}

/// Decodes the body of a [`MODE_WAL_ENTRY`] envelope.
///
/// # Errors
/// Fails if the body is not exactly three varints.
pub fn decode_wal_entry_body(body: &[u8]) -> Result<JournalEntry, CodecError> {
    let mut pos = 0;
    let seq = read_varint(body, &mut pos)?;
    let u = read_varint(body, &mut pos)?;
    let v = read_varint(body, &mut pos)?;
    if pos != body.len() {
        return Err(CodecError::Malformed("trailing bytes after WAL entry"));
    }
    Ok(JournalEntry {
        seq,
        u: VertexId(u),
        v: VertexId(v),
    })
}

/// Encodes a replication pull batch: the primary's high-water seq and a
/// seq-ascending run of entries (seqs delta-encoded).
#[must_use]
pub fn encode_wal_batch(entries: &[JournalEntry], primary_seq: u64) -> Vec<u8> {
    let mut body = Vec::with_capacity(8 + entries.len() * 8);
    write_varint(&mut body, primary_seq);
    write_varint(&mut body, entries.len() as u64);
    let mut prev = 0u64;
    for (i, e) in entries.iter().enumerate() {
        let delta = if i == 0 {
            e.seq
        } else {
            e.seq.wrapping_sub(prev)
        };
        write_varint(&mut body, delta);
        prev = e.seq;
        write_varint(&mut body, e.u.0);
        write_varint(&mut body, e.v.0);
    }
    encode_envelope(MODE_WAL_BATCH, &body)
}

/// Decodes the body of a [`MODE_WAL_BATCH`] envelope into
/// `(entries, primary_seq)`.
///
/// # Errors
/// Fails on truncation, non-ascending seqs, or count/length mismatch.
pub fn decode_wal_batch_body(body: &[u8]) -> Result<(Vec<JournalEntry>, u64), CodecError> {
    let mut pos = 0;
    let primary_seq = read_varint(body, &mut pos)?;
    let count = read_varint(body, &mut pos)?;
    // Each entry needs at least 3 bytes; a count the remaining bytes
    // cannot hold is corrupt, and bounding the pre-allocation by it
    // keeps a flipped count bit from ballooning memory.
    if count > (body.len() - pos.min(body.len())) as u64 {
        return Err(CodecError::Malformed("batch count exceeds body"));
    }
    let count = usize::try_from(count).map_err(|_| CodecError::TooLarge("batch count"))?;
    let mut entries = Vec::with_capacity(count);
    let mut prev = 0u64;
    for i in 0..count {
        let delta = read_varint(body, &mut pos)?;
        let seq = if i == 0 {
            delta
        } else {
            prev.checked_add(delta)
                .filter(|_| delta > 0)
                .ok_or(CodecError::Malformed("batch seqs not ascending"))?
        };
        prev = seq;
        let u = read_varint(body, &mut pos)?;
        let v = read_varint(body, &mut pos)?;
        entries.push(JournalEntry {
            seq,
            u: VertexId(u),
            v: VertexId(v),
        });
    }
    if pos != body.len() {
        return Err(CodecError::Malformed("trailing bytes after batch"));
    }
    Ok((entries, primary_seq))
}

/// Encodes UTF-8 command/response text as a [`MODE_TEXT_FRAME`] record —
/// the unit of the negotiated binary protocol mode.
#[must_use]
pub fn encode_text_frame(text: &str) -> Vec<u8> {
    encode_envelope(MODE_TEXT_FRAME, text.as_bytes())
}

/// Reads one complete envelope from a blocking byte stream, returning
/// its `(mode, body)`. This is the client side of the negotiated binary
/// protocol mode, where frames arrive back-to-back on a socket and the
/// length prefix is the only delimiter.
///
/// # Errors
/// `UnexpectedEof` when the peer closes mid-frame; `InvalidData` (via
/// [`CodecError`]) for any framing defect, including an oversized
/// length field — rejected before any allocation happens.
pub fn read_envelope_blocking(reader: &mut impl io::Read) -> io::Result<(u8, Vec<u8>)> {
    // Magic + version + mode.
    let mut buf = vec![0u8; BINARY_MAGIC.len() + 2];
    reader.read_exact(&mut buf)?;
    if !is_binary(&buf) {
        return Err(CodecError::BadMagic.into());
    }
    let version = buf[BINARY_MAGIC.len()];
    if version != BINARY_VERSION {
        return Err(CodecError::BadVersion(version).into());
    }
    // Length varint, one byte at a time (at most 10).
    let varint_start = buf.len();
    loop {
        let mut byte = [0u8; 1];
        reader.read_exact(&mut byte)?;
        buf.push(byte[0]);
        if byte[0] & 0x80 == 0 {
            break;
        }
        if buf.len() - varint_start >= 10 {
            return Err(CodecError::Malformed("varint too long").into());
        }
    }
    let mut pos = varint_start;
    let body_len = read_varint(&buf, &mut pos)?;
    if body_len > MAX_BODY_LEN {
        return Err(CodecError::TooLarge("record body length").into());
    }
    // Body + CRC trailer, then verify through the one decoder.
    let rest = body_len as usize + 4;
    let start = buf.len();
    buf.resize(start + rest, 0);
    reader.read_exact(&mut buf[start..])?;
    let env = decode_envelope(&buf)?;
    Ok((env.mode, env.body.to_vec()))
}

// ---------------------------------------------------------------------
// LZ compression (anti-entropy snapshot bodies)
// ---------------------------------------------------------------------

/// Shortest backreference worth emitting.
const LZ_MIN_MATCH: usize = 4;
/// Longest backreference one token can carry (`0x80..=0xff` → 4..=131).
const LZ_MAX_MATCH: usize = LZ_MIN_MATCH + 0x7e;
/// Match window: backreference distances fit comfortably in a varint
/// and the matcher's table stays cache-friendly.
const LZ_WINDOW: usize = 1 << 16;
/// Longest literal run one token can carry (`0x00..=0x7f` → 1..=128).
const LZ_MAX_LITERALS: usize = 0x80;

/// Compresses `input` with a small greedy LZ77 (hash-table matcher,
/// 64 KiB window). The token stream is byte-oriented: a control byte
/// `< 0x80` copies `control + 1` literal bytes that follow; a control
/// byte `>= 0x80` is a backreference of length `control - 0x80 + 4`
/// whose distance follows as a varint. No entropy stage — the point is
/// shrinking highly repetitive snapshot JSON several-fold with zero
/// dependencies, not competing with zstd.
#[must_use]
pub fn lz_compress(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() / 2 + 16);
    // One slot per 3-byte-prefix hash: position of its last occurrence.
    let mut table = vec![usize::MAX; 1 << 15];
    let hash = |window: &[u8]| -> usize {
        let h = (u32::from(window[0]) << 16) | (u32::from(window[1]) << 8) | u32::from(window[2]);
        (h.wrapping_mul(0x9e37_79b1) >> 17) as usize
    };
    let mut literals_from = 0usize;
    let flush_literals = |out: &mut Vec<u8>, from: usize, to: usize| {
        let mut start = from;
        while start < to {
            let run = (to - start).min(LZ_MAX_LITERALS);
            out.push((run - 1) as u8);
            out.extend_from_slice(&input[start..start + run]);
            start += run;
        }
    };
    let mut i = 0usize;
    while i + LZ_MIN_MATCH <= input.len() {
        let slot = hash(&input[i..]);
        let candidate = table[slot];
        table[slot] = i;
        let mut matched = 0usize;
        if candidate != usize::MAX && i - candidate <= LZ_WINDOW {
            let limit = (input.len() - i).min(LZ_MAX_MATCH);
            while matched < limit && input[candidate + matched] == input[i + matched] {
                matched += 1;
            }
        }
        if matched >= LZ_MIN_MATCH {
            flush_literals(&mut out, literals_from, i);
            out.push(0x80 + (matched - LZ_MIN_MATCH) as u8);
            write_varint(&mut out, (i - candidate) as u64);
            // Seed the table across the matched span (sparsely — every
            // position would be slower for little extra ratio).
            let mut j = i + 1;
            while j + LZ_MIN_MATCH <= input.len() && j < i + matched {
                table[hash(&input[j..])] = j;
                j += 2;
            }
            i += matched;
            literals_from = i;
        } else {
            i += 1;
        }
    }
    flush_literals(&mut out, literals_from, input.len());
    out
}

/// Decompresses [`lz_compress`] output. `max_len` bounds the result so
/// corrupt or hostile token streams cannot drive an unbounded
/// allocation.
///
/// # Errors
/// [`CodecError::Truncated`] on a short token stream,
/// [`CodecError::Malformed`] on an invalid backreference, and
/// [`CodecError::TooLarge`] past `max_len`.
pub fn lz_decompress(input: &[u8], max_len: u64) -> Result<Vec<u8>, CodecError> {
    let mut out = Vec::new();
    let mut pos = 0usize;
    while pos < input.len() {
        let control = input[pos];
        pos += 1;
        if control < 0x80 {
            let run = control as usize + 1;
            if pos + run > input.len() {
                return Err(CodecError::Truncated);
            }
            if out.len() + run > max_len as usize {
                return Err(CodecError::TooLarge("decompressed length"));
            }
            out.extend_from_slice(&input[pos..pos + run]);
            pos += run;
        } else {
            let len = control as usize - 0x80 + LZ_MIN_MATCH;
            let distance = read_varint(input, &mut pos)? as usize;
            if distance == 0 || distance > out.len() {
                return Err(CodecError::Malformed("backreference outside window"));
            }
            if out.len() + len > max_len as usize {
                return Err(CodecError::TooLarge("decompressed length"));
            }
            let start = out.len() - distance;
            // Overlapping copies are legal (distance < len repeats).
            for k in 0..len {
                let b = out[start + k];
                out.push(b);
            }
        }
    }
    Ok(out)
}

/// Encodes an anti-entropy snapshot transfer as one
/// [`MODE_SNAPSHOT_FRAME`] envelope: the WAL seq the snapshot covers,
/// the raw byte length, and the LZ-compressed snapshot document.
#[must_use]
pub fn encode_snapshot_frame(seq: u64, raw: &[u8]) -> Vec<u8> {
    let mut body = Vec::with_capacity(raw.len() / 2 + 16);
    write_varint(&mut body, seq);
    write_varint(&mut body, raw.len() as u64);
    body.extend_from_slice(&lz_compress(raw));
    encode_envelope(MODE_SNAPSHOT_FRAME, &body)
}

/// Decodes the body of a [`MODE_SNAPSHOT_FRAME`] envelope back into
/// `(seq, raw snapshot bytes)`.
///
/// # Errors
/// Any [`CodecError`] on malformed framing, a raw length past
/// [`MAX_BODY_LEN`], or a decompressed size that disagrees with the
/// declared one.
pub fn decode_snapshot_frame_body(body: &[u8]) -> Result<(u64, Vec<u8>), CodecError> {
    let mut pos = 0usize;
    let seq = read_varint(body, &mut pos)?;
    let raw_len = read_varint(body, &mut pos)?;
    if raw_len > MAX_BODY_LEN {
        return Err(CodecError::TooLarge("snapshot raw length"));
    }
    let raw = lz_decompress(&body[pos..], raw_len)?;
    if raw.len() as u64 != raw_len {
        return Err(CodecError::Malformed("decompressed length mismatch"));
    }
    Ok((seq, raw))
}

// ---------------------------------------------------------------------
// Columnar sketch encoding
// ---------------------------------------------------------------------

fn encode_sketch(out: &mut Vec<u8>, sketch: &VertexSketch) {
    let mut filled: Vec<(u64, usize, u64)> = sketch
        .slots()
        .iter()
        .enumerate()
        .filter(|(_, s)| !s.is_empty())
        .map(|(i, s)| (s.hash, i, s.argmin.0))
        .collect();
    filled.sort_unstable();
    write_varint(out, filled.len() as u64);
    // Column 1: sorted hashes, delta-encoded.
    let mut prev = 0u64;
    for &(hash, _, _) in &filled {
        write_varint(out, hash - prev);
        prev = hash;
    }
    // Column 2: the slot-index permutation.
    for &(_, idx, _) in &filled {
        write_varint(out, idx as u64);
    }
    // Column 3: the argmin vertices.
    for &(_, _, argmin) in &filled {
        write_varint(out, argmin);
    }
}

/// Column buffers reused across the sketches of one snapshot decode.
struct SketchColumns {
    hashes: Vec<u64>,
    indices: Vec<usize>,
    taken: Vec<bool>,
}

impl SketchColumns {
    fn new(k: usize) -> Self {
        Self {
            hashes: Vec::new(),
            indices: Vec::new(),
            taken: vec![false; k],
        }
    }
}

/// Decodes one sketch straight into the single slot allocation it keeps.
fn decode_sketch<R: io::Read>(
    r: &mut EnvelopeReader<R>,
    cols: &mut SketchColumns,
) -> io::Result<VertexSketch> {
    let k = cols.taken.len();
    let filled = r.varint()?;
    if filled > k as u64 {
        return Err(CodecError::Malformed("filled slots exceed sketch width").into());
    }
    cols.hashes.clear();
    let mut prev = 0u64;
    for i in 0..filled {
        let delta = r.varint()?;
        let hash = if i == 0 {
            delta
        } else {
            prev.checked_add(delta)
                .ok_or(CodecError::Malformed("hash column overflows"))?
        };
        prev = hash;
        cols.hashes.push(hash);
    }
    cols.indices.clear();
    for _ in 0..filled {
        let idx = usize::try_from(r.varint()?)
            .ok()
            .filter(|&i| i < k)
            .ok_or(CodecError::Malformed("slot index out of range"))?;
        if std::mem::replace(&mut cols.taken[idx], true) {
            return Err(CodecError::Malformed("duplicate slot index").into());
        }
        cols.indices.push(idx);
    }
    let mut sketch = VertexSketch::new(k);
    let slots = sketch.unshared_slots_mut();
    for (&idx, &hash) in cols.indices.iter().zip(&cols.hashes) {
        cols.taken[idx] = false;
        slots[idx] = Slot {
            hash,
            argmin: VertexId(r.varint()?),
        };
    }
    Ok(sketch)
}

// ---------------------------------------------------------------------
// Snapshot bodies
// ---------------------------------------------------------------------

fn backend_byte(backend: HasherBackend) -> u8 {
    match backend {
        HasherBackend::Mixer => 0,
        HasherBackend::Tabulation => 1,
    }
}

fn backend_from(byte: u64) -> Result<HasherBackend, CodecError> {
    match byte {
        0 => Ok(HasherBackend::Mixer),
        1 => Ok(HasherBackend::Tabulation),
        _ => Err(CodecError::Malformed("unknown hasher backend")),
    }
}

fn encode_config(out: &mut Vec<u8>, config: &SketchConfig) -> Result<(), CodecError> {
    if config.slots() as u64 > MAX_SLOT_COUNT {
        return Err(CodecError::TooLarge("sketch slot count"));
    }
    write_varint(out, config.slots() as u64);
    write_varint(out, config.base_seed());
    out.push(backend_byte(config.hasher_backend()));
    Ok(())
}

fn decode_config<R: io::Read>(r: &mut EnvelopeReader<R>) -> io::Result<SketchConfig> {
    let slots = r.varint()?;
    if slots == 0 || slots > MAX_SLOT_COUNT {
        return Err(CodecError::Malformed("slot count out of range").into());
    }
    let slots = usize::try_from(slots).map_err(|_| CodecError::TooLarge("slot count"))?;
    let seed = r.varint()?;
    let backend = backend_from(u64::from(r.byte()?))?;
    Ok(SketchConfig::with_slots(slots).seed(seed).backend(backend))
}

/// Decodes the sorted, delta-encoded vertex-id column.
fn decode_vertex_column<R: io::Read>(
    r: &mut EnvelopeReader<R>,
    count: usize,
) -> io::Result<Vec<VertexId>> {
    let mut out = Vec::with_capacity(count);
    let mut prev = 0u64;
    for i in 0..count {
        let delta = r.varint()?;
        let id = if i == 0 {
            delta
        } else {
            prev.checked_add(delta)
                .filter(|_| delta > 0)
                .ok_or(CodecError::Malformed("vertex ids not strictly ascending"))?
        };
        prev = id;
        out.push(VertexId(id));
    }
    Ok(out)
}

fn read_vertex_count<R: io::Read>(r: &mut EnvelopeReader<R>) -> io::Result<usize> {
    let count = r.varint()?;
    // Every vertex costs at least two body bytes (id delta + degree or
    // sketch header); a count beyond the remaining bytes is corrupt.
    if count > r.body_left {
        return Err(CodecError::Malformed("vertex count exceeds body").into());
    }
    Ok(usize::try_from(count).map_err(|_| CodecError::TooLarge("vertex count"))?)
}

/// Encoder output gathered into chunks of about [`Chunks::SIZE`] bytes
/// and handed to a sink, so a snapshot body can be measured or written
/// without ever existing whole in memory.
struct Chunks<'a> {
    buf: Vec<u8>,
    sink: &'a mut dyn FnMut(&[u8]) -> io::Result<()>,
}

impl Chunks<'_> {
    const SIZE: usize = 64 << 10;

    /// Hands the buffer on once it holds a chunk.
    fn spill(&mut self) -> io::Result<()> {
        if self.buf.len() >= Self::SIZE {
            (self.sink)(&self.buf)?;
            self.buf.clear();
        }
        Ok(())
    }

    fn finish(self) -> io::Result<()> {
        (self.sink)(&self.buf)
    }
}

/// Encodes the v3 body of `snap` in chunks, handing each to `sink`.
fn emit_store_snapshot_body(
    snap: &StoreSnapshot,
    sink: &mut dyn FnMut(&[u8]) -> io::Result<()>,
) -> io::Result<()> {
    let mut out = Chunks {
        buf: Vec::with_capacity(Chunks::SIZE + 4096),
        sink,
    };
    encode_config(&mut out.buf, &snap.config)?;
    write_varint(&mut out.buf, snap.edges_processed);
    write_varint(&mut out.buf, snap.vertices.len() as u64);
    let mut prev = 0u64;
    for (i, entry) in snap.vertices.iter().enumerate() {
        let delta = if i == 0 {
            entry.vertex.0
        } else {
            entry.vertex.0.wrapping_sub(prev)
        };
        write_varint(&mut out.buf, delta);
        prev = entry.vertex.0;
        out.spill()?;
    }
    for entry in &snap.vertices {
        write_varint(&mut out.buf, entry.degree);
        out.spill()?;
    }
    for entry in &snap.vertices {
        encode_sketch(&mut out.buf, &entry.sketch);
        out.spill()?;
    }
    out.finish()
}

fn encode_store_snapshot_body(snap: &StoreSnapshot) -> io::Result<Vec<u8>> {
    let mut body = Vec::with_capacity(32 + snap.vertices.len() * 16);
    emit_store_snapshot_body(snap, &mut |chunk| {
        body.extend_from_slice(chunk);
        Ok(())
    })?;
    Ok(body)
}

fn decode_store_snapshot_body<R: io::Read>(r: &mut EnvelopeReader<R>) -> io::Result<StoreSnapshot> {
    let config = decode_config(r)?;
    let edges_processed = r.varint()?;
    let count = read_vertex_count(r)?;
    let ids = decode_vertex_column(r, count)?;
    let mut degrees = Vec::with_capacity(count);
    for _ in 0..count {
        degrees.push(r.varint()?);
    }
    let mut cols = SketchColumns::new(config.slots());
    let mut vertices = Vec::with_capacity(count);
    for (vertex, degree) in ids.into_iter().zip(degrees) {
        vertices.push(VertexEntry {
            vertex,
            sketch: decode_sketch(r, &mut cols)?,
            degree,
        });
    }
    if r.body_left != 0 {
        return Err(CodecError::Malformed("trailing bytes after snapshot").into());
    }
    Ok(StoreSnapshot {
        config,
        edges_processed,
        vertices,
    })
}

/// Bytes a streamed envelope read pulls from its source at a time.
const READ_CHUNK: usize = 64 << 10;

/// One v3 envelope read from a byte source in `READ_CHUNK` pieces.
/// The body decoder reads through [`Self::varint`] and [`Self::byte`],
/// which stop at the declared body length; every byte between the magic
/// and the trailer folds into the CRC that [`Self::finish`] checks.
struct EnvelopeReader<R> {
    src: R,
    buf: Box<[u8]>,
    /// Next unread byte of `buf`.
    pos: usize,
    /// End of the bytes `buf` holds.
    end: usize,
    /// Start of the read bytes not yet folded into `crc`.
    crc_from: usize,
    crc: Crc32,
    /// Body bytes not yet read.
    body_left: u64,
}

impl<R: io::Read> EnvelopeReader<R> {
    /// Opens the envelope `src` holds, `len` bytes in all: checks the
    /// magic, the version, that the mode is `mode`, and that the
    /// declared body plus trailer fill exactly the rest of `len`.
    fn open(src: R, len: u64, mode: u8) -> io::Result<Self> {
        let mut r = Self {
            src,
            buf: vec![0; READ_CHUNK].into_boxed_slice(),
            pos: 0,
            end: 0,
            crc_from: 0,
            crc: Crc32::new(),
            body_left: 0,
        };
        for want in BINARY_MAGIC {
            if r.next()? != want {
                return Err(CodecError::BadMagic.into());
            }
        }
        // The CRC starts after the magic (a short first read may have
        // folded some of it in already).
        r.crc = Crc32::new();
        r.crc_from = r.pos;
        let version = r.next()?;
        if version != BINARY_VERSION {
            return Err(CodecError::BadVersion(version).into());
        }
        let found = r.next()?;
        if found != mode {
            return Err(CodecError::BadMode(found).into());
        }
        let head_len = BINARY_MAGIC.len() as u64 + 2;
        let (body_len, varint_len) = r.raw_varint()?;
        if body_len > MAX_BODY_LEN {
            return Err(CodecError::TooLarge("record body length").into());
        }
        let record_len = head_len + varint_len as u64 + body_len + 4;
        if record_len > len {
            return Err(CodecError::Truncated.into());
        }
        if record_len < len {
            return Err(CodecError::Malformed("trailing bytes after record").into());
        }
        r.body_left = body_len;
        Ok(r)
    }

    /// The next input byte, refilling the buffer when it runs dry.
    #[inline]
    fn next(&mut self) -> io::Result<u8> {
        if self.pos == self.end {
            self.refill()?;
        }
        self.pos += 1;
        Ok(self.buf[self.pos - 1])
    }

    /// Folds the drained buffer into the CRC and reads the next chunk.
    /// Out of line: the per-byte paths stay small enough to inline.
    #[cold]
    #[inline(never)]
    fn refill(&mut self) -> io::Result<()> {
        self.crc.update(&self.buf[self.crc_from..self.pos]);
        let n = loop {
            match self.src.read(&mut self.buf) {
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                read => break read?,
            }
        };
        if n == 0 {
            return Err(CodecError::Truncated.into());
        }
        (self.pos, self.end, self.crc_from) = (0, n, 0);
        Ok(())
    }

    /// One varint and the bytes it took, decoded by [`read_varint`].
    #[inline]
    fn raw_varint(&mut self) -> io::Result<(u64, usize)> {
        let start = self.pos;
        if self.end - start >= 10 {
            let value = read_varint(&self.buf[..self.end], &mut self.pos)?;
            return Ok((value, self.pos - start));
        }
        self.straddling_varint()
    }

    /// A varint that may run past the buffered bytes, read byte by byte.
    #[cold]
    #[inline(never)]
    fn straddling_varint(&mut self) -> io::Result<(u64, usize)> {
        let mut bytes = [0u8; 10];
        let mut n = 0;
        while n < bytes.len() {
            bytes[n] = self.next()?;
            n += 1;
            if bytes[n - 1] & 0x80 == 0 {
                break;
            }
        }
        Ok((read_varint(&bytes[..n], &mut 0)?, n))
    }

    /// One body varint.
    #[inline]
    fn varint(&mut self) -> io::Result<u64> {
        let (value, len) = self.raw_varint()?;
        self.body_left = self
            .body_left
            .checked_sub(len as u64)
            .ok_or(CodecError::Truncated)?;
        Ok(value)
    }

    /// One body byte.
    fn byte(&mut self) -> io::Result<u8> {
        if self.body_left == 0 {
            return Err(CodecError::Truncated.into());
        }
        self.body_left -= 1;
        self.next()
    }

    /// Reads past the rest of the body without decoding it.
    fn skip_body(&mut self) -> io::Result<()> {
        while self.body_left > 0 {
            if self.pos == self.end {
                self.next()?;
                self.body_left -= 1;
            }
            let take = (self.end - self.pos).min(self.body_left.try_into().unwrap_or(usize::MAX));
            self.pos += take;
            self.body_left -= take as u64;
        }
        Ok(())
    }

    /// Checks the CRC trailer against everything read since the magic.
    /// Call once the body is fully read.
    fn finish(mut self) -> io::Result<()> {
        debug_assert_eq!(self.body_left, 0, "finish before the body ends");
        self.crc.update(&self.buf[self.crc_from..self.pos]);
        self.crc_from = self.pos;
        let found = self.crc.finish();
        let mut trailer = [0u8; 4];
        for b in &mut trailer {
            *b = self.next()?;
        }
        if u32::from_le_bytes(trailer) != found {
            return Err(CodecError::BadCrc.into());
        }
        Ok(())
    }
}

/// Reads the v3 store snapshot `src` holds, whole and nothing else, in
/// 64 KiB pieces: never more than one chunk of it in memory.
///
/// Two passes over the source. The first checks the framing and the CRC
/// without decoding; the second decodes, checking the CRC again, so no
/// allocation is ever sized by a length field the CRC has not vouched
/// for (a flipped bit in the slot-count varint could otherwise ask for
/// `vertices × k × 16` bytes before the trailer is reached).
///
/// # Errors
/// IO errors from `src`; `InvalidData` (via [`CodecError`]) for any
/// framing or body defect: wrong magic, version or mode, a body length
/// past [`MAX_BODY_LEN`] or not matching the source's length, a CRC
/// mismatch, or a malformed body.
pub fn read_store_snapshot<R: io::Read + io::Seek>(src: &mut R) -> io::Result<StoreSnapshot> {
    let len = src.seek(io::SeekFrom::End(0))?;
    src.rewind()?;
    let mut pass = EnvelopeReader::open(&mut *src, len, MODE_STORE_SNAPSHOT)?;
    pass.skip_body()?;
    pass.finish()?;
    src.rewind()?;
    let mut pass = EnvelopeReader::open(&mut *src, len, MODE_STORE_SNAPSHOT)?;
    let snap = decode_store_snapshot_body(&mut pass)?;
    pass.finish()?;
    Ok(snap)
}

// ---------------------------------------------------------------------
// The Codec trait and its two implementations
// ---------------------------------------------------------------------

/// One storage/wire format: how snapshots and WAL records are rendered
/// to bytes and verified back.
///
/// Read paths do not pick a codec — they sniff ([`is_binary`]) and
/// dispatch, so any directory mixing formats (e.g. mid-migration)
/// remains readable. Write paths pick one via [`WireFormat`].
pub trait Codec {
    /// The CLI spelling of this format (`v2` / `v3`).
    fn name(&self) -> &'static str;

    /// Encodes a full store snapshot file.
    ///
    /// # Errors
    /// Fails if the snapshot cannot be rendered (oversized or, for the
    /// text codec, unserializable).
    fn encode_store_snapshot(&self, snap: &StoreSnapshot) -> io::Result<Vec<u8>>;

    /// Writes the bytes of [`Codec::encode_store_snapshot`] to `out`.
    ///
    /// # Errors
    /// Fails if the snapshot cannot be rendered, or if `out` fails.
    fn write_store_snapshot(
        &self,
        snap: &StoreSnapshot,
        out: &mut dyn io::Write,
    ) -> io::Result<()> {
        out.write_all(&self.encode_store_snapshot(snap)?)
    }

    /// Decodes and verifies a full store snapshot file.
    ///
    /// # Errors
    /// Fails closed on any framing or body defect.
    fn decode_store_snapshot(&self, bytes: &[u8]) -> io::Result<StoreSnapshot>;

    /// Encodes one WAL record ready to append to a segment (the text
    /// codec's record includes its newline terminator).
    fn encode_wal_record(&self, entry: &JournalEntry) -> Vec<u8>;
}

/// The human-readable v2 formats: framed JSON snapshots and CRC'd text
/// WAL lines. See [`crate::snapshot`] and [`crate::journal`] for the
/// on-disk grammar.
#[derive(Debug, Clone, Copy, Default)]
pub struct TextV2;

impl Codec for TextV2 {
    fn name(&self) -> &'static str {
        "v2"
    }

    fn encode_store_snapshot(&self, snap: &StoreSnapshot) -> io::Result<Vec<u8>> {
        let json = serde_json::to_string(snap)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        Ok(snapshot::frame_v2(&json).into_bytes())
    }

    fn decode_store_snapshot(&self, bytes: &[u8]) -> io::Result<StoreSnapshot> {
        let (payload, _) = snapshot::verify_text(bytes)?;
        serde_json::from_str(payload)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }

    fn encode_wal_record(&self, entry: &JournalEntry) -> Vec<u8> {
        let mut line = entry.to_string().into_bytes();
        line.push(b'\n');
        line
    }
}

/// The checksummed binary v3 format (see the module docs for the
/// envelope and column layouts).
#[derive(Debug, Clone, Copy, Default)]
pub struct BinaryV3;

impl Codec for BinaryV3 {
    fn name(&self) -> &'static str {
        "v3"
    }

    fn encode_store_snapshot(&self, snap: &StoreSnapshot) -> io::Result<Vec<u8>> {
        let body = encode_store_snapshot_body(snap)?;
        Ok(encode_envelope(MODE_STORE_SNAPSHOT, &body))
    }

    /// Streams the envelope: one encoding pass measures the body for
    /// the length prefix, a second writes it through the CRC in chunks.
    /// The body is never held whole, and the bytes equal
    /// [`Codec::encode_store_snapshot`]'s.
    fn write_store_snapshot(
        &self,
        snap: &StoreSnapshot,
        out: &mut dyn io::Write,
    ) -> io::Result<()> {
        let mut body_len = 0u64;
        emit_store_snapshot_body(snap, &mut |chunk| {
            body_len += chunk.len() as u64;
            Ok(())
        })?;
        let mut head = Vec::with_capacity(16);
        push_envelope_head(&mut head, MODE_STORE_SNAPSHOT, body_len);
        let mut crc = Crc32::new();
        crc.update(&head[BINARY_MAGIC.len()..]);
        out.write_all(&head)?;
        emit_store_snapshot_body(snap, &mut |chunk| {
            crc.update(chunk);
            out.write_all(chunk)
        })?;
        out.write_all(&crc.finish().to_le_bytes())
    }

    /// [`read_store_snapshot`] over the slice.
    fn decode_store_snapshot(&self, bytes: &[u8]) -> io::Result<StoreSnapshot> {
        read_store_snapshot(&mut io::Cursor::new(bytes))
    }

    fn encode_wal_record(&self, entry: &JournalEntry) -> Vec<u8> {
        encode_wal_entry(entry)
    }
}

/// The format selector carried by CLI flags and write paths.
///
/// [`WireFormat::default`] is the one source of the server's write
/// format: `serve` without `--format` and a replica's offered wire both
/// read it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WireFormat {
    /// Human-readable text formats (`--format v2`, the rollback).
    TextV2,
    /// Checksummed binary v3 (the default).
    #[default]
    BinaryV3,
}

impl WireFormat {
    /// Parses the CLI spelling (`v2` | `v3`).
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "v2" => Some(WireFormat::TextV2),
            "v3" => Some(WireFormat::BinaryV3),
            _ => None,
        }
    }

    /// The CLI spelling.
    #[must_use]
    pub fn name(self) -> &'static str {
        self.codec().name()
    }

    /// The codec implementing this format.
    #[must_use]
    pub fn codec(self) -> &'static dyn Codec {
        match self {
            WireFormat::TextV2 => &TextV2,
            WireFormat::BinaryV3 => &BinaryV3,
        }
    }
}

impl fmt::Display for WireFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::SketchStore;
    use graphstream::{BarabasiAlbert, EdgeStream};
    use proptest::prelude::*;

    fn populated_snapshot() -> StoreSnapshot {
        let mut s = SketchStore::new(SketchConfig::with_slots(32).seed(5));
        s.insert_stream(BarabasiAlbert::new(120, 2, 8).edges());
        StoreSnapshot::capture(&s)
    }

    fn entry(seq: u64) -> JournalEntry {
        JournalEntry {
            seq,
            u: VertexId(seq.wrapping_mul(3)),
            v: VertexId(seq.wrapping_mul(3).wrapping_add(1)),
        }
    }

    #[test]
    fn lz_round_trips_and_shrinks_snapshot_json() {
        let json = serde_json::to_string(&populated_snapshot()).unwrap();
        let raw = json.as_bytes();
        let packed = lz_compress(raw);
        assert_eq!(
            lz_decompress(&packed, raw.len() as u64).unwrap(),
            raw,
            "round trip"
        );
        // The satellite's size assertion: the anti-entropy transfer of a
        // real snapshot document must genuinely shrink on the wire, even
        // with the whole-envelope overhead included.
        let frame = encode_snapshot_frame(181, raw);
        assert!(
            frame.len() < raw.len(),
            "compressed frame {} >= raw {}",
            frame.len(),
            raw.len()
        );
        let env = decode_envelope(&frame).unwrap();
        assert_eq!(env.mode, MODE_SNAPSHOT_FRAME);
        let (seq, got) = decode_snapshot_frame_body(env.body).unwrap();
        assert_eq!(seq, 181);
        assert_eq!(got, raw);
    }

    #[test]
    fn lz_handles_edge_inputs() {
        for input in [
            b"".to_vec(),
            b"a".to_vec(),
            b"abc".to_vec(),
            vec![0u8; 5000],                         // long overlap run
            (0u8..=255).cycle().take(700).collect(), // periodic
        ] {
            let packed = lz_compress(&input);
            assert_eq!(lz_decompress(&packed, input.len() as u64).unwrap(), input);
        }
    }

    #[test]
    fn lz_decompress_fails_closed() {
        // Backreference before the start of output.
        let mut bogus = vec![0x00, b'x', 0x80];
        write_varint(&mut bogus, 9);
        assert!(matches!(
            lz_decompress(&bogus, 1 << 20),
            Err(CodecError::Malformed(_))
        ));
        // Truncated literal run.
        assert_eq!(
            lz_decompress(&[0x05, b'a'], 1 << 20),
            Err(CodecError::Truncated)
        );
        // Output bound enforced.
        let packed = lz_compress(&vec![7u8; 4096]);
        assert!(matches!(
            lz_decompress(&packed, 100),
            Err(CodecError::TooLarge(_))
        ));
    }

    proptest! {
        #[test]
        fn lz_round_trips_arbitrary_bytes(input in proptest::collection::vec(any::<u8>(), 0..4096)) {
            let packed = lz_compress(&input);
            prop_assert_eq!(lz_decompress(&packed, input.len() as u64).unwrap(), input);
        }
    }

    #[test]
    fn varint_roundtrips_boundary_values() {
        for v in [
            0u64,
            1,
            127,
            128,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos), Ok(v));
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn varint_rejects_truncation_and_overflow() {
        let mut buf = Vec::new();
        write_varint(&mut buf, u64::MAX);
        assert_eq!(buf.len(), 10);
        let mut pos = 0;
        assert_eq!(read_varint(&buf[..9], &mut pos), Err(CodecError::Truncated));
        // 10th byte carrying more than one value bit overflows u64.
        let over = [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02];
        let mut pos = 0;
        assert!(matches!(
            read_varint(&over, &mut pos),
            Err(CodecError::Malformed(_))
        ));
    }

    #[test]
    fn envelope_roundtrip_and_mode() {
        let rec = encode_envelope(MODE_WAL_ENTRY, b"payload");
        let env = decode_envelope(&rec).unwrap();
        assert_eq!(env.mode, MODE_WAL_ENTRY);
        assert_eq!(env.body, b"payload");
        assert_eq!(env.consumed, rec.len());
        // Concatenated records: the first decode reports its own end.
        let mut two = rec.clone();
        two.extend_from_slice(&encode_envelope(MODE_TEXT_FRAME, b"x"));
        assert_eq!(decode_envelope(&two).unwrap().consumed, rec.len());
    }

    #[test]
    fn envelope_rejects_wrong_version_and_magic() {
        let mut rec = encode_envelope(MODE_WAL_ENTRY, b"p");
        rec[4] = 9;
        assert_eq!(decode_envelope(&rec), Err(CodecError::BadVersion(9)));
        assert_eq!(decode_envelope(b"not binary"), Err(CodecError::BadMagic));
    }

    #[test]
    fn envelope_bounds_oversized_length_fields() {
        // Hand-build framing that claims a body beyond MAX_BODY_LEN.
        let mut rec = Vec::new();
        rec.extend_from_slice(&BINARY_MAGIC);
        rec.push(BINARY_VERSION);
        rec.push(MODE_WAL_ENTRY);
        write_varint(&mut rec, MAX_BODY_LEN + 1);
        rec.extend_from_slice(&[0; 8]);
        assert_eq!(
            decode_envelope(&rec),
            Err(CodecError::TooLarge("record body length"))
        );
    }

    #[test]
    fn read_envelope_blocking_walks_concatenated_frames() {
        let mut stream = encode_text_frame("OK pong");
        stream.extend_from_slice(&encode_wal_entry(&entry(7)));
        let mut cursor = io::Cursor::new(stream);
        let (mode, body) = read_envelope_blocking(&mut cursor).unwrap();
        assert_eq!(mode, MODE_TEXT_FRAME);
        assert_eq!(body, b"OK pong");
        let (mode, body) = read_envelope_blocking(&mut cursor).unwrap();
        assert_eq!(mode, MODE_WAL_ENTRY);
        assert_eq!(decode_wal_entry_body(&body), Ok(entry(7)));
        // Clean EOF at a frame boundary is still an error to the caller.
        assert!(read_envelope_blocking(&mut cursor).is_err());
    }

    #[test]
    fn read_envelope_blocking_fails_closed() {
        // Flipped CRC trailer.
        let mut frame = encode_text_frame("hello");
        let last = frame.len() - 1;
        frame[last] ^= 0x01;
        assert!(read_envelope_blocking(&mut io::Cursor::new(frame)).is_err());
        // Truncation mid-body.
        let frame = encode_text_frame("hello");
        let cut = frame.len() - 3;
        assert!(read_envelope_blocking(&mut io::Cursor::new(&frame[..cut])).is_err());
        // An oversized length field is rejected before allocating.
        let mut huge = Vec::new();
        huge.extend_from_slice(&BINARY_MAGIC);
        huge.push(BINARY_VERSION);
        huge.push(MODE_TEXT_FRAME);
        write_varint(&mut huge, MAX_BODY_LEN + 1);
        assert!(read_envelope_blocking(&mut io::Cursor::new(huge)).is_err());
    }

    #[test]
    fn wal_entry_roundtrip() {
        let e = entry(123_456_789);
        let rec = encode_wal_entry(&e);
        let env = decode_envelope(&rec).unwrap();
        assert_eq!(env.mode, MODE_WAL_ENTRY);
        assert_eq!(decode_wal_entry_body(env.body), Ok(e));
    }

    #[test]
    fn every_single_bit_flip_in_a_wal_record_fails_closed() {
        let rec = encode_wal_entry(&entry(987_654_321));
        let mut bytes = rec.clone();
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                bytes[byte] ^= 1 << bit;
                let verdict =
                    decode_envelope(&bytes).and_then(|env| decode_wal_entry_body(env.body));
                assert!(
                    verdict.is_err(),
                    "flip {byte}:{bit} produced a silently valid record"
                );
                bytes[byte] ^= 1 << bit;
            }
        }
        assert_eq!(bytes, rec);
    }

    #[test]
    fn truncation_at_every_offset_fails_closed() {
        let rec = encode_wal_entry(&entry(42));
        for cut in 0..rec.len() {
            assert!(
                decode_envelope(&rec[..cut]).is_err(),
                "truncation at {cut} decoded"
            );
        }
        let snap = BinaryV3
            .encode_store_snapshot(&populated_snapshot())
            .unwrap();
        for cut in (0..snap.len()).step_by(7) {
            assert!(
                BinaryV3.decode_store_snapshot(&snap[..cut]).is_err(),
                "snapshot truncation at {cut} decoded"
            );
        }
    }

    #[test]
    fn wal_batch_roundtrip_and_ordering() {
        let entries: Vec<_> = (5..25).map(entry).collect();
        let rec = encode_wal_batch(&entries, 99);
        let env = decode_envelope(&rec).unwrap();
        assert_eq!(env.mode, MODE_WAL_BATCH);
        let (back, primary_seq) = decode_wal_batch_body(env.body).unwrap();
        assert_eq!(back, entries);
        assert_eq!(primary_seq, 99);
        assert!(decode_wal_batch_body(&env.body[..env.body.len() - 1]).is_err());
    }

    #[test]
    fn empty_wal_batch_roundtrips() {
        let rec = encode_wal_batch(&[], 7);
        let env = decode_envelope(&rec).unwrap();
        assert_eq!(decode_wal_batch_body(env.body), Ok((Vec::new(), 7)));
    }

    #[test]
    fn store_snapshot_binary_roundtrip_equals_text() {
        let snap = populated_snapshot();
        let v3 = BinaryV3.encode_store_snapshot(&snap).unwrap();
        let v2 = TextV2.encode_store_snapshot(&snap).unwrap();
        assert_eq!(BinaryV3.decode_store_snapshot(&v3).unwrap(), snap);
        assert_eq!(TextV2.decode_store_snapshot(&v2).unwrap(), snap);
        assert!(
            v3.len() * 2 < v2.len(),
            "binary snapshot should be far smaller: {} vs {}",
            v3.len(),
            v2.len()
        );
    }

    #[test]
    fn empty_snapshot_roundtrips() {
        let snap = StoreSnapshot::capture(&SketchStore::new(SketchConfig::with_slots(8)));
        let v3 = BinaryV3.encode_store_snapshot(&snap).unwrap();
        assert_eq!(BinaryV3.decode_store_snapshot(&v3).unwrap(), snap);
    }

    /// A source that hands out at most `step` bytes per read.
    struct Trickle<'a> {
        inner: io::Cursor<&'a [u8]>,
        step: usize,
    }

    impl io::Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = buf.len().min(self.step);
            io::Read::read(&mut self.inner, &mut buf[..n])
        }
    }

    impl io::Seek for Trickle<'_> {
        fn seek(&mut self, pos: io::SeekFrom) -> io::Result<u64> {
            io::Seek::seek(&mut self.inner, pos)
        }
    }

    #[test]
    fn streamed_snapshot_read_survives_short_reads() {
        // Short reads split the magic, varints and the trailer across
        // refills; the decode and the CRC must not notice.
        let snap = populated_snapshot();
        let bytes = BinaryV3.encode_store_snapshot(&snap).unwrap();
        for step in [1, 2, 3, 7, 4096] {
            let mut src = Trickle {
                inner: io::Cursor::new(&bytes),
                step,
            };
            assert_eq!(read_store_snapshot(&mut src).unwrap(), snap, "step {step}");
        }
        let mut flipped = bytes.clone();
        flipped[bytes.len() / 2] ^= 0x04;
        let mut src = Trickle {
            inner: io::Cursor::new(&flipped),
            step: 3,
        };
        let err = read_store_snapshot(&mut src).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn snapshot_decode_rejects_wrong_mode() {
        let wal = encode_wal_entry(&entry(3));
        let err = BinaryV3.decode_store_snapshot(&wal).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("mode 0x01"), "{err}");
    }

    #[test]
    fn wire_format_parses_cli_spellings() {
        assert_eq!(WireFormat::parse("v2"), Some(WireFormat::TextV2));
        assert_eq!(WireFormat::parse("v3"), Some(WireFormat::BinaryV3));
        assert_eq!(WireFormat::parse("v1"), None);
        assert_eq!(WireFormat::TextV2.name(), "v2");
        assert_eq!(WireFormat::BinaryV3.name(), "v3");
    }

    proptest! {
        #[test]
        fn prop_varint_roundtrip(v in any::<u64>()) {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            let mut pos = 0;
            prop_assert_eq!(read_varint(&buf, &mut pos), Ok(v));
            prop_assert_eq!(pos, buf.len());
        }

        #[test]
        fn prop_wal_entry_roundtrip(seq in any::<u64>(), u in any::<u64>(), v in any::<u64>()) {
            let e = JournalEntry { seq, u: VertexId(u), v: VertexId(v) };
            let rec = encode_wal_entry(&e);
            let env = decode_envelope(&rec).unwrap();
            prop_assert_eq!(decode_wal_entry_body(env.body), Ok(e));
        }

        #[test]
        fn prop_wal_record_bit_flip_never_verifies(seq in any::<u64>(), flip in 0usize..400) {
            let rec = encode_wal_entry(&entry(seq));
            let mut bytes = rec.clone();
            let bit = flip % (bytes.len() * 8);
            bytes[bit / 8] ^= 1 << (bit % 8);
            let verdict = decode_envelope(&bytes)
                .and_then(|env| decode_wal_entry_body(env.body));
            prop_assert!(verdict.is_err());
        }

        #[test]
        fn prop_snapshot_cross_format_equality(
            seed in 0u64..50,
            n in 30u64..100,
        ) {
            let mut s = SketchStore::new(SketchConfig::with_slots(16).seed(seed));
            s.insert_stream(BarabasiAlbert::new(n, 2, seed).edges());
            let snap = StoreSnapshot::capture(&s);
            let via_v3 = BinaryV3
                .decode_store_snapshot(&BinaryV3.encode_store_snapshot(&snap).unwrap())
                .unwrap();
            let via_v2 = TextV2
                .decode_store_snapshot(&TextV2.encode_store_snapshot(&snap).unwrap())
                .unwrap();
            prop_assert_eq!(&via_v3, &via_v2);
            prop_assert_eq!(via_v3, snap);
        }

        #[test]
        fn prop_snapshot_bit_flip_fails_closed(seed in 0u64..30, flip in any::<u64>()) {
            let mut s = SketchStore::new(SketchConfig::with_slots(8).seed(seed));
            s.insert_stream(BarabasiAlbert::new(40, 2, seed).edges());
            let rec = BinaryV3
                .encode_store_snapshot(&StoreSnapshot::capture(&s))
                .unwrap();
            let mut bytes = rec.clone();
            let bit = (flip % (bytes.len() as u64 * 8)) as usize;
            bytes[bit / 8] ^= 1 << (bit % 8);
            prop_assert!(BinaryV3.decode_store_snapshot(&bytes).is_err());
        }

        #[test]
        fn prop_garbage_never_decodes_as_snapshot(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
            // Random bytes must fail closed (the odds of a valid CRC on
            // random framing are ~2^-32; the deterministic structure
            // checks reject far earlier).
            prop_assert!(BinaryV3.decode_store_snapshot(&bytes).is_err());
        }
    }
}
