//! Serde snapshots of a sketch store.
//!
//! A [`StoreSnapshot`] is a plain-data, format-agnostic image of a
//! [`SketchStore`]: persist it in either [`crate::codec`] format (binary
//! v3 or framed JSON v2), ship it across processes, or archive
//! per-epoch states of a long-running stream. Restoring rebuilds the
//! hasher bank from the embedded config, so a restored store continues
//! ingesting the stream exactly where the original left off.
//!
//! ## Crash-safe writes
//!
//! [`StoreSnapshot::write_atomic`] uses the temp-file–fsync–rename
//! protocol: readers either see the previous complete snapshot or the
//! new complete snapshot, never a torn one. A crash mid-write leaves at
//! most a stale `.tmp` file, which the next successful write replaces.
//!
//! ## Verifiable files (format v2)
//!
//! Atomic rename proves a snapshot was written *whole*; it proves nothing
//! about the bytes staying intact afterwards. Snapshots therefore carry a
//! versioned header with a whole-file digest:
//!
//! ```text
//! STREAMLINK-SNAP v2 len=<payload bytes> crc32=<lower-hex-8>\n
//! <JSON payload>
//! ```
//!
//! The CRC-32 ([`hashkit::crc32()`]) covers the payload; `len` pins its
//! exact size, so truncation and bit rot are both detected on read —
//! before the JSON parser ever sees the bytes. Reads fall back
//! transparently to v1 (bare JSON, no header): old data directories load
//! unmodified, they just cannot be *verified* (see
//! [`SnapshotIntegrity::Legacy`]).
//!
//! The server writes binary v3 by default ([`codec::WireFormat`]): one
//! CRC-covered envelope around a columnar body. Reads sniff the magic,
//! so v1, v2 and v3 files all load through [`StoreSnapshot::read_from`].

use std::fs::{self, File};
use std::io::{self, Read, Seek};
use std::path::Path;

use hashkit::crc32;
use serde::{Deserialize, Serialize};

use graphstream::VertexId;

use crate::codec;
use crate::config::SketchConfig;
use crate::sketch::VertexSketch;
use crate::store::{SketchStore, VertexState};

/// The magic prefix of a v2 snapshot header line.
pub const SNAPSHOT_MAGIC: &str = "STREAMLINK-SNAP";

/// What the framing check proved about a snapshot file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotIntegrity {
    /// v2 framing: length and whole-file CRC both verified.
    Verified,
    /// Legacy v1 file — parseable bare JSON, but carrying no digest, so
    /// integrity cannot be proven.
    Legacy,
}

/// Renders the framed v2 file contents for `json`.
pub(crate) fn frame_v2(json: &str) -> String {
    format!(
        "{SNAPSHOT_MAGIC} v2 len={} crc32={:08x}\n{json}",
        json.len(),
        crc32(json.as_bytes())
    )
}

/// Reads a text snapshot file and verifies its framing, returning the
/// JSON payload and what the check proved. Does not interpret the
/// payload.
///
/// # Errors
/// * [`io::ErrorKind::NotFound`] — no file.
/// * [`io::ErrorKind::InvalidData`] — malformed header, length mismatch
///   (truncation or trailing garbage), or CRC mismatch (bit rot). The
///   message says which.
pub fn read_verified(path: &Path) -> io::Result<(String, SnapshotIntegrity)> {
    let mut bytes = fs::read(path)?;
    let (header_len, integrity) = {
        let (payload, integrity) = verify_text(&bytes).map_err(|e| rewrap(e, path))?;
        (bytes.len() - payload.len(), integrity)
    };
    // The payload is the file's tail: drop the header in place instead
    // of copying the payload out.
    bytes.drain(..header_len);
    let payload = String::from_utf8(bytes).map_err(|_| corrupt(path, "not UTF-8"))?;
    Ok((payload, integrity))
}

/// Verifies v2/v1 text framing over in-memory bytes, returning the JSON
/// payload (borrowed from `bytes`) and what the check proved. The text
/// half of the codec layer; [`read_verified`] wraps it with path
/// context.
pub(crate) fn verify_text(bytes: &[u8]) -> io::Result<(&str, SnapshotIntegrity)> {
    let invalid = |detail: &str| io::Error::new(io::ErrorKind::InvalidData, detail.to_string());
    let content = std::str::from_utf8(bytes).map_err(|_| invalid("unreadable or not UTF-8"))?;
    let Some(rest) = content.strip_prefix(SNAPSHOT_MAGIC) else {
        // No magic: a legacy v1 bare-JSON snapshot.
        return Ok((content, SnapshotIntegrity::Legacy));
    };
    let (header, payload) = rest
        .split_once('\n')
        .ok_or_else(|| invalid("v2 header line is unterminated"))?;
    let mut fields = header.split(' ').filter(|f| !f.is_empty());
    if fields.next() != Some("v2") {
        return Err(invalid("unsupported snapshot format version"));
    }
    let len: usize = fields
        .next()
        .and_then(|f| f.strip_prefix("len="))
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| invalid("v2 header has no parseable len field"))?;
    let expected: u32 = fields
        .next()
        .and_then(|f| f.strip_prefix("crc32="))
        .filter(|v| v.len() == 8)
        .and_then(|v| u32::from_str_radix(v, 16).ok())
        .ok_or_else(|| invalid("v2 header has no parseable crc32 field"))?;
    if payload.len() != len {
        return Err(invalid(&format!(
            "payload length mismatch: header says {len} bytes, file holds {}",
            payload.len()
        )));
    }
    let found = crc32(payload.as_bytes());
    if found != expected {
        return Err(invalid(&format!(
            "payload CRC mismatch: header {expected:08x}, computed {found:08x}"
        )));
    }
    Ok((payload, SnapshotIntegrity::Verified))
}

fn corrupt(path: &Path, detail: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("corrupt snapshot {}: {detail}", path.display()),
    )
}

/// Re-wraps an `InvalidData` error with the snapshot's path context;
/// other kinds (e.g. `NotFound`) pass through untouched.
fn rewrap(e: io::Error, path: &Path) -> io::Error {
    if e.kind() == io::ErrorKind::InvalidData {
        corrupt(path, &e.to_string())
    } else {
        e
    }
}

/// Writes `path` atomically with what `write` puts into it: temp file
/// in the same directory, fsync, rename over the target, fsync the
/// directory.
fn write_atomic_with(
    path: &Path,
    write: impl FnOnce(&mut File) -> io::Result<()>,
) -> io::Result<()> {
    let tmp = path.with_extension("json.tmp");
    {
        let mut f = File::create(&tmp)?;
        write(&mut f)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    // Persist the rename itself. Directory fsync can be unsupported on
    // some filesystems; failing the write for that would be worse than
    // the (tiny) window it closes.
    if let Some(parent) = path.parent() {
        if let Ok(dir) = File::open(parent) {
            let _ = dir.sync_all();
        }
    }
    Ok(())
}

/// One vertex's persisted state.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct VertexEntry {
    /// The vertex.
    pub vertex: VertexId,
    /// Its sketch.
    pub sketch: VertexSketch,
    /// Its degree counter.
    pub degree: u64,
}

/// A serializable image of a whole store.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StoreSnapshot {
    /// The configuration (slots, seed, backend).
    pub config: SketchConfig,
    /// Edges processed when the snapshot was taken.
    pub edges_processed: u64,
    /// Per-vertex state, sorted by vertex id for deterministic output.
    pub vertices: Vec<VertexEntry>,
}

impl StoreSnapshot {
    /// Captures a snapshot of `store`. Sketches are copy-on-write, so
    /// this copies one pointer (and a degree) per vertex, not its slots;
    /// later writes to `store` copy whatever sketch they change and
    /// never reach the snapshot.
    #[must_use]
    pub fn capture(store: &SketchStore) -> Self {
        let (states, edges_processed) = store.parts();
        let mut vertices: Vec<VertexEntry> = states
            .iter()
            .map(|(&vertex, state)| VertexEntry {
                vertex,
                sketch: state.sketch.clone(),
                degree: state.degree,
            })
            .collect();
        // Vertex ids are unique, so the unstable sort is deterministic
        // and needs no scratch buffer.
        vertices.sort_unstable_by_key(|e| e.vertex);
        Self {
            config: *store.config(),
            edges_processed,
            vertices,
        }
    }

    /// Restores a live store from the snapshot, moving every sketch
    /// into it (clone the snapshot first to keep it).
    #[must_use]
    pub fn restore(self) -> SketchStore {
        let mut store = SketchStore::new(self.config);
        {
            let (states, edges) = store.parts_mut();
            states.reserve(self.vertices.len());
            for entry in self.vertices {
                let state = VertexState {
                    sketch: entry.sketch,
                    degree: entry.degree,
                };
                states.insert(entry.vertex, state);
            }
            *edges = self.edges_processed;
        }
        store
    }

    /// Persists the snapshot at `path` in the v2 text format using the
    /// atomic temp-file–fsync–rename protocol. Text-grammar tests and
    /// batch tools use it; the server writes [`codec::WireFormat::default`]
    /// through [`Self::write_atomic_as`].
    ///
    /// # Errors
    /// Fails on IO errors; the previous snapshot at `path` (if any) is
    /// untouched on failure.
    pub fn write_atomic(&self, path: &Path) -> io::Result<()> {
        self.write_atomic_as(path, codec::WireFormat::TextV2)
    }

    /// Persists the snapshot at `path` atomically in the given format.
    /// The bytes go straight to the temp file: a v3 body is encoded in
    /// chunks through the CRC into it, never held whole in memory.
    ///
    /// # Errors
    /// Fails on IO errors; the previous snapshot at `path` (if any) is
    /// untouched on failure.
    pub fn write_atomic_as(&self, path: &Path, format: codec::WireFormat) -> io::Result<()> {
        write_atomic_with(path, |f| format.codec().write_store_snapshot(self, f))
    }

    /// Loads a snapshot previously written with [`Self::write_atomic`]
    /// or [`Self::write_atomic_as`], sniffing the format from the bytes.
    ///
    /// # Errors
    /// Fails if the file is missing ([`io::ErrorKind::NotFound`]) or does
    /// not verify ([`io::ErrorKind::InvalidData`]).
    pub fn read_from(path: &Path) -> io::Result<Self> {
        Ok(Self::read_with_integrity(path)?.0)
    }

    /// Like [`Self::read_from`], also reporting what the framing check
    /// proved. Binary v3 snapshots always verify (the envelope CRC is
    /// mandatory) and stream from the file in chunks
    /// ([`codec::read_store_snapshot`]), so the file is never held whole
    /// beside the decoded sketches; text snapshots report v2 verified or
    /// v1 legacy.
    ///
    /// # Errors
    /// Fails if the file is missing or does not verify.
    pub fn read_with_integrity(path: &Path) -> io::Result<(Self, SnapshotIntegrity)> {
        let mut file = File::open(path)?;
        if sniff_binary(&mut file)? {
            let snap = codec::read_store_snapshot(&mut file).map_err(|e| rewrap(e, path))?;
            return Ok((snap, SnapshotIntegrity::Verified));
        }
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let (payload, integrity) = verify_text(&bytes).map_err(|e| rewrap(e, path))?;
        let snap = serde_json::from_str(payload).map_err(|e| corrupt(path, &e.to_string()))?;
        Ok((snap, integrity))
    }
}

/// Whether the snapshot file at `path` is binary v3 (by its magic).
///
/// # Errors
/// Fails if the file cannot be opened or read.
pub fn is_binary_file(path: &Path) -> io::Result<bool> {
    sniff_binary(&mut File::open(path)?)
}

/// Reads `file`'s magic and rewinds it.
fn sniff_binary(file: &mut File) -> io::Result<bool> {
    let mut head = Vec::with_capacity(codec::BINARY_MAGIC.len());
    file.by_ref()
        .take(codec::BINARY_MAGIC.len() as u64)
        .read_to_end(&mut head)?;
    file.rewind()?;
    Ok(codec::is_binary(&head))
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphstream::{BarabasiAlbert, EdgeStream};

    fn populated() -> SketchStore {
        let mut s = SketchStore::new(SketchConfig::with_slots(32).seed(5));
        s.insert_stream(BarabasiAlbert::new(150, 2, 8).edges());
        s
    }

    #[test]
    fn capture_restore_preserves_everything() {
        let original = populated();
        let restored = StoreSnapshot::capture(&original).restore();
        assert_eq!(restored.vertex_count(), original.vertex_count());
        assert_eq!(restored.edges_processed(), original.edges_processed());
        for v in original.vertices() {
            assert_eq!(restored.degree(v), original.degree(v));
            assert_eq!(restored.sketch(v), original.sketch(v));
        }
    }

    #[test]
    fn restored_store_answers_identically() {
        let original = populated();
        let restored = StoreSnapshot::capture(&original).restore();
        for u in 0..30u64 {
            for v in (u + 1)..30u64 {
                let (u, v) = (VertexId(u), VertexId(v));
                assert_eq!(original.jaccard(u, v), restored.jaccard(u, v));
                assert_eq!(original.adamic_adar(u, v), restored.adamic_adar(u, v));
            }
        }
    }

    #[test]
    fn restored_store_continues_ingesting_consistently() {
        // Split a stream; snapshot after the prefix; restored store fed
        // the suffix must equal a store fed the whole stream.
        let edges: Vec<_> = BarabasiAlbert::new(200, 2, 6).edges().collect();
        let (head, tail) = edges.split_at(edges.len() / 2);

        let mut prefix_store = SketchStore::new(SketchConfig::with_slots(16).seed(1));
        prefix_store.insert_stream(head.iter().copied());
        let mut resumed = StoreSnapshot::capture(&prefix_store).restore();
        resumed.insert_stream(tail.iter().copied());

        let mut whole = SketchStore::new(SketchConfig::with_slots(16).seed(1));
        whole.insert_stream(edges.iter().copied());

        for v in whole.vertices() {
            assert_eq!(resumed.sketch(v), whole.sketch(v), "divergence at {v}");
            assert_eq!(resumed.degree(v), whole.degree(v));
        }
    }

    #[test]
    fn capture_is_isolated_from_later_folds_and_merges() {
        use crate::codec::{BinaryV3, Codec};
        let mut live = populated();
        let mut reference = populated();
        let snap = StoreSnapshot::capture(&live);
        // A deep copy: JSON round trip allocates every sketch afresh.
        let deep: StoreSnapshot =
            serde_json::from_str(&serde_json::to_string(&snap).unwrap()).unwrap();
        let v3 = BinaryV3.encode_store_snapshot(&snap).unwrap();

        // Writes after the capture: folds into captured and new
        // vertices, then a merge over them.
        let extra: Vec<_> = BarabasiAlbert::new(300, 3, 11).edges().collect();
        let mut shard = SketchStore::new(*live.config());
        shard.insert_stream(BarabasiAlbert::new(200, 2, 12).edges());
        for store in [&mut live, &mut reference] {
            store.insert_stream(extra.iter().copied());
            crate::merge::merge_into(store, &shard).unwrap();
        }

        assert_eq!(snap, deep, "a later write reached the capture");
        assert_eq!(BinaryV3.encode_store_snapshot(&snap).unwrap(), v3);
        assert_ne!(StoreSnapshot::capture(&live), snap, "the store moved on");
        // The live store answers like one that was never captured.
        assert_eq!(
            StoreSnapshot::capture(&live),
            StoreSnapshot::capture(&reference)
        );
        for u in 0..40u64 {
            for v in (u + 1)..40u64 {
                let (u, v) = (VertexId(u), VertexId(v));
                assert_eq!(live.jaccard(u, v), reference.jaccard(u, v));
                assert_eq!(live.adamic_adar(u, v), reference.adamic_adar(u, v));
            }
        }
        // And the capture still restores the store it was taken from.
        let (restored, original) = (snap.restore(), populated());
        for v in original.vertices() {
            assert_eq!(restored.sketch(v), original.sketch(v));
        }
    }

    #[test]
    fn snapshot_is_deterministically_ordered() {
        let s = populated();
        let a = serde_json::to_string(&StoreSnapshot::capture(&s)).unwrap();
        let b = serde_json::to_string(&StoreSnapshot::capture(&s)).unwrap();
        assert_eq!(
            a, b,
            "snapshots of the same store must serialize identically"
        );
    }

    #[test]
    fn json_roundtrip() {
        let snap = StoreSnapshot::capture(&populated());
        let json = serde_json::to_string(&snap).unwrap();
        let back: StoreSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(snap, back);
    }

    #[test]
    fn empty_store_roundtrips() {
        let s = SketchStore::new(SketchConfig::with_slots(4));
        let restored = StoreSnapshot::capture(&s).restore();
        assert_eq!(restored.vertex_count(), 0);
        assert_eq!(restored.edges_processed(), 0);
    }

    fn temp_path(tag: &str) -> std::path::PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "streamlink-snap-{}-{tag}-{n}.json",
            std::process::id()
        ))
    }

    #[test]
    fn atomic_write_read_roundtrip() {
        let path = temp_path("roundtrip");
        let snap = StoreSnapshot::capture(&populated());
        snap.write_atomic(&path).unwrap();
        let back = StoreSnapshot::read_from(&path).unwrap();
        assert_eq!(snap, back);
        // No temp file left behind.
        assert!(!path.with_extension("json.tmp").exists());
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn atomic_write_replaces_previous_snapshot() {
        let path = temp_path("replace");
        let mut store = populated();
        StoreSnapshot::capture(&store).write_atomic(&path).unwrap();
        store.insert_edge(VertexId(1000), VertexId(1001));
        let newer = StoreSnapshot::capture(&store);
        newer.write_atomic(&path).unwrap();
        assert_eq!(StoreSnapshot::read_from(&path).unwrap(), newer);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn stale_tmp_file_does_not_break_reads_or_writes() {
        // A crash between temp-write and rename leaves `.json.tmp`; the
        // real snapshot must stay readable and the next write must win.
        let path = temp_path("staletmp");
        let snap = StoreSnapshot::capture(&populated());
        snap.write_atomic(&path).unwrap();
        fs::write(path.with_extension("json.tmp"), b"{ torn garbage").unwrap();
        assert_eq!(StoreSnapshot::read_from(&path).unwrap(), snap);
        snap.write_atomic(&path).unwrap();
        assert!(!path.with_extension("json.tmp").exists());
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn read_errors_are_typed() {
        let missing = temp_path("missing");
        let err = StoreSnapshot::read_from(&missing).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::NotFound);

        let corrupt = temp_path("corrupt");
        fs::write(&corrupt, b"not json at all").unwrap();
        let err = StoreSnapshot::read_from(&corrupt).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        fs::remove_file(&corrupt).unwrap();
    }

    #[test]
    fn streamed_v3_file_equals_the_encoded_snapshot() {
        use crate::codec::{BinaryV3, Codec, WireFormat};
        let path = temp_path("v3stream");
        // Large enough that the body streams out in several chunks.
        let mut store = SketchStore::new(SketchConfig::with_slots(32).seed(5));
        store.insert_stream(BarabasiAlbert::new(3000, 3, 8).edges());
        let snap = StoreSnapshot::capture(&store);
        snap.write_atomic_as(&path, WireFormat::BinaryV3).unwrap();
        let on_disk = fs::read(&path).unwrap();
        assert!(on_disk.len() > 4 << 16, "{} bytes", on_disk.len());
        assert_eq!(on_disk, BinaryV3.encode_store_snapshot(&snap).unwrap());
        assert!(codec::is_binary(&on_disk));
        assert_eq!(StoreSnapshot::read_from(&path).unwrap(), snap);
        assert!(!path.with_extension("json.tmp").exists());
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn v2_file_carries_verifiable_header() {
        let path = temp_path("v2header");
        StoreSnapshot::capture(&populated())
            .write_atomic(&path)
            .unwrap();
        let content = fs::read_to_string(&path).unwrap();
        assert!(content.starts_with("STREAMLINK-SNAP v2 len="), "{content}");
        let (payload, integrity) = read_verified(&path).unwrap();
        assert_eq!(integrity, SnapshotIntegrity::Verified);
        assert!(payload.starts_with('{'), "payload is the bare JSON");
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn v1_bare_json_still_reads_as_legacy() {
        // A pre-framing data dir: bare JSON, no header.
        let path = temp_path("v1compat");
        let snap = StoreSnapshot::capture(&populated());
        fs::write(&path, serde_json::to_string(&snap).unwrap()).unwrap();
        let (_, integrity) = read_verified(&path).unwrap();
        assert_eq!(integrity, SnapshotIntegrity::Legacy);
        assert_eq!(StoreSnapshot::read_from(&path).unwrap(), snap);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn payload_bit_flip_is_detected_before_parsing() {
        let path = temp_path("bitflip");
        StoreSnapshot::capture(&populated())
            .write_atomic(&path)
            .unwrap();
        let header_len = fs::read_to_string(&path).unwrap().find('\n').unwrap() as u64 + 1;
        // Flip a low bit of a payload digit: likely still valid JSON —
        // only the CRC can catch it.
        crate::chaos::flip_bit(&path, header_len + 40, 0).unwrap();
        let err = StoreSnapshot::read_from(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("CRC mismatch"), "{err}");
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncation_is_detected_by_length_check() {
        let path = temp_path("truncate");
        StoreSnapshot::capture(&populated())
            .write_atomic(&path)
            .unwrap();
        crate::chaos::tear_file(&path, 17).unwrap();
        let err = StoreSnapshot::read_from(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("length mismatch"), "{err}");
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn garbage_appended_after_payload_is_detected() {
        let path = temp_path("trailing");
        StoreSnapshot::capture(&populated())
            .write_atomic(&path)
            .unwrap();
        crate::chaos::append_garbage(&path, b"   {}").unwrap();
        let err = StoreSnapshot::read_from(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_header_is_rejected_not_misparsed() {
        let path = temp_path("badheader");
        for bad in [
            "STREAMLINK-SNAP v9 len=2 crc32=00000000\n{}",
            "STREAMLINK-SNAP v2 len=x crc32=00000000\n{}",
            "STREAMLINK-SNAP v2 len=2 crc32=nothex00\n{}",
            "STREAMLINK-SNAP v2 len=2 crc32=00000000", // no payload line
        ] {
            fs::write(&path, bad).unwrap();
            let err = read_verified(&path).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{bad:?}");
        }
        fs::remove_file(&path).unwrap();
    }
}
