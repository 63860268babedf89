//! Compact binary wire format for [`GraphDelta`]s and the append-only
//! delta log used by the durable trace store.
//!
//! ## Record payload format
//!
//! A delta payload is the concatenation of four sections — `inserted`
//! edges, `removed` edges, `woken` nodes, `deactivated` nodes — encoded
//! over LEB128 varints:
//!
//! * **Edge sections** are run-length batches grouped by the lower endpoint
//!   `u` (edges are canonical `u < v` and sorted, so equal-`u` runs are
//!   contiguous): a varint group count, then per group a zig-zag delta from
//!   the previous group's `u`, a varint run length, a zig-zag `v₀ − u` for
//!   the first upper endpoint and varint gaps (`≥ 1`) for the rest.
//! * **Node sections** are a varint length, a zig-zag first id, and varint
//!   gaps (`≥ 1`) between consecutive ids.
//!
//! Decoding validates everything the canonical form promises — ids below
//! the universe size, strictly increasing order, no self-loops — and fails
//! with a typed [`CodecError`] on any violation, truncation, or checksum
//! mismatch; corrupt bytes can never panic or produce a non-canonical
//! delta.
//!
//! ## Log file format
//!
//! ```text
//! "DNDL" magic · version byte (2) · varint n · FNV-1a-64 LE   (header)
//! varint payload_len · payload · FNV-1a-64 LE                 (per record, repeated)
//! ```
//!
//! The header checksum covers the version byte and the varint `n ≤ 2³²`;
//! a record's covers its payload, so a record is validated before it is
//! decoded and a single flipped bit anywhere fails with a [`CodecError`].
//!
//! By convention (see `DeltaLogRecorder` in `dynnet-runtime`) record 0 is
//! the *initial state* expressed as a delta from the all-asleep empty graph
//! on `n` nodes, and every later record is one round's delta. The log is
//! the one serialized form of a topology sequence: [`read_trace`] loads it
//! for replay, [`replay_log`] just its final graph.

use crate::dynamic::{DynamicGraphTrace, GraphDelta};
use crate::graph::Graph;
use crate::node::{Edge, NodeId};
use std::fmt;
use std::fs::File;
use std::io::{BufReader, Read, Write};
use std::path::Path;

/// Magic bytes opening every delta log file.
pub const LOG_MAGIC: [u8; 4] = *b"DNDL";
/// Current delta log format version. Version 1 logs (no header checksum)
/// are rejected with [`CodecError::BadVersion`].
pub const LOG_VERSION: u8 = 2;

/// Largest universe a log may declare: every node id must fit a
/// [`NodeId`]'s `u32`.
const MAX_NODES: u64 = 1 << 32;

/// Typed decode/IO failure of the delta codec. Corrupt or truncated input
/// always surfaces as one of these variants — never as a panic.
#[derive(Debug)]
pub enum CodecError {
    /// Input ended before the value being decoded was complete.
    UnexpectedEof,
    /// A varint ran past 10 bytes / overflowed 64 bits.
    VarintOverflow,
    /// Stored checksum does not match the payload bytes.
    ChecksumMismatch {
        /// Checksum recorded in the file.
        stored: u64,
        /// Checksum recomputed over the payload.
        computed: u64,
    },
    /// The file does not start with the `DNDL` magic.
    BadMagic,
    /// The file uses an unsupported format version.
    BadVersion(u8),
    /// A decoded value violates the canonical-delta invariants.
    InvalidValue(String),
    /// The payload decoded cleanly but left unread bytes behind.
    TrailingBytes(usize),
    /// An underlying filesystem operation failed.
    Io(std::io::Error),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::UnexpectedEof => write!(f, "unexpected end of input"),
            CodecError::VarintOverflow => write!(f, "varint overflows 64 bits"),
            CodecError::ChecksumMismatch { stored, computed } => write!(
                f,
                "checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
            CodecError::BadMagic => write!(f, "not a delta log (bad magic)"),
            CodecError::BadVersion(v) => write!(f, "unsupported delta log version {v}"),
            CodecError::InvalidValue(msg) => write!(f, "invalid value: {msg}"),
            CodecError::TrailingBytes(n) => write!(f, "{n} trailing bytes after payload"),
            CodecError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for CodecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CodecError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CodecError {
    fn from(e: std::io::Error) -> Self {
        CodecError::Io(e)
    }
}

// ---------------------------------------------------------------------------
// Varints, zig-zag, checksum
// ---------------------------------------------------------------------------

/// Appends `value` as an LEB128 varint.
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

/// Reads an LEB128 varint from the front of `input`, advancing it.
pub fn read_varint(input: &mut &[u8]) -> Result<u64, CodecError> {
    let mut value: u64 = 0;
    let mut shift = 0u32;
    loop {
        let (&byte, rest) = input.split_first().ok_or(CodecError::UnexpectedEof)?;
        *input = rest;
        let bits = u64::from(byte & 0x7f);
        if shift >= 64 || (shift == 63 && bits > 1) {
            return Err(CodecError::VarintOverflow);
        }
        value |= bits << shift;
        if byte & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
    }
}

/// Zig-zag maps a signed value to an unsigned one with small magnitudes
/// staying small (`0, -1, 1, -2, …` → `0, 1, 2, 3, …`).
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// FNV-1a 64-bit hash — the per-record checksum of the delta log and the
/// per-cell checksum of sweep checkpoints.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn write_zigzag(out: &mut Vec<u8>, v: i64) {
    write_varint(out, zigzag(v));
}

fn read_zigzag(input: &mut &[u8]) -> Result<i64, CodecError> {
    read_varint(input).map(unzigzag)
}

// ---------------------------------------------------------------------------
// Delta payload encode/decode
// ---------------------------------------------------------------------------

fn check_node(v: NodeId, n: usize, what: &str) -> Result<(), CodecError> {
    if v.index() >= n {
        return Err(CodecError::InvalidValue(format!(
            "{what} node {} out of range (n = {n})",
            v.index()
        )));
    }
    Ok(())
}

/// Past [`MAX_NODES`], distinct ids would truncate to the same [`NodeId`].
fn check_universe(n: u64) -> Result<usize, CodecError> {
    if n > MAX_NODES {
        return Err(CodecError::InvalidValue(format!(
            "universe of {n} nodes exceeds the 2^32 node-id range"
        )));
    }
    Ok(n as usize)
}

fn check_sorted<T: Ord>(items: &[T], what: &str) -> Result<(), CodecError> {
    if !items.is_sorted_by(|a, b| a < b) {
        return Err(CodecError::InvalidValue(format!(
            "{what} list is not sorted/deduplicated"
        )));
    }
    Ok(())
}

fn encode_edge_section(out: &mut Vec<u8>, edges: &[Edge], n: usize) -> Result<(), CodecError> {
    for &e in edges {
        check_node(e.u, n, "edge")?;
        check_node(e.v, n, "edge")?;
        if e.u >= e.v {
            return Err(CodecError::InvalidValue(format!(
                "edge {}-{} is not canonical (u < v)",
                e.u.index(),
                e.v.index()
            )));
        }
    }
    check_sorted(edges, "edge")?;
    // One group per distinct lower endpoint (sorted, so runs are contiguous).
    let groups = || edges.chunk_by(|a, b| a.u == b.u);
    write_varint(out, groups().count() as u64);
    let mut prev_u: i64 = 0;
    for run in groups() {
        let Some(first) = run.first() else { continue };
        let u = first.u.index() as i64;
        write_zigzag(out, u - prev_u);
        prev_u = u;
        write_varint(out, run.len() as u64);
        write_zigzag(out, first.v.index() as i64 - u);
        for (a, b) in run.iter().zip(run.iter().skip(1)) {
            write_varint(out, (b.v.index() - a.v.index()) as u64);
        }
    }
    Ok(())
}

/// Bounds a decoded element count by the bytes still available (each
/// element costs at least one byte), so corrupt counts cannot trigger
/// huge allocations.
fn check_count(count: u64, input: &[u8]) -> Result<usize, CodecError> {
    if count > input.len() as u64 {
        return Err(CodecError::UnexpectedEof);
    }
    Ok(count as usize)
}

fn decode_edge_section(input: &mut &[u8], n: usize) -> Result<Vec<Edge>, CodecError> {
    let groups = check_count(read_varint(input)?, input)?;
    let mut edges = Vec::new();
    let mut prev_u: i64 = 0;
    for gi in 0..groups {
        let du = read_zigzag(input)?;
        let u = prev_u + du;
        if u < 0 || u as usize >= n || (gi > 0 && du <= 0) {
            return Err(CodecError::InvalidValue(format!(
                "edge group endpoint {u} out of order or out of range (n = {n})"
            )));
        }
        prev_u = u;
        let run = check_count(read_varint(input)?, input)?;
        if run == 0 {
            return Err(CodecError::InvalidValue("empty edge run".to_string()));
        }
        let mut v = u + read_zigzag(input)?;
        for k in 0..run {
            if k > 0 {
                let gap = read_varint(input)?;
                if gap == 0 {
                    return Err(CodecError::InvalidValue(
                        "zero gap in edge run (duplicate edge)".to_string(),
                    ));
                }
                v += gap as i64;
            }
            if v <= u || v as usize >= n {
                return Err(CodecError::InvalidValue(format!(
                    "edge {u}-{v} out of range or not canonical (n = {n})"
                )));
            }
            edges.push(Edge::of(u as usize, v as usize));
        }
    }
    Ok(edges)
}

fn encode_node_section(out: &mut Vec<u8>, nodes: &[NodeId], n: usize) -> Result<(), CodecError> {
    check_sorted(nodes, "node")?;
    write_varint(out, nodes.len() as u64);
    let mut prev: Option<usize> = None;
    for &v in nodes {
        check_node(v, n, "listed")?;
        match prev {
            None => write_zigzag(out, v.index() as i64),
            Some(p) => write_varint(out, (v.index() - p) as u64),
        }
        prev = Some(v.index());
    }
    Ok(())
}

fn decode_node_section(input: &mut &[u8], n: usize) -> Result<Vec<NodeId>, CodecError> {
    let len = check_count(read_varint(input)?, input)?;
    let mut nodes = Vec::with_capacity(len);
    let mut prev: i64 = 0;
    for i in 0..len {
        let v = if i == 0 {
            read_zigzag(input)?
        } else {
            let gap = read_varint(input)?;
            if gap == 0 {
                return Err(CodecError::InvalidValue(
                    "zero gap in node list (duplicate node)".to_string(),
                ));
            }
            prev + gap as i64
        };
        if v < 0 || v as usize >= n {
            return Err(CodecError::InvalidValue(format!(
                "node {v} out of range (n = {n})"
            )));
        }
        prev = v;
        nodes.push(NodeId::new(v as usize));
    }
    Ok(nodes)
}

/// Encodes a *canonical* delta (sorted, deduplicated, ids `< n`) into its
/// compact payload. Non-canonical input — the only way to produce a payload
/// that would not round-trip — is rejected with
/// [`CodecError::InvalidValue`]; call [`GraphDelta::normalize`] first.
pub fn encode_delta(delta: &GraphDelta, n: usize) -> Result<Vec<u8>, CodecError> {
    let mut out = Vec::with_capacity(
        2 * (delta.inserted.len() + delta.removed.len())
            + delta.woken.len()
            + delta.deactivated.len()
            + 8,
    );
    encode_edge_section(&mut out, &delta.inserted, n)?;
    encode_edge_section(&mut out, &delta.removed, n)?;
    encode_node_section(&mut out, &delta.woken, n)?;
    encode_node_section(&mut out, &delta.deactivated, n)?;
    Ok(out)
}

/// Decodes a payload produced by [`encode_delta`], consuming all of
/// `bytes`. The result is always canonical; any truncation, overflow,
/// out-of-range id, ordering violation, or leftover byte yields a typed
/// [`CodecError`], as does a universe `n > 2³²`.
pub fn decode_delta(bytes: &[u8], n: usize) -> Result<GraphDelta, CodecError> {
    check_universe(n as u64)?;
    let mut input = bytes;
    let delta = GraphDelta {
        inserted: decode_edge_section(&mut input, n)?,
        removed: decode_edge_section(&mut input, n)?,
        woken: decode_node_section(&mut input, n)?,
        deactivated: decode_node_section(&mut input, n)?,
    };
    if !input.is_empty() {
        return Err(CodecError::TrailingBytes(input.len()));
    }
    Ok(delta)
}

// ---------------------------------------------------------------------------
// Log framing
// ---------------------------------------------------------------------------

/// Appends the log header (`DNDL` magic, version, universe size, and the
/// FNV-1a-64 checksum of the version byte and the varint size) to `out`.
pub fn write_log_header(out: &mut Vec<u8>, n: usize) {
    let mut checked = vec![LOG_VERSION];
    write_varint(&mut checked, n as u64);
    out.extend_from_slice(&LOG_MAGIC);
    out.extend_from_slice(&checked);
    out.extend_from_slice(&fnv1a64(&checked).to_le_bytes());
}

/// Frames an encoded payload as one log record:
/// `varint len · payload · FNV-1a-64 LE`.
pub fn write_record(out: &mut Vec<u8>, payload: &[u8]) {
    write_varint(out, payload.len() as u64);
    out.extend_from_slice(payload);
    out.extend_from_slice(&fnv1a64(payload).to_le_bytes());
}

/// Streams framed [`GraphDelta`] records to a delta log file through a
/// fixed-size buffer, so recording arbitrarily many rounds costs `O(1)`
/// memory in the number of rounds.
pub struct DeltaLogWriter {
    file: File,
    n: usize,
    buf: Vec<u8>,
    records: u64,
    bytes_written: u64,
    max_buffered: usize,
    fsyncs: u64,
}

/// Flush threshold of [`DeltaLogWriter`]'s in-memory buffer.
const LOG_FLUSH_BYTES: usize = 64 * 1024;

/// Write-side statistics of a finished [`DeltaLogWriter`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LogStats {
    /// Number of records appended.
    pub records: u64,
    /// Total bytes written to the file (header + records).
    pub bytes_written: u64,
    /// High-water mark of the in-memory buffer — the recorder's
    /// bounded-memory guarantee is `max_buffered ≤` flush threshold `+`
    /// one record.
    pub max_buffered: usize,
    /// Number of fsync (`sync_data`) calls issued.
    pub fsyncs: u64,
}

impl DeltaLogWriter {
    /// Creates (truncating) the log file at `path` for a universe of `n`
    /// nodes and writes the header.
    pub fn create(path: &Path, n: usize) -> Result<DeltaLogWriter, CodecError> {
        let file = File::create(path)?;
        let mut buf = Vec::with_capacity(LOG_FLUSH_BYTES + 1024);
        write_log_header(&mut buf, n);
        let max_buffered = buf.len();
        Ok(DeltaLogWriter {
            file,
            n,
            buf,
            records: 0,
            bytes_written: 0,
            max_buffered,
            fsyncs: 0,
        })
    }

    /// The universe size recorded in the header.
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Encodes and appends one delta record. The delta must be canonical
    /// (see [`encode_delta`]).
    pub fn append(&mut self, delta: &GraphDelta) -> Result<(), CodecError> {
        let payload = encode_delta(delta, self.n)?;
        write_record(&mut self.buf, &payload);
        self.records += 1;
        self.max_buffered = self.max_buffered.max(self.buf.len());
        if self.buf.len() >= LOG_FLUSH_BYTES {
            self.flush()?;
        }
        Ok(())
    }

    fn flush(&mut self) -> Result<(), CodecError> {
        if !self.buf.is_empty() {
            self.file.write_all(&self.buf)?;
            self.bytes_written += self.buf.len() as u64;
            self.buf.clear();
        }
        Ok(())
    }

    /// Flushes buffered records and fsyncs the file.
    pub fn sync(&mut self) -> Result<(), CodecError> {
        self.flush()?;
        self.file.sync_data()?;
        self.fsyncs += 1;
        Ok(())
    }

    /// Current write-side statistics (records, bytes, buffer high-water
    /// mark, fsyncs). Bytes still buffered are not yet counted as written.
    pub fn stats(&self) -> LogStats {
        LogStats {
            records: self.records,
            bytes_written: self.bytes_written,
            max_buffered: self.max_buffered,
            fsyncs: self.fsyncs,
        }
    }

    /// Flushes, fsyncs, and closes the log, returning final statistics.
    pub fn finish(mut self) -> Result<LogStats, CodecError> {
        self.sync()?;
        Ok(self.stats())
    }
}

/// Iterates the framed [`GraphDelta`] records of a delta log file,
/// validating each record's checksum before decoding it.
pub struct DeltaLogReader {
    reader: BufReader<File>,
    n: usize,
    remaining: u64,
    failed: bool,
}

impl DeltaLogReader {
    /// Opens the log at `path` and validates its header: magic, version,
    /// header checksum, and a universe of at most 2³² nodes.
    pub fn open(path: &Path) -> Result<DeltaLogReader, CodecError> {
        let file = File::open(path)?;
        let remaining = file.metadata()?.len();
        let mut reader = BufReader::new(file);
        let mut magic = [0u8; 4];
        let mut version = 0u8;
        reader
            .read_exact(&mut magic)
            .and_then(|()| reader.read_exact(std::slice::from_mut(&mut version)))
            .map_err(|_| CodecError::BadMagic)?;
        if magic != LOG_MAGIC {
            return Err(CodecError::BadMagic);
        }
        if version != LOG_VERSION {
            return Err(CodecError::BadVersion(version));
        }
        let mut remaining = remaining - 5;
        let mut checked = vec![version];
        let n = read_varint_io(&mut reader, &mut remaining, Some(&mut checked))?;
        let stored = read_checksum(&mut reader, &mut remaining)?;
        let computed = fnv1a64(&checked);
        if stored != computed {
            return Err(CodecError::ChecksumMismatch { stored, computed });
        }
        Ok(DeltaLogReader {
            reader,
            n: check_universe(n)?,
            remaining,
            failed: false,
        })
    }

    /// The universe size recorded in the header.
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    fn next_record(&mut self) -> Result<Option<GraphDelta>, CodecError> {
        if self.remaining == 0 {
            return Ok(None);
        }
        let len = read_varint_io(&mut self.reader, &mut self.remaining, None)?;
        // A corrupt length cannot allocate past the bytes actually left in
        // the file (payload + 8 checksum bytes must still fit).
        if len.saturating_add(8) > self.remaining {
            return Err(CodecError::UnexpectedEof);
        }
        let mut payload = vec![0u8; len as usize];
        self.reader.read_exact(&mut payload)?;
        self.remaining -= len;
        let stored = read_checksum(&mut self.reader, &mut self.remaining)?;
        let computed = fnv1a64(&payload);
        if stored != computed {
            return Err(CodecError::ChecksumMismatch { stored, computed });
        }
        decode_delta(&payload, self.n).map(Some)
    }
}

impl Iterator for DeltaLogReader {
    type Item = Result<GraphDelta, CodecError>;

    fn next(&mut self) -> Option<Result<GraphDelta, CodecError>> {
        if self.failed {
            return None;
        }
        match self.next_record() {
            Ok(Some(delta)) => Some(Ok(delta)),
            Ok(None) => None,
            Err(e) => {
                self.failed = true;
                Some(Err(e))
            }
        }
    }
}

/// Reads one varint from an IO reader, charging the consumed bytes against
/// `remaining` and appending them to `raw` when given (the header checksum
/// covers the varint's bytes as written).
fn read_varint_io<R: Read>(
    reader: &mut R,
    remaining: &mut u64,
    mut raw: Option<&mut Vec<u8>>,
) -> Result<u64, CodecError> {
    let mut value: u64 = 0;
    let mut shift = 0u32;
    loop {
        if *remaining == 0 {
            return Err(CodecError::UnexpectedEof);
        }
        let mut byte = 0u8;
        reader.read_exact(std::slice::from_mut(&mut byte))?;
        *remaining -= 1;
        if let Some(raw) = raw.as_deref_mut() {
            raw.push(byte);
        }
        let bits = u64::from(byte & 0x7f);
        if shift >= 64 || (shift == 63 && bits > 1) {
            return Err(CodecError::VarintOverflow);
        }
        value |= bits << shift;
        if byte & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
    }
}

/// Reads one little-endian FNV-1a-64 checksum, charging its 8 bytes
/// against `remaining`.
fn read_checksum<R: Read>(reader: &mut R, remaining: &mut u64) -> Result<u64, CodecError> {
    if *remaining < 8 {
        return Err(CodecError::UnexpectedEof);
    }
    let mut stored = [0u8; 8];
    reader.read_exact(&mut stored)?;
    *remaining -= 8;
    Ok(u64::from_le_bytes(stored))
}

/// Replays a delta log from the all-asleep empty graph on its header's `n`
/// nodes — record 0 is the initial state, so the result is the final
/// recorded graph.
pub fn replay_log(path: &Path) -> Result<Graph, CodecError> {
    let reader = DeltaLogReader::open(path)?;
    let mut g = Graph::new_all_asleep(reader.num_nodes());
    for delta in reader {
        delta?.apply(&mut g);
    }
    Ok(g)
}

/// Loads a delta log as a [`DynamicGraphTrace`]: record 0 becomes the
/// round-0 graph and every later record one round's delta. A recorded run
/// replays with `ScriptedAdversary::new(read_trace(path)?)`.
pub fn read_trace(path: &Path) -> Result<DynamicGraphTrace, CodecError> {
    let mut records = DeltaLogReader::open(path)?;
    let mut initial = Graph::new_all_asleep(records.num_nodes());
    if let Some(first) = records.next() {
        first?.apply(&mut initial);
    }
    let mut trace = DynamicGraphTrace::new(initial);
    for delta in records {
        trace.push_delta(delta?);
    }
    Ok(trace)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn delta(
        ins: &[(usize, usize)],
        rem: &[(usize, usize)],
        wok: &[usize],
        dea: &[usize],
    ) -> GraphDelta {
        GraphDelta::from_changes(
            ins.iter().map(|&(a, b)| Edge::of(a, b)).collect(),
            rem.iter().map(|&(a, b)| Edge::of(a, b)).collect(),
            wok.iter().map(|&v| NodeId::new(v)).collect(),
            dea.iter().map(|&v| NodeId::new(v)).collect(),
        )
    }

    #[test]
    fn varint_roundtrip() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            let mut s = buf.as_slice();
            assert_eq!(read_varint(&mut s).unwrap(), v);
            assert!(s.is_empty());
        }
    }

    #[test]
    fn zigzag_roundtrip() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
    }

    #[test]
    fn varint_overflow_rejected() {
        let mut s: &[u8] = &[0xff; 11];
        assert!(matches!(
            read_varint(&mut s),
            Err(CodecError::VarintOverflow)
        ));
    }

    #[test]
    fn delta_payload_roundtrip() {
        let d = delta(
            &[(0, 1), (0, 5), (2, 3), (2, 9), (7, 8)],
            &[(1, 4)],
            &[0, 3, 9],
            &[5],
        );
        let bytes = encode_delta(&d, 10).unwrap();
        assert_eq!(decode_delta(&bytes, 10).unwrap(), d);
    }

    #[test]
    fn empty_delta_roundtrip() {
        let d = GraphDelta::default();
        let bytes = encode_delta(&d, 4).unwrap();
        assert_eq!(decode_delta(&bytes, 4).unwrap(), d);
        assert_eq!(bytes.len(), 4); // four empty sections, one byte each
    }

    #[test]
    fn non_canonical_input_rejected() {
        let unsorted = GraphDelta {
            inserted: vec![Edge::of(2, 3), Edge::of(0, 1)],
            ..GraphDelta::default()
        };
        assert!(matches!(
            encode_delta(&unsorted, 4),
            Err(CodecError::InvalidValue(_))
        ));
        let out_of_range = delta(&[(0, 7)], &[], &[], &[]);
        assert!(matches!(
            encode_delta(&out_of_range, 4),
            Err(CodecError::InvalidValue(_))
        ));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let d = delta(&[(0, 1)], &[], &[], &[]);
        let mut bytes = encode_delta(&d, 4).unwrap();
        bytes.push(0);
        assert!(matches!(
            decode_delta(&bytes, 4),
            Err(CodecError::TrailingBytes(1))
        ));
    }

    #[test]
    fn writer_reader_roundtrip_with_stats() {
        let dir = std::env::temp_dir().join(format!("dynnet-codec-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.dlog");
        let deltas = [
            delta(&[(0, 1), (1, 2)], &[], &[0, 1, 2], &[]),
            delta(&[(0, 3)], &[(0, 1)], &[3], &[]),
            GraphDelta::default(),
            delta(&[], &[(1, 2)], &[], &[2]),
        ];
        let mut w = DeltaLogWriter::create(&path, 4).unwrap();
        for d in &deltas {
            w.append(d).unwrap();
        }
        let stats = w.finish().unwrap();
        assert_eq!(stats.records, 4);
        assert!(stats.bytes_written > 0);
        assert_eq!(stats.fsyncs, 1);

        let r = DeltaLogReader::open(&path).unwrap();
        assert_eq!(r.num_nodes(), 4);
        let read: Vec<GraphDelta> = r.map(|d| d.unwrap()).collect();
        assert_eq!(read, deltas);

        let final_graph = replay_log(&path).unwrap();
        let mut expected = Graph::new_all_asleep(4);
        for d in &deltas {
            d.apply(&mut expected);
        }
        assert_eq!(final_graph, expected);

        // Record 0 is the initial state; the rest are per-round deltas.
        let trace = read_trace(&path).unwrap();
        assert_eq!(trace.num_rounds(), deltas.len());
        assert_eq!(trace.deltas(), &deltas[1..]);
        let mut round = Graph::new_all_asleep(4);
        for (r, d) in deltas.iter().enumerate() {
            d.apply(&mut round);
            assert_eq!(trace.graph_at(r), round, "round {r}");
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn header_only_log_replays_to_all_asleep() {
        let dir = std::env::temp_dir().join(format!("dynnet-codec-h-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("empty.dlog");
        let w = DeltaLogWriter::create(&path, 6).unwrap();
        w.finish().unwrap();
        let g = replay_log(&path).unwrap();
        assert_eq!(g, Graph::new_all_asleep(6));
        let trace = read_trace(&path).unwrap();
        assert_eq!(trace.num_rounds(), 1);
        assert_eq!(trace.graph_at(0), Graph::new_all_asleep(6));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn bad_magic_and_version_rejected() {
        let dir = std::env::temp_dir().join(format!("dynnet-codec-m-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.dlog");
        std::fs::write(&path, b"NOPE").unwrap();
        assert!(matches!(
            DeltaLogReader::open(&path),
            Err(CodecError::BadMagic)
        ));
        std::fs::write(&path, [b'D', b'N', b'D', b'L', 9, 4]).unwrap();
        assert!(matches!(
            DeltaLogReader::open(&path),
            Err(CodecError::BadVersion(9))
        ));
        // A version-1 log (header without a checksum) is no longer read.
        std::fs::write(&path, [b'D', b'N', b'D', b'L', 1, 4]).unwrap();
        assert!(matches!(
            DeltaLogReader::open(&path),
            Err(CodecError::BadVersion(1))
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn universe_beyond_node_id_range_rejected() {
        // With n = 2^33, node 2^32 + 1 would truncate to node 1.
        let n = 1usize << 33;
        let dir = std::env::temp_dir().join(format!("dynnet-codec-u-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("huge.dlog");
        let mut header = Vec::new();
        write_log_header(&mut header, n);
        std::fs::write(&path, &header).unwrap();
        assert!(matches!(
            DeltaLogReader::open(&path),
            Err(CodecError::InvalidValue(_))
        ));
        assert!(matches!(
            decode_delta(&[0, 0, 0, 0], n),
            Err(CodecError::InvalidValue(_))
        ));
        // The largest universe whose ids all fit a `NodeId` still opens.
        header.clear();
        write_log_header(&mut header, 1 << 32);
        std::fs::write(&path, &header).unwrap();
        assert_eq!(DeltaLogReader::open(&path).unwrap().num_nodes(), 1 << 32);
        std::fs::remove_file(&path).unwrap();
    }
}
