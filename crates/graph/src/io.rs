//! Graph I/O: a plain-text edge list and a compact binary block format.
//!
//! ## Text format
//!
//! A simple, self-describing edge list:
//!
//! ```text
//! # optional comments
//! n m
//! u v w
//! ...
//! ```
//!
//! Vertices are 0-based. The format exists so experiments can be re-run on saved inputs
//! and so the examples can exchange graphs with external tools.
//!
//! Two read paths are provided:
//!
//! * [`from_str`] / [`read_file`] — parse a whole graph. Both drain an
//!   [`EdgeBatchReader`] line by line; `read_file` never materialises the file as a
//!   `String` (the edge list is the only `O(m)` allocation).
//! * [`EdgeBatchReader`] — a chunked reader that yields validated edges in
//!   caller-sized batches with `O(batch)` resident memory. This is the ingestion path of
//!   the semi-streaming sparsifier (`sgs-stream`), which never holds the whole input.
//!
//! ## Binary format (`.sgsb`)
//!
//! The storage currency of the out-of-core streaming path (`sgs-stream`'s
//! `SpillStore`): ~16 bytes per edge instead of ~20 text characters, and — crucially —
//! weights round-trip as **exact** IEEE-754 bits, so a sparsifier spilled to disk and
//! read back is bitwise identical to one that stayed resident. Layout (all integers
//! little-endian):
//!
//! ```text
//! offset  size  field
//! 0       4     magic  "SGSB"
//! 4       2     format version (currently 1)
//! 6       2     reserved, must be 0
//! 8       8     n  (vertex count, must fit in u32 because ids are stored as u32)
//! 16      8     m  (declared edge count)
//! 24      ...   blocks
//! ```
//!
//! Each block is a `u32` edge count followed by that many 16-byte records
//! `(u: u32, v: u32, w: f64-bits as u64)`; a zero-count block terminates the stream.
//! [`BinEdgeReader`] / [`BinEdgeWriter`] mirror the [`EdgeBatchReader`] API and
//! discipline: `O(batch)` resident memory, every edge validated, preallocation from
//! the untrusted header clamped, and every error positioned with its byte offset —
//! hostile or truncated bytes come back as `Err`, never as a panic or an OOM abort.

use std::fmt::Write as _;
use std::fs;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

use crate::error::{GraphError, Result};
use crate::graph::{Edge, Graph};

/// Serializes a graph into the edge-list text format.
pub fn to_string(g: &Graph) -> String {
    let mut s = String::with_capacity(32 + 24 * g.m());
    let _ = writeln!(s, "{} {}", g.n(), g.m());
    for e in g.edges() {
        let _ = writeln!(s, "{} {} {}", e.u, e.v, e.w);
    }
    s
}

/// True for lines the format ignores: blank lines and `#` comments.
fn is_skippable(line: &str) -> bool {
    line.is_empty() || line.starts_with('#')
}

/// Upper bound on how many edges are preallocated from a header's declared `m` alone.
///
/// The header is untrusted input: a hostile `n m` line can declare `m` close to
/// `usize::MAX`, and preallocating that many `Edge`s would abort the process (capacity
/// overflow or OOM kill) before a single edge line is validated. Growth beyond this
/// bound is paid by ordinary amortised `Vec` doubling, so honest large files lose
/// nothing — and a lying header is caught by the edge-count cross-check, returning a
/// positioned `Err` instead of panicking.
const MAX_TRUSTED_PREALLOC_EDGES: usize = 1 << 20;

/// Parses the `n m` header line. `line_no` is 1-based and used in error positions.
fn parse_header(line: &str, line_no: usize) -> Result<(usize, usize)> {
    let mut parts = line.split_whitespace();
    let n: usize = parts
        .next()
        .ok_or_else(|| GraphError::Parse(format!("line {line_no}: missing n")))?
        .parse()
        .map_err(|e| GraphError::Parse(format!("line {line_no}: bad n: {e}")))?;
    let m: usize = parts
        .next()
        .ok_or_else(|| GraphError::Parse(format!("line {line_no}: missing m")))?
        .parse()
        .map_err(|e| GraphError::Parse(format!("line {line_no}: bad m: {e}")))?;
    Ok((n, m))
}

/// Parses and validates one `u v [w]` edge line against a graph on `n` vertices.
/// `line_no` is 1-based; every error message carries it so malformed lines in large
/// files can be located without re-parsing.
fn parse_edge(line: &str, line_no: usize, n: usize) -> Result<Edge> {
    let mut parts = line.split_whitespace();
    let u: usize = parts
        .next()
        .ok_or_else(|| GraphError::Parse(format!("line {line_no}: missing u")))?
        .parse()
        .map_err(|e| GraphError::Parse(format!("line {line_no}: bad u: {e}")))?;
    let v: usize = parts
        .next()
        .ok_or_else(|| GraphError::Parse(format!("line {line_no}: missing v")))?
        .parse()
        .map_err(|e| GraphError::Parse(format!("line {line_no}: bad v: {e}")))?;
    let w: f64 = match parts.next() {
        Some(tok) => tok
            .parse()
            .map_err(|e| GraphError::Parse(format!("line {line_no}: bad w: {e}")))?,
        None => 1.0,
    };
    if let Err(e) = Graph::validate_edge(n, u, v, w) {
        return Err(GraphError::Parse(format!("line {line_no}: {e}")));
    }
    Ok(Edge { u, v, w })
}

/// Parses a graph from the edge-list text format.
pub fn from_str(text: &str) -> Result<Graph> {
    let mut reader = EdgeBatchReader::new(text.as_bytes())?;
    drain_batches(reader.n(), reader.declared_edges(), |max, out| {
        reader.next_batch(max, out)
    })
}

/// Edges per batch when a whole graph is drained from a batch reader.
const DRAIN_BATCH_EDGES: usize = 16 * 1024;

/// Collects every edge a batch reader yields into a graph on `n` vertices.
///
/// `next_batch` is a reader's `next_batch`: it validates every edge, so edges are
/// moved in unchecked, and `Ok(0)` ends the stream. Preallocation from the untrusted
/// `declared` count is clamped; batches keep the transient buffer small without a
/// per-edge function-call round trip.
fn drain_batches(
    n: usize,
    declared: usize,
    mut next_batch: impl FnMut(usize, &mut Vec<Edge>) -> Result<usize>,
) -> Result<Graph> {
    let mut g = Graph::with_capacity(n, declared.min(MAX_TRUSTED_PREALLOC_EDGES));
    let mut batch: Vec<Edge> = Vec::with_capacity(declared.min(DRAIN_BATCH_EDGES));
    loop {
        batch.clear();
        if next_batch(DRAIN_BATCH_EDGES, &mut batch)? == 0 {
            return Ok(g);
        }
        for e in &batch {
            g.push_edge_unchecked(e.u, e.v, e.w);
        }
    }
}

/// A buffered, chunked reader over the edge-list text format.
///
/// The header is parsed eagerly by [`EdgeBatchReader::new`]; edges are then pulled in
/// caller-sized batches via [`EdgeBatchReader::next_batch`], validated (endpoint range,
/// self-loops, weight positivity) with 1-based line positions in every error. Resident
/// memory is one line buffer plus whatever batch vector the caller supplies — the file
/// is never materialised, which is what lets `sgs-stream` sparsify graphs larger than
/// RAM from disk.
#[derive(Debug)]
pub struct EdgeBatchReader<R> {
    src: R,
    /// Reused line buffer; cleared before every read, never reallocated in steady state.
    line: String,
    /// 1-based number of the last line read.
    line_no: usize,
    n: usize,
    declared_edges: usize,
    edges_read: usize,
    done: bool,
}

impl EdgeBatchReader<BufReader<fs::File>> {
    /// Opens a file and parses its header.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<Self> {
        EdgeBatchReader::new(BufReader::new(fs::File::open(path)?))
    }
}

impl<R: BufRead> EdgeBatchReader<R> {
    /// Wraps any buffered reader and parses the header (comments and blank lines are
    /// skipped, as in [`from_str`]).
    pub fn new(src: R) -> Result<Self> {
        let mut reader = EdgeBatchReader {
            src,
            line: String::new(),
            line_no: 0,
            n: 0,
            declared_edges: 0,
            edges_read: 0,
            done: false,
        };
        let header_no = match reader.next_content_line()? {
            Some(no) => no,
            None => return Err(GraphError::Parse("missing header line".into())),
        };
        let (n, m) = parse_header(reader.line.trim(), header_no)?;
        reader.n = n;
        reader.declared_edges = m;
        Ok(reader)
    }

    /// Number of vertices, from the header.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of edges the header declared.
    pub fn declared_edges(&self) -> usize {
        self.declared_edges
    }

    /// Number of edges yielded so far.
    pub fn edges_read(&self) -> usize {
        self.edges_read
    }

    /// Reads the next non-skippable line into `self.line`; returns its 1-based number,
    /// or `None` at end of input.
    fn next_content_line(&mut self) -> Result<Option<usize>> {
        loop {
            self.line.clear();
            let bytes = self.src.read_line(&mut self.line)?;
            if bytes == 0 {
                return Ok(None);
            }
            self.line_no += 1;
            if !is_skippable(self.line.trim()) {
                return Ok(Some(self.line_no));
            }
        }
    }

    /// Appends up to `max_edges` validated edges to `out`, returning how many were
    /// appended. Returns `Ok(0)` exactly once the stream is exhausted; at that point
    /// the total count is checked against the header's declared edge count.
    /// `max_edges` must be positive — `Ok(0)` is reserved for end-of-stream, so a
    /// zero-sized batch request would be indistinguishable from exhaustion.
    pub fn next_batch(&mut self, max_edges: usize, out: &mut Vec<Edge>) -> Result<usize> {
        assert!(max_edges > 0, "max_edges must be positive");
        if self.done {
            return Ok(0);
        }
        let mut appended = 0usize;
        while appended < max_edges {
            let line_no = match self.next_content_line()? {
                Some(no) => no,
                None => {
                    self.done = true;
                    if self.edges_read != self.declared_edges {
                        return Err(GraphError::Parse(format!(
                            "header declared {} edges but {} were read",
                            self.declared_edges, self.edges_read
                        )));
                    }
                    break;
                }
            };
            let e = parse_edge(self.line.trim(), line_no, self.n)?;
            out.push(e);
            self.edges_read += 1;
            appended += 1;
        }
        Ok(appended)
    }
}

/// Reads a graph from a file in the edge-list text format.
///
/// Streams the file through an [`EdgeBatchReader`]: peak memory is the output edge list
/// plus one line buffer, not file-size + edge-list as with `fs::read_to_string`.
pub fn read_file<P: AsRef<Path>>(path: P) -> Result<Graph> {
    let mut reader = EdgeBatchReader::open(path)?;
    drain_batches(reader.n(), reader.declared_edges(), |max, out| {
        reader.next_batch(max, out)
    })
}

// ---------------------------------------------------------------------------
// Binary block format
// ---------------------------------------------------------------------------

/// Magic bytes opening every binary edge file.
pub const BIN_MAGIC: [u8; 4] = *b"SGSB";
/// Current binary format version.
pub const BIN_VERSION: u16 = 1;
/// Size of the fixed header in bytes.
const BIN_HEADER_BYTES: u64 = 24;
/// Size of one edge record in bytes: `u32 u`, `u32 v`, `u64 w`-bits.
const BIN_RECORD_BYTES: usize = 16;
/// Edges per block emitted by [`BinEdgeWriter`] (readers accept any block size).
const BIN_WRITE_BLOCK_EDGES: usize = 16 * 1024;

/// A streaming writer of the binary edge format.
///
/// The header is written eagerly; edges are appended in validated batches and chunked
/// into blocks of at most 16 Ki edges. [`BinEdgeWriter::finish`] writes
/// the zero-count terminator block and cross-checks the written count against the
/// declared `m`, so a file that round-trips through [`BinEdgeReader`] is guaranteed
/// internally consistent.
#[derive(Debug)]
pub struct BinEdgeWriter<W: Write> {
    dst: W,
    n: usize,
    declared_edges: usize,
    edges_written: usize,
}

impl BinEdgeWriter<BufWriter<fs::File>> {
    /// Creates (truncating) a file and writes the header.
    pub fn create<P: AsRef<Path>>(path: P, n: usize, m: usize) -> Result<Self> {
        BinEdgeWriter::new(BufWriter::new(fs::File::create(path)?), n, m)
    }
}

impl<W: Write> BinEdgeWriter<W> {
    /// Wraps any writer and writes the header. `n` must fit in `u32` (vertex ids are
    /// stored as `u32`).
    pub fn new(mut dst: W, n: usize, m: usize) -> Result<Self> {
        if n > u32::MAX as usize {
            return Err(GraphError::Parse(format!(
                "binary format stores vertex ids as u32; n = {n} does not fit"
            )));
        }
        dst.write_all(&BIN_MAGIC)?;
        dst.write_all(&BIN_VERSION.to_le_bytes())?;
        dst.write_all(&0u16.to_le_bytes())?;
        dst.write_all(&(n as u64).to_le_bytes())?;
        dst.write_all(&(m as u64).to_le_bytes())?;
        Ok(BinEdgeWriter {
            dst,
            n,
            declared_edges: m,
            edges_written: 0,
        })
    }

    /// Number of edges written so far.
    pub fn edges_written(&self) -> usize {
        self.edges_written
    }

    /// Appends a batch of edges (validated against `n`; writing more than the declared
    /// `m` is an error).
    pub fn write_batch(&mut self, edges: &[Edge]) -> Result<()> {
        for e in edges {
            Graph::validate_edge(self.n, e.u, e.v, e.w)?;
        }
        if self.edges_written + edges.len() > self.declared_edges {
            return Err(GraphError::Parse(format!(
                "writing {} edges would exceed the declared count {}",
                self.edges_written + edges.len(),
                self.declared_edges
            )));
        }
        for block in edges.chunks(BIN_WRITE_BLOCK_EDGES) {
            self.dst.write_all(&(block.len() as u32).to_le_bytes())?;
            let mut rec = [0u8; BIN_RECORD_BYTES];
            for e in block {
                rec[0..4].copy_from_slice(&(e.u as u32).to_le_bytes());
                rec[4..8].copy_from_slice(&(e.v as u32).to_le_bytes());
                rec[8..16].copy_from_slice(&e.w.to_bits().to_le_bytes());
                self.dst.write_all(&rec)?;
            }
        }
        self.edges_written += edges.len();
        Ok(())
    }

    /// Writes the terminator block, checks the edge count against the header, and
    /// flushes.
    pub fn finish(mut self) -> Result<()> {
        if self.edges_written != self.declared_edges {
            return Err(GraphError::Parse(format!(
                "header declared {} edges but {} were written",
                self.declared_edges, self.edges_written
            )));
        }
        self.dst.write_all(&0u32.to_le_bytes())?;
        self.dst.flush()?;
        Ok(())
    }
}

/// A streaming reader of the binary edge format, mirroring [`EdgeBatchReader`].
///
/// The header is parsed eagerly by [`BinEdgeReader::new`]; edges are then pulled in
/// caller-sized batches via [`BinEdgeReader::next_batch`], each validated (endpoint
/// range, self-loops, weight positivity) with its byte offset in every error. Block
/// counts from the file are never trusted with an allocation: edges are read one
/// record at a time into the caller's vector, so a block header lying about its
/// length hits a positioned end-of-input error, not an OOM.
#[derive(Debug)]
pub struct BinEdgeReader<R> {
    src: R,
    /// Byte offset of the next unread byte, carried in every error position.
    offset: u64,
    n: usize,
    declared_edges: usize,
    edges_read: usize,
    /// Records remaining in the block currently being drained.
    remaining_in_block: u32,
    done: bool,
}

impl BinEdgeReader<BufReader<fs::File>> {
    /// Opens a file and parses its header.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<Self> {
        BinEdgeReader::new(BufReader::new(fs::File::open(path)?))
    }
}

impl<R: Read> BinEdgeReader<R> {
    /// Wraps any reader and parses the header.
    pub fn new(src: R) -> Result<Self> {
        let mut reader = BinEdgeReader {
            src,
            offset: 0,
            n: 0,
            declared_edges: 0,
            edges_read: 0,
            remaining_in_block: 0,
            done: false,
        };
        let mut header = [0u8; BIN_HEADER_BYTES as usize];
        reader.read_exact_positioned(&mut header)?;
        if header[0..4] != BIN_MAGIC {
            return Err(GraphError::Parse(format!(
                "byte 0: bad magic {:?} (expected {:?})",
                &header[0..4],
                BIN_MAGIC
            )));
        }
        let version = u16::from_le_bytes([header[4], header[5]]);
        if version != BIN_VERSION {
            return Err(GraphError::Parse(format!(
                "byte 4: unsupported format version {version} (expected {BIN_VERSION})"
            )));
        }
        let reserved = u16::from_le_bytes([header[6], header[7]]);
        if reserved != 0 {
            return Err(GraphError::Parse(format!(
                "byte 6: reserved field is {reserved}, expected 0"
            )));
        }
        let n = u64::from_le_bytes(header[8..16].try_into().expect("8 bytes"));
        if n > u32::MAX as u64 {
            return Err(GraphError::Parse(format!(
                "byte 8: n = {n} does not fit in u32 vertex ids"
            )));
        }
        let m = u64::from_le_bytes(header[16..24].try_into().expect("8 bytes"));
        // A hostile header can declare m near u64::MAX; the declared count is only
        // ever used for cross-checks and clamped preallocation, never trusted with
        // memory. It must still fit in usize so the cross-check arithmetic is exact.
        if m > usize::MAX as u64 {
            return Err(GraphError::Parse(format!(
                "byte 16: declared edge count {m} does not fit in usize"
            )));
        }
        reader.n = n as usize;
        reader.declared_edges = m as usize;
        Ok(reader)
    }

    /// Number of vertices, from the header.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of edges the header declared.
    pub fn declared_edges(&self) -> usize {
        self.declared_edges
    }

    /// Number of edges yielded so far.
    pub fn edges_read(&self) -> usize {
        self.edges_read
    }

    /// `read_exact` with byte-offset error positions: truncation becomes a positioned
    /// parse error instead of a bare `UnexpectedEof`.
    fn read_exact_positioned(&mut self, buf: &mut [u8]) -> Result<()> {
        match self.src.read_exact(buf) {
            Ok(()) => {
                self.offset += buf.len() as u64;
                Ok(())
            }
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => Err(GraphError::Parse(
                format!("byte {}: unexpected end of input", self.offset),
            )),
            Err(e) => Err(GraphError::Io(format!("byte {}: {e}", self.offset))),
        }
    }

    /// Appends up to `max_edges` validated edges to `out`, returning how many were
    /// appended. `Ok(0)` is reserved for end-of-stream (the terminator block), at
    /// which point the total count has been checked against the header. `max_edges`
    /// must be positive, as with [`EdgeBatchReader::next_batch`].
    pub fn next_batch(&mut self, max_edges: usize, out: &mut Vec<Edge>) -> Result<usize> {
        assert!(max_edges > 0, "max_edges must be positive");
        if self.done {
            return Ok(0);
        }
        let mut appended = 0usize;
        while appended < max_edges {
            if self.remaining_in_block == 0 {
                let block_offset = self.offset;
                let mut count = [0u8; 4];
                self.read_exact_positioned(&mut count)?;
                let count = u32::from_le_bytes(count);
                if count == 0 {
                    self.done = true;
                    if self.edges_read != self.declared_edges {
                        return Err(GraphError::Parse(format!(
                            "byte {block_offset}: header declared {} edges but {} were read",
                            self.declared_edges, self.edges_read
                        )));
                    }
                    break;
                }
                // Catch a lying block count before reading it: the declared total is
                // the trusted ceiling (its own lie is caught at the terminator).
                if self.edges_read + count as usize > self.declared_edges {
                    return Err(GraphError::Parse(format!(
                        "byte {block_offset}: block of {count} edges overruns the declared \
                         count {} (already read {})",
                        self.declared_edges, self.edges_read
                    )));
                }
                self.remaining_in_block = count;
            }
            let record_offset = self.offset;
            let mut rec = [0u8; BIN_RECORD_BYTES];
            self.read_exact_positioned(&mut rec)?;
            let u = u32::from_le_bytes(rec[0..4].try_into().expect("4 bytes")) as usize;
            let v = u32::from_le_bytes(rec[4..8].try_into().expect("4 bytes")) as usize;
            let w = f64::from_bits(u64::from_le_bytes(rec[8..16].try_into().expect("8 bytes")));
            if let Err(e) = Graph::validate_edge(self.n, u, v, w) {
                return Err(GraphError::Parse(format!("byte {record_offset}: {e}")));
            }
            out.push(Edge { u, v, w });
            self.remaining_in_block -= 1;
            self.edges_read += 1;
            appended += 1;
        }
        Ok(appended)
    }
}

/// Writes a graph to a file in the binary format.
pub fn write_bin_file<P: AsRef<Path>>(g: &Graph, path: P) -> Result<()> {
    let mut w = BinEdgeWriter::create(path, g.n(), g.m())?;
    w.write_batch(g.edges())?;
    w.finish()?;
    sgs_obs::point!("io.write_bin", n = g.n(), m = g.m());
    Ok(())
}

/// Reads a graph from a file in the binary format, with the same clamped-prealloc
/// streaming discipline as [`read_file`].
pub fn read_bin_file<P: AsRef<Path>>(path: P) -> Result<Graph> {
    let mut reader = BinEdgeReader::open(path)?;
    let g = drain_batches(reader.n(), reader.declared_edges(), |max, out| {
        reader.next_batch(max, out)
    })?;
    sgs_obs::point!("io.read_bin", n = g.n(), m = g.m());
    Ok(g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn round_trip_preserves_graph() {
        let g = generators::erdos_renyi_weighted(40, 0.2, 0.5, 3.0, 5);
        let text = to_string(&g);
        let h = from_str(&text).unwrap();
        assert_eq!(g.n(), h.n());
        assert_eq!(g.m(), h.m());
        for (a, b) in g.edges().iter().zip(h.edges().iter()) {
            assert_eq!(a.u, b.u);
            assert_eq!(a.v, b.v);
            assert!((a.w - b.w).abs() < 1e-12 * a.w.abs().max(1.0));
        }
    }

    #[test]
    fn parses_comments_and_default_weight() {
        let text = "# a comment\n3 2\n0 1\n# another\n1 2 2.5\n";
        let g = from_str(text).unwrap();
        assert_eq!(g.n(), 3);
        assert_eq!(g.m(), 2);
        assert_eq!(g.edges()[0].w, 1.0);
        assert_eq!(g.edges()[1].w, 2.5);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(from_str("").is_err());
        assert!(from_str("3").is_err());
        assert!(from_str("3 1\n0 zebra 1.0").is_err());
        assert!(from_str("3 2\n0 1 1.0").is_err()); // wrong edge count
        assert!(from_str("2 1\n0 5 1.0").is_err()); // bad vertex
        assert!(from_str("2 1\n0 1 -3.0").is_err()); // bad weight
    }

    /// Hostile inputs must come back as positioned `Err`s, never as panics or
    /// pathological allocations. Every case here used to be (or could have been) a
    /// process-killer: headers declaring ~usize::MAX edges, overflowing integers,
    /// non-finite weights, and negative ids.
    #[test]
    fn hostile_input_errors_instead_of_panicking() {
        // A header declaring an absurd edge count must not preallocate it; the lie
        // is caught by the count cross-check with a clean error.
        let huge_m = format!("3 {}\n0 1 1.0\n", usize::MAX);
        let err = from_str(&huge_m).unwrap_err();
        assert!(err.to_string().contains("declared"), "{err}");
        let mut r = EdgeBatchReader::new(huge_m.as_bytes()).unwrap();
        assert!(r.next_batch(10, &mut Vec::new()).is_err());

        // Integer overflow in any numeric field is a positioned parse error.
        assert!(from_str("99999999999999999999999999 1\n0 1 1.0\n").is_err());
        let err = from_str("3 1\n0 99999999999999999999999999 1.0\n").unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");

        // Non-finite and non-positive weights are rejected wherever f64 parsing
        // would otherwise accept them.
        for w in ["inf", "-inf", "nan", "NaN", "0", "-0.0", "-1e308"] {
            let text = format!("3 1\n0 1 {w}\n");
            let err = from_str(&text).unwrap_err();
            assert!(err.to_string().contains("line 2"), "{w}: {err}");
        }

        // Negative vertex ids fail the unsigned parse, with position.
        let err = from_str("3 1\n-1 2 1.0\n").unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");

        // n = 0 with edges is an out-of-range error, not an index panic.
        assert!(from_str("0 1\n0 1 1.0\n").is_err());
    }

    #[test]
    fn file_round_trip() {
        let g = generators::grid2d(4, 4, 1.0);
        let dir = std::env::temp_dir().join("sgs_graph_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("grid.txt");
        std::fs::write(&path, to_string(&g)).unwrap();
        let h = read_file(&path).unwrap();
        assert_eq!(g.edges(), h.edges());
        assert!(read_file(dir.join("missing.txt")).is_err());
    }

    #[test]
    fn batch_reader_streams_the_whole_graph_in_chunks() {
        let g = generators::erdos_renyi_weighted(60, 0.2, 0.5, 3.0, 9);
        let text = to_string(&g);
        let mut reader = EdgeBatchReader::new(text.as_bytes()).unwrap();
        assert_eq!(reader.n(), g.n());
        assert_eq!(reader.declared_edges(), g.m());
        let mut edges = Vec::new();
        let mut batches = 0usize;
        loop {
            let got = reader.next_batch(7, &mut edges).unwrap();
            if got == 0 {
                break;
            }
            assert!(got <= 7);
            batches += 1;
        }
        assert_eq!(edges.len(), g.m());
        assert_eq!(reader.edges_read(), g.m());
        assert_eq!(batches, g.m().div_ceil(7));
        for (a, b) in g.edges().iter().zip(edges.iter()) {
            assert_eq!((a.u, a.v), (b.u, b.v));
            assert!((a.w - b.w).abs() < 1e-12 * a.w.abs().max(1.0));
        }
        // Exhausted readers keep returning 0 without erroring.
        assert_eq!(reader.next_batch(7, &mut edges).unwrap(), 0);
    }

    #[test]
    fn batch_reader_reports_error_line_positions() {
        // Line 1 comment, line 2 header, line 3 good edge, line 4 blank, line 5 bad.
        let text = "# header comment\n4 3\n0 1 1.0\n\n2 zebra 1.0\n3 0 1.0\n";
        let mut reader = EdgeBatchReader::new(text.as_bytes()).unwrap();
        let mut out = Vec::new();
        let err = reader.next_batch(10, &mut out).unwrap_err();
        assert!(
            err.to_string().contains("line 5"),
            "error should carry the 1-based line position: {err}"
        );
        assert_eq!(out.len(), 1, "edges before the bad line are still yielded");

        // Out-of-range vertex and self-loop positions are reported too.
        let bad_vertex = "2 1\n0 5 1.0\n";
        let mut r = EdgeBatchReader::new(bad_vertex.as_bytes()).unwrap();
        let err = r.next_batch(10, &mut Vec::new()).unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
        assert!(err.to_string().contains("out of range"), "{err}");

        let self_loop = "# c\n# c\n3 1\n1 1 1.0\n";
        let mut r = EdgeBatchReader::new(self_loop.as_bytes()).unwrap();
        let err = r.next_batch(10, &mut Vec::new()).unwrap_err();
        assert!(err.to_string().contains("line 4"), "{err}");
        assert!(err.to_string().contains("self-loop"), "{err}");

        // The edge-count mismatch is detected at end of stream.
        let short = "3 2\n0 1 1.0\n";
        let mut r = EdgeBatchReader::new(short.as_bytes()).unwrap();
        let err = r.next_batch(10, &mut Vec::new()).unwrap_err();
        assert!(err.to_string().contains("declared 2"), "{err}");

        // Bad headers fail at construction, with position.
        assert!(EdgeBatchReader::new("".as_bytes()).is_err());
        let err = EdgeBatchReader::new("# x\nnope 3\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
    }

    /// Serializes a graph through an in-memory `BinEdgeWriter`.
    fn to_bin_bytes(g: &Graph) -> Vec<u8> {
        let mut bytes = Vec::new();
        let mut w = BinEdgeWriter::new(&mut bytes, g.n(), g.m()).unwrap();
        w.write_batch(g.edges()).unwrap();
        w.finish().unwrap();
        bytes
    }

    #[test]
    fn bin_round_trip_is_bit_exact() {
        let g = generators::erdos_renyi_weighted(50, 0.15, 0.5, 3.0, 11);
        let bytes = to_bin_bytes(&g);
        let mut reader = BinEdgeReader::new(bytes.as_slice()).unwrap();
        assert_eq!(reader.n(), g.n());
        assert_eq!(reader.declared_edges(), g.m());
        let mut edges = Vec::new();
        loop {
            if reader.next_batch(7, &mut edges).unwrap() == 0 {
                break;
            }
        }
        assert_eq!(edges.len(), g.m());
        assert_eq!(reader.edges_read(), g.m());
        for (a, b) in g.edges().iter().zip(edges.iter()) {
            assert_eq!((a.u, a.v), (b.u, b.v));
            // The whole point of the binary format: exact bits, not round-tripped text.
            assert_eq!(a.w.to_bits(), b.w.to_bits());
        }
        // Exhausted readers keep returning 0 without erroring.
        assert_eq!(reader.next_batch(7, &mut edges).unwrap(), 0);
    }

    #[test]
    fn bin_file_round_trip() {
        let g = generators::grid2d(5, 4, 1.25);
        let dir = std::env::temp_dir().join("sgs_graph_bin_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("grid.sgsb");
        write_bin_file(&g, &path).unwrap();
        let h = read_bin_file(&path).unwrap();
        assert_eq!(g.edges(), h.edges());
        assert!(read_bin_file(dir.join("missing.sgsb")).is_err());
    }

    #[test]
    fn bin_reader_rejects_hostile_headers_with_positions() {
        let g = generators::grid2d(3, 3, 1.0);
        let good = to_bin_bytes(&g);

        // Bad magic.
        let mut bad = good.clone();
        bad[0] = b'X';
        let err = BinEdgeReader::new(bad.as_slice()).unwrap_err();
        assert!(err.to_string().contains("byte 0"), "{err}");

        // Unsupported version.
        let mut bad = good.clone();
        bad[4] = 0xFF;
        let err = BinEdgeReader::new(bad.as_slice()).unwrap_err();
        assert!(err.to_string().contains("byte 4"), "{err}");

        // Non-zero reserved field.
        let mut bad = good.clone();
        bad[6] = 1;
        let err = BinEdgeReader::new(bad.as_slice()).unwrap_err();
        assert!(err.to_string().contains("byte 6"), "{err}");

        // n too large for u32 ids.
        let mut bad = good.clone();
        bad[8..16].copy_from_slice(&(u64::MAX).to_le_bytes());
        let err = BinEdgeReader::new(bad.as_slice()).unwrap_err();
        assert!(err.to_string().contains("byte 8"), "{err}");

        // A header declaring an absurd edge count must not preallocate it: the reader
        // constructs fine (m is just a cross-check ceiling) and the drain errors out
        // at the terminator with a positioned count mismatch.
        let mut lying = good.clone();
        lying[16..24].copy_from_slice(&(1u64 << 40).to_le_bytes());
        let mut r = BinEdgeReader::new(lying.as_slice()).unwrap();
        let mut out = Vec::new();
        let err = loop {
            match r.next_batch(64, &mut out) {
                Ok(0) => panic!("lying header must not drain cleanly"),
                Ok(_) => continue,
                Err(e) => break e,
            }
        };
        assert!(err.to_string().contains("declared"), "{err}");

        // Truncated header.
        let err = BinEdgeReader::new(&good[..10]).unwrap_err();
        assert!(err.to_string().contains("end of input"), "{err}");
    }

    #[test]
    fn bin_reader_positions_errors_in_blocks_and_records() {
        let g = generators::grid2d(3, 3, 1.0);
        let good = to_bin_bytes(&g);

        // Truncation anywhere inside the body is a positioned error, never a panic.
        for cut in (BIN_HEADER_BYTES as usize)..good.len() - 1 {
            let mut r = BinEdgeReader::new(&good[..cut]).unwrap();
            let mut out = Vec::new();
            let err = loop {
                match r.next_batch(8, &mut out) {
                    Ok(0) => panic!("truncated input at {cut} drained cleanly"),
                    Ok(_) => continue,
                    Err(e) => break e,
                }
            };
            assert!(err.to_string().contains("byte"), "cut {cut}: {err}");
        }

        // A block count overrunning the declared total is caught before any record of
        // the block is read.
        let mut bad = good.clone();
        let block_at = BIN_HEADER_BYTES as usize;
        bad[block_at..block_at + 4].copy_from_slice(&(g.m() as u32 + 7).to_le_bytes());
        let mut r = BinEdgeReader::new(bad.as_slice()).unwrap();
        let err = r.next_batch(64, &mut Vec::new()).unwrap_err();
        assert!(err.to_string().contains("overruns"), "{err}");

        // A corrupted record (self-loop) errors with the record's byte offset.
        let mut bad = good.clone();
        let first_record = block_at + 4;
        let u = u32::from_le_bytes(bad[first_record..first_record + 4].try_into().unwrap());
        bad[first_record + 4..first_record + 8].copy_from_slice(&u.to_le_bytes());
        let mut r = BinEdgeReader::new(bad.as_slice()).unwrap();
        let err = r.next_batch(64, &mut Vec::new()).unwrap_err();
        assert!(err.to_string().contains("self-loop"), "{err}");
        assert!(
            err.to_string().contains(&format!("byte {first_record}")),
            "{err}"
        );

        // A corrupted weight (negative) is rejected by the same validation gate as
        // the text parser.
        let mut bad = good;
        bad[first_record + 8..first_record + 16]
            .copy_from_slice(&(-1.0f64).to_bits().to_le_bytes());
        let mut r = BinEdgeReader::new(bad.as_slice()).unwrap();
        let err = r.next_batch(64, &mut Vec::new()).unwrap_err();
        assert!(err.to_string().contains("not strictly positive"), "{err}");
    }

    #[test]
    fn bin_writer_enforces_declared_count_and_id_width() {
        // Writing fewer edges than declared fails at finish.
        let mut bytes = Vec::new();
        let w = BinEdgeWriter::new(&mut bytes, 4, 3).unwrap();
        let err = w.finish().unwrap_err();
        assert!(err.to_string().contains("declared 3"), "{err}");

        // Writing more than declared fails at write time.
        let mut bytes = Vec::new();
        let mut w = BinEdgeWriter::new(&mut bytes, 4, 1).unwrap();
        let edges = [Edge { u: 0, v: 1, w: 1.0 }, Edge { u: 1, v: 2, w: 1.0 }];
        assert!(w.write_batch(&edges).is_err());

        // Invalid edges are rejected before any bytes of the batch are written.
        let mut bytes = Vec::new();
        let mut w = BinEdgeWriter::new(&mut bytes, 4, 1).unwrap();
        assert!(w.write_batch(&[Edge { u: 0, v: 9, w: 1.0 }]).is_err());

        // n beyond u32 ids is refused up front.
        assert!(BinEdgeWriter::new(Vec::new(), u32::MAX as usize + 1, 0).is_err());
    }
}
