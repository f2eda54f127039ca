//! The wire format, and the one statement of every message's size.
//!
//! A payload's encoder writes into a [`Sink`]. Into a `Vec<u8>` it
//! produces the bytes the TCP backend puts on a socket; into a [`Count`]
//! it produces only their number. [`wire_size`] is that count, so the
//! meter the router keeps, the TCP frame header and every engine's
//! pricing all read the size off the encoder itself: **the encoder is
//! the size**. There is no second, hand-written size formula to drift
//! from the bytes. Counting is O(fields), not O(bytes): a [`Count`] adds
//! `8·len` for a whole `f64`/`u64` slice in one step.
//!
//! # Encoding rules
//!
//! * `u64` / `f64`: 8 bytes little-endian.
//! * `usize`: **pinned to `u64`** — 8 bytes little-endian on every host.
//!   `usize` is platform-width; encoding it natively would make 32-bit
//!   and 64-bit hosts meter different byte totals for the same run.
//! * `bool` and enum tags: 1 byte.
//! * `String`: 8-byte length + UTF-8 bytes.
//! * `Vec<T>`: 8-byte element count + elements.
//! * Tuples/structs: fields concatenated, no padding.
//!
//! # Envelope header (the metered `ENVELOPE_BYTES`)
//!
//! The 32 envelope bytes the meter charges per message are a real header
//! here: `from: u64 | to: u64 | flags: u64 | body_len: u64`. `flags` is
//! the frame's [`FrameKind`]: low byte the delivery plane
//! (data/control/unmetered), byte 1 protocol message (0), connection
//! hello (1) or telemetry (2). The 4-byte
//! physical length prefix used on the stream (see [`write_frame`]) is
//! *transport* framing — the analogue of link-layer overhead the paper's
//! byte accounting also ignores — and is not metered.

use std::cell::RefCell;
use std::io::{self, BufRead, BufReader, Read, Write};

use columnsgd_data::block::Block;
use columnsgd_data::Workset;
use columnsgd_linalg::{CsrMatrix, DenseVector, SparseVector};

use crate::node::NodeId;
use crate::telemetry::{
    CommFault, CommRecord, Event, FaultRecord, KernelRecord, NodeRef, Phase, Plane, ProfRecord,
    ProfScope, SuperstepSpan,
};

/// Envelope overhead charged per message (sender, receiver, tag, length).
pub const ENVELOPE_BYTES: usize = 32;

/// `(index, count)` of `$m` among the listed variant patterns, in list
/// order. The patterns also form an exhaustive `match` with no wildcard
/// arm, so a variant missing from the list fails to compile: codec tests
/// use it to prove that their sample lists cover every wire variant.
#[macro_export]
macro_rules! variant_index {
    ($m:expr; $($p:pat),+ $(,)?) => {{
        let m = &$m;
        match m {
            $($p => {})+
        }
        let (mut index, mut count) = (0usize, 0usize);
        $(
            if matches!(m, $p) {
                index = count;
            }
            count += 1;
        )+
        (index, count)
    }};
}

/// Errors surfaced while encoding or decoding frames.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended before the value was complete.
    Truncated {
        /// What was being decoded.
        what: &'static str,
    },
    /// The bytes decoded but violate a protocol invariant.
    Malformed(String),
    /// The value has no encoding (e.g. a parameter-block layout outside
    /// the model taxonomy).
    Unsupported(String),
    /// A frame's length disagrees with its header or with the size of
    /// the payload it decodes to.
    SizeMismatch {
        /// `wire_size() + ENVELOPE_BYTES`.
        expected: usize,
        /// Actual frame length.
        actual: usize,
    },
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated { what } => write!(f, "frame truncated while decoding {what}"),
            CodecError::Malformed(m) => write!(f, "malformed frame: {m}"),
            CodecError::Unsupported(m) => write!(f, "unencodable value: {m}"),
            CodecError::SizeMismatch { expected, actual } => write!(
                f,
                "frame length {actual} disagrees with wire_size + envelope = {expected}"
            ),
        }
    }
}

impl std::error::Error for CodecError {}

// ---------------------------------------------------------------------------
// Sinks
// ---------------------------------------------------------------------------

/// Where an encoder writes: a byte buffer (`Vec<u8>`), or a [`Count`] of
/// the bytes it would write. Every encoder is generic over it, so the
/// two cannot disagree.
pub trait Sink {
    /// One byte.
    fn put_u8(&mut self, x: u8);
    /// A `u32` (4 bytes LE).
    fn put_u32(&mut self, x: u32);
    /// A `u64` (8 bytes LE).
    fn put_u64(&mut self, x: u64);
    /// An `f64` (8 bytes LE, bit pattern preserved — NaNs included).
    fn put_f64(&mut self, x: f64);
    /// Raw bytes, no length header.
    fn put_bytes(&mut self, b: &[u8]);
    /// `f64`s back to back, no length header.
    fn put_f64_slice(&mut self, xs: &[f64]);
    /// `u64`s back to back, no length header.
    fn put_u64_slice(&mut self, xs: &[u64]);

    /// A `usize` pinned to the `u64` encoding: 8 bytes on every host.
    #[inline]
    fn put_usize(&mut self, x: usize) {
        self.put_u64(x as u64);
    }
    /// A `bool` as one byte (0/1).
    #[inline]
    fn put_bool(&mut self, x: bool) {
        self.put_u8(u8::from(x));
    }
    /// A string: 8-byte length + UTF-8 bytes.
    fn put_str(&mut self, s: &str) {
        self.put_usize(s.len());
        self.put_bytes(s.as_bytes());
    }
    /// An `f64` slice: 8-byte count + values.
    fn put_f64s(&mut self, xs: &[f64]) {
        self.put_usize(xs.len());
        self.put_f64_slice(xs);
    }
    /// A `u64` slice: 8-byte count + values.
    fn put_u64s(&mut self, xs: &[u64]) {
        self.put_usize(xs.len());
        self.put_u64_slice(xs);
    }
}

impl Sink for Vec<u8> {
    #[inline]
    fn put_u8(&mut self, x: u8) {
        self.push(x);
    }
    #[inline]
    fn put_u32(&mut self, x: u32) {
        self.extend_from_slice(&x.to_le_bytes());
    }
    #[inline]
    fn put_u64(&mut self, x: u64) {
        self.extend_from_slice(&x.to_le_bytes());
    }
    #[inline]
    fn put_f64(&mut self, x: f64) {
        self.extend_from_slice(&x.to_le_bytes());
    }
    fn put_bytes(&mut self, b: &[u8]) {
        self.extend_from_slice(b);
    }
    fn put_f64_slice(&mut self, xs: &[f64]) {
        extend_le(self, xs, f64::to_le_bytes);
    }
    fn put_u64_slice(&mut self, xs: &[u64]) {
        extend_le(self, xs, u64::to_le_bytes);
    }
}

/// Appends `xs` little-endian with one `reserve`, then one bulk
/// `extend_from_slice` per 4 KiB staged on the stack. A `put_f64` per
/// value would pay a capacity check and an 8-byte copy each, about twice
/// the time on an 8 MB model.
fn extend_le<T: Copy>(out: &mut Vec<u8>, xs: &[T], le: impl Fn(T) -> [u8; 8]) {
    const RUN: usize = 512;
    out.reserve(8 * xs.len());
    let mut stage = [0u8; 8 * RUN];
    for run in xs.chunks(RUN) {
        for (bytes, &x) in stage.chunks_exact_mut(8).zip(run) {
            bytes.copy_from_slice(&le(x));
        }
        out.extend_from_slice(&stage[..8 * run.len()]);
    }
}

/// A [`Sink`] that keeps only the number of bytes written.
#[derive(Debug, Default)]
pub struct Count(pub usize);

impl Sink for Count {
    #[inline]
    fn put_u8(&mut self, _: u8) {
        self.0 += 1;
    }
    #[inline]
    fn put_u32(&mut self, _: u32) {
        self.0 += 4;
    }
    #[inline]
    fn put_u64(&mut self, _: u64) {
        self.0 += 8;
    }
    #[inline]
    fn put_f64(&mut self, _: f64) {
        self.0 += 8;
    }
    #[inline]
    fn put_bytes(&mut self, b: &[u8]) {
        self.0 += b.len();
    }
    #[inline]
    fn put_f64_slice(&mut self, xs: &[f64]) {
        self.0 += 8 * xs.len();
    }
    #[inline]
    fn put_u64_slice(&mut self, xs: &[u64]) {
        self.0 += 8 * xs.len();
    }
}

/// The number of body bytes `m` occupies on the wire: its encoder run
/// into a [`Count`]. Fails exactly when encoding `m` fails.
pub fn wire_size<M: WireCodec>(m: &M) -> Result<usize, CodecError> {
    let mut n = Count::default();
    m.encode_body(&mut n)?;
    Ok(n.0)
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// A cursor over a received frame body: a byte slice, or the next
/// `len` bytes of a buffered stream (see [`decode_body_from`]). Either
/// way no read goes past the body: every value claims its bytes from
/// [`WireReader::remaining`] first, and fails as truncated if they are
/// not there.
pub struct WireReader<'a> {
    src: Source<'a>,
    /// Body bytes not yet consumed.
    remaining: usize,
}

/// Where a [`WireReader`]'s bytes come from.
enum Source<'a> {
    /// The unconsumed rest of a slice (exactly `remaining` long).
    Slice(&'a [u8]),
    /// A stream positioned inside the body.
    Stream(&'a mut dyn BufRead),
}

impl std::fmt::Debug for WireReader<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let src = match self.src {
            Source::Slice(_) => "slice",
            Source::Stream(_) => "stream",
        };
        f.debug_struct("WireReader")
            .field("src", &src)
            .field("remaining", &self.remaining)
            .finish()
    }
}

impl<'a> WireReader<'a> {
    /// Wraps a byte slice.
    pub fn new(buf: &'a [u8]) -> Self {
        Self {
            src: Source::Slice(buf),
            remaining: buf.len(),
        }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.remaining
    }

    /// An empty vector with room for some of `len` announced elements,
    /// each of which takes at least one byte on the wire: never more than
    /// the bytes left, and off a stream, whose bytes left are announced
    /// but not yet in hand, never more than one window's worth. So a
    /// length header alone buys no large allocation.
    pub fn vec_for<T>(&self, len: usize) -> Vec<T> {
        let room = match self.src {
            Source::Slice(_) => self.remaining,
            Source::Stream(_) => self.remaining.min(WINDOW / size_of::<T>().max(1)),
        };
        Vec::with_capacity(len.min(room))
    }

    /// Claims `n` of the remaining body bytes, or fails as truncated.
    fn claim(&mut self, n: usize, what: &'static str) -> Result<(), CodecError> {
        if self.remaining < n {
            return Err(CodecError::Truncated { what });
        }
        self.remaining -= n;
        Ok(())
    }

    /// The next `N` bytes.
    fn array<const N: usize>(&mut self, what: &'static str) -> Result<[u8; N], CodecError> {
        self.claim(N, what)?;
        let mut out = [0u8; N];
        match &mut self.src {
            Source::Slice(buf) => {
                let (head, rest) = buf.split_at(N);
                out.copy_from_slice(head);
                *buf = rest;
            }
            Source::Stream(r) => r
                .read_exact(&mut out)
                .map_err(|_| CodecError::Truncated { what })?,
        }
        Ok(out)
    }

    /// The next `n` bytes, copied out.
    fn bytes(&mut self, n: usize, what: &'static str) -> Result<Vec<u8>, CodecError> {
        self.claim(n, what)?;
        match &mut self.src {
            Source::Slice(buf) => {
                let (head, rest) = buf.split_at(n);
                *buf = rest;
                Ok(head.to_vec())
            }
            Source::Stream(r) => {
                let mut out = Vec::new();
                read_to_len(r, n, &mut out).map_err(|_| CodecError::Truncated { what })?;
                Ok(out)
            }
        }
    }

    /// The next `len` 8-byte words, each converted by `from_le`. The
    /// allocation is claimed against the body first, so it never exceeds
    /// the bytes the frame announced.
    fn words<T>(
        &mut self,
        len: usize,
        what: &'static str,
        from_le: impl Fn([u8; 8]) -> T,
    ) -> Result<Vec<T>, CodecError> {
        self.claim(
            len.checked_mul(8).ok_or(CodecError::Truncated { what })?,
            what,
        )?;
        match &mut self.src {
            Source::Slice(buf) => {
                let (raw, rest) = buf.split_at(8 * len);
                *buf = rest;
                let (chunks, _) = raw.as_chunks::<8>();
                Ok(chunks.iter().map(|&c| from_le(c)).collect())
            }
            Source::Stream(r) => {
                read_words(&mut **r, len, from_le).map_err(|_| CodecError::Truncated { what })
            }
        }
    }

    /// Reads a `u64`.
    pub fn u64(&mut self, what: &'static str) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.array(what)?))
    }

    /// Reads a `usize` from its pinned 8-byte `u64` encoding.
    pub fn usize(&mut self, what: &'static str) -> Result<usize, CodecError> {
        let x = self.u64(what)?;
        usize::try_from(x)
            .map_err(|_| CodecError::Malformed(format!("{what}: {x} overflows usize")))
    }

    /// Reads an `f64` (bit pattern preserved).
    pub fn f64(&mut self, what: &'static str) -> Result<f64, CodecError> {
        Ok(f64::from_le_bytes(self.array(what)?))
    }

    /// Reads a `u32`.
    pub fn u32(&mut self, what: &'static str) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.array(what)?))
    }

    /// Reads one byte.
    pub fn u8(&mut self, what: &'static str) -> Result<u8, CodecError> {
        Ok(self.array::<1>(what)?[0])
    }

    /// Reads a `bool` (rejecting anything but 0/1).
    pub fn bool(&mut self, what: &'static str) -> Result<bool, CodecError> {
        match self.u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(CodecError::Malformed(format!("{what}: bad bool byte {b}"))),
        }
    }

    /// Reads a string (8-byte length + UTF-8).
    pub fn str(&mut self, what: &'static str) -> Result<String, CodecError> {
        let len = self.usize(what)?;
        String::from_utf8(self.bytes(len, what)?)
            .map_err(|_| CodecError::Malformed(format!("{what}: invalid UTF-8")))
    }

    /// Reads an `f64` vector (8-byte count + values).
    pub fn f64s(&mut self, what: &'static str) -> Result<Vec<f64>, CodecError> {
        let len = self.usize(what)?;
        self.f64s_exact(len, what)
    }

    /// Reads exactly `len` `f64` values (no count header).
    pub fn f64s_exact(&mut self, len: usize, what: &'static str) -> Result<Vec<f64>, CodecError> {
        self.words(len, what, f64::from_le_bytes)
    }

    /// Reads a `u64` vector (8-byte count + values).
    pub fn u64s(&mut self, what: &'static str) -> Result<Vec<u64>, CodecError> {
        let len = self.usize(what)?;
        self.u64s_exact(len, what)
    }

    /// Reads exactly `len` `u64` values (no count header).
    pub fn u64s_exact(&mut self, len: usize, what: &'static str) -> Result<Vec<u64>, CodecError> {
        self.words(len, what, u64::from_le_bytes)
    }

    /// Fails unless every byte was consumed — a decoded message shorter
    /// than its frame means the frame is malformed.
    pub fn finish(self, what: &'static str) -> Result<(), CodecError> {
        if self.remaining != 0 {
            return Err(CodecError::Malformed(format!(
                "{what}: {} trailing bytes after decode",
                self.remaining
            )));
        }
        Ok(())
    }
}

/// Reads `len` 8-byte words straight out of `r`'s buffer, converting as
/// they arrive: the bytes are copied once, from the stream's buffer into
/// the values. A word split across two refills is read on its own.
///
/// `len` is only announced, so the vector starts at one window and grows
/// [`GROWTH`]-fold each time it fills: never more than that multiple of
/// the words received, and two reallocations for an 8 MB model.
fn read_words<T>(
    r: &mut dyn BufRead,
    len: usize,
    from_le: impl Fn([u8; 8]) -> T,
) -> io::Result<Vec<T>> {
    let mut out = Vec::with_capacity(len.min(WINDOW / 8));
    while out.len() < len {
        if out.len() == out.capacity() {
            out.reserve_exact((GROWTH * out.len()).min(len) - out.len());
        }
        let (chunks, _) = r.fill_buf()?.as_chunks::<8>();
        let n = chunks.len().min(out.capacity() - out.len());
        if n == 0 {
            // Fewer than 8 bytes buffered, or end of stream.
            let mut word = [0u8; 8];
            r.read_exact(&mut word)?;
            out.push(from_le(word));
            continue;
        }
        out.extend(chunks[..n].iter().map(|&c| from_le(c)));
        r.consume(8 * n);
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// The codec trait
// ---------------------------------------------------------------------------

/// A message payload's wire format: one encoder, which also states its
/// size (see [`wire_size`]).
///
/// Implementations must uphold `decode_body(encode_body(x)) == x`
/// (bit-for-bit on floats).
pub trait WireCodec: Sized {
    /// Writes this value's wire encoding to `out`.
    fn encode_body<S: Sink>(&self, out: &mut S) -> Result<(), CodecError>;

    /// Decodes one value from the reader.
    fn decode_body(r: &mut WireReader<'_>) -> Result<Self, CodecError>;

    /// Stable message-kind label for telemetry (`CommRecord::kind`).
    /// Protocol enums override this with their variant name; plain
    /// payloads fall back to a generic tag.
    fn kind(&self) -> &'static str {
        "msg"
    }
}

impl WireCodec for u64 {
    fn encode_body<S: Sink>(&self, out: &mut S) -> Result<(), CodecError> {
        out.put_u64(*self);
        Ok(())
    }
    fn decode_body(r: &mut WireReader<'_>) -> Result<Self, CodecError> {
        r.u64("u64")
    }
}

impl WireCodec for f64 {
    fn encode_body<S: Sink>(&self, out: &mut S) -> Result<(), CodecError> {
        out.put_f64(*self);
        Ok(())
    }
    fn decode_body(r: &mut WireReader<'_>) -> Result<Self, CodecError> {
        r.f64("f64")
    }
}

// `usize` travels as `u64`: 8 bytes even where `size_of::<usize>() == 4`,
// so the metered sizes are a property of the protocol, not of the host.
impl WireCodec for usize {
    fn encode_body<S: Sink>(&self, out: &mut S) -> Result<(), CodecError> {
        out.put_usize(*self);
        Ok(())
    }
    fn decode_body(r: &mut WireReader<'_>) -> Result<Self, CodecError> {
        r.usize("usize")
    }
}

impl WireCodec for String {
    fn encode_body<S: Sink>(&self, out: &mut S) -> Result<(), CodecError> {
        out.put_str(self);
        Ok(())
    }
    fn decode_body(r: &mut WireReader<'_>) -> Result<Self, CodecError> {
        r.str("String")
    }
}

impl<T: WireCodec> WireCodec for Vec<T> {
    fn encode_body<S: Sink>(&self, out: &mut S) -> Result<(), CodecError> {
        out.put_usize(self.len());
        for x in self {
            x.encode_body(out)?;
        }
        Ok(())
    }
    fn decode_body(r: &mut WireReader<'_>) -> Result<Self, CodecError> {
        let len = r.usize("Vec length")?;
        let mut v = r.vec_for(len);
        for _ in 0..len {
            v.push(T::decode_body(r)?);
        }
        Ok(v)
    }
}

impl<A: WireCodec, B: WireCodec> WireCodec for (A, B) {
    fn encode_body<S: Sink>(&self, out: &mut S) -> Result<(), CodecError> {
        self.0.encode_body(out)?;
        self.1.encode_body(out)
    }
    fn decode_body(r: &mut WireReader<'_>) -> Result<Self, CodecError> {
        Ok((A::decode_body(r)?, B::decode_body(r)?))
    }
}

impl WireCodec for SparseVector {
    fn encode_body<S: Sink>(&self, out: &mut S) -> Result<(), CodecError> {
        // nnz header, then the indices, then the values.
        out.put_usize(self.nnz());
        out.put_u64_slice(self.indices());
        out.put_f64_slice(self.values());
        Ok(())
    }
    fn decode_body(r: &mut WireReader<'_>) -> Result<Self, CodecError> {
        let nnz = r.usize("SparseVector nnz")?;
        let indices = r.u64s_exact(nnz, "SparseVector indices")?;
        let values = r.f64s_exact(nnz, "SparseVector values")?;
        if !indices.windows(2).all(|w| w[0] < w[1]) {
            return Err(CodecError::Malformed(
                "SparseVector indices not strictly sorted".into(),
            ));
        }
        Ok(SparseVector::from_sorted(indices, values))
    }
}

impl WireCodec for DenseVector {
    fn encode_body<S: Sink>(&self, out: &mut S) -> Result<(), CodecError> {
        out.put_f64s(self.as_slice());
        Ok(())
    }
    fn decode_body(r: &mut WireReader<'_>) -> Result<Self, CodecError> {
        Ok(DenseVector::from_vec(r.f64s("DenseVector")?))
    }
}

impl WireCodec for CsrMatrix {
    fn encode_body<S: Sink>(&self, out: &mut S) -> Result<(), CodecError> {
        // A (nrows, nnz) header, the labels, the full indptr (nrows + 1
        // offsets, the last one derivable but shipped), the indices and
        // the values — Figure 5's workset layout. Whole-slice puts keep
        // counting a load-phase payload O(rows), not O(nnz).
        let nrows = self.nrows();
        out.put_usize(nrows);
        out.put_usize(self.nnz());
        out.put_f64_slice(self.labels());
        for &offset in self.indptr() {
            out.put_usize(offset);
        }
        out.put_u64_slice(self.indices());
        out.put_f64_slice(self.values());
        Ok(())
    }
    fn decode_body(r: &mut WireReader<'_>) -> Result<Self, CodecError> {
        let nrows = r.usize("Csr nrows")?;
        let nnz = r.usize("Csr nnz")?;
        let labels = r.f64s_exact(nrows, "Csr labels")?;
        let indptr = r.u64s_exact(nrows + 1, "Csr indptr")?;
        let indices = r.u64s_exact(nnz, "Csr indices")?;
        let values = r.f64s_exact(nnz, "Csr values")?;
        if indptr.first() != Some(&0) || indptr.last() != Some(&(nnz as u64)) {
            return Err(CodecError::Malformed("Csr indptr bounds".into()));
        }
        let mut m = CsrMatrix::new();
        m.reserve(nrows, nnz);
        for row in 0..nrows {
            let (lo, hi) = (indptr[row] as usize, indptr[row + 1] as usize);
            if lo > hi || hi > nnz {
                return Err(CodecError::Malformed("Csr indptr not monotone".into()));
            }
            if !indices[lo..hi].windows(2).all(|w| w[0] < w[1]) {
                return Err(CodecError::Malformed(
                    "Csr row indices not strictly sorted".into(),
                ));
            }
            m.push_raw_row(labels[row], &indices[lo..hi], &values[lo..hi]);
        }
        Ok(m)
    }
}

impl WireCodec for Block {
    fn encode_body<S: Sink>(&self, out: &mut S) -> Result<(), CodecError> {
        out.put_u64(self.id());
        self.csr().encode_body(out)
    }
    fn decode_body(r: &mut WireReader<'_>) -> Result<Self, CodecError> {
        let id = r.u64("Block id")?;
        Ok(Block::from_csr(id, CsrMatrix::decode_body(r)?))
    }
}

impl WireCodec for Workset {
    fn encode_body<S: Sink>(&self, out: &mut S) -> Result<(), CodecError> {
        out.put_u64(self.block_id);
        self.data.encode_body(out)
    }
    fn decode_body(r: &mut WireReader<'_>) -> Result<Self, CodecError> {
        Ok(Workset {
            block_id: r.u64("Workset block id")?,
            data: CsrMatrix::decode_body(r)?,
        })
    }
}

// ---------------------------------------------------------------------------
// Node ids and the envelope header
// ---------------------------------------------------------------------------

/// Stable `u64` encoding of a node id (shared with the chaos link hash:
/// master = 0, workers tagged 1, servers tagged 2).
pub fn encode_node(n: NodeId) -> u64 {
    match n {
        NodeId::Master => 0,
        NodeId::Worker(k) => {
            debug_assert!((k as u64) < (1 << 32), "worker index overflows encoding");
            1 << 32 | k as u64
        }
        NodeId::Server(p) => {
            debug_assert!((p as u64) < (1 << 32), "server index overflows encoding");
            2 << 32 | p as u64
        }
    }
}

/// Inverse of [`encode_node`].
pub fn decode_node(x: u64) -> Result<NodeId, CodecError> {
    let idx = (x & 0xFFFF_FFFF) as usize;
    match x >> 32 {
        0 if idx == 0 => Ok(NodeId::Master),
        1 => Ok(NodeId::Worker(idx)),
        2 => Ok(NodeId::Server(idx)),
        _ => Err(CodecError::Malformed(format!("bad node encoding {x:#x}"))),
    }
}

/// What a frame carries, from its header flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// A protocol message on the given delivery plane.
    Message(Plane),
    /// The connection hello a worker process sends after dialing in.
    Hello,
    /// A telemetry-plane frame (clock alignment or an event batch).
    /// Never admitted through `Router::ingress`, so it advances no
    /// data-plane meter — trace shipping is free by construction.
    Telemetry,
}

/// Decoded 32-byte envelope header.
#[derive(Debug, Clone, Copy)]
pub struct EnvelopeHeader {
    /// Sending node.
    pub from: NodeId,
    /// Receiving node.
    pub to: NodeId,
    /// Message vs. hello, and the plane.
    pub kind: FrameKind,
    /// Payload length in bytes ([`wire_size`] of the payload).
    pub body_len: usize,
}

fn plane_byte(p: Plane) -> u8 {
    match p {
        Plane::Data => 0,
        Plane::Control => 1,
        // `Virtual` never crosses a socket (it is master-side logical
        // metering), so byte 2 is reused for the unmetered bootstrap path.
        Plane::Virtual => 2,
    }
}

fn plane_from_byte(b: u8) -> Result<Plane, CodecError> {
    match b {
        0 => Ok(Plane::Data),
        1 => Ok(Plane::Control),
        2 => Ok(Plane::Virtual),
        _ => Err(CodecError::Malformed(format!("bad plane byte {b}"))),
    }
}

/// Encodes a full message envelope (32-byte header + body) for
/// `payload`: exactly `wire_size(payload) + ENVELOPE_BYTES` bytes.
pub fn encode_envelope<M: WireCodec>(
    from: NodeId,
    to: NodeId,
    payload: &M,
    plane: Plane,
) -> Result<Vec<u8>, CodecError> {
    let body_len = wire_size(payload)?;
    let _prof = ProfScope::enter("codec_encode");
    let mut out = Vec::with_capacity(body_len + ENVELOPE_BYTES);
    put_header(&mut out, from, to, FrameKind::Message(plane), body_len);
    payload.encode_body(&mut out)?;
    Ok(out)
}

/// The 32-byte envelope header of a frame.
fn put_header<S: Sink>(out: &mut S, from: NodeId, to: NodeId, kind: FrameKind, body_len: usize) {
    out.put_u64(encode_node(from));
    out.put_u64(encode_node(to));
    out.put_u64(match kind {
        FrameKind::Message(plane) => u64::from(plane_byte(plane)),
        FrameKind::Hello => 1 << 8,
        // The plane byte says Virtual: telemetry touches no metered plane.
        FrameKind::Telemetry => 2 << 8 | u64::from(plane_byte(Plane::Virtual)),
    });
    out.put_usize(body_len);
}

/// Encodes the hello frame a worker process sends right after connecting
/// (header-only; `ENVELOPE_BYTES` long, unmetered control handshake).
pub fn encode_hello(worker: NodeId) -> Vec<u8> {
    let mut out = Vec::with_capacity(ENVELOPE_BYTES);
    put_header(&mut out, worker, NodeId::Master, FrameKind::Hello, 0);
    out
}

/// Decodes the 32-byte envelope header off the front of `frame` and
/// verifies the frame length invariant (`frame.len() == body_len +
/// ENVELOPE_BYTES`).
pub fn decode_envelope_header(frame: &[u8]) -> Result<EnvelopeHeader, CodecError> {
    parse_header(frame, frame.len())
}

/// Decodes the envelope header at the front of `bytes`, for a frame
/// `frame_len` bytes long (the slice's own length, or a stream's length
/// prefix).
fn parse_header(bytes: &[u8], frame_len: usize) -> Result<EnvelopeHeader, CodecError> {
    let mut r = WireReader::new(bytes);
    let from = decode_node(r.u64("header.from")?)?;
    let to = decode_node(r.u64("header.to")?)?;
    let flags = r.u64("header.flags")?;
    let body_len = r.usize("header.body_len")?;
    // The length comes off the wire: a peer can send any value.
    let expected = body_len.checked_add(ENVELOPE_BYTES).ok_or_else(|| {
        CodecError::Malformed(format!(
            "header.body_len: {body_len} overflows the frame size"
        ))
    })?;
    if frame_len != expected {
        return Err(CodecError::SizeMismatch {
            expected,
            actual: frame_len,
        });
    }
    let kind = match (flags >> 8) & 0xFF {
        0 => FrameKind::Message(plane_from_byte((flags & 0xFF) as u8)?),
        1 => FrameKind::Hello,
        2 => FrameKind::Telemetry,
        k => return Err(CodecError::Malformed(format!("bad frame-kind byte {k}"))),
    };
    Ok(EnvelopeHeader {
        from,
        to,
        kind,
        body_len,
    })
}

/// Decodes the body of a whole frame (everything after the header),
/// checking the frame is exactly as long as the decoded payload's
/// [`wire_size`] plus the envelope: the one size check of a received
/// frame. Unlike the streamed [`decode_body_from`], which every protocol
/// message takes, it opens no `codec_decode` profiler frame: the TCP
/// backend decodes only telemetry frames whole, and those carry the
/// profile rather than appear in it.
pub fn decode_body_checked<M: WireCodec>(frame: &[u8]) -> Result<M, CodecError> {
    let what = "envelope header";
    let mut r = WireReader::new(
        frame
            .get(ENVELOPE_BYTES..)
            .ok_or(CodecError::Truncated { what })?,
    );
    let payload = M::decode_body(&mut r)?;
    r.finish(payload.kind())?;
    sized(payload, frame.len())
}

/// [`decode_body_checked`] for a body that is still on its way: decodes
/// the next `body_len` bytes of `r` as they arrive, with the same checks
/// (every byte consumed, `wire_size` equal to `body_len`) and the same
/// allocation bound (nothing larger than the bytes `body_len` announced).
/// On an error the stream is left somewhere inside the body.
pub fn decode_body_from<M: WireCodec, R: BufRead>(
    r: &mut R,
    body_len: usize,
) -> Result<M, CodecError> {
    let _prof = ProfScope::enter("codec_decode");
    let mut reader = WireReader {
        src: Source::Stream(r),
        remaining: body_len,
    };
    let payload = M::decode_body(&mut reader)?;
    reader.finish(payload.kind())?;
    sized(payload, body_len.saturating_add(ENVELOPE_BYTES))
}

/// `payload`, if its [`wire_size`] plus the envelope is `frame_len`.
fn sized<M: WireCodec>(payload: M, frame_len: usize) -> Result<M, CodecError> {
    let expected = wire_size(&payload)? + ENVELOPE_BYTES;
    if frame_len != expected {
        return Err(CodecError::SizeMismatch {
            expected,
            actual: frame_len,
        });
    }
    Ok(payload)
}

// ---------------------------------------------------------------------------
// Telemetry-plane frames
// ---------------------------------------------------------------------------
//
// A telemetry frame is an ordinary envelope of a [`TelemetryPayload`] with
// frame kind [`FrameKind::Telemetry`]: it is written by the same
// [`write_envelope_to`] and decoded by the same [`decode_body_checked`] as
// any payload. The receiving end diverts it on the header's kind, before
// `Router::ingress`, so it is never metered; it is small and read whole,
// so one that fails to decode is skipped without losing the stream.

/// The body of a [`FrameKind::Telemetry`] frame.
#[derive(Debug, Clone, PartialEq)]
pub enum TelemetryPayload {
    /// Master → worker: "my monotonic clock reads `master_nanos`".
    /// Sent right after the hello handshake registers the connection.
    ClockProbe {
        /// Nanoseconds since the hub's monotonic origin.
        master_nanos: u64,
    },
    /// Worker → master: the probe echoed with the worker's own clock, so
    /// the hub can estimate the offset as `client - (master + rtt/2)`.
    ClockEcho {
        /// The `master_nanos` from the probe, returned verbatim.
        master_nanos: u64,
        /// Nanoseconds since the worker's monotonic origin at echo time.
        client_nanos: u64,
    },
    /// Worker → master: a batch of locally recorded telemetry events,
    /// flushed at superstep boundaries and on shutdown.
    Events(Vec<Event>),
}

impl WireCodec for TelemetryPayload {
    fn encode_body<S: Sink>(&self, out: &mut S) -> Result<(), CodecError> {
        match self {
            TelemetryPayload::ClockProbe { master_nanos } => {
                out.put_u8(0);
                out.put_u64(*master_nanos);
            }
            TelemetryPayload::ClockEcho {
                master_nanos,
                client_nanos,
            } => {
                out.put_u8(1);
                out.put_u64(*master_nanos);
                out.put_u64(*client_nanos);
            }
            TelemetryPayload::Events(events) => {
                out.put_u8(2);
                out.put_usize(events.len());
                for e in events {
                    put_event(out, e);
                }
            }
        }
        Ok(())
    }

    fn decode_body(r: &mut WireReader<'_>) -> Result<Self, CodecError> {
        Ok(match r.u8("telemetry sub-tag")? {
            0 => TelemetryPayload::ClockProbe {
                master_nanos: r.u64("probe master_nanos")?,
            },
            1 => TelemetryPayload::ClockEcho {
                master_nanos: r.u64("echo master_nanos")?,
                client_nanos: r.u64("echo client_nanos")?,
            },
            2 => {
                let count = r.usize("event-batch count")?;
                let mut events = r.vec_for(count);
                for _ in 0..count {
                    events.push(read_event(r)?);
                }
                TelemetryPayload::Events(events)
            }
            t => return Err(CodecError::Malformed(format!("bad telemetry sub-tag {t}"))),
        })
    }

    fn kind(&self) -> &'static str {
        "telemetry"
    }
}

/// Stable `u64` encoding of a telemetry [`NodeRef`]: [`encode_node`]'s,
/// so [`decode_node`] reads it back.
fn encode_noderef(n: NodeRef) -> u64 {
    match n {
        NodeRef::Master => 0,
        NodeRef::Worker(i) => 1 << 32 | u64::from(i),
        NodeRef::Server(i) => 2 << 32 | u64::from(i),
    }
}

fn put_phase<S: Sink>(out: &mut S, p: Phase) {
    let idx = Phase::ALL
        .iter()
        .position(|q| *q == p)
        .expect("phase in Phase::ALL");
    out.put_u8(idx as u8);
}

fn read_phase(r: &mut WireReader<'_>) -> Result<Phase, CodecError> {
    let b = r.u8("phase byte")?;
    Phase::ALL
        .get(b as usize)
        .copied()
        .ok_or_else(|| CodecError::Malformed(format!("bad phase byte {b}")))
}

fn put_comm_fault<S: Sink>(out: &mut S, f: Option<CommFault>) {
    out.put_u8(match f {
        None => 0,
        Some(CommFault::Dropped) => 1,
        Some(CommFault::Duplicated) => 2,
        Some(CommFault::Delayed) => 3,
    });
}

fn read_comm_fault(r: &mut WireReader<'_>) -> Result<Option<CommFault>, CodecError> {
    Ok(match r.u8("comm-fault byte")? {
        0 => None,
        1 => Some(CommFault::Dropped),
        2 => Some(CommFault::Duplicated),
        3 => Some(CommFault::Delayed),
        b => return Err(CodecError::Malformed(format!("bad comm-fault byte {b}"))),
    })
}

fn put_event<S: Sink>(out: &mut S, e: &Event) {
    match e {
        Event::Superstep(s) => {
            out.put_u8(0);
            out.put_u64(s.iteration);
            put_phase(out, s.phase);
            out.put_f64(s.sim_s);
            out.put_f64(s.measured_s);
            out.put_f64s(&s.per_worker);
        }
        Event::Comm(c) => {
            out.put_u8(1);
            out.put_str(&c.kind);
            out.put_u64(encode_noderef(c.src));
            out.put_u64(encode_noderef(c.dst));
            out.put_u64(c.wire_bytes);
            out.put_f64(c.modeled_s);
            out.put_u8(plane_byte(c.plane));
            put_comm_fault(out, c.fault);
        }
        Event::Kernel(k) => {
            out.put_u8(2);
            out.put_u64(k.iteration);
            out.put_str(&k.model);
            out.put_u64(k.batch_size);
            out.put_u64(k.pool_width);
            out.put_u64(k.flops_proxy);
            match k.worker {
                None => out.put_u8(0),
                Some(w) => {
                    out.put_u8(1);
                    out.put_u64(w);
                }
            }
        }
        Event::Fault(f) => {
            out.put_u8(3);
            out.put_u64(f.iteration);
            out.put_u64(f.worker);
            out.put_str(&f.fault);
            out.put_str(&f.detection);
            out.put_f64(f.detection_latency_s);
            out.put_f64(f.recovery_cost_s);
            out.put_u64(f.attempt);
            out.put_bool(f.fatal);
        }
        Event::Prof(p) => {
            out.put_u8(4);
            match p.worker {
                None => out.put_u8(0),
                Some(w) => {
                    out.put_u8(1);
                    out.put_u64(w);
                }
            }
            out.put_str(&p.stack);
            out.put_u64(p.calls);
            out.put_f64(p.wall_s);
            out.put_f64(p.cpu_s);
            out.put_u64(p.alloc_bytes);
            out.put_u64(p.alloc_count);
        }
    }
}

fn read_event(r: &mut WireReader<'_>) -> Result<Event, CodecError> {
    Ok(match r.u8("event tag")? {
        0 => Event::Superstep(SuperstepSpan {
            iteration: r.u64("superstep iter")?,
            phase: read_phase(r)?,
            sim_s: r.f64("superstep sim_s")?,
            measured_s: r.f64("superstep measured_s")?,
            per_worker: r.f64s("superstep per_worker")?,
        }),
        1 => Event::Comm(CommRecord {
            kind: r.str("comm kind")?,
            src: decode_node(r.u64("comm src")?)?.into(),
            dst: decode_node(r.u64("comm dst")?)?.into(),
            wire_bytes: r.u64("comm bytes")?,
            modeled_s: r.f64("comm modeled_s")?,
            plane: plane_from_byte(r.u8("comm plane")?)?,
            fault: read_comm_fault(r)?,
        }),
        2 => Event::Kernel(KernelRecord {
            iteration: r.u64("kernel iter")?,
            model: r.str("kernel model")?,
            batch_size: r.u64("kernel batch_size")?,
            pool_width: r.u64("kernel pool_width")?,
            flops_proxy: r.u64("kernel flops_proxy")?,
            worker: match r.u8("kernel worker tag")? {
                0 => None,
                1 => Some(r.u64("kernel worker")?),
                b => return Err(CodecError::Malformed(format!("bad kernel worker tag {b}"))),
            },
        }),
        3 => Event::Fault(FaultRecord {
            iteration: r.u64("fault iter")?,
            worker: r.u64("fault worker")?,
            fault: r.str("fault kind")?,
            detection: r.str("fault detection")?,
            detection_latency_s: r.f64("fault detection_latency_s")?,
            recovery_cost_s: r.f64("fault recovery_cost_s")?,
            attempt: r.u64("fault attempt")?,
            fatal: r.bool("fault fatal")?,
        }),
        4 => Event::Prof(ProfRecord {
            worker: match r.u8("prof worker tag")? {
                0 => None,
                1 => Some(r.u64("prof worker")?),
                b => return Err(CodecError::Malformed(format!("bad prof worker tag {b}"))),
            },
            stack: r.str("prof stack")?,
            calls: r.u64("prof calls")?,
            wall_s: r.f64("prof wall_s")?,
            cpu_s: r.f64("prof cpu_s")?,
            alloc_bytes: r.u64("prof alloc_bytes")?,
            alloc_count: r.u64("prof alloc_count")?,
        }),
        t => return Err(CodecError::Malformed(format!("bad event tag {t}"))),
    })
}

// ---------------------------------------------------------------------------
// Physical stream framing
// ---------------------------------------------------------------------------
//
// On a stream, a frame is a 4-byte LE length prefix and the frame bytes.
// The TCP backend moves every frame through one fixed window on each end:
// a sender encodes into its window and writes each full window to all the
// frame's destinations in turn ([`write_envelope_to`]); a receiver reads
// through a window-sized buffer and decodes the body as it arrives
// ([`FrameReader`]). Neither end holds a frame whole, so the transport's
// memory per connection is one window, whatever the frame size.

/// Largest accepted frame (1 GiB); a longer length prefix is corrupt.
const MAX_FRAME: usize = 1 << 30;

/// The window every streamed frame passes through, on both ends.
const WINDOW: usize = 64 << 10;

/// How many times over a streamed vector grows when full (see
/// [`read_words`]).
const GROWTH: usize = 16;

/// Where the header's `to` field sits in a length-prefixed frame.
const TO_FIELD: std::ops::Range<usize> = 4 + 8..4 + 16;

thread_local! {
    /// This thread's send window, allocated by its first streamed frame.
    static SEND_WINDOW: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

/// Writes one frame: 4-byte LE physical length prefix + frame bytes.
pub fn write_frame<W: Write>(w: &mut W, frame: &[u8]) -> io::Result<()> {
    let len = u32::try_from(frame.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "frame exceeds u32 length"))?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(frame)?;
    w.flush()
}

/// Streams `payload` in a frame of `kind` to every `(to, writer)` of
/// `dests` through this thread's window: each destination's stream
/// receives exactly the length-prefixed frame, for a message the bytes
/// of `write_frame(encode_envelope(from, to, payload, plane))`, in
/// ⌈frame / window⌉ `write_all` calls. The payload is encoded once,
/// whatever the number of destinations: every full window goes to each
/// destination in turn, and in the first window only the header's `to`
/// field is rewritten between destinations.
///
/// Returns one result per destination, in `dests` order; a destination
/// whose write fails is skipped for the rest of the frame and the others
/// still receive all of it. [`wire_size`] runs first, so a payload that
/// cannot be encoded fails before any byte is written. The caller holds
/// every writer for the whole frame. Only a message frame opens a
/// `codec_encode` profiler frame: telemetry carries the profile.
pub fn write_envelope_to<M: WireCodec, W: Write>(
    dests: &mut [(NodeId, W)],
    from: NodeId,
    payload: &M,
    kind: FrameKind,
) -> Result<Vec<io::Result<()>>, CodecError> {
    let body_len = wire_size(payload)?;
    let len = u32::try_from(body_len + ENVELOPE_BYTES)
        .map_err(|_| CodecError::Unsupported("frame exceeds u32 length".to_string()))?;
    let Some(&(first_to, _)) = dests.first() else {
        return Ok(Vec::new());
    };
    let _prof = matches!(kind, FrameKind::Message(_)).then(|| ProfScope::enter("codec_encode"));
    SEND_WINDOW.with_borrow_mut(|window| {
        window.resize(WINDOW, 0);
        let mut out = Windowed {
            window,
            fill: 0,
            first: true,
            results: dests.iter().map(|_| Ok(())).collect(),
            dests,
        };
        out.put_u32(len);
        put_header(&mut out, from, first_to, kind, body_len);
        if payload.encode_body(&mut out).is_err() {
            // The same encoder just succeeded under `wire_size`; one that
            // fails now has left every destination inside a frame.
            for r in &mut out.results {
                *r = Err(io::Error::other("payload encoder failed in mid-frame"));
            }
            return Ok(out.results);
        }
        Ok(out.finish())
    })
}

/// The [`Sink`] behind [`write_envelope_to`]: a window that is written to
/// every live destination each time it fills.
struct Windowed<'a, W> {
    window: &'a mut [u8],
    /// Bytes of the window filled so far.
    fill: usize,
    /// Whether the window holds the frame's header (its first window).
    first: bool,
    dests: &'a mut [(NodeId, W)],
    results: Vec<io::Result<()>>,
}

impl<W: Write> Windowed<'_, W> {
    /// Writes the filled part of the window to each destination that has
    /// not failed, addressing the header to it in the first window.
    fn drain(&mut self) {
        let bytes = &mut self.window[..self.fill];
        for ((to, w), result) in self.dests.iter_mut().zip(&mut self.results) {
            if result.is_err() {
                continue;
            }
            if self.first {
                bytes[TO_FIELD].copy_from_slice(&encode_node(*to).to_le_bytes());
            }
            *result = w.write_all(bytes);
        }
        self.first = false;
        self.fill = 0;
    }

    /// Writes what is left of the frame and flushes every destination.
    fn finish(mut self) -> Vec<io::Result<()>> {
        if self.fill > 0 {
            self.drain();
        }
        for ((_, w), result) in self.dests.iter_mut().zip(&mut self.results) {
            if result.is_ok() {
                *result = w.flush();
            }
        }
        self.results
    }

    /// Puts `xs` as 8-byte words: whole runs are converted straight into
    /// the window, and the one word that straddles a window boundary goes
    /// through [`Sink::put_bytes`].
    fn put_words<T: Copy>(&mut self, mut xs: &[T], le: impl Fn(T) -> [u8; 8]) {
        while let Some((&x, rest)) = xs.split_first() {
            let room = (WINDOW - self.fill) / 8;
            if room == 0 {
                self.put_bytes(&le(x));
                xs = rest;
                continue;
            }
            let (run, rest) = xs.split_at(room.min(xs.len()));
            let dst = &mut self.window[self.fill..self.fill + 8 * run.len()];
            for (d, &x) in dst.as_chunks_mut::<8>().0.iter_mut().zip(run) {
                *d = le(x);
            }
            self.fill += 8 * run.len();
            if self.fill == WINDOW {
                self.drain();
            }
            xs = rest;
        }
    }
}

impl<W: Write> Sink for Windowed<'_, W> {
    #[inline]
    fn put_u8(&mut self, x: u8) {
        self.put_bytes(&[x]);
    }
    #[inline]
    fn put_u32(&mut self, x: u32) {
        self.put_bytes(&x.to_le_bytes());
    }
    #[inline]
    fn put_u64(&mut self, x: u64) {
        self.put_bytes(&x.to_le_bytes());
    }
    #[inline]
    fn put_f64(&mut self, x: f64) {
        self.put_bytes(&x.to_le_bytes());
    }
    fn put_bytes(&mut self, mut b: &[u8]) {
        while !b.is_empty() {
            let n = b.len().min(WINDOW - self.fill);
            self.window[self.fill..self.fill + n].copy_from_slice(&b[..n]);
            self.fill += n;
            b = &b[n..];
            if self.fill == WINDOW {
                self.drain();
            }
        }
    }
    fn put_f64_slice(&mut self, xs: &[f64]) {
        self.put_words(xs, f64::to_le_bytes);
    }
    fn put_u64_slice(&mut self, xs: &[u64]) {
        self.put_words(xs, u64::to_le_bytes);
    }
}

/// Reads one frame whole. `Ok(None)` means clean EOF at a frame boundary
/// (the peer closed its socket). The frame grows with the bytes that
/// arrive, never ahead of them: a length prefix alone reserves at most
/// one window.
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Option<Vec<u8>>> {
    let Some(len) = read_prefix(r)? else {
        return Ok(None);
    };
    let mut frame = Vec::new();
    read_to_len(r, len, &mut frame)?;
    Ok(Some(frame))
}

/// The next frame's length prefix, bounds-checked; `Ok(None)` at a clean
/// EOF.
fn read_prefix<R: Read>(r: &mut R) -> io::Result<Option<usize>> {
    let mut len_buf = [0u8; 4];
    match r.read_exact(&mut len_buf) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if !(ENVELOPE_BYTES..=MAX_FRAME).contains(&len) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("bad frame length {len}"),
        ));
    }
    Ok(Some(len))
}

/// Appends the next `len` bytes of `r` to `out`.
fn read_to_len<R: Read>(r: &mut R, len: usize, out: &mut Vec<u8>) -> io::Result<()> {
    out.reserve(len.min(WINDOW));
    if r.take(len as u64).read_to_end(out)? < len {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!("stream ended inside a {len}-byte frame"),
        ));
    }
    Ok(())
}

/// The receiving end of a framed stream: every frame passes through one
/// window-sized buffer. [`FrameReader::next_header`] reads a frame's
/// length prefix and envelope header; the body is then either decoded as
/// it arrives ([`FrameReader::decode_body`], for protocol messages) or
/// read whole ([`FrameReader::read_whole`], for the small hello and
/// telemetry frames). One of the two must follow each header.
pub struct FrameReader<R> {
    inner: BufReader<R>,
    /// The envelope header of the frame being read.
    header: [u8; ENVELOPE_BYTES],
}

impl<R> std::fmt::Debug for FrameReader<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrameReader")
            .field("capacity", &self.inner.capacity())
            .finish()
    }
}

impl<R: Read> FrameReader<R> {
    /// Reads frames from `r` through a one-window buffer.
    pub fn new(r: R) -> Self {
        Self {
            inner: BufReader::with_capacity(WINDOW, r),
            header: [0; ENVELOPE_BYTES],
        }
    }

    /// The underlying stream.
    pub fn get_ref(&self) -> &R {
        self.inner.get_ref()
    }

    /// The read buffer's size: one window, whatever the frames.
    pub fn capacity(&self) -> usize {
        self.inner.capacity()
    }

    /// The next frame's envelope header, checked against its length
    /// prefix. `Ok(None)` means clean EOF at a frame boundary; a header
    /// that does not decode is an `InvalidData` error.
    pub fn next_header(&mut self) -> io::Result<Option<EnvelopeHeader>> {
        let Some(len) = read_prefix(&mut self.inner)? else {
            return Ok(None);
        };
        self.inner.read_exact(&mut self.header)?;
        parse_header(&self.header, len)
            .map(Some)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }

    /// Decodes the body of the frame `header` opened, as it arrives (see
    /// [`decode_body_from`]).
    pub fn decode_body<M: WireCodec>(&mut self, header: &EnvelopeHeader) -> Result<M, CodecError> {
        decode_body_from(&mut self.inner, header.body_len)
    }

    /// Reads the rest of the frame `header` opened and returns the whole
    /// frame, header included, as [`read_frame`] would have.
    pub fn read_whole(&mut self, header: &EnvelopeHeader) -> io::Result<Vec<u8>> {
        let mut frame = self.header.to_vec();
        read_to_len(&mut self.inner, header.body_len, &mut frame)?;
        Ok(frame)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<M: WireCodec + PartialEq + std::fmt::Debug>(x: M) {
        let frame = encode_envelope(NodeId::Master, NodeId::Worker(3), &x, Plane::Data).unwrap();
        assert_eq!(
            frame.len(),
            wire_size(&x).unwrap() + ENVELOPE_BYTES,
            "the counted size must equal the bytes written"
        );
        let h = decode_envelope_header(&frame).unwrap();
        assert_eq!(h.from, NodeId::Master);
        assert_eq!(h.to, NodeId::Worker(3));
        assert_eq!(h.kind, FrameKind::Message(Plane::Data));
        let y: M = decode_body_checked(&frame).unwrap();
        assert_eq!(x, y);
    }

    #[test]
    fn primitives_roundtrip_at_wire_size() {
        roundtrip(42u64);
        roundtrip(-1.5f64);
        roundtrip(7usize);
        roundtrip("hello".to_string());
        roundtrip(vec![1.0f64, -2.0, f64::INFINITY]);
        roundtrip((3u64, 4u64));
        roundtrip(vec![(1u64, 2usize), (3, 4)]);
    }

    #[test]
    fn usize_is_pinned_to_eight_bytes() {
        // The platform-width regression: a usize body must be 8 bytes on
        // every host, not `size_of::<usize>()`.
        let mut out = Vec::new();
        7usize.encode_body(&mut out).unwrap();
        assert_eq!(out, 7u64.to_le_bytes());
        assert_eq!(wire_size(&usize::MAX).unwrap(), 8);
        assert_eq!(wire_size(&vec![1usize, 2, 3]).unwrap(), 8 + 24);
        let mut r = WireReader::new(&out);
        assert_eq!(usize::decode_body(&mut r).unwrap(), 7);
        r.finish("usize").unwrap();
    }

    #[test]
    fn nan_bit_patterns_survive() {
        let weird = f64::from_bits(0x7FF8_0000_0000_1234);
        let mut out = Vec::new();
        weird.encode_body(&mut out).unwrap();
        let mut r = WireReader::new(&out);
        let back = f64::decode_body(&mut r).unwrap();
        assert_eq!(back.to_bits(), weird.to_bits());
    }

    #[test]
    fn linalg_types_roundtrip_at_wire_size() {
        let sv = SparseVector::from_sorted(vec![2, 7, 9], vec![1.0, -2.0, 0.5]);
        roundtrip(sv);
        roundtrip(DenseVector::from_vec(vec![0.25; 5]));
        let m = CsrMatrix::from_rows(&[
            (1.0, SparseVector::from_sorted(vec![0, 3], vec![1.0, 2.0])),
            (-1.0, SparseVector::new()),
            (1.0, SparseVector::from_sorted(vec![5], vec![-0.5])),
        ]);
        roundtrip(m);
    }

    #[test]
    fn empty_csr_roundtrips() {
        roundtrip(CsrMatrix::new());
    }

    #[test]
    fn blocks_and_worksets_roundtrip() {
        let rows: Vec<(f64, SparseVector)> = (0..5)
            .map(|i| (1.0, SparseVector::from_pairs(vec![(i, 0.5), (i + 7, -2.0)])))
            .collect();
        let block = Block::from_rows(3, &rows);
        let part = columnsgd_data::ColumnPartitioner::round_robin(2);
        for ws in columnsgd_data::workset::split_block(&block, &part) {
            roundtrip(ws);
        }
        roundtrip(block);
    }

    #[test]
    fn linalg_sizes_are_pinned() {
        let sv = SparseVector::from_sorted(vec![1, 2], vec![1.0, 2.0]);
        assert_eq!(wire_size(&sv).unwrap(), 8 + 32);
        assert_eq!(wire_size(&DenseVector::zeros(10)).unwrap(), 8 + 80);
        // Figure 5's matrix: (nrows, nnz) header + 3 labels + 4 offsets +
        // 6 index/value pairs.
        let m = CsrMatrix::from_rows(&[
            (-1.0, SparseVector::from_pairs(vec![(0, 0.3), (2, 0.5)])),
            (-1.0, SparseVector::from_pairs(vec![(2, 0.8)])),
            (
                1.0,
                SparseVector::from_pairs(vec![(0, 0.1), (1, 0.9), (2, 0.1)]),
            ),
        ]);
        assert_eq!(wire_size(&m).unwrap(), 16 + 24 + 32 + 96);
    }

    #[test]
    fn count_agrees_with_the_bytes_of_every_put() {
        fn puts<S: Sink>(out: &mut S) {
            out.put_u8(1);
            out.put_u32(2);
            out.put_u64(3);
            out.put_f64(4.0);
            out.put_bytes(b"xyz");
            out.put_f64_slice(&[5.0, 6.0]);
            out.put_u64_slice(&[7]);
            out.put_usize(8);
            out.put_bool(true);
            out.put_str("état");
            out.put_f64s(&[9.0; 4]);
            out.put_u64s(&[]);
        }
        let (mut bytes, mut n) = (Vec::new(), Count::default());
        puts(&mut bytes);
        puts(&mut n);
        assert_eq!(n.0, bytes.len());

        // The streaming sink writes the same bytes, with every kind of put
        // straddling a window boundary somewhere across 5 000 rounds.
        let mut whole = Vec::new();
        let mut window = vec![0u8; WINDOW];
        let mut dests = [(NodeId::Master, Vec::new())];
        let mut out = Windowed {
            window: &mut window,
            fill: 0,
            first: false,
            results: vec![Ok(())],
            dests: &mut dests,
        };
        for _ in 0..5_000 {
            puts(&mut whole);
            puts(&mut out);
        }
        assert!(out.finish().iter().all(Result::is_ok));
        assert!(whole.len() > 3 * WINDOW);
        assert!(dests[0].1 == whole, "streamed bytes differ");
    }

    #[test]
    fn node_encoding_roundtrips() {
        for n in [
            NodeId::Master,
            NodeId::Worker(0),
            NodeId::Worker(31),
            NodeId::Server(2),
        ] {
            assert_eq!(decode_node(encode_node(n)).unwrap(), n);
        }
        assert!(decode_node(9 << 32).is_err());
    }

    /// A whole frame of `kind`, as [`write_envelope_to`] streams it, less
    /// its length prefix.
    fn frame_of<M: WireCodec>(from: NodeId, to: NodeId, payload: &M, kind: FrameKind) -> Vec<u8> {
        let mut dests = [(to, Vec::new())];
        assert!(write_envelope_to(&mut dests, from, payload, kind).unwrap()[0].is_ok());
        let [(_, stream)] = dests;
        stream[4..].to_vec()
    }

    fn telemetry_frame(from: NodeId, to: NodeId, payload: TelemetryPayload) -> Vec<u8> {
        frame_of(from, to, &payload, FrameKind::Telemetry)
    }

    #[test]
    fn hello_frame_shape() {
        let h = encode_hello(NodeId::Worker(4));
        assert_eq!(h.len(), ENVELOPE_BYTES);
        let parsed = decode_envelope_header(&h).unwrap();
        assert_eq!(parsed.kind, FrameKind::Hello);
        assert_eq!(parsed.from, NodeId::Worker(4));
    }

    fn sample_telemetry_events() -> Vec<Event> {
        vec![
            Event::Superstep(SuperstepSpan {
                iteration: 3,
                phase: Phase::Compute,
                sim_s: 0.25,
                measured_s: 0.125,
                per_worker: vec![0.1, 0.25],
            }),
            Event::Comm(CommRecord {
                kind: "StatsReply".to_string(),
                src: NodeRef::Worker(1),
                dst: NodeRef::Master,
                wire_bytes: 4096,
                modeled_s: 1.5e-4,
                plane: Plane::Data,
                fault: Some(CommFault::Delayed),
            }),
            Event::Kernel(KernelRecord {
                iteration: 3,
                model: "lr".to_string(),
                batch_size: 200,
                pool_width: 2,
                flops_proxy: 200,
                worker: Some(1),
            }),
            Event::Kernel(KernelRecord {
                iteration: 4,
                model: "svm".to_string(),
                batch_size: 200,
                pool_width: 2,
                flops_proxy: 400,
                worker: None,
            }),
            Event::Fault(FaultRecord {
                iteration: 5,
                worker: 0,
                fault: "non-finite statistics".to_string(),
                detection: "worker guard".to_string(),
                detection_latency_s: 0.0,
                recovery_cost_s: 0.0,
                attempt: 1,
                fatal: false,
            }),
        ]
    }

    #[test]
    fn telemetry_event_batches_roundtrip() {
        let events = sample_telemetry_events();
        let frame = telemetry_frame(
            NodeId::Worker(1),
            NodeId::Master,
            TelemetryPayload::Events(events.clone()),
        );
        let h = decode_envelope_header(&frame).unwrap();
        assert_eq!(h.kind, FrameKind::Telemetry);
        assert_eq!(h.from, NodeId::Worker(1));
        assert_eq!(h.to, NodeId::Master);
        assert_eq!(h.body_len, frame.len() - ENVELOPE_BYTES);
        match decode_body_checked(&frame).unwrap() {
            TelemetryPayload::Events(back) => assert_eq!(back, events),
            other => panic!("expected Events, got {other:?}"),
        }
        // Empty batches are legal (a flush with nothing new).
        let empty = telemetry_frame(
            NodeId::Worker(0),
            NodeId::Master,
            TelemetryPayload::Events(Vec::new()),
        );
        match decode_body_checked(&empty).unwrap() {
            TelemetryPayload::Events(back) => assert!(back.is_empty()),
            other => panic!("expected Events, got {other:?}"),
        }
    }

    #[test]
    fn clock_probe_and_echo_roundtrip() {
        let probe = TelemetryPayload::ClockProbe {
            master_nanos: 123_456_789,
        };
        let frame = telemetry_frame(NodeId::Master, NodeId::Worker(2), probe.clone());
        assert_eq!(
            decode_envelope_header(&frame).unwrap().kind,
            FrameKind::Telemetry
        );
        assert_eq!(
            decode_body_checked::<TelemetryPayload>(&frame).unwrap(),
            probe
        );
        let echo = TelemetryPayload::ClockEcho {
            master_nanos: 123_456_789,
            client_nanos: 987,
        };
        let frame = telemetry_frame(NodeId::Worker(2), NodeId::Master, echo.clone());
        assert_eq!(
            decode_body_checked::<TelemetryPayload>(&frame).unwrap(),
            echo
        );
    }

    #[test]
    fn telemetry_frames_are_not_protocol_messages() {
        let frame = telemetry_frame(
            NodeId::Worker(0),
            NodeId::Master,
            TelemetryPayload::Events(sample_telemetry_events()),
        );
        // A telemetry frame must never decode as a protocol body — the
        // hub's dispatch keys on the header kind, and a mixed-up frame
        // would corrupt the meter.
        let h = decode_envelope_header(&frame).unwrap();
        assert!(!matches!(h.kind, FrameKind::Message(_)));
        // An unknown frame-kind byte is an error, not a silent Message.
        let mut bogus = frame.clone();
        bogus[17] = 9; // flags byte 1 (frame kind) — offset 16 is byte 0
        assert!(decode_envelope_header(&bogus).is_err());
    }

    #[test]
    fn stream_framing_roundtrips_and_reports_eof() {
        let frame =
            encode_envelope(NodeId::Worker(1), NodeId::Master, &5u64, Plane::Control).unwrap();
        let mut buf = Vec::new();
        write_frame(&mut buf, &frame).unwrap();
        assert_eq!(buf.len(), 4 + frame.len());
        let mut cursor = std::io::Cursor::new(buf);
        let got = read_frame(&mut cursor).unwrap().unwrap();
        assert_eq!(got, frame);
        assert!(read_frame(&mut cursor).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn a_length_prefix_alone_buys_no_large_allocation() {
        // A telemetry header announcing a body just short of 1 GiB, then
        // ten bytes: reading it whole fails at the end of the stream, and
        // the frame never reserved more than a window ahead of its bytes.
        let mut header = telemetry_frame(
            NodeId::Worker(0),
            NodeId::Master,
            TelemetryPayload::Events(Vec::new()),
        );
        header.truncate(ENVELOPE_BYTES);
        header[24..32].copy_from_slice(&((MAX_FRAME - ENVELOPE_BYTES) as u64).to_le_bytes());
        let mut stream = (MAX_FRAME as u32).to_le_bytes().to_vec();
        stream.extend_from_slice(&header);
        stream.extend_from_slice(&[7; 10]);
        let mut r = FrameReader::new(std::io::Cursor::new(stream));
        let h = r.next_header().unwrap().unwrap();
        assert_eq!(h.body_len, MAX_FRAME - ENVELOPE_BYTES);
        let err = r.read_whole(&h).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        let mut frame = Vec::new();
        let err = read_to_len(&mut std::io::Cursor::new([7; 10]), MAX_FRAME, &mut frame);
        assert_eq!(err.unwrap_err().kind(), io::ErrorKind::UnexpectedEof);
        assert!(frame.capacity() <= WINDOW, "capacity {}", frame.capacity());
    }

    #[test]
    fn streamed_frames_decode_like_whole_ones() {
        let big = vec![0.5f64; 30_000];
        let frames = [
            encode_envelope(NodeId::Master, NodeId::Worker(0), &big, Plane::Data).unwrap(),
            encode_envelope(
                NodeId::Master,
                NodeId::Worker(0),
                &vec![7.0f64],
                Plane::Data,
            )
            .unwrap(),
        ];
        let mut stream = Vec::new();
        for _ in 0..3 {
            for f in &frames {
                write_frame(&mut stream, f).unwrap();
            }
        }
        let mut r = FrameReader::new(std::io::Cursor::new(stream));
        for _ in 0..3 {
            for f in &frames {
                let h = r.next_header().unwrap().unwrap();
                let got: Vec<f64> = r.decode_body(&h).unwrap();
                assert_eq!(got, decode_body_checked::<Vec<f64>>(f).unwrap());
                assert_eq!(r.capacity(), WINDOW);
            }
        }
        assert!(r.next_header().unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn truncated_and_malformed_frames_are_errors() {
        let frame = encode_envelope(NodeId::Master, NodeId::Worker(0), &7u64, Plane::Data).unwrap();
        assert!(decode_envelope_header(&frame[..frame.len() - 1]).is_err());
        let mut r = WireReader::new(&[1, 2]);
        assert!(r.u64("x").is_err());
        let mut r = WireReader::new(&[7]);
        assert!(r.bool("b").is_err());
    }

    #[test]
    fn a_body_len_near_u64_max_is_a_typed_error() {
        // The hub decodes the first frame of any connecting socket: a
        // bogus length must neither overflow nor pass the size check.
        let mut frame = encode_hello(NodeId::Worker(1));
        frame[24..32].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            decode_envelope_header(&frame),
            Err(CodecError::Malformed(_))
        ));
        frame[24..32].copy_from_slice(&(u64::MAX - 32).to_le_bytes());
        assert!(matches!(
            decode_envelope_header(&frame),
            Err(CodecError::SizeMismatch { .. })
        ));
    }

    #[test]
    fn every_frame_kind_and_telemetry_payload_is_sampled() {
        let (w, m) = (NodeId::Worker(2), NodeId::Master);
        let frames = [
            encode_envelope(m, w, &7u64, Plane::Data).unwrap(),
            encode_hello(w),
            telemetry_frame(m, w, TelemetryPayload::ClockProbe { master_nanos: 5 }),
            telemetry_frame(
                w,
                m,
                TelemetryPayload::ClockEcho {
                    master_nanos: 5,
                    client_nanos: 9,
                },
            ),
            telemetry_frame(w, m, TelemetryPayload::Events(sample_telemetry_events())),
        ];
        let mut kinds = std::collections::BTreeSet::new();
        let mut payloads = std::collections::BTreeSet::new();
        let (mut kind_count, mut payload_count) = (0, 0);
        for frame in &frames {
            let kind = decode_envelope_header(frame).unwrap().kind;
            let (i, n) = crate::variant_index!(kind;
                FrameKind::Message(_),
                FrameKind::Hello,
                FrameKind::Telemetry,
            );
            kinds.insert(i);
            kind_count = n;
            if kind == FrameKind::Telemetry {
                let payload: TelemetryPayload = decode_body_checked(frame).unwrap();
                let (i, n) = crate::variant_index!(payload;
                    TelemetryPayload::ClockProbe { .. },
                    TelemetryPayload::ClockEcho { .. },
                    TelemetryPayload::Events(_),
                );
                payloads.insert(i);
                payload_count = n;
            }
        }
        assert_eq!(kinds, (0..kind_count).collect(), "one frame per FrameKind");
        assert_eq!(
            payloads,
            (0..payload_count).collect(),
            "one frame per TelemetryPayload"
        );
    }
}
