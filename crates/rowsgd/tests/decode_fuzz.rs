//! Decoders that trust nothing. Both wire enums, `RowMsg` and `ColMsg`
//! (whose parameter-block decoders `RowMsg` reuses), are fed arbitrary
//! bytes: whole frames of noise, noise behind every tag byte, and valid
//! messages with bytes overwritten, a huge length planted at every
//! offset, cut short or extended. Each decode must end in a message or a
//! typed `CodecError`, never a panic, and must never ask the allocator
//! for more than the frame can account for. Every input is decoded twice:
//! as a whole frame, and streamed as it arrives in small pieces, the way
//! the TCP transport decodes it. The two must agree, error for error, and
//! a stream that ends before the length its header announced is a typed
//! error whose allocations the bytes that arrived bound, however long the
//! announced length: a header is not bytes in hand.
//!
//! The allocation probe is this binary's global allocator: it forwards
//! to `System` and records the largest request of the current thread.

#[expect(clippy::disallowed_types, reason = "the probe is the global allocator")]
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::{self, BufReader, Cursor, Read};

use columnsgd_cluster::codec::{
    decode_body_checked, decode_body_from, encode_envelope, CodecError, FrameReader, WireCodec,
    ENVELOPE_BYTES,
};
use columnsgd_cluster::telemetry::Plane;
use columnsgd_cluster::NodeId;
use columnsgd_core::msg::ColMsg;
use columnsgd_data::workset::split_block;
use columnsgd_data::{Block, ColumnPartitioner};
use columnsgd_linalg::{CsrMatrix, SparseVector};
use columnsgd_ml::params::{ParamSet, SparseGrad};
use columnsgd_rowsgd::msg::RowMsg;
use proptest::prelude::*;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

/// `System`, recording the largest allocation each thread requests.
struct LargestRequest;

fn note(size: usize) {
    // `try_with`: allocations also happen while thread locals are torn down.
    let _ = LARGEST.try_with(|l| l.set(l.get().max(size)));
}

// SAFETY: every call is forwarded to `System` unchanged; the bookkeeping
// touches only a const-initialized thread local, which never allocates.
#[expect(clippy::disallowed_methods, reason = "the probe forwards to System")]
unsafe impl GlobalAlloc for LargestRequest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

// `#[global_allocator]` expands to allocator shims beside the static, so
// the exemption sits on a module around it.
#[expect(clippy::disallowed_methods, reason = "installs the allocation probe")]
mod install {
    #[global_allocator]
    static ALLOCATOR: super::LargestRequest = super::LargestRequest;
}

/// The most a decode of `frame_len` bytes may request at once: a fixed
/// multiple of the frame, plus what a 16-bit block count implies with no
/// payload behind it (a `SparseGrad` of 65 535 empty blocks, 1.5 MiB).
fn allocation_bound(frame_len: usize) -> usize {
    64 * frame_len + (2 << 20)
}

/// A reader that hands out at most 7 bytes per call: a socket delivering
/// a body in pieces that split every 8-byte word.
struct Trickle(Cursor<Vec<u8>>);

impl Read for Trickle {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = buf.len().min(7);
        self.0.read(&mut buf[..n])
    }
}

/// Decodes `body`, announced as `announced` bytes long, straight off a
/// trickling stream, and returns the re-encoded message or the error,
/// with the largest allocation the decode requested.
fn decode_streamed<M: WireCodec>(
    body: &[u8],
    announced: usize,
) -> (Result<Vec<u8>, CodecError>, usize) {
    let mut r = BufReader::with_capacity(16, Trickle(Cursor::new(body.to_vec())));
    LARGEST.with(|l| l.set(0));
    let decoded = decode_body_from::<M, _>(&mut r, announced);
    let largest = LARGEST.with(Cell::get);
    (decoded.map(|m| body_of(&m)), largest)
}

/// Decodes `frame` as an `M`: a message or a typed error, never a panic,
/// and no allocation beyond [`allocation_bound`]. Streamed, its body
/// decodes to the same message or error; announced as longer than it is,
/// up to about 1 GiB, it is an error, and its allocations stay within the
/// bound of the bytes that arrived.
fn decode_untrusted<M: WireCodec>(frame: &[u8]) -> Result<(), String> {
    LARGEST.with(|l| l.set(0));
    let decoded = decode_body_checked::<M>(frame);
    let largest = LARGEST.with(Cell::get);
    prop_assert!(
        largest <= allocation_bound(frame.len()),
        "a {}-byte frame asked for {largest} B ({})",
        frame.len(),
        match &decoded {
            Ok(m) => m.kind().to_string(),
            Err(e) => e.to_string(),
        }
    );
    let Some(body) = frame.get(ENVELOPE_BYTES..) else {
        return Ok(());
    };
    let (streamed, largest) = decode_streamed::<M>(body, body.len());
    prop_assert!(
        largest <= allocation_bound(frame.len()),
        "a streamed {}-byte frame asked for {largest} B",
        frame.len()
    );
    prop_assert_eq!(
        streamed,
        decoded.map(|m| body_of(&m)),
        "streamed decode differs"
    );
    for extra in [1, 8, 1 << 16, 1 << 29] {
        let (cut, largest) = decode_streamed::<M>(body, body.len() + extra);
        prop_assert!(cut.is_err(), "a body {extra} B short decoded");
        prop_assert!(
            largest <= allocation_bound(frame.len()),
            "a {}-byte body announced as {} asked for {largest} B",
            body.len(),
            body.len() + extra
        );
    }
    Ok(())
}

fn frame_of(body: &[u8]) -> Vec<u8> {
    let mut frame = vec![0u8; ENVELOPE_BYTES];
    frame.extend_from_slice(body);
    frame
}

fn body_of<M: WireCodec>(m: &M) -> Vec<u8> {
    let mut out = Vec::new();
    m.encode_body(&mut out).expect("encode");
    out
}

/// How a property case damages a valid body.
#[derive(Debug, Clone)]
struct Damage {
    /// Bytes appended, and alone the noise frames.
    noise: Vec<u8>,
    /// `(position, byte)` overwrites, positions taken modulo the length.
    edits: Vec<(usize, u8)>,
    /// An 8-byte word written over each position in turn: the shape of a
    /// length header.
    word: u64,
    /// Where to cut the body short (modulo its length + 1).
    cut: usize,
}

fn damage() -> impl Strategy<Value = Damage> {
    let word = prop_oneof![
        Just(u64::MAX),
        Just((1u64 << 48) - 1),
        Just(1u64 << 32),
        Just(1u64 << 20),
        0u64..64,
    ];
    (
        prop::collection::vec(0u8..=255, 0..160),
        prop::collection::vec((0usize..1 << 16, 0u8..=255), 1..5),
        word,
        0usize..1 << 16,
    )
        .prop_map(|(noise, edits, word, cut)| Damage {
            noise,
            edits,
            word,
            cut,
        })
}

/// Every way `d` damages messages, decoded as `M`: the noise as a whole
/// frame, the noise behind each of the 256 tag bytes, and each body in
/// `valid` with its bytes edited, the word planted at every offset, cut
/// short and extended.
fn decode_damaged<M: WireCodec>(valid: &[Vec<u8>], d: &Damage) -> Result<(), String> {
    decode_untrusted::<M>(&d.noise)?;
    for tag in 0..=u8::MAX {
        decode_untrusted::<M>(&frame_of(&[&[tag], &d.noise[..]].concat()))?;
    }
    for body in valid {
        decode_untrusted::<M>(&frame_of(body))?;
        let n = body.len();
        let mut edited = body.clone();
        for &(i, b) in &d.edits {
            edited[i % n] = b;
        }
        decode_untrusted::<M>(&frame_of(&edited))?;
        for i in 0..n {
            let mut planted = body.clone();
            let end = (i + 8).min(n);
            planted[i..end].copy_from_slice(&d.word.to_le_bytes()[..end - i]);
            decode_untrusted::<M>(&frame_of(&planted))?;
        }
        decode_untrusted::<M>(&frame_of(&body[..d.cut % (n + 1)]))?;
        decode_untrusted::<M>(&frame_of(&[&body[..], &d.noise[..]].concat()))?;
    }
    Ok(())
}

fn rows(seed: u64) -> Vec<(f64, SparseVector)> {
    (0..3 + seed % 3)
        .map(|r| {
            let pairs = (0..1 + (seed + r) % 3).map(|j| (r * 7 + j * 2, 0.5 * j as f64 - 1.0));
            (1.0, SparseVector::from_pairs(pairs.collect()))
        })
        .collect()
}

fn params(widths: &[usize]) -> ParamSet {
    let mut p = ParamSet::zeros(3, widths);
    for b in &mut p.blocks {
        b.as_mut_slice().fill(-0.75);
    }
    p
}

fn grad(widths: &[usize]) -> SparseGrad {
    SparseGrad {
        indices: vec![1, 4],
        blocks: widths.iter().map(|w| vec![0.25; 2 * w]).collect(),
        widths: widths.to_vec(),
    }
}

/// Valid `RowMsg` bodies with nested payloads: rows, dense and sparse
/// parameter blocks, index lists, chunks.
fn row_bodies(seed: u64) -> Vec<Vec<u8>> {
    let widths = [vec![1], vec![1, 3], vec![1; 4]][(seed % 3) as usize].clone();
    let msgs = [
        RowMsg::LoadRows(CsrMatrix::from_rows(&rows(seed))),
        RowMsg::FullModelGrad {
            iteration: seed,
            params: params(&widths),
        },
        RowMsg::IndicesReply {
            iteration: seed,
            worker: 1,
            indices: vec![2, 5, 9],
            compute_s: 0.5,
        },
        RowMsg::GradReplySparse {
            iteration: seed,
            worker: 0,
            grad: grad(&widths),
            loss: 0.25,
            compute_s: 0.5,
        },
        RowMsg::GradReplyDense {
            iteration: seed,
            worker: 1,
            grad: params(&widths),
            loss: 0.25,
            compute_s: 0.5,
        },
        RowMsg::RingChunk {
            phase: 1,
            step: 2,
            data: vec![1.5; 4],
        },
    ];
    msgs.iter().map(body_of).collect()
}

/// Valid `ColMsg` bodies with nested payloads: blocks, worksets, layout
/// and pid lists, parameter parts, strings.
fn col_bodies(seed: u64) -> Vec<Vec<u8>> {
    let widths = [vec![1], vec![1, 3], vec![1; 4]][(seed % 3) as usize].clone();
    let block = Block::from_rows(seed % 8, &rows(seed));
    let worksets = split_block(&block, &ColumnPartitioner::round_robin(2));
    let msgs = [
        ColMsg::LoadBlock(block),
        ColMsg::Workset {
            pid: 1,
            ws: worksets[0].clone(),
        },
        ColMsg::LoadAck {
            worker: 0,
            layout: vec![(0, 3), (1, 4)],
        },
        ColMsg::StatsReplyFor {
            iteration: seed,
            worker: 1,
            pids: vec![0, 2],
            partial: vec![0.5; 3],
            compute_s: 0.1,
            sample_s: 0.2,
            task_failed: false,
        },
        ColMsg::ModelReply {
            worker: 0,
            parts: vec![(0, params(&widths)), (3, params(&widths))],
        },
        ColMsg::WorkerPanic {
            worker: 1,
            info: "boom".to_string(),
        },
        ColMsg::ShardData {
            pid: 2,
            epoch: seed,
            worksets,
            params: params(&widths),
        },
    ];
    msgs.iter().map(body_of).collect()
}

/// The window the TCP transport reads every frame through.
const WINDOW: usize = 64 << 10;

/// Largest frame a length prefix may announce (1 GiB).
const MAX_FRAME: usize = 1 << 30;

/// A length prefix and envelope header announcing a 1 GiB frame, then a
/// short body whose last 8 bytes, an element count, are set to `count`,
/// and then the end of the stream: what any process that dials the hub
/// can send. Read through the transport's own `FrameReader`, the decode
/// fails typed, having asked for no more than one window at a time.
fn announce_a_gibibyte<M: WireCodec>(msg: &M, count: u64) -> Result<(), String> {
    let mut frame = encode_envelope(NodeId::Worker(0), NodeId::Master, msg, Plane::Data)
        .map_err(|e| e.to_string())?;
    let n = frame.len();
    frame[n - 8..].copy_from_slice(&count.to_le_bytes());
    frame[24..32].copy_from_slice(&((MAX_FRAME - ENVELOPE_BYTES) as u64).to_le_bytes());
    let mut stream = (MAX_FRAME as u32).to_le_bytes().to_vec();
    stream.extend_from_slice(&frame);
    let mut r = FrameReader::new(Cursor::new(stream));
    let header = r
        .next_header()
        .map_err(|e| e.to_string())?
        .ok_or("no header")?;
    LARGEST.with(|l| l.set(0));
    let decoded = r.decode_body::<M>(&header);
    let largest = LARGEST.with(Cell::get);
    prop_assert!(
        matches!(decoded, Err(CodecError::Truncated { .. })),
        "count {count}: {:?}",
        decoded.map(|m| m.kind())
    );
    prop_assert!(
        largest <= WINDOW,
        "count {count} behind a 1 GiB header asked for {largest} B"
    );
    Ok(())
}

#[test]
fn a_header_announcing_a_gibibyte_buys_one_window() {
    for count in [1 << 20, 1 << 26, 1 << 30, u64::from(u32::MAX)] {
        // A `(usize, ParamSet)` sequence: 56 B per element in memory.
        let parts = ColMsg::ModelReply {
            worker: 0,
            parts: Vec::new(),
        };
        // A string.
        let info = ColMsg::WorkerPanic {
            worker: 1,
            info: String::new(),
        };
        // An `f64` run.
        let data = RowMsg::RingChunk {
            phase: 0,
            step: 0,
            data: Vec::new(),
        };
        announce_a_gibibyte(&parts, count).unwrap();
        announce_a_gibibyte(&info, count).unwrap();
        announce_a_gibibyte(&data, count).unwrap();
    }
}

proptest! {
    #[test]
    fn untrusted_rowmsg_bytes_decode_to_a_message_or_a_typed_error(
        seed in 0u64..1_000,
        d in damage(),
    ) {
        decode_damaged::<RowMsg>(&row_bodies(seed), &d)?;
    }

    #[test]
    fn untrusted_colmsg_bytes_decode_to_a_message_or_a_typed_error(
        seed in 0u64..1_000,
        d in damage(),
    ) {
        decode_damaged::<ColMsg>(&col_bodies(seed), &d)?;
    }
}
