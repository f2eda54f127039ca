//! Stream framing through one fixed window. Whatever bytes arrive, a
//! `FrameReader` never panics and its buffer stays one window; a body
//! decoded as it arrives, in pieces of any size, equals the whole-frame
//! decode, error for error. A streamed send leaves every destination
//! exactly the bytes of `write_frame(encode_envelope(..))`, in one
//! `write` per window, and neither end allocates in proportion to the
//! frame beyond the decoded payload itself. The header and telemetry
//! decoders trust nothing either: any bytes give a header or a typed
//! error.
//!
//! The allocation probe is this binary's global allocator: it forwards
//! to `System` and counts the bytes each thread requests.

#[expect(clippy::disallowed_types, reason = "the probe is the global allocator")]
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::{self, BufReader, Cursor, Read, Write};

use columnsgd_cluster::codec::{
    decode_body_checked, decode_body_from, decode_envelope_header, encode_envelope, encode_hello,
    write_envelope_to, write_frame, CodecError, FrameKind, FrameReader, TelemetryPayload,
    WireCodec, ENVELOPE_BYTES,
};
use columnsgd_cluster::telemetry::{
    CommFault, CommRecord, Event, FaultRecord, KernelRecord, NodeRef, Phase, Plane, ProfRecord,
    SuperstepSpan,
};
use columnsgd_cluster::NodeId;
use columnsgd_data::workset::split_block;
use columnsgd_data::{Block, ColumnPartitioner};
use columnsgd_linalg::{CsrMatrix, DenseVector, SparseVector};
use proptest::prelude::*;

thread_local! {
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

/// `System`, counting the bytes each thread asks for.
struct CountingAlloc;

fn note(size: usize) {
    // `try_with`: allocations also happen while thread locals are torn down.
    let _ = ALLOCATED.try_with(|a| a.set(a.get() + size));
}

// SAFETY: every call is forwarded to `System` unchanged; the bookkeeping
// touches only a const-initialized thread local, which never allocates.
#[expect(clippy::disallowed_methods, reason = "the probe forwards to System")]
unsafe impl GlobalAlloc for CountingAlloc {
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
    static ALLOCATOR: super::CountingAlloc = super::CountingAlloc;
}

/// `f`'s result and the bytes this thread allocated while it ran.
fn allocated_by<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATED.with(Cell::get);
    let out = f();
    (out, ALLOCATED.with(Cell::get) - before)
}

/// The codec's window: a `FrameReader`'s buffer size.
fn window() -> usize {
    FrameReader::new(io::empty()).capacity()
}

/// A reader that hands out at most `chunk` bytes per call (a socket
/// delivering a frame in pieces).
struct Trickle {
    inner: Cursor<Vec<u8>>,
    chunk: usize,
}

impl Read for Trickle {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = buf.len().min(self.chunk);
        self.inner.read(&mut buf[..n])
    }
}

/// A writer that checks each byte against the frame it should receive
/// without storing any, and counts its `write` calls.
struct Expecting {
    want: Vec<u8>,
    at: usize,
    writes: usize,
    largest: usize,
    matches: bool,
}

impl Expecting {
    fn new(want: Vec<u8>) -> Self {
        Expecting {
            want,
            at: 0,
            writes: 0,
            largest: 0,
            matches: true,
        }
    }

    fn complete(&self) -> bool {
        self.matches && self.at == self.want.len()
    }
}

impl Write for Expecting {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.writes += 1;
        self.largest = self.largest.max(buf.len());
        let end = self.at + buf.len();
        self.matches &= self.want.get(self.at..end) == Some(buf);
        self.at = end;
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

fn node(code: u8) -> NodeId {
    match code % 3 {
        0 => NodeId::Master,
        1 => NodeId::Worker(code as usize / 3),
        _ => NodeId::Server(code as usize / 3),
    }
}

fn plane(code: u8) -> Plane {
    if code.is_multiple_of(2) {
        Plane::Data
    } else {
        Plane::Control
    }
}

/// A payload of `len` scalars whose values depend on `seed`.
fn payload(len: usize, seed: u64) -> Vec<f64> {
    (0..len).map(|i| (seed ^ i as u64) as f64 * 0.5).collect()
}

/// `write_frame(encode_envelope(..))`: what a stream must carry.
fn prefixed<M: WireCodec>(from: NodeId, to: NodeId, m: &M, pl: Plane) -> Vec<u8> {
    let mut out = Vec::new();
    write_frame(&mut out, &encode_envelope(from, to, m, pl).unwrap()).unwrap();
    out
}

/// A whole frame of `kind`, as `write_envelope_to` streams it, less its
/// length prefix.
fn frame_of<M: WireCodec>(from: NodeId, to: NodeId, m: &M, kind: FrameKind) -> Vec<u8> {
    let mut dests = [(to, Vec::new())];
    assert!(write_envelope_to(&mut dests, from, m, kind).unwrap()[0].is_ok());
    let [(_, stream)] = dests;
    stream[4..].to_vec()
}

fn telemetry(from: NodeId, to: NodeId, payload: TelemetryPayload) -> Vec<u8> {
    frame_of(from, to, &payload, FrameKind::Telemetry)
}

fn probe(master_nanos: u64) -> TelemetryPayload {
    TelemetryPayload::ClockProbe { master_nanos }
}

fn echo(master_nanos: u64, client_nanos: u64) -> TelemetryPayload {
    TelemetryPayload::ClockEcho {
        master_nanos,
        client_nanos,
    }
}

/// One piece of an arbitrary stream: a length prefix (plausible, at the
/// envelope bound, oversized, or raw), then a real header or raw bytes,
/// then raw bytes.
fn piece() -> impl Strategy<Value = Vec<u8>> {
    let prefix = prop_oneof![
        (0u32..400).prop_map(|n| n.to_le_bytes().to_vec()),
        (31u32..34).prop_map(|n| n.to_le_bytes().to_vec()),
        ((1u32 << 16)..(1 << 20)).prop_map(|n| n.to_le_bytes().to_vec()),
        Just((1u32 << 30).to_le_bytes().to_vec()),
        Just(u32::MAX.to_le_bytes().to_vec()),
        prop::collection::vec(0u8..=255, 0..4),
    ];
    let header = prop_oneof![
        Just(Vec::new()),
        Just(
            encode_envelope(
                NodeId::Master,
                NodeId::Worker(0),
                &payload(40, 3),
                Plane::Data
            )
            .unwrap()[..ENVELOPE_BYTES]
                .to_vec()
        ),
        Just(telemetry(NodeId::Master, NodeId::Worker(0), probe(7))[..ENVELOPE_BYTES].to_vec()),
        Just(encode_hello(NodeId::Worker(0))),
    ];
    (prefix, header, prop::collection::vec(0u8..=255, 0..600)).prop_map(|(mut p, h, body)| {
        p.extend_from_slice(&h);
        p.extend_from_slice(&body);
        p
    })
}

/// A decoder's input: a real frame with its body length rewritten (small,
/// or near `u64::MAX`), some bytes overwritten, then cut and extended —
/// or plain noise.
fn mangled_frame() -> impl Strategy<Value = Vec<u8>> {
    let (w, m) = (NodeId::Worker(1), NodeId::Master);
    let base = prop_oneof![
        Just(encode_hello(w)),
        Just(telemetry(m, w, probe(7))),
        Just(telemetry(w, m, echo(7, 9))),
        Just(telemetry(w, m, TelemetryPayload::Events(Vec::new()))),
        Just(encode_envelope(m, w, &payload(3, 1), Plane::Data).unwrap()),
        prop::collection::vec(0u8..=255, 0..80),
    ];
    let body_len = prop_oneof![
        Just(None),
        (0u64..200).prop_map(Some),
        ((u64::MAX - 64)..=u64::MAX).prop_map(Some),
    ];
    let flips = prop::collection::vec((0usize..4096, 0u8..=255), 0..6);
    let tail = prop::collection::vec(0u8..=255, 0..40);
    (base, body_len, flips, 0usize..4, tail).prop_map(|(mut f, len, flips, cut, tail)| {
        if let (Some(n), Some(field)) = (len, f.get_mut(24..32)) {
            field.copy_from_slice(&n.to_le_bytes());
        }
        for (at, b) in flips {
            if !f.is_empty() {
                let i = at % f.len();
                f[i] = b;
            }
        }
        f.truncate(f.len().saturating_sub(cut));
        f.extend_from_slice(&tail);
        f
    })
}

/// A decode failure is a `CodecError` by type; it must also say what
/// went wrong, for the log line that reports it.
fn explained(e: &CodecError) -> bool {
    !e.to_string().is_empty()
}

/// Decodes the body of `frame` both ways — whole, and streamed through a
/// `cap`-byte buffer over a reader handing out `chunk` bytes per call —
/// and checks the two agree, error for error.
fn both_ways<M: WireCodec + PartialEq + std::fmt::Debug>(
    frame: &[u8],
    cap: usize,
    chunk: usize,
) -> Result<(), String> {
    let whole = decode_body_checked::<M>(frame);
    let body = frame.get(ENVELOPE_BYTES..).unwrap_or_default().to_vec();
    let body_len = body.len();
    let mut r = BufReader::with_capacity(
        cap,
        Trickle {
            inner: Cursor::new(body),
            chunk,
        },
    );
    let streamed = decode_body_from::<M, _>(&mut r, body_len);
    if frame.len() >= ENVELOPE_BYTES {
        prop_assert_eq!(streamed, whole);
    }
    Ok(())
}

/// One sample of every cluster-level payload type, from `seed`.
fn samples(seed: u64) -> Vec<Vec<u8>> {
    let rows: Vec<(f64, SparseVector)> = (0..2 + seed % 4)
        .map(|r| {
            let pairs = (0..1 + (seed + r) % 3).map(|j| (r * 5 + j * 3, 0.25 * j as f64 - 1.0));
            (1.0, SparseVector::from_pairs(pairs.collect()))
        })
        .collect();
    let block = Block::from_rows(seed, &rows);
    let ws = split_block(&block, &ColumnPartitioner::round_robin(2));
    let (m, w) = (NodeId::Master, NodeId::Worker(1));
    vec![
        encode_envelope(m, w, &payload(seed as usize % 50, seed), Plane::Data).unwrap(),
        encode_envelope(m, w, &block, Plane::Data).unwrap(),
        encode_envelope(m, w, &ws[0], Plane::Data).unwrap(),
        encode_envelope(m, w, &CsrMatrix::from_rows(&rows), Plane::Data).unwrap(),
        encode_envelope(m, w, &rows[0].1, Plane::Data).unwrap(),
        encode_envelope(m, w, &DenseVector::from_vec(payload(5, seed)), Plane::Data).unwrap(),
        encode_envelope(m, w, &format!("état {seed}"), Plane::Data).unwrap(),
        encode_envelope(m, w, &vec![(seed, 3usize), (4, 5)], Plane::Data).unwrap(),
    ]
}

proptest! {
    /// Any bytes into the header decoder: a header whose length invariant
    /// holds, or a typed error — never a panic or an overflow.
    #[test]
    fn envelope_header_decoder_never_panics(frame in mangled_frame()) {
        match decode_envelope_header(&frame) {
            Ok(h) => prop_assert_eq!(h.body_len + ENVELOPE_BYTES, frame.len()),
            Err(e) => prop_assert!(explained(&e), "{e:?}"),
        }
    }

    /// Any bytes into the telemetry body decoder: a payload or a typed
    /// error, whatever the header said.
    #[test]
    fn telemetry_body_decoder_never_panics(frame in mangled_frame()) {
        match decode_body_checked::<TelemetryPayload>(&frame) {
            Ok(_) => prop_assert!(frame.len() > ENVELOPE_BYTES),
            Err(e) => prop_assert!(explained(&e), "{e:?}"),
        }
    }

    /// Arbitrary bytes through one `FrameReader`: every header is read,
    /// and every body decoded or read whole, without panicking, and the
    /// reader's buffer stays one window throughout.
    #[test]
    fn arbitrary_streams_never_panic_and_keep_one_window(
        pieces in prop::collection::vec(piece(), 1..12),
        chunk in 1usize..2048,
    ) {
        let window = window();
        let mut r = FrameReader::new(Trickle { inner: Cursor::new(pieces.concat()), chunk });
        while let Ok(Some(h)) = r.next_header() {
            prop_assert_eq!(r.capacity(), window);
            let ok = match h.kind {
                FrameKind::Message(_) => r.decode_body::<Vec<f64>>(&h).is_ok(),
                FrameKind::Hello | FrameKind::Telemetry => {
                    r.read_whole(&h).is_ok_and(|f| f.len() == h.body_len + ENVELOPE_BYTES)
                }
            };
            prop_assert_eq!(r.capacity(), window);
            if !ok {
                break;
            }
        }
    }

    /// A body decoded as it arrives, in pieces of any size and through a
    /// buffer of any size, equals the whole-frame decode of every sample
    /// payload and of mangled frames, error for error.
    #[test]
    fn streamed_decode_equals_whole_frame_decode(
        seed in 0u64..1_000,
        frame in mangled_frame(),
        cap in 1usize..64,
        chunk in 1usize..512,
    ) {
        let frames = samples(seed);
        both_ways::<Vec<f64>>(&frames[0], cap, chunk)?;
        both_ways::<Block>(&frames[1], cap, chunk)?;
        both_ways::<columnsgd_data::Workset>(&frames[2], cap, chunk)?;
        both_ways::<CsrMatrix>(&frames[3], cap, chunk)?;
        both_ways::<SparseVector>(&frames[4], cap, chunk)?;
        both_ways::<DenseVector>(&frames[5], cap, chunk)?;
        both_ways::<String>(&frames[6], cap, chunk)?;
        both_ways::<Vec<(u64, usize)>>(&frames[7], cap, chunk)?;
        both_ways::<Vec<f64>>(&frame, cap, chunk)?;
        both_ways::<Block>(&frame, cap, chunk)?;
    }

    /// Valid frames of up to three windows, streamed to up to four
    /// destinations: each destination receives exactly its own
    /// `write_frame(encode_envelope(..))`, in ⌈n / window⌉ writes of at
    /// most one window — a frame that fits the window is one write — and
    /// a `FrameReader` decodes each back to its payload.
    #[test]
    fn one_write_per_window_per_destination(
        frames in prop::collection::vec((0usize..24_000, 0u64..1000, 0u8..=255), 1..6),
        k in 1usize..5,
        chunk in 512usize..65_536,
    ) {
        let window = window();
        for &(len, seed, code) in &frames {
            let p = payload(len, seed);
            let (from, pl) = (node(code), plane(code));
            let tos: Vec<NodeId> = (0..k).map(NodeId::Worker).collect();
            let mut dests: Vec<(NodeId, Expecting)> = tos
                .iter()
                .map(|&to| (to, Expecting::new(prefixed(from, to, &p, pl))))
                .collect();
            let sent = write_envelope_to(&mut dests, from, &p, FrameKind::Message(pl)).unwrap();
            prop_assert!(sent.iter().all(Result::is_ok));
            let n = dests[0].1.want.len();
            for (to, w) in &dests {
                prop_assert!(w.complete(), "{to}'s bytes differ from its own frame");
                prop_assert_eq!(w.writes, n.div_ceil(window), "{}-byte frame", n);
                prop_assert!(w.largest <= window);
            }
            let stream = dests.swap_remove(0).1.want;
            let mut r = FrameReader::new(Trickle { inner: Cursor::new(stream), chunk });
            let h = r.next_header().unwrap().unwrap();
            prop_assert_eq!(r.decode_body::<Vec<f64>>(&h).unwrap(), p);
            prop_assert!(r.next_header().unwrap().is_none());
        }
    }
}

/// Neither end's buffers grow with the frame: streaming a frame of any
/// size to three destinations allocates nothing once the thread's window
/// exists, and receiving one allocates the decoded payload, grown from
/// one window as its bytes arrive, and no frame-sized buffer beside it,
/// through a reader whose buffer stays one window.
#[test]
fn neither_end_buffers_grow_with_frame_size() {
    let window = window();
    let tos = [NodeId::Worker(0), NodeId::Worker(1), NodeId::Worker(2)];
    for len in [10, 8_000, 100_000, 1_000_000] {
        let p = payload(len, 3);
        let mut dests: Vec<(NodeId, Expecting)> = tos
            .iter()
            .map(|&to| {
                (
                    to,
                    Expecting::new(prefixed(NodeId::Master, to, &p, Plane::Data)),
                )
            })
            .collect();
        // The first frame on this thread may allocate its window.
        let data = FrameKind::Message(Plane::Data);
        write_envelope_to(&mut dests[..1], NodeId::Master, &7u64, data).unwrap();
        for (_, w) in &mut dests {
            w.at = 0;
            w.writes = 0;
            w.matches = true;
        }
        let (sent, bytes) =
            allocated_by(|| write_envelope_to(&mut dests, NodeId::Master, &p, data));
        assert!(sent.unwrap().iter().all(Result::is_ok));
        assert!(dests.iter().all(|(_, w)| w.complete()));
        assert!(bytes <= 1024, "sending {len} values allocated {bytes} B");

        let stream = dests.swap_remove(0).1.want;
        let mut r = FrameReader::new(Cursor::new(stream));
        // Decoded the way the protocol's bulk runs are (`Vec<f64>` and
        // `DenseVector` share their bytes).
        let (got, bytes) = allocated_by(|| {
            let h = r.next_header().unwrap().unwrap();
            r.decode_body::<DenseVector>(&h).unwrap()
        });
        assert_eq!(got.as_slice(), &p[..]);
        assert_eq!(r.capacity(), window);
        // Growing the payload costs at most an eighth of it at these
        // sizes; a second copy of the frame would cost all of it.
        assert!(
            bytes <= 8 * len + 8 * len / 4 + window + 1024,
            "receiving {len} values allocated {bytes} B"
        );
    }
}

/// One telemetry event of each of the five kinds.
fn one_event_of_each_kind() -> Vec<Event> {
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
        Event::Fault(FaultRecord {
            iteration: 5,
            worker: 0,
            fault: "non-finite statistics".to_string(),
            detection: "worker guard".to_string(),
            detection_latency_s: 0.5,
            recovery_cost_s: 0.0,
            attempt: 1,
            fatal: true,
        }),
        Event::Prof(ProfRecord {
            worker: Some(1),
            stack: "worker_stats;kernel_stats".to_string(),
            calls: 12,
            wall_s: 0.75,
            cpu_s: 0.5,
            alloc_bytes: 4096,
            alloc_count: 3,
        }),
    ]
}

/// FNV-1a, 64 bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// The non-message frames' exact bytes: the hello, a clock probe, a clock
/// echo and an event batch holding one event of each kind. A change to
/// any of them changes what goes on a socket.
#[test]
fn hello_and_telemetry_frames_are_pinned() {
    let (w, m) = (NodeId::Worker(2), NodeId::Master);
    // Header: from | to | flags | body_len, then the body.
    assert_eq!(
        hex(&encode_hello(w)),
        concat!(
            "0200000001000000",
            "0000000000000000",
            "0001000000000000",
            "0000000000000000",
        )
    );
    assert_eq!(
        hex(&telemetry(m, w, probe(0x0102_0304_0506_0708))),
        concat!(
            "0000000000000000",
            "0200000001000000",
            "0202000000000000",
            "0900000000000000",
            "00",
            "0807060504030201",
        )
    );
    assert_eq!(
        hex(&telemetry(w, m, echo(0x0102_0304_0506_0708, 987))),
        concat!(
            "0200000001000000",
            "0000000000000000",
            "0202000000000000",
            "1100000000000000",
            "01",
            "0807060504030201",
            "db03000000000000",
        )
    );
    let batch = telemetry(w, m, TelemetryPayload::Events(one_event_of_each_kind()));
    assert_eq!((batch.len(), fnv1a(&batch)), (370, 0x2e40_2e58_a8d4_4480));
}
