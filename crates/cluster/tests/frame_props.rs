//! Stream framing through reused buffers: whatever bytes arrive, a reader
//! that keeps one frame buffer never panics and holds no more memory than
//! the bytes it has received justify; a reused buffer never hands back a
//! stale tail of an earlier, larger frame; and a message frame leaves its
//! writer in exactly one `write` call, byte-identical to the two-call
//! `write_frame(encode_envelope(..))`. The header and telemetry decoders
//! trust nothing either: any bytes give a header or a typed error.

use std::io::{self, Cursor, Read, Write};

use columnsgd_cluster::codec::{
    decode_body_checked, decode_envelope_header, decode_telemetry_body, encode_clock_echo,
    encode_clock_probe, encode_envelope, encode_envelope_into, encode_hello,
    encode_telemetry_events, read_frame, read_frame_into, write_frame, write_prefixed_frame,
    CodecError, ENVELOPE_BYTES,
};
use columnsgd_cluster::telemetry::Plane;
use columnsgd_cluster::NodeId;
use proptest::prelude::*;

/// The codec's retention floor: buffers up to this size are always kept,
/// and a length prefix alone reserves no more.
const RETAIN_FLOOR: usize = 64 << 10;

/// A reader that hands out at most `chunk` bytes per call (a socket
/// delivering a frame in pieces) and counts what it delivered.
struct Trickle {
    inner: Cursor<Vec<u8>>,
    chunk: usize,
    delivered: usize,
}

impl Read for Trickle {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = buf.len().min(self.chunk);
        let got = self.inner.read(&mut buf[..n])?;
        self.delivered += got;
        Ok(got)
    }
}

/// A writer that counts `write` calls.
#[derive(Default)]
struct CountingWriter {
    bytes: Vec<u8>,
    writes: usize,
}

impl Write for CountingWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.writes += 1;
        self.bytes.extend_from_slice(buf);
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

/// One piece of an arbitrary stream: a length prefix (plausible, at the
/// envelope bound, oversized, or raw) followed by raw bytes.
fn piece() -> impl Strategy<Value = Vec<u8>> {
    let prefix = prop_oneof![
        (0u32..400).prop_map(|n| n.to_le_bytes().to_vec()),
        (31u32..34).prop_map(|n| n.to_le_bytes().to_vec()),
        ((1u32 << 16)..(1 << 20)).prop_map(|n| n.to_le_bytes().to_vec()),
        Just((1u32 << 30).to_le_bytes().to_vec()),
        Just(u32::MAX.to_le_bytes().to_vec()),
        prop::collection::vec(0u8..=255, 0..4),
    ];
    (prefix, prop::collection::vec(0u8..=255, 0..600)).prop_map(|(mut p, body)| {
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
        Just(encode_clock_probe(m, w, 7)),
        Just(encode_clock_echo(w, m, 7, 9)),
        Just(encode_telemetry_events(w, m, &[])),
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
        match decode_telemetry_body(&frame) {
            Ok(_) => prop_assert!(frame.len() > ENVELOPE_BYTES),
            Err(e) => prop_assert!(explained(&e), "{e:?}"),
        }
    }

    /// Arbitrary bytes through one reused buffer: every call returns (a
    /// frame, clean EOF or an error) without panicking, and capacity stays
    /// within 2 × bytes received + the retention floor.
    #[test]
    fn arbitrary_streams_never_panic_and_stay_bounded(
        pieces in prop::collection::vec(piece(), 1..12),
        chunk in 1usize..2048,
    ) {
        let mut r = Trickle { inner: Cursor::new(pieces.concat()), chunk, delivered: 0 };
        let mut buf = Vec::new();
        loop {
            let got = read_frame_into(&mut r, &mut buf);
            prop_assert!(
                buf.capacity() <= 2 * r.delivered + RETAIN_FLOOR,
                "capacity {} after {} bytes received", buf.capacity(), r.delivered
            );
            match got {
                Ok(Some(n)) => prop_assert!(n == buf.len() && n >= 32),
                Ok(None) | Err(_) => break,
            }
        }
    }

    /// Valid frames, largest first, read through one reused buffer: each is
    /// byte-identical to a fresh `read_frame` of the same stream and
    /// decodes to its payload, and the buffer kept afterwards is at most
    /// 4× the larger of this frame and the one before (or the retention
    /// floor), so large frames that stop coming release their buffer.
    #[test]
    fn reused_read_buffer_never_decodes_a_stale_tail(
        frames in prop::collection::vec((0usize..24_000, 0u64..1000, 0u8..=255), 1..8),
        chunk in 512usize..65_536,
    ) {
        let mut frames = frames;
        frames.sort_by_key(|f| std::cmp::Reverse(f.0));
        let mut stream = Vec::new();
        let mut sent = Vec::new();
        for &(len, seed, code) in &frames {
            let p = payload(len, seed);
            let f = encode_envelope(node(code), node(code / 3), &p, plane(code)).unwrap();
            write_frame(&mut stream, &f).unwrap();
            sent.push(p);
        }
        let mut reused = Trickle { inner: Cursor::new(stream.clone()), chunk, delivered: 0 };
        let mut fresh = Cursor::new(stream);
        let mut buf = Vec::new();
        let mut prev = 0;
        for p in &sent {
            let n = read_frame_into(&mut reused, &mut buf).unwrap().unwrap();
            let want = read_frame(&mut fresh).unwrap().unwrap();
            prop_assert!(buf[..n] == want[..], "reused buffer differs from a fresh read");
            prop_assert_eq!(&decode_body_checked::<Vec<f64>>(&buf[..n]).unwrap(), p);
            prop_assert!(
                buf.capacity() <= (4 * n.max(prev)).max(RETAIN_FLOOR),
                "kept {} bytes for a {n}-byte frame after a {prev}-byte one", buf.capacity()
            );
            prev = n;
        }
        prop_assert!(read_frame_into(&mut reused, &mut buf).unwrap().is_none());
    }

    /// Every message frame is one `write` call, and the bytes equal
    /// `write_frame(encode_envelope(..))`, through one reused encode
    /// buffer in any size order.
    #[test]
    fn one_write_per_message_frame(
        frames in prop::collection::vec((0usize..24_000, 0u64..1000, 0u8..=255), 1..8),
    ) {
        let mut out = Vec::new();
        let mut w = CountingWriter::default();
        let mut prev = 0;
        for (i, &(len, seed, code)) in frames.iter().enumerate() {
            let p = payload(len, seed);
            let (from, to, pl) = (node(code), node(code / 3), plane(code));
            encode_envelope_into(&mut out, from, to, &p, pl).unwrap();
            let before = w.bytes.len();
            write_prefixed_frame(&mut w, &out).unwrap();
            prop_assert_eq!(w.writes, i + 1);
            let mut want = Vec::new();
            write_frame(&mut want, &encode_envelope(from, to, &p, pl).unwrap()).unwrap();
            prop_assert!(w.bytes[before..] == want[..], "frame {i} bytes differ");
            prop_assert!(
                out.capacity() <= (4 * out.len().max(prev)).max(RETAIN_FLOOR),
                "kept {} bytes for a {}-byte frame after a {prev}-byte one",
                out.capacity(), out.len()
            );
            prev = out.len();
        }
    }
}
