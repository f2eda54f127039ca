//! Every `RowMsg` kind survives the wire codec — under randomized
//! payloads (proptest), and across a real loopback-TCP socket per
//! message kind, metered at its encoded length plus the envelope — and a
//! payload with no encoding is the same typed error on both transports.

use std::sync::Arc;
use std::time::Duration;

use columnsgd_cluster::codec::{decode_body_checked, decode_envelope_header, WireCodec};
use columnsgd_cluster::telemetry::{Plane, Recorder};
use columnsgd_cluster::{
    CodecError, NetError, NodeId, Router, TcpClient, TcpHub, TrafficStats, ENVELOPE_BYTES,
};
use columnsgd_linalg::{CsrMatrix, SparseVector};
use columnsgd_ml::params::{ParamSet, SparseGrad};
use columnsgd_rowsgd::msg::RowMsg;
use proptest::prelude::*;

/// Deterministic pseudo-random f64 in [-500, 500) from an integer stream.
fn noise(seed: u64, i: u64) -> f64 {
    (((seed ^ i).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 11) % 1000) as f64 - 500.0
}

fn sample_rows(seed: u64, nrows: usize) -> CsrMatrix {
    let rows: Vec<(f64, SparseVector)> = (0..nrows)
        .map(|r| {
            let label = if (seed + r as u64).is_multiple_of(2) {
                1.0
            } else {
                -1.0
            };
            let pairs: Vec<(u64, f64)> = (0..1 + (seed + r as u64) % 4)
                .map(|j| (r as u64 * 13 + j * 2, noise(seed, r as u64 * 5 + j)))
                .collect();
            (label, SparseVector::from_pairs(pairs))
        })
        .collect();
    CsrMatrix::from_rows(&rows)
}

fn sample_params(seed: u64, dim: usize, widths: &[usize]) -> ParamSet {
    let mut p = ParamSet::zeros(dim, widths);
    for (bi, b) in p.blocks.iter_mut().enumerate() {
        for i in 0..b.len() {
            b.set(i, noise(seed, (bi * 1000 + i) as u64));
        }
    }
    p
}

fn sample_grad(seed: u64, nnz: usize, widths: &[usize]) -> SparseGrad {
    SparseGrad {
        indices: (0..nnz as u64).map(|i| i * 3 + seed % 7).collect(),
        blocks: widths
            .iter()
            .map(|w| (0..nnz * w).map(|i| noise(seed, i as u64)).collect())
            .collect(),
        widths: widths.to_vec(),
    }
}

/// One randomized instance of every `RowMsg` variant.
fn all_variants(seed: u64, nrows: usize, data: Vec<f64>) -> Vec<RowMsg> {
    let widths = match seed % 3 {
        0 => vec![1],
        1 => vec![1, 1 + (seed % 8) as usize],
        _ => vec![1; 2 + (seed % 6) as usize],
    };
    let dim = 2 + (seed % 7) as usize;
    let msgs = vec![
        RowMsg::LoadRows(sample_rows(seed, nrows)),
        RowMsg::LoadAck {
            worker: (seed % 16) as usize,
        },
        RowMsg::FullModelGrad {
            iteration: seed,
            params: sample_params(seed, dim, &widths),
        },
        RowMsg::RequestIndices { iteration: seed },
        RowMsg::IndicesReply {
            iteration: seed,
            worker: (seed % 16) as usize,
            indices: (0..nrows as u64).map(|i| i * 5 + seed % 11).collect(),
            compute_s: noise(seed, 1).abs(),
        },
        RowMsg::SparseModelGrad {
            iteration: seed,
            values: sample_grad(seed, nrows, &widths),
        },
        RowMsg::GradReplySparse {
            iteration: seed,
            worker: (seed % 16) as usize,
            grad: sample_grad(seed.wrapping_add(1), nrows, &widths),
            loss: noise(seed, 2),
            compute_s: noise(seed, 3).abs(),
        },
        RowMsg::GradReplyDense {
            iteration: seed,
            worker: (seed % 16) as usize,
            grad: sample_params(seed.wrapping_add(2), dim, &widths),
            loss: noise(seed, 4),
            compute_s: noise(seed, 5).abs(),
        },
        RowMsg::LocalStep { iteration: seed },
        RowMsg::RingChunk {
            phase: (seed % 2) as u8,
            step: (seed % 100) as u32,
            data: data.clone(),
        },
        RowMsg::StepDone {
            iteration: seed,
            worker: (seed % 16) as usize,
            loss: noise(seed, 6),
            compute_s: noise(seed, 7).abs(),
        },
        RowMsg::FetchModel,
        RowMsg::ModelReply {
            worker: (seed % 16) as usize,
            params: sample_params(seed.wrapping_add(3), dim, &widths),
        },
        RowMsg::Shutdown,
    ];
    assert_eq!(msgs.len(), 14, "one instance per RowMsg variant");
    msgs
}

fn body_bytes(m: &RowMsg) -> Vec<u8> {
    let mut out = Vec::new();
    m.encode_body(&mut out).expect("encode");
    out
}

proptest! {
    /// For every message kind, under randomized payloads: the envelope
    /// header decodes and decode∘encode is the identity (compared via
    /// re-encoded bytes — `RowMsg` is not `PartialEq`).
    #[test]
    fn every_kind_roundtrips(
        seed in 0u64..1_000_000,
        nrows in 1usize..6,
        data in prop::collection::vec(0u64..100_000, 0..12),
    ) {
        let data: Vec<f64> = data.iter().map(|&x| x as f64 * 0.25 - 12_500.0).collect();
        for msg in all_variants(seed, nrows, data) {
            let frame = columnsgd_cluster::codec::encode_envelope(
                NodeId::Worker(0),
                NodeId::Master,
                &msg,
                Plane::Data,
            )
            .expect("encodable");
            decode_envelope_header(&frame).expect("header");
            let back: RowMsg = decode_body_checked(&frame).expect("decode");
            prop_assert_eq!(body_bytes(&back), body_bytes(&msg), "roundtrip for {}", msg.name());
        }
    }
}

/// Every message kind survives a real loopback-TCP round trip via an
/// echo worker thread, and the meter records exactly the encoded length
/// plus `ENVELOPE_BYTES` per crossing.
#[test]
fn every_kind_roundtrips_over_loopback_tcp() {
    let ids = [NodeId::Master, NodeId::Worker(0)];
    let traffic = TrafficStats::new();
    let hub: TcpHub<RowMsg> = TcpHub::bind(&[NodeId::Master], &[NodeId::Worker(0)]).unwrap();
    let router = Router::with_transport(
        Arc::new(hub.clone()),
        &ids,
        traffic.clone(),
        None,
        Recorder::disabled(),
    );
    let master = hub.local_endpoint(NodeId::Master, &router);
    hub.start(router);
    let addr = hub.addr();
    let echo = std::thread::spawn(move || {
        let (_r, ep) = TcpClient::<RowMsg>::connect(
            addr,
            NodeId::Worker(0),
            &[NodeId::Master, NodeId::Worker(0)],
        )
        .unwrap();
        loop {
            let Ok(env) = ep.recv() else { return };
            let stop = matches!(env.payload, RowMsg::Shutdown);
            ep.send(NodeId::Master, env.payload).unwrap();
            if stop {
                return;
            }
        }
    });
    hub.await_workers(&[NodeId::Worker(0)], Duration::from_secs(10))
        .unwrap();

    let msgs = all_variants(11, 4, vec![0.5, -3.75, 1e300]);
    // Shutdown doubles as the echo loop's stop signal; send it last.
    let mut msgs: Vec<RowMsg> = msgs
        .into_iter()
        .filter(|m| !matches!(m, RowMsg::Shutdown))
        .collect();
    msgs.push(RowMsg::Shutdown);
    let mut expect_bytes = 0u64;
    for msg in &msgs {
        master.send(NodeId::Worker(0), msg.clone()).unwrap();
        let env = master.recv_timeout(Duration::from_secs(10)).unwrap();
        assert_eq!(env.from, NodeId::Worker(0));
        assert_eq!(
            body_bytes(&env.payload),
            body_bytes(msg),
            "echo mutated {} on the wire",
            msg.name()
        );
        expect_bytes += 2 * (body_bytes(msg).len() + ENVELOPE_BYTES) as u64;
    }
    echo.join().unwrap();
    let total = traffic.total();
    assert_eq!(total.messages as usize, 2 * msgs.len());
    assert_eq!(total.bytes, expect_bytes);
    hub.shutdown();
}

/// A payload with no encoding — a `ParamSet` with one width for two
/// blocks — is refused with the same typed error by `send`,
/// `send_reliable` and `broadcast` on both transports, and nothing is
/// metered: the router counts a message through its encoder before it
/// meters or delivers it.
#[test]
fn unencodable_payload_is_a_typed_error_on_both_transports() {
    let bad = || RowMsg::FullModelGrad {
        iteration: 1,
        params: ParamSet {
            blocks: vec![vec![1.0].into(), vec![2.0].into()],
            widths: vec![1],
        },
    };
    let (m, w0) = (NodeId::Master, NodeId::Worker(0));
    let ids = [m, w0];
    let refused = |router: &Router<RowMsg>, from: NodeId, to: NodeId| {
        let errors = [
            router.send(from, to, bad()),
            router.send_reliable(from, to, bad()),
            router.broadcast(from, &[to], &bad()).remove(0),
        ];
        for e in &errors {
            assert!(
                matches!(e, Err(NetError::Unencodable(CodecError::Malformed(_)))),
                "{e:?}"
            );
        }
        errors
    };

    let traffic = TrafficStats::new();
    let (router, _eps) = Router::<RowMsg>::new(&ids, traffic.clone());
    let inproc = refused(&router, m, w0);
    assert_eq!(traffic.total().bytes, 0);

    let traffic = TrafficStats::new();
    let hub: TcpHub<RowMsg> = TcpHub::bind(&[m], &[w0]).unwrap();
    let router = Router::with_transport(
        Arc::new(hub.clone()),
        &ids,
        traffic.clone(),
        None,
        Recorder::disabled(),
    );
    hub.start(router.clone());
    let (client, _ep) = TcpClient::<RowMsg>::connect(hub.addr(), w0, &ids).unwrap();
    hub.await_workers(&[w0], Duration::from_secs(10)).unwrap();
    assert_eq!(refused(&router, m, w0), inproc, "hub side");
    assert_eq!(refused(&client, w0, m), inproc, "worker side");
    assert_eq!(traffic.total().bytes, 0);
    hub.shutdown();
}
