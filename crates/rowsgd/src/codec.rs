//! Byte-level serialization for [`RowMsg`] — the RowSGD wire format.
//!
//! Same contract as the ColumnSGD codec (`columnsgd_core::codec`): the
//! encoder is the message's size (`columnsgd_cluster::wire_size` counts
//! it), so the meter and the physically shipped frames agree on both
//! transports. The dense/sparse parameter payloads reuse the
//! width-packed helpers from the ColumnSGD codec.

use columnsgd_cluster::{CodecError, Sink, WireCodec, WireReader};
use columnsgd_core::codec::{put_param_set, put_sparse_grad, read_param_set, read_sparse_grad};
use columnsgd_linalg::CsrMatrix;

use crate::msg::RowMsg;

// Variant tags, in declaration order. A tag is one byte on the wire.
const T_LOAD_ROWS: u8 = 0;
const T_LOAD_ACK: u8 = 1;
const T_FULL_MODEL_GRAD: u8 = 2;
const T_REQUEST_INDICES: u8 = 3;
const T_INDICES_REPLY: u8 = 4;
const T_SPARSE_MODEL_GRAD: u8 = 5;
const T_GRAD_REPLY_SPARSE: u8 = 6;
const T_GRAD_REPLY_DENSE: u8 = 7;
const T_LOCAL_STEP: u8 = 8;
const T_RING_CHUNK: u8 = 9;
const T_STEP_DONE: u8 = 10;
const T_FETCH_MODEL: u8 = 11;
const T_MODEL_REPLY: u8 = 12;
const T_SHUTDOWN: u8 = 13;

impl WireCodec for RowMsg {
    fn kind(&self) -> &'static str {
        self.name()
    }

    fn encode_body<S: Sink>(&self, out: &mut S) -> Result<(), CodecError> {
        match self {
            RowMsg::LoadRows(rows) => {
                out.put_u8(T_LOAD_ROWS);
                rows.encode_body(out)?;
            }
            RowMsg::LoadAck { worker } => {
                out.put_u8(T_LOAD_ACK);
                out.put_usize(*worker);
            }
            RowMsg::FullModelGrad { iteration, params } => {
                out.put_u8(T_FULL_MODEL_GRAD);
                out.put_u64(*iteration);
                put_param_set(out, params)?;
            }
            RowMsg::RequestIndices { iteration } => {
                out.put_u8(T_REQUEST_INDICES);
                out.put_u64(*iteration);
            }
            RowMsg::IndicesReply {
                iteration,
                worker,
                indices,
                compute_s,
            } => {
                out.put_u8(T_INDICES_REPLY);
                out.put_u64(*iteration);
                out.put_usize(*worker);
                out.put_u64s(indices);
                out.put_f64(*compute_s);
            }
            RowMsg::SparseModelGrad { iteration, values } => {
                out.put_u8(T_SPARSE_MODEL_GRAD);
                out.put_u64(*iteration);
                put_sparse_grad(out, values)?;
            }
            RowMsg::GradReplySparse {
                iteration,
                worker,
                grad,
                loss,
                compute_s,
            } => {
                out.put_u8(T_GRAD_REPLY_SPARSE);
                out.put_u64(*iteration);
                out.put_usize(*worker);
                put_sparse_grad(out, grad)?;
                out.put_f64(*loss);
                out.put_f64(*compute_s);
            }
            RowMsg::GradReplyDense {
                iteration,
                worker,
                grad,
                loss,
                compute_s,
            } => {
                out.put_u8(T_GRAD_REPLY_DENSE);
                out.put_u64(*iteration);
                out.put_usize(*worker);
                put_param_set(out, grad)?;
                out.put_f64(*loss);
                out.put_f64(*compute_s);
            }
            RowMsg::LocalStep { iteration } => {
                out.put_u8(T_LOCAL_STEP);
                out.put_u64(*iteration);
            }
            RowMsg::RingChunk { phase, step, data } => {
                out.put_u8(T_RING_CHUNK);
                out.put_u8(*phase);
                out.put_u32(*step);
                out.put_f64s(data);
            }
            RowMsg::StepDone {
                iteration,
                worker,
                loss,
                compute_s,
            } => {
                out.put_u8(T_STEP_DONE);
                out.put_u64(*iteration);
                out.put_usize(*worker);
                out.put_f64(*loss);
                out.put_f64(*compute_s);
            }
            RowMsg::FetchModel => out.put_u8(T_FETCH_MODEL),
            RowMsg::ModelReply { worker, params } => {
                out.put_u8(T_MODEL_REPLY);
                out.put_usize(*worker);
                put_param_set(out, params)?;
            }
            RowMsg::Shutdown => out.put_u8(T_SHUTDOWN),
        }
        Ok(())
    }

    fn decode_body(r: &mut WireReader<'_>) -> Result<Self, CodecError> {
        Ok(match r.u8("rowsgd message tag")? {
            T_LOAD_ROWS => RowMsg::LoadRows(CsrMatrix::decode_body(r)?),
            T_LOAD_ACK => RowMsg::LoadAck {
                worker: r.usize("load-ack worker")?,
            },
            T_FULL_MODEL_GRAD => RowMsg::FullModelGrad {
                iteration: r.u64("iteration")?,
                params: read_param_set(r)?,
            },
            T_REQUEST_INDICES => RowMsg::RequestIndices {
                iteration: r.u64("iteration")?,
            },
            T_INDICES_REPLY => RowMsg::IndicesReply {
                iteration: r.u64("iteration")?,
                worker: r.usize("worker")?,
                indices: r.u64s("indices")?,
                compute_s: r.f64("compute_s")?,
            },
            T_SPARSE_MODEL_GRAD => RowMsg::SparseModelGrad {
                iteration: r.u64("iteration")?,
                values: read_sparse_grad(r)?,
            },
            T_GRAD_REPLY_SPARSE => RowMsg::GradReplySparse {
                iteration: r.u64("iteration")?,
                worker: r.usize("worker")?,
                grad: read_sparse_grad(r)?,
                loss: r.f64("loss")?,
                compute_s: r.f64("compute_s")?,
            },
            T_GRAD_REPLY_DENSE => RowMsg::GradReplyDense {
                iteration: r.u64("iteration")?,
                worker: r.usize("worker")?,
                grad: read_param_set(r)?,
                loss: r.f64("loss")?,
                compute_s: r.f64("compute_s")?,
            },
            T_LOCAL_STEP => RowMsg::LocalStep {
                iteration: r.u64("iteration")?,
            },
            T_RING_CHUNK => RowMsg::RingChunk {
                phase: r.u8("ring phase")?,
                step: r.u32("ring step")?,
                data: r.f64s("ring data")?,
            },
            T_STEP_DONE => RowMsg::StepDone {
                iteration: r.u64("iteration")?,
                worker: r.usize("worker")?,
                loss: r.f64("loss")?,
                compute_s: r.f64("compute_s")?,
            },
            T_FETCH_MODEL => RowMsg::FetchModel,
            T_MODEL_REPLY => RowMsg::ModelReply {
                worker: r.usize("model-reply worker")?,
                params: read_param_set(r)?,
            },
            T_SHUTDOWN => RowMsg::Shutdown,
            t => {
                return Err(CodecError::Malformed(format!(
                    "unknown rowsgd message tag {t}"
                )))
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use columnsgd_cluster::wire_size;
    use columnsgd_data::synth;
    use columnsgd_ml::{ParamSet, SparseGrad};

    fn samples() -> Vec<RowMsg> {
        let ds = synth::small_test_dataset(12, 9, 3);
        let rows: Vec<_> = ds.iter().cloned().collect();
        let csr = CsrMatrix::from_rows(&rows);
        let params = ParamSet::zeros(7, &[1, 4]);
        let grad = SparseGrad {
            indices: vec![1, 5, 6],
            blocks: vec![vec![0.5, -0.5, 1.5], vec![9.0; 12]],
            widths: vec![1, 4],
        };
        vec![
            RowMsg::LoadRows(csr),
            RowMsg::LoadAck { worker: 2 },
            RowMsg::FullModelGrad {
                iteration: 4,
                params: params.clone(),
            },
            RowMsg::RequestIndices { iteration: 4 },
            RowMsg::IndicesReply {
                iteration: 4,
                worker: 1,
                indices: vec![0, 3, 8],
                compute_s: 0.25,
            },
            RowMsg::SparseModelGrad {
                iteration: 4,
                values: grad.clone(),
            },
            RowMsg::GradReplySparse {
                iteration: 4,
                worker: 0,
                grad,
                loss: 0.7,
                compute_s: 0.01,
            },
            RowMsg::GradReplyDense {
                iteration: 4,
                worker: 3,
                grad: params.clone(),
                loss: 0.7,
                compute_s: 0.01,
            },
            RowMsg::LocalStep { iteration: 9 },
            RowMsg::RingChunk {
                phase: 1,
                step: 2,
                data: vec![1.0, 2.0, 3.0],
            },
            RowMsg::StepDone {
                iteration: 9,
                worker: 1,
                loss: 0.1,
                compute_s: 0.2,
            },
            RowMsg::FetchModel,
            RowMsg::ModelReply { worker: 0, params },
            RowMsg::Shutdown,
        ]
    }

    /// The codec invariant: decoding re-encodes identically, and the
    /// counted size is the encoded length, for every variant.
    #[test]
    fn every_variant_roundtrips() {
        // One sample per variant, proven complete: the patterns below are
        // an exhaustive match, so a new variant fails to compile here
        // until it is listed, and fails this test until it is sampled.
        let mut hit = std::collections::BTreeSet::new();
        let mut variants = 0;
        for msg in samples() {
            let (i, n) = columnsgd_cluster::variant_index!(msg;
                RowMsg::LoadRows(_),
                RowMsg::LoadAck { .. },
                RowMsg::FullModelGrad { .. },
                RowMsg::RequestIndices { .. },
                RowMsg::IndicesReply { .. },
                RowMsg::SparseModelGrad { .. },
                RowMsg::GradReplySparse { .. },
                RowMsg::GradReplyDense { .. },
                RowMsg::LocalStep { .. },
                RowMsg::RingChunk { .. },
                RowMsg::StepDone { .. },
                RowMsg::FetchModel,
                RowMsg::ModelReply { .. },
                RowMsg::Shutdown,
            );
            hit.insert(i);
            variants = n;
            let mut buf = Vec::new();
            msg.encode_body(&mut buf).expect("encode");
            assert_eq!(
                wire_size(&msg),
                Ok(buf.len()),
                "{}: counted size != encoded length",
                msg.name()
            );
            let mut r = WireReader::new(&buf);
            let back = RowMsg::decode_body(&mut r).expect("decode");
            r.finish("rowsgd roundtrip").expect("no trailing bytes");
            let mut buf2 = Vec::new();
            back.encode_body(&mut buf2).expect("re-encode");
            assert_eq!(buf, buf2, "{}: decode/re-encode diverged", msg.name());
        }
        assert_eq!(
            hit,
            (0..variants).collect(),
            "one sample per RowMsg variant"
        );
    }

    #[test]
    fn dense_model_message_scales_with_m() {
        let model = |dim| RowMsg::FullModelGrad {
            iteration: 0,
            params: ParamSet::zeros(dim, &[1]),
        };
        let (small, large) = (wire_size(&model(100)), wire_size(&model(100_000)));
        assert_eq!(large.unwrap() - small.unwrap(), 8 * (100_000 - 100));
    }

    #[test]
    fn sparse_messages_scale_with_nnz_not_m() {
        let grad = SparseGrad {
            indices: vec![5, 1_000_000_000],
            blocks: vec![vec![1.0, 2.0]],
            widths: vec![1],
        };
        let msg = RowMsg::GradReplySparse {
            iteration: 0,
            worker: 0,
            grad,
            loss: 0.0,
            compute_s: 0.0,
        };
        assert!(wire_size(&msg).unwrap() < 128);
    }

    #[test]
    fn unknown_tag_is_rejected() {
        let mut r = WireReader::new(&[200u8]);
        assert!(RowMsg::decode_body(&mut r).is_err());
    }
}
