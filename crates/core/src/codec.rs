//! Real serialization for the ColumnSGD protocol.
//!
//! [`ColMsg`] implements the cluster's [`WireCodec`]: a 1-byte variant
//! tag followed by the fields in declaration order (8-byte scalars,
//! 8-byte length headers, 1-byte bools). The encoder is also the size:
//! `columnsgd_cluster::codec::wire_size` runs it into a byte counter, so
//! the meter, the TCP frame and the engines' pricing read one number.
//!
//! ## Widths on the wire
//!
//! `ParamSet` and `SparseGrad` carry a `widths: Vec<usize>` layout
//! vector that costs no bytes of its own (the paper prices payload
//! bytes; the layout is implied by the model): the widths ride inside
//! length headers the payload needs anyway:
//!
//! * `ParamSet`: the 8-byte overall header carries the block count; each
//!   block's 8-byte length header packs `len | width << 48` (lengths are
//!   < 2^48, widths < 2^16 for every model in the taxonomy).
//! * `SparseGrad`: header one packs `nnz | nblocks << 48`; header two
//!   packs the widths — explicit 16-bit fields for up to 3 blocks
//!   (GLMs `[1]`, FM `[1, F]`), or a single uniform width when there are
//!   more (MLR `[1; C]`). Block lengths are implied: block `b` holds
//!   exactly `nnz * widths[b]` values.
//!
//! Layouts outside that taxonomy fail to encode with
//! [`CodecError::Unsupported`], and a message that cannot be encoded is
//! refused by the router before it is metered.

use columnsgd_cluster::{CodecError, Sink, WireCodec, WireReader};
use columnsgd_data::block::Block;
use columnsgd_data::Workset;
use columnsgd_linalg::DenseVector;
use columnsgd_ml::{ParamSet, SparseGrad};

use crate::msg::ColMsg;

/// Lengths live in the low 48 bits of a packed header.
const LEN_MASK: u64 = (1 << 48) - 1;
/// Widths/counts live in the high 16 bits of a packed header.
const WIDTH_MAX: usize = 1 << 16;

fn check_packable(len: usize, width: usize, what: &'static str) -> Result<(), CodecError> {
    if width >= WIDTH_MAX || (len as u64) > LEN_MASK {
        return Err(CodecError::Unsupported(format!(
            "{what}: width {width} / len {len} exceed the packed-header range"
        )));
    }
    Ok(())
}

/// Encodes a [`ParamSet`]: a block count, then per block a packed
/// `len | width << 48` header and the values.
pub fn put_param_set<S: Sink>(out: &mut S, p: &ParamSet) -> Result<(), CodecError> {
    if p.widths.len() != p.blocks.len() {
        return Err(CodecError::Malformed(format!(
            "ParamSet: {} widths for {} blocks",
            p.widths.len(),
            p.blocks.len()
        )));
    }
    out.put_usize(p.blocks.len());
    for (b, &w) in p.blocks.iter().zip(&p.widths) {
        check_packable(b.len(), w, "ParamSet block")?;
        out.put_u64(b.len() as u64 | (w as u64) << 48);
        out.put_f64_slice(b.as_slice());
    }
    Ok(())
}

/// Decodes a [`ParamSet`] encoded by [`put_param_set`].
pub fn read_param_set(r: &mut WireReader<'_>) -> Result<ParamSet, CodecError> {
    let nblocks = r.usize("ParamSet nblocks")?;
    let mut blocks = r.vec_for(nblocks);
    let mut widths = r.vec_for(nblocks);
    for _ in 0..nblocks {
        let header = r.u64("ParamSet block header")?;
        let len = (header & LEN_MASK) as usize;
        let width = (header >> 48) as usize;
        blocks.push(DenseVector::from_vec(
            r.f64s_exact(len, "ParamSet block values")?,
        ));
        widths.push(width);
    }
    Ok(ParamSet { blocks, widths })
}

/// Encodes a [`SparseGrad`]: two packed headers (nnz and block count,
/// then the widths), the indices, then each block's values.
pub fn put_sparse_grad<S: Sink>(out: &mut S, g: &SparseGrad) -> Result<(), CodecError> {
    let nnz = g.indices.len();
    let nb = g.widths.len();
    if g.blocks.len() != nb {
        return Err(CodecError::Malformed(format!(
            "SparseGrad: {} widths for {} blocks",
            nb,
            g.blocks.len()
        )));
    }
    check_packable(nnz, nb, "SparseGrad header")?;
    out.put_u64(nnz as u64 | (nb as u64) << 48);
    if nb <= 3 {
        let mut h2 = 0u64;
        for (i, &w) in g.widths.iter().enumerate() {
            check_packable(0, w, "SparseGrad width")?;
            h2 |= (w as u64) << (16 * i);
        }
        out.put_u64(h2);
    } else {
        let w0 = g.widths[0];
        if g.widths.iter().any(|&w| w != w0) {
            return Err(CodecError::Unsupported(format!(
                "SparseGrad: {nb} blocks with non-uniform widths {:?}",
                g.widths
            )));
        }
        check_packable(0, w0, "SparseGrad width")?;
        out.put_u64(w0 as u64);
    }
    out.put_u64_slice(&g.indices);
    for (b, &w) in g.blocks.iter().zip(&g.widths) {
        if b.len() != nnz * w {
            return Err(CodecError::Malformed(format!(
                "SparseGrad: block holds {} values, expected nnz {nnz} x width {w}",
                b.len()
            )));
        }
        out.put_f64_slice(b);
    }
    Ok(())
}

/// Decodes a [`SparseGrad`] encoded by [`put_sparse_grad`].
pub fn read_sparse_grad(r: &mut WireReader<'_>) -> Result<SparseGrad, CodecError> {
    let h1 = r.u64("SparseGrad header")?;
    let nnz = (h1 & LEN_MASK) as usize;
    let nb = (h1 >> 48) as usize;
    let h2 = r.u64("SparseGrad widths")?;
    let widths: Vec<usize> = if nb <= 3 {
        (0..nb)
            .map(|i| ((h2 >> (16 * i)) & 0xffff) as usize)
            .collect()
    } else {
        vec![h2 as usize; nb]
    };
    let indices = r.u64s_exact(nnz, "SparseGrad indices")?;
    if !indices.windows(2).all(|w| w[0] < w[1]) {
        return Err(CodecError::Malformed(
            "SparseGrad indices not strictly sorted".into(),
        ));
    }
    let mut blocks = Vec::with_capacity(nb);
    for &w in &widths {
        let len = nnz.checked_mul(w).ok_or(CodecError::Truncated {
            what: "SparseGrad block",
        })?;
        blocks.push(r.f64s_exact(len, "SparseGrad block")?);
    }
    Ok(SparseGrad {
        indices,
        blocks,
        widths,
    })
}

fn put_parts<S: Sink>(out: &mut S, parts: &[(usize, ParamSet)]) -> Result<(), CodecError> {
    out.put_usize(parts.len());
    for (pid, p) in parts {
        out.put_usize(*pid);
        put_param_set(out, p)?;
    }
    Ok(())
}

fn read_parts(r: &mut WireReader<'_>) -> Result<Vec<(usize, ParamSet)>, CodecError> {
    let len = r.usize("parts length")?;
    let mut parts = r.vec_for(len);
    for _ in 0..len {
        let pid = r.usize("part pid")?;
        parts.push((pid, read_param_set(r)?));
    }
    Ok(parts)
}

// Variant tags, in declaration order. Stable: the TCP backend puts them
// on a real wire between separately spawned processes.
const T_LOAD_BLOCK: u8 = 0;
const T_WORKSET: u8 = 1;
const T_LOAD_DONE: u8 = 2;
const T_LOAD_ACK: u8 = 3;
const T_COMPUTE_STATS: u8 = 4;
const T_STATS_REPLY: u8 = 5;
const T_UPDATE: u8 = 6;
const T_UPDATE_ACK: u8 = 7;
const T_DIE: u8 = 8;
const T_RELOAD_BLOCK: u8 = 9;
const T_RELOAD_DONE: u8 = 10;
const T_RELOAD_ACK: u8 = 11;
const T_FETCH_MODEL: u8 = 12;
const T_MODEL_REPLY: u8 = 13;
const T_PROBE: u8 = 14;
const T_PROBE_ACK: u8 = 15;
const T_WORKER_PANIC: u8 = 16;
const T_SHUTDOWN: u8 = 17;
const T_INSTALL_PARAMS: u8 = 18;
const T_COMPUTE_STATS_FOR: u8 = 19;
const T_STATS_REPLY_FOR: u8 = 20;
const T_SHARD_REQUEST: u8 = 21;
const T_SHARD_DATA: u8 = 22;
const T_SHARD_INSTALLED: u8 = 23;
const T_DROP_SHARD: u8 = 24;

impl WireCodec for ColMsg {
    fn kind(&self) -> &'static str {
        self.name()
    }

    fn encode_body<S: Sink>(&self, out: &mut S) -> Result<(), CodecError> {
        match self {
            ColMsg::LoadBlock(b) => {
                out.put_u8(T_LOAD_BLOCK);
                b.encode_body(out)
            }
            ColMsg::Workset { pid, ws } => {
                out.put_u8(T_WORKSET);
                out.put_usize(*pid);
                ws.encode_body(out)
            }
            ColMsg::LoadDone { blocks_total } => {
                out.put_u8(T_LOAD_DONE);
                out.put_usize(*blocks_total);
                Ok(())
            }
            ColMsg::LoadAck { worker, layout } => {
                out.put_u8(T_LOAD_ACK);
                out.put_usize(*worker);
                layout.encode_body(out)
            }
            ColMsg::ComputeStats {
                iteration,
                batch_size,
                attempt,
            } => {
                out.put_u8(T_COMPUTE_STATS);
                out.put_u64(*iteration);
                out.put_usize(*batch_size);
                out.put_u64(*attempt);
                Ok(())
            }
            ColMsg::StatsReply {
                iteration,
                worker,
                partial,
                compute_s,
                sample_s,
                task_failed,
            } => {
                out.put_u8(T_STATS_REPLY);
                out.put_u64(*iteration);
                out.put_usize(*worker);
                out.put_f64s(partial);
                out.put_f64(*compute_s);
                out.put_f64(*sample_s);
                out.put_u8(u8::from(*task_failed));
                Ok(())
            }
            ColMsg::Update { iteration, stats } => {
                out.put_u8(T_UPDATE);
                out.put_u64(*iteration);
                out.put_f64s(stats);
                Ok(())
            }
            ColMsg::UpdateAck {
                iteration,
                worker,
                compute_s,
            } => {
                out.put_u8(T_UPDATE_ACK);
                out.put_u64(*iteration);
                out.put_usize(*worker);
                out.put_f64(*compute_s);
                Ok(())
            }
            ColMsg::Die => {
                out.put_u8(T_DIE);
                Ok(())
            }
            ColMsg::ReloadBlock(b) => {
                out.put_u8(T_RELOAD_BLOCK);
                b.encode_body(out)
            }
            ColMsg::ReloadDone { blocks_total } => {
                out.put_u8(T_RELOAD_DONE);
                out.put_usize(*blocks_total);
                Ok(())
            }
            ColMsg::ReloadAck { worker } => {
                out.put_u8(T_RELOAD_ACK);
                out.put_usize(*worker);
                Ok(())
            }
            ColMsg::FetchModel => {
                out.put_u8(T_FETCH_MODEL);
                Ok(())
            }
            ColMsg::ModelReply { worker, parts } => {
                out.put_u8(T_MODEL_REPLY);
                out.put_usize(*worker);
                put_parts(out, parts)
            }
            ColMsg::Probe { iteration } => {
                out.put_u8(T_PROBE);
                out.put_u64(*iteration);
                Ok(())
            }
            ColMsg::ProbeAck {
                worker,
                iteration,
                loaded,
            } => {
                out.put_u8(T_PROBE_ACK);
                out.put_usize(*worker);
                out.put_u64(*iteration);
                out.put_u8(u8::from(*loaded));
                Ok(())
            }
            ColMsg::WorkerPanic { worker, info } => {
                out.put_u8(T_WORKER_PANIC);
                out.put_usize(*worker);
                out.put_str(info);
                Ok(())
            }
            ColMsg::Shutdown => {
                out.put_u8(T_SHUTDOWN);
                Ok(())
            }
            ColMsg::InstallParams { parts } => {
                out.put_u8(T_INSTALL_PARAMS);
                put_parts(out, parts)
            }
            ColMsg::ComputeStatsFor {
                iteration,
                batch_size,
                attempt,
                pids,
            } => {
                out.put_u8(T_COMPUTE_STATS_FOR);
                out.put_u64(*iteration);
                out.put_usize(*batch_size);
                out.put_u64(*attempt);
                pids.encode_body(out)
            }
            ColMsg::StatsReplyFor {
                iteration,
                worker,
                pids,
                partial,
                compute_s,
                sample_s,
                task_failed,
            } => {
                out.put_u8(T_STATS_REPLY_FOR);
                out.put_u64(*iteration);
                out.put_usize(*worker);
                pids.encode_body(out)?;
                out.put_f64s(partial);
                out.put_f64(*compute_s);
                out.put_f64(*sample_s);
                out.put_u8(u8::from(*task_failed));
                Ok(())
            }
            ColMsg::ShardRequest { pid, epoch, to } => {
                out.put_u8(T_SHARD_REQUEST);
                out.put_usize(*pid);
                out.put_u64(*epoch);
                out.put_usize(*to);
                Ok(())
            }
            ColMsg::ShardData {
                pid,
                epoch,
                worksets,
                params,
            } => {
                out.put_u8(T_SHARD_DATA);
                out.put_usize(*pid);
                out.put_u64(*epoch);
                out.put_usize(worksets.len());
                for ws in worksets {
                    ws.encode_body(out)?;
                }
                put_param_set(out, params)
            }
            ColMsg::ShardInstalled { pid, epoch, worker } => {
                out.put_u8(T_SHARD_INSTALLED);
                out.put_usize(*pid);
                out.put_u64(*epoch);
                out.put_usize(*worker);
                Ok(())
            }
            ColMsg::DropShard { pid, epoch } => {
                out.put_u8(T_DROP_SHARD);
                out.put_usize(*pid);
                out.put_u64(*epoch);
                Ok(())
            }
        }
    }

    fn decode_body(r: &mut WireReader<'_>) -> Result<Self, CodecError> {
        let tag = r.u8("ColMsg tag")?;
        Ok(match tag {
            T_LOAD_BLOCK => ColMsg::LoadBlock(Block::decode_body(r)?),
            T_WORKSET => ColMsg::Workset {
                pid: r.usize("Workset pid")?,
                ws: Workset::decode_body(r)?,
            },
            T_LOAD_DONE => ColMsg::LoadDone {
                blocks_total: r.usize("LoadDone blocks_total")?,
            },
            T_LOAD_ACK => ColMsg::LoadAck {
                worker: r.usize("LoadAck worker")?,
                layout: WireCodec::decode_body(r)?,
            },
            T_COMPUTE_STATS => ColMsg::ComputeStats {
                iteration: r.u64("ComputeStats iteration")?,
                batch_size: r.usize("ComputeStats batch_size")?,
                attempt: r.u64("ComputeStats attempt")?,
            },
            T_STATS_REPLY => ColMsg::StatsReply {
                iteration: r.u64("StatsReply iteration")?,
                worker: r.usize("StatsReply worker")?,
                partial: r.f64s("StatsReply partial")?,
                compute_s: r.f64("StatsReply compute_s")?,
                sample_s: r.f64("StatsReply sample_s")?,
                task_failed: r.bool("StatsReply task_failed")?,
            },
            T_UPDATE => ColMsg::Update {
                iteration: r.u64("Update iteration")?,
                stats: r.f64s("Update stats")?,
            },
            T_UPDATE_ACK => ColMsg::UpdateAck {
                iteration: r.u64("UpdateAck iteration")?,
                worker: r.usize("UpdateAck worker")?,
                compute_s: r.f64("UpdateAck compute_s")?,
            },
            T_DIE => ColMsg::Die,
            T_RELOAD_BLOCK => ColMsg::ReloadBlock(Block::decode_body(r)?),
            T_RELOAD_DONE => ColMsg::ReloadDone {
                blocks_total: r.usize("ReloadDone blocks_total")?,
            },
            T_RELOAD_ACK => ColMsg::ReloadAck {
                worker: r.usize("ReloadAck worker")?,
            },
            T_FETCH_MODEL => ColMsg::FetchModel,
            T_MODEL_REPLY => ColMsg::ModelReply {
                worker: r.usize("ModelReply worker")?,
                parts: read_parts(r)?,
            },
            T_PROBE => ColMsg::Probe {
                iteration: r.u64("Probe iteration")?,
            },
            T_PROBE_ACK => ColMsg::ProbeAck {
                worker: r.usize("ProbeAck worker")?,
                iteration: r.u64("ProbeAck iteration")?,
                loaded: r.bool("ProbeAck loaded")?,
            },
            T_WORKER_PANIC => ColMsg::WorkerPanic {
                worker: r.usize("WorkerPanic worker")?,
                info: r.str("WorkerPanic info")?,
            },
            T_SHUTDOWN => ColMsg::Shutdown,
            T_INSTALL_PARAMS => ColMsg::InstallParams {
                parts: read_parts(r)?,
            },
            T_COMPUTE_STATS_FOR => ColMsg::ComputeStatsFor {
                iteration: r.u64("ComputeStatsFor iteration")?,
                batch_size: r.usize("ComputeStatsFor batch_size")?,
                attempt: r.u64("ComputeStatsFor attempt")?,
                pids: WireCodec::decode_body(r)?,
            },
            T_STATS_REPLY_FOR => ColMsg::StatsReplyFor {
                iteration: r.u64("StatsReplyFor iteration")?,
                worker: r.usize("StatsReplyFor worker")?,
                pids: WireCodec::decode_body(r)?,
                partial: r.f64s("StatsReplyFor partial")?,
                compute_s: r.f64("StatsReplyFor compute_s")?,
                sample_s: r.f64("StatsReplyFor sample_s")?,
                task_failed: r.bool("StatsReplyFor task_failed")?,
            },
            T_SHARD_REQUEST => ColMsg::ShardRequest {
                pid: r.usize("ShardRequest pid")?,
                epoch: r.u64("ShardRequest epoch")?,
                to: r.usize("ShardRequest to")?,
            },
            T_SHARD_DATA => {
                let pid = r.usize("ShardData pid")?;
                let epoch = r.u64("ShardData epoch")?;
                let n = r.usize("ShardData worksets length")?;
                // No reservation: `vec_for` counts one wire byte
                // per element, and a `Workset` is 104 B in memory, so it
                // could reserve 104 × the frame. Grown by the worksets
                // that decode (≥ 32 wire bytes each), it stays near 6 ×.
                let mut worksets = Vec::new();
                for _ in 0..n {
                    worksets.push(Workset::decode_body(r)?);
                }
                ColMsg::ShardData {
                    pid,
                    epoch,
                    worksets,
                    params: read_param_set(r)?,
                }
            }
            T_SHARD_INSTALLED => ColMsg::ShardInstalled {
                pid: r.usize("ShardInstalled pid")?,
                epoch: r.u64("ShardInstalled epoch")?,
                worker: r.usize("ShardInstalled worker")?,
            },
            T_DROP_SHARD => ColMsg::DropShard {
                pid: r.usize("DropShard pid")?,
                epoch: r.u64("DropShard epoch")?,
            },
            other => return Err(CodecError::Malformed(format!("unknown ColMsg tag {other}"))),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use columnsgd_cluster::codec::Count;
    use columnsgd_cluster::wire_size;
    use columnsgd_linalg::SparseVector;

    fn roundtrip(msg: &ColMsg) {
        let mut buf = Vec::new();
        msg.encode_body(&mut buf).expect("encode");
        assert_eq!(
            wire_size(msg),
            Ok(buf.len()),
            "counted size != encoded length for {}",
            msg.name()
        );
        let mut r = WireReader::new(&buf);
        let back = ColMsg::decode_body(&mut r).expect("decode");
        r.finish("trailing").expect("no trailing bytes");
        // ColMsg is not PartialEq (CsrMatrix is, but deriving it on the
        // enum was never needed); compare via re-encoding.
        let mut buf2 = Vec::new();
        back.encode_body(&mut buf2).expect("re-encode");
        assert_eq!(buf, buf2, "re-encoded bytes differ for {}", msg.name());
    }

    fn sample_block(id: u64) -> Block {
        let rows: Vec<(f64, SparseVector)> = (0..5)
            .map(|i| {
                (
                    if i % 2 == 0 { 1.0 } else { -1.0 },
                    SparseVector::from_pairs(vec![(i, 0.5 + i as f64), (i + 7, -2.0)]),
                )
            })
            .collect();
        Block::from_rows(id, &rows)
    }

    fn sample_workset(block_id: u64) -> Workset {
        let parts = columnsgd_data::workset::split_block(
            &sample_block(block_id),
            &columnsgd_data::ColumnPartitioner::round_robin(2),
        );
        parts[0].clone()
    }

    fn sample_params(dim: usize, widths: &[usize]) -> ParamSet {
        let mut p = ParamSet::zeros(dim, widths);
        for (bi, b) in p.blocks.iter_mut().enumerate() {
            for i in 0..b.len() {
                b.set(i, (bi * 100 + i) as f64 * 0.25 - 3.0);
            }
        }
        p
    }

    #[test]
    fn every_variant_roundtrips() {
        let msgs = vec![
            ColMsg::LoadBlock(sample_block(3)),
            ColMsg::Workset {
                pid: 1,
                ws: sample_workset(3),
            },
            ColMsg::LoadDone { blocks_total: 4 },
            ColMsg::LoadAck {
                worker: 2,
                layout: vec![(0, 5), (1, 5)],
            },
            ColMsg::ComputeStats {
                iteration: 9,
                batch_size: 64,
                attempt: 1,
            },
            ColMsg::StatsReply {
                iteration: 9,
                worker: 2,
                partial: vec![0.5, -1.5, f64::NAN.copysign(-1.0)],
                compute_s: 0.25,
                sample_s: 0.01,
                task_failed: false,
            },
            ColMsg::Update {
                iteration: 9,
                stats: vec![1.0; 7],
            },
            ColMsg::UpdateAck {
                iteration: 9,
                worker: 2,
                compute_s: 0.125,
            },
            ColMsg::Die,
            ColMsg::ReloadBlock(sample_block(4)),
            ColMsg::ReloadDone { blocks_total: 4 },
            ColMsg::ReloadAck { worker: 1 },
            ColMsg::FetchModel,
            ColMsg::ModelReply {
                worker: 1,
                parts: vec![(0, sample_params(4, &[1])), (2, sample_params(3, &[1, 4]))],
            },
            ColMsg::Probe { iteration: 11 },
            ColMsg::ProbeAck {
                worker: 3,
                iteration: 11,
                loaded: true,
            },
            ColMsg::WorkerPanic {
                worker: 0,
                info: "worker exploded: état α".to_string(),
            },
            ColMsg::Shutdown,
            ColMsg::InstallParams {
                parts: vec![(5, sample_params(6, &[1; 5]))],
            },
            ColMsg::ComputeStatsFor {
                iteration: 3,
                batch_size: 32,
                attempt: 0,
                pids: vec![1, 5, 9],
            },
            ColMsg::StatsReplyFor {
                iteration: 3,
                worker: 1,
                pids: vec![1, 5],
                partial: vec![2.0; 9],
                compute_s: 0.5,
                sample_s: 0.02,
                task_failed: true,
            },
            ColMsg::ShardRequest {
                pid: 2,
                epoch: 7,
                to: 3,
            },
            ColMsg::ShardData {
                pid: 2,
                epoch: 7,
                worksets: vec![sample_workset(0), sample_workset(1)],
                params: sample_params(5, &[1]),
            },
            ColMsg::ShardInstalled {
                pid: 2,
                epoch: 7,
                worker: 3,
            },
            ColMsg::DropShard { pid: 2, epoch: 8 },
        ];
        // One sample per variant, proven complete: the patterns below are
        // an exhaustive match, so a new variant fails to compile here
        // until it is listed, and fails this test until it is sampled.
        let mut hit = std::collections::BTreeSet::new();
        let mut variants = 0;
        for m in &msgs {
            let (i, n) = columnsgd_cluster::variant_index!(m;
                ColMsg::LoadBlock(_),
                ColMsg::Workset { .. },
                ColMsg::LoadDone { .. },
                ColMsg::LoadAck { .. },
                ColMsg::ComputeStats { .. },
                ColMsg::StatsReply { .. },
                ColMsg::Update { .. },
                ColMsg::UpdateAck { .. },
                ColMsg::Die,
                ColMsg::ReloadBlock(_),
                ColMsg::ReloadDone { .. },
                ColMsg::ReloadAck { .. },
                ColMsg::FetchModel,
                ColMsg::ModelReply { .. },
                ColMsg::Probe { .. },
                ColMsg::ProbeAck { .. },
                ColMsg::WorkerPanic { .. },
                ColMsg::Shutdown,
                ColMsg::InstallParams { .. },
                ColMsg::ComputeStatsFor { .. },
                ColMsg::StatsReplyFor { .. },
                ColMsg::ShardRequest { .. },
                ColMsg::ShardData { .. },
                ColMsg::ShardInstalled { .. },
                ColMsg::DropShard { .. },
            );
            hit.insert(i);
            variants = n;
            roundtrip(m);
        }
        assert_eq!(
            hit,
            (0..variants).collect(),
            "one sample per ColMsg variant"
        );
    }

    #[test]
    fn param_set_widths_survive_all_model_layouts() {
        // GLM [1], FM [1, F], MLR [1; C]: the width rides in the
        // per-block length header, which costs no extra byte.
        for widths in [vec![1], vec![1, 8], vec![1; 10]] {
            let p = sample_params(6, &widths);
            let mut buf = Vec::new();
            put_param_set(&mut buf, &p).unwrap();
            assert_eq!(
                buf.len(),
                8 + 8 * widths.len() + 8 * 6 * widths.iter().sum::<usize>()
            );
            let mut r = WireReader::new(&buf);
            let back = read_param_set(&mut r).unwrap();
            r.finish("ParamSet").unwrap();
            assert_eq!(back, p);
        }
    }

    #[test]
    fn sparse_grad_widths_survive_all_model_layouts() {
        for widths in [vec![1usize], vec![1, 8], vec![1; 10]] {
            let nnz = 4;
            let g = SparseGrad {
                indices: vec![1, 5, 6, 100],
                blocks: widths
                    .iter()
                    .map(|w| (0..nnz * w).map(|i| i as f64 * 0.5).collect())
                    .collect(),
                widths: widths.clone(),
            };
            let mut buf = Vec::new();
            put_sparse_grad(&mut buf, &g).unwrap();
            let mut n = Count::default();
            put_sparse_grad(&mut n, &g).unwrap();
            assert_eq!(n.0, buf.len(), "widths {widths:?}");
            let mut r = WireReader::new(&buf);
            let back = read_sparse_grad(&mut r).unwrap();
            r.finish("SparseGrad").unwrap();
            assert_eq!(back, g);
        }
        // The empty gradient (a failed task's reply) is representable.
        let empty = SparseGrad::default();
        let mut buf = Vec::new();
        put_sparse_grad(&mut buf, &empty).unwrap();
        assert_eq!(buf.len(), 16);
        let mut r = WireReader::new(&buf);
        assert_eq!(read_sparse_grad(&mut r).unwrap(), empty);
    }

    #[test]
    fn unsupported_layouts_fail_loudly_instead_of_mismetering() {
        // >3 blocks with non-uniform widths is outside the model taxonomy.
        let g = SparseGrad {
            indices: vec![0],
            blocks: vec![vec![0.0], vec![0.0, 0.0], vec![0.0], vec![0.0]],
            widths: vec![1, 2, 1, 1],
        };
        let mut buf = Vec::new();
        assert!(matches!(
            put_sparse_grad(&mut buf, &g),
            Err(CodecError::Unsupported(_))
        ));
        // A block whose length violates the nnz x width invariant.
        let bad = SparseGrad {
            indices: vec![0, 1],
            blocks: vec![vec![0.0; 3]],
            widths: vec![1],
        };
        let mut buf = Vec::new();
        assert!(matches!(
            put_sparse_grad(&mut buf, &bad),
            Err(CodecError::Malformed(_))
        ));
    }

    #[test]
    fn unknown_tag_is_rejected() {
        let mut r = WireReader::new(&[200u8]);
        assert!(matches!(
            ColMsg::decode_body(&mut r),
            Err(CodecError::Malformed(_))
        ));
    }
}
