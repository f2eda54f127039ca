//! Property-based tests for the data layer: partitioners, the
//! row-to-column transformation, the two-phase index, and LIBSVM I/O.

use columnsgd_data::block::Block;
use columnsgd_data::workset::split_block;
use columnsgd_data::{libsvm, ColumnPartitioner, Dataset, TwoPhaseIndex, Workset};
use columnsgd_linalg::{CsrMatrix, SparseVector};
use proptest::prelude::*;

fn arb_rows(max_rows: usize, dim: u64) -> impl Strategy<Value = Vec<(f64, SparseVector)>> {
    prop::collection::vec(
        (
            prop::bool::ANY,
            prop::collection::vec((0..dim, 0.1f64..10.0), 1..20),
        ),
        1..max_rows,
    )
    .prop_map(|rows| {
        rows.into_iter()
            .map(|(pos, pairs)| {
                (
                    if pos { 1.0 } else { -1.0 },
                    SparseVector::from_pairs(pairs),
                )
            })
            .collect()
    })
}

fn arb_partitioner(dim: u64) -> impl Strategy<Value = ColumnPartitioner> {
    (1usize..8, prop::bool::ANY).prop_map(move |(k, rr)| {
        if rr {
            ColumnPartitioner::round_robin(k)
        } else {
            ColumnPartitioner::range(k, dim)
        }
    })
}

proptest! {
    /// Partitioner invariants for arbitrary dims and worker counts:
    /// ownership is total, local slots are dense and invertible, and
    /// local dims sum to the total.
    #[test]
    fn partitioner_is_a_bijection(
        (dim, p) in (1u64..500).prop_flat_map(|dim| (Just(dim), arb_partitioner(dim))),
    ) {
        let k = p.num_workers();
        let total: usize = (0..k).map(|w| p.local_dim(w, dim)).sum();
        prop_assert_eq!(total as u64, dim);
        for i in 0..dim {
            let w = p.owner(i);
            let s = p.local_slot(i);
            prop_assert!(w < k);
            prop_assert!(s < p.local_dim(w, dim));
            prop_assert_eq!(p.global_index(w, s), i);
        }
    }

    /// The row-to-column transformation is lossless: merging every
    /// workset's rows (mapped back to global indices) reproduces the
    /// original block exactly, for any partitioner.
    #[test]
    fn transformation_is_lossless(
        rows in arb_rows(30, 200),
        p in arb_partitioner(200),
    ) {
        let block = Block::from_rows(0, &rows);
        let worksets = split_block(&block, &p);
        prop_assert_eq!(worksets.len(), p.num_workers());
        for r in 0..block.nrows() {
            let (label, orig) = block.row(r);
            let mut pairs = Vec::new();
            for (w, ws) in worksets.iter().enumerate() {
                prop_assert_eq!(ws.nrows(), block.nrows());
                prop_assert_eq!(ws.data.label(r), label);
                let (slots, vals) = ws.data.row(r);
                for (&slot, &v) in slots.iter().zip(vals) {
                    pairs.push((p.global_index(w, slot as usize), v));
                }
            }
            prop_assert_eq!(SparseVector::from_pairs(pairs), orig);
        }
    }

    /// `split_block` equals a row-by-row reference split for both
    /// partitioners and K in 1..8. Rows carry 0–5 nonzeros over 60
    /// features, so most rows (and some whole rows) have no nonzero in
    /// some partition and must still appear there, empty.
    #[test]
    fn split_matches_row_by_row_reference(
        rows in prop::collection::vec(
            (prop::bool::ANY, prop::collection::vec((0u64..60, 0.1f64..10.0), 0..6)),
            1..40,
        ),
        p in arb_partitioner(60),
        id in 0u64..1000,
    ) {
        let rows: Vec<(f64, SparseVector)> = rows
            .into_iter()
            .map(|(pos, pairs)| (if pos { 1.0 } else { -1.0 }, SparseVector::from_pairs(pairs)))
            .collect();
        let block = Block::from_rows(id, &rows);
        let reference: Vec<Workset> = (0..p.num_workers())
            .map(|w| {
                let mut data = CsrMatrix::new();
                for (label, x) in &rows {
                    let (slots, vals): (Vec<u64>, Vec<f64>) = x
                        .iter()
                        .filter(|&(i, _)| p.owner(i) == w)
                        .map(|(i, v)| (p.local_slot(i) as u64, v))
                        .unzip();
                    data.push_raw_row(*label, &slots, &vals);
                }
                Workset { block_id: id, data }
            })
            .collect();
        prop_assert_eq!(split_block(&block, &p), reference);
    }

    /// The two-phase index always yields in-range addresses and identical
    /// batches across independently-built copies.
    #[test]
    fn two_phase_index_is_consistent(
        sizes in prop::collection::vec(1usize..50, 1..10),
        seed in 0u64..1000,
        iteration in 0u64..100,
    ) {
        let layout: Vec<(u64, usize)> = sizes.iter().enumerate().map(|(i, &s)| (i as u64, s)).collect();
        let a = TwoPhaseIndex::new(layout.clone(), seed);
        let mut shuffled = layout.clone();
        shuffled.reverse();
        let b = TwoPhaseIndex::new(shuffled, seed);
        let batch_a = a.sample_batch(iteration, 64);
        let batch_b = b.sample_batch(iteration, 64);
        prop_assert_eq!(&batch_a, &batch_b);
        for addr in batch_a {
            let cap = sizes[addr.block as usize];
            prop_assert!(addr.offset < cap);
        }
    }

    /// LIBSVM write→read is the identity on datasets with round-ish
    /// values.
    #[test]
    fn libsvm_roundtrip(rows in arb_rows(20, 1000)) {
        // Quantize values so text formatting is exact.
        let rows: Vec<(f64, SparseVector)> = rows
            .into_iter()
            .map(|(y, x)| {
                let pairs = x.iter().map(|(i, v)| (i, (v * 4.0).round() / 4.0)).collect();
                (y, SparseVector::from_pairs(pairs))
            })
            .collect();
        let ds = Dataset::from_rows(rows);
        let mut buf = Vec::new();
        libsvm::write(&ds, &mut buf).unwrap();
        let ds2 = libsvm::read_binary(std::io::Cursor::new(buf)).unwrap();
        prop_assert_eq!(ds.len(), ds2.len());
        for (a, b) in ds.iter().zip(ds2.iter()) {
            prop_assert_eq!(a.0, b.0);
            prop_assert_eq!(&a.1, &b.1);
        }
    }

    /// Row partitions cover the dataset exactly, in order, with sizes
    /// differing by at most one.
    #[test]
    fn row_partitions_cover(rows in arb_rows(40, 100), k in 1usize..6) {
        let ds = Dataset::from_rows(rows);
        let parts = ds.row_slices(k);
        prop_assert_eq!(parts.len(), k);
        let sizes: Vec<usize> = parts.iter().map(|p| p.len()).collect();
        prop_assert_eq!(sizes.iter().sum::<usize>(), ds.len());
        let (mn, mx) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
        prop_assert!(mx - mn <= 1);
        let recombined: Vec<_> = parts.iter().flat_map(|p| p.iter()).collect();
        prop_assert_eq!(recombined.len(), ds.len());
        for (a, b) in ds.iter().zip(recombined) {
            prop_assert_eq!(a, b);
        }
    }
}
