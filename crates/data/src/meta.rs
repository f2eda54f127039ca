//! Dataset statistics and presets (Table II of the paper).

/// Statistics describing a training dataset, mirroring Table II.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetMeta {
    /// Human-readable name (e.g. `"kddb"`).
    pub name: String,
    /// Number of training instances (`#Instances`).
    pub instances: u64,
    /// Number of feature dimensions (`#Features`), i.e. the GLM model size m.
    pub features: u64,
    /// Average number of nonzero features per instance.
    pub avg_nnz_per_row: f64,
    /// Nominal on-disk size in bytes (Table II's "Dataset Size"), for
    /// reporting only.
    pub nominal_size_bytes: u64,
    /// Zipf skew exponent of the feature-popularity distribution used by
    /// the synthetic generator. Hashed CTR data (avazu, WX) is extremely
    /// head-heavy (s > 1): a mini-batch touches few *distinct* features,
    /// which is what makes MXNet's sparse pull so cheap on avazu (§V-B2).
    pub skew: f64,
}

impl DatasetMeta {
    /// Sparsity ρ: the fraction of zero entries, as used in the paper's
    /// analytic model (§III-B1).
    pub fn sparsity(&self) -> f64 {
        1.0 - self.avg_nnz_per_row / self.features as f64
    }

    /// Scales instance and feature counts by `factor` ∈ (0, 1], keeping the
    /// per-row density profile, so experiments run at laptop scale while
    /// preserving the m ≫ B regime that drives the paper's results.
    ///
    /// The average nnz per row is left unchanged (the paper's Figure 10
    /// methodology: "the number of nonzero features remains stable
    /// regardless of the model size"), capped at the scaled feature count.
    pub fn scaled(&self, factor: f64) -> DatasetMeta {
        assert!(
            factor > 0.0 && factor <= 1.0,
            "scale factor must be in (0,1], got {factor}"
        );
        let features = ((self.features as f64 * factor).round() as u64).max(1);
        DatasetMeta {
            name: format!("{}-x{factor}", self.name),
            instances: ((self.instances as f64 * factor).round() as u64).max(1),
            features,
            avg_nnz_per_row: self.avg_nnz_per_row.min(features as f64),
            nominal_size_bytes: (self.nominal_size_bytes as f64 * factor) as u64,
            skew: self.skew,
        }
    }
}

/// The five datasets of Table II.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetPreset {
    /// avazu: 40,428,967 instances × 1,000,000 features, 7.4 GB.
    Avazu,
    /// kddb: 19,264,097 instances × 29,890,095 features, 4.8 GB.
    Kddb,
    /// kdd12: 149,639,105 instances × 54,686,452 features, 21 GB.
    Kdd12,
    /// criteo: 45,840,617 instances × 39 features, 11 GB (dense-ish; used
    /// as the base for the Figure 10 synthetic model-size sweep).
    Criteo,
    /// WX: 69,581,214 instances × 51,121,518 features, 130 GB (the paper's
    /// industrial dataset; used for the Figure 11 cluster-size sweep).
    Wx,
}

impl DatasetPreset {
    /// All presets in Table II order.
    pub const ALL: [DatasetPreset; 5] = [
        DatasetPreset::Avazu,
        DatasetPreset::Kddb,
        DatasetPreset::Kdd12,
        DatasetPreset::Criteo,
        DatasetPreset::Wx,
    ];

    /// The Table II statistics for this preset.
    ///
    /// Average nnz/row is derived from the published dataset descriptions:
    /// avazu is one-hot categorical (~15 nnz), kddb ~29, kdd12 ~11,
    /// criteo has 39 dense-ish features, WX ~100 (industrial CTR).
    pub fn meta(self) -> DatasetMeta {
        match self {
            DatasetPreset::Avazu => DatasetMeta {
                name: "avazu".into(),
                instances: 40_428_967,
                features: 1_000_000,
                avg_nnz_per_row: 15.0,
                nominal_size_bytes: 7_400_000_000,
                skew: 1.6,
            },
            DatasetPreset::Kddb => DatasetMeta {
                name: "kddb".into(),
                instances: 19_264_097,
                features: 29_890_095,
                avg_nnz_per_row: 29.0,
                nominal_size_bytes: 4_800_000_000,
                skew: 1.0,
            },
            DatasetPreset::Kdd12 => DatasetMeta {
                name: "kdd12".into(),
                instances: 149_639_105,
                features: 54_686_452,
                avg_nnz_per_row: 11.0,
                nominal_size_bytes: 21_000_000_000,
                skew: 1.0,
            },
            DatasetPreset::Criteo => DatasetMeta {
                name: "criteo".into(),
                instances: 45_840_617,
                features: 39,
                avg_nnz_per_row: 39.0,
                nominal_size_bytes: 11_000_000_000,
                skew: 1.1,
            },
            DatasetPreset::Wx => DatasetMeta {
                name: "wx".into(),
                instances: 69_581_214,
                features: 51_121_518,
                avg_nnz_per_row: 100.0,
                nominal_size_bytes: 130_000_000_000,
                skew: 1.4,
            },
        }
    }

    /// Parses a preset from its Table II name.
    pub fn from_name(name: &str) -> Option<DatasetPreset> {
        match name.to_ascii_lowercase().as_str() {
            "avazu" => Some(DatasetPreset::Avazu),
            "kddb" => Some(DatasetPreset::Kddb),
            "kdd12" => Some(DatasetPreset::Kdd12),
            "criteo" => Some(DatasetPreset::Criteo),
            "wx" => Some(DatasetPreset::Wx),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_statistics_match_paper() {
        let kddb = DatasetPreset::Kddb.meta();
        assert_eq!(kddb.instances, 19_264_097);
        assert_eq!(kddb.features, 29_890_095);
        let kdd12 = DatasetPreset::Kdd12.meta();
        assert_eq!(kdd12.features, 54_686_452);
        assert_eq!(DatasetPreset::Criteo.meta().features, 39);
    }

    #[test]
    fn sparsity_is_high_for_sparse_sets() {
        let s = DatasetPreset::Kdd12.meta().sparsity();
        assert!(s > 0.999_999, "kdd12 sparsity {s}");
        let c = DatasetPreset::Criteo.meta().sparsity();
        assert_eq!(c, 0.0);
    }

    #[test]
    fn scaling_preserves_density_profile() {
        let m = DatasetPreset::Kddb.meta();
        let s = m.scaled(0.001);
        assert_eq!(s.avg_nnz_per_row, m.avg_nnz_per_row);
        assert_eq!(s.features, 29_890);
        assert!(s.instances > 0);
    }

    #[test]
    #[should_panic(expected = "scale factor")]
    fn scaling_rejects_bad_factor() {
        let _ = DatasetPreset::Avazu.meta().scaled(0.0);
    }

    #[test]
    fn names_roundtrip() {
        for p in DatasetPreset::ALL {
            assert_eq!(DatasetPreset::from_name(&p.meta().name), Some(p));
        }
        assert_eq!(DatasetPreset::from_name("nope"), None);
    }
}
