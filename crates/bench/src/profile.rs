//! Execution profiles: how much compute each reproduction run spends.

use emba_core::{ExperimentConfig, TrainConfig};
use emba_datagen::{DatasetId, Scale, WdcCategory, WdcSize};

/// One reproduction profile: dataset scale, training budget, and which
/// dataset rows each table includes.
#[derive(Debug, Clone)]
pub struct Profile {
    /// Name shown in reports.
    pub name: &'static str,
    /// Dataset scale relative to Table 1's counts.
    pub scale: Scale,
    /// Cap on training pairs per dataset (0 = uncapped). Keeps the
    /// small < medium < large < xlarge ladder while bounding the cost of
    /// the biggest rows on a single core.
    pub train_budget: usize,
    /// Experiment settings shared by all cells.
    pub cfg: ExperimentConfig,
    /// Dataset rows for Tables 2 and 3.
    pub table2_datasets: Vec<DatasetId>,
    /// Dataset rows for Tables 4 and 5.
    pub table4_datasets: Vec<DatasetId>,
    /// Master seed.
    pub seed: u64,
}

impl Profile {
    /// The effective scale for one dataset: `scale`, shrunk further when the
    /// dataset's Table 1 training size would exceed `train_budget` pairs.
    pub fn scale_for(&self, id: DatasetId) -> Scale {
        if self.train_budget == 0 {
            return self.scale;
        }
        let c = emba_datagen::paper_counts(id);
        let total = (c.pos + c.neg) as f64;
        Scale(self.scale.0.min(self.train_budget as f64 / total))
    }

    /// The single-core default: a representative subset of dataset rows at
    /// reduced scale, two runs per cell. Finishes in tens of minutes.
    pub fn quick() -> Self {
        Self {
            name: "quick",
            scale: Scale(0.05),
            train_budget: 400,
            cfg: ExperimentConfig {
                vocab_size: 1024,
                max_len: 64,
                train: TrainConfig {
                    epochs: 12,
                    batch_size: 8,
                    lr: 1e-3,
                    warmup_epochs: 1,
                    patience: 5,
                    clip_norm: 1.0,
                    seed: 0,
                    nan_guard: false,
                },
                mlm_epochs: 0,
                mlm_lr: 5e-4,
                runs: 2,
                dropout: emba_core::DEFAULT_DROPOUT,
            },
            table2_datasets: vec![
                DatasetId::Wdc(WdcCategory::Computers, WdcSize::Small),
                DatasetId::Wdc(WdcCategory::Computers, WdcSize::Xlarge),
                DatasetId::Wdc(WdcCategory::Cameras, WdcSize::Medium),
                DatasetId::DblpScholar,
                DatasetId::AbtBuy,
            ],
            table4_datasets: vec![
                DatasetId::Wdc(WdcCategory::Computers, WdcSize::Small),
                DatasetId::Wdc(WdcCategory::Computers, WdcSize::Xlarge),
                DatasetId::Books,
            ],
            seed: 7,
        }
    }

    /// A minimal profile for smoke tests (minutes).
    pub fn smoke() -> Self {
        let mut p = Self::quick();
        p.name = "smoke";
        p.scale = Scale::TEST;
        p.train_budget = 0;
        p.cfg.vocab_size = 512;
        p.cfg.max_len = 48;
        p.cfg.train.epochs = 3;
        p.cfg.train.patience = 3;
        // MLM is off in the other profiles (results/PR21_one_trainer.md);
        // smoke keeps one epoch so a smoke run still drives pre-training
        // (the committed results/ were generated that way).
        p.cfg.mlm_epochs = 1;
        p.cfg.runs = 1;
        p.table2_datasets = vec![
            DatasetId::Wdc(WdcCategory::Computers, WdcSize::Small),
            DatasetId::DblpScholar,
        ];
        p.table4_datasets = vec![DatasetId::Wdc(WdcCategory::Computers, WdcSize::Small)];
        p
    }

    /// The paper's protocol: every dataset row, full Table 1 counts, five
    /// runs, fifty epochs. Only realistic on serious hardware.
    pub fn full() -> Self {
        Self {
            name: "full",
            scale: Scale::FULL,
            train_budget: 0,
            cfg: ExperimentConfig {
                vocab_size: 8192,
                max_len: 256,
                train: TrainConfig::paper(),
                mlm_epochs: 0,
                mlm_lr: 5e-4,
                runs: 5,
                dropout: emba_core::DEFAULT_DROPOUT,
            },
            table2_datasets: DatasetId::all(),
            table4_datasets: DatasetId::all(),
            seed: 7,
        }
    }
}
