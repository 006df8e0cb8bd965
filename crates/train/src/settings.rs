//! Named experimental settings, shared by every front end.
//!
//! Historically the CLI owned the mapping from a setting name
//! (`rn20-cifar10`, `vae-mnist`, …) to a model, a synthetic dataset, a
//! maximum epoch count, and an LR scale. With the HTTP front door
//! (`rexctl serve`) that mapping must live in one place: a job submitted
//! over a socket has to run *exactly* the code a `rexctl train` invocation
//! runs, or the two can never produce byte-identical traces. This module
//! is that single place.
//!
//! The `digits-mlp` setting is the cheapest cell in the catalogue (a
//! 144-24-10 MLP on synthetic 12×12 digits, ~8 optimizer steps per
//! epoch) — the workhorse for load tests and serving benchmarks where
//! hundreds of concurrent budgeted jobs have to finish in seconds.

use rex_core::ScheduleSpec;
use rex_data::digits::synth_digits;
use rex_data::images::{synth_cifar10, synth_cifar100, synth_stl10};
use rex_data::ClassificationDataset;
use rex_nn::Mlp;
use rex_telemetry::Recorder;
use rex_tensor::{DType, Prng};

use crate::error::TrainError;
use crate::objective::Classifier;
use crate::tasks::{run_image_cell, run_vae_cell, ImageModel};
use crate::trainer::{FtConfig, OptimizerKind, TrainConfig, Trainer};
use crate::Budget;

/// A named experimental setting: everything needed to run one budgeted
/// cell except the budget, schedule, optimizer, and seed.
pub enum SettingSpec {
    /// An image-classification setting (ResNet/WRN/VGG analogue).
    Image {
        /// Display name (`"RN20-CIFAR10"`, …).
        name: &'static str,
        /// Architecture to build.
        model: ImageModel,
        /// Synthetic dataset (seeded deterministically from the run seed).
        data: ClassificationDataset,
        /// Literature-standard maximum epochs (budgets are % of this).
        max_epochs: usize,
        /// Multiplier on the optimizer's default LR.
        lr_scale: f32,
    },
    /// The VAE-MNIST analogue. Full fault-tolerance support; its
    /// snapshots also carry the reparameterisation sampler's stream.
    Vae {
        /// Maximum epochs.
        max_epochs: usize,
    },
    /// A tiny digits MLP — the cheapest cell, for load tests and serving
    /// benchmarks. Full fault-tolerance support.
    Digits {
        /// Maximum epochs.
        max_epochs: usize,
    },
}

/// Setting names accepted by [`load_setting`], in display order.
pub const SETTING_NAMES: &[&str] = &[
    "rn20-cifar10",
    "rn38-cifar10",
    "wrn-stl10",
    "vgg16-cifar100",
    "vae-mnist",
    "digits-mlp",
];

/// Resolves a setting name (case-insensitive) into a [`SettingSpec`],
/// synthesizing its dataset from `seed`.
///
/// # Errors
///
/// Returns a message naming the unknown setting.
pub fn load_setting(name: &str, seed: u64) -> Result<SettingSpec, String> {
    Ok(match name.to_ascii_lowercase().as_str() {
        "rn20-cifar10" => SettingSpec::Image {
            name: "RN20-CIFAR10",
            model: ImageModel::MicroResNet20,
            data: synth_cifar10(40, 15, seed ^ 0x7AB4),
            max_epochs: 24,
            lr_scale: 1.0,
        },
        "rn38-cifar10" => SettingSpec::Image {
            name: "RN38-CIFAR10",
            model: ImageModel::MicroResNet38,
            data: synth_cifar10(40, 15, seed ^ 0x7AB4),
            max_epochs: 24,
            lr_scale: 1.0,
        },
        "wrn-stl10" => SettingSpec::Image {
            name: "WRN-STL10",
            model: ImageModel::MicroWide(2),
            data: synth_stl10(25, 10, seed ^ 0x57110),
            max_epochs: 20,
            lr_scale: 1.0,
        },
        "vgg16-cifar100" => SettingSpec::Image {
            name: "VGG16-CIFAR100",
            model: ImageModel::MicroVgg(12),
            data: synth_cifar100(20, 30, 10, seed ^ 0xC1F100),
            max_epochs: 40,
            lr_scale: 0.1,
        },
        "vae-mnist" => SettingSpec::Vae { max_epochs: 200 },
        "digits-mlp" | "digits" => SettingSpec::Digits { max_epochs: 8 },
        other => return Err(format!("unknown setting {other:?} (see rexctl help)")),
    })
}

impl SettingSpec {
    /// Display name of the setting.
    pub fn name(&self) -> &'static str {
        match self {
            SettingSpec::Image { name, .. } => name,
            SettingSpec::Vae { .. } => "VAE-MNIST",
            SettingSpec::Digits { .. } => "DIGITS-MLP",
        }
    }

    /// Literature-standard maximum epochs; budgets are percentages of
    /// this.
    pub fn max_epochs(&self) -> usize {
        match self {
            SettingSpec::Image { max_epochs, .. }
            | SettingSpec::Vae { max_epochs }
            | SettingSpec::Digits { max_epochs } => *max_epochs,
        }
    }

    /// The headline metric's name (`"test error"` / `"test loss"`).
    pub fn metric_label(&self) -> &'static str {
        match self {
            SettingSpec::Image { .. } | SettingSpec::Digits { .. } => "test error",
            SettingSpec::Vae { .. } => "test loss",
        }
    }

    /// The default initial LR for this setting under `optimizer`.
    pub fn default_lr(&self, optimizer: &OptimizerKind) -> f32 {
        match self {
            SettingSpec::Image { lr_scale, .. } => optimizer.default_lr() * lr_scale,
            SettingSpec::Vae { .. } => 1e-2,
            SettingSpec::Digits { .. } => 0.1,
        }
    }

    /// Runs one budgeted cell of this setting and returns its headline
    /// metric. This is the *only* cell runner: `rexctl train` and the
    /// HTTP job executor both call it, so a job produces the same
    /// trajectory — and, traced, the same trace bytes — no matter which
    /// front end submitted it.
    ///
    /// # Errors
    ///
    /// Whatever the underlying cell runner surfaces.
    #[allow(clippy::too_many_arguments)]
    pub fn run_ft(
        &self,
        budget_pct: u32,
        optimizer: OptimizerKind,
        schedule: ScheduleSpec,
        lr: f32,
        seed: u64,
        dtype: DType,
        ft: FtConfig,
        rec: &mut Recorder,
    ) -> Result<f64, TrainError> {
        let epochs = Budget::new(self.max_epochs(), budget_pct).epochs();
        let cfg = TrainConfig {
            lr,
            dtype,
            ft,
            ..TrainConfig::new(epochs, optimizer, schedule, seed)
        };
        match self {
            SettingSpec::Image { model, data, .. } => run_image_cell(*model, data, cfg, rec),
            SettingSpec::Vae { .. } => {
                let train = synth_digits(400, 12, seed ^ 0xD161);
                let test = synth_digits(150, 12, seed ^ 0xD162);
                run_vae_cell(
                    &train,
                    &test,
                    TrainConfig {
                        batch_size: 8,
                        ..cfg
                    },
                    rec,
                )
            }
            SettingSpec::Digits { .. } => {
                let train = synth_digits(120, 12, seed ^ 0xD1_6217);
                let test = synth_digits(40, 12, seed ^ 0xD1_6218);
                let model = Mlp::new("m", &[144, 24, 10], &mut Prng::new(seed));
                let mut trainer = Trainer::new(TrainConfig {
                    batch_size: 16,
                    augment: false,
                    seed: seed ^ 0x7EA1,
                    ..cfg
                });
                let obj = Classifier::new(
                    &model,
                    &train.images,
                    &train.labels,
                    &test.images,
                    &test.labels,
                    trainer.config(),
                );
                Ok(trainer.train(&obj, rec)?.final_metric)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rex_telemetry::{MemorySink, Recorder};

    #[test]
    fn every_catalogued_name_loads() {
        for name in SETTING_NAMES {
            let spec = load_setting(name, 7).unwrap();
            assert!(spec.max_epochs() > 0);
            assert!(!spec.name().is_empty());
        }
        assert!(load_setting("warp-drive", 7).is_err());
    }

    #[test]
    fn digits_cell_trains_and_traces() {
        let spec = load_setting("digits-mlp", 11).unwrap();
        let sink = MemorySink::unbounded();
        let handle = sink.handle();
        let mut rec = Recorder::new(Box::new(sink));
        let err = spec
            .run_ft(
                25,
                OptimizerKind::sgdm(),
                ScheduleSpec::Rex,
                spec.default_lr(&OptimizerKind::sgdm()),
                11,
                DType::F32,
                FtConfig::default(),
                &mut rec,
            )
            .unwrap();
        assert!((0.0..=100.0).contains(&err), "{err}");
        // 25% of 8 epochs = 2 epochs × 8 batches (120 samples / 16,
        // partial final batch of 8) = 16 steps
        assert_eq!(handle.steps().len(), 16);
    }

    #[test]
    fn digits_cell_is_deterministic_across_runs() {
        let metric = |seed| {
            let spec = load_setting("digits", seed).unwrap();
            spec.run_ft(
                25,
                OptimizerKind::sgdm(),
                ScheduleSpec::Rex,
                0.1,
                seed,
                DType::F32,
                FtConfig::default(),
                &mut Recorder::disabled(),
            )
            .unwrap()
        };
        assert_eq!(metric(3).to_bits(), metric(3).to_bits());
    }

    #[test]
    fn stop_flag_halts_a_digits_run() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        let spec = load_setting("digits-mlp", 5).unwrap();
        let flag = Arc::new(AtomicBool::new(true)); // pre-set: halts after step 1
        let err = spec
            .run_ft(
                100,
                OptimizerKind::sgdm(),
                ScheduleSpec::Rex,
                0.1,
                5,
                DType::F32,
                FtConfig {
                    stop_flag: Some(Arc::clone(&flag)),
                    ..FtConfig::default()
                },
                &mut Recorder::disabled(),
            )
            .unwrap_err();
        assert!(
            matches!(err, TrainError::Halted { step: 1 }),
            "expected Halted after the first completed step, got {err}"
        );
        flag.store(false, Ordering::Release);
    }

    /// f16 storage with Adam or AdamW is refused up front, by name: the
    /// second moment `(1-β2)·g²` rounds to zero in f16 and the run goes
    /// NaN within two steps.
    #[test]
    fn f16_with_adam_is_refused_by_name() {
        let spec = load_setting("vae-mnist", 1).unwrap();
        for opt in [OptimizerKind::adam(), OptimizerKind::adamw()] {
            let err = spec
                .run_ft(
                    1,
                    opt,
                    ScheduleSpec::Rex,
                    spec.default_lr(&opt),
                    1,
                    DType::F16,
                    FtConfig::default(),
                    &mut Recorder::disabled(),
                )
                .unwrap_err();
            let TrainError::Config(msg) = &err else {
                panic!("expected a config error, got {err}");
            };
            for word in ["f16", opt.name(), "bf16", "SGDM"] {
                assert!(msg.contains(word), "{msg:?} does not name {word}");
            }
        }
    }

    /// A VAE run halted mid-epoch and resumed from its last snapshot
    /// finishes with a trace byte-identical to the uninterrupted run's —
    /// the snapshot carries the reparameterisation sampler — at f32 and at
    /// both half precisions. f16 trains with SGDM, since the trainer
    /// refuses f16 with Adam (see `f16_with_adam_is_refused_by_name`).
    #[test]
    fn vae_halt_and_resume_is_byte_identical() {
        use rex_telemetry::JsonlSink;

        let spec = load_setting("vae-mnist", 1).unwrap();
        let dir = std::env::temp_dir().join(format!("rex_vae_resume_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for (dtype, opt) in [
            (DType::F32, OptimizerKind::adam()),
            (DType::F16, OptimizerKind::sgdm()),
            (DType::Bf16, OptimizerKind::adam()),
        ] {
            let ckpt = dir.join(format!("{dtype}.state"));
            let run = |sink: JsonlSink, ft: FtConfig| {
                let mut rec = Recorder::new(Box::new(sink));
                let result = spec.run_ft(
                    1,
                    opt,
                    ScheduleSpec::Rex,
                    spec.default_lr(&opt),
                    1,
                    dtype,
                    FtConfig {
                        checkpoint_every: Some(10),
                        checkpoint_path: Some(ckpt.clone()),
                        ..ft
                    },
                    &mut rec,
                );
                rec.flush();
                result
            };
            let full_trace = dir.join(format!("{dtype}_full.jsonl"));
            let cut_trace = dir.join(format!("{dtype}_cut.jsonl"));
            let full = run(JsonlSink::create(&full_trace).unwrap(), FtConfig::default()).unwrap();
            let full_bytes = std::fs::read(&full_trace).unwrap();
            assert!(full.is_finite(), "{dtype}: the run diverged to {full}");
            assert!(
                !String::from_utf8_lossy(&full_bytes).contains("null"),
                "{dtype}: the trace records a non-finite value"
            );
            let err = run(
                JsonlSink::create(&cut_trace).unwrap(),
                FtConfig {
                    halt_after_step: Some(37),
                    ..FtConfig::default()
                },
            )
            .unwrap_err();
            assert!(matches!(err, TrainError::Halted { step: 37 }), "{err}");
            let cursor = crate::TrainState::trace_cursor(&ckpt).unwrap();
            let resumed = run(
                JsonlSink::resume(&cut_trace, cursor).unwrap(),
                FtConfig {
                    resume_from: Some(ckpt.clone()),
                    ..FtConfig::default()
                },
            )
            .unwrap();
            assert_eq!(full.to_bits(), resumed.to_bits(), "{dtype}");
            assert_eq!(
                full_bytes,
                std::fs::read(&cut_trace).unwrap(),
                "{dtype}: resumed VAE trace differs from the uninterrupted run"
            );
        }
        let _ = std::fs::remove_dir_all(dir);
    }
}
