//! Trajectory pins: the final metric of one small cell per setting, and
//! a digest of pretrained transformer weights, pinned bit for bit.
//!
//! Every cell runs untraced under the scalar backend (the bit-exact
//! court), so the pinned bits depend neither on the host's SIMD tier nor
//! on the pool size. A changed pin is a changed training trajectory.

use rex::data::digits::synth_digits;
use rex::data::images::synth_cifar10;
use rex::data::scenes::synth_scenes;
use rex::data::text::{glue_tasks, lm_corpus};
use rex::nn::{TinyTransformer, TransformerConfig};
use rex::schedules::ScheduleSpec;
use rex::telemetry::Recorder;
use rex::tensor::backend::{self, BackendKind};
use rex::tensor::DType;
use rex::train::settings::load_setting;
use rex::train::tasks::{
    pretrain_transformer, run_detection_cell, run_glue_cell, run_image_cell, run_vae_cell,
    ImageModel,
};
use rex::train::{FtConfig, OptimizerKind, TrainConfig};

fn scalar<R>(f: impl FnOnce() -> R) -> R {
    backend::with_backend(BackendKind::Scalar, f)
}

fn assert_bits(name: &str, got: f64, want: u64) {
    assert_eq!(
        got.to_bits(),
        want,
        "{name}: final metric {got} (bits {:#018x}) moved from the pinned {} ({want:#018x})",
        got.to_bits(),
        f64::from_bits(want)
    );
}

fn tiny_transformer() -> TransformerConfig {
    TransformerConfig {
        vocab: 32,
        dim: 16,
        heads: 2,
        depth: 1,
        seq_len: 12,
        ff_mult: 2,
    }
}

/// FNV-1a over the bit patterns of every parameter, in parameter order.
fn weight_digest(tf: &TinyTransformer) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for p in tf.params() {
        for v in p.value().data() {
            for b in v.to_bits().to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    h
}

#[test]
fn classifier_cell_is_pinned() {
    let data = synth_cifar10(10, 5, 9);
    let err = scalar(|| {
        run_image_cell(
            ImageModel::MicroResNet20,
            &data,
            TrainConfig {
                batch_size: 16,
                lr: 0.05,
                ..TrainConfig::new(3, OptimizerKind::sgdm(), ScheduleSpec::Rex, 7)
            },
            &mut Recorder::disabled(),
        )
        .unwrap()
    });
    assert_bits("rn20 cell", err, PIN_CLASSIFIER);
}

#[test]
fn registry_cells_are_pinned() {
    let run = |name: &str, pct: u32, opt: OptimizerKind| {
        let spec = load_setting(name, 4).unwrap();
        scalar(|| {
            spec.run_ft(
                pct,
                opt,
                ScheduleSpec::Rex,
                spec.default_lr(&opt),
                4,
                DType::F32,
                FtConfig::default(),
                &mut Recorder::disabled(),
            )
            .unwrap()
        })
    };
    assert_bits(
        "digits-mlp",
        run("digits-mlp", 25, OptimizerKind::sgdm()),
        PIN_DIGITS,
    );
    assert_bits(
        "vae-mnist",
        run("vae-mnist", 1, OptimizerKind::adam()),
        PIN_VAE_MNIST,
    );
}

#[test]
fn vae_cell_is_pinned() {
    let train = synth_digits(48, 12, 0);
    let test = synth_digits(16, 12, 1);
    let loss = scalar(|| {
        run_vae_cell(
            &train,
            &test,
            TrainConfig {
                batch_size: 16,
                lr: 1e-3,
                ..TrainConfig::new(2, OptimizerKind::adam(), ScheduleSpec::DecayOnPlateau(1), 5)
            },
            &mut Recorder::disabled(),
        )
        .unwrap()
    });
    assert_bits("vae cell", loss, PIN_VAE);
}

#[test]
fn detection_cell_is_pinned() {
    let train = synth_scenes(24, 24, 0);
    let test = synth_scenes(12, 24, 1);
    let map = scalar(|| {
        run_detection_cell(
            &train,
            &test,
            1,
            TrainConfig {
                batch_size: 6,
                lr: 1e-2,
                ..TrainConfig::new(4, OptimizerKind::adam(), ScheduleSpec::Cosine, 2)
            },
            &mut Recorder::disabled(),
        )
        .unwrap()
    });
    assert_bits("detection cell", map, PIN_DETECTION);
}

/// Detection gives plateau schedules no validation feedback, so under
/// `DecayOnPlateau` the LR holds after warmup, as it always has.
#[test]
fn detection_plateau_cell_is_pinned() {
    let train = synth_scenes(24, 24, 0);
    let test = synth_scenes(12, 24, 1);
    let map = scalar(|| {
        run_detection_cell(
            &train,
            &test,
            1,
            TrainConfig {
                batch_size: 6,
                lr: 1e-2,
                ..TrainConfig::new(4, OptimizerKind::adam(), ScheduleSpec::DecayOnPlateau(1), 2)
            },
            &mut Recorder::disabled(),
        )
        .unwrap()
    });
    assert_bits("detection plateau cell", map, PIN_DETECTION_PLATEAU);
}

#[test]
fn pretraining_and_glue_cells_are_pinned() {
    let corpus = lm_corpus(32, 12, 32, 0);
    let tasks = glue_tasks(24, 12, 12, 32, 2);
    let (digest, acc) = scalar(|| {
        let tf = pretrain_transformer(
            &corpus,
            tiny_transformer(),
            TrainConfig {
                batch_size: 8,
                lr: 1e-3,
                ..TrainConfig::new(2, OptimizerKind::adamw(), ScheduleSpec::None, 1)
            },
            &mut Recorder::disabled(),
        )
        .unwrap();
        let acc = run_glue_cell(
            &tf,
            &tasks[1],
            TrainConfig {
                batch_size: 8,
                lr: 1e-3,
                ..TrainConfig::new(2, OptimizerKind::adamw(), ScheduleSpec::Linear, 3)
            },
            &mut Recorder::disabled(),
        )
        .unwrap();
        (weight_digest(&tf), acc)
    });
    assert_eq!(
        digest, PIN_PRETRAINED,
        "pretrained weights moved: digest {digest:#018x}"
    );
    assert_bits("glue cell", acc, PIN_GLUE);
}

const PIN_CLASSIFIER: u64 = 0x4056_0000_0000_0000;
const PIN_DIGITS: u64 = 0x4053_6000_0000_0000;
const PIN_VAE_MNIST: u64 = 0x4048_32d6_0000_0000;
const PIN_VAE: u64 = 0x4059_bd6b_c000_0000;
const PIN_DETECTION: u64 = 0x4002_35ba_7819_48b1;
const PIN_DETECTION_PLATEAU: u64 = 0x3fd5_8c7f_91ab_8753;
const PIN_PRETRAINED: u64 = 0xb52d_98db_e0f5_4f5d;
const PIN_GLUE: u64 = 0x4030_aaaa_aaaa_aaac;
