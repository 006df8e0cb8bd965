//! Reproducibility guarantees: every experiment in EXPERIMENTS.md must be
//! regenerable bit-for-bit from its seed, across the whole stack.

use rex::data::digits::synth_digits;
use rex::data::images::synth_cifar10;
use rex::data::scenes::synth_scenes;
use rex::data::text::glue_tasks;
use rex::nn::{MicroResNet, Module};
use rex::schedules::ScheduleSpec;
use rex::telemetry::Recorder;
use rex::train::tasks::{run_image_cell, run_vae_cell, ImageModel};
use rex::train::{OptimizerKind, TrainConfig};

#[test]
fn datasets_are_seed_deterministic() {
    assert_eq!(
        synth_cifar10(5, 2, 42).train_images,
        synth_cifar10(5, 2, 42).train_images
    );
    assert_eq!(
        synth_digits(20, 12, 7).images,
        synth_digits(20, 12, 7).images
    );
    assert_eq!(synth_scenes(5, 24, 3).images, synth_scenes(5, 24, 3).images);
    let a = glue_tasks(4, 2, 16, 64, 9);
    let b = glue_tasks(4, 2, 16, 64, 9);
    assert_eq!(a[0].train_tokens, b[0].train_tokens);
}

#[test]
fn datasets_differ_across_seeds() {
    assert_ne!(
        synth_cifar10(5, 2, 1).train_images,
        synth_cifar10(5, 2, 2).train_images
    );
}

#[test]
fn model_init_is_seed_deterministic() {
    let a = MicroResNet::rn20_analog(10, 5);
    let b = MicroResNet::rn20_analog(10, 5);
    for (pa, pb) in a.params().iter().zip(b.params().iter()) {
        assert_eq!(*pa.value(), *pb.value(), "{}", pa.name());
    }
    let c = MicroResNet::rn20_analog(10, 6);
    assert_ne!(*a.params()[0].value(), *c.params()[0].value());
}

#[test]
fn full_training_cell_is_bit_reproducible() {
    let data = synth_cifar10(4, 2, 11);
    let run = || {
        run_image_cell(
            ImageModel::MicroResNet20,
            &data,
            TrainConfig {
                batch_size: 16,
                lr: 1e-3,
                ..TrainConfig::new(2, OptimizerKind::adam(), ScheduleSpec::Rex, 99)
            },
            &mut Recorder::disabled(),
        )
        .unwrap()
    };
    assert_eq!(run(), run());
}

#[test]
fn vae_cell_is_bit_reproducible_despite_sampling() {
    // the reparameterisation noise comes from a seeded stream inside the
    // model, so even the stochastic path reproduces exactly
    let train = synth_digits(32, 12, 0);
    let test = synth_digits(16, 12, 1);
    let run = || {
        run_vae_cell(
            &train,
            &test,
            TrainConfig {
                batch_size: 16,
                lr: 1e-3,
                ..TrainConfig::new(2, OptimizerKind::adam(), ScheduleSpec::Linear, 5)
            },
            &mut Recorder::disabled(),
        )
        .unwrap()
    };
    assert_eq!(run(), run());
}

#[test]
fn different_trial_seeds_give_different_results() {
    let data = synth_cifar10(4, 2, 11);
    let run = |seed| {
        run_image_cell(
            ImageModel::MicroResNet20,
            &data,
            TrainConfig {
                batch_size: 16,
                lr: 0.1,
                ..TrainConfig::new(1, OptimizerKind::sgdm(), ScheduleSpec::Rex, seed)
            },
            &mut Recorder::disabled(),
        )
        .unwrap()
    };
    // different seeds shuffle/init differently; final errors almost surely
    // differ at this tiny scale
    assert_ne!(run(1), run(2));
}
