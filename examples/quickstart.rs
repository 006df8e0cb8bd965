//! Quickstart: train the same model under the same tiny budget with four
//! schedules and watch REX come out ahead of step decay and no decay.
//!
//! Each cell is averaged over a handful of seeds — at this micro scale a
//! single run is noise-dominated, and the paper's claims are about the
//! average case.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use rex::data::images::synth_cifar10;
use rex::schedules::ScheduleSpec;
use rex::telemetry::Recorder;
use rex::train::tasks::{run_image_cell, ImageModel};
use rex::train::{Budget, OptimizerKind, TrainConfig};

const SEEDS: std::ops::Range<u64> = 0..5;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A synthetic CIFAR-10 stand-in: 400 train / 150 test images of
    // 3x12x12, deterministic from the seed.
    let data = synth_cifar10(40, 15, 7);
    println!(
        "dataset: {} train / {} test images, {} classes",
        data.train_len(),
        data.test_len(),
        data.num_classes
    );

    // The budgeted setting: we only get 10% of the full 24-epoch run.
    let budget = Budget::new(24, 10);
    println!(
        "budget: {budget}, {} seeds per schedule\n",
        SEEDS.end - SEEDS.start
    );

    for schedule in [
        ScheduleSpec::None,
        ScheduleSpec::Step,
        ScheduleSpec::Linear,
        ScheduleSpec::Rex,
    ] {
        let t0 = std::time::Instant::now();
        let mut errs = Vec::new();
        for seed in SEEDS {
            errs.push(run_image_cell(
                ImageModel::MicroResNet20,
                &data,
                TrainConfig {
                    batch_size: 32,
                    lr: 0.1,
                    ..TrainConfig::new(
                        budget.epochs(),
                        OptimizerKind::sgdm(),
                        schedule.clone(),
                        seed,
                    )
                },
                &mut Recorder::disabled(),
            )?);
        }
        let mean = errs.iter().sum::<f64>() / errs.len() as f64;
        println!(
            "{:>16}: mean test error {mean:5.2}%  ({:.1?})",
            schedule.name(),
            t0.elapsed()
        );
    }

    println!("\nThe step schedule wastes its budget holding a high LR; REX");
    println!("decays smoothly but holds the LR higher than linear for most");
    println!("of the run, then drops aggressively at the end.");
    Ok(())
}
