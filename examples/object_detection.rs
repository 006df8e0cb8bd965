//! Object detection: train the YOLO-analogue detector on synthetic scenes
//! under a budgeted REX schedule (with the paper's warmup protocol) and
//! report mAP@0.5.
//!
//! ```sh
//! cargo run --release --example object_detection
//! ```

use rex::data::scenes::synth_scenes;
use rex::nn::TinyDetector;
use rex::schedules::ScheduleSpec;
use rex::telemetry::Recorder;
use rex::train::tasks::{detection_map, run_detection_cell};
use rex::train::{Budget, OptimizerKind, TrainConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let train = synth_scenes(240, 24, 5);
    let test = synth_scenes(80, 24, 6);
    println!(
        "scenes: {} train / {} test, {} classes, {}x{} grid",
        train.len(),
        test.len(),
        train.num_classes,
        train.grid,
        train.grid
    );

    // Untrained baseline.
    let untrained = TinyDetector::new(train.num_classes, 24, 0);
    println!(
        "untrained mAP@0.5: {:.1}%",
        detection_map(&untrained, &test)?
    );

    let max_epochs = 24;
    for pct in [10u32, 50, 100] {
        let budget = Budget::new(max_epochs, pct);
        let t0 = std::time::Instant::now();
        let map = run_detection_cell(
            &train,
            &test,
            2, // warmup epochs, excluded from the budget (paper protocol)
            TrainConfig {
                batch_size: 16,
                lr: 1e-3,
                ..TrainConfig::new(
                    budget.epochs(),
                    OptimizerKind::adam(),
                    ScheduleSpec::Rex,
                    42,
                )
            },
            &mut Recorder::disabled(),
        )?;
        println!(
            "budget {budget}: mAP@0.5 {map:5.1}%  ({:.1?})",
            t0.elapsed()
        );
    }
    Ok(())
}
