//! **Table 6 — VGG16-CIFAR100**: schedule × budget grid for the plain-CNN
//! / many-class analogue, under SGDM and Adam.
//!
//! The class count is reduced from 100 (20 in fast mode) to keep the
//! single-core runtime tractable; DESIGN.md documents the substitution.

use rex_bench::{print_budget_table, run_schedule_grid, table_schedules, Args};
use rex_data::images::synth_cifar100;
use rex_eval::store::write_csv;
use rex_train::tasks::{run_image_cell, ImageModel};
use rex_train::{Budget, OptimizerKind, TrainConfig};

fn main() {
    let args = Args::parse();
    let (max_epochs, classes, per_class, test_per_class, trials) = args.scale.pick(
        (3usize, 5usize, 8usize, 4usize, 1usize),
        (40, 20, 30, 10, 2),
        (48, 100, 50, 10, 3),
    );
    let trials = args.trials.unwrap_or(trials);
    let budgets = match args.scale {
        rex_bench::ScaleKind::Smoke => vec![Budget::new(max_epochs, 100)],
        _ => Budget::paper_levels(max_epochs),
    };
    let data = synth_cifar100(classes, per_class, test_per_class, args.seed ^ 0xC1F100);
    let schedules = table_schedules(2);

    let mut records = Vec::new();
    for optimizer in [OptimizerKind::sgdm(), OptimizerKind::adam()] {
        records.extend(run_schedule_grid(
            "VGG16-CIFAR100",
            optimizer,
            &schedules,
            &budgets,
            trials,
            args.seed,
            true,
            args.trace.as_deref(),
            args.resume.as_deref(),
            |cell, rec| {
                run_image_cell(
                    ImageModel::MicroVgg(12),
                    &data,
                    TrainConfig {
                        dtype: args.dtype,
                        ..cell.config(
                            32,
                            // VGG (no batch norm) needs to sit below the plateau-
                            // locking LR; see DESIGN.md on per-setting LR choices
                            match cell.optimizer {
                                OptimizerKind::Sgdm { .. } => 0.01,
                                _ => 3e-3,
                            },
                        )
                    },
                    rec,
                )
                .expect("training cell failed")
            },
        ));
    }

    print_budget_table("Table 6: VGG16-CIFAR100 (test error %)", &records, &budgets);
    let path = args.out.join("table6_vgg16_cifar100.csv");
    write_csv(&path, &records).expect("write CSV");
    eprintln!("records written to {}", path.display());
}
