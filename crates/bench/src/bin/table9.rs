//! **Table 9 — YOLO-VOC**: detection grid on synthetic scenes, Adam only
//! (as in the paper), metric = test mAP@0.5 (%), higher is better. A
//! 2-epoch linear warmup is applied and excluded from the budget; epochs
//! round up — both per the paper's protocol.

use rex_bench::{print_budget_table, run_schedule_grid, Args};
use rex_core::ScheduleSpec;
use rex_data::scenes::synth_scenes;
use rex_eval::store::write_csv;
use rex_train::tasks::run_detection_cell;
use rex_train::{Budget, OptimizerKind};

fn main() {
    let args = Args::parse();
    let (max_epochs, n_train, n_test, trials) = args.scale.pick(
        (4usize, 32usize, 16usize, 1usize),
        (60, 240, 100, 2),
        (50, 800, 300, 3),
    );
    let trials = args.trials.unwrap_or(trials);
    let budgets = match args.scale {
        rex_bench::ScaleKind::Smoke => vec![Budget::new(max_epochs, 100)],
        _ => Budget::paper_levels(max_epochs),
    };
    let train = synth_scenes(n_train, 24, args.seed ^ 0x70C0);
    let test = synth_scenes(n_test, 24, args.seed ^ 0x70C1);
    // Table 9 rows: bare Adam + six schedules (no Decay-on-Plateau).
    let schedules = vec![
        ScheduleSpec::None,
        ScheduleSpec::Step,
        ScheduleSpec::OneCycle,
        ScheduleSpec::Cosine,
        ScheduleSpec::Linear,
        ScheduleSpec::ExpDecay,
        ScheduleSpec::Rex,
    ];

    let records = run_schedule_grid(
        "YOLO-VOC",
        OptimizerKind::adam(),
        &schedules,
        &budgets,
        trials,
        args.seed,
        false, // mAP: higher is better
        args.trace.as_deref(),
        args.resume.as_deref(),
        |cell, rec| {
            run_detection_cell(
                &train,
                &test,
                2, // warmup epochs, excluded from the budget
                cell.config(8, 1e-2),
                rec,
            )
            .expect("training cell failed")
        },
    );

    print_budget_table(
        "Table 9: YOLO-VOC (mAP %, higher is better)",
        &records,
        &budgets,
    );
    let path = args.out.join("table9_yolo_voc.csv");
    write_csv(&path, &records).expect("write CSV");
    eprintln!("records written to {}", path.display());
}
