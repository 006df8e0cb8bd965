//! **Table 7 — VAE-MNIST**: schedule × budget grid for the VAE on
//! synthetic digits; metric = generalization loss (negative ELBO on the
//! test set), under SGDM and Adam.

use rex_bench::{print_budget_table, run_schedule_grid, table_schedules, Args};
use rex_data::digits::synth_digits;
use rex_eval::store::write_csv;
use rex_train::tasks::run_vae_cell;
use rex_train::{Budget, OptimizerKind};

fn main() {
    let args = Args::parse();
    let (max_epochs, n_train, n_test, trials) = args.scale.pick(
        (4usize, 64usize, 32usize, 1usize),
        (200, 400, 150, 2),
        (200, 1500, 400, 3),
    );
    let trials = args.trials.unwrap_or(trials);
    let budgets = match args.scale {
        rex_bench::ScaleKind::Smoke => vec![Budget::new(max_epochs, 100)],
        _ => Budget::paper_levels(max_epochs),
    };
    let train = synth_digits(n_train, 12, args.seed ^ 0xD161);
    let test = synth_digits(n_test, 12, args.seed ^ 0xD162);
    let schedules = table_schedules(3);

    let mut records = Vec::new();
    for optimizer in [OptimizerKind::sgdm(), OptimizerKind::adam()] {
        // LRs at the top of the stable range, as the paper's per-schedule
        // tuning would select (decay schedules tolerate and exploit them)
        let lr = match optimizer {
            OptimizerKind::Sgdm { .. } => 3e-3,
            _ => 1e-2,
        };
        records.extend(run_schedule_grid(
            "VAE-MNIST",
            optimizer,
            &schedules,
            &budgets,
            trials,
            args.seed,
            true,
            args.trace.as_deref(),
            args.resume.as_deref(),
            |cell, rec| {
                run_vae_cell(&train, &test, cell.config(8, lr), rec).expect("training cell failed")
            },
        ));
    }

    print_budget_table(
        "Table 7: VAE-MNIST (generalization loss)",
        &records,
        &budgets,
    );
    let path = args.out.join("table7_vae_mnist.csv");
    write_csv(&path, &records).expect("write CSV");
    eprintln!("records written to {}", path.display());
}
