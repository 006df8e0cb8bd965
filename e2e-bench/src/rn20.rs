//! `rn20-cell`: RN20-CIFAR10 cells (SGDM, the eight paper schedules, 25%
//! budget) run one after another through `SettingSpec::run_ft`, with the
//! pool at `nproc` threads so tensor ops run in parallel inside a cell.

use std::hint::black_box;
use std::time::Instant;

use rex_core::ScheduleSpec;
use rex_telemetry::Recorder;
use rex_tensor::DType;
use rex_train::settings::{load_setting, SettingSpec};
use rex_train::tasks::ImageModel;
use rex_train::{Budget, FtConfig, OptimizerKind};

use crate::common::{mix, paper_schedules, peak_rss_mb, same_bits, Opts, SETUP_BEFORE, SETUP_REPS};
use crate::replica::{self, ClassifierCell, StepAcc};
use crate::report::Report;
use crate::spans::Spans;
use crate::stats::{self, Samples};

/// The cell budget, percent of the setting's maximum epochs.
pub const BUDGET_PCT: u32 = 25;

/// Consecutive cells per slice of the window. Rates are taken per slice
/// and reported as their median over slices, so a cell slowed by load from
/// outside the benchmark moves one slice, not the result.
const SLICE: usize = 4;

/// One cell of the workload.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Schedule.
    pub schedule: ScheduleSpec,
    /// Cell seed (model init, shuffling, augmentation).
    pub seed: u64,
}

/// The eight cells a run cycles through, in a seed-dependent order; cell
/// `i` and cell `i + 8` are identical, so repeats can be checked.
pub fn cells(seed: u64) -> Vec<Cell> {
    let schedules = paper_schedules();
    let start = (mix(seed) % schedules.len() as u64) as usize;
    (0..schedules.len())
        .map(|k| Cell {
            schedule: schedules[(start + k) % schedules.len()].clone(),
            seed: mix(seed ^ (k as u64 + 1)),
        })
        .collect()
}

/// Builds the setting (synthesizing its dataset) from the workload seed.
pub fn setting(seed: u64) -> SettingSpec {
    load_setting("rn20-cifar10", mix(seed ^ 0xDA7A)).expect("rn20-cifar10 is catalogued")
}

/// Training samples a cell consumes.
pub fn samples_per_cell(setting: &SettingSpec) -> u64 {
    let SettingSpec::Image { data, .. } = setting else {
        unreachable!("rn20-cifar10 is an image setting")
    };
    let epochs = Budget::new(setting.max_epochs(), BUDGET_PCT).epochs();
    data.train_labels.len() as u64 * epochs as u64
}

/// Runs one cell through the library's single cell entry point.
pub fn run_cell(setting: &SettingSpec, cell: &Cell, budget_pct: u32) -> f64 {
    let optimizer = OptimizerKind::sgdm();
    setting
        .run_ft(
            budget_pct,
            optimizer,
            cell.schedule.clone(),
            setting.default_lr(&optimizer),
            cell.seed,
            DType::F32,
            FtConfig::default(),
            &mut Recorder::disabled(),
        )
        .unwrap_or(f64::NAN)
}

/// Set-up as a user pays it: dataset synthesis and model build.
fn setup(seed: u64, reps: usize) -> (SettingSpec, Vec<f64>) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let s = setting(seed);
        let model = ImageModel::MicroResNet20.build(10, cells(seed)[0].seed);
        black_box(model.params().len());
        times.push(t0.elapsed().as_secs_f64());
        last = Some(s);
    }
    (last.expect("at least one set-up repetition"), times)
}

/// The end-to-end run.
pub fn run(o: &Opts, rep: &mut Report) {
    let (setting, mut setup_times) = setup(o.seed, SETUP_BEFORE);
    let cells = cells(o.seed);
    // warm the pool and scratch buffers on a 1%-budget cell
    black_box(run_cell(&setting, &cells[0], 1));

    let per_cell = samples_per_cell(&setting);
    let mut walls: Vec<f64> = Vec::new();
    let mut scores: Vec<f64> = Vec::new();
    let t0 = Instant::now();
    while t0.elapsed() < o.seconds || walls.len() < SLICE {
        let cell = &cells[scores.len() % cells.len()];
        let tc = Instant::now();
        scores.push(run_cell(&setting, cell, BUDGET_PCT));
        walls.push(tc.elapsed().as_secs_f64());
    }
    let window = t0.elapsed().as_secs_f64();
    let rss = peak_rss_mb();
    setup_times.extend(setup(o.seed, SETUP_REPS - SETUP_BEFORE).1);

    // outputs: bitwise identical across repeats and against a 1-thread twin
    let twin = rex_pool::with_pool_size(1, || run_cell(&setting, &cells[0], BUDGET_PCT));
    for (i, &s) in scores.iter().enumerate() {
        let mut ok = s.is_finite();
        if i >= cells.len() && !same_bits(s, scores[i - cells.len()]) {
            rep.fail(format!("cell {i}: score {s} differs from its repeat"));
            ok = false;
        }
        if i == 0 && !same_bits(s, twin) {
            rep.fail(format!(
                "cell 0: score {s} differs from the 1-thread twin {twin}"
            ));
            ok = false;
        }
        rep.outcome(ok);
    }
    let mut times = Samples::default();
    for &w in &walls {
        times.push(w);
    }
    let n = times.len();
    rep.notes.push(format!(
        "{n} cells in {window:.1} s (rates: median over {} slices of {SLICE} cells); \
         {} repeat checks; 1-thread twin matched: {}",
        n / SLICE,
        n.saturating_sub(cells.len()),
        same_bits(scores[0], twin)
    ));
    if stats::tail_percentile(n) != Some(90) {
        rep.notes.push(format!(
            "cell_s_p90 has {} of {n} samples beyond it (fewer than {})",
            stats::beyond(n, 90),
            stats::MIN_BEYOND
        ));
    }
    // every cell is the same size, so samples_per_s is cells_per_s times
    // the samples of one cell
    let rates: Vec<f64> = walls
        .chunks_exact(SLICE)
        .map(|c| SLICE as f64 / c.iter().sum::<f64>())
        .collect();
    let cells_per_s = stats::median(&rates);
    rep.set("setup_s", stats::median(&setup_times), setup_times.len());
    rep.set("samples_per_s", per_cell as f64 * cells_per_s, n);
    rep.set("cells_per_s", cells_per_s, n);
    rep.set("cell_s_p50", times.pct(50), n);
    rep.set("cell_s_p90", times.pct(90), n);
    rep.set("peak_rss_mb", rss, 1);
}

/// Runs `cell` through the library, then replays it with spans and checks
/// the two final metrics are the same bits; adds both wall times to `acc`.
pub fn replica_pair(
    sp: &mut Spans,
    setting: &SettingSpec,
    cell: &Cell,
    acc: &mut StepAcc,
    rep: &mut Report,
) {
    let t0 = Instant::now();
    let reference = run_cell(setting, cell, BUDGET_PCT);
    acc.untraced += t0.elapsed();
    let SettingSpec::Image { model, data, .. } = setting else {
        unreachable!("rn20-cifar10 is an image setting")
    };
    let optimizer = OptimizerKind::sgdm();
    let t1 = Instant::now();
    let built = model.build(data.num_classes, cell.seed);
    let replayed = replica::classifier(
        sp,
        &ClassifierCell {
            model: built.as_ref(),
            train_images: &data.train_images,
            train_labels: &data.train_labels,
            test_images: &data.test_images,
            test_labels: &data.test_labels,
            epochs: Budget::new(setting.max_epochs(), BUDGET_PCT).epochs(),
            batch_size: 32,
            lr: setting.default_lr(&optimizer),
            optimizer,
            schedule: cell.schedule.clone(),
            augment: true,
            seed: cell.seed ^ 0x7EA1,
        },
        acc,
    );
    acc.traced += t1.elapsed();
    let ok = matches!(replayed, Ok(m) if same_bits(m, reference));
    if !ok {
        rep.fail(format!(
            "RN20 replica ({}) gave {replayed:?}, the trainer {reference}",
            cell.schedule.name()
        ));
    }
    rep.outcome(ok);
}
