//! `dense-grid`: VAE-MNIST and digits-mlp cells across the eight paper
//! schedules, {SGDM, Adam} and the low budgets, run through
//! `rex_bench::run_schedule_grid` (one cell per pool task, ops inline).

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Mutex;
use std::time::Instant;

use rex_data::digits::synth_digits;
use rex_eval::store::Record;
use rex_nn::{Mlp, Module, Vae};
use rex_tensor::{DType, Prng};
use rex_train::settings::{load_setting, SettingSpec};
use rex_train::{Budget, FtConfig, OptimizerKind};

use crate::common::{mix, paper_schedules, peak_rss_mb, same_bits, Opts, SETUP_BEFORE, SETUP_REPS};
use crate::replica::{self, ClassifierCell, StepAcc, VaeCell};
use crate::report::Report;
use crate::spans::Spans;
use crate::stats::{self, Samples};

/// The low budgets of the paper's tables, percent.
pub const BUDGETS: [u32; 3] = [1, 5, 10];

/// Passes a run must measure at least, so the median over passes means
/// something. A pass has 144 cells, so its p90 has ten beyond it.
const MIN_PASSES: usize = 3;

/// One `run_schedule_grid` call of a pass.
#[derive(Debug, Clone, Copy)]
pub struct GridCall {
    /// Setting name.
    pub setting: &'static str,
    /// Optimizer family.
    pub optimizer: OptimizerKind,
    /// Initial LR (the table binaries' choices).
    pub lr: f32,
    /// Trials per schedule × budget.
    pub trials: usize,
}

/// The grid calls of one pass. Digits cells run two trials so that, of a
/// pass's 144 cells, the median falls well inside the (tiny, uniform)
/// digits cells and p90 inside the 5–10%-budget VAE cells, not on the
/// edge between two groups of very different size.
pub fn calls() -> [GridCall; 4] {
    [
        GridCall {
            setting: "digits-mlp",
            optimizer: OptimizerKind::sgdm(),
            lr: 0.1,
            trials: 2,
        },
        GridCall {
            setting: "digits-mlp",
            optimizer: OptimizerKind::adam(),
            lr: 0.1,
            trials: 2,
        },
        GridCall {
            setting: "vae-mnist",
            optimizer: OptimizerKind::sgdm(),
            lr: 3e-3,
            trials: 1,
        },
        GridCall {
            setting: "vae-mnist",
            optimizer: OptimizerKind::adam(),
            lr: 1e-2,
            trials: 1,
        },
    ]
}

/// Training samples one cell of `setting` at `pct` consumes (the sizes
/// `SettingSpec::run_ft` synthesizes).
fn samples_per_cell(setting: &SettingSpec, pct: u32) -> u64 {
    let train = match setting {
        SettingSpec::Vae { .. } => 400,
        SettingSpec::Digits { .. } => 120,
        SettingSpec::Image { data, .. } => data.train_labels.len(),
    };
    (train * Budget::new(setting.max_epochs(), pct).epochs()) as u64
}

/// A finished cell's wall time and training samples.
pub struct CellOut {
    seconds: f64,
    samples: u64,
}

/// Runs one pass (every grid call) through `run_schedule_grid`, returning
/// the records in canonical order and the per-cell timings.
pub fn pass(seed: u64, budgets: &[u32]) -> (Vec<Record>, Vec<CellOut>) {
    let schedules = paper_schedules();
    let mut records = Vec::new();
    let outs = Mutex::new(Vec::new());
    for (k, call) in calls().iter().enumerate() {
        let setting = load_setting(call.setting, 0).expect("catalogued setting");
        let budgets: Vec<Budget> = budgets
            .iter()
            .map(|&p| Budget::new(setting.max_epochs(), p))
            .collect();
        records.extend(rex_bench::run_schedule_grid(
            setting.name(),
            call.optimizer,
            &schedules,
            &budgets,
            call.trials,
            mix(seed ^ (k as u64 + 1)),
            true,
            None,
            None,
            |cell, rec| {
                let t0 = Instant::now();
                let score = setting
                    .run_ft(
                        cell.budget.pct(),
                        cell.optimizer,
                        cell.schedule.clone(),
                        call.lr,
                        cell.seed,
                        DType::F32,
                        FtConfig::default(),
                        rec,
                    )
                    .unwrap_or(f64::NAN);
                outs.lock().expect("no cell panicked").push(CellOut {
                    seconds: t0.elapsed().as_secs_f64(),
                    samples: samples_per_cell(&setting, cell.budget.pct()),
                });
                score
            },
        ));
    }
    (records, outs.into_inner().expect("no cell panicked"))
}

/// Set-up as a user pays it: dataset synthesis and model build for both
/// settings, at the sizes the cells use.
fn setup(seed: u64, reps: usize) -> Vec<f64> {
    (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            let s = mix(seed);
            let vae_train = synth_digits(400, 12, s ^ 0xD161);
            let vae_test = synth_digits(150, 12, s ^ 0xD162);
            let vae = Vae::new(144, 64, 8, s);
            let mlp_train = synth_digits(120, 12, s ^ 0xD1_6217);
            let mlp_test = synth_digits(40, 12, s ^ 0xD1_6218);
            let mlp = Mlp::new("m", &[144, 24, 10], &mut Prng::new(s));
            black_box((
                vae_train.len(),
                vae_test.len(),
                mlp_train.len(),
                mlp_test.len(),
            ));
            black_box((vae.params().len(), mlp.params().len()));
            t0.elapsed().as_secs_f64()
        })
        .collect()
}

fn key(r: &Record) -> (String, String, String, u32, u32) {
    (
        r.setting.clone(),
        r.optimizer.clone(),
        r.schedule.clone(),
        r.budget_pct,
        r.trial,
    )
}

/// The end-to-end run.
pub fn run(o: &Opts, rep: &mut Report) {
    let mut setup_times = setup(o.seed, SETUP_BEFORE);
    // warm the pool and allocator on one pass at the smallest budget
    black_box(pass(o.seed, &BUDGETS[..1]));

    // each pass is one slice of the window: rates and percentiles are taken
    // per pass and reported as their median over passes
    let mut cells = 0usize;
    let mut slices: Vec<[f64; 4]> = Vec::new();
    let mut passes: Vec<Vec<Record>> = Vec::new();
    let t0 = Instant::now();
    while t0.elapsed() < o.seconds || slices.len() < MIN_PASSES {
        let tp = Instant::now();
        let (records, outs) = pass(o.seed, &BUDGETS);
        let wall = tp.elapsed().as_secs_f64();
        let mut times = Samples::default();
        let mut samples = 0u64;
        for c in &outs {
            times.push(c.seconds);
            samples += c.samples;
        }
        cells += outs.len();
        slices.push([
            samples as f64 / wall,
            outs.len() as f64 / wall,
            times.pct(50),
            times.pct(90),
        ]);
        passes.push(records);
    }
    let rss = peak_rss_mb();
    setup_times.extend(setup(o.seed, SETUP_REPS - SETUP_BEFORE));

    // outputs: every pass repeats the first bit for bit, and the 1%-budget
    // cells of the first pass match a 1-thread twin
    let (twin, _) = rex_pool::with_pool_size(1, || pass(o.seed, &BUDGETS[..1]));
    let first: BTreeMap<_, f64> = passes[0].iter().map(|r| (key(r), r.score)).collect();
    let twins: BTreeMap<_, f64> = twin.iter().map(|r| (key(r), r.score)).collect();
    for (p, records) in passes.iter().enumerate() {
        for r in records {
            let k = key(r);
            let mut ok = r.score.is_finite();
            if p > 0 && !same_bits(r.score, first[&k]) {
                rep.fail(format!(
                    "pass {p}: {k:?} score {} differs from pass 0",
                    r.score
                ));
                ok = false;
            }
            if let Some(&t) = twins.get(&k).filter(|_| p == 0) {
                if !same_bits(r.score, t) {
                    rep.fail(format!(
                        "{k:?}: score {} differs from the 1-thread twin {t}",
                        r.score
                    ));
                    ok = false;
                }
            }
            rep.outcome(ok);
        }
    }
    let per_pass = |k: usize| stats::median(&slices.iter().map(|s| s[k]).collect::<Vec<_>>());
    rep.notes.push(format!(
        "{cells} cells in {} passes of {} (rates and percentiles: median over passes); \
         {} cells checked against a 1-thread twin",
        passes.len(),
        passes[0].len(),
        twin.len()
    ));
    rep.set("setup_s", stats::median(&setup_times), setup_times.len());
    rep.set("samples_per_s", per_pass(0), cells);
    rep.set("cells_per_s", per_pass(1), cells);
    rep.set("cell_s_p50", per_pass(2), cells);
    rep.set("cell_s_p90", per_pass(3), cells);
    rep.set("peak_rss_mb", rss, 1);
}

/// The cells the traced run replays, in a seed-dependent order: every
/// (call, schedule, budget) of a pass, as `run_schedule_grid` seeds them.
pub fn replica_cells(seed: u64) -> Vec<(GridCall, rex_core::ScheduleSpec, u32, u64)> {
    let schedules = paper_schedules();
    let mut out = Vec::new();
    for (k, call) in calls().iter().enumerate() {
        let base = mix(seed ^ (k as u64 + 1));
        for s in &schedules {
            for &pct in &BUDGETS {
                // run_schedule_grid's seed for trial 0
                let cell_seed = base ^ 0x9E37_79B9_7F4A_7C15 ^ (u64::from(pct) << 32);
                out.push((*call, s.clone(), pct, cell_seed));
            }
        }
    }
    let rot = (mix(seed) % out.len() as u64) as usize;
    out.rotate_left(rot);
    out
}

/// Runs one grid cell through the library, then replays it with spans and
/// checks the final metrics are the same bits; adds both wall times to
/// `acc`.
pub fn replica_pair(
    sp: &mut Spans,
    cell: &(GridCall, rex_core::ScheduleSpec, u32, u64),
    acc: &mut StepAcc,
    rep: &mut Report,
) {
    let (call, schedule, pct, seed) = cell;
    let setting = load_setting(call.setting, 0).expect("catalogued setting");
    let t0 = Instant::now();
    let reference = setting
        .run_ft(
            *pct,
            call.optimizer,
            schedule.clone(),
            call.lr,
            *seed,
            DType::F32,
            FtConfig::default(),
            &mut rex_telemetry::Recorder::disabled(),
        )
        .unwrap_or(f64::NAN);
    acc.untraced += t0.elapsed();
    let epochs = Budget::new(setting.max_epochs(), *pct).epochs();
    let t1 = Instant::now();
    let replayed = match setting {
        SettingSpec::Vae { .. } => {
            let train = synth_digits(400, 12, seed ^ 0xD161);
            let test = synth_digits(150, 12, seed ^ 0xD162);
            replica::vae(
                sp,
                &VaeCell {
                    train: &train,
                    test: &test,
                    epochs,
                    batch_size: 8,
                    optimizer: call.optimizer,
                    schedule: schedule.clone(),
                    lr: call.lr,
                    seed: *seed,
                },
                acc,
            )
        }
        _ => digits_replica(sp, epochs, call.optimizer, schedule, call.lr, *seed, acc),
    };
    acc.traced += t1.elapsed();
    let ok = matches!(replayed, Ok(m) if same_bits(m, reference));
    if !ok {
        rep.fail(format!(
            "{} replica ({}, {} %) gave {replayed:?}, the library {reference}",
            call.setting,
            schedule.name(),
            pct
        ));
    }
    rep.outcome(ok);
}

/// Replays a digits-mlp cell of `epochs` epochs as `SettingSpec::run_ft`
/// builds it.
pub fn digits_replica(
    sp: &mut Spans,
    epochs: usize,
    optimizer: OptimizerKind,
    schedule: &rex_core::ScheduleSpec,
    lr: f32,
    seed: u64,
    acc: &mut StepAcc,
) -> Result<f64, rex_train::TrainError> {
    let train = synth_digits(120, 12, seed ^ 0xD1_6217);
    let test = synth_digits(40, 12, seed ^ 0xD1_6218);
    let model = Mlp::new("m", &[144, 24, 10], &mut Prng::new(seed));
    replica::classifier(
        sp,
        &ClassifierCell {
            model: &model,
            train_images: &train.images,
            train_labels: &train.labels,
            test_images: &test.images,
            test_labels: &test.labels,
            epochs,
            batch_size: 16,
            lr,
            optimizer,
            schedule: schedule.clone(),
            augment: false,
            seed: seed ^ 0x7EA1,
        },
        acc,
    )
}
