//! # rex-bench — experiment harness shared by the per-table binaries
//!
//! Every binary in `src/bin/` regenerates one table or figure of the REX
//! paper (see DESIGN.md §4 for the index). This library holds the pieces
//! they share: CLI parsing ([`Args`]), experiment scales ([`ScaleKind`]),
//! the schedule-grid runner ([`run_schedule_grid`]), and the markdown
//! emission helpers.
//!
//! Binaries accept:
//!
//! ```text
//! --scale smoke|fast|full   experiment size (default fast)
//! --out <dir>               directory for CSV records (default results/)
//! --trials <n>              override the trial count
//! --seed <s>                override the base seed
//! --trace <dir>             write one JSONL telemetry trace per cell
//! --resume <dir>            skip cells with a done-marker in <dir>
//! ```
//!
//! `--resume DIR` makes the grid crash-tolerant at cell granularity:
//! every finished cell writes `<cell>.done` (its score, crash-consistent
//! via [`rex_faults::atomic_write`]) into DIR, and a rerun pointed at the
//! same DIR replays those scores instead of retraining. Cells are
//! deterministic, so the resumed table is identical to an uninterrupted
//! run's.
//!
//! `smoke` finishes in seconds (CI sanity), `fast` reproduces the paper's
//! qualitative shape on a single CPU core in minutes, and `full` uses the
//! largest analogue sizes (hours on one core).

#![warn(missing_docs)]

use std::path::{Path, PathBuf};

use rex_core::ScheduleSpec;
use rex_eval::ranking::SettingResult;
use rex_eval::stats::Summary;
use rex_eval::store::Record;
use rex_eval::table;
use rex_telemetry::{JsonlSink, Recorder};
use rex_train::{Budget, OptimizerKind, TrainConfig};

/// Experiment size selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleKind {
    /// Seconds: sanity only.
    Smoke,
    /// Minutes on one core: the recorded reproduction scale.
    Fast,
    /// The largest analogue sizes.
    Full,
}

impl ScaleKind {
    /// Parses `smoke|fast|full`.
    pub fn parse(s: &str) -> Option<ScaleKind> {
        match s {
            "smoke" => Some(ScaleKind::Smoke),
            "fast" => Some(ScaleKind::Fast),
            "full" => Some(ScaleKind::Full),
            _ => None,
        }
    }

    /// Picks one of three values by scale.
    pub fn pick<T>(&self, smoke: T, fast: T, full: T) -> T {
        match self {
            ScaleKind::Smoke => smoke,
            ScaleKind::Fast => fast,
            ScaleKind::Full => full,
        }
    }
}

/// Parsed command-line arguments common to every experiment binary.
#[derive(Debug, Clone)]
pub struct Args {
    /// Selected experiment scale.
    pub scale: ScaleKind,
    /// Output directory for CSV records.
    pub out: PathBuf,
    /// Trial-count override.
    pub trials: Option<usize>,
    /// Base-seed override.
    pub seed: u64,
    /// Telemetry trace directory: when set, every grid cell writes a
    /// JSONL trace file there (one per setting/optimizer/schedule/
    /// budget/trial combination).
    pub trace: Option<PathBuf>,
    /// Worker-thread override (`--threads N`); `None` leaves the pool at
    /// its `REX_NUM_THREADS`/core-count default.
    pub threads: Option<usize>,
    /// Compute-backend override (`--backend scalar|simd|auto`); `None`
    /// leaves the `REX_BACKEND`/auto-detected default.
    pub backend: Option<rex_tensor::BackendKind>,
    /// Per-cell resume directory: finished cells leave done-markers here
    /// and are skipped (score replayed) on the next run.
    pub resume: Option<PathBuf>,
    /// Parameter storage precision (`--dtype f32|f16|bf16`); the default
    /// `f32` is the legacy bit-exact path that golden traces pin.
    pub dtype: rex_tensor::DType,
}

impl Args {
    /// Parses `std::env::args`, exiting with usage on error.
    pub fn parse() -> Args {
        let mut scale = ScaleKind::Fast;
        let mut out = PathBuf::from("results");
        let mut trials = None;
        let mut seed = 0u64;
        let mut trace = None;
        let mut threads = None;
        let mut resume = None;
        let mut backend = None;
        let mut dtype = rex_tensor::DType::F32;
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let mut i = 0;
        while i < argv.len() {
            let need_value = |i: usize| {
                argv.get(i + 1).cloned().unwrap_or_else(|| {
                    eprintln!("missing value for {}", argv[i]);
                    std::process::exit(2);
                })
            };
            match argv[i].as_str() {
                "--scale" => {
                    let v = need_value(i);
                    scale = ScaleKind::parse(&v).unwrap_or_else(|| {
                        eprintln!("bad scale {v:?}; expected smoke|fast|full");
                        std::process::exit(2);
                    });
                    i += 2;
                }
                "--out" => {
                    out = PathBuf::from(need_value(i));
                    i += 2;
                }
                "--trials" => {
                    trials = Some(need_value(i).parse().unwrap_or_else(|_| {
                        eprintln!("bad trial count");
                        std::process::exit(2);
                    }));
                    i += 2;
                }
                "--seed" => {
                    seed = need_value(i).parse().unwrap_or_else(|_| {
                        eprintln!("bad seed");
                        std::process::exit(2);
                    });
                    i += 2;
                }
                "--trace" => {
                    trace = Some(PathBuf::from(need_value(i)));
                    i += 2;
                }
                "--resume" => {
                    resume = Some(PathBuf::from(need_value(i)));
                    i += 2;
                }
                "--threads" => {
                    let n: usize = need_value(i).parse().unwrap_or(0);
                    if n == 0 {
                        eprintln!("bad thread count (want an integer >= 1)");
                        std::process::exit(2);
                    }
                    threads = Some(n);
                    i += 2;
                }
                "--backend" => {
                    let v = need_value(i);
                    backend = Some(rex_tensor::BackendKind::parse(&v).unwrap_or_else(|e| {
                        eprintln!("--backend {v:?}: {e}");
                        std::process::exit(2);
                    }));
                    i += 2;
                }
                "--dtype" => {
                    let v = need_value(i);
                    dtype = rex_tensor::DType::parse(&v)
                        .filter(|d| d.trainable())
                        .unwrap_or_else(|| {
                            eprintln!("bad dtype {v:?}; expected f32|f16|bf16");
                            std::process::exit(2);
                        });
                    i += 2;
                }
                "--help" | "-h" => {
                    eprintln!(
                        "usage: <bin> [--scale smoke|fast|full] [--out DIR] [--trials N] [--seed S] [--trace DIR] [--threads N] [--backend scalar|simd|auto] [--dtype f32|f16|bf16] [--resume DIR]"
                    );
                    std::process::exit(0);
                }
                other => {
                    eprintln!("unknown argument {other:?}");
                    std::process::exit(2);
                }
            }
        }
        if let Some(n) = threads {
            if let Err(e) = rex_pool::set_num_threads(n) {
                eprintln!("--threads {n}: {e}");
                std::process::exit(2);
            }
        }
        if let Some(kind) = backend {
            if let Err(e) = rex_tensor::backend::set_backend(kind) {
                eprintln!("--backend: {e}");
                std::process::exit(2);
            }
        }
        Args {
            scale,
            out,
            trials,
            seed,
            trace,
            threads,
            resume,
            backend,
            dtype,
        }
    }
}

/// The schedules a classification/VAE table compares, in the paper's row
/// order (including the bare-optimizer "None" row).
pub fn table_schedules(plateau_patience: u32) -> Vec<ScheduleSpec> {
    let mut v = vec![ScheduleSpec::None];
    v.extend(rex_core::all_paper_schedules(plateau_patience));
    v
}

/// One cell's inputs, passed to the grid runner's cell function.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Schedule under test.
    pub schedule: ScheduleSpec,
    /// Optimizer family.
    pub optimizer: OptimizerKind,
    /// The budget for this cell.
    pub budget: Budget,
    /// Trial index.
    pub trial: usize,
    /// Seed for this (cell, trial).
    pub seed: u64,
}

impl Cell {
    /// The cell's training configuration: its budgeted epochs, optimizer,
    /// schedule and seed at the given batch size and initial LR, with
    /// [`TrainConfig::new`]'s defaults otherwise.
    pub fn config(&self, batch_size: usize, lr: f32) -> TrainConfig {
        TrainConfig {
            batch_size,
            lr,
            ..TrainConfig::new(
                self.budget.epochs(),
                self.optimizer,
                self.schedule.clone(),
                self.seed,
            )
        }
    }
}

/// Sanitises one component of a trace filename: lowercase, with every
/// non-alphanumeric run collapsed to a single `-`.
fn slug(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c.to_ascii_lowercase());
        } else if !out.ends_with('-') {
            out.push('-');
        }
    }
    out.trim_matches('-').to_string()
}

/// The trace filename a grid cell writes under `--trace DIR`:
/// `<setting>_<optimizer>_<schedule>_b<pct>_t<trial>.jsonl`, each piece
/// slug-sanitised.
pub fn cell_trace_name(setting: &str, cell: &Cell) -> String {
    format!(
        "{}_{}_{}_b{}_t{}.jsonl",
        slug(setting),
        slug(cell.optimizer.name()),
        slug(&cell.schedule.name()),
        cell.budget.pct(),
        cell.trial
    )
}

/// Builds the telemetry recorder for one grid cell: a JSONL writer under
/// `trace_dir` when tracing is on, otherwise disabled. Falls back to a
/// disabled recorder (with a stderr warning) if the file cannot be
/// created — telemetry must not abort an experiment run.
pub fn cell_recorder(trace_dir: Option<&Path>, setting: &str, cell: &Cell) -> Recorder {
    match trace_dir {
        Some(dir) => {
            let path = dir.join(cell_trace_name(setting, cell));
            match JsonlSink::create(&path) {
                Ok(sink) => Recorder::new(Box::new(sink)),
                Err(e) => {
                    eprintln!("warning: cannot create trace file {}: {e}", path.display());
                    Recorder::disabled()
                }
            }
        }
        None => Recorder::disabled(),
    }
}

/// The done-marker filename a finished grid cell leaves under
/// `--resume DIR`: the cell's [`cell_trace_name`] with a `.done` suffix.
pub fn cell_done_name(setting: &str, cell: &Cell) -> String {
    let mut name = cell_trace_name(setting, cell);
    name.truncate(name.len() - ".jsonl".len());
    name.push_str(".done");
    name
}

/// Reads a done-marker back: the cell's score as big-endian `f64` bits in
/// hex (exact — no decimal round-trip), one line. Returns `None` on any
/// parse problem so a corrupt marker just re-runs the cell.
fn read_done_marker(path: &Path) -> Option<f64> {
    let text = std::fs::read_to_string(path).ok()?;
    let bits = u64::from_str_radix(text.trim(), 16).ok()?;
    Some(f64::from_bits(bits))
}

fn write_done_marker(path: &Path, score: f64) {
    let body = format!("{:016x}\n", score.to_bits());
    if let Err(e) = rex_faults::atomic_write("done", path, body.as_bytes()) {
        eprintln!("warning: cannot write done marker {}: {e}", path.display());
    }
}

/// Runs a full schedule × budget grid for one setting/optimizer pair and
/// returns flat records. `cell_fn` trains one cell — emitting telemetry
/// through the supplied recorder — and returns the metric. With
/// `trace_dir` set, each cell's recorder writes a JSONL trace named by
/// [`cell_trace_name`]; otherwise the recorder is disabled (zero cost).
///
/// With `resume_dir` set, each finished cell writes a crash-consistent
/// done-marker there ([`cell_done_name`]; the score as exact `f64` bits)
/// and a later run with the same `resume_dir` replays marked cells
/// instead of retraining them — an interrupted grid loses at most the
/// cells that were in flight.
///
/// Cells are independent (each derives its own seed, recorder, and
/// model), so they run concurrently on the [`rex_pool`] worker pool, one
/// cell per task. Records are assembled afterwards in the canonical
/// schedule → budget → trial order, so the output is byte-identical to
/// the old serial loop regardless of thread count or completion order;
/// tensor ops inside a cell run inline on the worker (the pool never
/// nests), keeping every cell's trajectory bitwise independent of how
/// many cells run at once.
///
/// Progress is streamed to stderr so long runs are observable; lines may
/// interleave across cells when the pool has more than one thread.
#[allow(clippy::too_many_arguments)]
pub fn run_schedule_grid(
    setting: &str,
    optimizer: OptimizerKind,
    schedules: &[ScheduleSpec],
    budgets: &[Budget],
    trials: usize,
    base_seed: u64,
    lower_is_better: bool,
    trace_dir: Option<&Path>,
    resume_dir: Option<&Path>,
    cell_fn: impl Fn(&Cell, &mut Recorder) -> f64 + Sync,
) -> Vec<Record> {
    if let Some(dir) = resume_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("warning: cannot create resume dir {}: {e}", dir.display());
        }
    }
    let mut cells = Vec::with_capacity(schedules.len() * budgets.len() * trials);
    for schedule in schedules {
        for budget in budgets {
            for trial in 0..trials {
                cells.push(Cell {
                    schedule: schedule.clone(),
                    optimizer,
                    budget: *budget,
                    trial,
                    seed: base_seed
                        ^ (trial as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        ^ ((budget.pct() as u64) << 32),
                });
            }
        }
    }
    let mut scores = vec![0.0f64; cells.len()];
    let cells_ref = &cells;
    rex_pool::parallel_for_slices(&mut scores, 1, |idx, _, slot| {
        let cell = &cells_ref[idx];
        let done_path = resume_dir.map(|d| d.join(cell_done_name(setting, cell)));
        if let Some(score) = done_path.as_deref().and_then(read_done_marker) {
            eprintln!(
                "[{setting}/{}] {} @ {}: trial {} -> {:.2} (resumed)",
                cell.optimizer.name(),
                cell.schedule.name(),
                cell.budget,
                cell.trial,
                score,
            );
            slot[0] = score;
            return;
        }
        let mut rec = cell_recorder(trace_dir, setting, cell);
        let t0 = std::time::Instant::now();
        let score = cell_fn(cell, &mut rec);
        rec.flush();
        if let Some(path) = &done_path {
            write_done_marker(path, score);
        }
        eprintln!(
            "[{setting}/{}] {} @ {}: trial {} -> {:.2} ({:.1?})",
            cell.optimizer.name(),
            cell.schedule.name(),
            cell.budget,
            cell.trial,
            score,
            t0.elapsed()
        );
        slot[0] = score;
    });
    cells
        .iter()
        .zip(scores)
        .map(|(cell, score)| Record {
            setting: setting.to_string(),
            optimizer: cell.optimizer.name().to_string(),
            schedule: cell.schedule.name(),
            budget_pct: cell.budget.pct(),
            trial: cell.trial as u32,
            score,
            lower_is_better,
        })
        .collect()
}

/// Prints a paper-style table (rows = schedules, columns = budgets) from
/// flat records, marking Top-1 bold and Top-3 italic per column.
pub fn print_budget_table(title: &str, records: &[Record], budgets: &[Budget]) {
    use std::collections::BTreeMap;
    println!("\n## {title}\n");
    let mut optimizers: Vec<String> = records.iter().map(|r| r.optimizer.clone()).collect();
    optimizers.sort();
    optimizers.dedup();
    for opt in optimizers {
        let recs: Vec<&Record> = records.iter().filter(|r| r.optimizer == opt).collect();
        let mut schedules: Vec<String> = Vec::new();
        for r in &recs {
            if !schedules.contains(&r.schedule) {
                schedules.push(r.schedule.clone());
            }
        }
        let lower = recs.first().map(|r| r.lower_is_better).unwrap_or(true);
        let mut headers = vec![opt.clone()];
        headers.extend(budgets.iter().map(|b| format!("{}%", b.pct())));
        let mut rows: Vec<Vec<String>> = Vec::new();
        let mut cols: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
        for sched in &schedules {
            let mut row = vec![sched.clone()];
            for (ci, b) in budgets.iter().enumerate() {
                let vals: Vec<f64> = recs
                    .iter()
                    .filter(|r| r.schedule == *sched && r.budget_pct == b.pct())
                    .map(|r| r.score)
                    .collect();
                let summary = Summary::of(&vals);
                cols.entry(ci + 1).or_default().push(summary.mean);
                row.push(format!("{summary}"));
            }
            rows.push(row);
        }
        for (ci, values) in cols {
            table::mark_best_per_column(&mut rows, ci, &values, lower);
        }
        println!("{}", table::markdown(&headers, &rows));
    }
}

/// Converts records into per-cell [`SettingResult`]s (convenience for the
/// aggregate binaries).
pub fn records_to_cells(records: &[Record]) -> Vec<SettingResult> {
    rex_eval::store::to_setting_results(records)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parse_and_pick() {
        assert_eq!(ScaleKind::parse("smoke"), Some(ScaleKind::Smoke));
        assert_eq!(ScaleKind::parse("fast"), Some(ScaleKind::Fast));
        assert_eq!(ScaleKind::parse("huge"), None);
        assert_eq!(ScaleKind::Fast.pick(1, 2, 3), 2);
    }

    #[test]
    fn grid_runner_covers_all_cells() {
        let budgets = vec![Budget::new(100, 1), Budget::new(100, 100)];
        let schedules = vec![ScheduleSpec::Rex, ScheduleSpec::Linear];
        let records = run_schedule_grid(
            "TEST",
            OptimizerKind::sgdm(),
            &schedules,
            &budgets,
            2,
            0,
            true,
            None,
            None,
            |cell, rec| {
                assert!(!rec.is_enabled(), "no --trace => disabled recorder");
                cell.budget.pct() as f64 + cell.trial as f64
            },
        );
        assert_eq!(records.len(), 2 * 2 * 2);
        let trial_scores: Vec<f64> = records
            .iter()
            .filter(|r| r.schedule == "REX" && r.budget_pct == 1)
            .map(|r| r.score)
            .collect();
        assert_eq!(trial_scores, vec![1.0, 2.0]);
    }

    #[test]
    fn resume_dir_skips_finished_cells_and_replays_exact_scores() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let dir = std::env::temp_dir().join(format!("rex_bench_resume_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let budgets = vec![Budget::new(100, 10)];
        let schedules = vec![ScheduleSpec::Rex, ScheduleSpec::Linear];
        let runs = AtomicUsize::new(0);
        // 1/3 is not exactly representable: a decimal round-trip would drift
        let score = |cell: &Cell| (cell.trial as f64 + 1.0) / 3.0 + cell.seed as f64;
        let first = run_schedule_grid(
            "TEST",
            OptimizerKind::sgdm(),
            &schedules,
            &budgets,
            2,
            7,
            true,
            None,
            Some(&dir),
            |cell, _| {
                runs.fetch_add(1, Ordering::Relaxed);
                score(cell)
            },
        );
        assert_eq!(runs.load(Ordering::Relaxed), 4);
        // simulate a crash that lost one cell's marker: that cell re-runs,
        // the other three replay their stored scores bit-for-bit
        let lost = dir.join(cell_done_name(
            "TEST",
            &Cell {
                schedule: ScheduleSpec::Linear,
                optimizer: OptimizerKind::sgdm(),
                budget: budgets[0],
                trial: 1,
                seed: 0,
            },
        ));
        std::fs::remove_file(&lost).expect("marker was written");
        let second = run_schedule_grid(
            "TEST",
            OptimizerKind::sgdm(),
            &schedules,
            &budgets,
            2,
            7,
            true,
            None,
            Some(&dir),
            |cell, _| {
                runs.fetch_add(1, Ordering::Relaxed);
                score(cell)
            },
        );
        assert_eq!(runs.load(Ordering::Relaxed), 5, "exactly one cell re-ran");
        let key = |r: &Record| (r.schedule.clone(), r.budget_pct, r.trial, r.score.to_bits());
        assert_eq!(
            first.iter().map(key).collect::<Vec<_>>(),
            second.iter().map(key).collect::<Vec<_>>()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_done_marker_reruns_the_cell() {
        let dir = std::env::temp_dir().join(format!("rex_bench_corrupt_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let cell = Cell {
            schedule: ScheduleSpec::Rex,
            optimizer: OptimizerKind::sgdm(),
            budget: Budget::new(100, 10),
            trial: 0,
            seed: 0,
        };
        let marker = dir.join(cell_done_name("TEST", &cell));
        std::fs::write(&marker, "not-hex\n").unwrap();
        let records = run_schedule_grid(
            "TEST",
            OptimizerKind::sgdm(),
            &[ScheduleSpec::Rex],
            &[Budget::new(100, 10)],
            1,
            0,
            true,
            None,
            Some(&dir),
            |_, _| 42.0,
        );
        assert_eq!(records[0].score, 42.0, "corrupt marker must not be trusted");
        assert_eq!(
            read_done_marker(&marker),
            Some(42.0),
            "marker rewritten after the re-run"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trace_names_are_sanitised_and_unique_per_cell() {
        let cell = Cell {
            schedule: ScheduleSpec::Delayed(Box::new(ScheduleSpec::Linear), 0.5),
            optimizer: OptimizerKind::sgdm(),
            budget: Budget::new(100, 10),
            trial: 3,
            seed: 0,
        };
        let name = cell_trace_name("RN20-CIFAR10", &cell);
        assert!(name.ends_with("_b10_t3.jsonl"), "{name}");
        assert!(name.starts_with("rn20-cifar10_"), "{name}");
        assert!(
            name.chars()
                .all(|c| c.is_ascii_alphanumeric() || "-_.".contains(c)),
            "{name}"
        );
        let other = cell_trace_name("RN20-CIFAR10", &Cell { trial: 4, ..cell });
        assert_ne!(name, other);
    }

    #[test]
    fn table_schedules_include_none_row() {
        let s = table_schedules(5);
        assert_eq!(s.len(), 8);
        assert_eq!(s[0].name(), "None");
        assert_eq!(s[7].name(), "REX");
    }
}
