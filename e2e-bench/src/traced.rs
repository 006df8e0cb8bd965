//! The traced run: per-layer metrics for one workload, timed from the
//! benchmark's own spans around each call it makes into a crate.
//!
//! It has two sections. The workload section replays the workload's own
//! cells: a replica step loop per cell, checked bit for bit against the
//! library's run of the same cell (and, for `dense-grid`, one grid pass
//! through `run_schedule_grid`; for `serve-jobs`, a served session).
//! The probe section times the layers every workload reports at fixed
//! shapes: conv at the RN20 layer shapes, GEMM at the VAE/MLP shapes, and
//! — unless the workload section already served jobs — a short served
//! session with the snapshot and durable-write path of one of its jobs.
//! Pool metrics are deltas of `rex_pool::stats()` over both sections.

use std::path::Path;
use std::time::{Duration, Instant};

use rex_serve::client::request;
use rex_telemetry::span::{self, Detail};
use rex_tensor::DType;
use rex_train::settings::load_setting;
use rex_train::{FtConfig, OptimizerKind};

use crate::common::{mix, out_dir, same_bits, scratch, Opts};
use crate::grid;
use crate::probes;
use crate::replica::StepAcc;
use crate::report::Report;
use crate::rn20;
use crate::serve::{self, Job};
use crate::spans::Spans;
use crate::stats;

/// Jobs of the served session when it is the workload section.
const WORKLOAD_JOBS: usize = 24;
/// Jobs of the served session when it is a probe.
const PROBE_JOBS: usize = 6;
/// Time given to each kernel probe.
const PROBE_TIME: Duration = Duration::from_millis(600);
/// Repetitions of the snapshot probe.
const SNAPSHOT_REPS: usize = 9;

/// What a served session measured.
struct Session {
    specs: Vec<serve::JobSpec>,
    jobs: Vec<Job>,
    /// Mean server-side job run time from `/metrics`, ms.
    job_run_ms: f64,
    job_runs: u64,
    /// Requests made, including the `/metrics` scrape.
    requests: u64,
    snapshot: Option<std::path::PathBuf>,
}

/// Parses `<name> <value>` out of a Prometheus text body.
fn prom_value(text: &str, name: &str) -> Option<f64> {
    text.lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.trim().parse().ok())
}

/// Serves `n` jobs from 2 closed-loop clients and checks them.
fn session(sp: &mut Spans, seed: u64, n: usize, dir: &Path, rep: &mut Report) -> Session {
    sp.enter("serve");
    let data_dir = dir.join("serve-data");
    let ((server, _), _) = sp.time("serve.start", || serve::start(&data_dir));
    let (specs, _) = sp.time("serve.twins", || serve::specs(seed, dir));
    let (lp, _) = sp.time("serve.jobs", || {
        serve::closed_loop(server.addr(), &specs, Duration::ZERO, n)
    });
    let jobs = lp.jobs;
    let (metrics, _) = sp.time("serve.metrics", || {
        request(
            server.addr(),
            "GET",
            "/metrics",
            None,
            Duration::from_secs(30),
        )
    });
    sp.time("serve.stop", || server.shutdown());
    sp.exit("serve");
    let mut s = Session {
        job_run_ms: f64::NAN,
        job_runs: 0,
        requests: jobs.iter().map(|j| j.requests).sum::<u64>() + 1,
        snapshot: None,
        specs,
        jobs,
    };
    match metrics {
        Ok(r) if r.status == 200 => {
            let text = r.text();
            let sum = prom_value(&text, "rex_job_duration_seconds_sum");
            let count = prom_value(&text, "rex_job_duration_seconds_count");
            if let (Some(sum), Some(count)) = (sum, count) {
                s.job_run_ms = sum * 1e3 / count.max(1.0);
                s.job_runs = count as u64;
            }
        }
        Ok(r) => rep.fail(format!("/metrics answered {}", r.status)),
        Err(e) => rep.fail(format!("/metrics scrape failed: {e}")),
    }
    serve::check_jobs(&s.jobs, &s.specs, rep);
    s.snapshot = s
        .jobs
        .first()
        .map(|j| data_dir.join("jobs").join(&j.id).join("ckpt.state"));
    s
}

/// One `serve-jobs` replica pair: a job's cell run through `run_ft`
/// without a server, then replayed with spans.
fn serve_replica_pair(sp: &mut Spans, spec: &serve::JobSpec, acc: &mut StepAcc, rep: &mut Report) {
    let setting = load_setting("digits-mlp", spec.seed).expect("catalogued setting");
    let optimizer = OptimizerKind::sgdm();
    let lr = setting.default_lr(&optimizer);
    let schedule: rex_core::ScheduleSpec = spec.schedule.parse().expect("paper schedule");
    let t0 = Instant::now();
    let reference = setting
        .run_ft(
            serve::BUDGET,
            optimizer,
            schedule.clone(),
            lr,
            spec.seed,
            DType::F32,
            FtConfig::default(),
            &mut rex_telemetry::Recorder::disabled(),
        )
        .unwrap_or(f64::NAN);
    acc.untraced += t0.elapsed();
    let t1 = Instant::now();
    let epochs = rex_train::Budget::new(setting.max_epochs(), serve::BUDGET).epochs();
    let replayed = grid::digits_replica(sp, epochs, optimizer, &schedule, lr, spec.seed, acc);
    acc.traced += t1.elapsed();
    let ok = matches!(replayed, Ok(m) if same_bits(m, reference));
    if !ok {
        rep.fail(format!(
            "digits-mlp job replica ({}) gave {replayed:?}, the library {reference}",
            spec.schedule
        ));
    }
    rep.outcome(ok);
}

/// Runs one library cell of the workload with the program's own phase
/// profiler on and prints its phase table: a cross-check of the
/// benchmark-side spans.
fn phase_table(o: &Opts) -> String {
    span::enable(Detail::Phase);
    match o.workload {
        "rn20-cell" => {
            let setting = rn20::setting(o.seed);
            rn20::run_cell(&setting, &rn20::cells(o.seed)[0], rn20::BUDGET_PCT);
        }
        _ => {
            let seed = mix(o.seed) >> 16;
            let setting = load_setting("digits-mlp", seed).expect("catalogued setting");
            let optimizer = OptimizerKind::sgdm();
            let _ = setting.run_ft(
                serve::BUDGET,
                optimizer,
                rex_core::ScheduleSpec::Rex,
                setting.default_lr(&optimizer),
                seed,
                DType::F32,
                FtConfig::default(),
                &mut rex_telemetry::Recorder::disabled(),
            );
        }
    }
    span::take().render_phase_table()
}

/// The traced run.
pub fn run(o: &Opts, rep: &mut Report) {
    let dir = scratch("traced");
    let pool0 = rex_pool::stats();
    let t_run = Instant::now();
    let mut sp = Spans::new();
    let mut acc = StepAcc::default();
    sp.enter("traced-run");

    // ---- workload section ----
    sp.enter("workload");
    let t0 = Instant::now();
    let mut served = None;
    match o.workload {
        "rn20-cell" => {
            let setting = rn20::setting(o.seed);
            let cells = rn20::cells(o.seed);
            let mut i = 0;
            while i == 0 || t0.elapsed() < o.seconds {
                rn20::replica_pair(&mut sp, &setting, &cells[i % cells.len()], &mut acc, rep);
                i += 1;
            }
        }
        "dense-grid" => {
            let ((records, _), _) = sp.time("grid-pass", || grid::pass(o.seed, &grid::BUDGETS));
            for r in &records {
                rep.outcome(r.score.is_finite());
            }
            let cells = grid::replica_cells(o.seed);
            let mut i = 0;
            while i == 0 || t0.elapsed() < o.seconds {
                grid::replica_pair(&mut sp, &cells[i % cells.len()], &mut acc, rep);
                i += 1;
            }
        }
        _ => {
            let s = session(&mut sp, o.seed, WORKLOAD_JOBS, &dir, rep);
            let mut i = 0;
            while i == 0 || t0.elapsed() < o.seconds {
                let spec = &s.specs[i % s.specs.len()];
                serve_replica_pair(&mut sp, spec, &mut acc, rep);
                i += 1;
            }
            served = Some(s);
        }
    }
    sp.exit("workload");

    // ---- probe section ----
    sp.enter("probes");
    let conv = probes::conv(&mut sp, mix(o.seed ^ 0xC0), PROBE_TIME);
    let (gemm_ms, gemm_n) = probes::gemm(&mut sp, mix(o.seed ^ 0x6E), PROBE_TIME);
    let served = served.unwrap_or_else(|| session(&mut sp, o.seed, PROBE_JOBS, &dir, rep));
    let snap = served
        .snapshot
        .as_deref()
        .map(|p| probes::snapshot(&mut sp, p, &dir, SNAPSHOT_REPS));
    sp.exit("probes");
    sp.exit("traced-run");
    let wall = t_run.elapsed();
    let pool1 = rex_pool::stats();
    let profile = sp.finish();

    // ---- outputs ----
    let trace_path = out_dir().join(format!("{}-seed{}.trace.json", o.workload, o.seed));
    if let Err(e) = std::fs::write(&trace_path, profile.to_chrome_trace()) {
        rep.fail(format!("cannot write {}: {e}", trace_path.display()));
    }
    eprintln!("benchmark span tree ({}):", trace_path.display());
    eprint!("{}", profile.render_phase_table());
    eprintln!("program phase table (cross-check, one library cell):");
    eprint!("{}", phase_table(o));
    let _ = std::fs::remove_dir_all(&dir);

    let steps = acc.steps.max(1) as f64;
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let n_steps = acc.steps as usize;
    rep.set("tensor.conv2d_fwd_ms", conv.fwd_ms, conv.reps);
    rep.set("tensor.conv2d_bwd_ms", conv.bwd_ms, conv.reps);
    rep.set("tensor.conv_gflop_per_step", conv.gflop, 1);
    rep.set("tensor.conv_bytes_per_step", conv.bytes, 1);
    rep.set("tensor.gemm_ms", gemm_ms, gemm_n);
    rep.set("autograd.forward_ms", ms(acc.forward) / steps, n_steps);
    rep.set("autograd.backward_ms", ms(acc.backward) / steps, n_steps);
    rep.set("autograd.nodes_per_step", acc.nodes as f64 / steps, n_steps);
    rep.set("optim.step_us", ms(acc.optim) * 1e3 / steps, n_steps);
    rep.set("data.batch_us", ms(acc.data) * 1e3 / steps, n_steps);
    rep.set("core.schedule_ns", ms(acc.schedule) * 1e6 / steps, n_steps);
    rep.set(
        "eval.evaluate_ms",
        ms(acc.evaluate) / acc.cells.max(1) as f64,
        acc.cells as usize,
    );
    let threads = rex_pool::num_threads();
    let workers = threads.saturating_sub(1).max(1) as f64;
    rep.set("pool.tasks", (pool1.chunks - pool0.chunks) as f64, 1);
    rep.set(
        "pool.queue_wait_ms",
        (pool1.queue_wait_ns - pool0.queue_wait_ns) as f64 / 1e6,
        1,
    );
    rep.set(
        "pool.exec_ms",
        (pool1.exec_ns - pool0.exec_ns) as f64 / 1e6,
        1,
    );
    rep.set(
        "pool.worker_busy_share",
        (pool1.worker_busy_ns - pool0.worker_busy_ns) as f64 / (wall.as_nanos() as f64 * workers),
        1,
    );
    let jobs = &served.jobs;
    let per_job = |f: &dyn Fn(&Job) -> f64| -> f64 {
        let v: Vec<f64> = jobs.iter().map(f).collect();
        if v.is_empty() {
            f64::NAN
        } else {
            stats::median(&v)
        }
    };
    let nj = jobs.len();
    rep.set("serve.submit_ms", per_job(&|j| ms(j.submit)), nj);
    rep.set("serve.first_line_ms", per_job(&|j| ms(j.first_line)), nj);
    rep.set("serve.stream_ms", per_job(&|j| ms(j.stream)), nj);
    rep.set("serve.requests", served.requests as f64, 1);
    rep.set(
        "serve.job_run_ms",
        served.job_run_ms,
        served.job_runs as usize,
    );
    rep.set(
        "telemetry.trace_bytes",
        per_job(&|j| j.trace_bytes as f64),
        nj,
    );
    match snap {
        Some(Ok(p)) => {
            rep.set("train.snapshot_save_ms", p.save_ms, p.reps);
            rep.set("train.snapshot_load_ms", p.load_ms, p.reps);
            rep.set("train.snapshot_bytes", p.bytes, 1);
            rep.set("faults.atomic_write_ms", p.atomic_write_ms, p.reps);
        }
        Some(Err(e)) => rep.fail(format!("snapshot probe: {e}")),
        None => rep.fail("no served job left a snapshot".to_owned()),
    }
    rep.set(
        "alloc.count_per_step",
        acc.alloc_count as f64 / steps,
        n_steps,
    );
    rep.set(
        "alloc.bytes_per_step",
        acc.alloc_bytes as f64 / steps,
        n_steps,
    );
    rep.set(
        "trace.overhead_ratio",
        acc.traced.as_secs_f64() / acc.untraced.as_secs_f64(),
        acc.cells as usize,
    );
    rep.notes.push(format!(
        "replayed {} cells ({} steps, {} samples), each checked against the library's run; \
         span tree written to {}",
        acc.cells,
        acc.steps,
        acc.samples,
        trace_path.display()
    ));
}
