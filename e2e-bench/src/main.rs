//! `e2e-bench` — the end-to-end benchmark of the REX stack.
//!
//! ```text
//! e2e-bench --workload rn20-cell|dense-grid|serve-jobs|all --seed N --seconds S --trace 0|1
//! e2e-bench compare OLD.json NEW.json
//! ```
//!
//! A run derives every input from `--seed`, measures for `--seconds`,
//! checks the program's outputs, and prints as its last stdout line one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. The line before it is the detailed record (sample counts,
//! provenance, error rate), also saved under `e2e-bench/out/`. `compare`
//! diffs two saved records, and refuses with exit 3, naming the fields,
//! when their host provenance or workload differs. `--workload all` runs
//! the three workloads one after another, each in a process of its own
//! (peak RSS is per process), and ends with one line holding every
//! workload's metrics as `<workload>.<metric>`.
//! See `e2e-bench/README.md` for the workloads and metrics.

mod alloc;
mod common;
mod grid;
mod probes;
mod provenance;
mod replica;
mod report;
mod rn20;
mod serve;
mod spans;
mod stats;
mod traced;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

use common::Opts;
use report::Report;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// The workloads, as `--workload` names them.
pub const WORKLOADS: [&str; 3] = ["rn20-cell", "dense-grid", "serve-jobs"];

/// A run that has not finished by then is stopped with a failure.
const DEADLINE: Duration = Duration::from_secs(170);

const USAGE: &str = "usage: e2e-bench --workload rn20-cell|dense-grid|serve-jobs|all \
                     --seed N --seconds S --trace 0|1\n       \
                     e2e-bench compare OLD.json NEW.json";

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .chain(&["all"])
                        .find(|w| **w == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: u64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(1..=120).contains(&s) {
                    return Err(format!("--seconds {s} outside 1..=120"));
                }
                seconds = Some(Duration::from_secs(s));
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                });
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Opts {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn load_saved(path: &str) -> Result<report::Saved, String> {
    std::fs::read_to_string(path)
        .map_err(|e| format!("{path}: {e}"))
        .and_then(|t| report::parse_saved(&t).map_err(|e| format!("{path}: {e}")))
}

fn compare_cmd(args: &[String]) -> ExitCode {
    let [old, new] = args else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    match (load_saved(old), load_saved(new)) {
        (Ok(a), Ok(b)) => {
            let (text, comparable) = report::compare(&a, &b);
            print!("{text}");
            if comparable {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(3)
            }
        }
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("e2e-bench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Runs every workload in a child process of this binary and combines
/// their records into one last line.
fn run_all(o: &Opts) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("e2e-bench: cannot locate this binary: {e}");
            return ExitCode::from(2);
        }
    };
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut metrics = Vec::new();
    for w in WORKLOADS {
        let child = Command::new(&exe)
            .args(["--workload", w, "--seed", &o.seed.to_string()])
            .args(["--seconds", &o.seconds.as_secs().to_string()])
            .args(["--trace", if o.trace { "1" } else { "0" }])
            .stderr(Stdio::inherit())
            .output();
        let stdout = child
            .as_ref()
            .map(|c| String::from_utf8_lossy(&c.stdout).into_owned())
            .unwrap_or_default();
        // the child's second-to-last line is its detailed record
        let detail = stdout.lines().rev().nth(1).unwrap_or("");
        match report::parse_saved(detail) {
            Ok(saved) => {
                println!("{detail}");
                correct &= saved.correct;
                attempted += saved.attempted;
                failed += saved.failed;
                for d in report::catalogue(w, o.trace) {
                    let (v, _) = saved.metrics.get(d.name).copied().unwrap_or((0.0, 0));
                    metrics.push(format!(
                        "\"{w}.{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                        d.name, d.unit
                    ));
                }
            }
            Err(e) => {
                let status = child.as_ref().map(|c| c.status);
                eprintln!("e2e-bench: {w} produced no record ({e}); exit {status:?}");
                correct = false;
                attempted += 1;
                failed += 1;
            }
        }
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return compare_cmd(&args[1..]);
    }
    let bad = report::catalogue_problems();
    if !bad.is_empty() {
        eprintln!("e2e-bench: metric catalogue: {}", bad.join("; "));
        return ExitCode::from(2);
    }
    let o = match parse_opts(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("e2e-bench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if o.workload == "all" {
        return run_all(&o);
    }
    // A stuck run must still end: give up with a failure exit. Detached on
    // purpose: it either fires or ends with the process.
    std::thread::spawn(|| {
        std::thread::sleep(DEADLINE);
        eprintln!("e2e-bench: run exceeded {DEADLINE:?}; giving up");
        std::process::exit(1);
    });

    // every workload runs with at most nproc threads
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    if let Err(e) = rex_pool::set_num_threads(nproc) {
        eprintln!("e2e-bench: {e}");
        return ExitCode::from(2);
    }
    let mut rep = Report::new(o.workload, o.seed, o.trace);
    rep.provenance = provenance::collect();
    let outcome = catch_unwind(AssertUnwindSafe(|| match (o.workload, o.trace) {
        (_, true) => traced::run(&o, &mut rep),
        ("rn20-cell", false) => rn20::run(&o, &mut rep),
        ("dense-grid", false) => grid::run(&o, &mut rep),
        (_, false) => serve::run(&o, &mut rep),
    }));
    if outcome.is_err() {
        rep.fail("the run panicked".to_owned());
    }
    for p in rep.problems() {
        rep.notes.push(format!("FAILED: {p}"));
    }

    let detail = rep.detail_json();
    let saved = common::out_dir().join(format!(
        "{}-seed{}-{}.json",
        o.workload,
        o.seed,
        if o.trace { "layers" } else { "e2e" }
    ));
    if let Err(e) = std::fs::write(&saved, format!("{detail}\n")) {
        eprintln!("e2e-bench: cannot save {}: {e}", saved.display());
    }
    eprint!("{}", rep.table());
    println!("{detail}");
    println!("{}", rep.final_line());
    ExitCode::SUCCESS
}
