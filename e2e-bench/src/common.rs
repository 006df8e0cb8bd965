//! Pieces every workload shares: options, seeds, the paper schedules,
//! memory and output locations.

use std::path::PathBuf;
use std::time::Duration;

use rex_core::ScheduleSpec;

/// Options of one run.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Workload name.
    pub workload: &'static str,
    /// Workload seed: every input is derived from it.
    pub seed: u64,
    /// How long the measured phase runs.
    pub seconds: Duration,
    /// The traced (per-layer) run instead of the end-to-end one.
    pub trace: bool,
}

/// Set-up repetitions per run; `setup_s` is their median. A set-up takes
/// 1–15 ms, so many are needed for a steady median. They are split between
/// before and after the measured window, so that one burst of outside load
/// cannot set the median.
pub const SETUP_REPS: usize = 101;

/// Set-up repetitions taken before the measured window; the rest follow it.
pub const SETUP_BEFORE: usize = SETUP_REPS - SETUP_REPS / 2;

/// The eight schedules of the paper's tables, in row order (the bare
/// optimizer first), with the plateau patience the tables use.
pub fn paper_schedules() -> Vec<ScheduleSpec> {
    rex_bench::table_schedules(3)
}

/// SplitMix64: derives independent seeds from the workload seed.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Peak resident set size of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The benchmark's scratch directory (ignored by git), created on demand.
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).expect("cannot create the benchmark's out/ directory");
    dir
}

/// A fresh, empty scratch subdirectory unique to this process.
pub fn scratch(name: &str) -> PathBuf {
    let dir = out_dir().join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("cannot create a scratch directory");
    dir
}

/// Whether two scores are the same bits (NaN never matches).
pub fn same_bits(a: f64, b: f64) -> bool {
    a.is_finite() && a.to_bits() == b.to_bits()
}
