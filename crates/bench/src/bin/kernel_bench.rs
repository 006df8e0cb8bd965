//! `kernel-bench` — self-contained perf harness for the rex-tensor
//! compute kernels (std-only: no criterion, works fully offline).
//!
//! Measures six things and writes `BENCH_kernels.json` at the
//! repository root (schema `rex-kernel-bench/v4`):
//!
//! 1. **cases** — the active compute backend's kernel stack against the
//!    seed's naive reference implementations ([`rex_tensor::reference`]),
//!    at the pool's configured thread count.
//! 2. **backend_matrix** — the headline kernels re-timed for *every*
//!    backend × sweep-thread-count pair (scoped [`with_backend`] /
//!    pool overrides), each against a naive baseline re-timed adjacent
//!    to it (same-moment ratios survive host-speed drift over the run).
//!    Each cell records median and min timings: `speedup_vs_baseline`
//!    is the median-based typical ratio, `speedup_best` the min-based
//!    capability ratio (steal-immune — what `scripts/bench_guard.sh`
//!    regresses against). This is the record that the SIMD backend
//!    actually pays for itself on the host that produced the artifact.
//! 3. **thread_sweep** — the active backend's kernels re-timed at each
//!    sweep pool size, with per-case speedup-vs-1 and parallel
//!    efficiency (`speedup / threads`). The default sweep is clamped to
//!    `min(8, 2·host_cores)` — entries above that are recorded in
//!    `skipped_threads` rather than timed, so a small host doesn't
//!    publish meaningless oversubscribed numbers.
//! 4. **conversions** — f32↔f16 and f32↔bf16 conversion bandwidth
//!    (GB/s over bytes read + written) for both backends, sampled in
//!    [`time_pair`] alternation. The conversions are pure per-element
//!    bit functions, so the scalar/SIMD outputs are asserted bitwise
//!    equal before timing.
//! 5. **quant_matmul** — the Q8_0 quantized GEMM microkernel
//!    ([`kernels::qgemm_nt`], per-block scales consumed in place)
//!    against the materializing baseline (dequantize the whole weight
//!    matrix to f32, then dense [`kernels::gemm_nt`]) at the GEMV
//!    shapes quantized inference exists for: M = 1, K = 1024,
//!    N ∈ {1024, 4096} — the `speedup_best ≥ 1.5×` acceptance cases
//!    `scripts/bench_guard.sh --quant-only` regresses against. Each
//!    case records the weight-bytes ratio (f32 vs Q8_0 ≈ 3.76×) and
//!    the max |diff| between the two outputs. The regime boundary is
//!    real and worth stating: once M grows past a handful of rows the
//!    two sides do the same FLOPs and the baseline's one-off
//!    dequantization amortizes away, so dense GEMM wins — quantization
//!    pays for *memory* (3.76× fewer weight bytes) and for batch-1
//!    latency, not for throughput-shaped products.
//! 6. **grid** — wall-clock of one small real [`rex_bench::run_schedule_grid`]
//!    training grid at 1 pool thread vs 4, i.e. the harness-level
//!    speedup from running independent grid cells concurrently.
//!
//! Timing is wall-clock `std::time::Instant`, warmup runs followed by a
//! median over N reps.
//!
//! ```text
//! cargo run --release -p rex-bench --bin kernel-bench [-- --smoke] [--reps N]
//!     [--threads N] [--backend scalar|simd|auto] [--out PATH]
//! ```
//!
//! `--smoke` drops to 3 reps / 1 warmup for CI sanity. `--threads N`
//! sizes the worker pool (overriding `REX_NUM_THREADS`) for the `cases`
//! section; the sweep, matrix, and grid sections always pin their own
//! pool sizes. `--backend` pins the process default backend (overriding
//! `REX_BACKEND`) for the `cases`/`thread_sweep` sections; the matrix
//! always covers both backends. See DESIGN.md §"Compute kernels" and
//! §"Compute backends" for the JSON schema.

use std::time::Instant;

use rex_bench::{run_schedule_grid, Cell};
use rex_core::ScheduleSpec;
use rex_data::images::synth_cifar10;
use rex_telemetry::Recorder;
use rex_tensor::backend::{self, with_backend, BackendKind};
use rex_tensor::conv::{conv2d_backward, conv2d_forward, Window};
use rex_tensor::ops::{batch_slice, matmul3};
use rex_tensor::reference;
use rex_tensor::{kernels, Prng};
use rex_train::tasks::{run_image_cell, ImageModel};
use rex_train::{Budget, OptimizerKind};

/// Pool sizes the scaling sweep would like to measure; entries above
/// `min(8, 2·host_cores)` are skipped (and recorded as skipped).
const SWEEP_THREADS: [usize; 4] = [1, 2, 4, 8];

/// Pool size for the parallel leg of the grid measurement.
const GRID_THREADS: usize = 4;

/// Splits [`SWEEP_THREADS`] into (measured, skipped) under the
/// oversubscription clamp `min(8, 2·host_cores)`.
fn sweep_split(host_cores: usize) -> (Vec<usize>, Vec<usize>) {
    let cap = 8.min(2 * host_cores.max(1));
    SWEEP_THREADS.iter().partition(|&&t| t <= cap)
}

struct Config {
    reps: usize,
    warmup: usize,
    smoke: bool,
    out: Option<String>,
}

struct Case {
    name: &'static str,
    baseline: &'static str,
    baseline_ms: f64,
    optimized_ms: f64,
    max_abs_diff: f64,
}

impl Case {
    fn speedup(&self) -> f64 {
        if self.optimized_ms > 0.0 {
            self.baseline_ms / self.optimized_ms
        } else {
            f64::INFINITY
        }
    }
}

/// One thread count's optimized-kernel timings (sweep section).
struct SweepEntry {
    threads: usize,
    case_ms: Vec<(&'static str, f64)>,
}

/// One case of a backend-matrix cell. The naive baseline is re-timed
/// adjacent to the optimized kernel so the ratio is immune to
/// host-speed drift over the run (shared hosts routinely halve their
/// effective clock mid-benchmark). Median timings give the typical-cost
/// speedup; min timings give `speedup_best`, the steal-immune
/// capability ratio the bench-guard keys on.
struct MatrixCase {
    name: &'static str,
    optimized_ms: f64,
    optimized_min_ms: f64,
    baseline_ms: f64,
    baseline_min_ms: f64,
}

impl MatrixCase {
    fn speedup(&self) -> f64 {
        if self.optimized_ms > 0.0 {
            self.baseline_ms / self.optimized_ms
        } else {
            f64::INFINITY
        }
    }

    fn speedup_best(&self) -> f64 {
        if self.optimized_min_ms > 0.0 {
            self.baseline_min_ms / self.optimized_min_ms
        } else {
            f64::INFINITY
        }
    }
}

/// One backend × thread-count cell of the backend matrix.
struct MatrixEntry {
    backend: &'static str,
    simd_level: &'static str,
    threads: usize,
    cases: Vec<MatrixCase>,
}

/// The grid-harness measurement: same cells, 1 pool thread vs
/// [`GRID_THREADS`].
struct GridBench {
    cells: usize,
    serial_ms: f64,
    parallel_ms: f64,
}

impl GridBench {
    fn speedup(&self) -> f64 {
        if self.parallel_ms > 0.0 {
            self.serial_ms / self.parallel_ms
        } else {
            f64::INFINITY
        }
    }
}

fn parse_args() -> Config {
    let mut cfg = Config {
        reps: 15,
        warmup: 3,
        smoke: false,
        out: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => {
                cfg.smoke = true;
                cfg.reps = 3;
                cfg.warmup = 1;
            }
            "--reps" => {
                cfg.reps = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--reps needs a positive integer"));
            }
            "--threads" => {
                let n: usize = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--threads needs a positive integer"));
                if let Err(e) = rex_pool::set_num_threads(n) {
                    die(&format!("--threads {n}: {e}"));
                }
            }
            "--backend" => {
                let v = args
                    .next()
                    .unwrap_or_else(|| die("--backend needs scalar|simd|auto"));
                let kind =
                    BackendKind::parse(&v).unwrap_or_else(|e| die(&format!("--backend: {e}")));
                if let Err(e) = backend::set_backend(kind) {
                    die(&format!("--backend: {e}"));
                }
            }
            "--out" => {
                cfg.out = Some(args.next().unwrap_or_else(|| die("--out needs a path")));
            }
            other => die(&format!("unknown argument {other:?}")),
        }
    }
    cfg
}

fn die(msg: &str) -> ! {
    eprintln!("kernel-bench: {msg}");
    eprintln!(
        "usage: kernel-bench [--smoke] [--reps N] [--threads N] [--backend scalar|simd|auto] [--out PATH]"
    );
    std::process::exit(2);
}

/// Median wall-clock milliseconds of `f` over `reps` runs after `warmup`
/// discarded runs.
fn time_median<T>(cfg: &Config, f: impl FnMut() -> T) -> f64 {
    time_stats(cfg, f).0
}

/// `(median, min)` wall-clock milliseconds of `f` over `reps` runs after
/// `warmup` discarded runs. The median is the honest typical cost; the
/// min is the noise-robust capability estimate — external interference
/// (CPU steal on a shared host) can only inflate a sample, never deflate
/// it, so the min converges on the kernel's true cost while the median
/// wanders with the host's load.
fn time_stats<T>(cfg: &Config, mut f: impl FnMut() -> T) -> (f64, f64) {
    for _ in 0..cfg.warmup {
        std::hint::black_box(f());
    }
    let mut samples: Vec<f64> = (0..cfg.reps.max(1))
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(f());
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    samples.sort_by(|a, b| a.total_cmp(b));
    (samples[samples.len() / 2], samples[0])
}

/// [`time_stats`] for an optimized/baseline pair, with the two sampled
/// in strict alternation (opt, base, opt, base, …). On a shared host
/// whose effective clock drifts over seconds, alternation keeps each
/// pair of samples inside the same weather window, so the
/// min-over-reps ratio cancels the drift instead of comparing a fast
/// window of one kernel against a slow window of the other.
fn time_pair<T, U>(
    cfg: &Config,
    mut opt: impl FnMut() -> T,
    mut base: impl FnMut() -> U,
) -> ((f64, f64), (f64, f64)) {
    for _ in 0..cfg.warmup {
        std::hint::black_box(opt());
        std::hint::black_box(base());
    }
    let mut opt_samples = Vec::with_capacity(cfg.reps.max(1));
    let mut base_samples = Vec::with_capacity(cfg.reps.max(1));
    for _ in 0..cfg.reps.max(1) {
        let t0 = Instant::now();
        std::hint::black_box(opt());
        opt_samples.push(t0.elapsed().as_secs_f64() * 1e3);
        let t0 = Instant::now();
        std::hint::black_box(base());
        base_samples.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    let stats = |mut v: Vec<f64>| {
        v.sort_by(|a, b| a.total_cmp(b));
        (v[v.len() / 2], v[0])
    };
    (stats(opt_samples), stats(base_samples))
}

fn max_abs_diff(a: &[f32], b: &[f32]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs() as f64)
        .fold(0.0, f64::max)
}

/// 256×256×256 matmul: blocked GEMM vs the seed's branchy i-k-j loop.
fn bench_matmul(cfg: &Config) -> Case {
    let (m, k, n) = (256, 256, 256);
    let mut rng = Prng::new(7);
    let a = rng.normal_tensor(&[m, k], 0.0, 1.0);
    let b = rng.normal_tensor(&[k, n], 0.0, 1.0);
    let expect = reference::matmul_naive(m, k, n, a.data(), b.data());
    let got = a.matmul(&b).unwrap();
    Case {
        name: "matmul_256x256x256",
        baseline: "seed i-k-j loop with zero-skip branch",
        baseline_ms: time_median(cfg, || reference::matmul_naive(m, k, n, a.data(), b.data())),
        optimized_ms: time_median(cfg, || a.matmul(&b).unwrap()),
        max_abs_diff: max_abs_diff(got.data(), &expect),
    }
}

/// Conv2d forward at the acceptance shape 32×3×32×32, k=3 (O=16, s=1,
/// p=1): im2col + blocked GEMM vs the direct six-loop nest.
fn bench_conv_forward(cfg: &Config) -> Case {
    let mut rng = Prng::new(11);
    let input = rng.normal_tensor(&[32, 3, 32, 32], 0.0, 1.0);
    let weight = rng.normal_tensor(&[16, 3, 3, 3], 0.0, 0.3);
    let bias = rng.normal_tensor(&[16], 0.0, 0.1);
    let win = Window {
        kernel: 3,
        stride: 1,
        padding: 1,
    };
    let expect = reference::conv2d_direct(&input, &weight, Some(&bias), win).unwrap();
    let (got, _) = conv2d_forward(&input, &weight, Some(&bias), win).unwrap();
    Case {
        name: "conv2d_fwd_32x3x32x32_k3",
        baseline: "direct six-loop convolution",
        baseline_ms: time_median(cfg, || {
            reference::conv2d_direct(&input, &weight, Some(&bias), win).unwrap()
        }),
        optimized_ms: time_median(cfg, || {
            conv2d_forward(&input, &weight, Some(&bias), win).unwrap()
        }),
        max_abs_diff: max_abs_diff(got.data(), expect.data()),
    }
}

/// Conv2d backward at the same shape: im2col-GEMM gradients vs the
/// direct scatter nest.
fn bench_conv_backward(cfg: &Config) -> Case {
    let mut rng = Prng::new(13);
    let input = rng.normal_tensor(&[32, 3, 32, 32], 0.0, 1.0);
    let weight = rng.normal_tensor(&[16, 3, 3, 3], 0.0, 0.3);
    let win = Window {
        kernel: 3,
        stride: 1,
        padding: 1,
    };
    let (out, saved) = conv2d_forward(&input, &weight, None, win).unwrap();
    let d_out = rng.normal_tensor(out.shape(), 0.0, 1.0);
    let grads = conv2d_backward(&d_out, &weight, &saved, true, true).unwrap();
    let (di, dw) = (grads.x_grad.unwrap(), grads.weights_grad);
    let (rdi, rdw, _) = reference::conv2d_direct_backward(&d_out, &input, &weight, win).unwrap();
    Case {
        name: "conv2d_bwd_32x3x32x32_k3",
        baseline: "direct six-loop gradient scatter",
        baseline_ms: time_median(cfg, || {
            reference::conv2d_direct_backward(&d_out, &input, &weight, win).unwrap()
        }),
        optimized_ms: time_median(cfg, || {
            conv2d_backward(&d_out, &weight, &saved, true, true).unwrap()
        }),
        max_abs_diff: max_abs_diff(di.data(), rdi.data()).max(max_abs_diff(dw.data(), rdw.data())),
    }
}

/// Batched attention-shaped product `[16,64,64]×[16,64,64]`: matmul3 on
/// batch slices vs the seed path (batch_slice copies + branchy matmul).
fn bench_matmul3(cfg: &Config) -> Case {
    let (bs, m, k, n) = (16, 64, 64, 64);
    let mut rng = Prng::new(17);
    let a = rng.normal_tensor(&[bs, m, k], 0.0, 1.0);
    let b = rng.normal_tensor(&[bs, k, n], 0.0, 1.0);
    let seed_path = || {
        let mut out = Vec::with_capacity(bs * m * n);
        for s in 0..bs {
            let am = batch_slice(&a, s, m, k);
            let bm = batch_slice(&b, s, k, n);
            out.extend_from_slice(&reference::matmul_naive(m, k, n, am.data(), bm.data()));
        }
        out
    };
    let expect = seed_path();
    let got = matmul3(&a, &b).unwrap();
    Case {
        name: "matmul3_16x64x64x64",
        baseline: "batch_slice copies + seed matmul",
        baseline_ms: time_median(cfg, seed_path),
        optimized_ms: time_median(cfg, || matmul3(&a, &b).unwrap()),
        max_abs_diff: max_abs_diff(got.data(), &expect),
    }
}

/// One conversion-bandwidth case: a narrowing or widening pass over
/// [`CONV_ELEMS`] elements, timed per backend with the naive scalar
/// loop sampled adjacent to the SIMD kernel.
struct ConversionCase {
    name: &'static str,
    /// Bytes read + written per element (f32 word + half word = 6).
    bytes_per_elem: usize,
    scalar_ms: f64,
    scalar_min_ms: f64,
    simd_ms: f64,
    simd_min_ms: f64,
}

/// Element count for the conversion-bandwidth cases (24 MB of f32 —
/// well past L2, so the numbers are stream bandwidth, not cache echo).
const CONV_ELEMS: usize = 6 * 1024 * 1024;

impl ConversionCase {
    fn gbps(ms: f64, bytes: usize) -> f64 {
        if ms > 0.0 {
            bytes as f64 / (ms * 1e-3) / 1e9
        } else {
            f64::INFINITY
        }
    }

    fn simd_gbps(&self) -> f64 {
        Self::gbps(self.simd_min_ms, self.bytes_per_elem * CONV_ELEMS)
    }

    fn scalar_gbps(&self) -> f64 {
        Self::gbps(self.scalar_min_ms, self.bytes_per_elem * CONV_ELEMS)
    }

    fn speedup(&self) -> f64 {
        if self.simd_ms > 0.0 {
            self.scalar_ms / self.simd_ms
        } else {
            f64::INFINITY
        }
    }

    fn speedup_best(&self) -> f64 {
        if self.simd_min_ms > 0.0 {
            self.scalar_min_ms / self.simd_min_ms
        } else {
            f64::INFINITY
        }
    }
}

/// Times the four conversion kernels under both backends. The outputs
/// are asserted bitwise equal first — the conversions are pure bit
/// functions, so any backend divergence is a bug, not rounding.
fn bench_conversions(cfg: &Config) -> Vec<ConversionCase> {
    let mut rng = Prng::new(0xC0DEC);
    let src: Vec<f32> = (0..CONV_ELEMS).map(|_| rng.uniform_in(-8.0, 8.0)).collect();
    let scalar = backend::for_kind(BackendKind::Scalar);
    let simd = backend::for_kind(BackendKind::Simd);

    let mut half_a = vec![0u16; CONV_ELEMS];
    let mut half_b = vec![0u16; CONV_ELEMS];
    let mut wide_a = vec![0f32; CONV_ELEMS];
    let mut wide_b = vec![0f32; CONV_ELEMS];
    scalar.f32_to_f16_slice(&src, &mut half_a);
    simd.f32_to_f16_slice(&src, &mut half_b);
    assert_eq!(half_a, half_b, "f32->f16 backends disagree bitwise");
    scalar.f16_to_f32_slice(&half_a, &mut wide_a);
    simd.f16_to_f32_slice(&half_a, &mut wide_b);
    assert_eq!(
        wide_a.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
        wide_b.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
        "f16->f32 backends disagree bitwise"
    );
    scalar.f32_to_bf16_slice(&src, &mut half_a);
    simd.f32_to_bf16_slice(&src, &mut half_b);
    assert_eq!(half_a, half_b, "f32->bf16 backends disagree bitwise");
    let halves = half_a.clone();

    let case = |name, (simd_t, scalar_t): ((f64, f64), (f64, f64))| ConversionCase {
        name,
        bytes_per_elem: 6,
        scalar_ms: scalar_t.0,
        scalar_min_ms: scalar_t.1,
        simd_ms: simd_t.0,
        simd_min_ms: simd_t.1,
    };
    vec![
        case(
            "f32_to_f16",
            time_pair(
                cfg,
                || simd.f32_to_f16_slice(&src, &mut half_a),
                || scalar.f32_to_f16_slice(&src, &mut half_b),
            ),
        ),
        case(
            "f16_to_f32",
            time_pair(
                cfg,
                || simd.f16_to_f32_slice(&halves, &mut wide_a),
                || scalar.f16_to_f32_slice(&halves, &mut wide_b),
            ),
        ),
        case(
            "f32_to_bf16",
            time_pair(
                cfg,
                || simd.f32_to_bf16_slice(&src, &mut half_a),
                || scalar.f32_to_bf16_slice(&src, &mut half_b),
            ),
        ),
        case(
            "bf16_to_f32",
            time_pair(
                cfg,
                || simd.bf16_to_f32_slice(&halves, &mut wide_a),
                || scalar.bf16_to_f32_slice(&halves, &mut wide_b),
            ),
        ),
    ]
}

/// One quantized-matmul case: `C[m,n] = A[m,k]·Bq[n,k]ᵀ` with the Q8_0
/// weight consumed in place vs dequantize-everything-then-dense-GEMM.
struct QuantCase {
    m: usize,
    k: usize,
    n: usize,
    qgemm_ms: f64,
    qgemm_min_ms: f64,
    dequant_gemm_ms: f64,
    dequant_gemm_min_ms: f64,
    /// f32 weight bytes / Q8_0 weight bytes (≈ 3.76 for k % 32 == 0).
    weight_bytes_ratio: f64,
    max_abs_diff: f64,
}

impl QuantCase {
    fn speedup(&self) -> f64 {
        if self.qgemm_ms > 0.0 {
            self.dequant_gemm_ms / self.qgemm_ms
        } else {
            f64::INFINITY
        }
    }

    fn speedup_best(&self) -> f64 {
        if self.qgemm_min_ms > 0.0 {
            self.dequant_gemm_min_ms / self.qgemm_min_ms
        } else {
            f64::INFINITY
        }
    }
}

/// Benchmarks [`kernels::qgemm_nt`] against its materializing baseline
/// at the GEMV shapes quantized inference exists for: M = 1,
/// K = 1024, N ∈ {1024, 4096}.
fn bench_quant_matmul(cfg: &Config) -> Vec<QuantCase> {
    use rex_tensor::dtype::{dequantize_q8_0, quantize_q8_0, QK};
    let mut rng = Prng::new(0x5108);

    [(1usize, 1024usize, 1024usize), (1, 1024, 4096)]
        .iter()
        .map(|&(m, k, n)| {
            let b: Vec<f32> = (0..n * k).map(|_| rng.uniform_in(-1.0, 1.0)).collect();
            let mut b_scales = vec![0u16; (n * k) / QK];
            let mut b_quants = vec![0i8; n * k];
            quantize_q8_0(&b, &mut b_scales, &mut b_quants);
            let q_bytes = 2 * b_scales.len() + b_quants.len();
            let a: Vec<f32> = (0..m * k).map(|_| rng.uniform_in(-1.0, 1.0)).collect();
            let mut c_q = vec![0f32; m * n];
            let mut c_d = vec![0f32; m * n];
            let dequant_then_gemm = |c: &mut [f32]| {
                let mut dense = vec![0f32; n * k];
                dequantize_q8_0(&b_scales, &b_quants, &mut dense);
                c.fill(0.0);
                kernels::gemm_nt(m, k, n, &a, &dense, c);
            };
            kernels::qgemm_nt(m, k, n, &a, &b_scales, &b_quants, &mut c_q);
            dequant_then_gemm(&mut c_d);
            let diff = max_abs_diff(&c_q, &c_d);
            let ((q_med, q_min), (d_med, d_min)) = time_pair(
                cfg,
                || kernels::qgemm_nt(m, k, n, &a, &b_scales, &b_quants, &mut c_q),
                || dequant_then_gemm(&mut c_d),
            );
            QuantCase {
                m,
                k,
                n,
                qgemm_ms: q_med,
                qgemm_min_ms: q_min,
                dequant_gemm_ms: d_med,
                dequant_gemm_min_ms: d_min,
                weight_bytes_ratio: (4 * n * k) as f64 / q_bytes as f64,
                max_abs_diff: diff,
            }
        })
        .collect()
}

/// The shared fixture for the sweep and matrix sections: the three
/// headline kernels with their inputs pre-built.
struct SweepFixture {
    a: rex_tensor::Tensor,
    b: rex_tensor::Tensor,
    input: rex_tensor::Tensor,
    weight: rex_tensor::Tensor,
    bias: rex_tensor::Tensor,
    win: Window,
    saved: rex_tensor::conv::Conv2dSaved,
    d_out: rex_tensor::Tensor,
}

impl SweepFixture {
    fn build() -> SweepFixture {
        let (m, k, n) = (256, 256, 256);
        let mut rng = Prng::new(7);
        let a = rng.normal_tensor(&[m, k], 0.0, 1.0);
        let b = rng.normal_tensor(&[k, n], 0.0, 1.0);
        let mut rng = Prng::new(11);
        let input = rng.normal_tensor(&[32, 3, 32, 32], 0.0, 1.0);
        let weight = rng.normal_tensor(&[16, 3, 3, 3], 0.0, 0.3);
        let bias = rng.normal_tensor(&[16], 0.0, 0.1);
        let win = Window {
            kernel: 3,
            stride: 1,
            padding: 1,
        };
        let (_, saved) = conv2d_forward(&input, &weight, None, win).unwrap();
        let mut rng = Prng::new(13);
        let d_out = rng.normal_tensor(&[32, 16, 32, 32], 0.0, 1.0);
        SweepFixture {
            a,
            b,
            input,
            weight,
            bias,
            win,
            saved,
            d_out,
        }
    }

    /// Times the three headline kernels (`(name, median_ms, min_ms)`)
    /// under whatever backend/pool scope the caller has installed.
    fn time_cases(&self, cfg: &Config) -> Vec<(&'static str, f64, f64)> {
        let mm = time_stats(cfg, || self.a.matmul(&self.b).unwrap());
        let fwd = time_stats(cfg, || {
            conv2d_forward(&self.input, &self.weight, Some(&self.bias), self.win).unwrap()
        });
        let bwd = time_stats(cfg, || {
            conv2d_backward(&self.d_out, &self.weight, &self.saved, true, true).unwrap()
        });
        vec![
            ("matmul_256x256x256", mm.0, mm.1),
            ("conv2d_fwd_32x3x32x32_k3", fwd.0, fwd.1),
            ("conv2d_bwd_32x3x32x32_k3", bwd.0, bwd.1),
        ]
    }

    /// Times the three headline kernels against their naive references
    /// for one matrix cell, each pair sampled in [`time_pair`]
    /// alternation so the speedup ratios survive host-speed drift.
    fn matrix_cases(&self, cfg: &Config) -> Vec<MatrixCase> {
        let case = |name, (opt, base): ((f64, f64), (f64, f64))| MatrixCase {
            name,
            optimized_ms: opt.0,
            optimized_min_ms: opt.1,
            baseline_ms: base.0,
            baseline_min_ms: base.1,
        };
        vec![
            case(
                "matmul_256x256x256",
                time_pair(
                    cfg,
                    || self.a.matmul(&self.b).unwrap(),
                    || reference::matmul_naive(256, 256, 256, self.a.data(), self.b.data()),
                ),
            ),
            case(
                "conv2d_fwd_32x3x32x32_k3",
                time_pair(
                    cfg,
                    || {
                        conv2d_forward(&self.input, &self.weight, Some(&self.bias), self.win)
                            .unwrap()
                    },
                    || {
                        reference::conv2d_direct(
                            &self.input,
                            &self.weight,
                            Some(&self.bias),
                            self.win,
                        )
                        .unwrap()
                    },
                ),
            ),
            case(
                "conv2d_bwd_32x3x32x32_k3",
                time_pair(
                    cfg,
                    || conv2d_backward(&self.d_out, &self.weight, &self.saved, true, true).unwrap(),
                    || {
                        reference::conv2d_direct_backward(
                            &self.d_out,
                            &self.input,
                            &self.weight,
                            self.win,
                        )
                        .unwrap()
                    },
                ),
            ),
        ]
    }
}

/// Re-times the optimized kernels (active backend) at each measured
/// sweep thread count. Scoped pool overrides keep the process-wide
/// default untouched.
fn bench_thread_sweep(cfg: &Config, fixture: &SweepFixture, threads: &[usize]) -> Vec<SweepEntry> {
    threads
        .iter()
        .map(|&t| {
            rex_pool::with_pool_size(t, || SweepEntry {
                threads: t,
                case_ms: fixture
                    .time_cases(cfg)
                    .into_iter()
                    .map(|(name, med, _min)| (name, med))
                    .collect(),
            })
        })
        .collect()
}

/// The backend × thread matrix: every backend at every measured sweep
/// size, timed on the same fixture. The naive baselines are re-timed
/// inside each cell (adjacent to the optimized kernels) so
/// `speedup_vs_baseline` is a same-moment ratio rather than a
/// comparison against timings taken minutes earlier.
fn bench_backend_matrix(
    cfg: &Config,
    fixture: &SweepFixture,
    threads: &[usize],
) -> Vec<MatrixEntry> {
    let mut entries = Vec::new();
    for kind in [BackendKind::Scalar, BackendKind::Simd] {
        let be = backend::for_kind(kind);
        for &t in threads {
            entries.push(with_backend(kind, || {
                rex_pool::with_pool_size(t, || MatrixEntry {
                    backend: be.name(),
                    simd_level: be.simd_level(),
                    threads: t,
                    cases: fixture.matrix_cases(cfg),
                })
            }));
        }
    }
    entries
}

/// Times one small real training grid (2 schedules × 2 trials of a
/// micro-ResNet cell) end to end at 1 pool thread, then at
/// [`GRID_THREADS`]. Both legs run the identical cell list; the
/// determinism contract makes their records equal, so the only variable
/// is how many cells run at once.
fn bench_grid(cfg: &Config) -> GridBench {
    let data = synth_cifar10(16, 8, 0xBE7C);
    let schedules = [ScheduleSpec::Rex, ScheduleSpec::Linear];
    let epochs = if cfg.smoke { 1 } else { 2 };
    let budgets = [Budget::new(epochs, 100)];
    let trials = 2;
    let cells = schedules.len() * budgets.len() * trials;
    let run = || {
        run_schedule_grid(
            "GRID-BENCH",
            OptimizerKind::sgdm(),
            &schedules,
            &budgets,
            trials,
            0xBE7C,
            true,
            None,
            None,
            |cell: &Cell, _rec| {
                run_image_cell(
                    ImageModel::MicroResNet20,
                    &data,
                    cell.config(8, 0.05),
                    &mut Recorder::disabled(),
                )
                .unwrap()
            },
        )
    };
    let time_once = || {
        let t0 = Instant::now();
        std::hint::black_box(run());
        t0.elapsed().as_secs_f64() * 1e3
    };
    GridBench {
        cells,
        serial_ms: rex_pool::with_pool_size(1, time_once),
        parallel_ms: rex_pool::with_pool_size(GRID_THREADS, time_once),
    }
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[allow(clippy::too_many_arguments)]
fn write_json(
    path: &str,
    cfg: &Config,
    cases: &[Case],
    matrix: &[MatrixEntry],
    sweep: &[SweepEntry],
    skipped_threads: &[usize],
    conversions: &[ConversionCase],
    quant: &[QuantCase],
    grid: &GridBench,
) -> std::io::Result<()> {
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let be = backend::active();
    let mut body = String::new();
    body.push_str("{\n");
    body.push_str("  \"schema\": \"rex-kernel-bench/v4\",\n");
    body.push_str(&format!("  \"backend\": \"{}\",\n", be.name()));
    body.push_str(&format!("  \"simd_level\": \"{}\",\n", be.simd_level()));
    body.push_str(&format!("  \"threads\": {},\n", kernels::num_threads()));
    body.push_str(&format!("  \"host_cores\": {host_cores},\n"));
    body.push_str(&format!("  \"reps\": {},\n", cfg.reps));
    body.push_str(&format!("  \"warmup\": {},\n", cfg.warmup));
    body.push_str(&format!("  \"smoke\": {},\n", cfg.smoke));
    body.push_str("  \"cases\": [\n");
    for (i, c) in cases.iter().enumerate() {
        body.push_str(&format!(
            "    {{\"name\": \"{}\", \"baseline\": \"{}\", \"baseline_ms\": {:.4}, \
             \"optimized_ms\": {:.4}, \"speedup\": {:.3}, \"max_abs_diff\": {:.3e}}}{}\n",
            json_escape(c.name),
            json_escape(c.baseline),
            c.baseline_ms,
            c.optimized_ms,
            c.speedup(),
            c.max_abs_diff,
            if i + 1 < cases.len() { "," } else { "" }
        ));
    }
    body.push_str("  ],\n");
    // backend × thread matrix: each cell's naive baseline is re-timed
    // adjacent to its optimized kernels, so the speedup is a same-moment
    // ratio (robust to host-speed drift over the run)
    body.push_str("  \"backend_matrix\": [\n");
    for (i, entry) in matrix.iter().enumerate() {
        body.push_str(&format!(
            "    {{\"backend\": \"{}\", \"simd_level\": \"{}\", \"threads\": {}, \"cases\": [\n",
            json_escape(entry.backend),
            json_escape(entry.simd_level),
            entry.threads
        ));
        for (j, c) in entry.cases.iter().enumerate() {
            body.push_str(&format!(
                "      {{\"name\": \"{}\", \"optimized_ms\": {:.4}, \"baseline_ms\": {:.4}, \
                 \"speedup_vs_baseline\": {:.3}, \"optimized_min_ms\": {:.4}, \
                 \"baseline_min_ms\": {:.4}, \"speedup_best\": {:.3}}}{}\n",
                json_escape(c.name),
                c.optimized_ms,
                c.baseline_ms,
                c.speedup(),
                c.optimized_min_ms,
                c.baseline_min_ms,
                c.speedup_best(),
                if j + 1 < entry.cases.len() { "," } else { "" }
            ));
        }
        body.push_str(&format!(
            "    ]}}{}\n",
            if i + 1 < matrix.len() { "," } else { "" }
        ));
    }
    body.push_str("  ],\n");
    body.push_str(&format!(
        "  \"skipped_threads\": [{}],\n",
        skipped_threads
            .iter()
            .map(|t| t.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    ));
    body.push_str("  \"thread_sweep\": [\n");
    let base = &sweep[0];
    for (i, entry) in sweep.iter().enumerate() {
        body.push_str(&format!(
            "    {{\"threads\": {}, \"cases\": [\n",
            entry.threads
        ));
        for (j, (name, ms)) in entry.case_ms.iter().enumerate() {
            let base_ms = base.case_ms[j].1;
            let speedup = if *ms > 0.0 {
                base_ms / ms
            } else {
                f64::INFINITY
            };
            body.push_str(&format!(
                "      {{\"name\": \"{}\", \"optimized_ms\": {:.4}, \"speedup_vs_1\": {:.3}, \
                 \"efficiency\": {:.3}}}{}\n",
                json_escape(name),
                ms,
                speedup,
                speedup / entry.threads as f64,
                if j + 1 < entry.case_ms.len() { "," } else { "" }
            ));
        }
        body.push_str(&format!(
            "    ]}}{}\n",
            if i + 1 < sweep.len() { "," } else { "" }
        ));
    }
    body.push_str("  ],\n");
    // conversion bandwidth: f32<->f16/bf16 narrowing and widening, both
    // backends, GB/s over bytes read + written (min-based: steal-immune)
    body.push_str("  \"conversions\": [\n");
    for (i, c) in conversions.iter().enumerate() {
        body.push_str(&format!(
            "    {{\"name\": \"{}\", \"elems\": {}, \"scalar_ms\": {:.4}, \"simd_ms\": {:.4}, \
             \"speedup\": {:.3}, \"scalar_min_ms\": {:.4}, \"simd_min_ms\": {:.4}, \
             \"speedup_best\": {:.3}, \"scalar_gbps\": {:.2}, \"simd_gbps\": {:.2}}}{}\n",
            json_escape(c.name),
            CONV_ELEMS,
            c.scalar_ms,
            c.simd_ms,
            c.speedup(),
            c.scalar_min_ms,
            c.simd_min_ms,
            c.speedup_best(),
            c.scalar_gbps(),
            c.simd_gbps(),
            if i + 1 < conversions.len() { "," } else { "" }
        ));
    }
    body.push_str("  ],\n");
    // quantized matmul: Q8_0 GEMM in place vs dequantize-then-dense-GEMM
    // (bench_guard --quant-only regresses speedup_best of these cases)
    body.push_str("  \"quant_matmul\": [\n");
    for (i, q) in quant.iter().enumerate() {
        body.push_str(&format!(
            "    {{\"name\": \"qgemm_nt_{}x{}x{}\", \"m\": {}, \"k\": {}, \"n\": {}, \
             \"qgemm_ms\": {:.4}, \"dequant_gemm_ms\": {:.4}, \"speedup\": {:.3}, \
             \"qgemm_min_ms\": {:.4}, \"dequant_gemm_min_ms\": {:.4}, \"speedup_best\": {:.3}, \
             \"weight_bytes_ratio\": {:.3}, \"max_abs_diff\": {:.3e}}}{}\n",
            q.m,
            q.k,
            q.n,
            q.m,
            q.k,
            q.n,
            q.qgemm_ms,
            q.dequant_gemm_ms,
            q.speedup(),
            q.qgemm_min_ms,
            q.dequant_gemm_min_ms,
            q.speedup_best(),
            q.weight_bytes_ratio,
            q.max_abs_diff,
            if i + 1 < quant.len() { "," } else { "" }
        ));
    }
    body.push_str("  ],\n");
    body.push_str(&format!(
        "  \"grid\": {{\"cells\": {}, \"serial_ms\": {:.4}, \"parallel_threads\": {}, \
         \"parallel_ms\": {:.4}, \"speedup\": {:.3}}}\n",
        grid.cells,
        grid.serial_ms,
        GRID_THREADS,
        grid.parallel_ms,
        grid.speedup()
    ));
    body.push_str("}\n");
    std::fs::write(path, body)
}

fn main() {
    let cfg = parse_args();
    // force the thread-count read (and honour --threads) before timing
    let threads = kernels::num_threads();
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let be = backend::active();
    let (sweep_threads, skipped_threads) = sweep_split(host_cores);
    println!(
        "kernel-bench: reps={} warmup={} threads={} host_cores={} backend={} ({}){}",
        cfg.reps,
        cfg.warmup,
        threads,
        host_cores,
        be.name(),
        be.simd_level(),
        if cfg.smoke { " (smoke)" } else { "" }
    );
    if !skipped_threads.is_empty() {
        println!(
            "sweep clamped to min(8, 2*host_cores): skipping {skipped_threads:?} pool threads"
        );
    }

    let cases = [
        bench_matmul(&cfg),
        bench_conv_forward(&cfg),
        bench_conv_backward(&cfg),
        bench_matmul3(&cfg),
    ];

    println!(
        "{:<26} {:>12} {:>12} {:>8} {:>12}",
        "case", "baseline ms", "optimized ms", "speedup", "max|diff|"
    );
    for c in &cases {
        println!(
            "{:<26} {:>12.3} {:>12.3} {:>7.2}x {:>12.3e}",
            c.name,
            c.baseline_ms,
            c.optimized_ms,
            c.speedup(),
            c.max_abs_diff
        );
    }

    let fixture = SweepFixture::build();
    let matrix = bench_backend_matrix(&cfg, &fixture, &sweep_threads);
    println!("\nbackend x thread matrix (speedup vs adjacent naive baseline):");
    println!(
        "{:<10} {:<10} {:>8} {:>14} {:>12} {:>12}",
        "backend", "level", "threads", "matmul ms", "speedup", "best"
    );
    for entry in &matrix {
        let c = &entry.cases[0];
        debug_assert_eq!(c.name, "matmul_256x256x256");
        println!(
            "{:<10} {:<10} {:>8} {:>14.3} {:>11.2}x {:>11.2}x",
            entry.backend,
            entry.simd_level,
            entry.threads,
            c.optimized_ms,
            c.speedup(),
            c.speedup_best()
        );
    }

    let sweep = bench_thread_sweep(&cfg, &fixture, &sweep_threads);
    println!("\nthread scaling (optimized kernels, scoped pool sizes):");
    println!(
        "{:<26} {:>9} {:>12} {:>11} {:>10}",
        "case", "threads", "optimized ms", "speedup/1t", "efficiency"
    );
    for entry in &sweep {
        for (j, (name, ms)) in entry.case_ms.iter().enumerate() {
            let base_ms = sweep[0].case_ms[j].1;
            let speedup = if *ms > 0.0 {
                base_ms / ms
            } else {
                f64::INFINITY
            };
            println!(
                "{:<26} {:>9} {:>12.3} {:>10.2}x {:>10.2}",
                name,
                entry.threads,
                ms,
                speedup,
                speedup / entry.threads as f64
            );
        }
    }

    let conversions = bench_conversions(&cfg);
    println!("\nhalf-precision conversion bandwidth ({CONV_ELEMS} elems):");
    println!(
        "{:<13} {:>12} {:>12} {:>8} {:>12} {:>12}",
        "case", "scalar ms", "simd ms", "best", "scalar GB/s", "simd GB/s"
    );
    for c in &conversions {
        println!(
            "{:<13} {:>12.3} {:>12.3} {:>7.2}x {:>12.2} {:>12.2}",
            c.name,
            c.scalar_ms,
            c.simd_ms,
            c.speedup_best(),
            c.scalar_gbps(),
            c.simd_gbps()
        );
    }

    let quant = bench_quant_matmul(&cfg);
    println!("\nquantized matmul (Q8_0 in place vs dequantize + dense GEMM):");
    println!(
        "{:<20} {:>10} {:>16} {:>8} {:>8} {:>12}",
        "case", "qgemm ms", "dequant+gemm ms", "speedup", "best", "max|diff|"
    );
    for q in &quant {
        println!(
            "{:<20} {:>10.3} {:>16.3} {:>7.2}x {:>7.2}x {:>12.3e}",
            format!("qgemm_nt_{}x{}x{}", q.m, q.k, q.n),
            q.qgemm_ms,
            q.dequant_gemm_ms,
            q.speedup(),
            q.speedup_best(),
            q.max_abs_diff
        );
    }

    let grid = bench_grid(&cfg);
    println!(
        "\nschedule-grid harness ({} cells): 1 thread {:.1} ms, {} threads {:.1} ms -> {:.2}x",
        grid.cells,
        grid.serial_ms,
        GRID_THREADS,
        grid.parallel_ms,
        grid.speedup()
    );

    let default_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernels.json");
    let path = cfg.out.as_deref().unwrap_or(default_path);
    match write_json(
        path,
        &cfg,
        &cases,
        &matrix,
        &sweep,
        &skipped_threads,
        &conversions,
        &quant,
        &grid,
    ) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => {
            eprintln!("kernel-bench: failed to write {path}: {e}");
            std::process::exit(1);
        }
    }
}
