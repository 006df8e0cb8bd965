//! Fixed-shape layer probes for the traced run: the public conv and GEMM
//! kernels at the shapes the paper settings run them at, and the durable
//! write path on a snapshot a served job wrote.

use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use rex_tensor::conv::{conv2d_backward_no_bias, conv2d_forward, Window};
use rex_tensor::{Prng, Tensor};
use rex_train::TrainState;

use crate::spans::Spans;
use crate::stats;

/// One conv layer of the RN20 analogue at the trainer's batch size:
/// (input channels, output channels, kernel, stride, input side).
const RN20_CONVS: [(usize, usize, usize, usize, usize); 9] = [
    (3, 8, 3, 1, 12),  // stem
    (8, 8, 3, 1, 12),  // stage 0 conv1
    (8, 8, 3, 1, 12),  // stage 0 conv2
    (8, 16, 3, 2, 12), // stage 1 conv1
    (16, 16, 3, 1, 6), // stage 1 conv2
    (8, 16, 1, 2, 12), // stage 1 projection
    (16, 32, 3, 2, 6), // stage 2 conv1
    (32, 32, 3, 1, 3), // stage 2 conv2
    (16, 32, 1, 2, 6), // stage 2 projection
];

/// The RN20 trainer's mini-batch.
const RN20_BATCH: usize = 32;

/// Per-step conv cost at the RN20 shapes.
#[derive(Debug, Clone, Copy)]
pub struct ConvProbe {
    /// Median forward time of all layers, ms per step.
    pub fwd_ms: f64,
    /// Median backward time of all layers, ms per step.
    pub bwd_ms: f64,
    /// Repetitions behind the medians.
    pub reps: usize,
    /// Forward + backward floating-point work per step, GFLOP.
    pub gflop: f64,
    /// Compulsory bytes per step (see [`conv_bytes`]).
    pub bytes: f64,
}

fn window(kernel: usize, stride: usize) -> Window {
    Window {
        kernel,
        stride,
        padding: kernel / 2,
    }
}

fn random(shape: &[usize], rng: &mut Prng) -> Tensor {
    rng.uniform_tensor(shape, -1.0, 1.0)
}

/// Bytes a conv layer moves per step, counting each tensor once per pass
/// that reads or writes it (4-byte floats). Forward: input, weight, the
/// im2col buffer written and read, output. Backward: output gradient,
/// weight, im2col buffer, weight gradient, the column gradient written
/// and read, input gradient.
pub fn conv_bytes(n: usize, c: usize, o: usize, k: usize, h: usize, oh: usize) -> f64 {
    let x = n * c * h * h;
    let w = o * c * k * k;
    let cols = n * c * k * k * oh * oh;
    let y = n * o * oh * oh;
    let fwd = x + w + 2 * cols + y;
    let bwd = y + w + cols + w + 2 * cols + x;
    4.0 * (fwd + bwd) as f64
}

/// Times the public conv forward and (bias-free, as the model's layers
/// are) backward at every RN20 layer shape for about `budget`.
pub fn conv(sp: &mut Spans, seed: u64, budget: Duration) -> ConvProbe {
    let mut rng = Prng::new(seed);
    let layers: Vec<(Tensor, Tensor, Tensor, Window)> = RN20_CONVS
        .iter()
        .map(|&(c, o, k, s, h)| {
            let win = window(k, s);
            let oh = win.out_size(h).expect("RN20 shapes fit");
            (
                random(&[RN20_BATCH, c, h, h], &mut rng),
                random(&[o, c, k, k], &mut rng),
                random(&[RN20_BATCH, o, oh, oh], &mut rng),
                win,
            )
        })
        .collect();
    let mut fwd = Vec::new();
    let mut bwd = Vec::new();
    let t0 = Instant::now();
    sp.enter("probe.conv");
    while fwd.len() < 5 || t0.elapsed() < budget {
        let mut f = Duration::ZERO;
        let mut b = Duration::ZERO;
        for (x, w, dy, win) in &layers {
            let ((y, saved), dt) = sp.time("conv2d_fwd", || {
                conv2d_forward(x, w, None, *win).expect("RN20 shapes are valid")
            });
            f += dt;
            black_box(y);
            let (grads, dt) = sp.time("conv2d_bwd", || {
                conv2d_backward_no_bias(dy, w, &saved).expect("RN20 shapes are valid")
            });
            b += dt;
            black_box(grads);
        }
        fwd.push(f.as_secs_f64() * 1e3);
        bwd.push(b.as_secs_f64() * 1e3);
    }
    sp.exit("probe.conv");
    let mut flop = 0.0;
    let mut bytes = 0.0;
    for &(c, o, k, s, h) in &RN20_CONVS {
        let oh = window(k, s).out_size(h).expect("RN20 shapes fit");
        // forward GEMM, then the input-gradient and weight-gradient GEMMs
        flop += 3.0 * 2.0 * (RN20_BATCH * o * c * k * k * oh * oh) as f64;
        bytes += conv_bytes(RN20_BATCH, c, o, k, h, oh);
    }
    ConvProbe {
        fwd_ms: stats::median(&fwd),
        bwd_ms: stats::median(&bwd),
        reps: fwd.len(),
        gflop: flop / 1e9,
        bytes,
    }
}

/// Linear layers of the dense settings: (batch, in, out). The VAE-MNIST
/// encoder, heads and decoder at batch 8, then the digits MLP at batch 16.
const DENSE_LAYERS: [(usize, usize, usize); 7] = [
    (8, 144, 64),
    (8, 64, 8),
    (8, 64, 8),
    (8, 8, 64),
    (8, 64, 144),
    (16, 144, 24),
    (16, 24, 10),
];

/// Steps timed together in one GEMM-probe sample.
const GEMM_BLOCK: usize = 100;

/// Times the public matmuls of one VAE step plus one MLP step — forward,
/// weight gradient and input gradient of every linear layer — for about
/// `budget`. Returns (median ms per step, samples).
pub fn gemm(sp: &mut Spans, seed: u64, budget: Duration) -> (f64, usize) {
    let mut rng = Prng::new(seed);
    let ops: Vec<(Tensor, Tensor, Tensor)> = DENSE_LAYERS
        .iter()
        .map(|&(b, i, o)| {
            (
                random(&[b, i], &mut rng),
                random(&[i, o], &mut rng),
                random(&[b, o], &mut rng),
            )
        })
        .collect();
    let mut per_step = Vec::new();
    let t0 = Instant::now();
    sp.enter("probe.gemm");
    while per_step.len() < 5 || t0.elapsed() < budget {
        let ((), dt) = sp.time("gemm", || {
            for _ in 0..GEMM_BLOCK {
                for (x, w, dy) in &ops {
                    black_box(x.matmul(w).expect("shapes agree"));
                    black_box(x.matmul_tn(dy).expect("shapes agree"));
                    black_box(dy.matmul_nt(w).expect("shapes agree"));
                }
            }
        });
        per_step.push(dt.as_secs_f64() * 1e3 / GEMM_BLOCK as f64);
    }
    sp.exit("probe.gemm");
    (stats::median(&per_step), per_step.len())
}

/// The durable write path on one snapshot.
#[derive(Debug, Clone, Copy)]
pub struct SnapshotProbe {
    /// Median `TrainState::save`, ms.
    pub save_ms: f64,
    /// Median `TrainState::load`, ms.
    pub load_ms: f64,
    /// Median `rex_faults::atomic_write` of the snapshot's bytes, ms.
    pub atomic_write_ms: f64,
    /// Snapshot size, bytes.
    pub bytes: f64,
    /// Repetitions behind each median.
    pub reps: usize,
}

/// Loads, saves and atomically rewrites the snapshot at `snapshot`,
/// `reps` times each, in `dir`.
///
/// # Errors
///
/// I/O and decode errors.
pub fn snapshot(
    sp: &mut Spans,
    snapshot: &Path,
    dir: &Path,
    reps: usize,
) -> std::io::Result<SnapshotProbe> {
    let bytes = std::fs::read(snapshot)?;
    let copy = dir.join("probe.state");
    let mut load = Vec::new();
    let mut save = Vec::new();
    let mut write = Vec::new();
    let depth = sp.depth();
    sp.enter("probe.snapshot");
    let result = (|| {
        for _ in 0..reps {
            let (state, dt) = sp.time("snapshot_load", || TrainState::load(snapshot));
            load.push(dt.as_secs_f64() * 1e3);
            let state = state?;
            let (saved, dt) = sp.time("snapshot_save", || state.save(&copy));
            save.push(dt.as_secs_f64() * 1e3);
            saved?;
            let (written, dt) = sp.time("atomic_write", || {
                rex_faults::atomic_write("state", &copy, &bytes)
            });
            write.push(dt.as_secs_f64() * 1e3);
            written?;
        }
        Ok::<(), std::io::Error>(())
    })();
    sp.unwind_to(depth);
    result?;
    let _ = std::fs::remove_file(&copy);
    Ok(SnapshotProbe {
        save_ms: stats::median(&save),
        load_ms: stats::median(&load),
        atomic_write_ms: stats::median(&write),
        bytes: bytes.len() as f64,
        reps,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rn20_shapes_chain() {
        // every layer's input side is the previous stage's output side
        for &(_, _, k, s, h) in &RN20_CONVS {
            assert!(window(k, s).out_size(h).is_ok());
        }
        assert_eq!(window(3, 2).out_size(12).unwrap(), 6);
        assert_eq!(window(1, 2).out_size(6).unwrap(), 3);
    }

    #[test]
    fn conv_bytes_counts_each_pass() {
        // 1x1 conv, 1 sample, 1 channel in and out, 2x2 image:
        // x=4 w=1 cols=4 y=4; fwd 4+1+8+4=17, bwd 4+1+4+1+8+4=22
        assert_eq!(conv_bytes(1, 1, 1, 1, 2, 2), 4.0 * 39.0);
    }
}
