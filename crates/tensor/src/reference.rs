//! Reference (oracle) kernels: the seed's naive implementations, kept
//! verbatim as ground truth for the parity test suite and as the baseline
//! the `kernel-bench` harness measures speedups against.
//!
//! Nothing in the training stack calls these — they exist so every
//! optimised kernel in [`crate::kernels`], [`crate::conv`] and
//! [`crate::norm`] has an independent, obviously-correct implementation to
//! be checked against.

use crate::conv::Window;
use crate::{Tensor, TensorError};

/// The seed's `i-k-j` matmul, including its per-element `a == 0.0` skip
/// branch (preserved so benchmarks measure exactly what the seed ran).
///
/// # Panics
///
/// Panics if slice lengths disagree with the dimensions.
pub fn matmul_naive(m: usize, k: usize, n: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
    assert_eq!(a.len(), m * k);
    assert_eq!(b.len(), k * n);
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        let arow = &a[i * k..(i + 1) * k];
        let orow = &mut out[i * n..(i + 1) * n];
        for (p, &av) in arow.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let brow = &b[p * n..(p + 1) * n];
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o += av * bv;
            }
        }
    }
    out
}

/// Direct (six-deep loop nest) 2-D convolution forward: the formulation
/// the im2col + GEMM lowering in [`crate::conv`] is benchmarked against.
///
/// * `input` — `[N, C, H, W]`, `weight` — `[O, C, K, K]`,
///   `bias` — optional `[O]`.
///
/// # Errors
///
/// Returns [`TensorError::InvalidGeometry`] for malformed geometry.
///
/// # Panics
///
/// Panics on non-4-D inputs (oracle only; production code validates).
pub fn conv2d_direct(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    win: Window,
) -> Result<Tensor, TensorError> {
    let (n, c, h, w) = shape4(input);
    let (o, _, _, _) = shape4(weight);
    let oh = win.out_size(h)?;
    let ow = win.out_size(w)?;
    let k = win.kernel;
    let x = input.data();
    let wt = weight.data();
    let mut out = vec![0.0f32; n * o * oh * ow];
    for s in 0..n {
        for oc in 0..o {
            let base_b = bias.map_or(0.0, |b| b.data()[oc]);
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = base_b;
                    for ic in 0..c {
                        for ky in 0..k {
                            let iy = (oy * win.stride + ky) as isize - win.padding as isize;
                            if iy < 0 || iy >= h as isize {
                                continue;
                            }
                            for kx in 0..k {
                                let ix = (ox * win.stride + kx) as isize - win.padding as isize;
                                if ix < 0 || ix >= w as isize {
                                    continue;
                                }
                                acc += x[((s * c + ic) * h + iy as usize) * w + ix as usize]
                                    * wt[((oc * c + ic) * k + ky) * k + kx];
                            }
                        }
                    }
                    out[((s * o + oc) * oh + oy) * ow + ox] = acc;
                }
            }
        }
    }
    Tensor::from_vec(out, &[n, o, oh, ow])
}

/// Direct-loop gradients of [`conv2d_direct`]: returns
/// `(d_input, d_weight, d_bias)` computed by walking the forward nest and
/// scattering into each gradient.
///
/// # Errors
///
/// Returns [`TensorError::InvalidGeometry`] for malformed geometry.
///
/// # Panics
///
/// Panics on non-4-D inputs (oracle only).
pub fn conv2d_direct_backward(
    d_out: &Tensor,
    input: &Tensor,
    weight: &Tensor,
    win: Window,
) -> Result<(Tensor, Tensor, Tensor), TensorError> {
    let (n, c, h, w) = shape4(input);
    let (o, _, _, _) = shape4(weight);
    let oh = win.out_size(h)?;
    let ow = win.out_size(w)?;
    let k = win.kernel;
    let x = input.data();
    let wt = weight.data();
    let g = d_out.data();
    let mut d_in = vec![0.0f32; n * c * h * w];
    let mut d_w = vec![0.0f32; o * c * k * k];
    let mut d_b = vec![0.0f32; o];
    for s in 0..n {
        for oc in 0..o {
            for oy in 0..oh {
                for ox in 0..ow {
                    let gv = g[((s * o + oc) * oh + oy) * ow + ox];
                    d_b[oc] += gv;
                    for ic in 0..c {
                        for ky in 0..k {
                            let iy = (oy * win.stride + ky) as isize - win.padding as isize;
                            if iy < 0 || iy >= h as isize {
                                continue;
                            }
                            for kx in 0..k {
                                let ix = (ox * win.stride + kx) as isize - win.padding as isize;
                                if ix < 0 || ix >= w as isize {
                                    continue;
                                }
                                let xi = ((s * c + ic) * h + iy as usize) * w + ix as usize;
                                let wi = ((oc * c + ic) * k + ky) * k + kx;
                                d_w[wi] += gv * x[xi];
                                d_in[xi] += gv * wt[wi];
                            }
                        }
                    }
                }
            }
        }
    }
    Ok((
        Tensor::from_vec(d_in, &[n, c, h, w])?,
        Tensor::from_vec(d_w, &[o, c, k, k])?,
        Tensor::from_vec(d_b, &[o])?,
    ))
}

/// The original per-element batch-norm loops (training mode): returns
/// `(out, x_hat, mean, var, inv_std)`, with `x_hat = (x − mean)·inv_std`.
///
/// # Panics
///
/// Panics on an input that is not `[N,C]` or `[N,C,H,W]`, or a
/// `gamma`/`beta` shorter than `C` (oracle only).
#[allow(clippy::needless_range_loop)]
pub fn batch_norm_train_naive(
    x: &Tensor,
    gamma: &Tensor,
    beta: &Tensor,
    eps: f32,
) -> (Tensor, Tensor, Vec<f32>, Vec<f32>, Vec<f32>) {
    let (n, c, l) = ncl(x);
    let m = (n * l) as f32;
    let mut mean = vec![0.0f32; c];
    let mut var = vec![0.0f32; c];
    for s in 0..n {
        for ch in 0..c {
            let base = (s * c + ch) * l;
            for i in 0..l {
                mean[ch] += x.data()[base + i];
            }
        }
    }
    for v in &mut mean {
        *v /= m;
    }
    for s in 0..n {
        for ch in 0..c {
            let base = (s * c + ch) * l;
            for i in 0..l {
                let d = x.data()[base + i] - mean[ch];
                var[ch] += d * d;
            }
        }
    }
    for v in &mut var {
        *v /= m;
    }
    let inv_std: Vec<f32> = var.iter().map(|&v| 1.0 / (v + eps).sqrt()).collect();
    let (out, x_hat) = bn_affine(x, n, c, l, &mean, &inv_std, gamma, beta);
    (out, x_hat, mean, var, inv_std)
}

/// The original per-element batch-norm loops (evaluation mode, running
/// statistics): returns `(out, x_hat, inv_std)`.
///
/// # Panics
///
/// As [`batch_norm_train_naive`], also for running statistics shorter
/// than `C`.
pub fn batch_norm_eval_naive(
    x: &Tensor,
    gamma: &Tensor,
    beta: &Tensor,
    running_mean: &Tensor,
    running_var: &Tensor,
    eps: f32,
) -> (Tensor, Tensor, Vec<f32>) {
    let (n, c, l) = ncl(x);
    let inv_std: Vec<f32> = running_var
        .data()
        .iter()
        .map(|&v| 1.0 / (v + eps).sqrt())
        .collect();
    let (out, x_hat) = bn_affine(x, n, c, l, running_mean.data(), &inv_std, gamma, beta);
    (out, x_hat, inv_std)
}

/// The original per-element batch-norm backward loops: returns
/// `(dx, dgamma, dbeta)` from the saved `x_hat` and `inv_std`. `coupled`
/// is training mode, where the batch statistics carry gradient.
///
/// # Panics
///
/// Panics on shapes that disagree with `x_hat` (oracle only).
pub fn batch_norm_backward_naive(
    g: &Tensor,
    x_hat: &Tensor,
    inv_std: &[f32],
    gamma: &Tensor,
    coupled: bool,
) -> (Tensor, Tensor, Tensor) {
    let (n, c, l) = ncl(x_hat);
    let m = (n * l) as f32;
    // per-channel reductions
    let mut sum_g = vec![0.0f32; c];
    let mut sum_gx = vec![0.0f32; c];
    for s in 0..n {
        for ch in 0..c {
            let base = (s * c + ch) * l;
            for i in 0..l {
                let gi = g.data()[base + i];
                sum_g[ch] += gi;
                sum_gx[ch] += gi * x_hat.data()[base + i];
            }
        }
    }
    let mut dx = Tensor::zeros(x_hat.shape());
    for s in 0..n {
        for ch in 0..c {
            let base = (s * c + ch) * l;
            let k = gamma.data()[ch] * inv_std[ch];
            for i in 0..l {
                let gi = g.data()[base + i];
                dx.data_mut()[base + i] = if coupled {
                    k * (gi - sum_g[ch] / m - x_hat.data()[base + i] * sum_gx[ch] / m)
                } else {
                    k * gi
                };
            }
        }
    }
    (
        dx,
        Tensor::from_vec(sum_gx, &[c]).expect("length C"),
        Tensor::from_vec(sum_g, &[c]).expect("length C"),
    )
}

/// Shared affine step of the batch-norm oracles: returns `(out, x_hat)`.
#[allow(clippy::too_many_arguments)]
fn bn_affine(
    x: &Tensor,
    n: usize,
    c: usize,
    l: usize,
    mean: &[f32],
    inv_std: &[f32],
    gamma: &Tensor,
    beta: &Tensor,
) -> (Tensor, Tensor) {
    let mut out = Tensor::zeros(x.shape());
    let mut x_hat = Tensor::zeros(x.shape());
    for s in 0..n {
        for ch in 0..c {
            let base = (s * c + ch) * l;
            let (mu, istd) = (mean[ch], inv_std[ch]);
            let (gm, bt) = (gamma.data()[ch], beta.data()[ch]);
            for i in 0..l {
                let xh = (x.data()[base + i] - mu) * istd;
                x_hat.data_mut()[base + i] = xh;
                out.data_mut()[base + i] = gm * xh + bt;
            }
        }
    }
    (out, x_hat)
}

/// `[N, C, L]` view of a `[N,C]` or `[N,C,H,W]` tensor.
fn ncl(x: &Tensor) -> (usize, usize, usize) {
    match x.ndim() {
        2 => (x.shape()[0], x.shape()[1], 1),
        4 => (x.shape()[0], x.shape()[1], x.shape()[2] * x.shape()[3]),
        _ => panic!(
            "batch-norm oracles expect [N,C] or [N,C,H,W], got {:?}",
            x.shape()
        ),
    }
}

fn shape4(t: &Tensor) -> (usize, usize, usize, usize) {
    assert_eq!(t.ndim(), 4, "reference kernels expect 4-D tensors");
    (t.shape()[0], t.shape()[1], t.shape()[2], t.shape()[3])
}
