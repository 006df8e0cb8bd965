//! Batch normalisation kernels over `[N, C]` and `[N, C, H, W]` tensors,
//! viewed as `[N, C, L]` with `L` the product of the trailing dims.
//!
//! Every per-channel sum (mean, variance, `Σg`, `Σg·x̂`) adds its channel's
//! terms in (sample, position) order, starting from zero, exactly as a
//! plain per-channel loop does; eight channels run through one pass
//! together, so their independent add chains overlap instead of each
//! waiting on its own latency. The elementwise passes walk contiguous
//! `L`-long rows with one channel's constants, evaluating the same
//! expressions as the per-element loops in [`crate::reference`], so they
//! vectorize without changing a bit.
//!
//! The backward pass recomputes `x̂ = (x − μ)·σ⁻¹` from the input and the
//! saved per-channel `μ` and `σ⁻¹` rather than reading a stored `x̂`
//! tensor, which the forward pass therefore never writes.
//!
//! The kernels run serially on the calling thread: at the sizes the paper
//! settings use, a pooled split costs more in handoff than it saves.

use crate::{Tensor, TensorError};

/// Channels whose sums interleave in one pass.
const LANES: usize = 8;

/// Per-channel statistics of a training-mode forward pass.
#[derive(Debug, Clone)]
pub struct BatchNormStats {
    /// Batch mean per channel.
    pub mean: Vec<f32>,
    /// Biased batch variance per channel.
    pub var: Vec<f32>,
    /// `1 / sqrt(var + eps)` per channel.
    pub inv_std: Vec<f32>,
}

/// Gradients of a batch-norm node.
#[derive(Debug, Clone)]
pub struct BatchNormGrads {
    /// `∂L/∂x`, when it was asked for.
    pub x_grad: Option<Tensor>,
    /// `∂L/∂γ = Σ g·x̂` per channel.
    pub gamma_grad: Tensor,
    /// `∂L/∂β = Σ g` per channel.
    pub beta_grad: Tensor,
}

/// `[N, C, L]` view of a batch-norm input.
#[derive(Debug, Clone, Copy)]
struct Ncl {
    n: usize,
    c: usize,
    l: usize,
}

impl Ncl {
    fn of(x: &Tensor) -> Result<Self, TensorError> {
        let s = x.shape();
        match s.len() {
            2 => Ok(Ncl {
                n: s[0],
                c: s[1],
                l: 1,
            }),
            4 => Ok(Ncl {
                n: s[0],
                c: s[1],
                l: s[2] * s[3],
            }),
            _ => Err(TensorError::RankMismatch {
                expected: "2-D [N,C] or 4-D [N,C,H,W] tensor",
                got: s.to_vec(),
            }),
        }
    }

    /// Element count `N·L` behind each channel's statistics.
    fn per_channel(self) -> f32 {
        (self.n * self.l) as f32
    }
}

/// Checks the input rank and that each per-channel tensor has `C` values.
fn check(x: &Tensor, per_channel: &[&Tensor]) -> Result<Ncl, TensorError> {
    let dims = Ncl::of(x)?;
    match per_channel.iter().find(|t| t.len() != dims.c) {
        Some(t) => Err(TensorError::RankMismatch {
            expected: "gamma/beta/statistics of length C",
            got: t.shape().to_vec(),
        }),
        None => Ok(dims),
    }
}

/// Per-channel sums of the `K` terms `term(channel, values)`, where
/// `values` holds one element of each of the `P` planes (tensors shaped
/// like the input) at the same index. Each channel's terms are added in
/// (sample, position) order.
fn channel_sums<const P: usize, const K: usize>(
    dims: Ncl,
    planes: [&[f32]; P],
    term: impl Fn(usize, [f32; P]) -> [f32; K],
) -> [Vec<f32>; K] {
    let mut sums = [(); K].map(|_| vec![0.0f32; dims.c]);
    let mut c0 = 0;
    while c0 < dims.c {
        if dims.c - c0 >= LANES {
            sum_block::<LANES, P, K>(dims, c0, planes, &term, &mut sums);
            c0 += LANES;
        } else {
            sum_block::<1, P, K>(dims, c0, planes, &term, &mut sums);
            c0 += 1;
        }
    }
    sums
}

/// Positions per tile in [`sum_block`].
const TILE: usize = 64;

/// [`channel_sums`] for channels `c0..c0 + W`. Up to [`TILE`] positions of
/// the `W` rows are first copied into a position-major tile, so the `W`
/// channels' terms for one position sit side by side and their sums
/// advance together.
#[inline(always)]
fn sum_block<const W: usize, const P: usize, const K: usize>(
    dims: Ncl,
    c0: usize,
    planes: [&[f32]; P],
    term: &impl Fn(usize, [f32; P]) -> [f32; K],
    sums: &mut [Vec<f32>; K],
) {
    let Ncl { n, c, l } = dims;
    let mut tile = [[[0.0f32; W]; P]; TILE];
    let mut acc = [[0.0f32; K]; W];
    for s in 0..n {
        for i0 in (0..l).step_by(TILE) {
            let len = TILE.min(l - i0);
            for (p, plane) in planes.iter().enumerate() {
                for j in 0..W {
                    let start = (s * c + c0 + j) * l + i0;
                    for (t, &v) in tile.iter_mut().zip(&plane[start..start + len]) {
                        t[p][j] = v;
                    }
                }
            }
            for t in &tile[..len] {
                for (j, a) in acc.iter_mut().enumerate() {
                    let terms = term(c0 + j, std::array::from_fn(|p| t[p][j]));
                    for (a, v) in a.iter_mut().zip(terms) {
                        *a += v;
                    }
                }
            }
        }
    }
    for (j, a) in acc.iter().enumerate() {
        for (sum, &v) in sums.iter_mut().zip(a) {
            sum[c0 + j] = v;
        }
    }
}

/// `γ·(x − μ)·σ⁻¹ + β` per element, one contiguous row per (sample, channel).
fn affine(
    x: &Tensor,
    dims: Ncl,
    mean: &[f32],
    inv_std: &[f32],
    gamma: &[f32],
    beta: &[f32],
) -> Tensor {
    let mut out = vec![0.0f32; x.len()];
    let l = dims.l.max(1);
    for (r, (orow, xrow)) in out
        .chunks_exact_mut(l)
        .zip(x.data().chunks_exact(l))
        .enumerate()
    {
        let ch = r % dims.c;
        let (mu, istd, gm, bt) = (mean[ch], inv_std[ch], gamma[ch], beta[ch]);
        for (o, &v) in orow.iter_mut().zip(xrow) {
            *o = gm * ((v - mu) * istd) + bt;
        }
    }
    Tensor::from_vec(out, x.shape()).expect("output keeps the input's shape")
}

fn inv_std_of(var: &[f32], eps: f32) -> Vec<f32> {
    var.iter().map(|&v| 1.0 / (v + eps).sqrt()).collect()
}

/// Batch normalisation with **batch statistics** (training mode).
///
/// Returns the output and the per-channel mean, biased variance and
/// inverse standard deviation. Bitwise identical to
/// [`crate::reference::batch_norm_train_naive`].
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] for an input that is not `[N,C]`
/// or `[N,C,H,W]`, or a `gamma`/`beta` whose length is not `C`.
pub fn batch_norm_train(
    x: &Tensor,
    gamma: &Tensor,
    beta: &Tensor,
    eps: f32,
) -> Result<(Tensor, BatchNormStats), TensorError> {
    let _sp = rex_telemetry::span::kernel_span("batch_norm_fwd");
    let dims = check(x, &[gamma, beta])?;
    let xs = x.data();
    let m = dims.per_channel();
    let [mut mean] = channel_sums(dims, [xs], |_, [v]| [v]);
    for v in &mut mean {
        *v /= m;
    }
    let [mut var] = channel_sums(dims, [xs], |ch, [v]| {
        let d = v - mean[ch];
        [d * d]
    });
    for v in &mut var {
        *v /= m;
    }
    let inv_std = inv_std_of(&var, eps);
    let out = affine(x, dims, &mean, &inv_std, gamma.data(), beta.data());
    Ok((out, BatchNormStats { mean, var, inv_std }))
}

/// Batch normalisation with **running statistics** (evaluation mode).
///
/// Returns the output and the per-channel inverse standard deviation.
/// Bitwise identical to [`crate::reference::batch_norm_eval_naive`].
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] for an input that is not `[N,C]`
/// or `[N,C,H,W]`, or a `gamma`, `beta` or running statistic whose length
/// is not `C`.
pub fn batch_norm_eval(
    x: &Tensor,
    gamma: &Tensor,
    beta: &Tensor,
    running_mean: &Tensor,
    running_var: &Tensor,
    eps: f32,
) -> Result<(Tensor, Vec<f32>), TensorError> {
    let _sp = rex_telemetry::span::kernel_span("batch_norm_fwd");
    let dims = check(x, &[gamma, beta, running_mean, running_var])?;
    let inv_std = inv_std_of(running_var.data(), eps);
    let out = affine(
        x,
        dims,
        running_mean.data(),
        &inv_std,
        gamma.data(),
        beta.data(),
    );
    Ok((out, inv_std))
}

/// Backward pass of [`batch_norm_train`] (`coupled`, where the batch
/// statistics carry gradient) or [`batch_norm_eval`] (uncoupled).
///
/// `x` is the forward input and `mean`/`inv_std` the per-channel values it
/// was normalised with. `x_grad` is computed only when `need_x_grad`.
/// Bitwise identical to [`crate::reference::batch_norm_backward_naive`].
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] for an unsupported input rank,
/// or when `d_out`, `gamma` or the per-channel values do not match `x`.
pub fn batch_norm_backward(
    d_out: &Tensor,
    x: &Tensor,
    mean: &[f32],
    inv_std: &[f32],
    gamma: &Tensor,
    coupled: bool,
    need_x_grad: bool,
) -> Result<BatchNormGrads, TensorError> {
    let _sp = rex_telemetry::span::kernel_span("batch_norm_bwd");
    let dims = check(x, &[gamma])?;
    if d_out.shape() != x.shape() || mean.len() != dims.c || inv_std.len() != dims.c {
        return Err(TensorError::RankMismatch {
            expected: "d_out shaped like x, mean/inv_std of length C",
            got: d_out.shape().to_vec(),
        });
    }
    let (gs, xs) = (d_out.data(), x.data());
    let [sum_g, sum_gx] = channel_sums(dims, [gs, xs], |ch, [gi, v]| {
        [gi, gi * ((v - mean[ch]) * inv_std[ch])]
    });
    let x_grad = need_x_grad.then(|| {
        let m = dims.per_channel();
        let mut dx = vec![0.0f32; x.len()];
        let l = dims.l.max(1);
        let rows = dx
            .chunks_exact_mut(l)
            .zip(gs.chunks_exact(l))
            .zip(xs.chunks_exact(l));
        for (r, ((drow, grow), xrow)) in rows.enumerate() {
            let ch = r % dims.c;
            let (mu, istd) = (mean[ch], inv_std[ch]);
            let k = gamma.data()[ch] * istd;
            let (mean_g, sgx) = (sum_g[ch] / m, sum_gx[ch]);
            for ((d, &gi), &v) in drow.iter_mut().zip(grow).zip(xrow) {
                *d = if coupled {
                    k * (gi - mean_g - ((v - mu) * istd) * sgx / m)
                } else {
                    k * gi
                };
            }
        }
        Tensor::from_vec(dx, x.shape()).expect("gradient keeps the input's shape")
    });
    Ok(BatchNormGrads {
        x_grad,
        gamma_grad: Tensor::from_vec(sum_gx, &[dims.c])?,
        beta_grad: Tensor::from_vec(sum_g, &[dims.c])?,
    })
}
