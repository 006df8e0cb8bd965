//! 2-D convolution and pooling kernels (im2col + blocked GEMM).
//!
//! The convolution is lowered onto the register-tiled GEMM in
//! [`crate::kernels`] via the patch-matrix transform in [`crate::im2col`],
//! over fixed groups of `g` samples: each group's patches unroll side by
//! side into one `[C·K·K, g·OH·OW]` block, so the forward pass is one
//! `[O, C·K·K] × [C·K·K, g·OH·OW]` product per group, and the backward
//! pass is one `dW` product (its depth the group's `g·OH·OW` output
//! positions) into a per-group partial plus one `Wᵀ · dOut` product and a
//! `col2im` scatter. Groups run as pool tasks; the `dW`/`dB` partials are
//! folded in group order with Kahan compensation. `g` depends only on the
//! backend and the batch size: 1 on the scalar backend, whose float order
//! is thus the per-sample lowering's, and up to 8 on the SIMD backend. All
//! workspaces (the patch matrix, the gradient columns) are drawn from the
//! [`crate::scratch`] pool, so steady-state training allocates nothing
//! per step.
//!
//! Forward functions return whatever intermediate state the corresponding
//! backward function needs (im2col buffers, argmax indices), so the autograd
//! layer can stash it in the tape without recomputation. Dropping the
//! saved state recycles its buffers back into the pool.

use crate::backend::{BackendKind, ComputeBackend, Layout};
use crate::im2col::{col2im_sample, im2col_sample, kahan_add, take_cols, PatchGeom};
use crate::kernels;
use crate::scratch::PooledBuf;
use crate::{Tensor, TensorError};

/// Geometry of a conv/pool window: kernel size, stride, and zero padding
/// (symmetric, applied to both spatial axes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Window {
    /// Kernel height and width (square kernels only, as in all our models).
    pub kernel: usize,
    /// Stride along both spatial axes.
    pub stride: usize,
    /// Zero padding on each side of both spatial axes.
    pub padding: usize,
}

impl Window {
    /// A stride-1 window with "same"-ish padding `kernel/2`.
    pub fn same(kernel: usize) -> Self {
        Window {
            kernel,
            stride: 1,
            padding: kernel / 2,
        }
    }

    /// Output spatial size for an input of size `n`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidGeometry`] if the window does not fit
    /// or the stride is zero.
    pub fn out_size(&self, n: usize) -> Result<usize, TensorError> {
        if self.stride == 0 {
            return Err(TensorError::InvalidGeometry {
                reason: "stride must be positive".into(),
            });
        }
        let padded = n + 2 * self.padding;
        if padded < self.kernel {
            return Err(TensorError::InvalidGeometry {
                reason: format!(
                    "kernel {} larger than padded input {} (input {}, padding {})",
                    self.kernel, padded, n, self.padding
                ),
            });
        }
        Ok((padded - self.kernel) / self.stride + 1)
    }
}

/// Saved forward state consumed by [`conv2d_backward`].
///
/// Holds the pooled im2col workspace; dropping it returns the buffer to
/// the thread-local scratch pool for the next step.
#[derive(Debug, Clone)]
pub struct Conv2dSaved {
    /// Patch matrix, one `[C·K·K, g·OH·OW]` block per sample group
    /// (see `group_size`), concatenated in group order (pooled).
    cols: PooledBuf,
    /// Batch size.
    n: usize,
    geom: PatchGeom,
}

/// Gradients of a 2-D convolution, from [`conv2d_backward`].
#[derive(Debug, Clone)]
pub struct Conv2dBackward {
    /// Input gradient `[N, C, H, W]`, when it was asked for.
    pub x_grad: Option<Tensor>,
    /// Weight gradient `[O, C, K, K]`.
    pub weights_grad: Tensor,
    /// Bias gradient `[O]`, when it was asked for.
    pub bias_grad: Option<Tensor>,
}

/// Samples per lowering group: the scalar backend lowers one sample at a
/// time (its long-standing float order), the SIMD backend up to 8 side by
/// side so each GEMM is wide enough to fill the vector tiles, while a
/// batch still splits into at least 4 groups for the pool. Depends only
/// on the backend and the batch size, never on the thread count.
fn group_size(be: &dyn ComputeBackend, n: usize) -> usize {
    match be.kind() {
        BackendKind::Scalar => 1,
        BackendKind::Simd => (n / 4).clamp(1, 8),
    }
}

/// Runs `body(group_index, task)` for every group: as pool tasks when a
/// layer of `flops` multiply–adds is worth sharding, inline otherwise.
/// Each group's float work is fixed by the group grid, so both ways give
/// identical bits.
fn for_each_group<T: Send>(tasks: &mut [T], flops: usize, body: impl Fn(usize, &mut T) + Sync) {
    if tasks.len() > 1 && flops >= kernels::PAR_FLOPS && kernels::num_threads() > 1 {
        rex_pool::parallel_for_slices(tasks, 1, |gi, _, task| body(gi, &mut task[0]));
    } else {
        for (gi, task) in tasks.iter_mut().enumerate() {
            body(gi, task);
        }
    }
}

/// Copies a `[a, b, len]` block layout into `[b, a, len]` order: a
/// group's `[O, g·OH·OW]` product into per-sample `[O, OH·OW]` outputs,
/// and back.
fn regroup(src: &[f32], dst: &mut [f32], a: usize, b: usize, len: usize) {
    for i in 0..a {
        for j in 0..b {
            dst[(j * a + i) * len..(j * a + i + 1) * len]
                .copy_from_slice(&src[(i * b + j) * len..(i * b + j + 1) * len]);
        }
    }
}

/// 2-D convolution forward pass.
///
/// * `input` — `[N, C, H, W]`
/// * `weight` — `[O, C, K, K]`
/// * `bias` — optional `[O]`
///
/// Returns the output `[N, O, OH, OW]` and the saved state for backward.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] / [`TensorError::InvalidGeometry`]
/// on malformed inputs.
pub fn conv2d_forward(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    win: Window,
) -> Result<(Tensor, Conv2dSaved), TensorError> {
    let _sp = rex_telemetry::span::kernel_span("conv2d_fwd");
    let [n, c, h, w] = dims4(input, "conv2d input [N,C,H,W]")?;
    let [o, wc, kh, kw] = dims4(weight, "conv2d weight [O,C,K,K]")?;
    if wc != c || kh != win.kernel || kw != win.kernel {
        return Err(TensorError::InvalidGeometry {
            reason: format!(
                "weight shape {:?} inconsistent with input channels {c} / kernel {}",
                weight.shape(),
                win.kernel
            ),
        });
    }
    let geom = PatchGeom {
        c,
        h,
        w,
        win,
        oh: win.out_size(h)?,
        ow: win.out_size(w)?,
    };
    if let Some(b) = bias {
        if b.shape() != [o] {
            return Err(TensorError::InvalidGeometry {
                reason: format!("bias shape {:?}, expected [{o}]", b.shape()),
            });
        }
    }
    let (ckk, ohw, chw) = (geom.ckk(), geom.ohw(), geom.chw());
    let be = crate::backend::active();
    let g = group_size(be, n);

    // Per group: one im2col into its [CKK, gs·OHW] block, one
    // [O, CKK] × [CKK, gs·OHW] GEMM, then the product regrouped into the
    // group's [gs, O, OHW] slice of the output plus the bias.
    let mut cols = take_cols(n * ckk * ohw);
    let mut out = vec![0.0f32; n * o * ohw];
    let mut tasks: Vec<_> = cols
        .chunks_mut(g * ckk * ohw)
        .zip(out.chunks_mut(g * o * ohw))
        .collect();
    for_each_group(&mut tasks, n * o * ckk * ohw, |gi, (cols_g, out_g)| {
        let gs = g.min(n - gi * g);
        let x = &input.data()[gi * g * chw..];
        for s in 0..gs {
            im2col_sample(&geom, &x[s * chw..], &mut cols_g[s * ohw..], gs * ohw);
        }
        let mut prod = PooledBuf::zeroed(o * gs * ohw);
        kernels::gemm_driver(
            be,
            Layout::Nn,
            o,
            ckk,
            gs * ohw,
            weight.data(),
            cols_g,
            &mut prod,
        );
        regroup(&prod, out_g, o, gs, ohw);
        if let Some(b) = bias {
            for (row, &bv) in out_g.chunks_mut(ohw).zip(b.data().iter().cycle()) {
                for v in row {
                    *v += bv;
                }
            }
        }
    });

    let output = Tensor::from_vec(out, &[n, o, geom.oh, geom.ow])?;
    Ok((output, Conv2dSaved { cols, n, geom }))
}

/// Gradients of a 2-D convolution. The weight gradient is always
/// computed; the input gradient only when `x_grad` is set (a network's
/// first layer has no use for it) and the bias gradient (the sum of
/// `d_out` over batch and space) only when `bias_grad` is.
///
/// Each sample group of the forward pass runs as one task: its `d_out`
/// rows regrouped to `[O, g·OH·OW]`, one `dW = dOut · colsᵀ` GEMM (and
/// the `dB` row sums) into the group's own partial, and one
/// `dCols = Wᵀ · dOut` GEMM scattered back by col2im. The partials are
/// then folded in group order with Kahan compensation: the batch-axis
/// sum is the longest accumulation chain in the conv backward, and
/// compensating it is what holds `d_weight` (vs the f64 oracle) under the
/// pinned 1e-4 bound. The group grid depends only on the backend and the
/// batch size, so the result is bitwise identical at any thread count.
///
/// # Errors
///
/// Returns a [`TensorError`] if `d_out`/`weight` shapes disagree with the
/// saved forward state.
pub fn conv2d_backward(
    d_out: &Tensor,
    weight: &Tensor,
    saved: &Conv2dSaved,
    x_grad: bool,
    bias_grad: bool,
) -> Result<Conv2dBackward, TensorError> {
    let _sp = rex_telemetry::span::kernel_span("conv2d_bwd");
    let (n, geom) = (saved.n, saved.geom);
    let (ckk, ohw, chw) = (geom.ckk(), geom.ohw(), geom.chw());
    let [o, _, _, _] = dims4(weight, "conv2d weight [O,C,K,K]")?;
    if d_out.shape() != [n, o, geom.oh, geom.ow] || weight.len() != o * ckk {
        return Err(TensorError::RankMismatch {
            expected: "d_out [N,O,OH,OW] and weight [O,C,K,K] matching forward",
            got: d_out.shape().to_vec(),
        });
    }
    let be = crate::backend::active();
    let g = group_size(be, n);

    // one partial per group: dW [O, CKK] then, when wanted, dB [O]
    let part_len = o * ckk + if bias_grad { o } else { 0 };
    let mut parts = PooledBuf::zeroed(n.div_ceil(g) * part_len);
    let mut d_input = x_grad.then(|| Tensor::zeros(&[n, geom.c, geom.h, geom.w]));
    let mut dx_chunks = d_input.as_mut().map(|t| t.data_mut().chunks_mut(g * chw));
    let mut tasks: Vec<_> = parts
        .chunks_mut(part_len)
        .map(|part| (part, dx_chunks.as_mut().and_then(Iterator::next)))
        .collect();
    for_each_group(&mut tasks, n * o * ckk * ohw, |gi, (part, dx_g)| {
        let s0 = gi * g;
        let gs = g.min(n - s0);
        let cols_g = &saved.cols[s0 * ckk * ohw..(s0 + gs) * ckk * ohw];
        let mut dmat = PooledBuf::uninit(o * gs * ohw);
        regroup(
            &d_out.data()[s0 * o * ohw..(s0 + gs) * o * ohw],
            &mut dmat,
            gs,
            o,
            ohw,
        );
        let (dw, db) = part.split_at_mut(o * ckk);
        kernels::gemm_driver(be, Layout::Nt, o, gs * ohw, ckk, &dmat, cols_g, dw);
        for (v, row) in db.iter_mut().zip(dmat.chunks(gs * ohw)) {
            *v = be.sum(row);
        }
        if let Some(dx_g) = dx_g {
            let mut dcols = take_cols(ckk * gs * ohw);
            kernels::gemm_driver(
                be,
                Layout::Tn,
                ckk,
                o,
                gs * ohw,
                weight.data(),
                &dmat,
                &mut dcols,
            );
            let mut comp = PooledBuf::uninit(geom.h * geom.w);
            for (s, dx_s) in dx_g.chunks_mut(chw).enumerate() {
                col2im_sample(&geom, &dcols[s * ohw..], gs * ohw, dx_s, &mut comp);
            }
        }
    });

    let mut grads = vec![0.0f32; part_len];
    let mut comp = PooledBuf::zeroed(part_len);
    for part in parts.chunks(part_len) {
        kahan_add(&mut grads, &mut comp, part);
    }
    let bias = grads.split_off(o * ckk);
    Ok(Conv2dBackward {
        x_grad: d_input,
        weights_grad: Tensor::from_vec(grads, &[o, geom.c, geom.win.kernel, geom.win.kernel])?,
        bias_grad: bias_grad
            .then(|| Tensor::from_vec(bias, &[o]))
            .transpose()?,
    })
}

/// [`conv2d_backward`] for bias-free layers: the input and weight
/// gradients (`bias_grad` is `None`).
///
/// # Errors
///
/// As [`conv2d_backward`].
pub fn conv2d_backward_no_bias(
    d_out: &Tensor,
    weight: &Tensor,
    saved: &Conv2dSaved,
) -> Result<Conv2dBackward, TensorError> {
    conv2d_backward(d_out, weight, saved, true, false)
}

/// Max-pooling forward. Returns the pooled output `[N, C, OH, OW]` and the
/// flat input index of each window's maximum (for the backward scatter).
///
/// # Errors
///
/// Returns a [`TensorError`] for malformed input shape or geometry.
pub fn maxpool2d_forward(input: &Tensor, win: Window) -> Result<(Tensor, Vec<u32>), TensorError> {
    let [n, c, h, w] = dims4(input, "maxpool input [N,C,H,W]")?;
    let oh = win.out_size(h)?;
    let ow = win.out_size(w)?;
    let mut out = vec![f32::NEG_INFINITY; n * c * oh * ow];
    let mut arg = vec![0u32; n * c * oh * ow];
    let data = input.data();
    for s in 0..n {
        for ch in 0..c {
            let plane = (s * c + ch) * h * w;
            for oy in 0..oh {
                for ox in 0..ow {
                    let oidx = ((s * c + ch) * oh + oy) * ow + ox;
                    let mut best = f32::NEG_INFINITY;
                    let mut besti = 0usize;
                    for ky in 0..win.kernel {
                        let iy = (oy * win.stride + ky) as isize - win.padding as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        for kx in 0..win.kernel {
                            let ix = (ox * win.stride + kx) as isize - win.padding as isize;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            let idx = plane + iy as usize * w + ix as usize;
                            if data[idx] > best {
                                best = data[idx];
                                besti = idx;
                            }
                        }
                    }
                    out[oidx] = best;
                    arg[oidx] = besti as u32;
                }
            }
        }
    }
    Ok((Tensor::from_vec(out, &[n, c, oh, ow])?, arg))
}

/// Max-pooling backward: scatters `d_out` to the argmax positions.
///
/// # Errors
///
/// Returns a [`TensorError`] if `d_out` length disagrees with `argmax`.
pub fn maxpool2d_backward(
    d_out: &Tensor,
    argmax: &[u32],
    in_shape: &[usize],
) -> Result<Tensor, TensorError> {
    if d_out.len() != argmax.len() {
        return Err(TensorError::ShapeDataMismatch {
            shape: d_out.shape().to_vec(),
            data_len: argmax.len(),
        });
    }
    let mut d_in = Tensor::zeros(in_shape);
    for (g, &i) in d_out.data().iter().zip(argmax) {
        d_in.data_mut()[i as usize] += g;
    }
    Ok(d_in)
}

/// Average-pooling forward over the full spatial extent ("global average
/// pool"), producing `[N, C]`.
///
/// # Errors
///
/// Returns a [`TensorError`] for non-4-D input.
pub fn global_avgpool_forward(input: &Tensor) -> Result<Tensor, TensorError> {
    let [n, c, h, w] = dims4(input, "avgpool input [N,C,H,W]")?;
    let hw = (h * w) as f32;
    let mut out = vec![0.0f32; n * c];
    for s in 0..n {
        for ch in 0..c {
            let plane = (s * c + ch) * h * w;
            out[s * c + ch] = input.data()[plane..plane + h * w].iter().sum::<f32>() / hw;
        }
    }
    Tensor::from_vec(out, &[n, c])
}

/// Backward of [`global_avgpool_forward`]: spreads each gradient uniformly
/// over its spatial plane.
///
/// # Errors
///
/// Returns a [`TensorError`] if `d_out` is not `[N, C]` matching `in_shape`.
pub fn global_avgpool_backward(d_out: &Tensor, in_shape: &[usize]) -> Result<Tensor, TensorError> {
    if in_shape.len() != 4 || d_out.shape() != [in_shape[0], in_shape[1]] {
        return Err(TensorError::RankMismatch {
            expected: "d_out [N,C] matching input [N,C,H,W]",
            got: d_out.shape().to_vec(),
        });
    }
    let (n, c, h, w) = (in_shape[0], in_shape[1], in_shape[2], in_shape[3]);
    let inv = 1.0 / (h * w) as f32;
    let mut d_in = Tensor::zeros(in_shape);
    for s in 0..n {
        for ch in 0..c {
            let g = d_out.data()[s * c + ch] * inv;
            let plane = (s * c + ch) * h * w;
            for v in &mut d_in.data_mut()[plane..plane + h * w] {
                *v = g;
            }
        }
    }
    Ok(d_in)
}

fn dims4(t: &Tensor, expected: &'static str) -> Result<[usize; 4], TensorError> {
    if t.ndim() != 4 {
        return Err(TensorError::RankMismatch {
            expected,
            got: t.shape().to_vec(),
        });
    }
    Ok([t.shape()[0], t.shape()[1], t.shape()[2], t.shape()[3]])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Prng;

    #[test]
    fn window_out_size() {
        let w = Window {
            kernel: 3,
            stride: 1,
            padding: 1,
        };
        assert_eq!(w.out_size(8).unwrap(), 8);
        let w2 = Window {
            kernel: 3,
            stride: 2,
            padding: 1,
        };
        assert_eq!(w2.out_size(8).unwrap(), 4);
        let bad = Window {
            kernel: 9,
            stride: 1,
            padding: 0,
        };
        assert!(bad.out_size(4).is_err());
    }

    #[test]
    fn conv_identity_kernel_preserves_input() {
        // 1x1 kernel with weight 1 is the identity.
        let input = Tensor::arange(0.0, 1.0, 2 * 3 * 4 * 4)
            .reshape(&[2, 3, 4, 4])
            .unwrap();
        let mut weight = Tensor::zeros(&[3, 3, 1, 1]);
        for i in 0..3 {
            weight.set(&[i, i, 0, 0], 1.0);
        }
        let win = Window {
            kernel: 1,
            stride: 1,
            padding: 0,
        };
        let (out, _) = conv2d_forward(&input, &weight, None, win).unwrap();
        assert_eq!(out, input);
    }

    #[test]
    fn conv_known_values_3x3() {
        // Single channel, 3x3 input, 3x3 kernel of ones, no padding:
        // output = sum of all inputs.
        let input = Tensor::arange(1.0, 1.0, 9).reshape(&[1, 1, 3, 3]).unwrap();
        let weight = Tensor::ones(&[1, 1, 3, 3]);
        let win = Window {
            kernel: 3,
            stride: 1,
            padding: 0,
        };
        let (out, _) = conv2d_forward(&input, &weight, None, win).unwrap();
        assert_eq!(out.shape(), &[1, 1, 1, 1]);
        assert_eq!(out.item(), 45.0);
    }

    #[test]
    fn conv_bias_broadcasts_over_space() {
        let input = Tensor::zeros(&[1, 1, 2, 2]);
        let weight = Tensor::zeros(&[2, 1, 1, 1]);
        let bias = Tensor::from_vec(vec![1.5, -2.0], &[2]).unwrap();
        let win = Window {
            kernel: 1,
            stride: 1,
            padding: 0,
        };
        let (out, _) = conv2d_forward(&input, &weight, Some(&bias), win).unwrap();
        assert_eq!(out.data(), &[1.5, 1.5, 1.5, 1.5, -2.0, -2.0, -2.0, -2.0]);
    }

    /// Numeric gradient check of the conv backward pass.
    #[test]
    fn conv_backward_matches_numeric_gradient() {
        let mut rng = Prng::new(42);
        let input = rng.normal_tensor(&[2, 2, 5, 5], 0.0, 1.0);
        let weight = rng.normal_tensor(&[3, 2, 3, 3], 0.0, 0.5);
        let bias = rng.normal_tensor(&[3], 0.0, 0.5);
        let win = Window {
            kernel: 3,
            stride: 2,
            padding: 1,
        };

        let loss = |inp: &Tensor, wt: &Tensor, b: &Tensor| -> f32 {
            let (out, _) = conv2d_forward(inp, wt, Some(b), win).unwrap();
            // weighted sum so gradient isn't uniform
            out.data()
                .iter()
                .enumerate()
                .map(|(i, &v)| v * ((i % 7) as f32 - 3.0))
                .sum()
        };

        let (out, saved) = conv2d_forward(&input, &weight, Some(&bias), win).unwrap();
        let d_out = Tensor::from_vec(
            (0..out.len()).map(|i| (i % 7) as f32 - 3.0).collect(),
            out.shape(),
        )
        .unwrap();
        let grads = conv2d_backward(&d_out, &weight, &saved, true, true).unwrap();
        let (d_in, d_w, d_b) = (
            grads.x_grad.unwrap(),
            grads.weights_grad,
            grads.bias_grad.unwrap(),
        );

        let h = 1e-2;
        // spot-check a handful of coordinates in each gradient
        for &i in &[0usize, 13, 47, 99] {
            let mut ip = input.clone();
            ip.data_mut()[i] += h;
            let mut im = input.clone();
            im.data_mut()[i] -= h;
            let fd = (loss(&ip, &weight, &bias) - loss(&im, &weight, &bias)) / (2.0 * h);
            assert!(
                (fd - d_in.data()[i]).abs() < 0.05 * (1.0 + fd.abs()),
                "d_input[{i}]: fd {fd} vs analytic {}",
                d_in.data()[i]
            );
        }
        for &i in &[0usize, 5, 23, 53] {
            let mut wp = weight.clone();
            wp.data_mut()[i] += h;
            let mut wm = weight.clone();
            wm.data_mut()[i] -= h;
            let fd = (loss(&input, &wp, &bias) - loss(&input, &wm, &bias)) / (2.0 * h);
            assert!(
                (fd - d_w.data()[i]).abs() < 0.05 * (1.0 + fd.abs()),
                "d_weight[{i}]: fd {fd} vs analytic {}",
                d_w.data()[i]
            );
        }
        for i in 0..3 {
            let mut bp = bias.clone();
            bp.data_mut()[i] += h;
            let mut bm = bias.clone();
            bm.data_mut()[i] -= h;
            let fd = (loss(&input, &weight, &bp) - loss(&input, &weight, &bm)) / (2.0 * h);
            assert!(
                (fd - d_b.data()[i]).abs() < 0.05 * (1.0 + fd.abs()),
                "d_bias[{i}]: fd {fd} vs analytic {}",
                d_b.data()[i]
            );
        }
    }

    /// The group-of-1 contract: on the scalar backend the grouped
    /// lowering is, bit for bit, the per-sample composition of im2col, the
    /// three GEMMs, col2im, and a compensated batch-axis fold.
    #[test]
    fn scalar_conv_is_the_per_sample_lowering_bit_for_bit() {
        use crate::backend::{with_backend, ScalarBackend};
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut rng = Prng::new(7);
        let (n, c, o, hw) = (5, 3, 4, 7);
        for (kernel, stride, padding) in [(3, 1, 1), (3, 2, 1), (1, 2, 0)] {
            let win = Window {
                kernel,
                stride,
                padding,
            };
            let input = rng.normal_tensor(&[n, c, hw, hw], 0.0, 1.0);
            let weight = rng.normal_tensor(&[o, c, kernel, kernel], 0.0, 0.5);
            let bias = rng.normal_tensor(&[o], 0.0, 0.5);
            let oh = win.out_size(hw).unwrap();
            let d_out = rng.normal_tensor(&[n, o, oh, oh], 0.0, 1.0);
            let (out, grads) = with_backend(BackendKind::Scalar, || {
                rex_pool::with_pool_size(3, || {
                    let (out, saved) = conv2d_forward(&input, &weight, Some(&bias), win).unwrap();
                    (
                        out,
                        conv2d_backward(&d_out, &weight, &saved, true, true).unwrap(),
                    )
                })
            });

            let geom = PatchGeom {
                c,
                h: hw,
                w: hw,
                win,
                oh,
                ow: oh,
            };
            let (ckk, ohw, chw) = (geom.ckk(), geom.ohw(), geom.chw());
            let (mut dw, mut dw_comp) = (vec![0.0f32; o * ckk], vec![0.0f32; o * ckk]);
            let (mut db, mut db_comp) = (vec![0.0f32; o], vec![0.0f32; o]);
            for s in 0..n {
                let mut cols = vec![0.0f32; ckk * ohw];
                im2col_sample(&geom, &input.data()[s * chw..], &mut cols, ohw);
                let mut y = vec![0.0f32; o * ohw];
                kernels::gemm(o, ckk, ohw, weight.data(), &cols, &mut y);
                for (row, &b) in y.chunks_mut(ohw).zip(bias.data()) {
                    for v in row {
                        *v += b;
                    }
                }
                assert_eq!(bits(&y), bits(&out.data()[s * o * ohw..(s + 1) * o * ohw]));

                let dy = &d_out.data()[s * o * ohw..(s + 1) * o * ohw];
                let mut dw_s = vec![0.0f32; o * ckk];
                kernels::gemm_nt(o, ohw, ckk, dy, &cols, &mut dw_s);
                kahan_add(&mut dw, &mut dw_comp, &dw_s);
                let db_s: Vec<f32> = dy.chunks(ohw).map(|r| ScalarBackend.sum(r)).collect();
                kahan_add(&mut db, &mut db_comp, &db_s);
                let mut dcols = vec![0.0f32; ckk * ohw];
                kernels::gemm_tn(ckk, o, ohw, weight.data(), dy, &mut dcols);
                let mut dx = vec![0.0f32; chw];
                let mut comp = vec![0.0f32; hw * hw];
                col2im_sample(&geom, &dcols, ohw, &mut dx, &mut comp);
                let x_grad = grads.x_grad.as_ref().unwrap();
                assert_eq!(bits(&dx), bits(&x_grad.data()[s * chw..(s + 1) * chw]));
            }
            assert_eq!(bits(&dw), bits(grads.weights_grad.data()));
            assert_eq!(bits(&db), bits(grads.bias_grad.unwrap().data()));
        }
    }

    #[test]
    fn unwanted_gradients_are_not_computed() {
        let mut rng = Prng::new(3);
        let input = rng.normal_tensor(&[2, 2, 5, 5], 0.0, 1.0);
        let weight = rng.normal_tensor(&[3, 2, 3, 3], 0.0, 0.5);
        let win = Window::same(3);
        let (out, saved) = conv2d_forward(&input, &weight, None, win).unwrap();
        let d_out = out.scale(0.5);
        let all = conv2d_backward(&d_out, &weight, &saved, true, true).unwrap();
        let dw_only = conv2d_backward(&d_out, &weight, &saved, false, false).unwrap();
        assert!(dw_only.x_grad.is_none() && dw_only.bias_grad.is_none());
        assert_eq!(dw_only.weights_grad, all.weights_grad);
        let no_bias = conv2d_backward_no_bias(&d_out, &weight, &saved).unwrap();
        assert!(no_bias.bias_grad.is_none());
        assert_eq!(no_bias.x_grad, all.x_grad);
    }

    #[test]
    fn maxpool_forward_and_backward() {
        let input = Tensor::from_vec(
            vec![
                1.0, 2.0, 5.0, 4.0, //
                3.0, 0.0, 1.0, 2.0, //
                7.0, 1.0, 0.0, 1.0, //
                2.0, 8.0, 3.0, 4.0,
            ],
            &[1, 1, 4, 4],
        )
        .unwrap();
        let win = Window {
            kernel: 2,
            stride: 2,
            padding: 0,
        };
        let (out, arg) = maxpool2d_forward(&input, win).unwrap();
        assert_eq!(out.data(), &[3.0, 5.0, 8.0, 4.0]);
        let d_out = Tensor::ones(&[1, 1, 2, 2]);
        let d_in = maxpool2d_backward(&d_out, &arg, &[1, 1, 4, 4]).unwrap();
        assert_eq!(d_in.sum(), 4.0);
        assert_eq!(d_in.at(&[0, 0, 1, 0]), 1.0); // the 3.0
        assert_eq!(d_in.at(&[0, 0, 3, 1]), 1.0); // the 8.0
    }

    #[test]
    fn global_avgpool_roundtrip() {
        let input = Tensor::arange(0.0, 1.0, 2 * 3 * 2 * 2)
            .reshape(&[2, 3, 2, 2])
            .unwrap();
        let out = global_avgpool_forward(&input).unwrap();
        assert_eq!(out.shape(), &[2, 3]);
        assert_eq!(out.at(&[0, 0]), (0.0 + 1.0 + 2.0 + 3.0) / 4.0);
        let d = global_avgpool_backward(&out, &[2, 3, 2, 2]).unwrap();
        assert_eq!(d.shape(), &[2, 3, 2, 2]);
        assert!((d.at(&[0, 0, 0, 0]) - out.at(&[0, 0]) / 4.0).abs() < 1e-6);
    }

    #[test]
    fn stride_two_conv_halves_resolution() {
        let input = Tensor::zeros(&[1, 2, 8, 8]);
        let weight = Tensor::zeros(&[4, 2, 3, 3]);
        let win = Window {
            kernel: 3,
            stride: 2,
            padding: 1,
        };
        let (out, _) = conv2d_forward(&input, &weight, None, win).unwrap();
        assert_eq!(out.shape(), &[1, 4, 4, 4]);
    }
}
