//! Parity suite for the blocked-GEMM kernel layer: every optimised path
//! (matmul NN/TN/NT, batched matmul3, im2col conv2d forward/backward) is
//! checked against the naive reference oracles in [`rex_tensor::reference`]
//! across a grid of shapes that crosses the MC/KC/NC block boundaries.
//! The batch-norm kernels keep the oracles' float order, so they are
//! checked bit for bit.

use rex_tensor::conv::{conv2d_backward, conv2d_forward, Window};
use rex_tensor::norm::{batch_norm_backward, batch_norm_eval, batch_norm_train};
use rex_tensor::ops::{batch_slice, matmul3, matmul3_nt, matmul3_tn};
use rex_tensor::reference;
use rex_tensor::{Prng, Tensor};

/// Tolerance for a reduction of `red` terms: rounding error grows with
/// the reduction depth (≈ √red random-walk), so 1e-5 is scaled by it.
fn tol_for(red: usize) -> f32 {
    1e-5 * (red as f32).sqrt().max(1.0)
}

/// Relative-absolute tolerance: blocked/unrolled kernels reassociate the
/// reduction, so agreement is to rounding, not bitwise.
fn assert_close(a: &[f32], b: &[f32], tol: f32, ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        let bound = tol * (1.0 + x.abs().max(y.abs()));
        assert!(
            (x - y).abs() <= bound,
            "{ctx}: index {i}: {x} vs {y} (|diff| {} > {bound})",
            (x - y).abs()
        );
    }
}

/// Shapes straddling the small-path threshold and the MC=64 / KC=256 /
/// NC=256 block boundaries.
const MATMUL_CASES: &[(usize, usize, usize)] = &[
    (1, 1, 1),
    (3, 5, 7),
    (16, 16, 16),
    (17, 9, 33),
    (64, 64, 64),
    (65, 300, 70),
    (70, 130, 300),
    (130, 257, 259),
];

#[test]
fn matmul_matches_naive_reference() {
    for &(m, k, n) in MATMUL_CASES {
        let mut rng = Prng::new((m * 1000 + k * 10 + n) as u64);
        let a = rng.normal_tensor(&[m, k], 0.0, 1.0);
        let b = rng.normal_tensor(&[k, n], 0.0, 1.0);
        let got = a.matmul(&b).unwrap();
        let expect = reference::matmul_naive(m, k, n, a.data(), b.data());
        assert_close(
            got.data(),
            &expect,
            tol_for(k),
            &format!("matmul {m}x{k}x{n}"),
        );
    }
}

#[test]
fn matmul_tn_matches_naive_reference() {
    for &(m, k, n) in MATMUL_CASES {
        let mut rng = Prng::new((m * 31 + k * 7 + n) as u64);
        let a = rng.normal_tensor(&[k, m], 0.0, 1.0);
        let b = rng.normal_tensor(&[k, n], 0.0, 1.0);
        let got = a.matmul_tn(&b).unwrap();
        let at = a.transpose().unwrap();
        let expect = reference::matmul_naive(m, k, n, at.data(), b.data());
        assert_close(
            got.data(),
            &expect,
            tol_for(k),
            &format!("matmul_tn {m}x{k}x{n}"),
        );
    }
}

#[test]
fn matmul_nt_matches_naive_reference() {
    for &(m, k, n) in MATMUL_CASES {
        let mut rng = Prng::new((m * 17 + k * 5 + n) as u64);
        let a = rng.normal_tensor(&[m, k], 0.0, 1.0);
        let b = rng.normal_tensor(&[n, k], 0.0, 1.0);
        let got = a.matmul_nt(&b).unwrap();
        let bt = b.transpose().unwrap();
        let expect = reference::matmul_naive(m, k, n, a.data(), bt.data());
        assert_close(
            got.data(),
            &expect,
            tol_for(k),
            &format!("matmul_nt {m}x{k}x{n}"),
        );
    }
}

#[test]
fn matmul3_matches_per_slice_products() {
    for &(bs, m, k, n) in &[
        (1usize, 4usize, 4usize, 4usize),
        (3, 5, 7, 2),
        (8, 33, 17, 65),
    ] {
        let mut rng = Prng::new((bs * 100 + m) as u64);
        let a = rng.normal_tensor(&[bs, m, k], 0.0, 1.0);
        let b = rng.normal_tensor(&[bs, k, n], 0.0, 1.0);
        let got = matmul3(&a, &b).unwrap();
        assert_eq!(got.shape(), &[bs, m, n]);
        for s in 0..bs {
            let am = batch_slice(&a, s, m, k);
            let bm = batch_slice(&b, s, k, n);
            let expect = am.matmul(&bm).unwrap();
            let row = &got.data()[s * m * n..(s + 1) * m * n];
            assert_close(
                row,
                expect.data(),
                tol_for(k),
                &format!("matmul3 slice {s}"),
            );
        }
    }
}

#[test]
fn matmul3_nt_tn_match_per_slice_products() {
    let (bs, m, k, n) = (4usize, 9usize, 13usize, 6usize);
    let mut rng = Prng::new(99);
    let a = rng.normal_tensor(&[bs, m, k], 0.0, 1.0);
    let b = rng.normal_tensor(&[bs, k, n], 0.0, 1.0);
    let g = rng.normal_tensor(&[bs, m, n], 0.0, 1.0);

    // dA = G · Bᵀ
    let da = matmul3_nt(&g, &b).unwrap();
    assert_eq!(da.shape(), &[bs, m, k]);
    // dB = Aᵀ · G
    let db = matmul3_tn(&a, &g).unwrap();
    assert_eq!(db.shape(), &[bs, k, n]);

    for s in 0..bs {
        let gm = batch_slice(&g, s, m, n);
        let bm = batch_slice(&b, s, k, n);
        let am = batch_slice(&a, s, m, k);
        let eda = gm.matmul_nt(&bm).unwrap();
        let edb = am.matmul_tn(&gm).unwrap();
        assert_close(
            &da.data()[s * m * k..(s + 1) * m * k],
            eda.data(),
            tol_for(n),
            &format!("matmul3_nt slice {s}"),
        );
        assert_close(
            &db.data()[s * k * n..(s + 1) * k * n],
            edb.data(),
            tol_for(m),
            &format!("matmul3_tn slice {s}"),
        );
    }
}

/// Conv grid crossing (batch, channels, kernel, stride, padding), with
/// the direct six-loop convolution as the oracle.
const CONV_CASES: &[(usize, usize, usize, usize, usize, usize, usize)] = &[
    // (batch, c_in, c_out, h=w, kernel, stride, padding)
    (1, 1, 1, 5, 1, 1, 0),
    (2, 3, 4, 8, 3, 1, 1),
    (1, 2, 3, 7, 3, 2, 0),
    (3, 1, 2, 9, 5, 1, 2),
    (2, 4, 2, 9, 3, 2, 1),
    (4, 3, 16, 8, 3, 1, 1),
    // the RN20 analogue's layer shapes at its batch of 32 (the SIMD
    // backend lowers these in groups of 8 samples)
    (32, 3, 8, 12, 3, 1, 1),
    (32, 8, 8, 12, 3, 1, 1),
    (32, 8, 16, 12, 3, 2, 1),
    (32, 16, 16, 6, 3, 1, 1),
    (32, 8, 16, 12, 1, 2, 0),
    (32, 16, 32, 6, 3, 2, 1),
    (32, 32, 32, 3, 3, 1, 1),
    (32, 16, 32, 6, 1, 2, 0),
    // a batch no group size divides: a ragged last group
    (13, 8, 16, 12, 3, 1, 1),
    (13, 16, 32, 6, 3, 2, 1),
];

#[test]
fn conv2d_forward_matches_direct_reference() {
    for &(bs, cin, cout, hw, kernel, stride, padding) in CONV_CASES {
        let ctx = format!("conv fwd b{bs} c{cin}->{cout} {hw}x{hw} k{kernel} s{stride} p{padding}");
        let mut rng = Prng::new((bs * 7 + cin * 3 + kernel) as u64);
        let input = rng.normal_tensor(&[bs, cin, hw, hw], 0.0, 1.0);
        let weight = rng.normal_tensor(&[cout, cin, kernel, kernel], 0.0, 0.5);
        let bias = rng.normal_tensor(&[cout], 0.0, 0.2);
        let win = Window {
            kernel,
            stride,
            padding,
        };
        let (got, _) = conv2d_forward(&input, &weight, Some(&bias), win).unwrap();
        let expect = reference::conv2d_direct(&input, &weight, Some(&bias), win).unwrap();
        assert_eq!(got.shape(), expect.shape(), "{ctx}");
        assert_close(
            got.data(),
            expect.data(),
            tol_for(cin * kernel * kernel),
            &ctx,
        );
    }
}

#[test]
fn conv2d_backward_matches_direct_reference() {
    for &(bs, cin, cout, hw, kernel, stride, padding) in CONV_CASES {
        let ctx = format!("conv bwd b{bs} c{cin}->{cout} {hw}x{hw} k{kernel} s{stride} p{padding}");
        let mut rng = Prng::new((bs * 11 + cout * 5 + stride) as u64);
        let input = rng.normal_tensor(&[bs, cin, hw, hw], 0.0, 1.0);
        let weight = rng.normal_tensor(&[cout, cin, kernel, kernel], 0.0, 0.5);
        let win = Window {
            kernel,
            stride,
            padding,
        };
        let (out, saved) = conv2d_forward(&input, &weight, None, win).unwrap();
        let d_out = rng.normal_tensor(out.shape(), 0.0, 1.0);
        let grads = conv2d_backward(&d_out, &weight, &saved, true, true).unwrap();
        let (di, dw, db) = (
            grads.x_grad.unwrap(),
            grads.weights_grad,
            grads.bias_grad.unwrap(),
        );
        let (rdi, rdw, rdb) =
            reference::conv2d_direct_backward(&d_out, &input, &weight, win).unwrap();
        // The col2im scatter and the batch-axis dW/dB folds use compensated
        // accumulation, so the conv backward holds a *pinned* 1e-4 bound
        // even where the √red scaling would allow more drift.
        assert_close(
            di.data(),
            rdi.data(),
            tol_for(cout * kernel * kernel).min(1e-4),
            &format!("{ctx} d_input"),
        );
        // d_weight and d_bias reduce over all batch·OH·OW output positions
        let red_w = d_out.data().len() / cout;
        assert_close(
            dw.data(),
            rdw.data(),
            tol_for(red_w).min(1e-4),
            &format!("{ctx} d_weight"),
        );
        assert_close(
            db.data(),
            rdb.data(),
            tol_for(red_w).min(1e-4),
            &format!("{ctx} d_bias"),
        );
    }
}

/// The branch-free path is what makes the conv lowering valid for inputs
/// containing exact zeros (padding!) mixed with non-finite values; the
/// padded border must still contribute exact zeros, not NaN.
#[test]
fn conv2d_padding_contributes_exact_zero() {
    let input = Tensor::from_vec(vec![1.0; 9], &[1, 1, 3, 3]).unwrap();
    let weight = Tensor::from_vec(vec![1.0; 9], &[1, 1, 3, 3]).unwrap();
    let win = Window {
        kernel: 3,
        stride: 1,
        padding: 1,
    };
    let (out, _) = conv2d_forward(&input, &weight, None, win).unwrap();
    // centre sees all 9 ones; corners see 4
    assert_eq!(out.data()[4], 9.0);
    assert_eq!(out.data()[0], 4.0);
}

/// Batch-norm inputs: the three RN20 shapes at batch 32, a rank-2 input,
/// channel counts that are not a multiple of the interleave width, and
/// one position per channel.
const BN_CASES: &[&[usize]] = &[
    &[32, 8, 12, 12],
    &[32, 16, 6, 6],
    &[32, 32, 3, 3],
    &[32, 12],
    &[6, 5, 4, 4],
    &[5, 12, 3, 3],
    &[9, 12, 1, 1],
    &[9, 5],
];

fn assert_bits(got: &[f32], want: &[f32], ctx: &str) {
    assert_eq!(got.len(), want.len(), "{ctx}: length mismatch");
    for (i, (a, b)) in got.iter().zip(want).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "{ctx}: index {i}: {a} vs {b}");
    }
}

#[test]
fn batch_norm_train_matches_naive_bitwise() {
    for (case, &shape) in BN_CASES.iter().enumerate() {
        let c = shape[1];
        let mut rng = Prng::new(0xB4 + case as u64);
        // off-centre input, so the mean and the centring both matter
        let x = rng.normal_tensor(shape, 0.7, 2.0);
        let gamma = rng.normal_tensor(&[c], 1.0, 0.5);
        let beta = rng.normal_tensor(&[c], 0.0, 0.5);
        let g = rng.normal_tensor(shape, 0.0, 1.0);
        let ctx = format!("train {shape:?}");

        let (out, stats) = batch_norm_train(&x, &gamma, &beta, 1e-5).unwrap();
        let (r_out, r_xhat, r_mean, r_var, r_istd) =
            reference::batch_norm_train_naive(&x, &gamma, &beta, 1e-5);
        assert_bits(out.data(), r_out.data(), &format!("{ctx} out"));
        assert_bits(&stats.mean, &r_mean, &format!("{ctx} mean"));
        assert_bits(&stats.var, &r_var, &format!("{ctx} var"));
        assert_bits(&stats.inv_std, &r_istd, &format!("{ctx} inv_std"));

        let grads =
            batch_norm_backward(&g, &x, &stats.mean, &stats.inv_std, &gamma, true, true).unwrap();
        let (r_dx, r_dg, r_db) =
            reference::batch_norm_backward_naive(&g, &r_xhat, &r_istd, &gamma, true);
        assert_bits(
            grads.x_grad.unwrap().data(),
            r_dx.data(),
            &format!("{ctx} dx"),
        );
        assert_bits(
            grads.gamma_grad.data(),
            r_dg.data(),
            &format!("{ctx} dgamma"),
        );
        assert_bits(grads.beta_grad.data(), r_db.data(), &format!("{ctx} dbeta"));
    }
}

#[test]
fn batch_norm_eval_matches_naive_bitwise() {
    for (case, &shape) in BN_CASES.iter().enumerate() {
        let c = shape[1];
        let mut rng = Prng::new(0xE7 + case as u64);
        let x = rng.normal_tensor(shape, -0.4, 1.5);
        let gamma = rng.normal_tensor(&[c], 1.0, 0.5);
        let beta = rng.normal_tensor(&[c], 0.0, 0.5);
        let mean = rng.normal_tensor(&[c], 0.0, 1.0);
        let var = rng.uniform_tensor(&[c], 0.1, 3.0);
        let g = rng.normal_tensor(shape, 0.0, 1.0);
        let ctx = format!("eval {shape:?}");

        let (out, istd) = batch_norm_eval(&x, &gamma, &beta, &mean, &var, 1e-5).unwrap();
        let (r_out, r_xhat, r_istd) =
            reference::batch_norm_eval_naive(&x, &gamma, &beta, &mean, &var, 1e-5);
        assert_bits(out.data(), r_out.data(), &format!("{ctx} out"));
        assert_bits(&istd, &r_istd, &format!("{ctx} inv_std"));

        let grads = batch_norm_backward(&g, &x, mean.data(), &istd, &gamma, false, true).unwrap();
        let (r_dx, r_dg, r_db) =
            reference::batch_norm_backward_naive(&g, &r_xhat, &r_istd, &gamma, false);
        assert_bits(
            grads.x_grad.unwrap().data(),
            r_dx.data(),
            &format!("{ctx} dx"),
        );
        assert_bits(
            grads.gamma_grad.data(),
            r_dg.data(),
            &format!("{ctx} dgamma"),
        );
        assert_bits(grads.beta_grad.data(), r_db.data(), &format!("{ctx} dbeta"));
    }
}
