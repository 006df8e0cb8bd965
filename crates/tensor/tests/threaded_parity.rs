//! Parity of the row-sharded (multi-threaded) GEMM dispatch against the
//! naive oracle. Lives in its own test binary so `REX_NUM_THREADS` can be
//! set before the kernel layer's `OnceLock` caches the thread count —
//! which also means this file must stay a single `#[test]`.

use rex_tensor::conv::{conv2d_backward, conv2d_forward, Window};
use rex_tensor::reference;
use rex_tensor::{kernels, Prng};

#[test]
fn threaded_gemm_matches_reference() {
    std::env::set_var("REX_NUM_THREADS", "4");
    assert_eq!(kernels::num_threads(), 4);

    // large enough to clear PAR_FLOPS so the scoped-thread shard runs
    let (m, k, n) = (192, 160, 140);
    let mut rng = Prng::new(41);
    let a = rng.normal_tensor(&[m, k], 0.0, 1.0);
    let b = rng.normal_tensor(&[k, n], 0.0, 1.0);
    let got = a.matmul(&b).unwrap();
    let expect = reference::matmul_naive(m, k, n, a.data(), b.data());
    for (i, (x, y)) in got.data().iter().zip(&expect).enumerate() {
        let bound = 1e-5 * (1.0 + x.abs().max(y.abs()));
        assert!((x - y).abs() <= bound, "index {i}: {x} vs {y}");
    }

    // conv forward + backward through the same threaded dispatch
    let input = rng.normal_tensor(&[8, 3, 16, 16], 0.0, 1.0);
    let weight = rng.normal_tensor(&[8, 3, 3, 3], 0.0, 0.5);
    let win = Window {
        kernel: 3,
        stride: 1,
        padding: 1,
    };
    let (out, saved) = conv2d_forward(&input, &weight, None, win).unwrap();
    let expect = reference::conv2d_direct(&input, &weight, None, win).unwrap();
    for (x, y) in out.data().iter().zip(expect.data()) {
        assert!((x - y).abs() <= 1e-5 * (1.0 + x.abs().max(y.abs())));
    }

    let d_out = rng.normal_tensor(out.shape(), 0.0, 1.0);
    let grads = conv2d_backward(&d_out, &weight, &saved, true, false).unwrap();
    let (di, dw) = (grads.x_grad.unwrap(), grads.weights_grad);
    let (rdi, rdw, _) = reference::conv2d_direct_backward(&d_out, &input, &weight, win).unwrap();
    for (x, y) in di.data().iter().zip(rdi.data()) {
        assert!((x - y).abs() <= 1e-5 * (1.0 + x.abs().max(y.abs())));
    }
    for (x, y) in dw.data().iter().zip(rdw.data()) {
        assert!((x - y).abs() <= 1e-4 * (1.0 + x.abs().max(y.abs())));
    }
}
