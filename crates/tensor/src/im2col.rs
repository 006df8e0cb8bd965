//! im2col / col2im: the patch-matrix lowering that turns 2-D convolution
//! into the blocked GEMM of [`crate::kernels`].
//!
//! `im2col` unrolls every `K×K` receptive field of a `[C, H, W]` sample
//! into one column of a `[C·K·K, OH·OW]` matrix, so the convolution with an
//! `[O, C·K·K]` weight matrix becomes a single dense product. `col2im` is
//! its adjoint (scatter-add), used by the backward pass to fold patch
//! gradients back onto the input grid.
//!
//! Both transforms take the patch matrix's row stride `ld`, so the conv
//! driver in [`crate::conv`] can lay `g` samples side by side in one
//! `[C·K·K, g·OH·OW]` block (`ld = g·OH·OW`, sample `s` in columns
//! `s·OH·OW ..`) and lower the whole group with one GEMM. With `ld = OH·OW`
//! they are the plain per-sample transforms.
//!
//! The transforms are shared by both compute backends: im2col is pure
//! data movement, and col2im's compensated adds run in the same
//! per-element order everywhere, so neither depends on the backend.
//!
//! Memory cost: the patch matrix holds `K·K` copies of the input, i.e.
//! `N·C·K²·OH·OW` floats per layer. The buffers come from the
//! [`crate::scratch`] pool and are recycled across steps, so the cost is
//! one resident workspace per live layer rather than an allocation per
//! step.

use crate::conv::Window;
use crate::scratch::PooledBuf;

/// Acquires a pooled, zeroed im2col workspace of `len` elements.
///
/// Thin wrapper over the scratch pool so conv layers share one reuse
/// point; the buffer returns to the pool when dropped.
pub fn take_cols(len: usize) -> PooledBuf {
    PooledBuf::zeroed(len)
}

/// Geometry of one sample's patch lowering: a `[C, H, W]` input under a
/// [`Window`], giving an `OH × OW` output grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PatchGeom {
    /// Input channels.
    pub c: usize,
    /// Input height.
    pub h: usize,
    /// Input width.
    pub w: usize,
    /// Kernel, stride and padding.
    pub win: Window,
    /// Output height.
    pub oh: usize,
    /// Output width.
    pub ow: usize,
}

impl PatchGeom {
    /// Output positions per sample (`OH·OW`).
    pub fn ohw(&self) -> usize {
        self.oh * self.ow
    }

    /// Patch-matrix rows (`C·K·K`).
    pub fn ckk(&self) -> usize {
        self.c * self.win.kernel * self.win.kernel
    }

    /// Input elements per sample (`C·H·W`).
    pub fn chw(&self) -> usize {
        self.c * self.h * self.w
    }

    /// The `ox` range whose input column `ox·stride + kx − padding` lands
    /// inside the plane (`None` when no column does).
    fn ox_span(&self, kx: usize) -> Option<(usize, usize)> {
        let (stride, pad) = (self.win.stride, self.win.padding);
        let lo = pad.saturating_sub(kx).div_ceil(stride);
        let hi = self
            .ow
            .min((self.w + pad).saturating_sub(kx).div_ceil(stride));
        (lo < hi).then_some((lo, hi))
    }

    /// Input row of output row `oy` under kernel row `ky`, if it lies
    /// inside the plane (outside it is zero padding).
    fn in_row(&self, oy: usize, ky: usize) -> Option<usize> {
        let iy = (oy * self.win.stride + ky).checked_sub(self.win.padding)?;
        (iy < self.h).then_some(iy)
    }

    /// Calls `f(at, len, start)` for every in-plane span of one channel's
    /// patch rows (row stride `ld`), in `(ky, kx, oy)` order: the `len`
    /// patch entries from `at` pair with the input-plane elements from
    /// `start`, `stride` apart.
    fn for_each_span(&self, ld: usize, mut f: impl FnMut(usize, usize, usize)) {
        let k = self.win.kernel;
        for ky in 0..k {
            for kx in 0..k {
                let Some((lo, hi)) = self.ox_span(kx) else {
                    continue;
                };
                for oy in 0..self.oh {
                    if let Some(iy) = self.in_row(oy, ky) {
                        let start = iy * self.w + lo * self.win.stride + kx - self.win.padding;
                        f((ky * k + kx) * ld + oy * self.ow + lo, hi - lo, start);
                    }
                }
            }
        }
    }
}

/// Unrolls one `[C, H, W]` sample into its columns of a patch matrix with
/// row stride `ld` (`cols[r·ld + oy·OW + ox]` for patch row `r`).
/// Padding positions are left untouched, so `cols` must be zeroed on
/// entry (pool buffers are).
///
/// # Panics
///
/// Panics (via slice indexing) if `cols` or `input` is too short for the
/// geometry.
pub fn im2col_sample(geom: &PatchGeom, input: &[f32], cols: &mut [f32], ld: usize) {
    let (hw, kk) = (geom.h * geom.w, geom.win.kernel * geom.win.kernel);
    for ch in 0..geom.c {
        im2col_channel(
            geom,
            &input[ch * hw..(ch + 1) * hw],
            &mut cols[ch * kk * ld..],
            ld,
        );
    }
}

/// Unrolls one `[H, W]` plane into its `K·K` patch rows, one span per
/// `(ky, kx, oy)`: for stride 1 a span is one contiguous source segment
/// (a memcpy), otherwise a strided gather.
fn im2col_channel(geom: &PatchGeom, plane: &[f32], cols: &mut [f32], ld: usize) {
    let stride = geom.win.stride;
    geom.for_each_span(ld, |at, len, start| {
        let dst = &mut cols[at..at + len];
        if stride == 1 {
            dst.copy_from_slice(&plane[start..start + len]);
        } else {
            for (d, &v) in dst.iter_mut().zip(plane[start..].iter().step_by(stride)) {
                *d = v;
            }
        }
    });
}

/// Adjoint of [`im2col_sample`]: scatter-adds one sample's columns of a
/// patch-gradient matrix (row stride `ld`) onto its `[C, H, W]` input
/// gradient `out`, accumulating with **compensated (Kahan) adds**: each
/// input-grid element keeps a running compensation term in `comp` (an
/// `H·W` workspace, reset per channel), so the `K²` overlapping
/// contributions per element lose almost no low-order bits regardless of
/// their magnitudes.
///
/// Every element receives its contributions in `(ky, kx)` order on every
/// path and backend, so col2im results are bitwise identical everywhere.
///
/// # Panics
///
/// Panics (via slice indexing) if `cols`, `out` or `comp` is too short
/// for the geometry.
pub fn col2im_sample(geom: &PatchGeom, cols: &[f32], ld: usize, out: &mut [f32], comp: &mut [f32]) {
    let (hw, kk) = (geom.h * geom.w, geom.win.kernel * geom.win.kernel);
    for (ch, plane) in out[..geom.c * hw].chunks_mut(hw).enumerate() {
        comp[..hw].fill(0.0);
        col2im_channel(geom, &cols[ch * kk * ld..], ld, plane, &mut comp[..hw]);
    }
}

/// Scatter-adds one channel's `K·K` patch-gradient rows onto its plane,
/// one span per `(ky, kx, oy)`: for stride 1 a span lands on one
/// contiguous input segment and is one compensated slice add, otherwise
/// its elements land `stride` apart.
fn col2im_channel(geom: &PatchGeom, cols: &[f32], ld: usize, plane: &mut [f32], comp: &mut [f32]) {
    let stride = geom.win.stride;
    geom.for_each_span(ld, |at, len, start| {
        let terms = &cols[at..at + len];
        if stride == 1 {
            let end = start + len;
            kahan_add(&mut plane[start..end], &mut comp[start..end], terms);
        } else {
            for (j, &t) in terms.iter().enumerate() {
                let i = start + j * stride;
                kahan_step(&mut plane[i], &mut comp[i], t);
            }
        }
    });
}

/// Compensated (Kahan) accumulation `acc[i] += terms[i]`, with `comp[i]`
/// carrying the low-order bits each add lost into the next one.
pub(crate) fn kahan_add(acc: &mut [f32], comp: &mut [f32], terms: &[f32]) {
    for ((a, c), &t) in acc.iter_mut().zip(comp.iter_mut()).zip(terms) {
        kahan_step(a, c, t);
    }
}

/// One compensated add: `acc += term`, recovering the bits the previous
/// add lost from `comp` and storing the ones this add loses there.
#[inline(always)]
fn kahan_step(acc: &mut f32, comp: &mut f32, term: f32) {
    let y = term - *comp;
    let s = *acc + y;
    *comp = (s - *acc) - y;
    *acc = s;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom(
        c: usize,
        h: usize,
        w: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
    ) -> PatchGeom {
        let win = Window {
            kernel,
            stride,
            padding,
        };
        PatchGeom {
            c,
            h,
            w,
            win,
            oh: win.out_size(h).unwrap(),
            ow: win.out_size(w).unwrap(),
        }
    }

    #[test]
    fn im2col_identity_window_copies_input() {
        // 1x1 kernel, stride 1: cols is exactly the input plane
        let input: Vec<f32> = (0..12).map(|v| v as f32).collect();
        let g = geom(3, 2, 2, 1, 1, 0);
        let mut cols = vec![0.0f32; 12];
        im2col_sample(&g, &input, &mut cols, g.ohw());
        assert_eq!(cols, input);
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for random-ish x, y
        for g in [geom(2, 4, 4, 3, 1, 1), geom(2, 5, 5, 3, 2, 1)] {
            let len = g.ckk() * g.ohw();
            let x: Vec<f32> = (0..g.chw()).map(|v| (v as f32 * 0.37).sin()).collect();
            let y: Vec<f32> = (0..len).map(|v| (v as f32 * 0.11).cos()).collect();
            let mut cols = vec![0.0f32; len];
            im2col_sample(&g, &x, &mut cols, g.ohw());
            let lhs: f32 = cols.iter().zip(&y).map(|(a, b)| a * b).sum();
            let mut back = vec![0.0f32; g.chw()];
            let mut comp = vec![0.0f32; g.h * g.w];
            col2im_sample(&g, &y, g.ohw(), &mut back, &mut comp);
            let rhs: f32 = x.iter().zip(&back).map(|(a, b)| a * b).sum();
            assert!(
                (lhs - rhs).abs() < 1e-3 * (1.0 + lhs.abs()),
                "{lhs} vs {rhs}"
            );
        }
    }

    /// The element-at-a-time visit the span paths replace: every in-plane
    /// `(patch index, input index)` pair of one channel in
    /// `(ky, kx, oy, ox)` order, bounds-checked per element.
    fn element_pairs(g: &PatchGeom, ld: usize) -> Vec<(usize, usize)> {
        let (k, s, p) = (g.win.kernel, g.win.stride, g.win.padding);
        let mut pairs = Vec::new();
        for ky in 0..k {
            for kx in 0..k {
                for oy in 0..g.oh {
                    for ox in 0..g.ow {
                        let (iy, ix) = (oy * s + ky, ox * s + kx);
                        if (p..g.h + p).contains(&iy) && (p..g.w + p).contains(&ix) {
                            let at = (ky * k + kx) * ld + oy * g.ow + ox;
                            pairs.push((at, (iy - p) * g.w + ix - p));
                        }
                    }
                }
            }
        }
        pairs
    }

    /// Kernels 1/3/5 × paddings 0/1/2 × strides 1/2, including paddings
    /// wider than some kernels (whole rows clipped away).
    fn span_geoms() -> Vec<PatchGeom> {
        let mut out = Vec::new();
        for kernel in [1, 3, 5] {
            for padding in [0, 1, 2] {
                for stride in [1, 2] {
                    for (h, w) in [(5, 6), (7, 4), (6, 9)] {
                        if h + 2 * padding >= kernel && w + 2 * padding >= kernel {
                            out.push(geom(2, h, w, kernel, stride, padding));
                        }
                    }
                }
            }
        }
        out
    }

    #[test]
    fn im2col_spans_match_the_element_loop() {
        for g in span_geoms() {
            let plane: Vec<f32> = (0..g.h * g.w).map(|v| v as f32 + 1.0).collect();
            // a two-sample-wide block, so the row stride is exercised too
            let ld = 2 * g.ohw();
            let len = g.win.kernel * g.win.kernel * ld;
            let mut fast = vec![0.0f32; len];
            im2col_channel(&g, &plane, &mut fast[g.ohw()..], ld);
            let mut slow = vec![0.0f32; len];
            for (at, i) in element_pairs(&g, ld) {
                slow[g.ohw() + at] = plane[i];
            }
            assert_eq!(fast, slow, "{g:?}");
        }
    }

    #[test]
    fn col2im_spans_are_bitwise_equal_to_the_element_loop() {
        for g in span_geoms() {
            let ld = 2 * g.ohw();
            let len = g.win.kernel * g.win.kernel * ld;
            // magnitudes spread over many binades so every Kahan step
            // carries a non-trivial compensation term
            let cols: Vec<f32> = (0..len)
                .map(|v| (v as f32 * 0.731).sin() * 10f32.powi((v % 7) as i32 - 3))
                .collect();
            let hw = g.h * g.w;
            let (mut fast, mut fast_comp) = (vec![0.5f32; hw], vec![0.0f32; hw]);
            col2im_channel(&g, &cols[g.ohw()..], ld, &mut fast, &mut fast_comp);
            let (mut slow, mut slow_comp) = (vec![0.5f32; hw], vec![0.0f32; hw]);
            for (at, i) in element_pairs(&g, ld) {
                kahan_step(&mut slow[i], &mut slow_comp[i], cols[g.ohw() + at]);
            }
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&fast), bits(&slow), "{g:?}");
            assert_eq!(bits(&fast_comp), bits(&slow_comp), "{g:?}");
        }
    }
}
