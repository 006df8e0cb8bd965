//! Mini-batch assembly and augmentation.

use rex_tensor::{Prng, Tensor};

/// One mini-batch of images and labels.
#[derive(Debug, Clone)]
pub struct Batch {
    /// Batch images `[B, C, H, W]` (or `[B, D]` for flattened data).
    pub images: Tensor,
    /// Batch labels.
    pub labels: Vec<usize>,
}

/// Splits a dataset into mini-batches for one epoch.
///
/// With `rng: Some(..)` the sample order is shuffled (training); with
/// `None` batches are deterministic and in order (evaluation). The last
/// partial batch is kept.
///
/// The batch order is a pure function of the RNG state on entry: a
/// checkpoint that captured [`Prng::state`] before the shuffle can rebuild
/// this epoch's exact batches via [`Prng::from_state`] — the loader-level
/// half of the resume-determinism contract.
///
/// # Panics
///
/// Panics if `batch_size == 0` or label count differs from the first image
/// axis.
pub fn batches(
    images: &Tensor,
    labels: &[usize],
    batch_size: usize,
    mut rng: Option<&mut Prng>,
) -> Vec<Batch> {
    assert!(batch_size > 0, "batch size must be positive");
    assert_eq!(
        images.shape()[0],
        labels.len(),
        "images/labels length mismatch"
    );
    let n = labels.len();
    let order: Vec<usize> = match rng.take() {
        Some(r) => r.permutation(n),
        None => (0..n).collect(),
    };
    order
        .chunks(batch_size)
        .map(|rows| Batch {
            images: images.gather_rows(rows),
            labels: rows.iter().map(|&i| labels[i]).collect(),
        })
        .collect()
}

/// Random horizontal flip (probability ½ per sample) for `[B, C, H, W]`
/// image batches — the standard light augmentation for the CIFAR-style
/// settings.
///
/// # Panics
///
/// Panics if `batch` is not 4-D.
pub fn augment_hflip(batch: &Tensor, rng: &mut Prng) -> Tensor {
    assert_eq!(batch.ndim(), 4, "hflip expects [B,C,H,W]");
    let (b, c, h, w) = (
        batch.shape()[0],
        batch.shape()[1],
        batch.shape()[2],
        batch.shape()[3],
    );
    let mut out = batch.clone();
    for i in 0..b {
        if !rng.bernoulli(0.5) {
            continue;
        }
        for ch in 0..c {
            for y in 0..h {
                let base = ((i * c + ch) * h + y) * w;
                out.data_mut()[base..base + w].reverse();
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> (Tensor, Vec<usize>) {
        (
            Tensor::arange(0.0, 1.0, 12).reshape(&[6, 2]).unwrap(),
            vec![0, 1, 2, 3, 4, 5],
        )
    }

    #[test]
    fn unshuffled_batches_in_order() {
        let (imgs, labels) = toy();
        let bs = batches(&imgs, &labels, 4, None);
        assert_eq!(bs.len(), 2);
        assert_eq!(bs[0].labels, vec![0, 1, 2, 3]);
        assert_eq!(bs[1].labels, vec![4, 5]); // partial batch kept
        assert_eq!(bs[0].images.shape(), &[4, 2]);
        assert_eq!(bs[1].images.shape(), &[2, 2]);
    }

    #[test]
    fn shuffled_batches_cover_everything_once() {
        let (imgs, labels) = toy();
        let mut rng = Prng::new(0);
        let bs = batches(&imgs, &labels, 4, Some(&mut rng));
        let mut seen: Vec<usize> = bs.iter().flat_map(|b| b.labels.clone()).collect();
        seen.sort_unstable();
        assert_eq!(seen, labels);
    }

    #[test]
    fn same_rng_state_reproduces_batches() {
        // the loader half of the resume contract: capturing the RNG state
        // before the shuffle and rebuilding from it regenerates the epoch's
        // batches exactly
        let (imgs, labels) = toy();
        let mut rng = Prng::new(0xFEED);
        let _burn = rng.permutation(17); // advance into the stream
        let saved = rng.state();
        let original = batches(&imgs, &labels, 4, Some(&mut rng));

        let mut replay = Prng::from_state(saved);
        let rebuilt = batches(&imgs, &labels, 4, Some(&mut replay));
        assert_eq!(original.len(), rebuilt.len());
        for (a, b) in original.iter().zip(&rebuilt) {
            assert_eq!(a.labels, b.labels);
            assert_eq!(a.images.data(), b.images.data());
        }
        // both streams end in the same place, so the *next* epoch matches too
        assert_eq!(rng.state(), replay.state());
    }

    #[test]
    fn shuffles_differ_between_epochs() {
        let (imgs, labels) = toy();
        let mut rng = Prng::new(1);
        let a: Vec<usize> = batches(&imgs, &labels, 6, Some(&mut rng))[0].labels.clone();
        let b: Vec<usize> = batches(&imgs, &labels, 6, Some(&mut rng))[0].labels.clone();
        assert_ne!(a, b, "consecutive epochs should shuffle differently");
    }

    #[test]
    fn hflip_reverses_rows_only_for_flipped_samples() {
        let img = Tensor::arange(0.0, 1.0, 2 * 4)
            .reshape(&[2, 1, 1, 4])
            .unwrap();
        // find a seed where sample 0 flips and sample 1 doesn't
        let mut rng = Prng::new(3);
        let out = augment_hflip(&img, &mut rng);
        for i in 0..2 {
            let orig: Vec<f32> = (0..4).map(|x| img.at(&[i, 0, 0, x])).collect();
            let now: Vec<f32> = (0..4).map(|x| out.at(&[i, 0, 0, x])).collect();
            let rev: Vec<f32> = orig.iter().rev().copied().collect();
            assert!(now == orig || now == rev, "sample {i} corrupted: {now:?}");
        }
    }

    #[test]
    #[should_panic(expected = "batch size")]
    fn zero_batch_size_panics() {
        let (imgs, labels) = toy();
        let _ = batches(&imgs, &labels, 0, None);
    }
}

/// Random crop with zero padding (the classic CIFAR augmentation): pads
/// each image by `pad` pixels and crops back to the original size at a
/// random offset, independently per sample.
///
/// # Panics
///
/// Panics if `batch` is not 4-D.
pub fn augment_random_crop(batch: &Tensor, pad: usize, rng: &mut Prng) -> Tensor {
    assert_eq!(batch.ndim(), 4, "random crop expects [B,C,H,W]");
    if pad == 0 {
        return batch.clone();
    }
    let padded = rex_tensor::ops::pad2d(batch, pad).expect("4-D checked above");
    let (b, c, h, w) = (
        batch.shape()[0],
        batch.shape()[1],
        batch.shape()[2],
        batch.shape()[3],
    );
    let (ph, pw) = (h + 2 * pad, w + 2 * pad);
    let mut out = Tensor::zeros(batch.shape());
    for i in 0..b {
        let oy = rng.below(2 * pad + 1);
        let ox = rng.below(2 * pad + 1);
        for ch in 0..c {
            for y in 0..h {
                let src = ((i * c + ch) * ph + y + oy) * pw + ox;
                let dst = ((i * c + ch) * h + y) * w;
                let row = padded.data()[src..src + w].to_vec();
                out.data_mut()[dst..dst + w].copy_from_slice(&row);
            }
        }
    }
    out
}

#[cfg(test)]
mod crop_tests {
    use super::*;

    #[test]
    fn zero_pad_is_identity() {
        let img = Tensor::arange(0.0, 1.0, 16).reshape(&[1, 1, 4, 4]).unwrap();
        let mut rng = Prng::new(0);
        assert_eq!(augment_random_crop(&img, 0, &mut rng), img);
    }

    #[test]
    fn crop_preserves_shape_and_is_shifted_content() {
        let img = Tensor::ones(&[2, 3, 4, 4]);
        let mut rng = Prng::new(1);
        let out = augment_random_crop(&img, 2, &mut rng);
        assert_eq!(out.shape(), img.shape());
        // crops of an all-ones image contain only zeros (padding) and ones
        assert!(out.data().iter().all(|&v| v == 0.0 || v == 1.0));
    }

    #[test]
    fn center_content_survives_small_pad() {
        // with pad 1 the central 2x2 of a 4x4 image is always retained
        let mut img = Tensor::zeros(&[1, 1, 4, 4]);
        img.set(&[0, 0, 1, 1], 5.0);
        img.set(&[0, 0, 2, 2], 7.0);
        let mut rng = Prng::new(2);
        for _ in 0..10 {
            let out = augment_random_crop(&img, 1, &mut rng);
            let has5 = out.data().contains(&5.0);
            let has7 = out.data().contains(&7.0);
            assert!(has5 && has7, "central pixels must survive a 1-px crop");
        }
    }
}
