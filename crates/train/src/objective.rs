//! What [`Trainer::train`] optimises: the [`Objective`] trait and the
//! image/digits [`Classifier`] objective.
//!
//! The trainer owns everything the budgeted protocol fixes — shuffling,
//! the per-iteration schedule, the optimizer step, guards, telemetry,
//! checkpoints. An objective owns only the model and its data: which
//! parameters train, how a mini-batch of training rows becomes a loss,
//! and how the model is scored.
//!
//! [`Trainer::train`]: crate::Trainer::train

use std::cell::RefCell;

use rex_autograd::{Graph, NodeId, Param};
use rex_data::{augment_hflip, batches};
use rex_nn::Module;
use rex_telemetry::span::span;
use rex_tensor::{Prng, Tensor, TensorError};

use crate::trainer::TrainConfig;

/// A model, its data, and its loss — everything a training run needs
/// besides the budgeted loop itself.
pub trait Objective {
    /// Run label for the trace header and for snapshot compatibility
    /// (`"classifier"`, `"vae"`, `"detection"`, `"glue:<task>"`, …).
    fn run(&self) -> String;

    /// Trainable parameters, in a deterministic order.
    fn params(&self) -> Vec<Param>;

    /// Non-trainable state a snapshot must carry (batch-norm running
    /// statistics), in a deterministic order. Default: none.
    fn buffers(&self) -> Vec<(String, &RefCell<Tensor>)> {
        Vec::new()
    }

    /// Training-set size. Each epoch trains on a fresh permutation of
    /// rows `0..train_len()`, chunked into mini-batches.
    fn train_len(&self) -> usize;

    /// The loop's random stream (shuffling, augmentation) for a run
    /// seeded `seed`. Default: `Prng::new(seed)`.
    fn shuffle_rng(&self, seed: u64) -> Prng {
        Prng::new(seed)
    }

    /// Builds the training loss of the mini-batch made of training rows
    /// `rows` (in batch order) onto `g`. `rng` is the loop's stream, for
    /// augmentation.
    ///
    /// # Errors
    ///
    /// Propagates [`TensorError`]s from the model.
    fn loss(&self, g: &mut Graph, rows: &[usize], rng: &mut Prng) -> Result<NodeId, TensorError>;

    /// The headline metric reported at the end of the run. Default: none,
    /// and the run reports its last epoch's mean training loss instead.
    ///
    /// # Errors
    ///
    /// Propagates [`TensorError`]s from the model.
    fn metric(&self) -> Result<Option<f64>, TensorError> {
        Ok(None)
    }

    /// Validation loss fed to plateau schedules once per epoch; `None`
    /// leaves them unfed. Default: the metric, for objectives whose metric
    /// is itself a loss.
    ///
    /// # Errors
    ///
    /// Propagates [`TensorError`]s from the model.
    fn validation_loss(&self) -> Result<Option<f64>, TensorError> {
        self.metric()
    }

    /// A random stream the objective draws from on its own (the VAE's
    /// reparameterisation sampler). Snapshots carry its state so a
    /// resumed run draws the same noise. Default: none.
    fn sampler(&self) -> Option<&RefCell<Prng>> {
        None
    }
}

/// Image or digits classification: cross-entropy on the model's logits,
/// optional random horizontal flips, scored by test error (%).
pub struct Classifier<'a> {
    model: &'a dyn Module,
    train_images: &'a Tensor,
    train_labels: &'a [usize],
    test_images: &'a Tensor,
    test_labels: &'a [usize],
    augment: bool,
    eval_batch: usize,
}

impl<'a> Classifier<'a> {
    /// Classification of `train_*` scored on `test_*`. Augmentation
    /// ([`TrainConfig::augment`], 4-D inputs only) and the evaluation
    /// batch size follow `cfg`.
    pub fn new(
        model: &'a dyn Module,
        train_images: &'a Tensor,
        train_labels: &'a [usize],
        test_images: &'a Tensor,
        test_labels: &'a [usize],
        cfg: &TrainConfig,
    ) -> Self {
        Classifier {
            model,
            train_images,
            train_labels,
            test_images,
            test_labels,
            augment: cfg.augment,
            eval_batch: cfg.batch_size,
        }
    }
}

impl Objective for Classifier<'_> {
    fn run(&self) -> String {
        "classifier".to_owned()
    }

    fn params(&self) -> Vec<Param> {
        self.model.params()
    }

    fn buffers(&self) -> Vec<(String, &RefCell<Tensor>)> {
        self.model.buffers()
    }

    fn train_len(&self) -> usize {
        self.train_labels.len()
    }

    fn loss(&self, g: &mut Graph, rows: &[usize], rng: &mut Prng) -> Result<NodeId, TensorError> {
        let data_span = span("data");
        let mut images = self.train_images.gather_rows(rows);
        if self.augment && images.ndim() == 4 {
            images = augment_hflip(&images, rng);
        }
        let labels: Vec<usize> = rows.iter().map(|&i| self.train_labels[i]).collect();
        drop(data_span);
        let x = g.constant(images);
        let logits = self.model.forward(g, x)?;
        g.cross_entropy(logits, &labels)
    }

    fn validation_loss(&self) -> Result<Option<f64>, TensorError> {
        classification_loss(
            self.model,
            self.test_images,
            self.test_labels,
            self.eval_batch,
        )
        .map(Some)
    }

    fn metric(&self) -> Result<Option<f64>, TensorError> {
        evaluate_classifier(
            self.model,
            self.test_images,
            self.test_labels,
            self.eval_batch,
        )
        .map(Some)
    }
}

/// Test-set classification error (%) in eval mode.
///
/// # Errors
///
/// Propagates model forward errors.
pub fn evaluate_classifier(
    model: &dyn Module,
    images: &Tensor,
    labels: &[usize],
    batch_size: usize,
) -> Result<f64, TensorError> {
    let mut predictions = Vec::with_capacity(labels.len());
    for batch in batches(images, labels, batch_size, None) {
        let mut g = Graph::new(false);
        let x = g.constant(batch.images);
        let logits = model.forward(&mut g, x)?;
        predictions.extend(g.value(logits).argmax_rows()?);
    }
    Ok(rex_eval::stats::error_rate(&predictions, labels))
}

/// Mean test cross-entropy in eval mode (validation feedback for plateau
/// schedules).
///
/// # Errors
///
/// Propagates model forward errors.
pub fn classification_loss(
    model: &dyn Module,
    images: &Tensor,
    labels: &[usize],
    batch_size: usize,
) -> Result<f64, TensorError> {
    let mut total = 0.0f64;
    let mut count = 0usize;
    for batch in batches(images, labels, batch_size, None) {
        let mut g = Graph::new(false);
        let x = g.constant(batch.images);
        let logits = model.forward(&mut g, x)?;
        let loss = g.cross_entropy(logits, &batch.labels)?;
        total += g.value(loss).item() as f64 * batch.labels.len() as f64;
        count += batch.labels.len();
    }
    Ok(total / count.max(1) as f64)
}
