//! Replica step loops for the traced run. Each repeats, call for call,
//! the arithmetic of the library's own cell runner (the `Trainer`'s
//! classifier loop, or the VAE cell loop) with the recorder disabled, and
//! wraps every call into a crate in a benchmark-side span. A replica's
//! final metric must equal the library run's bit for bit, which proves it
//! timed the same work.

use std::time::Duration;

use rex_autograd::Graph;
use rex_core::ScheduleSpec;
use rex_data::digits::DigitDataset;
use rex_data::{augment_hflip, batches};
use rex_nn::{Module, Vae};
use rex_tensor::{DType, Prng, Tensor};
use rex_train::tasks::vae_loss;
use rex_train::{classification_loss, evaluate_classifier, OptimizerKind, TrainError};

use crate::alloc;
use crate::spans::Spans;

/// Per-layer time and work accumulated over replica cells.
#[derive(Debug, Default)]
pub struct StepAcc {
    /// Optimizer steps replayed.
    pub steps: u64,
    /// Cells replayed.
    pub cells: u64,
    /// Samples trained on.
    pub samples: u64,
    /// Batch assembly: shuffling, slicing and augmentation (`rex-data`).
    pub data: Duration,
    /// Schedule evaluation (`rex-core`).
    pub schedule: Duration,
    /// Graph build, model forward and loss (`rex-autograd`/`rex-nn`).
    pub forward: Duration,
    /// Reverse-mode pass (`rex-autograd`).
    pub backward: Duration,
    /// LR/momentum updates, gradient zeroing and the step (`rex-optim`).
    pub optim: Duration,
    /// Final test-set evaluations.
    pub evaluate: Duration,
    /// Autograd nodes recorded across all steps.
    pub nodes: u64,
    /// Allocations during the replica cells.
    pub alloc_count: u64,
    /// Bytes allocated during the replica cells.
    pub alloc_bytes: u64,
    /// Wall time of the library runs the replayed cells are checked
    /// against, tracing off.
    pub untraced: Duration,
    /// Wall time of the traced replays, model build included.
    pub traced: Duration,
}

/// One classification cell, as `Trainer::train_classifier` runs it.
pub struct ClassifierCell<'a> {
    /// The freshly built model.
    pub model: &'a dyn Module,
    /// Training images.
    pub train_images: &'a Tensor,
    /// Training labels.
    pub train_labels: &'a [usize],
    /// Test images.
    pub test_images: &'a Tensor,
    /// Test labels.
    pub test_labels: &'a [usize],
    /// Budgeted epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Initial learning rate.
    pub lr: f32,
    /// Optimizer family.
    pub optimizer: OptimizerKind,
    /// Schedule.
    pub schedule: ScheduleSpec,
    /// Random horizontal flips.
    pub augment: bool,
    /// The trainer's shuffling/augmentation seed.
    pub seed: u64,
}

/// Replays a classification cell; returns its final test error.
///
/// # Errors
///
/// Tensor errors from the model, as the trainer would surface them.
pub fn classifier(
    sp: &mut Spans,
    c: &ClassifierCell,
    acc: &mut StepAcc,
) -> Result<f64, TrainError> {
    counted(
        sp,
        acc,
        c.train_labels.len() as u64 * c.epochs as u64,
        |sp, acc| classifier_body(sp, c, acc),
    )
}

/// Replica cells whose spans are recorded; later cells are timed alike
/// but leave no events, so the written tree stays small.
const RECORDED_CELLS: u64 = 8;

/// Runs one replica cell inside a `cell` span with allocation counting
/// on, closing any spans an early error return left open.
fn counted(
    sp: &mut Spans,
    acc: &mut StepAcc,
    samples: u64,
    body: impl FnOnce(&mut Spans, &mut StepAcc) -> Result<f64, TrainError>,
) -> Result<f64, TrainError> {
    let depth = sp.depth();
    sp.mute(acc.cells >= RECORDED_CELLS);
    alloc::start();
    sp.enter("cell");
    let result = body(sp, acc);
    sp.unwind_to(depth);
    sp.mute(false);
    let counted = alloc::stop();
    acc.alloc_count += counted.count;
    acc.alloc_bytes += counted.bytes;
    acc.cells += 1;
    acc.samples += samples;
    result
}

fn classifier_body(
    sp: &mut Spans,
    c: &ClassifierCell,
    acc: &mut StepAcc,
) -> Result<f64, TrainError> {
    let mut opt = c.optimizer.build(c.model.params(), c.lr);
    opt.set_param_dtype(DType::F32);
    opt.set_instrumented(false);
    let total = c.train_labels.len() as u64 * c.epochs as u64;
    let mut schedule = c.schedule.build();
    let needs_val = c.schedule.needs_validation_feedback();
    let mut rng = Prng::new(c.seed);
    let mut samples_done = 0u64;
    for _ in 0..c.epochs {
        sp.enter("epoch");
        let (epoch_batches, dt) = sp.time("data", || {
            batches(c.train_images, c.train_labels, c.batch_size, Some(&mut rng))
        });
        acc.data += dt;
        for batch in &epoch_batches {
            sp.enter("step");
            let ((factor, momentum), dt) = sp.time("schedule", || {
                (
                    schedule.factor(samples_done, total) as f32,
                    schedule.momentum(samples_done, total),
                )
            });
            acc.schedule += dt;
            let ((), dt) = sp.time("optimizer", || {
                opt.set_lr(c.lr * factor);
                if let Some(m) = momentum {
                    opt.set_momentum(m as f32);
                }
                opt.zero_grad();
            });
            acc.optim += dt;
            let (images, dt) = sp.time("data", || {
                if c.augment && batch.images.ndim() == 4 {
                    augment_hflip(&batch.images, &mut rng)
                } else {
                    batch.images.clone()
                }
            });
            acc.data += dt;
            let (fwd, dt) = sp.time("forward", || {
                let mut g = Graph::new(true);
                let x = g.constant(images);
                let logits = c.model.forward(&mut g, x)?;
                let loss = g.cross_entropy(logits, &batch.labels)?;
                let _batch_loss = g.value(loss).item();
                Ok::<_, TrainError>((g, loss))
            });
            acc.forward += dt;
            let (mut g, loss) = fwd?;
            acc.nodes += g.len() as u64;
            let (bwd, dt) = sp.time("backward", || g.backward(loss));
            acc.backward += dt;
            bwd?;
            let ((), dt) = sp.time("optimizer", || opt.step());
            acc.optim += dt;
            samples_done += batch.labels.len() as u64;
            acc.steps += 1;
            sp.exit("step");
        }
        if needs_val {
            let (vl, _) = sp.time("validation", || {
                classification_loss(c.model, c.test_images, c.test_labels, c.batch_size)
            });
            schedule.on_validation(vl?);
        }
        sp.exit("epoch");
    }
    let (metric, dt) = sp.time("evaluate", || {
        evaluate_classifier(c.model, c.test_images, c.test_labels, c.batch_size)
    });
    acc.evaluate += dt;
    Ok(metric?)
}

/// One VAE cell, as `rex_train::tasks::run_vae_cell` runs it.
pub struct VaeCell<'a> {
    /// Training digits.
    pub train: &'a DigitDataset,
    /// Test digits.
    pub test: &'a DigitDataset,
    /// Budgeted epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Optimizer family.
    pub optimizer: OptimizerKind,
    /// Schedule.
    pub schedule: ScheduleSpec,
    /// Initial learning rate.
    pub lr: f32,
    /// Cell seed.
    pub seed: u64,
}

/// Replays a VAE cell; returns its final test loss.
///
/// # Errors
///
/// Tensor errors from the model.
pub fn vae(sp: &mut Spans, c: &VaeCell, acc: &mut StepAcc) -> Result<f64, TrainError> {
    counted(
        sp,
        acc,
        c.train.len() as u64 * c.epochs as u64,
        |sp, acc| vae_body(sp, c, acc),
    )
}

fn vae_body(sp: &mut Spans, c: &VaeCell, acc: &mut StepAcc) -> Result<f64, TrainError> {
    let dim = c.train.size * c.train.size;
    let model = Vae::new(dim, 64, 8, c.seed);
    let mut opt = c.optimizer.build(model.params(), c.lr);
    opt.set_instrumented(false);
    let mut rng = Prng::new(c.seed ^ 0xE1B0);
    let total = c.train.len() as u64 * c.epochs as u64;
    let mut schedule = c.schedule.build();
    let needs_val = c.schedule.needs_validation_feedback();
    let fake_labels = vec![0usize; c.train.len()];
    let mut samples_done = 0u64;
    for _ in 0..c.epochs {
        sp.enter("epoch");
        let (epoch_batches, dt) = sp.time("data", || {
            batches(&c.train.images, &fake_labels, c.batch_size, Some(&mut rng))
        });
        acc.data += dt;
        for batch in &epoch_batches {
            sp.enter("step");
            let ((factor, momentum), dt) = sp.time("schedule", || {
                (
                    schedule.factor(samples_done, total) as f32,
                    schedule.momentum(samples_done, total),
                )
            });
            acc.schedule += dt;
            let ((), dt) = sp.time("optimizer", || {
                opt.set_lr(c.lr * factor);
                if let Some(m) = momentum {
                    opt.set_momentum(m as f32);
                }
                opt.zero_grad();
            });
            acc.optim += dt;
            samples_done += batch.labels.len() as u64;
            let (fwd, dt) = sp.time("forward", || {
                let mut g = Graph::new(true);
                let loss = model.elbo(&mut g, &batch.images)?;
                Ok::<_, TrainError>((g, loss))
            });
            acc.forward += dt;
            let (mut g, loss) = fwd?;
            acc.nodes += g.len() as u64;
            let (bwd, dt) = sp.time("backward", || g.backward(loss));
            acc.backward += dt;
            bwd?;
            let ((), dt) = sp.time("optimizer", || opt.step());
            acc.optim += dt;
            acc.steps += 1;
            sp.exit("step");
        }
        if needs_val {
            let (vl, _) = sp.time("validation", || vae_loss(&model, c.test));
            schedule.on_validation(vl?);
        }
        sp.exit("epoch");
    }
    let (metric, dt) = sp.time("evaluate", || vae_loss(&model, c.test));
    acc.evaluate += dt;
    Ok(metric?)
}
