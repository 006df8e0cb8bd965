//! Per-setting cell runners: one function per paper setting, each
//! wrapping its model and data in an [`Objective`] and driving it through
//! the one budgeted loop, [`Trainer::train`]. Every runner takes a
//! [`TrainConfig`] (budgeted epochs, batch size, LR, optimizer, schedule,
//! seed, dtype, fault-tolerance knobs) and a [`Recorder`], and returns
//! the setting's headline metric.

use std::cell::RefCell;

use rex_autograd::{Graph, NodeId, Param};
use rex_core::ScheduleSpec;
use rex_data::digits::DigitDataset;
use rex_data::scenes::SceneDataset;
use rex_data::text::{LmCorpus, TextTask};
use rex_data::ClassificationDataset;
use rex_eval::map::{mean_average_precision, GroundTruth, Prediction};
use rex_nn::{
    DetectionTargets, Linear, MicroResNet, MicroVgg, MicroWideResNet, Module, TinyDetector,
    TinyTransformer, TransformerConfig, Vae,
};
use rex_telemetry::Recorder;
use rex_tensor::{Prng, Tensor, TensorError};

use crate::error::TrainError;
use crate::objective::{Classifier, Objective};
use crate::trainer::{OptimizerKind, TrainConfig, Trainer};

/// Which image-classification architecture a setting uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ImageModel {
    /// The RN20-CIFAR10 analogue.
    MicroResNet20,
    /// The RN38-CIFAR10 analogue (Table 2's second model).
    MicroResNet38,
    /// The RN50-ImageNet analogue (deeper/wider).
    MicroResNet50,
    /// The WRN-STL10 analogue with the given widen factor.
    MicroWide(usize),
    /// The VGG16-CIFAR100 analogue (needs the input size).
    MicroVgg(usize),
}

impl ImageModel {
    /// Builds the model for `num_classes` outputs with the given seed.
    pub fn build(&self, num_classes: usize, seed: u64) -> Box<dyn Module> {
        match *self {
            ImageModel::MicroResNet20 => Box::new(MicroResNet::rn20_analog(num_classes, seed)),
            ImageModel::MicroResNet38 => Box::new(MicroResNet::rn38_analog(num_classes, seed)),
            ImageModel::MicroResNet50 => Box::new(MicroResNet::rn50_analog(num_classes, seed)),
            ImageModel::MicroWide(widen) => {
                Box::new(MicroWideResNet::new(num_classes, widen, seed))
            }
            ImageModel::MicroVgg(input) => Box::new(MicroVgg::new(num_classes, input, seed)),
        }
    }
}

/// Trains `model_kind` on `data` and returns the test error (%). One
/// cell of Tables 4–6/8. The model is built from `cfg.seed`; the loop
/// shuffles and augments from `cfg.seed ^ 0x7EA1`.
///
/// # Errors
///
/// Propagates [`TrainError`]s from the trainer (tensor errors, plus the
/// fault-tolerance failure modes when those knobs are on).
pub fn run_image_cell(
    model_kind: ImageModel,
    data: &ClassificationDataset,
    cfg: TrainConfig,
    rec: &mut Recorder,
) -> Result<f64, TrainError> {
    let model = model_kind.build(data.num_classes, cfg.seed);
    let mut trainer = Trainer::new(TrainConfig {
        seed: cfg.seed ^ 0x7EA1,
        ..cfg
    });
    let obj = Classifier::new(
        model.as_ref(),
        &data.train_images,
        &data.train_labels,
        &data.test_images,
        &data.test_labels,
        trainer.config(),
    );
    Ok(trainer.train(&obj, rec)?.final_metric)
}

/// The VAE-MNIST objective: negative ELBO on flattened digits, with the
/// reparameterisation noise drawn from the model's own sampler.
struct VaeObjective<'a> {
    vae: Vae,
    train: &'a DigitDataset,
    test: &'a DigitDataset,
}

impl Objective for VaeObjective<'_> {
    fn run(&self) -> String {
        "vae".to_owned()
    }

    fn params(&self) -> Vec<Param> {
        self.vae.params()
    }

    fn train_len(&self) -> usize {
        self.train.len()
    }

    fn shuffle_rng(&self, seed: u64) -> Prng {
        Prng::new(seed ^ 0xE1B0)
    }

    fn loss(&self, g: &mut Graph, rows: &[usize], _rng: &mut Prng) -> Result<NodeId, TensorError> {
        self.vae.elbo(g, &self.train.images.gather_rows(rows))
    }

    fn metric(&self) -> Result<Option<f64>, TensorError> {
        vae_loss(&self.vae, self.test).map(Some)
    }

    fn sampler(&self) -> Option<&RefCell<Prng>> {
        Some(self.vae.sampler())
    }
}

/// Trains a VAE on digit images and returns the test generalization loss
/// (negative ELBO). One cell of Table 7. The model and its sampler are
/// seeded from `cfg.seed`, the loop's shuffling from `cfg.seed ^ 0xE1B0`;
/// `cfg.augment` does not apply.
///
/// # Errors
///
/// Propagates [`TrainError`]s from the trainer.
pub fn run_vae_cell(
    train: &DigitDataset,
    test: &DigitDataset,
    cfg: TrainConfig,
    rec: &mut Recorder,
) -> Result<f64, TrainError> {
    let obj = VaeObjective {
        vae: Vae::new(train.size * train.size, 64, 8, cfg.seed),
        train,
        test,
    };
    Ok(Trainer::new(cfg).train(&obj, rec)?.final_metric)
}

/// Deterministic (eval-mode) ELBO of a VAE over a digit set.
///
/// # Errors
///
/// Propagates [`TensorError`]s from the model.
pub fn vae_loss(vae: &Vae, data: &DigitDataset) -> Result<f64, TensorError> {
    let mut g = Graph::new(false);
    let loss = vae.elbo(&mut g, &data.images)?;
    Ok(g.value(loss).item() as f64)
}

/// The YOLO-VOC objective: the detector's grid loss on synthetic scenes,
/// scored by test mAP@0.5 (%).
struct DetectionObjective<'a> {
    det: TinyDetector,
    train: &'a SceneDataset,
    test: &'a SceneDataset,
}

impl Objective for DetectionObjective<'_> {
    fn run(&self) -> String {
        "detection".to_owned()
    }

    fn params(&self) -> Vec<Param> {
        self.det.params()
    }

    fn buffers(&self) -> Vec<(String, &RefCell<Tensor>)> {
        self.det.buffers()
    }

    fn train_len(&self) -> usize {
        self.train.len()
    }

    fn shuffle_rng(&self, seed: u64) -> Prng {
        Prng::new(seed ^ 0xDE7E)
    }

    fn loss(&self, g: &mut Graph, rows: &[usize], _rng: &mut Prng) -> Result<NodeId, TensorError> {
        let train = self.train;
        let cells = train.grid * train.grid;
        let mut classes = Vec::with_capacity(rows.len() * cells);
        for &i in rows {
            classes.extend_from_slice(&train.cell_classes[i * cells..(i + 1) * cells]);
        }
        let targets = DetectionTargets::new(
            train.objectness.gather_rows(rows),
            train.boxes.gather_rows(rows),
            classes,
        )?;
        let x = g.constant(train.images.gather_rows(rows));
        self.det.loss(g, x, &targets)
    }

    /// None: plateau schedules get no feedback here and hold their LR after
    /// warmup, as detection always has. Feeding them `100 - mAP` would move
    /// every detection trajectory under a plateau schedule.
    fn validation_loss(&self) -> Result<Option<f64>, TensorError> {
        Ok(None)
    }

    fn metric(&self) -> Result<Option<f64>, TensorError> {
        detection_map(&self.det, self.test).map(Some)
    }
}

/// Trains a detector on synthetic scenes and returns the test mAP (%).
/// One cell of Table 9. The paper's linear warmup (from LR/10 over
/// `warmup_epochs`) runs before the `cfg.epochs` budgeted epochs and is
/// excluded from the budget. The model is seeded from `cfg.seed`, the
/// loop's shuffling from `cfg.seed ^ 0xDE7E`.
///
/// # Errors
///
/// Propagates [`TrainError`]s from the trainer.
pub fn run_detection_cell(
    train: &SceneDataset,
    test: &SceneDataset,
    warmup_epochs: usize,
    cfg: TrainConfig,
    rec: &mut Recorder,
) -> Result<f64, TrainError> {
    let obj = DetectionObjective {
        det: TinyDetector::new(train.num_classes, train.images.shape()[2], cfg.seed),
        train,
        test,
    };
    let warmup_samples = (warmup_epochs * train.len()) as u64;
    let mut trainer = Trainer::new(TrainConfig {
        epochs: cfg.epochs + warmup_epochs,
        schedule: ScheduleSpec::WithWarmup(Box::new(cfg.schedule.clone()), warmup_samples, 0.1),
        ..cfg
    });
    Ok(trainer.train(&obj, rec)?.final_metric)
}

/// Evaluates a detector's mAP@0.5 (%) over a scene set.
///
/// # Errors
///
/// Propagates [`TensorError`]s from the model.
pub fn detection_map(det: &TinyDetector, test: &SceneDataset) -> Result<f64, TensorError> {
    let raw = det.decode(&test.images)?;
    let mut preds = Vec::new();
    for (image, dets) in raw.iter().enumerate() {
        for d in dets {
            if d.score > 0.05 {
                preds.push(Prediction {
                    image,
                    class: d.class,
                    score: d.score,
                    cxcywh: d.cxcywh,
                });
            }
        }
    }
    let mut gts = Vec::new();
    for (image, objs) in test.objects.iter().enumerate() {
        for o in objs {
            gts.push(GroundTruth {
                image,
                class: o.class,
                cxcywh: o.cxcywh,
            });
        }
    }
    Ok(mean_average_precision(&preds, &gts, test.num_classes, 0.5))
}

/// Masked-token pretraining of a [`TinyTransformer`]. It has no metric of
/// its own: the run reports its last epoch's mean training loss.
struct PretrainObjective<'a> {
    tf: TinyTransformer,
    corpus: &'a LmCorpus,
}

impl Objective for PretrainObjective<'_> {
    fn run(&self) -> String {
        "pretrain".to_owned()
    }

    fn params(&self) -> Vec<Param> {
        self.tf.params()
    }

    fn train_len(&self) -> usize {
        self.corpus.n
    }

    fn shuffle_rng(&self, seed: u64) -> Prng {
        Prng::new(seed ^ 0x93A5)
    }

    fn loss(&self, g: &mut Graph, rows: &[usize], _rng: &mut Prng) -> Result<NodeId, TensorError> {
        let t_len = self.corpus.seq_len;
        let mut inputs = Vec::with_capacity(rows.len() * t_len);
        let mut targets = Vec::with_capacity(rows.len() * t_len);
        for &i in rows {
            inputs.extend_from_slice(&self.corpus.inputs[i * t_len..(i + 1) * t_len]);
            targets.extend_from_slice(&self.corpus.targets[i * t_len..(i + 1) * t_len]);
        }
        let logits = self.tf.lm_logits(g, &inputs, rows.len())?;
        g.cross_entropy(logits, &targets)
    }
}

/// Pre-trains a [`TinyTransformer`] on a masked-token corpus — the shared
/// "BERT checkpoint" that every GLUE cell fine-tunes from. The recipe is
/// fixed: AdamW at a constant LR with gradients clipped to norm 1.0, so
/// `cfg.optimizer`, `cfg.schedule` and `cfg.grad_clip` are overridden.
/// The model is seeded from `cfg.seed`, the loop's shuffling from
/// `cfg.seed ^ 0x93A5`.
///
/// # Errors
///
/// Propagates [`TrainError`]s from the trainer.
pub fn pretrain_transformer(
    corpus: &LmCorpus,
    model: TransformerConfig,
    cfg: TrainConfig,
    rec: &mut Recorder,
) -> Result<TinyTransformer, TrainError> {
    let obj = PretrainObjective {
        tf: TinyTransformer::new(model, cfg.seed),
        corpus,
    };
    Trainer::new(TrainConfig {
        optimizer: OptimizerKind::adamw(),
        schedule: ScheduleSpec::None,
        grad_clip: Some(1.0),
        ..cfg
    })
    .train(&obj, rec)?;
    Ok(obj.tf)
}

/// GLUE fine-tuning: the pretrained encoder plus a fresh linear head,
/// scored by test accuracy (%).
struct GlueObjective<'a> {
    tf: TinyTransformer,
    head: Linear,
    task: &'a TextTask,
    /// The loop's stream, positioned after the head's initialisation.
    shuffle: Prng,
}

impl Objective for GlueObjective<'_> {
    fn run(&self) -> String {
        format!("glue:{}", self.task.name)
    }

    fn params(&self) -> Vec<Param> {
        let mut params = self.tf.encoder_params();
        params.extend(self.head.params());
        params
    }

    fn train_len(&self) -> usize {
        self.task.train_len()
    }

    fn shuffle_rng(&self, _seed: u64) -> Prng {
        self.shuffle.clone()
    }

    fn loss(&self, g: &mut Graph, rows: &[usize], _rng: &mut Prng) -> Result<NodeId, TensorError> {
        let t_len = self.task.seq_len;
        let mut tokens = Vec::with_capacity(rows.len() * t_len);
        let mut labels = Vec::with_capacity(rows.len());
        for &i in rows {
            tokens.extend_from_slice(&self.task.train_tokens[i * t_len..(i + 1) * t_len]);
            labels.push(self.task.train_labels[i]);
        }
        let logits = self.tf.classify(g, &tokens, rows.len(), &self.head)?;
        g.cross_entropy(logits, &labels)
    }

    fn validation_loss(&self) -> Result<Option<f64>, TensorError> {
        Ok(Some(
            100.0 - glue_accuracy(&self.tf, &self.head, self.task)?,
        ))
    }

    fn metric(&self) -> Result<Option<f64>, TensorError> {
        glue_accuracy(&self.tf, &self.head, self.task).map(Some)
    }
}

/// Fine-tunes a copy of `pretrained` on one GLUE task and returns the
/// test accuracy (%). One cell of Tables 10–11. The recipe is fixed:
/// AdamW with gradients clipped to norm 1.0, so `cfg.optimizer` and
/// `cfg.grad_clip` are overridden. The task head is initialised from
/// `cfg.seed ^ 0x61E5`, and the loop's shuffling continues that same
/// stream.
///
/// # Errors
///
/// Propagates [`TrainError`]s from the trainer.
pub fn run_glue_cell(
    pretrained: &TinyTransformer,
    task: &TextTask,
    cfg: TrainConfig,
    rec: &mut Recorder,
) -> Result<f64, TrainError> {
    let tf = pretrained.clone_weights(cfg.seed);
    let mut shuffle = Prng::new(cfg.seed ^ 0x61E5);
    let head = Linear::new("task_head", tf.config().dim, task.num_classes, &mut shuffle);
    let obj = GlueObjective {
        tf,
        head,
        task,
        shuffle,
    };
    let mut trainer = Trainer::new(TrainConfig {
        optimizer: OptimizerKind::adamw(),
        grad_clip: Some(1.0),
        ..cfg
    });
    Ok(trainer.train(&obj, rec)?.final_metric)
}

/// Test accuracy (%) of a fine-tuned transformer + head on one task.
///
/// # Errors
///
/// Propagates [`TensorError`]s from the model.
pub fn glue_accuracy(
    tf: &TinyTransformer,
    head: &Linear,
    task: &TextTask,
) -> Result<f64, TensorError> {
    let t_len = task.seq_len;
    let n = task.test_len();
    let mut predictions = Vec::with_capacity(n);
    for chunk_start in (0..n).step_by(32) {
        let chunk_end = (chunk_start + 32).min(n);
        let b = chunk_end - chunk_start;
        let tokens = &task.test_tokens[chunk_start * t_len..chunk_end * t_len];
        let mut g = Graph::new(false);
        let logits = tf.classify(&mut g, tokens, b, head)?;
        predictions.extend(g.value(logits).argmax_rows()?);
    }
    Ok(rex_eval::stats::accuracy(&predictions, &task.test_labels))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rex_data::digits::synth_digits;
    use rex_data::images::synth_cifar10;
    use rex_data::scenes::synth_scenes;
    use rex_data::text::{glue_tasks, lm_corpus};

    #[test]
    fn image_cell_runs_and_returns_error() {
        let data = synth_cifar10(3, 2, 0);
        let err = run_image_cell(
            ImageModel::MicroResNet20,
            &data,
            TrainConfig {
                batch_size: 16,
                lr: 0.05,
                ..TrainConfig::new(1, OptimizerKind::sgdm(), ScheduleSpec::Rex, 1)
            },
            &mut Recorder::disabled(),
        )
        .unwrap();
        assert!((0.0..=100.0).contains(&err));
    }

    #[test]
    fn vae_cell_improves_over_untrained() {
        let train = synth_digits(64, 12, 0);
        let test = synth_digits(32, 12, 1);
        let untrained = {
            let vae = Vae::new(144, 64, 8, 5);
            vae_loss(&vae, &test).unwrap()
        };
        let trained = run_vae_cell(
            &train,
            &test,
            TrainConfig {
                batch_size: 16,
                lr: 1e-3,
                ..TrainConfig::new(4, OptimizerKind::adam(), ScheduleSpec::Rex, 5)
            },
            &mut Recorder::disabled(),
        )
        .unwrap();
        assert!(trained < untrained, "{trained} !< {untrained}");
    }

    #[test]
    fn detection_cell_produces_valid_map() {
        let train = synth_scenes(16, 24, 0);
        let test = synth_scenes(8, 24, 1);
        let map = run_detection_cell(
            &train,
            &test,
            1,
            TrainConfig {
                batch_size: 8,
                lr: 1e-3,
                ..TrainConfig::new(1, OptimizerKind::adam(), ScheduleSpec::Linear, 2)
            },
            &mut Recorder::disabled(),
        )
        .unwrap();
        assert!((0.0..=100.0).contains(&map));
    }

    #[test]
    fn glue_cell_beats_chance_after_finetune() {
        let cfg = TransformerConfig {
            vocab: 32,
            dim: 16,
            heads: 2,
            depth: 1,
            seq_len: 12,
            ff_mult: 2,
        };
        let corpus = lm_corpus(64, 12, 32, 0);
        let tf = pretrain_transformer(
            &corpus,
            cfg,
            TrainConfig {
                batch_size: 16,
                lr: 1e-3,
                ..TrainConfig::new(2, OptimizerKind::adamw(), ScheduleSpec::None, 3)
            },
            &mut Recorder::disabled(),
        )
        .unwrap();
        let tasks = glue_tasks(128, 64, 12, 32, 4);
        let sst2 = tasks.iter().find(|t| t.name == "SST-2").unwrap();
        let acc = run_glue_cell(
            &tf,
            sst2,
            TrainConfig {
                batch_size: 8,
                lr: 3e-3,
                ..TrainConfig::new(3, OptimizerKind::adamw(), ScheduleSpec::Linear, 5)
            },
            &mut Recorder::disabled(),
        )
        .unwrap();
        assert!(acc > 55.0, "accuracy {acc} not above chance");
    }
}
