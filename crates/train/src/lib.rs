//! # rex-train — the budgeted-training harness
//!
//! Ties the whole stack together: datasets from [`rex_data`], models from
//! [`rex_nn`], optimizers from [`rex_optim`], and schedules from
//! [`rex_core`] meet in a training loop that implements the paper's
//! budgeted protocol:
//!
//! * a [`Budget`] is a percentage of a setting's maximum epochs (rounded
//!   up, as the paper's YOLO setting specifies);
//! * the schedule sees only the *budgeted* horizon — a 1 % run decays to
//!   ~0 within its 1 %;
//! * the LR (and momentum, for OneCycle) is updated **every iteration**
//!   from the schedule;
//! * decay-on-plateau receives per-epoch validation losses;
//! * results are averaged over independent trials
//!   ([`trial::run_trials`]), each with its own seed.
//!
//! There is one training loop, [`Trainer::train`]. What it trains is an
//! [`Objective`]: parameters, buffers, the training-set size, the loss of
//! a mini-batch of training rows, and, where it has them, a validation
//! loss and a final metric.
//! [`Classifier`] covers the image and digits settings; the VAE,
//! detection, GLUE fine-tuning and masked-LM pretraining objectives live
//! beside their cell runners in [`tasks`], one public entry point per
//! setting, each taking a [`TrainConfig`] and a `Recorder`. Every setting
//! therefore gets the same trace, spans, mixed precision, numeric guards,
//! and checkpoint/resume.

#![warn(missing_docs)]

mod budget;
mod error;
pub mod lineage;
mod objective;
pub mod range_test;
pub mod settings;
pub mod snapshot;
pub mod tasks;
mod trainer;
pub mod trial;

pub use budget::Budget;
pub use error::TrainError;
pub use lineage::{Lineage, LoadReport};
pub use objective::{classification_loss, evaluate_classifier, Classifier, Objective};
pub use snapshot::TrainState;
pub use trainer::{
    EpochStats, FtConfig, GuardPolicy, OptimizerKind, TrainConfig, TrainResult, Trainer,
};
pub use trial::EarlyStopping;
