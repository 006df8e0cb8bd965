use crate::error::TrainError;
use crate::lineage::Lineage;
use crate::objective::Objective;
use crate::snapshot::TrainState;
use rex_autograd::{Graph, Param};
use rex_core::{Schedule, ScheduleSpec};
use rex_nn::checkpoint;
use rex_optim::{clip_grad_norm, global_grad_norm, global_param_norm, Adam, Optimizer, Sgd};
use rex_telemetry::span::span;
use rex_telemetry::{Event, Recorder, StepRecord};
use rex_tensor::{DType, Prng};
use std::path::PathBuf;
use std::time::Instant;

/// Which optimizer family to instantiate (the paper pairs every schedule
/// with both SGDM and Adam; the BERT setting uses AdamW).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OptimizerKind {
    /// SGD with momentum (default β = 0.9).
    Sgdm {
        /// Momentum coefficient.
        momentum: f32,
        /// L2 weight decay.
        weight_decay: f32,
    },
    /// Adam with optional coupled L2 decay.
    Adam {
        /// L2 weight decay (coupled).
        weight_decay: f32,
    },
    /// AdamW (decoupled decay).
    AdamW {
        /// Decoupled weight decay.
        weight_decay: f32,
    },
}

impl OptimizerKind {
    /// The paper's standard SGDM (β = 0.9, light decay).
    pub fn sgdm() -> Self {
        OptimizerKind::Sgdm {
            momentum: 0.9,
            weight_decay: 5e-4,
        }
    }

    /// The paper's standard Adam.
    pub fn adam() -> Self {
        OptimizerKind::Adam { weight_decay: 0.0 }
    }

    /// AdamW as used for BERT fine-tuning.
    pub fn adamw() -> Self {
        OptimizerKind::AdamW { weight_decay: 0.01 }
    }

    /// Display name matching the paper's table headers.
    pub fn name(&self) -> &'static str {
        match self {
            OptimizerKind::Sgdm { .. } => "SGDM",
            OptimizerKind::Adam { .. } => "Adam",
            OptimizerKind::AdamW { .. } => "AdamW",
        }
    }

    /// Instantiates the optimizer over `params` at the given initial LR.
    pub fn build(&self, params: Vec<Param>, lr: f32) -> Box<dyn Optimizer> {
        match *self {
            OptimizerKind::Sgdm {
                momentum,
                weight_decay,
            } => Box::new(
                Sgd::new(params, lr)
                    .with_momentum(momentum)
                    .with_weight_decay(weight_decay),
            ),
            OptimizerKind::Adam { weight_decay } => {
                let mut a = Adam::new(params, lr);
                if weight_decay > 0.0 {
                    a = a.with_weight_decay(weight_decay);
                }
                Box::new(a)
            }
            OptimizerKind::AdamW { weight_decay } => {
                Box::new(Adam::adamw(params, lr, weight_decay))
            }
        }
    }

    /// A sensible tuned default initial LR for this optimizer family on the
    /// micro-models (the starting point for ×3 tuning). These sit at the
    /// top of the stable range — the operating point per-schedule tuning
    /// selects in the paper, where decaying schedules can exploit a large
    /// initial step.
    pub fn default_lr(&self) -> f32 {
        match self {
            OptimizerKind::Sgdm { .. } => 0.1,
            OptimizerKind::Adam { .. } => 1e-2,
            OptimizerKind::AdamW { .. } => 3e-3,
        }
    }
}

/// What the trainer does when a numeric guard observes a non-finite loss
/// or gradient norm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GuardPolicy {
    /// Guards disabled (no extra norm computation when untraced).
    #[default]
    Off,
    /// Return [`TrainError::NonFinite`] naming the step and the offending
    /// tensor.
    Abort,
    /// Drop the step — no optimizer update, no loss accumulation — but
    /// advance the budget clock by the batch's samples and move on.
    SkipStep,
    /// Restore the last checkpoint (model, optimizer, RNG, progress) and
    /// re-run from there; a second trip at the same step aborts.
    Rollback,
}

impl GuardPolicy {
    /// Short action label used in telemetry and CLI flags.
    pub fn name(&self) -> &'static str {
        match self {
            GuardPolicy::Off => "off",
            GuardPolicy::Abort => "abort",
            GuardPolicy::SkipStep => "skip",
            GuardPolicy::Rollback => "rollback",
        }
    }

    /// Parses a CLI spelling (`off`, `abort`, `skip`, `rollback`).
    ///
    /// # Errors
    ///
    /// Returns a descriptive message for unknown spellings.
    pub fn parse(s: &str) -> Result<GuardPolicy, String> {
        match s {
            "off" => Ok(GuardPolicy::Off),
            "abort" => Ok(GuardPolicy::Abort),
            "skip" => Ok(GuardPolicy::SkipStep),
            "rollback" => Ok(GuardPolicy::Rollback),
            other => Err(format!(
                "unknown guard policy {other:?} (expected off|abort|skip|rollback)"
            )),
        }
    }
}

/// Fault-tolerance knobs: checkpointing, resume, numeric guards, and
/// deliberate halts. The default is everything off — zero overhead.
#[derive(Debug, Clone, Default)]
pub struct FtConfig {
    /// Write a [`TrainState`] snapshot every N optimizer steps.
    pub checkpoint_every: Option<u64>,
    /// Where snapshots are written (required with `checkpoint_every`).
    pub checkpoint_path: Option<PathBuf>,
    /// Resume from this snapshot instead of starting fresh.
    pub resume_from: Option<PathBuf>,
    /// Numeric-guard policy for non-finite losses/gradients.
    pub guard: GuardPolicy,
    /// Stop cleanly with [`TrainError::Halted`] after this step completes
    /// (its checkpoint included) — deterministic in-process "kill".
    pub halt_after_step: Option<u64>,
    /// Cooperative cancellation: checked once per optimizer step (after
    /// the step's checkpoint, like `halt_after_step`); when another
    /// thread sets it, the run stops with [`TrainError::Halted`]. The
    /// snapshot on disk (if checkpointing is on) resumes the run.
    pub stop_flag: Option<std::sync::Arc<std::sync::atomic::AtomicBool>>,
    /// Retain this many snapshot generations instead of one file: with
    /// this set, `checkpoint_path` names a *directory* and every
    /// checkpoint writes a fresh `state.NNNNN.rexstate` generation
    /// through [`Lineage`] (rotating out the oldest). Resume from the
    /// directory falls back over damaged generations. Requires
    /// `checkpoint_every`; minimum 1.
    pub keep_checkpoints: Option<usize>,
    /// Also snapshot when the run halts (via `halt_after_step` or the
    /// stop flag) at a step that is not a checkpoint multiple. The
    /// halt-time snapshot emits *no* trace event — the trace stays
    /// byte-identical to an uninterrupted run's — it only moves the
    /// resume point forward so a drain loses no completed steps.
    pub checkpoint_on_halt: bool,
    /// Liveness heartbeat: when set, the last completed optimizer step is
    /// stored here every step. A supervisor can watch it to detect a run
    /// that stopped making progress (hung I/O, live-locked backend).
    pub heartbeat: Option<std::sync::Arc<std::sync::atomic::AtomicU64>>,
}

impl FtConfig {
    /// Whether the cooperative stop flag is set.
    fn stop_requested(&self) -> bool {
        self.stop_flag
            .as_ref()
            .is_some_and(|f| f.load(std::sync::atomic::Ordering::Acquire))
    }
}

/// Configuration of one training run.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Number of (budgeted) epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Initial learning rate η₀.
    pub lr: f32,
    /// Optimizer family.
    pub optimizer: OptimizerKind,
    /// Schedule specification (built fresh inside the run).
    pub schedule: ScheduleSpec,
    /// Random horizontal flip augmentation (image classification only).
    pub augment: bool,
    /// Gradient clipping threshold (global L2 norm), if any.
    pub grad_clip: Option<f32>,
    /// RNG seed for shuffling/augmentation.
    pub seed: u64,
    /// Parameter storage precision. `F32` is the legacy bit-exact path;
    /// `F16`/`Bf16` keep all arithmetic in f32 (master weights) but round
    /// stored parameters, optimizer state, and buffers to the narrow
    /// dtype after every step, halving checkpoint tensor sections.
    pub dtype: DType,
    /// Fault-tolerance settings (checkpoint/resume/guards); default off.
    pub ft: FtConfig,
}

impl TrainConfig {
    /// A classification config with common defaults.
    pub fn new(epochs: usize, optimizer: OptimizerKind, schedule: ScheduleSpec, seed: u64) -> Self {
        TrainConfig {
            epochs,
            batch_size: 32,
            lr: optimizer.default_lr(),
            optimizer,
            schedule,
            augment: true,
            grad_clip: None,
            seed,
            dtype: DType::F32,
            ft: FtConfig::default(),
        }
    }
}

/// Per-epoch diagnostics collected during a run.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochStats {
    /// Mean training loss over the epoch.
    pub train_loss: f64,
    /// Validation loss, when computed (plateau schedules).
    pub val_loss: Option<f64>,
    /// Learning rate at the epoch's last iteration.
    pub lr: f32,
}

/// Result of a training run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainResult {
    /// Final evaluation metric (test error %, loss, …; task-defined).
    pub final_metric: f64,
    /// Per-epoch history.
    pub history: Vec<EpochStats>,
}

/// The generic budget-aware training loop.
///
/// `Trainer` is deliberately model-agnostic: an [`Objective`] supplies
/// the parameters, the per-batch loss, the per-epoch validation loss, and
/// the final metric. The schedule is stepped **per iteration** against
/// the budgeted total sample count, exactly as the paper prescribes.
pub struct Trainer {
    config: TrainConfig,
    schedule: Box<dyn Schedule>,
}

impl std::fmt::Debug for Trainer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Trainer({:?}, schedule {})",
            self.config,
            self.schedule.name()
        )
    }
}

impl Trainer {
    /// Builds a trainer, instantiating a fresh schedule from the config.
    pub fn new(config: TrainConfig) -> Self {
        let schedule = config.schedule.build();
        Trainer { config, schedule }
    }

    /// The run configuration.
    pub fn config(&self) -> &TrainConfig {
        &self.config
    }

    /// Runs the budgeted loop on `obj` and returns its final metric and
    /// per-epoch history. This is the only optimizer-step loop in the
    /// crate: every setting's cell runner drives its objective through it.
    ///
    /// Each epoch shuffles the training rows with the loop's stream
    /// ([`Objective::shuffle_rng`]) and trains on them in chunks of
    /// `batch_size`. The LR (and momentum) is sampled from the schedule
    /// before every step against the budgeted sample horizon; plateau
    /// schedules get [`Objective::validation_loss`], when the objective
    /// gives one, after every epoch.
    ///
    /// Telemetry goes to `rec`: run/epoch boundaries, one [`StepRecord`]
    /// per optimizer step (applied LR, batch loss, pre-clip gradient
    /// norm, post-step parameter norm), validation passes, and the final
    /// metric. With a disabled recorder norms are not even computed
    /// (unless a numeric guard or clipping needs them).
    ///
    /// With `cfg.ft.checkpoint_every` set, a full [`TrainState`] is
    /// written crash-consistently every N steps; `cfg.ft.resume_from`
    /// restores one and continues bit-for-bit — the finished trace is
    /// byte-identical to an uninterrupted run's.
    ///
    /// # Errors
    ///
    /// Propagates [`TensorError`](rex_tensor::TensorError)s from the objective (as
    /// [`TrainError::Tensor`]), checkpoint/resume failures, guard aborts,
    /// and the deliberate [`TrainError::Halted`].
    pub fn train(
        &mut self,
        obj: &dyn Objective,
        rec: &mut Recorder,
    ) -> Result<TrainResult, TrainError> {
        let cfg = self.config.clone();
        let ft = cfg.ft.clone();
        self.validate_ft(&ft)?;
        if !cfg.dtype.trainable() {
            return Err(TrainError::Config(format!(
                "{} is not a trainable dtype (expected f32 | f16 | bf16)",
                cfg.dtype
            )));
        }
        if cfg.dtype == DType::F16 && !matches!(cfg.optimizer, OptimizerKind::Sgdm { .. }) {
            // (1-β2)·g² rounds to zero in f16 storage, so the next update
            // divides by ε and the run goes NaN within a couple of steps
            return Err(TrainError::Config(format!(
                "dtype f16 with optimizer {}: its second-moment state underflows \
                 in f16 storage and the run diverges; use dtype bf16 or optimizer SGDM",
                cfg.optimizer.name()
            )));
        }
        let mut opt = cfg.optimizer.build(obj.params(), cfg.lr);
        opt.set_param_dtype(cfg.dtype);
        if cfg.dtype != DType::F32 {
            // project the fresh initialisation onto the storage grid; from
            // here the optimizer's per-step rounding keeps params there
            for p in opt.params() {
                cfg.dtype.round_slice(p.value_mut().data_mut());
            }
            round_buffers(cfg.dtype, obj);
        }
        let traced = rec.is_enabled();
        opt.set_instrumented(traced);
        let guard_on = ft.guard != GuardPolicy::Off;
        // Budget accounting is sample-exact: schedule progress advances by
        // the number of samples actually consumed, so a partial final
        // mini-batch moves the clock by its true size rather than a full
        // step. (When the dataset size divides the batch size the
        // progress fractions — and therefore the LR trajectory — are
        // identical to per-step accounting.)
        let n = obj.train_len();
        let total_samples = n as u64 * cfg.epochs as u64;
        let needs_val = cfg.schedule.needs_validation_feedback();

        let mut rng = obj.shuffle_rng(cfg.seed);
        let mut st = LoopSt::fresh(cfg.lr, cfg.epochs);
        if let Some(resume_path) = &ft.resume_from {
            // a directory is a checkpoint lineage: resolve the newest
            // generation that validates, falling back over damaged ones
            let state = if resume_path.is_dir() {
                Lineage::resolve(resume_path).map(|(state, _, _)| state)
            } else {
                TrainState::load(resume_path)
            }
            .map_err(|source| TrainError::Checkpoint {
                action: "load",
                path: resume_path.clone(),
                source,
            })?;
            self.check_resume(&state, &cfg, &obj.run(), total_samples)?;
            restore_from(&state, obj, opt.as_mut(), &mut rng, &mut st, rec)?;
            rec.emit(Event::Resume { step: st.step });
        } else {
            rec.emit(Event::RunStart {
                run: obj.run(),
                schedule: self.schedule.name().to_owned(),
                optimizer: cfg.optimizer.name().to_owned(),
                seed: cfg.seed,
                total_samples,
            });
        }

        // rollback target: the last checkpoint, kept in memory alongside
        // the on-disk file so restoring needs no I/O
        let mut mem_snap: Option<TrainState> = None;
        let mut rolled_back_at: Option<u64> = None;
        let mut last_ckpt_step: Option<u64> = None;

        // profiling spans never touch the Recorder, so the deterministic
        // trace stays byte-identical with profiling on; the span *tree*
        // (names and nesting) is itself a pure function of the config
        let _job_span = span("job");
        'run: while (st.epoch as usize) < cfg.epochs {
            let _epoch_span = span("epoch");
            let order = if st.mid_epoch {
                st.mid_epoch = false;
                // Rebuild the in-flight epoch's batch order by replaying
                // the saved pre-shuffle RNG state; the live stream `rng`
                // already sits past the shuffle (and every completed
                // batch's augmentation), exactly where the uninterrupted
                // run was. The Epoch event is in the trace prefix — not
                // re-emitted.
                Prng::from_state(st.rng_epoch_start).permutation(n)
            } else {
                st.rng_epoch_start = rng.state();
                st.batch_in_epoch = 0;
                st.epoch_loss = 0.0;
                st.epoch_batches = 0;
                let order = rng.permutation(n);
                rec.emit(Event::Epoch {
                    epoch: st.epoch,
                    samples: n as u64,
                    batches: n.div_ceil(cfg.batch_size) as u64,
                    shuffled: true,
                });
                order
            };
            let batch_rows: Vec<&[usize]> = order.chunks(cfg.batch_size).collect();
            while (st.batch_in_epoch as usize) < batch_rows.len() {
                let _step_span = span("step");
                let rows = batch_rows[st.batch_in_epoch as usize];
                let step_start = traced.then(Instant::now);
                let factor = self.schedule.factor(st.samples_done, total_samples) as f32;
                st.last_lr = cfg.lr * factor;
                opt.set_lr(st.last_lr);
                if let Some(m) = self.schedule.momentum(st.samples_done, total_samples) {
                    opt.set_momentum(m as f32);
                }
                opt.zero_grad();
                let fwd_span = span("forward");
                let mut g = Graph::new(true);
                let loss = obj.loss(&mut g, rows, &mut rng)?;
                let mut batch_loss = g.value(loss).item() as f64;
                drop(fwd_span);
                if rex_faults::poison_loss(st.step) {
                    batch_loss = f64::NAN;
                }
                // a non-finite loss trips the guard before backward; a
                // non-finite gradient trips it before the update
                let mut grad_norm = 0.0;
                let mut opt_span = None;
                let tripped = 'check: {
                    if guard_on && !batch_loss.is_finite() {
                        break 'check Some(("loss".to_owned(), batch_loss));
                    }
                    let bwd_span = span("backward");
                    g.backward(loss)?;
                    drop(bwd_span);
                    if let Some(seed_idx) = rex_faults::poison_grad(st.step) {
                        let params = opt.params();
                        if !params.is_empty() {
                            params[seed_idx % params.len()].grad_mut().data_mut()[0] = f32::NAN;
                        }
                    }
                    opt_span = Some(span("optimizer"));
                    grad_norm = if let Some(max_norm) = cfg.grad_clip {
                        clip_grad_norm(opt.params(), max_norm)
                    } else if traced || guard_on {
                        global_grad_norm(opt.params())
                    } else {
                        0.0
                    };
                    (guard_on && !grad_norm.is_finite())
                        .then(|| (offending_grad(opt.params()), grad_norm as f64))
                };
                if let Some((what, value)) = tripped {
                    rec.emit(Event::GuardTrip {
                        step: st.step,
                        what: what.clone(),
                        value,
                        action: ft.guard.name().to_owned(),
                    });
                    match (ft.guard, &mem_snap) {
                        (GuardPolicy::SkipStep, _) => {
                            // the step is dropped but its samples still
                            // count toward the budget clock — the schedule
                            // keeps decaying on real time, and a repeatable
                            // injection does not loop forever
                            st.samples_done += rows.len() as u64;
                            st.batch_in_epoch += 1;
                            st.step += 1;
                            continue;
                        }
                        (GuardPolicy::Rollback, Some(snap)) if rolled_back_at != Some(st.step) => {
                            rolled_back_at = Some(st.step);
                            restore_from(snap, obj, opt.as_mut(), &mut rng, &mut st, rec)?;
                            continue 'run;
                        }
                        (GuardPolicy::Rollback, None) => {
                            rec.flush();
                            return Err(TrainError::Resume(
                                "rollback requested before any checkpoint was taken".to_owned(),
                            ));
                        }
                        (policy, _) => {
                            rec.flush();
                            let what = if policy == GuardPolicy::Rollback {
                                format!("{what} (again after rollback)")
                            } else {
                                what
                            };
                            return Err(TrainError::NonFinite {
                                step: st.step,
                                what,
                                value,
                            });
                        }
                    }
                }
                st.epoch_loss += batch_loss;
                st.epoch_batches += 1;
                opt.step();
                if cfg.dtype != DType::F32 {
                    // batch-norm running stats were updated by the forward
                    // pass in full precision; round them like the params so
                    // a checkpoint serializes them losslessly
                    round_buffers(cfg.dtype, obj);
                }
                drop(opt_span);
                st.samples_done += rows.len() as u64;
                if traced {
                    rec.emit(Event::Step(StepRecord {
                        step: st.step,
                        epoch: st.epoch,
                        batch_id: st.batch_in_epoch,
                        lr: st.last_lr as f64,
                        loss: batch_loss,
                        grad_norm: grad_norm as f64,
                        param_norm: global_param_norm(opt.params()) as f64,
                        elapsed_ns: step_start
                            .map(|s| s.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64)
                            .unwrap_or(0),
                    }));
                }
                st.batch_in_epoch += 1;
                st.step += 1;
                if let Some(hb) = &ft.heartbeat {
                    hb.store(st.step, std::sync::atomic::Ordering::Release);
                }

                if let Some(every) = ft.checkpoint_every {
                    if st.step.is_multiple_of(every) {
                        let _ckpt_span = span("checkpoint");
                        // cursor ordering: the checkpoint line joins the
                        // deterministic stream first, then the flush makes
                        // the whole prefix durable, then the snapshot
                        // records the cursor — a resume truncates the
                        // trace to exactly this prefix
                        rec.emit(Event::Checkpoint { step: st.step });
                        let state =
                            self.snapshot(obj, &st, &rng, opt.as_ref(), rec, total_samples)?;
                        last_ckpt_step = Some(st.step);
                        if ft.guard == GuardPolicy::Rollback {
                            mem_snap = Some(state);
                        }
                    }
                }
                rex_faults::crash_point(st.step);
                if ft.halt_after_step == Some(st.step) || ft.stop_requested() {
                    if ft.checkpoint_on_halt
                        && ft.checkpoint_every.is_some()
                        && last_ckpt_step != Some(st.step)
                    {
                        // snapshot at the halt boundary with *no* trace
                        // event: the cursor covers exactly the flushed
                        // deterministic prefix, so the resumed trace is
                        // still byte-identical to an uninterrupted run's
                        self.snapshot(obj, &st, &rng, opt.as_ref(), rec, total_samples)?;
                    }
                    rec.flush();
                    return Err(TrainError::Halted { step: st.step });
                }
            }
            let val_loss = if needs_val {
                let _val_span = span("validation");
                obj.validation_loss()?
            } else {
                None
            };
            if let Some(vl) = val_loss {
                self.schedule.on_validation(vl);
                if traced {
                    rec.emit(Event::Validation {
                        epoch: st.epoch,
                        loss: vl,
                    });
                }
            }
            let mean_loss = st.epoch_loss / st.epoch_batches.max(1) as f64;
            if traced {
                rec.emit(Event::EpochEnd {
                    epoch: st.epoch,
                    mean_loss,
                    lr: st.last_lr as f64,
                });
            }
            st.history.push(EpochStats {
                train_loss: mean_loss,
                val_loss,
                lr: st.last_lr,
            });
            st.epoch += 1;
        }

        let final_metric = obj
            .metric()?
            .unwrap_or_else(|| st.history.last().map_or(f64::NAN, |epoch| epoch.train_loss));
        rec.emit(Event::RunEnd {
            metric: final_metric,
        });
        rec.flush();
        Ok(TrainResult {
            final_metric,
            history: st.history,
        })
    }

    fn validate_ft(&self, ft: &FtConfig) -> Result<(), TrainError> {
        if ft.checkpoint_every == Some(0) {
            return Err(TrainError::Config(
                "checkpoint interval must be at least 1 step".to_owned(),
            ));
        }
        if ft.checkpoint_every.is_some() && ft.checkpoint_path.is_none() {
            return Err(TrainError::Config(
                "checkpoint_every is set but checkpoint_path is not".to_owned(),
            ));
        }
        if ft.keep_checkpoints == Some(0) {
            return Err(TrainError::Config(
                "keep_checkpoints must be at least 1 generation".to_owned(),
            ));
        }
        if ft.keep_checkpoints.is_some() && ft.checkpoint_every.is_none() {
            return Err(TrainError::Config(
                "keep_checkpoints is set but checkpoint_every is not".to_owned(),
            ));
        }
        if (ft.checkpoint_every.is_some() || ft.resume_from.is_some()) && self.schedule.stateful() {
            return Err(TrainError::Config(format!(
                "schedule {:?} reacts to validation feedback, which a snapshot cannot \
                 capture; checkpoint/resume is unavailable for it",
                self.schedule.name()
            )));
        }
        if ft.guard == GuardPolicy::Rollback && ft.checkpoint_every.is_none() {
            return Err(TrainError::Config(
                "guard policy rollback requires checkpoint_every".to_owned(),
            ));
        }
        Ok(())
    }

    fn check_resume(
        &self,
        state: &TrainState,
        cfg: &TrainConfig,
        run: &str,
        total_samples: u64,
    ) -> Result<(), TrainError> {
        let fields = [
            ("run kind", run.to_owned(), state.run.clone()),
            ("schedule", self.schedule.name(), state.schedule.clone()),
            (
                "optimizer",
                cfg.optimizer.name().to_owned(),
                state.optimizer.clone(),
            ),
            ("seed", cfg.seed.to_string(), state.seed.to_string()),
            (
                "batch size",
                cfg.batch_size.to_string(),
                state.batch_size.to_string(),
            ),
            ("epochs", cfg.epochs.to_string(), state.epochs.to_string()),
            // shortest round-trip formatting: equal strings, equal bits
            ("initial lr", cfg.lr.to_string(), state.lr.to_string()),
            ("dtype", cfg.dtype.to_string(), state.dtype.to_string()),
            (
                "dataset size (total samples)",
                total_samples.to_string(),
                state.total_samples.to_string(),
            ),
        ];
        match fields.into_iter().find(|(_, run, ckpt)| run != ckpt) {
            Some((field, run, ckpt)) => Err(TrainError::Resume(format!(
                "{field} mismatch: run has {run}, checkpoint has {ckpt}"
            ))),
            None => Ok(()),
        }
    }

    /// Flushes the trace, photographs the live training objects into a
    /// [`TrainState`] whose cursor covers the flushed prefix, and writes
    /// it to disk. Returns the snapshot (the in-memory rollback target).
    fn snapshot(
        &self,
        obj: &dyn Objective,
        st: &LoopSt,
        rng: &Prng,
        opt: &dyn Optimizer,
        rec: &mut Recorder,
        total_samples: u64,
    ) -> Result<TrainState, TrainError> {
        rec.flush();
        let cfg = &self.config;
        let state = TrainState {
            run: obj.run(),
            schedule: self.schedule.name(),
            optimizer: cfg.optimizer.name().to_owned(),
            seed: cfg.seed,
            total_samples,
            batch_size: cfg.batch_size as u64,
            epochs: cfg.epochs as u64,
            lr: cfg.lr,
            dtype: cfg.dtype,
            backend: rex_tensor::backend::kind().to_string(),
            simd_level: rex_tensor::backend::active().simd_level().to_owned(),
            epoch: st.epoch,
            batch_in_epoch: st.batch_in_epoch,
            step: st.step,
            samples_done: st.samples_done,
            epoch_loss: st.epoch_loss,
            epoch_batches: st.epoch_batches,
            last_lr: st.last_lr,
            history: st.history.clone(),
            rng: rng.state(),
            rng_epoch_start: st.rng_epoch_start,
            sampler: obj.sampler().map(|s| s.borrow().state()),
            trace_events: rec.lines_emitted(),
            model: obj
                .params()
                .iter()
                .map(|p| (p.name(), p.value().clone()))
                .collect(),
            buffers: obj
                .buffers()
                .iter()
                .map(|(name, cell)| (name.clone(), cell.borrow().clone()))
                .collect(),
            optim: opt.export_state(),
        };
        write_snapshot(&cfg.ft, &state)?;
        Ok(state)
    }
}

/// Mutable position of the training loop — everything a snapshot captures
/// besides the model/optimizer tensors.
struct LoopSt {
    epoch: u64,
    batch_in_epoch: u64,
    step: u64,
    samples_done: u64,
    epoch_loss: f64,
    epoch_batches: u64,
    last_lr: f32,
    history: Vec<EpochStats>,
    /// RNG state immediately before the current epoch's shuffle.
    rng_epoch_start: [u64; 4],
    /// Entered the epoch loop with restored mid-epoch state: rebuild the
    /// batch order from `rng_epoch_start` instead of shuffling afresh.
    mid_epoch: bool,
}

impl LoopSt {
    fn fresh(lr: f32, epochs: usize) -> Self {
        LoopSt {
            epoch: 0,
            batch_in_epoch: 0,
            step: 0,
            samples_done: 0,
            epoch_loss: 0.0,
            epoch_batches: 0,
            last_lr: lr,
            history: Vec::with_capacity(epochs),
            rng_epoch_start: [0; 4],
            mid_epoch: false,
        }
    }
}

/// Routes a captured snapshot to disk: a rotating [`Lineage`] generation
/// when `keep_checkpoints` is set, the single `checkpoint_path` file
/// otherwise.
fn write_snapshot(ft: &FtConfig, state: &TrainState) -> Result<(), TrainError> {
    let path = ft.checkpoint_path.as_ref().expect("validated upfront");
    let result = match ft.keep_checkpoints {
        Some(keep) => Lineage::new(path, keep).save(state).map(|_| ()),
        None => state.save(path),
    };
    result.map_err(|source| TrainError::Checkpoint {
        action: "save",
        path: path.clone(),
        source,
    })
}

/// Installs a snapshot into the live training objects (model params,
/// optimizer internals, RNG stream, loop position, telemetry cursor).
/// Shared by resume-from-file and in-memory rollback.
fn restore_from(
    state: &TrainState,
    obj: &dyn Objective,
    opt: &mut dyn Optimizer,
    rng: &mut Prng,
    st: &mut LoopSt,
    rec: &mut Recorder,
) -> Result<(), TrainError> {
    checkpoint::restore_params(&state.model, &obj.params()).map_err(TrainError::Resume)?;
    let live = obj.buffers();
    if live.len() != state.buffers.len() {
        return Err(TrainError::Resume(format!(
            "model has {} buffers, checkpoint has {}",
            live.len(),
            state.buffers.len()
        )));
    }
    for (name, cell) in live {
        let saved = state
            .buffers
            .iter()
            .find(|(n, _)| *n == name)
            .ok_or_else(|| TrainError::Resume(format!("checkpoint is missing buffer {name:?}")))?;
        if saved.1.shape() != cell.borrow().shape() {
            return Err(TrainError::Resume(format!(
                "buffer {name:?} has shape {:?}, checkpoint has {:?}",
                cell.borrow().shape(),
                saved.1.shape()
            )));
        }
        *cell.borrow_mut() = saved.1.clone();
    }
    match (obj.sampler(), state.sampler) {
        (Some(live), Some(saved)) => *live.borrow_mut() = Prng::from_state(saved),
        (None, None) => {}
        (live, _) => {
            return Err(TrainError::Resume(format!(
                "sampler stream mismatch: run has {}, checkpoint has {}",
                if live.is_some() { "one" } else { "none" },
                if state.sampler.is_some() {
                    "one"
                } else {
                    "none"
                }
            )))
        }
    }
    opt.import_state(&state.optim).map_err(TrainError::Resume)?;
    *rng = Prng::from_state(state.rng);
    rec.set_lines_emitted(state.trace_events);
    *st = LoopSt {
        epoch: state.epoch,
        batch_in_epoch: state.batch_in_epoch,
        step: state.step,
        samples_done: state.samples_done,
        epoch_loss: state.epoch_loss,
        epoch_batches: state.epoch_batches,
        last_lr: state.last_lr,
        history: state.history.clone(),
        rng_epoch_start: state.rng_epoch_start,
        mid_epoch: true,
    };
    Ok(())
}

/// Rounds non-trainable model state (batch-norm running statistics) to
/// the storage dtype in place. Pure per-element bit functions: identical
/// at every backend and thread count.
fn round_buffers(dtype: DType, obj: &dyn Objective) {
    for (_, cell) in obj.buffers() {
        dtype.round_slice(cell.borrow_mut().data_mut());
    }
}

/// Names the first parameter whose gradient holds a non-finite value.
fn offending_grad(params: &[Param]) -> String {
    for p in params {
        if p.grad().data().iter().any(|v| !v.is_finite()) {
            return format!("grad:{}", p.name());
        }
    }
    "grad".to_owned()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::Classifier;
    use rex_data::images::synth_cifar10;
    use rex_data::ClassificationDataset;
    use rex_nn::{Mlp, Module};
    use rex_tensor::Tensor;

    fn flatten_images(t: &Tensor) -> Tensor {
        let n = t.shape()[0];
        let d: usize = t.shape()[1..].iter().product();
        t.reshape(&[n, d]).unwrap()
    }

    /// Trains `model` as a classifier of `data` (images flattened).
    fn fit(
        trainer: &mut Trainer,
        model: &dyn Module,
        data: &ClassificationDataset,
        rec: &mut Recorder,
    ) -> TrainResult {
        let (train, test) = (
            flatten_images(&data.train_images),
            flatten_images(&data.test_images),
        );
        let obj = Classifier::new(
            model,
            &train,
            &data.train_labels,
            &test,
            &data.test_labels,
            trainer.config(),
        );
        trainer.train(&obj, rec).unwrap()
    }

    #[test]
    fn training_beats_chance_on_synthetic_data() {
        let data = synth_cifar10(8, 4, 0);
        let mut rng = Prng::new(1);
        let model = Mlp::new("m", &[3 * 12 * 12, 32, 10], &mut rng);
        let mut trainer = Trainer::new(TrainConfig {
            epochs: 10,
            batch_size: 16,
            lr: 0.05,
            optimizer: OptimizerKind::sgdm(),
            schedule: ScheduleSpec::Rex,
            augment: false,
            grad_clip: None,
            seed: 2,
            dtype: DType::F32,
            ft: FtConfig::default(),
        });
        let result = fit(&mut trainer, &model, &data, &mut Recorder::disabled());
        // chance is 90% error on 10 classes
        assert!(
            result.final_metric < 85.0,
            "error {} not better than chance",
            result.final_metric
        );
        assert_eq!(result.history.len(), 10);
        // training loss should drop over the run
        assert!(result.history.last().unwrap().train_loss < result.history[0].train_loss);
    }

    #[test]
    fn schedule_decays_lr_within_budget() {
        let data = synth_cifar10(4, 2, 3);
        let mut rng = Prng::new(4);
        let model = Mlp::new("m", &[3 * 12 * 12, 8, 10], &mut rng);
        let mut trainer = Trainer::new(TrainConfig {
            epochs: 4,
            batch_size: 20,
            lr: 0.1,
            optimizer: OptimizerKind::sgdm(),
            schedule: ScheduleSpec::Linear,
            augment: false,
            grad_clip: None,
            seed: 5,
            dtype: DType::F32,
            ft: FtConfig::default(),
        });
        let result = fit(&mut trainer, &model, &data, &mut Recorder::disabled());
        // the last epoch's final LR must be far below the initial LR:
        // the linear schedule decays over the budget, not the max epochs
        let last_lr = result.history.last().unwrap().lr;
        assert!(last_lr < 0.03, "linear schedule did not decay: {last_lr}");
    }

    #[test]
    fn plateau_schedule_triggers_validation_passes() {
        let data = synth_cifar10(4, 2, 6);
        let mut rng = Prng::new(7);
        let model = Mlp::new("m", &[3 * 12 * 12, 8, 10], &mut rng);
        let mut trainer = Trainer::new(TrainConfig {
            epochs: 3,
            batch_size: 20,
            lr: 0.05,
            optimizer: OptimizerKind::adam(),
            schedule: ScheduleSpec::DecayOnPlateau(1),
            augment: false,
            grad_clip: None,
            seed: 8,
            dtype: DType::F32,
            ft: FtConfig::default(),
        });
        let result = fit(&mut trainer, &model, &data, &mut Recorder::disabled());
        assert!(result.history.iter().all(|e| e.val_loss.is_some()));

        // non-plateau schedules skip the validation pass
        let mut trainer2 = Trainer::new(TrainConfig {
            epochs: 1,
            batch_size: 20,
            lr: 0.05,
            optimizer: OptimizerKind::adam(),
            schedule: ScheduleSpec::Cosine,
            augment: false,
            grad_clip: None,
            seed: 8,
            dtype: DType::F32,
            ft: FtConfig::default(),
        });
        let r2 = fit(&mut trainer2, &model, &data, &mut Recorder::disabled());
        assert!(r2.history.iter().all(|e| e.val_loss.is_none()));
    }

    #[test]
    fn deterministic_given_seed() {
        let data = synth_cifar10(4, 2, 9);
        let run = || {
            let mut rng = Prng::new(10);
            let model = Mlp::new("m", &[3 * 12 * 12, 8, 10], &mut rng);
            let mut trainer = Trainer::new(TrainConfig {
                epochs: 2,
                batch_size: 20,
                lr: 0.05,
                optimizer: OptimizerKind::sgdm(),
                schedule: ScheduleSpec::Rex,
                augment: true,
                grad_clip: None,
                seed: 11,
                dtype: DType::F32,
                ft: FtConfig::default(),
            });
            fit(&mut trainer, &model, &data, &mut Recorder::disabled()).final_metric
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn partial_final_batch_advances_budget_by_its_true_size() {
        use rex_telemetry::MemorySink;

        // 10 samples, batch 4 → batches of 4, 4, 2. Sample-exact accounting
        // must place the three steps of a 1-epoch linear run at progress
        // 0/10, 4/10, 8/10 (LR factors 1.0, 0.6, 0.2); the old per-step
        // accounting would have used 0/3, 1/3, 2/3.
        let data = synth_cifar10(1, 1, 12);
        let mut rng = Prng::new(13);
        let model = Mlp::new("m", &[3 * 12 * 12, 8, 10], &mut rng);
        let sink = MemorySink::unbounded();
        let handle = sink.handle();
        let mut rec = Recorder::new(Box::new(sink));
        let mut trainer = Trainer::new(TrainConfig {
            epochs: 1,
            batch_size: 4,
            lr: 0.1,
            optimizer: OptimizerKind::sgdm(),
            schedule: ScheduleSpec::Linear,
            augment: false,
            grad_clip: None,
            seed: 14,
            dtype: DType::F32,
            ft: FtConfig::default(),
        });
        fit(&mut trainer, &model, &data, &mut rec);
        let steps = handle.steps();
        assert_eq!(steps.len(), 3);
        let lrs: Vec<f64> = steps.iter().map(|r| r.lr).collect();
        for (got, want) in lrs.iter().zip([0.1, 0.06, 0.02]) {
            assert!((got - want).abs() < 1e-7, "lrs {lrs:?}");
        }
    }

    #[test]
    fn traced_run_emits_one_step_record_per_optimizer_step() {
        use rex_telemetry::MemorySink;

        let data = synth_cifar10(4, 2, 15);
        let mut rng = Prng::new(16);
        let model = Mlp::new("m", &[3 * 12 * 12, 8, 10], &mut rng);
        let sink = MemorySink::unbounded();
        let handle = sink.handle();
        let mut rec = Recorder::new(Box::new(sink));
        let mut trainer = Trainer::new(TrainConfig {
            epochs: 2,
            batch_size: 16,
            lr: 0.05,
            optimizer: OptimizerKind::adam(),
            schedule: ScheduleSpec::Rex,
            augment: false,
            grad_clip: None,
            seed: 17,
            dtype: DType::F32,
            ft: FtConfig::default(),
        });
        let result = fit(&mut trainer, &model, &data, &mut rec);
        let events = handle.events();
        // 40 samples / batch 16 → 3 batches per epoch × 2 epochs
        let steps = handle.steps();
        assert_eq!(steps.len(), 6);
        for (i, r) in steps.iter().enumerate() {
            assert_eq!(r.step, i as u64);
            assert_eq!(r.epoch, i as u64 / 3);
            assert_eq!(r.batch_id, i as u64 % 3);
            assert!(r.lr > 0.0 && r.lr <= 0.05 + 1e-9);
            assert!(r.loss.is_finite());
            assert!(r.grad_norm > 0.0, "grad_norm not populated: {r:?}");
            assert!(r.param_norm > 0.0, "param_norm not populated: {r:?}");
        }
        // structural events frame the run
        assert_eq!(events.first().unwrap().kind(), "run_start");
        assert_eq!(events.last().unwrap().kind(), "run_end");
        match events.last().unwrap() {
            Event::RunEnd { metric } => assert_eq!(*metric, result.final_metric),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(
            events.iter().filter(|e| e.kind() == "epoch").count(),
            2,
            "one loader epoch event per epoch"
        );

        // tracing must not perturb the trajectory: an untraced same-seed
        // run reaches the identical final metric
        let mut rng2 = Prng::new(16);
        let model2 = Mlp::new("m", &[3 * 12 * 12, 8, 10], &mut rng2);
        let mut trainer2 = Trainer::new(TrainConfig {
            epochs: 2,
            batch_size: 16,
            lr: 0.05,
            optimizer: OptimizerKind::adam(),
            schedule: ScheduleSpec::Rex,
            augment: false,
            grad_clip: None,
            seed: 17,
            dtype: DType::F32,
            ft: FtConfig::default(),
        });
        let r2 = fit(&mut trainer2, &model2, &data, &mut Recorder::disabled());
        assert_eq!(r2.final_metric, result.final_metric);
    }

    #[test]
    fn optimizer_kind_names_and_defaults() {
        assert_eq!(OptimizerKind::sgdm().name(), "SGDM");
        assert_eq!(OptimizerKind::adam().name(), "Adam");
        assert_eq!(OptimizerKind::adamw().name(), "AdamW");
        assert!(OptimizerKind::sgdm().default_lr() > OptimizerKind::adam().default_lr());
    }
}
