//! Full training-state snapshots — the resume half of fault tolerance.
//!
//! A [`TrainState`] captures everything [`Trainer`] needs to continue a
//! run bit-for-bit: model parameters, optimizer state (momentum velocity
//! or Adam moments + step count), sample-exact schedule progress, the
//! trainer RNG stream *and* the pre-shuffle RNG state of the current
//! epoch (so the in-flight epoch's batch order can be rebuilt), the
//! accumulated history, and the telemetry line cursor. Snapshots are
//! serialized into the `REXSTATE1` section container
//! ([`rex_nn::checkpoint::save_state`]) and written crash-consistently
//! via `rex_faults::atomic_write`.
//!
//! [`Trainer`]: crate::Trainer

use crate::trainer::EpochStats;
use rex_nn::checkpoint;
use rex_optim::OptimizerState;
use rex_tensor::{DType, Tensor};
use std::io;
use std::path::Path;

/// A complete, resumable picture of a training run at a step boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainState {
    /// Run label (e.g. `"classifier"`), for compatibility checking.
    pub run: String,
    /// Schedule display name at capture time.
    pub schedule: String,
    /// Optimizer family name (`"SGDM"`, `"Adam"`, `"AdamW"`).
    pub optimizer: String,
    /// RNG seed of the run.
    pub seed: u64,
    /// Budgeted sample horizon the schedule decays over.
    pub total_samples: u64,
    /// Mini-batch size.
    pub batch_size: u64,
    /// Configured epoch count.
    pub epochs: u64,
    /// Initial learning rate η₀ (bit pattern compared on resume).
    pub lr: f32,
    /// Parameter storage precision. Governs the tensor-section codec:
    /// `f32` keeps the legacy byte-identical layout, `f16`/`bf16` store
    /// one `u16` per element. Resume refuses a dtype mismatch — the
    /// stored bits are not losslessly re-interpretable across dtypes.
    pub dtype: DType,
    /// Compute backend that produced the snapshot (`"scalar"`/`"simd"`).
    /// Provenance only: recorded so a resumed-elsewhere divergence can be
    /// diagnosed, never compared on resume.
    pub backend: String,
    /// SIMD dispatch level at capture time (e.g. `"avx2+fma"`,
    /// `"portable"`). Provenance only, like `backend`.
    pub simd_level: String,
    /// Epoch in flight when the snapshot was taken.
    pub epoch: u64,
    /// Batches of the in-flight epoch already consumed.
    pub batch_in_epoch: u64,
    /// Optimizer steps completed.
    pub step: u64,
    /// Samples consumed (the schedule's budget clock).
    pub samples_done: u64,
    /// Loss accumulated over the in-flight epoch so far.
    pub epoch_loss: f64,
    /// Batches accumulated into `epoch_loss`.
    pub epoch_batches: u64,
    /// Learning rate applied at the last completed step.
    pub last_lr: f32,
    /// Per-epoch history of completed epochs.
    pub history: Vec<EpochStats>,
    /// Trainer RNG stream state at capture time (post-shuffle,
    /// post-augmentation of every completed batch).
    pub rng: [u64; 4],
    /// Trainer RNG state immediately *before* the in-flight epoch's
    /// shuffle — replaying it rebuilds the epoch's exact batch order.
    pub rng_epoch_start: [u64; 4],
    /// State of the objective's own random stream (the VAE's
    /// reparameterisation sampler), when it has one. Stored after the two
    /// trainer streams in the `rng` section; absent, the section keeps
    /// its original 64-byte layout.
    pub sampler: Option<[u64; 4]>,
    /// Deterministic telemetry events emitted so far; a resumed run
    /// truncates its JSONL trace to this many lines and appends.
    pub trace_events: u64,
    /// Model parameters by name.
    pub model: Vec<(String, Tensor)>,
    /// Non-trainable model state by name (batch-norm running
    /// statistics): gradient-free, but eval-mode inference depends on it.
    pub buffers: Vec<(String, Tensor)>,
    /// Optimizer internals (velocity / moments / step counter).
    pub optim: OptimizerState,
}

impl TrainState {
    /// Writes the snapshot to `path` crash-consistently (temp file +
    /// fsync + atomic rename; a kill mid-write leaves the previous
    /// snapshot intact).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors (including injected ones).
    pub fn save(&self, path: &Path) -> io::Result<()> {
        let sections = vec![
            ("meta".to_owned(), self.encode_meta()),
            ("loop".to_owned(), self.encode_loop()),
            ("rng".to_owned(), self.encode_rng()),
            ("trace".to_owned(), self.trace_events.to_le_bytes().to_vec()),
            (
                "model".to_owned(),
                checkpoint::encode_entries_dtype(&self.model, self.dtype),
            ),
            (
                "buffers".to_owned(),
                checkpoint::encode_entries_dtype(&self.buffers, self.dtype),
            ),
            ("optim".to_owned(), encode_optim(&self.optim, self.dtype)),
        ];
        checkpoint::save_state(path, &sections)
    }

    /// Reads a snapshot back, verifying the container checksum and every
    /// section's internal structure.
    ///
    /// # Errors
    ///
    /// `InvalidData`/`UnexpectedEof` on corrupt or truncated files;
    /// propagates filesystem errors.
    pub fn load(path: &Path) -> io::Result<TrainState> {
        let sections = checkpoint::load_state(path)?;
        let get = |name: &str| -> io::Result<&[u8]> {
            sections
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, b)| b.as_slice())
                .ok_or_else(|| {
                    io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("state snapshot missing section {name:?}"),
                    )
                })
        };

        let mut state = TrainState {
            run: String::new(),
            schedule: String::new(),
            optimizer: String::new(),
            seed: 0,
            total_samples: 0,
            batch_size: 0,
            epochs: 0,
            lr: 0.0,
            dtype: DType::F32,
            backend: String::new(),
            simd_level: String::new(),
            epoch: 0,
            batch_in_epoch: 0,
            step: 0,
            samples_done: 0,
            epoch_loss: 0.0,
            epoch_batches: 0,
            last_lr: 0.0,
            history: Vec::new(),
            rng: [0; 4],
            rng_epoch_start: [0; 4],
            sampler: None,
            trace_events: 0,
            model: Vec::new(),
            buffers: Vec::new(),
            optim: OptimizerState {
                kind: String::new(),
                scalars: Vec::new(),
                tensors: Vec::new(),
            },
        };
        state.decode_meta(get("meta")?)?;
        state.decode_loop(get("loop")?)?;
        state.decode_rng(get("rng")?)?;
        {
            let mut r = Reader::new(get("trace")?);
            state.trace_events = r.u64()?;
            r.done()?;
        }
        state.model = checkpoint::decode_entries_dtype(get("model")?, state.dtype)?;
        state.buffers = checkpoint::decode_entries_dtype(get("buffers")?, state.dtype)?;
        state.optim = decode_optim(get("optim")?, state.dtype)?;
        Ok(state)
    }

    /// Reads only the telemetry line cursor from a snapshot — what a
    /// resuming caller needs to truncate the trace file *before*
    /// constructing the sink.
    ///
    /// # Errors
    ///
    /// Same conditions as [`TrainState::load`].
    pub fn trace_cursor(path: &Path) -> io::Result<u64> {
        let sections = checkpoint::load_state(path)?;
        let bytes = sections
            .iter()
            .find(|(n, _)| n == "trace")
            .map(|(_, b)| b.as_slice())
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    "state snapshot missing section \"trace\"",
                )
            })?;
        let mut r = Reader::new(bytes);
        let cursor = r.u64()?;
        r.done()?;
        Ok(cursor)
    }

    fn encode_meta(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        put_str(&mut buf, &self.run);
        put_str(&mut buf, &self.schedule);
        put_str(&mut buf, &self.optimizer);
        buf.extend_from_slice(&self.seed.to_le_bytes());
        buf.extend_from_slice(&self.total_samples.to_le_bytes());
        buf.extend_from_slice(&self.batch_size.to_le_bytes());
        buf.extend_from_slice(&self.epochs.to_le_bytes());
        buf.extend_from_slice(&self.lr.to_bits().to_le_bytes());
        put_str(&mut buf, self.dtype.name());
        put_str(&mut buf, &self.backend);
        put_str(&mut buf, &self.simd_level);
        buf
    }

    fn decode_meta(&mut self, bytes: &[u8]) -> io::Result<()> {
        let mut r = Reader::new(bytes);
        self.run = r.string()?;
        self.schedule = r.string()?;
        self.optimizer = r.string()?;
        self.seed = r.u64()?;
        self.total_samples = r.u64()?;
        self.batch_size = r.u64()?;
        self.epochs = r.u64()?;
        self.lr = f32::from_bits(r.u32()?);
        let dtype_name = r.string()?;
        self.dtype = DType::parse(&dtype_name).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("snapshot has unknown dtype {dtype_name:?}"),
            )
        })?;
        if !self.dtype.trainable() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("snapshot dtype {} is not a training dtype", self.dtype),
            ));
        }
        self.backend = r.string()?;
        self.simd_level = r.string()?;
        r.done()
    }

    fn encode_loop(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(&self.epoch.to_le_bytes());
        buf.extend_from_slice(&self.batch_in_epoch.to_le_bytes());
        buf.extend_from_slice(&self.step.to_le_bytes());
        buf.extend_from_slice(&self.samples_done.to_le_bytes());
        buf.extend_from_slice(&self.epoch_loss.to_bits().to_le_bytes());
        buf.extend_from_slice(&self.epoch_batches.to_le_bytes());
        buf.extend_from_slice(&self.last_lr.to_bits().to_le_bytes());
        buf.extend_from_slice(&(self.history.len() as u32).to_le_bytes());
        for e in &self.history {
            buf.extend_from_slice(&e.train_loss.to_bits().to_le_bytes());
            match e.val_loss {
                Some(v) => {
                    buf.push(1);
                    buf.extend_from_slice(&v.to_bits().to_le_bytes());
                }
                None => buf.push(0),
            }
            buf.extend_from_slice(&e.lr.to_bits().to_le_bytes());
        }
        buf
    }

    fn decode_loop(&mut self, bytes: &[u8]) -> io::Result<()> {
        let mut r = Reader::new(bytes);
        self.epoch = r.u64()?;
        self.batch_in_epoch = r.u64()?;
        self.step = r.u64()?;
        self.samples_done = r.u64()?;
        self.epoch_loss = f64::from_bits(r.u64()?);
        self.epoch_batches = r.u64()?;
        self.last_lr = f32::from_bits(r.u32()?);
        let n = r.u32()? as usize;
        // each history entry is at least 13 bytes; cap the pre-allocation
        // rather than trusting the claimed count
        self.history = Vec::with_capacity(n.min(1 << 10));
        for _ in 0..n {
            let train_loss = f64::from_bits(r.u64()?);
            let val_loss = match r.u8()? {
                0 => None,
                1 => Some(f64::from_bits(r.u64()?)),
                other => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("bad val_loss tag {other}"),
                    ))
                }
            };
            let lr = f32::from_bits(r.u32()?);
            self.history.push(EpochStats {
                train_loss,
                val_loss,
                lr,
            });
        }
        r.done()
    }

    fn encode_rng(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(96);
        for w in self.rng.iter().chain(&self.rng_epoch_start) {
            buf.extend_from_slice(&w.to_le_bytes());
        }
        for w in self.sampler.iter().flatten() {
            buf.extend_from_slice(&w.to_le_bytes());
        }
        buf
    }

    fn decode_rng(&mut self, bytes: &[u8]) -> io::Result<()> {
        let mut r = Reader::new(bytes);
        for w in self.rng.iter_mut().chain(self.rng_epoch_start.iter_mut()) {
            *w = r.u64()?;
        }
        if r.pos < r.bytes.len() {
            let mut sampler = [0; 4];
            for w in &mut sampler {
                *w = r.u64()?;
            }
            self.sampler = Some(sampler);
        }
        r.done()
    }
}

fn encode_optim(state: &OptimizerState, dtype: DType) -> Vec<u8> {
    let mut buf = Vec::new();
    put_str(&mut buf, &state.kind);
    buf.extend_from_slice(&(state.scalars.len() as u32).to_le_bytes());
    for (name, value) in &state.scalars {
        put_str(&mut buf, name);
        buf.extend_from_slice(&value.to_bits().to_le_bytes());
    }
    buf.extend_from_slice(&checkpoint::encode_entries_dtype(&state.tensors, dtype));
    buf
}

fn decode_optim(bytes: &[u8], dtype: DType) -> io::Result<OptimizerState> {
    let mut r = Reader::new(bytes);
    let kind = r.string()?;
    let n = r.u32()? as usize;
    if n > 64 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("optimizer state claims {n} scalars"),
        ));
    }
    let mut scalars = Vec::with_capacity(n);
    for _ in 0..n {
        let name = r.string()?;
        scalars.push((name, f64::from_bits(r.u64()?)));
    }
    let tensors = checkpoint::decode_entries_dtype(r.rest(), dtype)?;
    Ok(OptimizerState {
        kind,
        scalars,
        tensors,
    })
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
}

/// Slice cursor with clean `UnexpectedEof`/`InvalidData` errors — no
/// panics, no over-allocation, whatever the input claims.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.bytes.len());
        match end {
            Some(end) => {
                let out = &self.bytes[self.pos..end];
                self.pos = end;
                Ok(out)
            }
            None => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "state section truncated",
            )),
        }
    }

    fn u8(&mut self) -> io::Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn string(&mut self) -> io::Result<String> {
        let len = self.u32()? as usize;
        if len > 1 << 12 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("string of {len} bytes exceeds the cap"),
            ));
        }
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "string is not UTF-8"))
    }

    fn rest(&mut self) -> &'a [u8] {
        let out = &self.bytes[self.pos..];
        self.pos = self.bytes.len();
        out
    }

    fn done(&mut self) -> io::Result<()> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "trailing bytes in state section",
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_state() -> TrainState {
        TrainState {
            run: "classifier".to_owned(),
            schedule: "REX".to_owned(),
            optimizer: "SGDM".to_owned(),
            seed: 42,
            total_samples: 1200,
            batch_size: 16,
            epochs: 8,
            lr: 0.05,
            dtype: DType::F32,
            backend: "simd".to_owned(),
            simd_level: "avx2+fma".to_owned(),
            epoch: 2,
            batch_in_epoch: 3,
            step: 19,
            samples_done: 304,
            epoch_loss: 6.25,
            epoch_batches: 3,
            last_lr: 0.031_25,
            history: vec![
                EpochStats {
                    train_loss: 2.5,
                    val_loss: None,
                    lr: 0.05,
                },
                EpochStats {
                    train_loss: 2.0,
                    val_loss: Some(1.75),
                    lr: 0.04,
                },
            ],
            rng: [1, 2, 3, 4],
            rng_epoch_start: [5, 6, 7, 8],
            sampler: None,
            trace_events: 23,
            model: vec![
                ("w".to_owned(), Tensor::arange(0.0, 1.0, 6)),
                (
                    "b".to_owned(),
                    Tensor::from_vec(vec![0.5, -0.5], &[2]).unwrap(),
                ),
            ],
            buffers: vec![(
                "bn.running_mean".to_owned(),
                Tensor::from_vec(vec![0.25, 0.75], &[2]).unwrap(),
            )],
            optim: OptimizerState {
                kind: "sgd".to_owned(),
                scalars: vec![("t".to_owned(), 19.0)],
                tensors: vec![("velocity:w".to_owned(), Tensor::zeros(&[6]))],
            },
        }
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("rex_snapshot_{name}_{}", std::process::id()))
    }

    #[test]
    fn state_roundtrips_exactly() {
        let state = sample_state();
        let path = tmp("roundtrip");
        state.save(&path).unwrap();
        let back = TrainState::load(&path).unwrap();
        assert_eq!(TrainState::trace_cursor(&path).unwrap(), 23);
        let _ = std::fs::remove_file(&path);
        assert_eq!(state, back);
    }

    #[test]
    fn sampler_stream_roundtrips_in_32_extra_bytes() {
        let mut state = sample_state();
        let path = tmp("sampler");
        state.save(&path).unwrap();
        let without = std::fs::metadata(&path).unwrap().len();
        state.sampler = Some([9, 10, 11, 12]);
        state.save(&path).unwrap();
        let with = std::fs::metadata(&path).unwrap().len();
        let back = TrainState::load(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(state, back);
        assert_eq!(with - without, 32);
    }

    #[test]
    fn half_precision_state_roundtrips_and_shrinks_tensor_sections() {
        let mut state = sample_state();
        state.dtype = DType::F16;
        // live training state is always pre-rounded to the storage dtype
        for (_, t) in state
            .model
            .iter_mut()
            .chain(state.buffers.iter_mut())
            .chain(state.optim.tensors.iter_mut())
        {
            DType::F16.round_slice(t.data_mut());
        }
        let path = tmp("half");
        state.save(&path).unwrap();
        let half_len = std::fs::metadata(&path).unwrap().len();
        let back = TrainState::load(&path).unwrap();
        assert_eq!(state, back);

        let mut full = state.clone();
        full.dtype = DType::F32;
        full.save(&path).unwrap();
        let full_len = std::fs::metadata(&path).unwrap().len();
        let _ = std::fs::remove_file(&path);
        // 16 tensor elements in the sample state, 2 bytes saved each
        assert_eq!(full_len - half_len, 2 * 16);
    }

    #[test]
    fn unknown_dtype_in_meta_is_invalid_data() {
        let state = sample_state();
        let path = tmp("dtype");
        state.save(&path).unwrap();
        let sections = checkpoint::load_state(&path).unwrap();
        let doctored: Vec<(String, Vec<u8>)> = sections
            .into_iter()
            .map(|(name, bytes)| {
                if name == "meta" {
                    // the dtype string "f32" is the last-but-two field;
                    // rewrite its bytes in place
                    let mut b = bytes;
                    let pos = b.windows(3).rposition(|w| w == b"f32").unwrap();
                    b[pos..pos + 3].copy_from_slice(b"f99");
                    (name, b)
                } else {
                    (name, bytes)
                }
            })
            .collect();
        checkpoint::save_state(&path, &doctored).unwrap();
        let err = TrainState::load(&path).unwrap_err();
        let _ = std::fs::remove_file(&path);
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("unknown dtype"), "{err}");
    }

    #[test]
    fn corrupt_snapshots_load_as_clean_errors() {
        let state = sample_state();
        let path = tmp("corrupt");
        state.save(&path).unwrap();
        let good = std::fs::read(&path).unwrap();
        // the container checksum catches every flip; truncations surface
        // as eof/invalid — spot-check a spread of offsets
        for pos in (0..good.len()).step_by(37) {
            let mut bad = good.clone();
            bad[pos] ^= 0x40;
            std::fs::write(&path, &bad).unwrap();
            let err = TrainState::load(&path).unwrap_err();
            assert!(
                matches!(
                    err.kind(),
                    io::ErrorKind::InvalidData | io::ErrorKind::UnexpectedEof
                ),
                "flip at {pos}: {err}"
            );
            std::fs::write(&path, &good[..pos]).unwrap();
            let err = TrainState::load(&path).unwrap_err();
            assert!(
                matches!(
                    err.kind(),
                    io::ErrorKind::InvalidData | io::ErrorKind::UnexpectedEof
                ),
                "truncation at {pos}: {err}"
            );
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_section_is_invalid_data() {
        let path = tmp("missing");
        checkpoint::save_state(&path, &[("rng".to_owned(), vec![])]).unwrap();
        let err = TrainState::load(&path).unwrap_err();
        let _ = std::fs::remove_file(&path);
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("missing section"), "{err}");
    }
}
