use rex_tensor::conv::{
    conv2d_backward, conv2d_forward, global_avgpool_backward, global_avgpool_forward,
    maxpool2d_backward, maxpool2d_forward, Conv2dSaved, Window,
};
use rex_tensor::norm;
use rex_tensor::ops;
use rex_tensor::ops::{matmul3, matmul3_nt, matmul3_tn, permute_0213, transpose_last2};
use rex_tensor::{Tensor, TensorError};

use crate::Param;

/// Identifier of a node in a [`Graph`] tape.
///
/// `NodeId`s are only meaningful for the graph that produced them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(usize);

/// How a node's value was computed — the record replayed (in reverse) by
/// [`Graph::backward`]. Each variant stores whatever forward state its
/// backward pass needs.
enum Op {
    Constant,
    ParamLeaf(Param),
    Add(NodeId, NodeId),
    Sub(NodeId, NodeId),
    Mul(NodeId, NodeId),
    Div(NodeId, NodeId),
    MatMul(NodeId, NodeId),
    BatchMatMul(NodeId, NodeId),
    TransposeLast2(NodeId),
    Permute0213(NodeId),
    Scale(NodeId, f32),
    AddScalar(NodeId),
    Relu(NodeId),
    LeakyRelu(NodeId, f32),
    Sigmoid(NodeId),
    Tanh(NodeId),
    Gelu(NodeId),
    Exp(NodeId),
    Ln(NodeId),
    Reshape(NodeId),
    SumAll(NodeId),
    MeanAll(NodeId),
    SumAxis(NodeId, usize),
    Softmax(NodeId),
    LogSoftmax(NodeId),
    NllLoss {
        log_probs: NodeId,
        targets: Vec<usize>,
    },
    BceWithLogits {
        logits: NodeId,
        targets: Tensor,
    },
    Conv2d {
        input: NodeId,
        weight: NodeId,
        bias: Option<NodeId>,
        saved: Conv2dSaved,
    },
    MaxPool2d {
        input: NodeId,
        argmax: Vec<u32>,
        in_shape: Vec<usize>,
    },
    GlobalAvgPool {
        input: NodeId,
        in_shape: Vec<usize>,
    },
    BatchNorm {
        input: NodeId,
        gamma: NodeId,
        beta: NodeId,
        /// per-channel mean and inverse std the input was normalised with
        mean: Vec<f32>,
        inv_std: Vec<f32>,
        /// true in training mode (batch statistics couple the gradient)
        coupled: bool,
    },
    LayerNorm {
        input: NodeId,
        gamma: NodeId,
        beta: NodeId,
        x_hat: Tensor,
        inv_std: Vec<f32>,
    },
    Embedding {
        weight: NodeId,
        indices: Vec<usize>,
    },
    SelectTime {
        input: NodeId,
        index: usize,
    },
}

struct Node {
    value: Tensor,
    op: Op,
    requires_grad: bool,
}

/// A reverse-mode autodiff tape.
///
/// Build a fresh `Graph` per forward pass, register parameters with
/// [`Graph::param`], chain ops, then call [`Graph::backward`] on the scalar
/// loss node. See the [crate docs](crate) for a worked example.
pub struct Graph {
    nodes: Vec<Node>,
    training: bool,
}

impl std::fmt::Debug for Graph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Graph({} nodes, training={})",
            self.nodes.len(),
            self.training
        )
    }
}

impl Graph {
    /// Creates an empty tape. `training` controls mode-dependent layers
    /// (dropout, batch-norm statistics) via [`Graph::training`].
    pub fn new(training: bool) -> Self {
        Graph {
            nodes: Vec::with_capacity(128),
            training,
        }
    }

    /// Whether this pass runs in training mode.
    pub fn training(&self) -> bool {
        self.training
    }

    /// Number of nodes recorded so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The forward value of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` came from a different graph.
    pub fn value(&self, id: NodeId) -> &Tensor {
        &self.nodes[id.0].value
    }

    fn push(&mut self, value: Tensor, op: Op, requires_grad: bool) -> NodeId {
        self.nodes.push(Node {
            value,
            op,
            requires_grad,
        });
        NodeId(self.nodes.len() - 1)
    }

    fn rg(&self, id: NodeId) -> bool {
        self.nodes[id.0].requires_grad
    }

    // ------------------------------------------------------------------
    // Leaves
    // ------------------------------------------------------------------

    /// Registers a constant (no gradient flows into it).
    pub fn constant(&mut self, t: Tensor) -> NodeId {
        self.push(t, Op::Constant, false)
    }

    /// Registers a parameter leaf; `backward` will accumulate into
    /// [`Param::grad`].
    pub fn param(&mut self, p: &Param) -> NodeId {
        let value = p.value().clone();
        self.push(value, Op::ParamLeaf(p.clone()), true)
    }

    // ------------------------------------------------------------------
    // Elementwise / arithmetic
    // ------------------------------------------------------------------

    /// Broadcasting elementwise sum.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::BroadcastMismatch`] on incompatible shapes.
    pub fn add(&mut self, a: NodeId, b: NodeId) -> Result<NodeId, TensorError> {
        let v = self.value(a).add(self.value(b))?;
        let rg = self.rg(a) || self.rg(b);
        Ok(self.push(v, Op::Add(a, b), rg))
    }

    /// Broadcasting elementwise difference.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::BroadcastMismatch`] on incompatible shapes.
    pub fn sub(&mut self, a: NodeId, b: NodeId) -> Result<NodeId, TensorError> {
        let v = self.value(a).sub(self.value(b))?;
        let rg = self.rg(a) || self.rg(b);
        Ok(self.push(v, Op::Sub(a, b), rg))
    }

    /// Broadcasting elementwise product.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::BroadcastMismatch`] on incompatible shapes.
    pub fn mul(&mut self, a: NodeId, b: NodeId) -> Result<NodeId, TensorError> {
        let v = self.value(a).mul(self.value(b))?;
        let rg = self.rg(a) || self.rg(b);
        Ok(self.push(v, Op::Mul(a, b), rg))
    }

    /// Broadcasting elementwise quotient.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::BroadcastMismatch`] on incompatible shapes.
    pub fn div(&mut self, a: NodeId, b: NodeId) -> Result<NodeId, TensorError> {
        let v = self.value(a).div(self.value(b))?;
        let rg = self.rg(a) || self.rg(b);
        Ok(self.push(v, Op::Div(a, b), rg))
    }

    /// Multiplies by a compile-time scalar.
    pub fn scale(&mut self, a: NodeId, s: f32) -> NodeId {
        let v = self.value(a).scale(s);
        let rg = self.rg(a);
        self.push(v, Op::Scale(a, s), rg)
    }

    /// Adds a scalar to every element.
    pub fn add_scalar(&mut self, a: NodeId, s: f32) -> NodeId {
        let v = self.value(a).add_scalar(s);
        let rg = self.rg(a);
        self.push(v, Op::AddScalar(a), rg)
    }

    // ------------------------------------------------------------------
    // Activations
    // ------------------------------------------------------------------

    /// Rectified linear unit.
    pub fn relu(&mut self, a: NodeId) -> NodeId {
        let v = ops::relu(self.value(a));
        let rg = self.rg(a);
        self.push(v, Op::Relu(a), rg)
    }

    /// Leaky ReLU with negative slope `alpha`.
    pub fn leaky_relu(&mut self, a: NodeId, alpha: f32) -> NodeId {
        let v = ops::leaky_relu(self.value(a), alpha);
        let rg = self.rg(a);
        self.push(v, Op::LeakyRelu(a, alpha), rg)
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, a: NodeId) -> NodeId {
        let v = ops::sigmoid(self.value(a));
        let rg = self.rg(a);
        self.push(v, Op::Sigmoid(a), rg)
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, a: NodeId) -> NodeId {
        let v = ops::tanh(self.value(a));
        let rg = self.rg(a);
        self.push(v, Op::Tanh(a), rg)
    }

    /// GELU (tanh approximation).
    pub fn gelu(&mut self, a: NodeId) -> NodeId {
        let v = ops::gelu(self.value(a));
        let rg = self.rg(a);
        self.push(v, Op::Gelu(a), rg)
    }

    /// Elementwise exponential.
    pub fn exp(&mut self, a: NodeId) -> NodeId {
        let v = self.value(a).map(f32::exp);
        let rg = self.rg(a);
        self.push(v, Op::Exp(a), rg)
    }

    /// Elementwise natural log, clamped below at `1e-12` for stability.
    pub fn ln(&mut self, a: NodeId) -> NodeId {
        let v = self.value(a).map(|x| x.max(1e-12).ln());
        let rg = self.rg(a);
        self.push(v, Op::Ln(a), rg)
    }

    // ------------------------------------------------------------------
    // Shape
    // ------------------------------------------------------------------

    /// Reshapes without changing data.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ReshapeMismatch`] if element counts differ.
    pub fn reshape(&mut self, a: NodeId, shape: &[usize]) -> Result<NodeId, TensorError> {
        let v = self.value(a).reshape(shape)?;
        let rg = self.rg(a);
        Ok(self.push(v, Op::Reshape(a), rg))
    }

    /// Transposes the last two axes of a 3-D tensor (`[B,M,N] → [B,N,M]`).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-3-D inputs.
    pub fn transpose_last2(&mut self, a: NodeId) -> Result<NodeId, TensorError> {
        let v = transpose_last2(self.value(a))?;
        let rg = self.rg(a);
        Ok(self.push(v, Op::TransposeLast2(a), rg))
    }

    /// Permutes a 4-D tensor's axes from `[B, T, H, D]` to `[B, H, T, D]`
    /// (the head split/merge step of multi-head attention). The permutation
    /// is its own inverse, so the same op is used in both directions.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-4-D inputs.
    pub fn permute_0213(&mut self, a: NodeId) -> Result<NodeId, TensorError> {
        let v = permute_0213(self.value(a))?;
        let rg = self.rg(a);
        Ok(self.push(v, Op::Permute0213(a), rg))
    }

    /// Selects time step `index` from a `[B, T, D]` tensor, yielding
    /// `[B, D]` (CLS-token pooling in the transformer).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-3-D inputs or
    /// [`TensorError::AxisOutOfRange`] if `index ≥ T`.
    pub fn select_time(&mut self, a: NodeId, index: usize) -> Result<NodeId, TensorError> {
        let x = self.value(a);
        if x.ndim() != 3 {
            return Err(TensorError::RankMismatch {
                expected: "3-D [B,T,D] tensor",
                got: x.shape().to_vec(),
            });
        }
        let (b, t, d) = (x.shape()[0], x.shape()[1], x.shape()[2]);
        if index >= t {
            return Err(TensorError::AxisOutOfRange {
                axis: index,
                ndim: t,
            });
        }
        let mut out = Vec::with_capacity(b * d);
        for s in 0..b {
            let base = (s * t + index) * d;
            out.extend_from_slice(&x.data()[base..base + d]);
        }
        let v = Tensor::from_vec(out, &[b, d])?;
        let rg = self.rg(a);
        Ok(self.push(v, Op::SelectTime { input: a, index }, rg))
    }

    // ------------------------------------------------------------------
    // Reductions
    // ------------------------------------------------------------------

    /// Sum over all elements, producing a scalar node.
    ///
    /// # Errors
    ///
    /// Never fails in practice; `Result` kept for interface uniformity.
    pub fn sum_all(&mut self, a: NodeId) -> Result<NodeId, TensorError> {
        let v = Tensor::scalar(self.value(a).sum());
        let rg = self.rg(a);
        Ok(self.push(v, Op::SumAll(a), rg))
    }

    /// Mean over all elements, producing a scalar node.
    ///
    /// # Errors
    ///
    /// Never fails in practice; `Result` kept for interface uniformity.
    pub fn mean_all(&mut self, a: NodeId) -> Result<NodeId, TensorError> {
        let v = Tensor::scalar(self.value(a).mean());
        let rg = self.rg(a);
        Ok(self.push(v, Op::MeanAll(a), rg))
    }

    /// Sum along one axis (removing it).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::AxisOutOfRange`] for a bad axis.
    pub fn sum_axis(&mut self, a: NodeId, axis: usize) -> Result<NodeId, TensorError> {
        let v = self.value(a).sum_axis(axis)?;
        let rg = self.rg(a);
        Ok(self.push(v, Op::SumAxis(a, axis), rg))
    }

    // ------------------------------------------------------------------
    // Linear algebra
    // ------------------------------------------------------------------

    /// 2-D matrix product.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::MatmulMismatch`] on incompatible shapes.
    pub fn matmul(&mut self, a: NodeId, b: NodeId) -> Result<NodeId, TensorError> {
        let v = self.value(a).matmul(self.value(b))?;
        let rg = self.rg(a) || self.rg(b);
        Ok(self.push(v, Op::MatMul(a, b), rg))
    }

    /// Batched matrix product of two 3-D tensors (`[B,M,K] × [B,K,N]`),
    /// computed slice-in-place by the GEMM layer (no per-batch copies).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::MatmulMismatch`] on incompatible shapes.
    pub fn matmul3(&mut self, a: NodeId, b: NodeId) -> Result<NodeId, TensorError> {
        let v = matmul3(self.value(a), self.value(b))?;
        let rg = self.rg(a) || self.rg(b);
        Ok(self.push(v, Op::BatchMatMul(a, b), rg))
    }

    /// Batched matrix product (alias of [`Graph::matmul3`], kept for
    /// callers that predate the kernel rework).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::MatmulMismatch`] on incompatible shapes.
    pub fn batch_matmul(&mut self, a: NodeId, b: NodeId) -> Result<NodeId, TensorError> {
        self.matmul3(a, b)
    }

    // ------------------------------------------------------------------
    // Softmax & losses
    // ------------------------------------------------------------------

    /// Row-wise softmax of a 2-D tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-2-D inputs.
    pub fn softmax(&mut self, a: NodeId) -> Result<NodeId, TensorError> {
        let v = ops::softmax_rows(self.value(a))?;
        let rg = self.rg(a);
        Ok(self.push(v, Op::Softmax(a), rg))
    }

    /// Row-wise log-softmax of a 2-D tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-2-D inputs.
    pub fn log_softmax(&mut self, a: NodeId) -> Result<NodeId, TensorError> {
        let v = ops::log_softmax_rows(self.value(a))?;
        let rg = self.rg(a);
        Ok(self.push(v, Op::LogSoftmax(a), rg))
    }

    /// Negative log-likelihood of `targets` under row-wise log-probs
    /// (mean over the batch). Compose with [`Graph::log_softmax`] for
    /// cross-entropy.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] if `log_probs` is not 2-D or
    /// the target count differs from the batch size.
    pub fn nll_loss(
        &mut self,
        log_probs: NodeId,
        targets: &[usize],
    ) -> Result<NodeId, TensorError> {
        let lp = self.value(log_probs);
        if lp.ndim() != 2 || lp.shape()[0] != targets.len() {
            return Err(TensorError::RankMismatch {
                expected: "2-D [N,C] log-probs with one target per row",
                got: lp.shape().to_vec(),
            });
        }
        let (n, c) = (lp.shape()[0], lp.shape()[1]);
        let mut acc = 0.0;
        for (i, &t) in targets.iter().enumerate() {
            if t >= c {
                return Err(TensorError::AxisOutOfRange { axis: t, ndim: c });
            }
            acc -= lp.data()[i * c + t];
        }
        let v = Tensor::scalar(acc / n as f32);
        let rg = self.rg(log_probs);
        Ok(self.push(
            v,
            Op::NllLoss {
                log_probs,
                targets: targets.to_vec(),
            },
            rg,
        ))
    }

    /// Cross-entropy between logits and class indices (mean over batch).
    ///
    /// # Errors
    ///
    /// As [`Graph::log_softmax`] and [`Graph::nll_loss`].
    pub fn cross_entropy(
        &mut self,
        logits: NodeId,
        targets: &[usize],
    ) -> Result<NodeId, TensorError> {
        let lp = self.log_softmax(logits)?;
        self.nll_loss(lp, targets)
    }

    /// Numerically-stable binary cross-entropy with logits, averaged over
    /// all elements (the VAE reconstruction and detector objectness loss).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::BroadcastMismatch`] if shapes differ.
    pub fn bce_with_logits(
        &mut self,
        logits: NodeId,
        targets: &Tensor,
    ) -> Result<NodeId, TensorError> {
        let x = self.value(logits);
        if x.shape() != targets.shape() {
            return Err(TensorError::BroadcastMismatch {
                lhs: x.shape().to_vec(),
                rhs: targets.shape().to_vec(),
            });
        }
        let mut acc = 0.0f32;
        for (&xi, &zi) in x.data().iter().zip(targets.data()) {
            acc += xi.max(0.0) - xi * zi + (-xi.abs()).exp().ln_1p();
        }
        let v = Tensor::scalar(acc / x.len() as f32);
        let rg = self.rg(logits);
        Ok(self.push(
            v,
            Op::BceWithLogits {
                logits,
                targets: targets.clone(),
            },
            rg,
        ))
    }

    // ------------------------------------------------------------------
    // Convolution / pooling
    // ------------------------------------------------------------------

    /// 2-D convolution (`input [N,C,H,W]`, `weight [O,C,K,K]`, optional
    /// bias `[O]`).
    ///
    /// # Errors
    ///
    /// Propagates geometry/shape errors from the tensor kernel.
    pub fn conv2d(
        &mut self,
        input: NodeId,
        weight: NodeId,
        bias: Option<NodeId>,
        win: Window,
    ) -> Result<NodeId, TensorError> {
        let b_tensor = bias.map(|b| self.value(b).clone());
        let (v, saved) = conv2d_forward(
            self.value(input),
            self.value(weight),
            b_tensor.as_ref(),
            win,
        )?;
        let rg = self.rg(input) || self.rg(weight) || bias.map(|b| self.rg(b)).unwrap_or(false);
        Ok(self.push(
            v,
            Op::Conv2d {
                input,
                weight,
                bias,
                saved,
            },
            rg,
        ))
    }

    /// Max pooling with the given window.
    ///
    /// # Errors
    ///
    /// Propagates geometry/shape errors from the tensor kernel.
    pub fn maxpool2d(&mut self, input: NodeId, win: Window) -> Result<NodeId, TensorError> {
        let in_shape = self.value(input).shape().to_vec();
        let (v, argmax) = maxpool2d_forward(self.value(input), win)?;
        let rg = self.rg(input);
        Ok(self.push(
            v,
            Op::MaxPool2d {
                input,
                argmax,
                in_shape,
            },
            rg,
        ))
    }

    /// Global average pooling `[N,C,H,W] → [N,C]`.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the tensor kernel.
    pub fn global_avgpool(&mut self, input: NodeId) -> Result<NodeId, TensorError> {
        let in_shape = self.value(input).shape().to_vec();
        let v = global_avgpool_forward(self.value(input))?;
        let rg = self.rg(input);
        Ok(self.push(v, Op::GlobalAvgPool { input, in_shape }, rg))
    }

    // ------------------------------------------------------------------
    // Normalisation
    // ------------------------------------------------------------------

    /// Batch normalisation using **batch statistics** (training mode).
    ///
    /// `x` may be `[N,C]` or `[N,C,H,W]`; `gamma`/`beta` are `[C]`.
    /// Returns the output node plus the batch mean and (biased) variance
    /// per channel, which the layer uses to update its running statistics.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for unsupported ranks or a
    /// `gamma`/`beta` whose length is not `C`.
    pub fn batch_norm_train(
        &mut self,
        x: NodeId,
        gamma: NodeId,
        beta: NodeId,
        eps: f32,
    ) -> Result<(NodeId, Tensor, Tensor), TensorError> {
        let (out, stats) =
            norm::batch_norm_train(self.value(x), self.value(gamma), self.value(beta), eps)?;
        let c = stats.mean.len();
        let (mean, var) = (
            Tensor::from_vec(stats.mean.clone(), &[c])?,
            Tensor::from_vec(stats.var, &[c])?,
        );
        let rg = self.rg(x) || self.rg(gamma) || self.rg(beta);
        let id = self.push(
            out,
            Op::BatchNorm {
                input: x,
                gamma,
                beta,
                mean: stats.mean,
                inv_std: stats.inv_std,
                coupled: true,
            },
            rg,
        );
        Ok((id, mean, var))
    }

    /// Batch normalisation using **running statistics** (evaluation mode).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for unsupported ranks, or a
    /// `gamma`, `beta` or running statistic whose length is not `C`.
    pub fn batch_norm_eval(
        &mut self,
        x: NodeId,
        gamma: NodeId,
        beta: NodeId,
        running_mean: &Tensor,
        running_var: &Tensor,
        eps: f32,
    ) -> Result<NodeId, TensorError> {
        let (out, inv_std) = norm::batch_norm_eval(
            self.value(x),
            self.value(gamma),
            self.value(beta),
            running_mean,
            running_var,
            eps,
        )?;
        let rg = self.rg(x) || self.rg(gamma) || self.rg(beta);
        Ok(self.push(
            out,
            Op::BatchNorm {
                input: x,
                gamma,
                beta,
                mean: running_mean.data().to_vec(),
                inv_std,
                coupled: false,
            },
            rg,
        ))
    }

    /// Layer normalisation over the last axis; `gamma`/`beta` are `[D]`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for rank-0 inputs or
    /// mismatched affine shapes.
    pub fn layer_norm(
        &mut self,
        x: NodeId,
        gamma: NodeId,
        beta: NodeId,
        eps: f32,
    ) -> Result<NodeId, TensorError> {
        let xv = self.value(x).clone();
        if xv.ndim() == 0 {
            return Err(TensorError::RankMismatch {
                expected: "tensor of rank >= 1",
                got: vec![],
            });
        }
        let d = *xv.shape().last().expect("rank >= 1");
        let rows = xv.len() / d;
        let g = self.value(gamma).clone();
        let b = self.value(beta).clone();
        if g.len() != d || b.len() != d {
            return Err(TensorError::RankMismatch {
                expected: "gamma/beta of length D (last axis)",
                got: g.shape().to_vec(),
            });
        }
        let mut out = vec![0.0f32; xv.len()];
        let mut x_hat = vec![0.0f32; xv.len()];
        let mut inv_std = vec![0.0f32; rows];
        let be = rex_tensor::backend::active();
        for r in 0..rows {
            let row = &xv.data()[r * d..(r + 1) * d];
            let (mean, var) = be.mean_var_row(row);
            let istd = 1.0 / (var + eps).sqrt();
            inv_std[r] = istd;
            for i in 0..d {
                let xh = (row[i] - mean) * istd;
                x_hat[r * d + i] = xh;
                out[r * d + i] = g.data()[i] * xh + b.data()[i];
            }
        }
        let rg = self.rg(x) || self.rg(gamma) || self.rg(beta);
        let value = Tensor::from_vec(out, xv.shape())?;
        let x_hat = Tensor::from_vec(x_hat, xv.shape())?;
        Ok(self.push(
            value,
            Op::LayerNorm {
                input: x,
                gamma,
                beta,
                x_hat,
                inv_std,
            },
            rg,
        ))
    }

    /// Embedding lookup: gathers rows `indices` of `weight` (`[V, D]`),
    /// producing `[len(indices), D]`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] if `weight` is not 2-D, or
    /// [`TensorError::AxisOutOfRange`] for an out-of-vocabulary index.
    pub fn embedding(&mut self, weight: NodeId, indices: &[usize]) -> Result<NodeId, TensorError> {
        let w = self.value(weight);
        if w.ndim() != 2 {
            return Err(TensorError::RankMismatch {
                expected: "2-D [V,D] embedding matrix",
                got: w.shape().to_vec(),
            });
        }
        let v = w.shape()[0];
        for &i in indices {
            if i >= v {
                return Err(TensorError::AxisOutOfRange { axis: i, ndim: v });
            }
        }
        let out = w.gather_rows(indices);
        let rg = self.rg(weight);
        Ok(self.push(
            out,
            Op::Embedding {
                weight,
                indices: indices.to_vec(),
            },
            rg,
        ))
    }

    // ------------------------------------------------------------------
    // Backward
    // ------------------------------------------------------------------

    /// Reverse-mode sweep from the scalar `loss` node; accumulates
    /// parameter gradients into their [`Param`] handles.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] if `loss` is not a scalar, or
    /// propagates shape errors from backward kernels (which indicate a bug
    /// rather than a user error).
    pub fn backward(&mut self, loss: NodeId) -> Result<(), TensorError> {
        if self.value(loss).len() != 1 {
            return Err(TensorError::RankMismatch {
                expected: "scalar loss node",
                got: self.value(loss).shape().to_vec(),
            });
        }
        let n = self.nodes.len();
        let mut grads: Vec<Option<Tensor>> = vec![None; n];
        grads[loss.0] = Some(Tensor::full(self.value(loss).shape(), 1.0));

        for idx in (0..=loss.0).rev() {
            if !self.nodes[idx].requires_grad {
                continue;
            }
            let g = match grads[idx].take() {
                Some(g) => g,
                None => continue,
            };
            self.backprop_node(idx, &g, &mut grads)?;
            // Param accumulation happens in backprop_node for leaves.
            if let Op::ParamLeaf(p) = &self.nodes[idx].op {
                p.accumulate_grad(&g);
            }
        }
        Ok(())
    }

    /// Adds `delta` into the pending gradient of node `target`.
    fn accum(grads: &mut [Option<Tensor>], target: NodeId, delta: Tensor) {
        match &mut grads[target.0] {
            Some(g) => g.axpy(1.0, &delta),
            slot @ None => *slot = Some(delta),
        }
    }

    #[allow(clippy::too_many_lines)]
    fn backprop_node(
        &self,
        idx: usize,
        g: &Tensor,
        grads: &mut [Option<Tensor>],
    ) -> Result<(), TensorError> {
        let node = &self.nodes[idx];
        match &node.op {
            Op::Constant | Op::ParamLeaf(_) => {}
            Op::Add(a, b) => {
                if self.rg(*a) {
                    Self::accum(grads, *a, g.reduce_to_shape(self.value(*a).shape())?);
                }
                if self.rg(*b) {
                    Self::accum(grads, *b, g.reduce_to_shape(self.value(*b).shape())?);
                }
            }
            Op::Sub(a, b) => {
                if self.rg(*a) {
                    Self::accum(grads, *a, g.reduce_to_shape(self.value(*a).shape())?);
                }
                if self.rg(*b) {
                    Self::accum(
                        grads,
                        *b,
                        g.scale(-1.0).reduce_to_shape(self.value(*b).shape())?,
                    );
                }
            }
            Op::Mul(a, b) => {
                if self.rg(*a) {
                    let da = g.mul(self.value(*b))?;
                    Self::accum(grads, *a, da.reduce_to_shape(self.value(*a).shape())?);
                }
                if self.rg(*b) {
                    let db = g.mul(self.value(*a))?;
                    Self::accum(grads, *b, db.reduce_to_shape(self.value(*b).shape())?);
                }
            }
            Op::Div(a, b) => {
                let bv = self.value(*b);
                if self.rg(*a) {
                    let da = g.div(bv)?;
                    Self::accum(grads, *a, da.reduce_to_shape(self.value(*a).shape())?);
                }
                if self.rg(*b) {
                    // d/db (a/b) = -a / b^2
                    let av = self.value(*a);
                    let db = g.mul(av)?.div(&bv.mul(bv)?)?.scale(-1.0);
                    Self::accum(grads, *b, db.reduce_to_shape(bv.shape())?);
                }
            }
            Op::MatMul(a, b) => {
                if self.rg(*a) {
                    Self::accum(grads, *a, g.matmul_nt(self.value(*b))?);
                }
                if self.rg(*b) {
                    Self::accum(grads, *b, self.value(*a).matmul_tn(g)?);
                }
            }
            Op::BatchMatMul(a, b) => {
                let av = self.value(*a);
                let bv = self.value(*b);
                if self.rg(*a) {
                    Self::accum(grads, *a, matmul3_nt(g, bv)?);
                }
                if self.rg(*b) {
                    Self::accum(grads, *b, matmul3_tn(av, g)?);
                }
            }
            Op::TransposeLast2(a) => {
                Self::accum(grads, *a, transpose_last2(g)?);
            }
            Op::Permute0213(a) => {
                Self::accum(grads, *a, permute_0213(g)?);
            }
            Op::Scale(a, s) => {
                Self::accum(grads, *a, g.scale(*s));
            }
            Op::AddScalar(a) => {
                Self::accum(grads, *a, g.clone());
            }
            Op::Relu(a) => {
                let da = self
                    .value(*a)
                    .zip_map(g, |x, gi| if x > 0.0 { gi } else { 0.0 })?;
                Self::accum(grads, *a, da);
            }
            Op::LeakyRelu(a, alpha) => {
                let alpha = *alpha;
                let da = self
                    .value(*a)
                    .zip_map(g, |x, gi| if x >= 0.0 { gi } else { alpha * gi })?;
                Self::accum(grads, *a, da);
            }
            Op::Sigmoid(a) => {
                // use the forward value: s' = s(1-s)
                let da = node.value.zip_map(g, |s, gi| gi * s * (1.0 - s))?;
                Self::accum(grads, *a, da);
            }
            Op::Tanh(a) => {
                let da = node.value.zip_map(g, |t, gi| gi * (1.0 - t * t))?;
                Self::accum(grads, *a, da);
            }
            Op::Gelu(a) => {
                let da = self
                    .value(*a)
                    .zip_map(g, |x, gi| gi * ops::gelu_grad_scalar(x))?;
                Self::accum(grads, *a, da);
            }
            Op::Exp(a) => {
                let da = node.value.zip_map(g, |e, gi| gi * e)?;
                Self::accum(grads, *a, da);
            }
            Op::Ln(a) => {
                let da = self.value(*a).zip_map(g, |x, gi| gi / x.max(1e-12))?;
                Self::accum(grads, *a, da);
            }
            Op::Reshape(a) => {
                Self::accum(grads, *a, g.reshape(self.value(*a).shape())?);
            }
            Op::SumAll(a) => {
                let da = Tensor::full(self.value(*a).shape(), g.item());
                Self::accum(grads, *a, da);
            }
            Op::MeanAll(a) => {
                let len = self.value(*a).len() as f32;
                let da = Tensor::full(self.value(*a).shape(), g.item() / len);
                Self::accum(grads, *a, da);
            }
            Op::SumAxis(a, axis) => {
                let in_shape = self.value(*a).shape().to_vec();
                let outer: usize = in_shape[..*axis].iter().product();
                let mid = in_shape[*axis];
                let inner: usize = in_shape[*axis + 1..].iter().product();
                let mut da = Tensor::zeros(&in_shape);
                for o in 0..outer {
                    for m in 0..mid {
                        let base = (o * mid + m) * inner;
                        for i in 0..inner {
                            da.data_mut()[base + i] = g.data()[o * inner + i];
                        }
                    }
                }
                Self::accum(grads, *a, da);
            }
            Op::Softmax(a) => {
                // dx = s * (g - sum(g * s) per row)
                let s = &node.value;
                let (r, c) = (s.shape()[0], s.shape()[1]);
                let mut da = vec![0.0f32; r * c];
                for i in 0..r {
                    let srow = &s.data()[i * c..(i + 1) * c];
                    let grow = &g.data()[i * c..(i + 1) * c];
                    let dot: f32 = srow.iter().zip(grow).map(|(&si, &gi)| si * gi).sum();
                    for j in 0..c {
                        da[i * c + j] = srow[j] * (grow[j] - dot);
                    }
                }
                Self::accum(grads, *a, Tensor::from_vec(da, s.shape())?);
            }
            Op::LogSoftmax(a) => {
                // dx = g - softmax(x) * sum(g) per row
                let ls = &node.value;
                let (r, c) = (ls.shape()[0], ls.shape()[1]);
                let mut da = vec![0.0f32; r * c];
                for i in 0..r {
                    let lrow = &ls.data()[i * c..(i + 1) * c];
                    let grow = &g.data()[i * c..(i + 1) * c];
                    let gsum: f32 = grow.iter().sum();
                    for j in 0..c {
                        da[i * c + j] = grow[j] - lrow[j].exp() * gsum;
                    }
                }
                Self::accum(grads, *a, Tensor::from_vec(da, ls.shape())?);
            }
            Op::NllLoss { log_probs, targets } => {
                let lp = self.value(*log_probs);
                let (n, c) = (lp.shape()[0], lp.shape()[1]);
                let scale = g.item() / n as f32;
                let mut da = Tensor::zeros(lp.shape());
                for (i, &t) in targets.iter().enumerate() {
                    da.data_mut()[i * c + t] = -scale;
                }
                Self::accum(grads, *log_probs, da);
            }
            Op::BceWithLogits { logits, targets } => {
                let x = self.value(*logits);
                let scale = g.item() / x.len() as f32;
                let da = x.zip_map(targets, |xi, zi| (ops::sigmoid_scalar(xi) - zi) * scale)?;
                Self::accum(grads, *logits, da);
            }
            Op::Conv2d {
                input,
                weight,
                bias,
                saved,
            } => {
                let conv = conv2d_backward(
                    g,
                    self.value(*weight),
                    saved,
                    self.rg(*input),
                    bias.is_some_and(|b| self.rg(b)),
                )?;
                if let Some(d_in) = conv.x_grad {
                    Self::accum(grads, *input, d_in);
                }
                if self.rg(*weight) {
                    Self::accum(grads, *weight, conv.weights_grad);
                }
                if let (Some(b), Some(d_b)) = (bias, conv.bias_grad) {
                    Self::accum(grads, *b, d_b);
                }
            }
            Op::MaxPool2d {
                input,
                argmax,
                in_shape,
            } => {
                Self::accum(grads, *input, maxpool2d_backward(g, argmax, in_shape)?);
            }
            Op::GlobalAvgPool { input, in_shape } => {
                Self::accum(grads, *input, global_avgpool_backward(g, in_shape)?);
            }
            Op::BatchNorm {
                input,
                gamma,
                beta,
                mean,
                inv_std,
                coupled,
            } => {
                let bn = norm::batch_norm_backward(
                    g,
                    self.value(*input),
                    mean,
                    inv_std,
                    self.value(*gamma),
                    *coupled,
                    self.rg(*input),
                )?;
                if self.rg(*gamma) {
                    Self::accum(grads, *gamma, bn.gamma_grad);
                }
                if self.rg(*beta) {
                    Self::accum(grads, *beta, bn.beta_grad);
                }
                if let Some(dx) = bn.x_grad {
                    Self::accum(grads, *input, dx);
                }
            }
            #[allow(clippy::needless_range_loop)]
            Op::LayerNorm {
                input,
                gamma,
                beta,
                x_hat,
                inv_std,
            } => {
                let d = *x_hat.shape().last().expect("rank >= 1");
                let rows = x_hat.len() / d;
                let gam = self.value(*gamma);
                if self.rg(*gamma) || self.rg(*beta) {
                    let mut dgamma = vec![0.0f32; d];
                    let mut dbeta = vec![0.0f32; d];
                    for r in 0..rows {
                        for i in 0..d {
                            let gi = g.data()[r * d + i];
                            dgamma[i] += gi * x_hat.data()[r * d + i];
                            dbeta[i] += gi;
                        }
                    }
                    if self.rg(*gamma) {
                        Self::accum(grads, *gamma, Tensor::from_vec(dgamma, &[d])?);
                    }
                    if self.rg(*beta) {
                        Self::accum(grads, *beta, Tensor::from_vec(dbeta, &[d])?);
                    }
                }
                if self.rg(*input) {
                    let mut dx = Tensor::zeros(x_hat.shape());
                    for r in 0..rows {
                        let mut mean_gg = 0.0f32;
                        let mut mean_ggx = 0.0f32;
                        for i in 0..d {
                            let gg = g.data()[r * d + i] * gam.data()[i];
                            mean_gg += gg;
                            mean_ggx += gg * x_hat.data()[r * d + i];
                        }
                        mean_gg /= d as f32;
                        mean_ggx /= d as f32;
                        for i in 0..d {
                            let gg = g.data()[r * d + i] * gam.data()[i];
                            dx.data_mut()[r * d + i] =
                                inv_std[r] * (gg - mean_gg - x_hat.data()[r * d + i] * mean_ggx);
                        }
                    }
                    Self::accum(grads, *input, dx);
                }
            }
            Op::Embedding { weight, indices } => {
                let w = self.value(*weight);
                let d = w.shape()[1];
                let mut dw = Tensor::zeros(w.shape());
                for (row, &i) in indices.iter().enumerate() {
                    for j in 0..d {
                        dw.data_mut()[i * d + j] += g.data()[row * d + j];
                    }
                }
                Self::accum(grads, *weight, dw);
            }
            Op::SelectTime { input, index } => {
                let x = self.value(*input);
                let (b, t, d) = (x.shape()[0], x.shape()[1], x.shape()[2]);
                let mut dx = Tensor::zeros(&[b, t, d]);
                for s in 0..b {
                    let dst = (s * t + index) * d;
                    let src = s * d;
                    dx.data_mut()[dst..dst + d].copy_from_slice(&g.data()[src..src + d]);
                }
                Self::accum(grads, *input, dx);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rex_tensor::ops::batch_slice;

    #[test]
    fn scalar_chain_gradients() {
        // loss = mean((w*x + 2)^2)
        let w = Param::new("w", Tensor::from_vec(vec![1.5], &[1]).unwrap());
        let mut g = Graph::new(true);
        let wn = g.param(&w);
        let x = g.constant(Tensor::from_vec(vec![2.0], &[1]).unwrap());
        let wx = g.mul(wn, x).unwrap();
        let y = g.add_scalar(wx, 2.0);
        let sq = g.mul(y, y).unwrap();
        let loss = g.mean_all(sq).unwrap();
        assert!((g.value(loss).item() - 25.0).abs() < 1e-5);
        g.backward(loss).unwrap();
        // d/dw (wx+2)^2 = 2(wx+2)*x = 2*5*2 = 20
        assert!((w.grad().data()[0] - 20.0).abs() < 1e-4);
    }

    #[test]
    fn gradients_accumulate_across_backwards() {
        let w = Param::new("w", Tensor::from_vec(vec![1.0], &[1]).unwrap());
        for _ in 0..2 {
            let mut g = Graph::new(true);
            let wn = g.param(&w);
            let loss = g.sum_all(wn).unwrap();
            g.backward(loss).unwrap();
        }
        assert_eq!(w.grad().data(), &[2.0]);
    }

    #[test]
    fn constants_receive_no_gradient() {
        let w = Param::new("w", Tensor::ones(&[2]));
        let mut g = Graph::new(true);
        let wn = g.param(&w);
        let c = g.constant(Tensor::ones(&[2]));
        let s = g.add(wn, c).unwrap();
        let loss = g.sum_all(s).unwrap();
        // must not panic even though constant has no grad slot
        g.backward(loss).unwrap();
        assert_eq!(w.grad().data(), &[1.0, 1.0]);
    }

    #[test]
    fn backward_rejects_non_scalar() {
        let w = Param::new("w", Tensor::ones(&[2]));
        let mut g = Graph::new(true);
        let wn = g.param(&w);
        assert!(g.backward(wn).is_err());
    }

    #[test]
    fn matmul_gradients_known() {
        // loss = sum(A @ B); dA = ones @ B^T, dB = A^T @ ones
        let a = Param::new(
            "a",
            Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap(),
        );
        let b = Param::new(
            "b",
            Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]).unwrap(),
        );
        let mut g = Graph::new(true);
        let an = g.param(&a);
        let bn = g.param(&b);
        let c = g.matmul(an, bn).unwrap();
        let loss = g.sum_all(c).unwrap();
        g.backward(loss).unwrap();
        assert_eq!(a.grad().data(), &[11.0, 15.0, 11.0, 15.0]);
        assert_eq!(b.grad().data(), &[4.0, 4.0, 6.0, 6.0]);
    }

    #[test]
    fn cross_entropy_perfect_prediction_small_loss() {
        let logits = Param::new(
            "l",
            Tensor::from_vec(vec![10.0, -10.0, -10.0, 10.0], &[2, 2]).unwrap(),
        );
        let mut g = Graph::new(true);
        let ln = g.param(&logits);
        let loss = g.cross_entropy(ln, &[0, 1]).unwrap();
        assert!(g.value(loss).item() < 1e-4);
        g.backward(loss).unwrap();
        // gradient ~ (softmax - onehot)/N, near zero here
        assert!(logits.grad().data().iter().all(|v| v.abs() < 1e-4));
    }

    #[test]
    fn bce_with_logits_matches_closed_form() {
        let x = Param::new("x", Tensor::from_vec(vec![0.0, 2.0], &[2]).unwrap());
        let targets = Tensor::from_vec(vec![1.0, 0.0], &[2]).unwrap();
        let mut g = Graph::new(true);
        let xn = g.param(&x);
        let loss = g.bce_with_logits(xn, &targets).unwrap();
        // BCE(0, 1) = ln 2; BCE(2, 0) = 2 + ln(1+e^-2)
        let expected = (std::f32::consts::LN_2 + 2.0 + (1.0f32 + (-2.0f32).exp()).ln()) / 2.0;
        assert!((g.value(loss).item() - expected).abs() < 1e-5);
        g.backward(loss).unwrap();
        // d/dx = (sigmoid(x) - z)/2
        assert!((x.grad().data()[0] - (0.5 - 1.0) / 2.0).abs() < 1e-6);
    }

    #[test]
    fn embedding_scatters_gradient() {
        let w = Param::new("emb", Tensor::arange(0.0, 1.0, 8).reshape(&[4, 2]).unwrap());
        let mut g = Graph::new(true);
        let wn = g.param(&w);
        let e = g.embedding(wn, &[1, 1, 3]).unwrap();
        assert_eq!(g.value(e).shape(), &[3, 2]);
        let loss = g.sum_all(e).unwrap();
        g.backward(loss).unwrap();
        let grad = w.grad();
        assert_eq!(grad.at(&[1, 0]), 2.0); // index 1 used twice
        assert_eq!(grad.at(&[3, 0]), 1.0);
        assert_eq!(grad.at(&[0, 0]), 0.0);
    }

    #[test]
    fn select_time_roundtrip() {
        let x = Param::new(
            "x",
            Tensor::arange(0.0, 1.0, 2 * 3 * 2)
                .reshape(&[2, 3, 2])
                .unwrap(),
        );
        let mut g = Graph::new(true);
        let xn = g.param(&x);
        let s = g.select_time(xn, 1).unwrap();
        assert_eq!(g.value(s).shape(), &[2, 2]);
        assert_eq!(g.value(s).data(), &[2.0, 3.0, 8.0, 9.0]);
        let loss = g.sum_all(s).unwrap();
        g.backward(loss).unwrap();
        let grad = x.grad();
        assert_eq!(grad.at(&[0, 1, 0]), 1.0);
        assert_eq!(grad.at(&[0, 0, 0]), 0.0);
    }

    #[test]
    fn batch_matmul_matches_loop_of_matmuls() {
        let a = Tensor::arange(0.0, 1.0, 2 * 2 * 3)
            .reshape(&[2, 2, 3])
            .unwrap();
        let b = Tensor::arange(1.0, 1.0, 2 * 3 * 2)
            .reshape(&[2, 3, 2])
            .unwrap();
        let c = matmul3(&a, &b).unwrap();
        for s in 0..2 {
            let expect = batch_slice(&a, s, 2, 3)
                .matmul(&batch_slice(&b, s, 3, 2))
                .unwrap();
            assert_eq!(batch_slice(&c, s, 2, 2), expect);
        }
    }

    #[test]
    fn transpose_last2_involutive() {
        let x = Tensor::arange(0.0, 1.0, 2 * 3 * 4)
            .reshape(&[2, 3, 4])
            .unwrap();
        let t = transpose_last2(&x).unwrap();
        assert_eq!(t.shape(), &[2, 4, 3]);
        assert_eq!(transpose_last2(&t).unwrap(), x);
    }

    #[test]
    fn batch_norm_train_normalises() {
        let x = Param::new(
            "x",
            Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0], &[4, 2]).unwrap(),
        );
        let gamma = Param::new("g", Tensor::ones(&[2]));
        let beta = Param::new("b", Tensor::zeros(&[2]));
        let mut g = Graph::new(true);
        let xn = g.param(&x);
        let gn = g.param(&gamma);
        let bn = g.param(&beta);
        let (y, mean, var) = g.batch_norm_train(xn, gn, bn, 1e-5).unwrap();
        // channel 0 holds {1,3,5,7}: mean 4, var 5
        assert!((mean.data()[0] - 4.0).abs() < 1e-5);
        assert!((var.data()[0] - 5.0).abs() < 1e-4);
        // output per channel has ~zero mean, ~unit variance
        let yv = g.value(y);
        let col0: Vec<f32> = (0..4).map(|i| yv.at(&[i, 0])).collect();
        let m: f32 = col0.iter().sum::<f32>() / 4.0;
        assert!(m.abs() < 1e-5);
    }

    #[test]
    fn batch_norm_eval_is_pure_affine() {
        let x = Param::new("x", Tensor::from_vec(vec![2.0, 4.0], &[2, 1]).unwrap());
        let gamma = Param::new("g", Tensor::from_vec(vec![3.0], &[1]).unwrap());
        let beta = Param::new("b", Tensor::from_vec(vec![1.0], &[1]).unwrap());
        let mean = Tensor::from_vec(vec![2.0], &[1]).unwrap();
        let var = Tensor::from_vec(vec![4.0], &[1]).unwrap();
        let mut g = Graph::new(false);
        let xn = g.param(&x);
        let gn = g.param(&gamma);
        let bn = g.param(&beta);
        let y = g.batch_norm_eval(xn, gn, bn, &mean, &var, 0.0).unwrap();
        // y = 3*(x-2)/2 + 1
        assert!((g.value(y).data()[0] - 1.0).abs() < 1e-5);
        assert!((g.value(y).data()[1] - 4.0).abs() < 1e-5);
    }

    #[test]
    fn batch_norm_rejects_affine_of_wrong_length() {
        let x = Param::new("x", Tensor::ones(&[4, 3, 2, 2]));
        let short = Param::new("g", Tensor::ones(&[2]));
        let beta = Param::new("b", Tensor::zeros(&[3]));
        let (mean, var) = (Tensor::zeros(&[3]), Tensor::ones(&[3]));
        for training in [true, false] {
            let mut g = Graph::new(training);
            let xn = g.param(&x);
            let sn = g.param(&short);
            let bn = g.param(&beta);
            // a short gamma, then a short beta
            for (gam, bet) in [(sn, bn), (bn, sn)] {
                let err = if training {
                    g.batch_norm_train(xn, gam, bet, 1e-5).map(|_| ())
                } else {
                    g.batch_norm_eval(xn, gam, bet, &mean, &var, 1e-5)
                        .map(|_| ())
                };
                assert!(
                    matches!(err, Err(TensorError::RankMismatch { .. })),
                    "training={training}: {err:?}"
                );
            }
        }
    }

    #[test]
    fn layer_norm_normalises_rows() {
        let x = Param::new(
            "x",
            Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap(),
        );
        let gamma = Param::new("g", Tensor::ones(&[2]));
        let beta = Param::new("b", Tensor::zeros(&[2]));
        let mut g = Graph::new(true);
        let xn = g.param(&x);
        let gn = g.param(&gamma);
        let bn = g.param(&beta);
        let y = g.layer_norm(xn, gn, bn, 1e-5).unwrap();
        let yv = g.value(y);
        for r in 0..2 {
            let sum = yv.at(&[r, 0]) + yv.at(&[r, 1]);
            assert!(sum.abs() < 1e-4, "row {r} mean not ~0");
        }
    }
}
