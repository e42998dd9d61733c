"""Four-layer fully connected network with LeakyReLU activations.

One implementation serves both estimator heads: the exposure-based MLP (3
output neurons, predicts an illuminant from the feature vector) and the ECCC
weighting network (n output neurons, emits bias-interpolation logits). The
backward pass is analytic; no autograd framework is involved.

Every function is batch-first: inputs are (B, d_in) rows, outputs (B, d_out).
Training and prediction run the same layers with different products:
mlp_forward_trace, the training forward, takes each layer's product as one
gemm over the batch; mlp_forward, the prediction forward, takes it row by
row (core.row_products), so every row has the bits it gets as a batch of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import row_norms, row_products
from .errors import DegenerateOutputError, DomainError

HIDDEN_WIDTH = 9
LEAKY_SLOPE = 0.01  # negative-side slope of every hidden LeakyReLU
# Gradient of acos is clamped once |cos| exceeds this, avoiding the singularity
# at zero angular error.
COS_CLAMP = 1.0 - 1e-7
_DEG = 180.0 / np.pi

# Neutral gray direction used to seed the output layer so an untrained model
# predicts a sensible constant instead of an arbitrary direction.
NEUTRAL = np.ones(3) / np.sqrt(3.0)


@dataclass
class MlpParams:
    """Weights and biases of the [d_in -> 9 -> 9 -> 9 -> d_out] network."""

    weights: list  # four arrays, (out, in)
    biases: list   # four arrays, (out,)

    @property
    def d_in(self) -> int:
        return self.weights[0].shape[1]

    @property
    def d_out(self) -> int:
        return self.weights[-1].shape[0]

    def tensors(self) -> dict:
        out = {}
        for i, (w, b) in enumerate(zip(self.weights, self.biases), start=1):
            out[f"w{i}"] = w
            out[f"b{i}"] = b
        return out

    @classmethod
    def from_tensors(cls, tensors: dict) -> "MlpParams":
        weights = [np.asarray(tensors[f"w{i}"], dtype=np.float64) for i in range(1, 5)]
        biases = [np.asarray(tensors[f"b{i}"], dtype=np.float64) for i in range(1, 5)]
        return cls(weights=weights, biases=biases)


def tensor_shapes(d_in: int, d_out: int) -> dict:
    """Shape of each tensor MlpParams.tensors names, for a [d_in -> 9 -> 9 -> 9 -> d_out] network."""
    dims = [d_in] + [HIDDEN_WIDTH] * 3 + [d_out]
    shapes = {}
    for i in range(1, 5):
        shapes[f"w{i}"] = (dims[i], dims[i - 1])
        shapes[f"b{i}"] = (dims[i],)
    return shapes


def count_params(d_in: int, d_out: int = 3) -> int:
    """Exact scalar parameter count of the four-layer network."""
    return sum(math.prod(shape) for shape in tensor_shapes(d_in, d_out).values())


def init_mlp(d_in: int, d_out: int, seed: int) -> MlpParams:
    """Glorot-uniform weights, zero biases."""
    rng = np.random.default_rng(seed)
    shapes = tensor_shapes(d_in, d_out)
    weights, biases = [], []
    for i in range(4):
        fan_out, fan_in = shapes[f"w{i + 1}"]
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return MlpParams(weights=weights, biases=biases)


# ============================================================
# Forward / backward
# ============================================================

def mlp_forward(params: MlpParams, x: np.ndarray) -> np.ndarray:
    """Raw (pre-normalization) outputs (B, d_out) for a (B, d_in) batch, the
    prediction forward: each row has the bits of that row run alone, in a
    batch of any size."""
    return _layers(params, x, row_products)[0]


def mlp_forward_trace(params: MlpParams, x: np.ndarray):
    """Forward pass over a (B, d_in) batch, keeping what the backward pass
    needs: the training forward, whose products are one gemm per layer.

    The trace holds each layer's input ("a", four arrays) and each hidden
    layer's LeakyReLU derivative ("slope": 1 where z >= 0, else
    LEAKY_SLOPE). The activation is z times that derivative, which equals
    where(z >= 0, z, LEAKY_SLOPE * z) bit for bit, so the mask is formed once.
    """
    return _layers(params, x, np.matmul)


def _layers(params: MlpParams, x: np.ndarray, product):
    """The four layers, each product(a, w.T) + b; returns (outputs, trace)."""
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != 2 or a.shape[1] != params.d_in:
        raise DomainError(f"input shape {a.shape} is not (batch, {params.d_in})")
    inputs, slopes = [a], []
    for i in range(3):
        z = product(a, params.weights[i].T) + params.biases[i]
        d = np.where(z >= 0.0, 1.0, LEAKY_SLOPE)
        a = z * d
        slopes.append(d)
        inputs.append(a)
    y = product(a, params.weights[3].T) + params.biases[3]
    return y, {"a": inputs, "slope": slopes}


def mlp_backward(params: MlpParams, trace: dict, dout: np.ndarray) -> dict:
    """Gradients of a scalar loss given d(loss)/d(raw outputs) (B, d_out), keyed like tensors()."""
    a, slopes = trace["a"], trace["slope"]
    grads = {"w4": dout.T @ a[3], "b4": dout.sum(axis=0)}
    da = dout @ params.weights[3]
    for i in (2, 1, 0):
        dz = da * slopes[i]
        grads[f"w{i + 1}"] = dz.T @ a[i]
        grads[f"b{i + 1}"] = dz.sum(axis=0)
        if i:  # no caller needs the gradient w.r.t. the input
            da = dz @ params.weights[i]
    return grads


# ============================================================
# Angular loss
# ============================================================

def unit_rows(gts: np.ndarray) -> np.ndarray:
    """Ground truths scaled to unit rows; a zero row raises DomainError."""
    gts = np.atleast_2d(np.asarray(gts, dtype=np.float64))
    gt_norm = np.linalg.norm(gts, axis=1)
    if np.any(gt_norm < 1e-12):
        raise DomainError("ground-truth illuminant must be nonzero")
    return gts / gt_norm[:, np.newaxis]


def angular_loss_unit(raw: np.ndarray, ghat: np.ndarray):
    """Per-sample angular error (degrees) and its gradient w.r.t. raw outputs,
    for (B, 3) float64 raw outputs and unit-row ground truths (unit_rows).

    Rows with a degenerate raw output (norm < 1e-12) are flagged invalid and
    excluded: their loss is reported as nan and their gradient as zero.
    Returns (loss, d loss / d raw, valid).
    """
    norms = np.sqrt(np.add.reduce(raw * raw, axis=1))  # np.linalg.norm's own formula
    valid = norms >= 1e-12
    all_valid = valid.all()
    safe = norms if all_valid else np.where(valid, norms, 1.0)
    cos = np.einsum("ij,ij->i", raw, ghat) / safe
    cos_c = np.minimum(np.maximum(cos, -1.0), 1.0)
    loss = np.degrees(np.arccos(cos_c))
    # d(deg)/d(raw) = -(180/pi) / sqrt(1 - c^2) * (ghat - c * rhat) / ||raw||
    cg = np.minimum(np.maximum(cos, -COS_CLAMP), COS_CLAMP)
    factor = -_DEG / np.sqrt(1.0 - cg * cg)
    rhat = raw / safe[:, np.newaxis]
    draw = factor[:, np.newaxis] * (ghat - cos_c[:, np.newaxis] * rhat) / safe[:, np.newaxis]
    if not all_valid:
        loss[~valid] = np.nan
        draw[~valid] = 0.0
    return loss, draw, valid


# ============================================================
# EMLP: the illuminant-estimating specialization
# ============================================================

def emlp_init(d_in: int = 15, seed: int = 0) -> MlpParams:
    """Initialize an estimator head.

    The output layer is damped and biased toward neutral gray, so the
    untrained network behaves like a constant gray predictor.
    """
    params = init_mlp(d_in, 3, seed)
    params.weights[3] *= 0.05
    params.biases[3] = NEUTRAL.copy()
    return params


def emlp_forward(params: MlpParams, features: np.ndarray) -> np.ndarray:
    """Unit-norm illuminant estimates (B, 3) for a (B, d_in) feature batch.

    Negative raw components are clamped to zero before normalization: an
    illuminant is a physical light color. Training operates on the raw
    output, where the angular loss needs no clamp.
    """
    raw = mlp_forward(params, features)
    if np.any(row_norms(raw) < 1e-12):
        raise DegenerateOutputError("EMLP produced a near-zero output vector")
    v = np.maximum(raw, 0.0)
    norm = row_norms(v)
    if np.any(norm < 1e-12):
        raise DegenerateOutputError("EMLP output has no positive component")
    return v / norm[:, np.newaxis]
