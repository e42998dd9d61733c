"""Exposure-based convolutional color constancy.

Two (or one) learned filters, stored at quarter resolution, are upsampled and
cross-correlated with unit-mass log-chroma histograms of the long/short
frames. A feature-driven MLP emits softmax weights that blend a bank of
quarter-resolution bias maps; the upsampled blend joins the correlation
responses, a softmax over all bins forms a probability map, and its (u, v)
expectation decodes to an illuminant. A variant without the feature path
learns a single full-resolution bias instead.

All learnable state lives in float64 numpy arrays, shaped as tensor_shapes
lists them; backward passes are analytic and validated against finite
differences. The forward and backward cores are batch-first: training runs
them on minibatches, and eccc_forward runs the same forward for prediction.
With a prepared predictor (prepare_predictor), the prediction case, the
forward takes its small products row by row (core.row_products), so each row
of a batch has the bits it gets as a batch of one; without one it takes them
as one gemm over the batch, as training does.

Precision follows the correlation. The elementwise work on the (B, h, h)
maps (bias blend, logits, softmax, expectation marginals, dlogits and the
bias projection) runs in the dtype of the correlation's output: float32 when
the histogram transforms are complex64, as train_eccc builds them, and
float64 when they are complex128, as at inference, in evaluation and in the
test oracles. The decoded expectations, the losses and every gradient are
float64 either way, and so is all learnable state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .core import DualExposurePair, interp_matrix, row_products
from .convops import (
    corr_same_multi_fft,
    fft_flipped,
    fft_image,
    fft_size,
    grad_kernel_from_products,
    sobel_form,
    sobel_smoothness,
)
from .errors import DegenerateOutputError, DomainError
from .histogram import DEFAULT_BINS, bin_centers, build_histogram, unit_mass
from .mlp import (MlpParams, angular_loss_unit, init_mlp, mlp_backward, mlp_forward, mlp_forward_trace,
                  row_norms, tensor_shapes as mlp_tensor_shapes, unit_rows)

VARIANTS = ("both", "avg", "short", "long")
LAMBDA_BIAS = 0.01
LAMBDA_FILTER = 0.02
UPSAMPLE_FACTOR = 4
MLP_PREFIX = "mlp_"  # tensor-name prefix of the weighting network's tensors


@lru_cache(maxsize=None)
def _upsampler(bins: int, dtype=np.float64) -> np.ndarray:
    """(bins, bins/4) bilinear interpolation matrix r: r @ x @ r.T upsamples a
    stack of quarter-resolution maps, r.T @ y @ r is its adjoint. dtype is the
    precision of the maps it acts on (module docstring)."""
    r = interp_matrix(bins // UPSAMPLE_FACTOR, bins).astype(dtype, copy=False)
    r.flags.writeable = False
    return r


@lru_cache(maxsize=None)
def _smoothness_form(bins: int) -> np.ndarray:
    """sobel_form of the upsampler: the Sobel penalty of r @ x @ r.T as a
    quadratic form over the quarter-resolution map x, built on first use."""
    return sobel_form(_upsampler(bins))


def n_filters(variant: str) -> int:
    """Learned filters for a histogram input variant: one per histogram."""
    return 2 if variant == "both" else 1


def tensor_shapes(bins: int, variant: str, use_def: bool, n_biases: int, d_in: int) -> dict:
    """Shape of each tensor EcccParams.tensors names, in its order.

    Filters and the bias bank are stored at quarter resolution; the weighting
    network maps a d_in feature to n_biases logits. Without the feature path
    the model has one full-resolution bias and n_biases, d_in are unused.
    """
    h4 = bins // UPSAMPLE_FACTOR
    shapes = {"filters": (n_filters(variant), h4, h4)}
    if use_def:
        shapes["biases"] = (n_biases, h4, h4)
        for name, shape in mlp_tensor_shapes(d_in, n_biases).items():
            shapes[MLP_PREFIX + name] = shape
    else:
        shapes["full_bias"] = (bins, bins)
    return shapes


@dataclass
class EcccParams:
    """Learnable state of the estimator."""

    filters: np.ndarray                 # (n_filters, h/4, h/4)
    biases: Optional[np.ndarray]        # (n, h/4, h/4) when use_def
    full_bias: Optional[np.ndarray]     # (h, h) when not use_def
    mlp: Optional[MlpParams]            # feature -> n logits when use_def
    bins: int = DEFAULT_BINS
    variant: str = "both"
    use_def: bool = True

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise DomainError(f"unknown variant {self.variant!r}")
        expected = n_filters(self.variant)
        if self.filters.shape[0] != expected:
            raise DomainError(f"variant {self.variant} needs {expected} filter(s)")
        if self.use_def and (self.biases is None or self.mlp is None):
            raise DomainError("feature-driven model needs a bias bank and an MLP")
        if not self.use_def and self.full_bias is None:
            raise DomainError("model without the feature path needs a full bias")

    @property
    def n_filters(self) -> int:
        return self.filters.shape[0]

    @property
    def n_biases(self) -> int:
        return self.biases.shape[0] if self.biases is not None else 0

    def tensors(self) -> dict:
        out = {"filters": self.filters}
        if self.use_def:
            out["biases"] = self.biases
            for name, arr in self.mlp.tensors().items():
                out[MLP_PREFIX + name] = arr
        else:
            out["full_bias"] = self.full_bias
        return out

    @classmethod
    def from_tensors(cls, tensors: dict, bins: int, variant: str, use_def: bool) -> "EcccParams":
        """The model on the given arrays, keyed like tensors(); no copies."""
        mlp = None
        if use_def:
            mlp = MlpParams.from_tensors(
                {k[len(MLP_PREFIX):]: v for k, v in tensors.items() if k.startswith(MLP_PREFIX)}
            )
        return cls(
            filters=tensors["filters"],
            biases=tensors["biases"] if use_def else None,
            full_bias=None if use_def else tensors["full_bias"],
            mlp=mlp,
            bins=bins,
            variant=variant,
            use_def=use_def,
        )


def count_eccc_params(
    bins: int = DEFAULT_BINS,
    n: int = 20,
    variant: str = "both",
    use_def: bool = True,
    def_dim: int = 15,
) -> int:
    """Exact scalar parameter count for a configuration."""
    return sum(math.prod(shape) for shape in tensor_shapes(bins, variant, use_def, n, def_dim).values())


def init_eccc(
    bins: int = DEFAULT_BINS,
    n: int = 20,
    variant: str = "both",
    use_def: bool = True,
    def_dim: int = 15,
    seed: int = 0,
    biases: Optional[np.ndarray] = None,
) -> EcccParams:
    """Zero filters; bias bank zeroed unless an initialized bank is supplied."""
    shapes = tensor_shapes(bins, variant, use_def, n, def_dim)
    filters = np.zeros(shapes["filters"])
    if use_def:
        bank = np.zeros(shapes["biases"]) if biases is None else np.asarray(biases, dtype=np.float64).copy()
        if bank.shape != shapes["biases"]:
            raise DomainError(f"bias bank must have shape {shapes['biases']}")
        mlp = init_mlp(def_dim, n, seed)
        return EcccParams(filters, bank, None, mlp, bins, variant, use_def=True)
    return EcccParams(filters, None, np.zeros(shapes["full_bias"]), None, bins, variant, use_def=False)


# ============================================================
# Histogram assembly per variant
# ============================================================

def hists_for_chunk(longs: np.ndarray, shorts: np.ndarray, variant: str, bins: int, names=None) -> np.ndarray:
    """Unit-mass histogram stacks (N, J, h, h) of a chunk of pairs, whose
    frames are (N, 3, k) stacks, for the requested input variant: both
    holds the long and then the short frame's histogram, avg that of the
    elementwise mean of the two frames. One build_histogram call per frame
    kind.

    Each pair's stack has the bits it gets in a chunk of one. names, when
    given, label the pairs in the EmptyHistogramError an empty histogram
    raises.
    """
    if variant not in VARIANTS:
        raise DomainError(f"unknown variant {variant!r}")
    if variant == "avg":
        kinds = ((longs + shorts) / 2.0,)
    else:
        kinds = {"both": (longs, shorts), "long": (longs,), "short": (shorts,)}[variant]
    return unit_mass(np.stack([build_histogram(frames, bins) for frames in kinds], axis=1), names)


def hists_for_pair(pair: DualExposurePair, variant: str = "both", bins: int = DEFAULT_BINS,
                   names=None) -> np.ndarray:
    """Unit-mass histogram stack (J, h, h) of one pair: hists_for_chunk on a
    batch of one, whose frames go in as views."""
    longs, shorts = pair.long.as_matrix()[np.newaxis], pair.short.as_matrix()[np.newaxis]
    return hists_for_chunk(longs, shorts, variant, bins, names)[0]


# ============================================================
# Batched forward / backward cores
# ============================================================

def prepare_predictor(params: EcccParams) -> dict:
    """Precompute everything inference reuses across calls: the upsampled
    filters and their padded transforms."""
    h = params.bins
    r = _upsampler(h)
    f_up = r @ params.filters @ r.T
    f_kernels = fft_flipped(f_up, fft_size(h, h))
    return {"f_up": f_up, "f_kernels": f_kernels}


def _forward_batch(
    params: EcccParams,
    hists: Optional[np.ndarray] = None,
    defs: Optional[np.ndarray] = None,
    hists_fft: Optional[np.ndarray] = None,
    prepared: Optional[dict] = None,
) -> dict:
    """hists: (B, J, h, h) unit-mass; defs: (B, d) when the feature path is on.

    hists_fft may carry padded transforms (from convops.fft_image) computed
    once per dataset; the histograms themselves are then not needed. prepared
    (from prepare_predictor) skips the per-call filter work at inference and
    selects the prediction forward: the weighting network, the bias blend
    and the expectations take their products row by row, so every row has
    its batch-of-one bits, and the cache holds no trace for a backward pass.
    """
    h = params.bins
    if hists_fft is None:
        if hists is None:
            raise DomainError("either histograms or their transforms are required")
        if hists.ndim != 4 or hists.shape[1] != params.n_filters or hists.shape[-1] != h:
            raise DomainError("histogram stack does not match the model configuration")
        hists_fft = fft_image(hists, fft_size(h, h))
    elif hists_fft.ndim != 4 or hists_fft.shape[1] != params.n_filters:
        raise DomainError("histogram transform stack does not match the model configuration")
    r = _upsampler(h)
    batch = hists_fft.shape[0]

    # the small products (weighting network, bias blend, expectations):
    # row by row for prediction, one gemm over the batch for training
    if prepared is not None:
        conv = corr_same_multi_fft(hists_fft, prepared["f_up"], h, f_kernels=prepared["f_kernels"])
        product = row_products
    else:
        conv = corr_same_multi_fft(hists_fft, r @ params.filters @ r.T, h)
        product = np.matmul

    # the maps from here on stay in the correlation's precision
    dtype = conv.dtype
    cache = {"hists_fft": hists_fft}
    if params.use_def:
        if defs is None:
            raise DomainError("this model requires a feature vector")
        defs = np.atleast_2d(np.asarray(defs, dtype=np.float64))
        if defs.shape[1] != params.mlp.d_in:
            raise DomainError(f"feature length {defs.shape[1]} != expected {params.mlp.d_in}")
        if prepared is None:
            logits_w, cache["trace"] = mlp_forward_trace(params.mlp, defs)
        else:
            logits_w = mlp_forward(params.mlp, defs)
        logits_w = logits_w - logits_w.max(axis=1, keepdims=True)
        w = np.exp(logits_w)
        w /= w.sum(axis=1, keepdims=True)
        bank = params.biases
        b_small = product(w, bank.reshape(len(bank), -1)).reshape((batch,) + bank.shape[1:])
        r_map = _upsampler(h, dtype)
        b_up = r_map @ b_small.astype(dtype, copy=False) @ r_map.T
        cache.update({"w": w, "b_small": b_small, "b_up": b_up})
    else:
        b_up = params.full_bias.astype(dtype, copy=False)

    conv += b_up  # the logits
    flat = conv.reshape(batch, -1)
    flat -= flat.max(axis=1, keepdims=True)
    p = np.exp(flat, out=flat)
    p /= p.sum(axis=1, keepdims=True)
    p = p.reshape(batch, h, h)

    # expectations from the marginals of p, decoded in double precision
    centers = bin_centers(h)
    c = centers.astype(dtype, copy=False)
    lu = product(p.sum(axis=2), c).astype(np.float64)
    lv = product(p.sum(axis=1), c).astype(np.float64)
    direction = np.stack([np.exp(-lu), np.ones(batch), np.exp(-lv)], axis=1)
    cache.update({"p": p, "lu": lu, "lv": lv, "direction": direction, "centers": centers})
    return cache


def eccc_forward(
    params: EcccParams,
    hists: np.ndarray,
    defs: Optional[np.ndarray] = None,
    prepared: Optional[dict] = None,
) -> np.ndarray:
    """Unit-norm illuminant estimates (B, 3) for a (B, J, h, h) unit-mass
    histogram stack and, with the feature path on, its (B, d) features.

    With prepared (from prepare_predictor), each row has the bits it gets as
    a batch of one, whatever the batch; without it, the bits of a row depend
    on the batch it is in."""
    direction = _forward_batch(params, np.asarray(hists, dtype=np.float64), defs, prepared=prepared)["direction"]
    return direction / row_norms(direction)[:, np.newaxis]


def _backward_batch(params: EcccParams, cache: dict, gts: np.ndarray, out: Optional[dict] = None) -> tuple:
    """Mean loss over the batch and gradients for every parameter group:
    (loss, gradients keyed like params.tensors(), parts).

    loss per sample = angular error + S_B (bias smoothness) + S_F (filter
    smoothness); the filter term is shared across samples. Both penalties are
    Sobel energies of upsampled maps, taken as quadratic forms on the
    quarter-resolution maps (_smoothness_form), so their gradients join the
    quarter-resolution gradients directly. The full-bias variant takes S_B on
    its one full-resolution bias.

    With out (float64 C-contiguous arrays keyed and shaped like
    params.tensors(), such as AdamState.grads() views), each gradient is
    written into its array and out is returned as the gradients; without it,
    fresh arrays are.
    """
    if out is None:
        out = {k: np.empty_like(t) for k, t in params.tensors().items()}
    h = params.bins
    r = _upsampler(h)

    ang, dd, valid = angular_loss_unit(cache["direction"], unit_rows(gts))
    n_valid = int(np.count_nonzero(valid))
    if n_valid == 0:
        raise DegenerateOutputError("all decoded outputs in the batch are degenerate")
    scale = 1.0 / n_valid
    weight = valid.astype(np.float64) * scale

    form = _smoothness_form(h)
    if params.use_def:
        s_b, grad_b_pen = sobel_smoothness(cache["b_small"], form)
    else:
        s_b, grad_b_pen = sobel_smoothness(params.full_bias)
    s_f_each, grad_f_pen = sobel_smoothness(params.filters, form)
    s_f = float(s_f_each.sum())

    losses = ang + LAMBDA_BIAS * s_b + LAMBDA_FILTER * s_f
    mean_loss = float(np.nansum(losses * weight))

    dd = dd * scale  # invalid rows are already zero
    dlu = dd[:, 0] * (-np.exp(-cache["lu"]))
    dlv = dd[:, 2] * (-np.exp(-cache["lv"]))
    centers = cache["centers"]
    p = cache["p"]
    # softmax adjoint of the expectation in closed form: lu = Σ p c_i, so
    # dlogits = p ⊙ (dlu (c_i - lu) ⊕ dlv (c_j - lv)), two rank-one terms
    du = (dlu[:, None] * (centers - cache["lu"][:, None])).astype(p.dtype)
    dv = (dlv[:, None] * (centers - cache["lv"][:, None])).astype(p.dtype)
    dlogits = du[:, :, None] + dv[:, None, :]
    dlogits *= p

    # filters: correlation adjoint plus the shared smoothness penalty; the
    # flipped-dlogits transform is shared across filters
    f_dlogits = fft_flipped(dlogits, fft_size(h, h))
    df_up = grad_kernel_from_products(cache["hists_fft"] * f_dlogits[:, None], h, h)
    np.add(r.T @ df_up @ r, LAMBDA_FILTER * grad_f_pen, out=out["filters"])

    if params.use_def:
        r_map = _upsampler(h, p.dtype)
        db_small = r_map.T @ dlogits @ r_map + (LAMBDA_BIAS * weight)[:, None, None] * grad_b_pen
        db_flat = db_small.reshape(len(db_small), -1)
        w = cache["w"]
        np.matmul(w.T, db_flat, out=out["biases"].reshape(params.n_biases, -1))
        dw = db_flat @ params.biases.reshape(params.n_biases, -1).T
        dlogits_w = w * (dw - (w * dw).sum(axis=1, keepdims=True))
        mlp_backward(params.mlp, cache["trace"], dlogits_w,
                     out={k[len(MLP_PREFIX):]: g for k, g in out.items() if k.startswith(MLP_PREFIX)})
    else:
        np.add(dlogits.sum(axis=0), LAMBDA_BIAS * weight.sum() * grad_b_pen, out=out["full_bias"])

    parts = {
        "angular_mean": float(np.nansum(ang * weight)),
        "smooth_bias_mean": float(np.nansum(LAMBDA_BIAS * s_b * weight)),
        "smooth_filter": LAMBDA_FILTER * s_f,
        "n_valid": n_valid,
    }
    return mean_loss, out, parts
