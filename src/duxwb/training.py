"""Optimization stack: Adam, k-means, Von Kries augmentation, bias-bank
initialization, training for both estimators, and prediction ensembling.

Both estimators train through one minibatch loop (_train); train_emlp and
train_eccc supply only their set-up, their per-epoch rate and batch size, and
their per-batch step. Adam owns the parameters as one flat vector and the
model computes on views of it. After each finite epoch the loop copies that
vector; an epoch whose mean loss is not finite ends the run, and the copy is
written back in place, so the returned model holds the last good epoch.

Training is deterministic given a seed: data order, initialization and every
update are driven by one seeded generator, and reductions use numpy's
fixed-order kernels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, List, Optional

import numpy as np

from .convops import fft_image, fft_size
from .core import DualExposurePair, Illuminant, RawImage, _as_vec3, row_norms
from .eccc import UPSAMPLE_FACTOR, EcccParams, _backward_batch, _forward_batch, init_eccc
from .errors import DomainError
from .histogram import CHROMA_MIN, DEFAULT_BINS, bin_width
from .mlp import MlpParams, angular_loss_unit, emlp_init, mlp_backward, mlp_forward_trace, unit_rows

# ============================================================
# Adam
# ============================================================

# Kingma and Ba's defaults: moment decay rates and the denominator's epsilon
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """Adam's state, including the parameters it trains.

    Adam owns the parameters: adam_init copies the given tensors into one flat
    float64 vector, and tensors() hands out per-tensor views of it for the
    model to compute with. Both moments are flat vectors over the same
    layout. Adam and decoupled weight decay are elementwise, so each update
    is a handful of whole-vector operations whatever the tensor count.
    """

    params: np.ndarray
    m: np.ndarray
    v: np.ndarray
    layout: dict  # tensor name -> (slice, shape), in the params dict's order
    step: int = 0
    weight_decay: float = 0.0
    rejected: int = 0  # steps skipped because a gradient was non-finite

    def tensors(self) -> dict:
        """Views of the flat parameter vector, keyed and shaped like adam_init's input."""
        return {k: self.params[sl].reshape(shape) for k, (sl, shape) in self.layout.items()}


def adam_init(params: dict, weight_decay: float = 0.0) -> AdamState:
    """State for training `params` (name -> array); the arrays are copied, not updated."""
    layout, n = {}, 0
    for k, p in params.items():
        layout[k] = (slice(n, n + p.size), p.shape)
        n += p.size
    flat = np.empty(n)
    for k, (sl, _) in layout.items():
        flat[sl] = np.ravel(params[k])
    return AdamState(params=flat, m=np.zeros(n), v=np.zeros(n), layout=layout, weight_decay=weight_decay)


def adam_step(state: AdamState, grads: dict, lr: float) -> bool:
    """One in-place update of state.params at rate lr; returns False (and counts) on non-finite gradients.

    Weight decay is decoupled from the moment estimates.
    """
    g = np.concatenate([grads[k] for k in state.layout], axis=None)
    if not np.isfinite(g).all():
        state.rejected += 1
        return False
    state.step += 1
    c1 = 1.0 - ADAM_BETA1 ** state.step
    c2 = 1.0 - ADAM_BETA2 ** state.step
    state.m = ADAM_BETA1 * state.m + (1.0 - ADAM_BETA1) * g
    state.v = ADAM_BETA2 * state.v + (1.0 - ADAM_BETA2) * (g * g)
    state.params -= lr * (state.m / c1) / (np.sqrt(state.v / c2) + ADAM_EPS)
    if state.weight_decay > 0.0:
        state.params -= lr * state.weight_decay * state.params
    return True


def cosine_lr(base_lr: float, epoch: int, total_epochs: int) -> float:
    """Cosine annealing from base_lr to 0 across the run."""
    if total_epochs <= 1:
        return base_lr
    return 0.5 * base_lr * (1.0 + math.cos(math.pi * epoch / (total_epochs - 1)))


# ============================================================
# K-means (Lloyd's algorithm, k-means++ seeding)
# ============================================================

@dataclass
class ClusterModel:
    centroids: np.ndarray  # (k, d)
    labels: np.ndarray     # (n,) assignment of the training features
    inertia: float
    inertia_history: list = None  # per-iteration inertia, non-increasing


def _pairwise_sq(features: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    return ((features[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)


KMEANS_MAX_ITER = 100


def kmeans(features: np.ndarray, k: int, seed: int = 0) -> ClusterModel:
    """Deterministic Lloyd iteration; empty clusters re-seed from the farthest point."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2:
        x = x.reshape(len(x), -1)
    n = x.shape[0]
    if k < 1:
        raise DomainError("k must be at least 1")
    if n < k:
        raise DomainError(f"need at least {k} feature vectors, got {n}")
    rng = np.random.default_rng(seed)

    # k-means++ seeding
    centroids = np.empty((k, x.shape[1]))
    centroids[0] = x[rng.integers(n)]
    closest = ((x - centroids[0]) ** 2).sum(axis=1)
    for i in range(1, k):
        total = closest.sum()
        if total <= 0.0:
            centroids[i] = x[rng.integers(n)]
        else:
            probs = closest / total
            centroids[i] = x[rng.choice(n, p=probs)]
        closest = np.minimum(closest, ((x - centroids[i]) ** 2).sum(axis=1))

    labels = np.zeros(n, dtype=np.int64)
    inertia = np.inf
    history = []
    for _ in range(KMEANS_MAX_ITER):
        d2 = _pairwise_sq(x, centroids)
        labels = d2.argmin(axis=1)
        new_inertia = float(d2[np.arange(n), labels].sum())
        history.append(new_inertia)
        new_centroids = centroids.copy()
        for c in range(k):
            members = labels == c
            if np.any(members):
                new_centroids[c] = x[members].mean(axis=0)
            else:
                far = int(d2[np.arange(n), labels].argmax())
                new_centroids[c] = x[far]
        if new_inertia >= inertia - 1e-12 and np.allclose(new_centroids, centroids):
            inertia = new_inertia
            break
        centroids = new_centroids
        inertia = new_inertia
    d2 = _pairwise_sq(x, centroids)
    labels = d2.argmin(axis=1)
    inertia = float(d2[np.arange(n), labels].sum())
    history.append(inertia)
    return ClusterModel(centroids=centroids, labels=labels, inertia=inertia, inertia_history=history)


# ============================================================
# Von Kries augmentation
# ============================================================

def von_kries_gains(old_gt, new_gt) -> np.ndarray:
    """Per-channel gains swapping old_gt for new_gt, normalized to G = 1."""
    old, new = _as_vec3(old_gt), _as_vec3(new_gt)
    if np.any(old <= 0.0) or np.any(new <= 0.0):
        raise DomainError("Von Kries transfer needs strictly positive illuminants")
    return (new / new[1]) / (old / old[1])


def relight_pair(pair: DualExposurePair, new_gt) -> DualExposurePair:
    """Apply the Von Kries diagonal to both frames and clip to [0, 1]."""
    if pair.ground_truth is None:
        raise DomainError("augmentation needs a ground-truth illuminant")
    new = _as_vec3(new_gt)
    gains = von_kries_gains(pair.ground_truth, new)[:, None, None]
    return DualExposurePair(
        long=RawImage(np.clip(pair.long.data * gains, 0.0, 1.0)),
        short=RawImage(np.clip(pair.short.data * gains, 0.0, 1.0)),
        exposure_factor=pair.exposure_factor,
        ground_truth=Illuminant.from_array(new).normalized(),
    )


# ============================================================
# ECCC bias initialization
# ============================================================

_DIAMOND = ((0, 0), (-1, 0), (1, 0), (0, -1), (0, 1))


def dilate_diamond(grid: np.ndarray) -> np.ndarray:
    """Morphological dilation with the 3x3 diamond (center + 4-neighborhood)."""
    g = np.asarray(grid, dtype=np.float64)
    padded = np.pad(g, 1, mode="constant")
    h, w = g.shape
    out = g.copy()
    for dy, dx in _DIAMOND:
        out = np.maximum(out, padded[1 + dy:1 + dy + h, 1 + dx:1 + dx + w])
    return out


def init_eccc_biases(train_defs: np.ndarray, train_gts: np.ndarray, n: int, bins: int, seed: int = 0):
    """Bias bank from per-cluster histograms of ground-truth illuminant chroma.

    Features are clustered with k-means; each cluster's member illuminants are
    binned at quarter resolution, dilated with the 3x3 diamond, and peak-
    normalized. Clusters that end up empty get a small uniform map.
    """
    defs = np.asarray(train_defs, dtype=np.float64)
    gts = np.asarray(train_gts, dtype=np.float64)
    model = kmeans(defs, n, seed=seed)
    h4 = bins // UPSAMPLE_FACTOR
    eps4 = bin_width(h4)
    u = np.log(gts[:, 1] / gts[:, 0])
    v = np.log(gts[:, 1] / gts[:, 2])
    iu = np.clip(np.floor((u - CHROMA_MIN) / eps4).astype(np.int64), 0, h4 - 1)
    iv = np.clip(np.floor((v - CHROMA_MIN) / eps4).astype(np.int64), 0, h4 - 1)
    bank = np.empty((n, h4, h4))
    for c in range(n):
        members = model.labels == c
        if not np.any(members):
            bank[c] = np.full((h4, h4), 0.01)
            continue
        grid = np.bincount(iu[members] * h4 + iv[members], minlength=h4 * h4).reshape(h4, h4).astype(np.float64)
        grid = dilate_diamond(grid)
        bank[c] = grid / grid.max()
    return bank, model


# ============================================================
# Training configuration and loops
# ============================================================

# What TrainConfig's sentinels (0 epochs, 0 lr) stand for, and each model's
# decoupled weight decay.
MODEL_DEFAULTS = {
    "emlp": {"epochs": 1000, "lr": 1e-3, "weight_decay": 0.0},
    "eccc": {"epochs": 200, "lr": 5e-3, "weight_decay": 1e-5},
}


@dataclass(frozen=True)
class TrainConfig:
    model: str = "emlp"               # "emlp" | "eccc"
    epochs: int = 0                   # 0 picks MODEL_DEFAULTS[model]
    lr: float = 0.0                   # 0 picks MODEL_DEFAULTS[model]
    seed: int = 0
    # eccc knobs
    n_biases: int = 20
    hist_bins: int = DEFAULT_BINS
    variant: str = "both"
    use_def: bool = True
    bias_init: bool = True

    def resolved(self) -> "TrainConfig":
        if self.model not in MODEL_DEFAULTS:
            raise DomainError(f"unknown model {self.model!r}")
        d = MODEL_DEFAULTS[self.model]
        return replace(self, epochs=self.epochs or d["epochs"], lr=self.lr or d["lr"])


@dataclass
class TrainLogRow:
    epoch: int
    split: str
    loss_mean_deg: float
    smoothness_terms: float
    lr: float
    batch_size: int


@dataclass
class TrainResult:
    log: List[TrainLogRow]
    aborted: bool = False  # non-finite loss forced a stop at the last good state
    skipped_steps: int = 0


def _train(state: AdamState, n: int, schedule: list, step: Callable, seed: int) -> TrainResult:
    """Minibatch Adam over n samples, one epoch per (lr, batch size) in schedule.

    Each epoch draws a permutation; step(batch indices) returns (gradients,
    loss sum, weight, smoothness sum), or None to skip the batch, which is
    also skipped when Adam rejects its gradients. The epoch logs its loss and
    smoothness sums divided by its summed weight. An epoch that has weight and
    a non-finite mean loss ends the run, with state.params restored in place
    to the end of the last good epoch.
    """
    rng = np.random.default_rng(seed)
    log: List[TrainLogRow] = []
    last_good = state.params.copy()
    skipped = 0
    for epoch, (lr, bs) in enumerate(schedule):
        order = rng.permutation(n)
        sum_loss = sum_smooth = 0.0
        weight = 0
        for start in range(0, n, bs):
            out = step(order[start:start + bs])
            if out is None or not adam_step(state, out[0], lr):
                skipped += 1
                continue
            sum_loss += out[1]
            weight += out[2]
            sum_smooth += out[3]
        mean_loss = sum_loss / weight if weight else float("nan")
        mean_smooth = sum_smooth / weight if weight else float("nan")
        log.append(TrainLogRow(epoch, "train", mean_loss, mean_smooth, lr, bs))
        if weight and not np.isfinite(mean_loss):
            state.params[:] = last_good
            return TrainResult(log, aborted=True, skipped_steps=skipped)
        last_good[:] = state.params
    return TrainResult(log, aborted=False, skipped_steps=skipped)


EMLP_BATCH_SIZE = 32


def _eccc_batch_size(epoch: int, epochs: int) -> int:
    """ECCC batch size: 16 -> 32 -> 64 at epoch thirds."""
    third = epochs / 3.0
    if epoch < third:
        return 16
    if epoch < 2 * third:
        return 32
    return 64


def train_emlp(
    features: np.ndarray,
    gts: np.ndarray,
    cfg: TrainConfig,
) -> tuple:
    """Train the MLP estimator on precomputed features; returns (params, result).

    The returned params are views of the optimizer's flat vector. Rate and
    batch size are constant; the loss is the mean over valid rows.
    """
    cfg = cfg.resolved()
    x = np.asarray(features, dtype=np.float64)
    if len(x) == 0:
        raise DomainError("training set is empty")
    ghat = unit_rows(gts)  # row norms do not depend on the batch
    params = emlp_init(d_in=x.shape[1], seed=cfg.seed)
    state = adam_init(params.tensors(), weight_decay=MODEL_DEFAULTS[cfg.model]["weight_decay"])
    params = MlpParams.from_tensors(state.tensors())

    def step(idx):
        raw, trace = mlp_forward_trace(params, x[idx])
        loss, draw, valid = angular_loss_unit(raw, ghat[idx])
        n_valid = int(np.count_nonzero(valid))
        if n_valid == 0:
            return None
        grads = mlp_backward(params, trace, draw / n_valid)
        return grads, float(loss.sum() if n_valid == len(loss) else np.nansum(loss)), n_valid, 0.0

    return params, _train(state, len(x), [(cfg.lr, EMLP_BATCH_SIZE)] * cfg.epochs, step, cfg.seed)


def train_eccc(
    hists: np.ndarray,
    features: Optional[np.ndarray],
    gts: np.ndarray,
    cfg: TrainConfig,
) -> tuple:
    """Train the convolutional estimator on precomputed unit-mass histograms.

    hists: (N, J, h, h); features: (N, d) or None when use_def is off. The
    rate anneals on a cosine and the batch grows 16 -> 32 -> 64; the loss is
    the mean over batches.
    """
    cfg = cfg.resolved()
    g = np.asarray(gts, dtype=np.float64)
    n = len(g)
    if n == 0:
        raise DomainError("training set is empty")
    feats = None if features is None else np.asarray(features, dtype=np.float64)
    if cfg.use_def and feats is None:
        raise DomainError("the feature path (use_def) needs features")
    bank = None
    if cfg.use_def and cfg.bias_init:
        bank, _ = init_eccc_biases(feats, g, cfg.n_biases, cfg.hist_bins, seed=cfg.seed)
    params = init_eccc(
        bins=cfg.hist_bins,
        n=cfg.n_biases,
        variant=cfg.variant,
        use_def=cfg.use_def,
        def_dim=feats.shape[1] if cfg.use_def else 0,  # unused without the feature path
        seed=cfg.seed,
        biases=bank,
    )
    state = adam_init(params.tensors(), weight_decay=MODEL_DEFAULTS[cfg.model]["weight_decay"])
    params = EcccParams.from_tensors(state.tensors(), params.bins, params.variant, params.use_def)
    # histograms never change during a run, so transform them once; single
    # precision halves the cache and the per-step transform cost
    hists_fft = fft_image(np.asarray(hists, dtype=np.float32), fft_size(cfg.hist_bins, cfg.hist_bins))

    def step(idx):
        cache = _forward_batch(params, defs=None if feats is None else feats[idx], hists_fft=hists_fft[idx])
        loss, grads, parts = _backward_batch(params, cache, g[idx])
        return grads, loss, 1, parts["smooth_bias_mean"] + parts["smooth_filter"]

    schedule = [(cosine_lr(cfg.lr, e, cfg.epochs), _eccc_batch_size(e, cfg.epochs)) for e in range(cfg.epochs)]
    return params, _train(state, n, schedule, step, cfg.seed)


# ============================================================
# Ensembling
# ============================================================

def ensemble(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise mean of two (N, 3) prediction stacks, each row scaled to unit
    norm first, renormalised; each row has the bits of its pair alone."""
    mean = (a / row_norms(a)[:, np.newaxis] + b / row_norms(b)[:, np.newaxis]) / 2.0
    norm = row_norms(mean)
    if np.any(norm < 1e-12):
        raise DomainError("cannot ensemble antipodal predictions")
    return mean / norm[:, np.newaxis]
