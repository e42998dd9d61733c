"""Optimization stack: Adam, k-means, Von Kries augmentation, bias-bank
initialization, the training loops for both estimators, and prediction
ensembling.

Training is deterministic given a seed: data order, initialization and every
update are driven by one seeded generator, and reductions use numpy's
fixed-order kernels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import List, Optional

import numpy as np

from .convops import fft_image, fft_size
from .core import DualExposurePair, Illuminant, RawImage
from .eccc import EcccParams, _backward_batch, _forward_batch, init_eccc
from .errors import DomainError
from .histogram import CHROMA_MIN, CHROMA_MAX
from .mlp import MlpParams, angular_loss_batch, emlp_init, mlp_backward, mlp_forward_trace

# ============================================================
# Adam
# ============================================================

@dataclass
class AdamState:
    """Per-tensor first/second moments plus the shared step counter."""

    m: dict
    v: dict
    step: int = 0
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.0
    rejected: int = 0  # steps skipped because a gradient was non-finite


def adam_init(params: dict, lr: float, weight_decay: float = 0.0) -> AdamState:
    m = {k: np.zeros_like(p) for k, p in params.items()}
    v = {k: np.zeros_like(p) for k, p in params.items()}
    return AdamState(m=m, v=v, lr=lr, weight_decay=weight_decay)


def adam_step(state: AdamState, params: dict, grads: dict, lr: Optional[float] = None) -> bool:
    """One in-place update; returns False (and counts) on non-finite gradients.

    Weight decay is decoupled from the moment estimates.
    """
    for g in grads.values():
        if not np.all(np.isfinite(g)):
            state.rejected += 1
            return False
    rate = state.lr if lr is None else lr
    state.step += 1
    c1 = 1.0 - state.beta1 ** state.step
    c2 = 1.0 - state.beta2 ** state.step
    for k, p in params.items():
        g = grads[k]
        state.m[k] = state.beta1 * state.m[k] + (1.0 - state.beta1) * g
        state.v[k] = state.beta2 * state.v[k] + (1.0 - state.beta2) * (g * g)
        m_hat = state.m[k] / c1
        v_hat = state.v[k] / c2
        p -= rate * m_hat / (np.sqrt(v_hat) + state.eps)
        if state.weight_decay > 0.0:
            p -= rate * state.weight_decay * p
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


def kmeans(features: np.ndarray, k: int, seed: int = 0, max_iter: int = 100) -> ClusterModel:
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
    for _ in range(max_iter):
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
    old = old_gt.as_array() if isinstance(old_gt, Illuminant) else np.asarray(old_gt, dtype=np.float64)
    new = new_gt.as_array() if isinstance(new_gt, Illuminant) else np.asarray(new_gt, dtype=np.float64)
    if np.any(old <= 0.0) or np.any(new <= 0.0):
        raise DomainError("Von Kries transfer needs strictly positive illuminants")
    return (new / new[1]) / (old / old[1])


def relight_pair(pair: DualExposurePair, new_gt) -> DualExposurePair:
    """Apply the Von Kries diagonal to both frames and clip to [0, 1]."""
    if pair.ground_truth is None:
        raise DomainError("augmentation needs a ground-truth illuminant")
    gains = von_kries_gains(pair.ground_truth, new_gt)[:, None, None]
    new_ill = new_gt if isinstance(new_gt, Illuminant) else Illuminant.from_array(new_gt)
    return DualExposurePair(
        long=RawImage(np.clip(pair.long.data * gains, 0.0, 1.0)),
        short=RawImage(np.clip(pair.short.data * gains, 0.0, 1.0)),
        exposure_factor=pair.exposure_factor,
        ground_truth=new_ill.normalized(),
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
    h4 = bins // 4
    eps4 = (CHROMA_MAX - CHROMA_MIN) / h4
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

@dataclass(frozen=True)
class TrainConfig:
    model: str = "emlp"               # "emlp" | "eccc"
    epochs: int = 0                   # 0 picks the model default (1000 / 200)
    batch_size: int = 32              # emlp only; eccc grows 16 -> 32 -> 64 at epoch thirds
    lr: float = 0.0                   # 0 picks the model default (1e-3 / 5e-3)
    weight_decay: float = -1.0        # <0 picks the model default (0 / 1e-5)
    seed: int = 0
    # eccc knobs
    n_biases: int = 20
    hist_bins: int = 64
    variant: str = "both"
    use_def: bool = True
    bias_init: bool = True

    def resolved(self) -> "TrainConfig":
        if self.model == "emlp":
            return replace(
                self,
                epochs=self.epochs or 1000,
                lr=self.lr or 1e-3,
                weight_decay=self.weight_decay if self.weight_decay >= 0 else 0.0,
            )
        if self.model == "eccc":
            return replace(
                self,
                epochs=self.epochs or 200,
                lr=self.lr or 5e-3,
                weight_decay=self.weight_decay if self.weight_decay >= 0 else 1e-5,
            )
        raise DomainError(f"unknown model {self.model!r}")


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
    tensors: dict
    log: List[TrainLogRow]
    aborted: bool = False  # non-finite loss forced a stop at the last good state
    skipped_steps: int = 0


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
    params: Optional[MlpParams] = None,
) -> tuple:
    """Train the MLP estimator on precomputed features; returns (params, result)."""
    cfg = cfg.resolved()
    x = np.asarray(features, dtype=np.float64)
    g = np.asarray(gts, dtype=np.float64)
    if len(x) == 0:
        raise DomainError("training set is empty")
    if params is None:
        params = emlp_init(d_in=x.shape[1], seed=cfg.seed)
    tensors = params.tensors()
    state = adam_init(tensors, lr=cfg.lr, weight_decay=cfg.weight_decay)
    rng = np.random.default_rng(cfg.seed)
    log: List[TrainLogRow] = []
    last_good = params.copy()
    skipped = 0
    aborted = False
    n = len(x)
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        sum_loss = 0.0
        count = 0
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            raw, trace = mlp_forward_trace(params, x[idx])
            loss, draw, valid = angular_loss_batch(raw, g[idx])
            n_valid = int(np.count_nonzero(valid))
            if n_valid == 0:
                skipped += 1
                continue
            grads, _ = mlp_backward(params, trace, draw / n_valid)
            if not adam_step(state, tensors, grads):
                skipped += 1
                continue
            sum_loss += float(np.nansum(loss))
            count += n_valid
        mean_loss = sum_loss / count if count else float("nan")
        log.append(TrainLogRow(epoch, "train", mean_loss, 0.0, cfg.lr, cfg.batch_size))
        if not np.isfinite(mean_loss) and count:
            params = last_good
            aborted = True
            break
        last_good = params.copy()
    return params, TrainResult(params.tensors(), log, aborted, skipped)


def train_eccc(
    hists: np.ndarray,
    features: Optional[np.ndarray],
    gts: np.ndarray,
    cfg: TrainConfig,
    params: Optional[EcccParams] = None,
) -> tuple:
    """Train the convolutional estimator on precomputed unit-mass histograms.

    hists: (N, J, h, h); features: (N, d) or None when use_def is off.
    """
    cfg = cfg.resolved()
    g = np.asarray(gts, dtype=np.float64)
    n = len(g)
    if n == 0:
        raise DomainError("training set is empty")
    if params is None:
        bank = None
        if cfg.use_def and cfg.bias_init:
            bank, _ = init_eccc_biases(features, g, cfg.n_biases, cfg.hist_bins, seed=cfg.seed)
        params = init_eccc(
            bins=cfg.hist_bins,
            n=cfg.n_biases,
            variant=cfg.variant,
            use_def=cfg.use_def,
            def_dim=features.shape[1] if features is not None else 15,
            seed=cfg.seed,
            biases=bank,
        )
    tensors = params.tensors()
    state = adam_init(tensors, lr=cfg.lr, weight_decay=cfg.weight_decay)
    rng = np.random.default_rng(cfg.seed)
    log: List[TrainLogRow] = []
    last_good = params.copy()
    skipped = 0
    aborted = False
    feats = None if features is None else np.asarray(features, dtype=np.float64)
    # histograms never change during a run, so transform them once; single
    # precision halves the cache and the per-step transform cost
    hists_fft = fft_image(np.asarray(hists, dtype=np.float32), fft_size(cfg.hist_bins, cfg.hist_bins))
    for epoch in range(cfg.epochs):
        lr = cosine_lr(cfg.lr, epoch, cfg.epochs)
        bs = _eccc_batch_size(epoch, cfg.epochs)
        order = rng.permutation(n)
        sum_loss = 0.0
        sum_smooth = 0.0
        batches = 0
        for start_i in range(0, n, bs):
            idx = order[start_i:start_i + bs]
            cache = _forward_batch(
                params,
                defs=None if feats is None else feats[idx],
                hists_fft=hists_fft[idx],
            )
            loss, grads, parts = _backward_batch(params, cache, g[idx])
            if not adam_step(state, tensors, grads, lr=lr):
                skipped += 1
                continue
            sum_loss += loss
            sum_smooth += parts["smooth_bias_mean"] + parts["smooth_filter"]
            batches += 1
        mean_loss = sum_loss / batches if batches else float("nan")
        mean_smooth = sum_smooth / batches if batches else float("nan")
        log.append(TrainLogRow(epoch, "train", mean_loss, mean_smooth, lr, bs))
        if not np.isfinite(mean_loss) and batches:
            params = last_good
            aborted = True
            break
        last_good = params.copy()
    return params, TrainResult(params.tensors(), log, aborted, skipped)


# ============================================================
# Ensembling
# ============================================================

def ensemble(a, b) -> Illuminant:
    """Mean of two unit predictions, renormalized."""
    va = a.as_array() if isinstance(a, Illuminant) else np.asarray(a, dtype=np.float64)
    vb = b.as_array() if isinstance(b, Illuminant) else np.asarray(b, dtype=np.float64)
    mean = (va / np.linalg.norm(va) + vb / np.linalg.norm(vb)) / 2.0
    norm = np.linalg.norm(mean)
    if norm < 1e-12:
        raise DomainError("cannot ensemble antipodal predictions")
    return Illuminant.from_array(mean / norm)
