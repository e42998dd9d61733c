"""Bundle a trained estimator with the feature/exposure configuration it was
trained under, and move the bundle through the shared checkpoint format.

ModelBundle.predict(chunk) is the one chunk prediction path: the (N, 3) unit
estimates of a pipeline.PairChunk, whose features are computed once for the
whole chunk, from one estimator call. predict_pair estimates one in-memory
pair as a batch of one. The prediction forwards take every product row by
row (core.row_products), so a pair's estimate has the same bits in any chunk
and in `duxwb infer`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

from .checkpoint import load_checkpoint, save_checkpoint
from .core import DualExposurePair, Illuminant, check_illuminants
from .def_feature import DefConfig, compute_def
from .eccc import (VARIANTS, EcccParams, eccc_forward, hists_for_pair, prepare_predictor,
                   tensor_shapes as eccc_tensor_shapes)
from .errors import DataError, DomainError
from .mlp import LEAKY_SLOPE, MlpParams, emlp_forward, tensor_shapes as mlp_tensor_shapes
from .training import TrainConfig, ensemble


@dataclass
class ModelBundle:
    kind: str  # "emlp" | "eccc"
    def_cfg: DefConfig
    e: int
    emlp: Optional[MlpParams] = None
    eccc: Optional[EcccParams] = None
    _prepared: Optional[dict] = field(default=None, init=False, repr=False, compare=False)

    @property
    def uses_def(self) -> bool:
        return self.kind == "emlp" or self.eccc.use_def

    def predict_pair(self, pair: DualExposurePair) -> Illuminant:
        """Estimate the illuminant of a pair. The estimators are batch-first;
        the pair runs as a batch of one."""
        defs = compute_def(pair, self.def_cfg).values[np.newaxis] if self.uses_def else None
        hists = hists_for_pair(pair, self.eccc.variant, self.eccc.bins)[np.newaxis] if self.kind == "eccc" else None
        return Illuminant.from_array(self._forward(defs, hists)[0])

    def predict(self, chunk) -> np.ndarray:
        """(N, 3) unit-norm estimates for a pipeline.PairChunk, whose features
        are computed once for the whole chunk, from one estimator call over
        the whole chunk. Every row has predict_pair's bits: the prediction
        forwards take each product row by row, since a gemm over many rows
        rounds differently from the product over one."""
        defs = chunk.defs(self.def_cfg) if self.uses_def else None
        hists = chunk.hists(self.eccc.variant, self.eccc.bins) if self.kind == "eccc" else None
        return check_illuminants(self._forward(defs, hists), chunk.ids)

    def _forward(self, defs: Optional[np.ndarray], hists: Optional[np.ndarray]) -> np.ndarray:
        if self.kind == "emlp":
            return emlp_forward(self.emlp, defs)
        if self._prepared is None:
            self._prepared = prepare_predictor(self.eccc)
        return eccc_forward(self.eccc, hists, defs, prepared=self._prepared)


_DEF_PREFIX = "def_"
# Settings that older checkpoints record and the model no longer has: key ->
# (the one value the code still computes with, what another value means).
# Each loads only at that value; a re-save drops it.
_RETIRED_META = {
    "def_map_direction": ("short_to_long", "a different feature"),
    "def_tm_extended": (False, "a different feature"),
    "leaky_slope": (LEAKY_SLOPE, "a different activation"),
}


def _def_meta(cfg: DefConfig) -> dict:
    return {_DEF_PREFIX + f.name: getattr(cfg, f.name) for f in fields(DefConfig)}


def _def_from_meta(meta: dict) -> DefConfig:
    """DefConfig from checkpoint metadata; a missing key keeps the field default.

    Each key holds the JSON kind of its field's default (a float field takes
    any JSON number, a bool never) and a value DefConfig accepts on its own.
    """
    known = {_DEF_PREFIX + f.name for f in fields(DefConfig)} | _RETIRED_META.keys()
    unknown = sorted(k for k in meta if k.startswith(_DEF_PREFIX) and k not in known)
    if unknown:
        raise DataError("unknown feature settings in checkpoint: " + ", ".join(unknown))
    values = {}
    for f in fields(DefConfig):
        key = _DEF_PREFIX + f.name
        kinds = (int, float) if type(f.default) is float else (type(f.default),)
        value = _meta_value(meta, key, f.default, *kinds)
        try:
            DefConfig(**{f.name: value})
        except DomainError as exc:
            raise DataError(f"checkpoint metadata {key!r}: {exc}, got {value!r}") from exc
        values[f.name] = value
    return DefConfig(**values)


def _check_shapes(tensors: dict, expected: dict) -> None:
    for name, shape in expected.items():
        if name not in tensors:
            raise DataError(f"checkpoint has no tensor {name!r}")
        if tensors[name].shape != shape:
            raise DataError(f"tensor {name!r} has shape {tensors[name].shape}, metadata implies {shape}")


def _meta_value(meta: dict, key: str, default, *kinds: type):
    """meta[key] (default when absent), which must be a JSON value of one of
    kinds: int excludes booleans, and nothing is converted."""
    value = meta.get(key, default)
    if type(value) not in kinds:
        names = " or ".join(kind.__name__ for kind in kinds)
        raise DataError(f"checkpoint metadata {key!r} must be {names}, got {value!r}")
    return value


def _check_retired(meta: dict) -> None:
    """Each retired setting the metadata records must hold its one value."""
    for key, (only, other) in _RETIRED_META.items():
        if key in meta and _meta_value(meta, key, only, type(only)) != only:
            raise DataError(f"checkpoint metadata {key!r} must be {json.dumps(only)}: "
                            f"the model was trained with {other}, got {meta[key]!r}")


def save_model(path: str, bundle: ModelBundle) -> None:
    meta = {"e": bundle.e}
    meta.update(_def_meta(bundle.def_cfg))
    if bundle.kind == "emlp":
        save_checkpoint(path, "emlp", bundle.emlp.tensors(), meta)
        return
    p = bundle.eccc
    meta.update(
        {
            "bins": p.bins,
            "n_biases": p.n_biases,
            "variant": p.variant,
            "use_def": p.use_def,
        }
    )
    save_checkpoint(path, "eccc", p.tensors(), meta)


def load_model(path: str) -> ModelBundle:
    kind, tensors, meta = load_checkpoint(path)
    _check_retired(meta)
    def_cfg = _def_from_meta(meta)
    e = _meta_value(meta, "e", 8, int)
    if e < 2:  # an exposure factor must exceed 1
        raise DataError(f"checkpoint metadata 'e' must be an integer of at least 2, got {e!r}")
    if kind == "emlp":
        _check_shapes(tensors, mlp_tensor_shapes(def_cfg.feature_length, 3))
        params = MlpParams.from_tensors(tensors)
        return ModelBundle(kind="emlp", def_cfg=def_cfg, e=e, emlp=params)
    if kind == "eccc":
        defaults = TrainConfig()
        use_def = _meta_value(meta, "use_def", defaults.use_def, bool)
        bins = _meta_value(meta, "bins", defaults.hist_bins, int)
        variant = _meta_value(meta, "variant", defaults.variant, str)
        if variant not in VARIANTS:
            raise DataError(f"checkpoint metadata 'variant' must be one of {', '.join(VARIANTS)}, got {variant!r}")
        n = _meta_value(meta, "n_biases", defaults.n_biases, int)
        _check_shapes(tensors, eccc_tensor_shapes(bins, variant, use_def, n, def_cfg.feature_length))
        params = EcccParams.from_tensors(tensors, bins, variant, use_def)
        return ModelBundle(kind="eccc", def_cfg=def_cfg, e=e, eccc=params)
    raise DataError(f"unknown checkpoint kind {kind!r}")


def ensemble_predict(a: ModelBundle, b: ModelBundle, pair: DualExposurePair) -> Illuminant:
    """Renormalised mean of both estimates, formed as ensemble-eval forms it:
    the pair is a chunk of one, which computes each feature once per setting,
    and both bundles predict it."""
    from .pipeline import PairChunk  # loaded here, so inference imports stay few

    chunk = PairChunk.from_pairs(["pair"], [pair])
    return Illuminant.from_array(ensemble(a.predict(chunk), b.predict(chunk))[0])
