"""Checkpoint format shared by both estimators.

A checkpoint is a pair of files: a text manifest at the given path listing
tensor names, shapes, dtype, and byte offsets, plus metadata lines; and a
little-endian float32 blob alongside it (same name with ``.bin`` appended).
Values are stored as float32, so load(save(p)) is bitwise exact whenever the
parameters are float32-representable, and save(load(path)) always reproduces
the files byte for byte. Loading rejects a repeated tensor name and a blob
that the tensors, in offset order, do not tile exactly.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Tuple

import numpy as np

from .errors import DataError

FORMAT_LINE = "DUXWB-CKPT 1"


def save_checkpoint(path: str, kind: str, tensors: Dict[str, np.ndarray], meta: Dict) -> None:
    blob_path = path + ".bin"
    lines = [FORMAT_LINE, f"kind {kind}", f"blob {os.path.basename(blob_path)}"]
    for key in sorted(meta):
        lines.append(f"meta {key} {json.dumps(meta[key])}")
    offset = 0
    payload = bytearray()
    for name, arr in tensors.items():
        data = np.ascontiguousarray(arr, dtype="<f4")
        dims = " ".join(str(d) for d in data.shape)
        lines.append(f"tensor {name} f32 {offset} {dims}")
        payload.extend(data.tobytes())
        offset += data.nbytes
    with open(blob_path, "wb") as fh:
        fh.write(bytes(payload))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_checkpoint(path: str) -> Tuple[str, Dict[str, np.ndarray], Dict]:
    """Returns (kind, tensors as float64, meta)."""
    if not os.path.isfile(path):
        raise DataError(f"no checkpoint at {path}")
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    if not lines or lines[0] != FORMAT_LINE:
        raise DataError(f"{path}: not a checkpoint manifest")
    kind = ""
    blob_name = ""
    meta: Dict = {}
    specs: Dict[str, Tuple[int, tuple]] = {}
    for ln in lines[1:]:
        if not ln:
            continue
        tag, _, rest = ln.partition(" ")
        if tag == "kind":
            kind = rest
        elif tag == "blob":
            blob_name = rest
        elif tag == "meta":
            key, _, value = rest.partition(" ")
            meta[key] = json.loads(value)
        elif tag == "tensor":
            parts = rest.split()
            name, dtype, offset = parts[0], parts[1], int(parts[2])
            shape = tuple(int(d) for d in parts[3:])
            if dtype != "f32":
                raise DataError(f"{path}: unsupported dtype {dtype}")
            if any(d < 0 for d in shape):
                raise DataError(f"{path}: tensor {name} has a negative dimension")
            if name in specs:
                raise DataError(f"{path}: duplicate tensor {name}")
            specs[name] = (offset, shape)
        else:
            raise DataError(f"{path}: unknown manifest line {ln!r}")
    if not kind or not blob_name:
        raise DataError(f"{path}: manifest missing kind or blob reference")
    blob_path = os.path.join(os.path.dirname(path) or ".", blob_name)
    if not os.path.isfile(blob_path):
        raise DataError(f"missing checkpoint blob {blob_path}")
    with open(blob_path, "rb") as fh:
        blob = fh.read()
    # taken in offset order, the tensors must tile the blob exactly: no
    # overlap, no gap, nothing after the last one
    end = 0
    for offset, nbytes, name in sorted((o, 4 * int(np.prod(shape)), n) for n, (o, shape) in specs.items()):
        if offset != end:
            raise DataError(f"{path}: tensor {name} at byte {offset}, expected {end} (overlap or gap)")
        end += nbytes
    if end != len(blob):
        raise DataError(f"{blob_path}: tensors cover {end} bytes, blob holds {len(blob)}")
    tensors: Dict[str, np.ndarray] = {}
    for name, (offset, shape) in specs.items():
        raw = blob[offset:offset + 4 * int(np.prod(shape))]
        tensors[name] = np.frombuffer(raw, dtype="<f4").reshape(shape).astype(np.float64)
    return kind, tensors, meta
