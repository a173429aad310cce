"""Binary checkpoint container: JSON manifest + raw little-endian tensors.

Byte layout (version 1):

    offset 0   8 bytes   magic ``b"HRCKPT01"``
    offset 8   4 bytes   uint32 little-endian manifest length L
    offset 12  L bytes   UTF-8 canonical JSON manifest
    offset 12+L          tensor payloads, concatenated in manifest order

The manifest holds ``format_version``, ``seed``, ``config_hash``, a free-form
``extra`` dict, and a ``tensors`` list of ``{name, shape, dtype}`` records
(dtype is always ``"<f8"`` in v1). Canonical JSON (sorted keys, no spaces)
makes save(load(x)) byte-identical.
"""

from __future__ import annotations

import json
import struct

import numpy as np

from .errors import CheckpointError

MAGIC = b"HRCKPT01"
FORMAT_VERSION = 1


def _canonical_json(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


def save_checkpoint(path, tensors: dict[str, np.ndarray], seed: int, config_hash: str, extra: dict | None = None):
    names = sorted(tensors)
    manifest = {
        "format_version": FORMAT_VERSION,
        "seed": int(seed),
        "config_hash": config_hash,
        "extra": extra or {},
        "tensors": [
            {"name": n, "shape": list(np.asarray(tensors[n]).shape), "dtype": "<f8"} for n in names
        ],
    }
    blob = _canonical_json(manifest)
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", len(blob)))
        f.write(blob)
        for n in names:
            arr = np.ascontiguousarray(np.asarray(tensors[n], dtype=np.float64))
            f.write(arr.astype("<f8", copy=False).tobytes())


def _record_problem(rec) -> str | None:
    """What is wrong with one ``tensors`` record of a manifest, or None."""
    if not isinstance(rec, dict) or not isinstance(rec.get("name"), str):
        return "a tensor record has no string name"
    shape = rec.get("shape")
    if not isinstance(shape, list) or not all(type(d) is int and d >= 0 for d in shape):
        return f"tensor '{rec['name']}' has a shape that is not a list of non-negative integers"
    if rec.get("dtype") != "<f8":
        return f"tensor '{rec['name']}' has dtype {rec.get('dtype')!r}, not '<f8'"
    return None


def load_checkpoint(path):
    """Return (manifest dict, {name: float64 array})."""
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:8] != MAGIC:
        raise CheckpointError(f"not a checkpoint file: bad magic in {path}")
    if len(raw) < 12:
        raise CheckpointError(f"truncated checkpoint: {path} ends inside its header")
    (length,) = struct.unpack("<I", raw[8:12])
    try:
        manifest = json.loads(raw[12 : 12 + length].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CheckpointError(f"corrupt checkpoint manifest in {path}: {e}") from None
    if not isinstance(manifest, dict):
        raise CheckpointError(f"corrupt checkpoint manifest in {path}: not a JSON object")
    if manifest.get("format_version") != FORMAT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {manifest.get('format_version')}")
    records = manifest.get("tensors")
    if not isinstance(records, list):
        raise CheckpointError(f"corrupt checkpoint manifest in {path}: 'tensors' is not a list")
    for rec in records:
        problem = _record_problem(rec)
        if problem:
            raise CheckpointError(f"corrupt checkpoint manifest in {path}: {problem}")
    tensors = {}
    offset = 12 + length
    for rec in records:
        shape = tuple(rec["shape"])
        nbytes = int(np.prod(shape, dtype=np.int64)) * 8
        chunk = raw[offset : offset + nbytes]
        if len(chunk) != nbytes:
            raise CheckpointError(f"truncated checkpoint: tensor '{rec['name']}' incomplete")
        tensors[rec["name"]] = np.frombuffer(chunk, dtype="<f8").astype(np.float64).reshape(shape)
        offset += nbytes
    if offset != len(raw):
        raise CheckpointError(f"checkpoint {path} has {len(raw) - offset} bytes after its last tensor")
    return manifest, tensors
