"""Motion file format: JSON header + packed little-endian payload.

Byte layout (version 1):

    offset 0   8 bytes   magic ``b"HDMF0001"``
    offset 8   4 bytes   uint32 little-endian header length L
    offset 12  L bytes   UTF-8 canonical JSON header
    then                 frames   (T*61 float64 LE)
    then, if present     object   (T*3 float64 LE)
    then, if present     contact  (T uint8)
    then, if present     states   (T uint8)

Header keys: format_version, frames, dim (always 61), fps (a finite number > 0), units,
normalization_id, has_object, contact_threshold_mm (with an object; a finite number > 0),
has_contact, has_state.
Canonical JSON makes load->save byte-identical.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .motion import FRAME_DIM
from .physics import CONTACT_THRESHOLD_MM, STATE_COUNT, check_positive

MAGIC = b"HDMF0001"
FORMAT_VERSION = 1
REQUIRED_KEYS = ("frames", "dim", "fps", "normalization_id", "has_object", "has_contact", "has_state")


@dataclass
class MotionData:
    frames: np.ndarray                       # (T,61)
    fps: float = 30.0
    normalization_id: str = "raw"
    object_center: np.ndarray | None = None  # (T,3)
    contact_threshold: float | None = None
    contact: np.ndarray | None = None        # (T,) bool
    states: np.ndarray | None = None         # (T,) int

    @property
    def T(self) -> int:
        return self.frames.shape[0]


def write_motion(path, data: MotionData):
    """Write ``data`` to ``path``; what ``read_motion`` would refuse raises before the file is opened."""
    frames = np.asarray(data.frames, dtype=np.float64)
    if frames.ndim != 2 or frames.shape[1] != FRAME_DIM:
        raise InputError(f"motion frames must be (T,{FRAME_DIM}), got {frames.shape}")
    T = frames.shape[0]
    check_positive("fps", data.fps)
    header = {
        "format_version": FORMAT_VERSION,
        "frames": T,
        "dim": FRAME_DIM,
        "fps": float(data.fps),
        "units": {"rotation": "rad", "translation": "mm"},
        "normalization_id": data.normalization_id,
        "has_object": data.object_center is not None,
        "has_contact": data.contact is not None,
        "has_state": data.states is not None,
    }
    if data.object_center is not None:
        threshold = CONTACT_THRESHOLD_MM if data.contact_threshold is None else data.contact_threshold
        check_positive("contact_threshold_mm", threshold)
        header["contact_threshold_mm"] = float(threshold)
        obj = np.asarray(data.object_center, dtype=np.float64)
        if obj.shape != (T, 3):
            raise InputError(f"object track must be ({T},3), got {obj.shape}")
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", len(blob)))
        f.write(blob)
        f.write(np.ascontiguousarray(frames).astype("<f8", copy=False).tobytes())
        if data.object_center is not None:
            f.write(np.ascontiguousarray(obj).astype("<f8", copy=False).tobytes())
        if data.contact is not None:
            f.write(np.asarray(data.contact, dtype=np.uint8).tobytes())
        if data.states is not None:
            f.write(np.asarray(data.states, dtype=np.uint8).tobytes())


def read_motion(path) -> MotionData:
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:8] != MAGIC:
        raise InputError(f"not a motion file: bad magic in {path}")
    if len(raw) < 12:
        raise InputError(f"truncated motion file {path}")
    (length,) = struct.unpack("<I", raw[8:12])
    if 12 + length > len(raw):
        raise InputError(f"truncated motion file {path}: it ends inside its {length}-byte header")
    try:
        header = json.loads(raw[12 : 12 + length].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise InputError(f"corrupt motion header in {path}: {e}") from None
    if not isinstance(header, dict):
        raise InputError(f"corrupt motion header in {path}: not a JSON object")
    if header.get("format_version") != FORMAT_VERSION:
        raise InputError(f"unsupported motion format version {header.get('format_version')}")
    missing = [k for k in REQUIRED_KEYS if k not in header]
    if missing:
        raise InputError(f"motion header in {path} lacks {', '.join(missing)}")
    T = header["frames"]
    if type(T) is not int or T < 0:
        raise InputError(f"motion header in {path}: frames must be a non-negative integer, got {T!r}")
    if type(header["dim"]) is not int or header["dim"] != FRAME_DIM:
        raise InputError(f"motion header in {path}: dim must be {FRAME_DIM}, got {header['dim']!r}")
    threshold = header.get("contact_threshold_mm", CONTACT_THRESHOLD_MM) if header["has_object"] else None
    try:
        check_positive("fps", header["fps"])
        if header["has_object"]:
            check_positive("contact_threshold_mm", threshold)
    except InputError as e:
        raise InputError(f"motion header in {path}: {e}") from None
    offset = 12 + length

    def take(count, dtype, itemsize):
        nonlocal offset
        chunk = raw[offset : offset + count * itemsize]
        if len(chunk) != count * itemsize:
            raise InputError(f"truncated motion file {path}")
        offset += count * itemsize
        return np.frombuffer(chunk, dtype=dtype)

    frames = take(T * FRAME_DIM, "<f8", 8).astype(np.float64).reshape(T, FRAME_DIM)
    obj = contact = states = None
    if header["has_object"]:
        obj = take(T * 3, "<f8", 8).astype(np.float64).reshape(T, 3)
    if header["has_contact"]:
        contact = take(T, np.uint8, 1).astype(bool)
    if header["has_state"]:
        states = take(T, np.uint8, 1).astype(np.int64)
    if offset != len(raw):
        raise InputError(f"motion file {path} has {len(raw) - offset} bytes after its last block")
    for what, values in (("frames", frames), ("object track", obj)):
        if values is not None and not np.all(np.isfinite(values)):
            raise InputError(f"motion file {path} has non-finite values in its {what}")
    if states is not None and np.any(states >= STATE_COUNT):
        raise InputError(f"motion file {path} has state {states.max()}; states are 0-{STATE_COUNT - 1}")
    return MotionData(
        frames=frames,
        fps=header["fps"],
        normalization_id=header["normalization_id"],
        object_center=obj,
        contact_threshold=threshold,
        contact=contact,
        states=states,
    )
