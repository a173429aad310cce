"""Spans and counters recorded around handrift's public functions.

The benchmark wraps functions from outside the program: no file under
``src/`` knows it is being traced. A ``from .hand import fk_transforms``
binds the name once per importing module, so each probe patches the name
where the caller looks it up (``pipeline.fk_transforms``,
``trainer.fk_transforms``, ...), all under one span name. A probe whose
target no longer exists raises at install time, and ``Tracer.missing``
names expected spans that never fired, so a rename fails loudly instead of
reading as zero.

Spans are kept in memory as tuples and written out when the run ends. A
span's self time is its duration minus the durations of its child spans;
the program is single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
from dataclasses import dataclass
from time import perf_counter

import numpy as np


def _frames(root_orient, *_args, **_kwargs) -> int:
    """Frames in an FK/skinning call: the product of the leading batch dims."""
    shape = np.shape(getattr(root_orient, "data", root_orient))
    return math.prod(shape[:-1])


@dataclass(frozen=True)
class Probe:
    module: str          # handrift submodule whose namespace is patched
    attr: str            # name looked up there; "Class.method" for methods
    span: str            # reported name, <module>.<function>
    count: object = None  # optional fn(*args) -> work units added to <span>.count


PROBES = (
    Probe("denoiser", "Denoiser.forward_free", "denoiser.forward_free"),
    Probe("denoiser", "Denoiser.encode", "denoiser.encode"),
    Probe("denoiser", "Denoiser.encode_meshes", "denoiser.encode_meshes"),
    Probe("denoiser", "Denoiser.decode_teacher", "denoiser.decode_teacher"),
    Probe("trainer", "backward", "tensor.backward"),
    Probe("optim", "AdamW.step", "optim.AdamW.step"),
    Probe("trainer", "total_loss", "trainer.total_loss"),
    Probe("trainer", "refine_sequence", "trainer.refine_sequence"),
    Probe("trainer", "kinetics_loss", "physics.kinetics_loss"),
    Probe("trainer", "stability_loss", "physics.stability_loss"),
    Probe("trainer", "state_loss", "physics.state_loss"),
    Probe("trainer", "annotate_states", "physics.annotate_states"),
    Probe("cli", "annotate_states", "physics.annotate_states"),
    Probe("trainer", "perturb", "datagen.perturb"),
    Probe("pipeline", "refine", "diffusion.refine"),
    Probe("diffusion", "reverse_transition", "diffusion.reverse_transition"),
    Probe("cli", "refine_sequence", "pipeline.refine_sequence"),
    Probe("cli", "evaluate_pair", "pipeline.evaluate_pair"),
    Probe("cli", "load_bundle", "pipeline.load_bundle"),
    Probe("cli", "read_motion", "motionfile.read_motion"),
    Probe("cli", "write_motion", "motionfile.write_motion"),
    Probe("hand", "fk_transforms", "hand.fk_transforms", _frames),
    Probe("pipeline", "fk_transforms", "hand.fk_transforms", _frames),
    Probe("trainer", "fk_transforms", "hand.fk_transforms", _frames),
    Probe("physics", "fk_transforms", "hand.fk_transforms", _frames),
    Probe("datagen", "fk_transforms", "hand.fk_transforms", _frames),
    Probe("pipeline", "skin_mesh_batch", "hand.skin_mesh_batch", _frames),
    Probe("denoiser", "skin_mesh_batch", "hand.skin_mesh_batch", _frames),
    Probe("metrics", "procrustes_align", "metrics.procrustes_align"),
    Probe("pipeline", "p_mve_and_fscores", "metrics.p_mve_and_fscores"),
)

# tz.matmul is looked up on the tensor module by every caller, Tensor.__matmul__
# included. It runs tens of thousands of times per request, so it gets counters
# (calls, and 2*m*n*k flops computed from operand shapes), not spans.
MATMUL = ("tensor", "matmul")


def _resolve(module: str, attr: str):
    """(owner object, leaf name, current value); raises AttributeError if gone."""
    owner = importlib.import_module(f"handrift.{module}")
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf, getattr(owner, leaf)


class Tracer:
    """Installs the probes, records spans and counters, and restores on exit."""

    def __init__(self):
        self.spans: list = []     # (name, start, end, parent index, request id)
        self.counts: dict = {}    # "<span>.count", "tensor.matmul.calls", "tensor.matmul.flops"
        self.request = None
        self._stack: list = []
        self._saved: list = []

    def __enter__(self):
        try:
            for probe in PROBES:
                self._patch(probe.module, probe.attr, self._span_wrapper(probe))
            self._patch(*MATMUL, self._matmul_wrapper())
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _patch(self, module, attr, make_wrapper):
        owner, leaf, original = _resolve(module, attr)
        if not callable(original):
            raise TypeError(f"handrift.{module}.{attr} is not callable")
        self._saved.append((owner, leaf, original))
        setattr(owner, leaf, make_wrapper(original))

    def _restore(self):
        while self._saved:
            owner, leaf, original = self._saved.pop()
            setattr(owner, leaf, original)

    def _add(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + value

    def _span_wrapper(self, probe: Probe):
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                index = len(self.spans)
                parent = self._stack[-1] if self._stack else -1
                self.spans.append(None)
                self._stack.append(index)
                start = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    end = perf_counter()
                    self._stack.pop()
                    self.spans[index] = (probe.span, start, end, parent, self.request)
                    if probe.count is not None:
                        # methods receive self first; every counted probe is a plain function
                        self._add(f"{probe.span}.count", probe.count(*args, **kwargs))
            return wrapper
        return make

    def _matmul_wrapper(self):
        def make(fn):
            @functools.wraps(fn)
            def wrapper(a, b):
                out = fn(a, b)
                k = np.shape(getattr(a, "data", a))[-1]
                self._add("tensor.matmul.calls", 1)
                self._add("tensor.matmul.flops", 2 * math.prod(out.data.shape) * k)
                return out
            return wrapper
        return make

    def summary(self) -> dict:
        """Per span name: calls, total seconds and self seconds."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict = {}
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += (end - start) - child_time[i]
        return out

    def missing(self, expected) -> list:
        """Expected span names that never fired."""
        fired = {s[0] for s in self.spans}
        return sorted(set(expected) - fired)

    def write(self, path):
        """One JSON object per span, in start order; parents are line indices."""
        with open(path, "w") as f:
            for name, start, end, parent, request in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end,
                                    "parent": parent, "request": request}) + "\n")
