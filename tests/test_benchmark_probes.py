"""The benchmark's probe list still names functions that exist and fire.

``benchmarks/spans.py`` wraps handrift functions by name, and entering its
``Tracer`` raises AttributeError for a probe whose target was renamed or
removed. Entering it here makes such a rename fail this suite, not only the
benchmark's own tests. A fast path that stops calling a probed name leaves
its span silent, which fails a benchmark run; the evaluation probe below
catches that here too.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from handrift import denoiser
from handrift.datagen import generate_sequence, sample_script
from handrift.hand import build_hand_model
from handrift.pipeline import evaluate_pair, motion_to_joints
from handrift.rng import RandomStream

SPANS = Path(__file__).resolve().parent.parent / "benchmarks" / "spans.py"


@pytest.fixture
def spans():
    spec = importlib.util.spec_from_file_location("benchmark_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_benchmark_tracer_installs_every_probe_and_restores(spans):
    original = denoiser.Denoiser.forward_free
    with spans.Tracer():
        assert denoiser.Denoiser.forward_free is not original
    assert denoiser.Denoiser.forward_free is original


def test_fk_and_skinning_spans_fire_on_evaluation(spans):
    model = build_hand_model()
    gt, _, track = generate_sequence(sample_script(RandomStream(0, "probe"), 14), model)
    pred = gt + 0.01
    with spans.Tracer() as tracer:
        evaluate_pair(pred, gt, track, model)
        motion_to_joints(gt, model)
    fk, skin = "hand.fk_transforms", "hand.skin_mesh_batch"
    assert tracer.missing([fk, skin]) == []
    calls = tracer.summary()
    assert calls[skin]["calls"] == 2  # one skinning pass per motion of the pair ...
    assert calls[fk]["calls"] == 3    # ... holding its FK, and one FK for motion_to_joints
    assert tracer.counts[f"{fk}.count"] == 3 * gt.shape[0]
