"""The benchmark's probe list still names functions that exist and fire.

``benchmarks/spans.py`` wraps handrift functions by name, and entering its
``Tracer`` raises AttributeError for a probe whose target was renamed or
removed. Entering it here makes such a rename fail this suite, not only the
benchmark's own tests. A fast path that stops calling a probed name leaves
its span silent, which fails a benchmark run; the evaluation and refine
probes below catch that here too. Loading ``workloads.py`` and ``harness.py``
does the same for every handrift name they import.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from handrift import denoiser
from handrift.config import load_config
from handrift.datagen import generate_sequence, sample_script
from handrift.hand import build_hand_model
from handrift.motion import Normalizer
from handrift.pipeline import evaluate_pair, make_bundle, motion_to_joints, refine_sequence
from handrift.rng import RandomStream

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
SPANS = BENCHMARKS / "spans.py"


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


def test_benchmark_workloads_and_harness_load(monkeypatch):
    """Both load as ``run.py`` loads them, ``harness`` importing ``spans`` and ``workloads``
    by their plain names, so a handrift name they import that is gone fails here."""
    for name in ("spans", "workloads", "harness"):
        spec = importlib.util.spec_from_file_location(name, BENCHMARKS / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, name, module)
        spec.loader.exec_module(module)
    assert sorted(sys.modules["harness"].WORKLOADS) == ["evaluate", "refine_long", "train"]


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


@pytest.mark.parametrize("stochastic", [False, True], ids=["deterministic", "stochastic"])
def test_denoiser_and_diffusion_spans_fire_on_refine(spans, stochastic):
    """A refine, on whatever path, passes through every probed denoiser and chain method."""
    cfg = load_config(None, {"frames": 8, "schedule": {"steps": 3},
                             "denoiser": {"layers": 1, "heads": 2, "width": 8, "mesh_widths": [4],
                                          "step_features": 4, "ffn_multiplier": 1}})
    model = build_hand_model()
    motion, _, _ = generate_sequence(sample_script(RandomStream(0, "probe-refine"), 14), model)
    bundle = make_bundle(cfg, Normalizer.fit([motion]), hand_model=model)

    def run():
        rng = RandomStream(1, "probe-refine") if stochastic else None
        return refine_sequence(bundle, motion, rng=rng)[0]

    with spans.Tracer() as tracer:
        traced = run()
    expected = ["denoiser.forward_free", "denoiser.encode", "denoiser.encode_meshes",
                "diffusion.refine", "diffusion.reverse_transition"]
    assert tracer.missing(expected) == []
    calls = tracer.summary()
    assert calls["diffusion.refine"]["calls"] == 1  # the 8-frame windows share one chain
    assert calls["denoiser.forward_free"]["calls"] == calls["diffusion.reverse_transition"]["calls"] == 3
    np.testing.assert_array_equal(traced, run())
