"""Shared fixtures: the desk corpus and the trained model variants.

The five acceptance training runs (full model, three ablations, the
constant-acceleration baseline) are cached on disk under tests/.cache as
``<variant>-<config hash>-<code hash>.ckpt`` (and ``.log``): the first 16 hex
digits of the sha256 of the variant's config and of the handrift modules that
training imports (``training_sources_digest``). A change to either retrains
the variant on the next run; one retrain takes about 2 min on 2 CPU cores.
Delete tests/.cache to force retraining.

Training's weights depend on the BLAS thread count, which the cache tag does not
name: only a retrain under ``OPENBLAS_NUM_THREADS=1`` reproduces the committed
files byte for byte, so a retrain under any other setting warns.
"""

import ast
import hashlib
import json
import math
import os
import warnings
from pathlib import Path

import numpy as np
import pytest

import handrift
from handrift.config import config_hash, load_config
from handrift.datagen import generate_sequence, sample_script
from handrift.hand import build_hand_model
from handrift.pipeline import load_bundle
from handrift.rng import RandomStream
from handrift.trainer import CorpusItem, train

CACHE = Path(__file__).parent / ".cache"

CORPUS_SEED = 7
TRAIN_COUNT = 200
TEST_COUNT = 50

# Desk-scale training campaign: lr recalibrated for the short from-scratch
# run; the loss weights are the package defaults.
DESK_TRAIN = {
    "epochs": 60,
    "lr": 2e-3,
    "lr_decay_epochs": 10,
    "eval_subset": 4,
}

VARIANTS = {
    "full": {},
    "deterministic": {"probabilistic": False, "use_state": False, "use_kin": False, "use_sta": False},
    "diffusion_only": {"use_state": False, "use_kin": False, "use_sta": False},
    "diffusion_state": {"use_kin": False, "use_sta": False},
    "const_accel": {"probabilistic": True, "use_state": False, "use_kin": False, "use_sta": False,
                    "constant_accel_baseline": True},
}


def desk_config(variant: str = "full") -> dict:
    return load_config(None, {"train": {**DESK_TRAIN, **VARIANTS[variant]}})


def build_corpus(model, count, offset=0):
    items, tracks = [], []
    for i in range(count):
        stream = RandomStream(CORPUS_SEED, f"script-{offset + i}")
        motion, obj, track = generate_sequence(sample_script(stream, 16), model)
        items.append(CorpusItem(motion=motion, object_center=obj.center,
                                contact_threshold=obj.contact_threshold))
        tracks.append(track)
    return items, tracks


@pytest.fixture(scope="session")
def desk_model():
    return build_hand_model()


@pytest.fixture(scope="session")
def desk_corpus(desk_model):
    train_items, train_tracks = build_corpus(desk_model, TRAIN_COUNT, offset=0)
    test_items, test_tracks = build_corpus(desk_model, TEST_COUNT, offset=TRAIN_COUNT)
    return {
        "train": train_items,
        "train_tracks": train_tracks,
        "test": test_items,
        "test_tracks": test_tracks,
    }


def rodrigues(w) -> np.ndarray:
    """The rotation matrix of rotation vector ``w``, I + a K + b K^2 in closed form on the
    ``math`` module: a reference cheap enough to sit inside an optimizer's cost function.
    ``b`` is taken as 2 sin^2(t/2) / t^2, free of the cancellation in 1 - cos t."""
    x, y, z = (float(v) for v in w)
    t = math.sqrt(x * x + y * y + z * z)
    a, b = (math.sin(t) / t, 2.0 * (math.sin(0.5 * t) / t) ** 2) if t > 0.0 else (1.0, 0.5)
    return np.array([[1.0 - b * (y * y + z * z), b * x * y - a * z, b * x * z + a * y],
                     [b * x * y + a * z, 1.0 - b * (x * x + z * z), b * y * z - a * x],
                     [b * x * z - a * y, b * y * z + a * x, 1.0 - b * (x * x + y * y)]])


def procrustes_oracle(pred, gt) -> float:
    """The RMS residual of the best similarity alignment of ``pred`` onto ``gt``, by brute
    force: Nelder-Mead descent over rotation vectors, with the scale and translation in
    closed form for each candidate rotation. The cost rotates by ``rodrigues``, checked
    against scipy at every optimum, and is divided by ||Y||^2 so that ``fatol`` lies above
    its rounding. The descent starts from each of the 24 rotations of the cube group, one of
    which lies within about 63 degrees of any rotation, the best one included; random
    starts could all end in the anti-aligned local minimum (a negative scale, as the cost
    is even in X.Y)."""
    from scipy.optimize import minimize
    from scipy.spatial.transform import Rotation

    X0, Y = pred - pred.mean(0), gt - gt.mean(0)  # centring commutes with the rotation
    yy = (Y * Y).sum()

    def cost(w):
        X = X0 @ rodrigues(w).T
        s = (X * Y).sum() / (X * X).sum()
        return ((s * X - Y) ** 2).sum() / yy

    best = np.inf
    for w0 in Rotation.create_group("O").as_rotvec():
        res = minimize(cost, w0, method="Nelder-Mead",
                       options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 3000})
        assert np.abs(rodrigues(res.x) - Rotation.from_rotvec(res.x).as_matrix()).max() <= 1e-12
        best = min(best, res.fun)
    return np.sqrt(best * yy / pred.shape[0])


def sibling_imports(text: str) -> list[str]:
    """The package modules a module's relative imports name: ``x`` for ``from .x import ...``,
    ``y`` for ``from . import y``, however the import is wrapped."""
    names = []
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            names += [node.module] if node.module else [a.name for a in node.names]
    return names


def training_sources_digest() -> str:
    """sha256 over the handrift modules ``trainer`` imports, directly or not."""
    src = Path(handrift.__file__).parent
    seen, todo = set(), ["trainer"]
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo += sibling_imports((src / f"{name}.py").read_text())
    digest = hashlib.sha256()
    for name in sorted(seen):
        digest.update(f"{name}.py\n".encode() + (src / f"{name}.py").read_bytes())
    return digest.hexdigest()


def cache_tag(variant: str) -> str:
    """``<variant>-<config hash>-<code digest>``: the stem of the variant's cached files."""
    return f"{variant}-{config_hash(desk_config(variant))[:16]}-{training_sources_digest()[:16]}"


def train_cached(variant: str, corpus):
    cfg = desk_config(variant)
    CACHE.mkdir(exist_ok=True)
    tag = cache_tag(variant)
    ckpt = CACHE / f"{tag}.ckpt"
    log = CACHE / f"{tag}.log"
    if ckpt.exists() and log.exists():
        rows = [json.loads(line) for line in log.read_text().splitlines()]
        return load_bundle(ckpt), rows
    if os.environ.get("OPENBLAS_NUM_THREADS") != "1":
        warnings.warn(f"retraining {tag} with OPENBLAS_NUM_THREADS="
                      f"{os.environ.get('OPENBLAS_NUM_THREADS', '<unset>')}: the weights depend on "
                      "the BLAS thread count, and only a retrain at 1 reproduces a committed cache "
                      "byte for byte")
    return train(corpus["train"], cfg, out_ckpt=ckpt, log_path=log, eval_corpus=corpus["test"])


@pytest.fixture(scope="session")
def trained_full(desk_corpus):
    return train_cached("full", desk_corpus)


@pytest.fixture(scope="session")
def trained_variants(desk_corpus):
    return {name: train_cached(name, desk_corpus) for name in VARIANTS}
