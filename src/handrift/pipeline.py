"""End-to-end plumbing: checkpoint bundles, sequence refinement, evaluation.

A bundle is everything needed to refine: denoiser weights, normalization
statistics, diffusion schedule, hand model and the full config they came
from. Long inputs are cut into 50%-overlap sliding windows of the trained
length, refined together as one batch and cross-faded linearly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as tz
from .checkpoint import load_checkpoint, save_checkpoint
from .config import check_stored_config, config_hash, denoiser_config_from, hand_config_from
from .denoiser import Denoiser, param_shapes
from .diffusion import DiffusionSchedule, make_schedule, refine
from .errors import CheckpointError, ConfigError, InputError
from .hand import HandModel, build_hand_model, skin_mesh_batch, fk_transforms
from .metrics import accl_error, kin_metric, mje, p_mje, p_mve_and_fscores, sta_metric
from .motion import FRAME_DIM, MIN_FRAMES, Normalizer, pose_parts
from .physics import STATE_COUNT, StateTrack
from .rng import RandomStream
from .tensor import Tensor


@dataclass
class RefineBundle:
    denoiser: Denoiser
    schedule: DiffusionSchedule
    normalizer: Normalizer
    hand_model: HandModel
    config: dict
    config_hash: str

    @property
    def frames(self) -> int:
        return int(self.config["frames"])

    @property
    def probabilistic(self) -> bool:
        return bool(self.config["train"]["probabilistic"])


def make_bundle(cfg: dict, normalizer: Normalizer, params=None, hand_model=None) -> RefineBundle:
    model = hand_model if hand_model is not None else build_hand_model(hand_config_from(cfg))
    sch = cfg["schedule"]
    schedule = make_schedule(sch["steps"], sch["eta1"], sch["kappa"], sch["power"])
    den = Denoiser(denoiser_config_from(cfg), model, normalizer, params=params,
                   seed=cfg["seed"], total_steps=schedule.steps,
                   state_feedback=bool(cfg["train"]["use_state"]))
    return RefineBundle(den, schedule, normalizer, model, cfg, config_hash(cfg))


def save_bundle(path, bundle: RefineBundle, extra: dict | None = None, params: dict | None = None):
    """Write the bundle; ``params`` (name -> array) replaces the denoiser's live weights."""
    if params is None:
        params = {k: v.data for k, v in bundle.denoiser.params.items()}
    tensors = {f"param/{k}": v for k, v in params.items()}
    tensors["norm/mean"] = bundle.normalizer.mean
    tensors["norm/std"] = bundle.normalizer.std
    meta = {"config": bundle.config}
    if extra:
        meta.update(extra)
    save_checkpoint(path, tensors, seed=bundle.config["seed"],
                    config_hash=bundle.config_hash, extra=meta)


def load_bundle(path) -> RefineBundle:
    manifest, tensors = load_checkpoint(path)
    extra = manifest.get("extra")
    cfg = extra.get("config") if isinstance(extra, dict) else None
    if not isinstance(cfg, dict):
        raise CheckpointError("checkpoint manifest has no config object under extra.config")
    if config_hash(cfg) != manifest.get("config_hash"):
        raise CheckpointError("checkpoint config hash does not match its stored config")
    try:
        check_stored_config(cfg)
    except ConfigError as e:
        raise CheckpointError(f"checkpoint {e}") from None
    expected = {"norm/mean": (FRAME_DIM,), "norm/std": (FRAME_DIM,)}
    for name, shape in param_shapes(denoiser_config_from(cfg)).items():
        expected[f"param/{name}"] = shape
    _check_tensors(tensors, expected)
    normalizer = Normalizer(tensors["norm/mean"], tensors["norm/std"])
    params = {
        k[len("param/"):]: Tensor(v, requires_grad=True, name=k[len("param/"):])
        for k, v in tensors.items() if k.startswith("param/")
    }
    return make_bundle(cfg, normalizer, params=params)


def _check_tensors(tensors: dict, expected: dict):
    """Raise CheckpointError unless the checkpoint holds exactly the expected names and shapes."""
    problems = [f"missing {k}" for k in expected if k not in tensors]
    problems += [f"unknown {k}" for k in tensors if k not in expected]
    problems += [f"{k} has shape {tensors[k].shape}, the model needs {shape}"
                 for k, shape in expected.items() if k in tensors and tensors[k].shape != shape]
    if problems:
        more = f" (+{len(problems) - 3} more)" if len(problems) > 3 else ""
        raise CheckpointError("checkpoint does not match its model: " + "; ".join(problems[:3]) + more)


# ---------------------------------------------------------------------------
# refinement


def _refine_windows(bundle: RefineBundle, y_raw: np.ndarray, deterministic: bool,
                    rng: RandomStream | None, steps: int | None):
    """Refine a (W,T,61) batch of raw windows through one reverse chain.

    Returns (raw refined (W,T,61), state logits (W,T,S)). A non-probabilistic
    model, trained only at n = N on x^N = y, runs the one-step chain: its step
    embedding reads n/N = 1 either way. The schedule's step count reaches the
    denoiser as an argument; the bundle is never modified. y's mesh codes are
    encoded once and reused at every step of the chain.
    """
    y_norm = bundle.normalizer.normalize(y_raw)
    den = bundle.denoiser
    schedule = bundle.schedule
    if not bundle.probabilistic:
        steps, deterministic = 1, True
    if steps is not None and steps != schedule.steps:
        sch = bundle.config["schedule"]
        schedule = make_schedule(steps, sch["eta1"], sch["kappa"], sch["power"])
    with tz.no_grad():
        y_code = den.encode_condition(y_norm)

        def denoise_fn(x_n, y, n):
            xh, lgt = den.forward_free(x_n, y, n, rng=rng, total_steps=schedule.steps, y_code=y_code)
            return xh.data, lgt.data

        out, lg = refine(y_norm, denoise_fn, schedule, rng=rng, deterministic=deterministic)
    return bundle.normalizer.denormalize(out), lg


def refine_sequence(bundle: RefineBundle, y_raw: np.ndarray, deterministic: bool = True,
                    rng: RandomStream | None = None, steps: int | None = None):
    """Refine a raw (T,61) sequence of any length; returns (refined, StateTrack).

    Inputs longer than the trained window are cut into 50%-overlap windows,
    refined together as one batch, and blended with linear (triangular)
    cross-fade weights; predicted states vote with the same weights.
    """
    y_raw = np.asarray(y_raw, dtype=np.float64)
    if y_raw.ndim != 2 or y_raw.shape[1] != FRAME_DIM:
        raise InputError(f"refine expects (T,{FRAME_DIM}), got {y_raw.shape}")
    T = y_raw.shape[0]
    if T < MIN_FRAMES:
        raise InputError(f"refine needs at least {MIN_FRAMES} frames, got {T}")
    win = min(bundle.frames, T)
    stride = max(win // 2, 1)
    starts = list(range(0, T - win + 1, stride))
    if starts[-1] != T - win:
        starts.append(T - win)
    windows = np.stack([y_raw[s : s + win] for s in starts])
    refined, logits = _refine_windows(bundle, windows, deterministic, rng, steps)
    labels = np.argmax(logits, axis=-1)
    if len(starts) == 1:
        return _finalize_shape(bundle, refined[0]), StateTrack(labels=labels[0])

    acc = np.zeros((T, FRAME_DIM))
    votes = np.zeros((T, STATE_COUNT))
    weight = np.zeros(T)
    tri = np.minimum(np.arange(1, win + 1), np.arange(win, 0, -1)).astype(np.float64)
    for s, window, window_labels in zip(starts, refined, labels):
        acc[s : s + win] += tri[:, None] * window
        votes[s : s + win, :] += tri[:, None] * np.eye(STATE_COUNT)[window_labels]
        weight[s : s + win] += tri
    refined_full = acc / weight[:, None]
    return _finalize_shape(bundle, refined_full), StateTrack(labels=np.argmax(votes, axis=-1))


def _finalize_shape(bundle: RefineBundle, refined: np.ndarray) -> np.ndarray:
    """Collapse shape channels to their sequence mean when configured so."""
    if bundle.config.get("sequence_constant_beta", False):
        refined = refined.copy()
        refined[:, 48:58] = refined[:, 48:58].mean(axis=0)
    return refined


# ---------------------------------------------------------------------------
# sequence geometry + evaluation helpers


def motion_to_joints(motion: np.ndarray, model: HandModel) -> np.ndarray:
    joints, _ = fk_transforms(*pose_parts(motion), model)
    return joints


def motion_to_verts(motion: np.ndarray, model: HandModel):
    """Posed meshes (T,V,3) and the joints (T,21,3) their FK computed."""
    return skin_mesh_batch(*pose_parts(motion), model)


def evaluate_pair(pred_motion: np.ndarray, gt_motion: np.ndarray, gt_labels,
                  model: HandModel) -> dict:
    """All §-style metrics for one prediction/ground-truth pair; one FK per motion."""
    pv, pj = motion_to_verts(pred_motion, model)
    gv, gj = motion_to_verts(gt_motion, model)
    row = {
        "mje": mje(pj, gj),
        "p_mje": p_mje(pj, gj),
        "accl": accl_error(pj, gj),
        "kin": kin_metric(np.asarray(pred_motion)[:, 0:48], gt_labels),
        "sta": sta_metric(np.asarray(pred_motion)[:, 3:48], gt_labels),
    }
    mve, (f5, f15) = p_mve_and_fscores(pv, gv)
    row.update({"p_mve": mve, "f5": f5, "f15": f15})
    return row
