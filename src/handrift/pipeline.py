"""End-to-end plumbing: checkpoint bundles, sequence refinement, evaluation.

A bundle is everything needed to refine: denoiser weights, normalization
statistics, diffusion schedule, hand model and the full config they came
from. Long inputs are cut into 50%-overlap sliding windows of the trained
length, refined together as one batch and cross-faded linearly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .checkpoint import load_checkpoint, save_checkpoint
from .config import check_config, config_hash, denoiser_config_from
from .denoiser import Denoiser, param_shapes
from .diffusion import DiffusionSchedule, make_schedule, refine
from .errors import CheckpointError, ConfigError, InputError
from .hand import HandModel, build_hand_model, skin_mesh_batch, fk_transforms
from .metrics import accl_error, kin_metric, mje, p_mje, p_mve_and_fscores, sta_metric
from .motion import FINGER_POSE, FRAME_DIM, FULL_POSE, MIN_FRAMES, Normalizer, pose_parts
from .physics import STATE_COUNT, StateTrack
from .rng import RandomStream
from .tensor import Tensor

# Trained reverse steps a refine runs by default, or all N when N is smaller.
# Refine time is linear in the steps run; 4 of the default 8 halves it.
REFINE_STEPS = 4


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
    model = hand_model if hand_model is not None else build_hand_model()
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
        check_config(cfg, "stored config")
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
    except ConfigError as e:  # a stored value the model cannot be built from
        raise CheckpointError(f"checkpoint {e}") from None


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


def respaced_steps(total: int, steps: int) -> np.ndarray:
    """The 1-based indices of the ``steps`` trained steps, of ``total``, a respaced
    chain runs: evenly spaced and ending at ``total`` (N = 8: K = 4 gives 2, 4, 6,
    8 and K = 1 gives 8). They are distinct for 1 <= K <= N, and K = N gives all."""
    return np.arange(1, steps + 1) * total // steps


def _refine_windows(bundle: RefineBundle, den: Denoiser, y_norm: np.ndarray, y_code: np.ndarray,
                    deterministic: bool, rng: RandomStream | None, steps: int):
    """Refine the normalized windows ``y_norm`` (W,T,61) through one reverse chain of
    the gradient-free view ``den``; ``y_code`` (W*T,C) are their frames' mesh codes,
    reused at every step.

    Returns (raw refined (W,T,61), state logits (W,T,S)). The chain is respaced:
    it runs K = ``steps`` of the N trained steps (``respaced_steps``), and its
    step k is trained step idx[k-1], with that step's eta and step embedding
    n/N. A non-probabilistic model, trained only at n = N on x^N = y, runs the
    one-step chain {N}, whose single step returns the denoiser's estimate. The
    bundle is never modified.
    """
    schedule = bundle.schedule
    if not bundle.probabilistic:
        steps, deterministic = 1, True
    idx = respaced_steps(schedule.steps, steps)
    chain = DiffusionSchedule(eta=schedule.eta[idx - 1], kappa=schedule.kappa)

    def denoise_fn(x_n, y, k):
        return den.forward_free(x_n, y, int(idx[k - 1]), rng=rng, y_code=y_code)

    out, lg = refine(y_norm, denoise_fn, chain, rng=rng, deterministic=deterministic)
    return bundle.normalizer.denormalize(out), lg


def refine_sequence(bundle: RefineBundle, y_raw, deterministic: bool = True,
                    rng: RandomStream | None = None, steps: int | None = None):
    """Refine a raw (T,61) sequence of any length; returns (refined, StateTrack).

    Inputs longer than the trained window are cut into 50%-overlap windows,
    refined together as one batch, and blended with linear (triangular)
    cross-fade weights; predicted states vote with the same weights.

    ``y_raw`` may also be a list of sequences, for a list of (refined,
    StateTrack) back: the windows of every clip with the same window length
    (the trained one, or a shorter clip's own) go through one reverse chain.

    ``steps`` K runs K of the N trained reverse steps (1 <= K <= N, else
    InputError before any work); by default min(``REFINE_STEPS``, N).

    The chains run on the denoiser's float32 view, made once here; the chain
    arithmetic, skinning and the result stay float64. Before any chain runs,
    each clip frame's mesh code is encoded once, not per window row
    (half-overlap windows hold most frames twice), and a clip the float32 view
    cannot carry is refused with InputError naming the frame.
    """
    N = bundle.schedule.steps
    if steps is None:
        steps = min(REFINE_STEPS, N)
    elif not 1 <= steps <= N:
        raise InputError(f"refine steps must lie in 1..{N}, the model's N = {N} trained "
                         f"reverse steps; got {steps}")
    clips = y_raw if isinstance(y_raw, list) else [y_raw]
    plans = [_windows(bundle, np.asarray(clip, dtype=np.float64)) for clip in clips]
    den = bundle.denoiser.frozen(np.float32)
    norms = [bundle.normalizer.normalize(clip) for clip, _, _ in plans]
    codes = [den.encode_condition(norm) for norm in norms]
    results: list = [None] * len(plans)
    for win in dict.fromkeys(win for _, win, _ in plans):  # window lengths, first seen first
        group = [i for i, (_, w, _) in enumerate(plans) if w == win]
        offsets = np.cumsum([0] + [len(plans[i][0]) for i in group])
        rows = np.stack([o + s + np.arange(win) for i, o in zip(group, offsets) for s in plans[i][2]])
        y_norm = np.concatenate([norms[i] for i in group])[rows]
        y_code = np.concatenate([codes[i] for i in group])[rows.reshape(-1)]
        refined, logits = _refine_windows(bundle, den, y_norm, y_code, deterministic, rng, steps)
        labels = np.argmax(logits, axis=-1)
        for i in group:  # each clip's windows, in the order they were stacked
            n = len(plans[i][2])
            results[i] = _blend(plans[i], refined[:n], labels[:n])
            refined, labels = refined[n:], labels[n:]
    return results if isinstance(y_raw, list) else results[0]


def _windows(bundle: RefineBundle, y_raw: np.ndarray):
    """(clip, window length, window starts) of a checked raw (T,61) clip."""
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
    return y_raw, win, starts


def _blend(plan, refined: np.ndarray, labels: np.ndarray):
    """Cross-fade one clip's refined windows and state votes: (refined (T,61), StateTrack)."""
    y_raw, win, starts = plan
    if len(starts) == 1:
        return refined[0], StateTrack(labels=labels[0])
    T = y_raw.shape[0]
    acc = np.zeros((T, FRAME_DIM))
    votes = np.zeros((T, STATE_COUNT))
    weight = np.zeros(T)
    tri = np.minimum(np.arange(1, win + 1), np.arange(win, 0, -1)).astype(np.float64)
    for s, window, window_labels in zip(starts, refined, labels):
        acc[s : s + win] += tri[:, None] * window
        votes[s : s + win, :] += tri[:, None] * np.eye(STATE_COUNT)[window_labels]
        weight[s : s + win] += tri
    return acc / weight[:, None], StateTrack(labels=np.argmax(votes, axis=-1))


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
        "kin": kin_metric(np.asarray(pred_motion)[:, FULL_POSE], gt_labels),
        "sta": sta_metric(np.asarray(pred_motion)[:, FINGER_POSE], gt_labels),
    }
    mve, (f5, f15) = p_mve_and_fscores(pv, gv)
    row.update({"p_mve": mve, "f5": f5, "f15": f15})
    return row
