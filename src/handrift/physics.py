"""Motion states and the physics-derived training losses.

Per-frame states are decided by the contact condition and the trend of the
hand-object distance d(t): approaching without contact is Reaching, departing
is Releasing, static-at-distance is Free; in contact, near-zero finger speed
is Stable Grasping and anything else is Manipulation. The two constraint
losses act on pose trajectories: a hinge on direction reversals during
reaching/releasing, and a squared penalty on finger-pose change during
stable grasps.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from . import tensor as tz
from .errors import ContractError, InputError
from .hand import TIP_JOINTS, HandModel, fk_transforms
from .motion import FINGER_POSE, pose_parts


class MotionState(IntEnum):
    REACHING = 0
    STABLE_GRASPING = 1
    MANIPULATION = 2
    RELEASING = 3
    FREE = 4


STATE_COUNT = len(MotionState)
STATE_NAMES = tuple(s.name.lower() for s in MotionState)

CONTACT_THRESHOLD_MM = 10.0  # in contact when the hand is nearer the object than this
DISTANCE_RATE_MM = 1.0       # delta_d, mm/frame: a d(t) trend beyond it is reaching or releasing
STABLE_SPEED_DEG = 0.5       # eps_s, degrees/frame: slower fingers in contact hold a stable grasp


@dataclass
class ObjectTrack:
    center: np.ndarray                                      # (T,3) mm
    contact_threshold: float | None = CONTACT_THRESHOLD_MM  # mm; None takes the default

    def __post_init__(self):
        if self.contact_threshold is None:
            self.contact_threshold = CONTACT_THRESHOLD_MM
        self.center = np.asarray(self.center, dtype=np.float64)
        if self.center.ndim != 2 or self.center.shape[1] != 3:
            raise InputError(f"object track must be (T,3), got {self.center.shape}")
        if not np.all(np.isfinite(self.center)):
            raise InputError("object track contains non-finite values")


@dataclass
class StateTrack:
    labels: np.ndarray                          # (T,) MotionState values
    contact: np.ndarray | None = None           # (T,) bool
    dist: np.ndarray | None = None              # (T,) mm, hand-object distance

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.contact is not None:
            self.contact = np.asarray(self.contact, dtype=bool)
        if self.dist is not None:
            self.dist = np.asarray(self.dist, dtype=np.float64)

    @property
    def T(self) -> int:
        return self.labels.shape[0]


@dataclass
class AnnotatorConfig:
    use_palm_center: bool = False       # distance from palm instead of fingertips


def _centered_rate(x: np.ndarray) -> np.ndarray:
    """Centered difference over a 3-frame window; one-sided at the edges."""
    out = np.empty_like(x, dtype=np.float64)
    out[1:-1] = (x[2:] - x[:-2]) / 2.0
    out[0] = x[1] - x[0]
    out[-1] = x[-1] - x[-2]
    return out


def hand_object_distance(motion: np.ndarray, obj: ObjectTrack, model: HandModel,
                         use_palm_center: bool = False) -> np.ndarray:
    """d(t): distance from the hand to the object center, (T,) in mm."""
    joints, _ = fk_transforms(*pose_parts(motion), model)
    if use_palm_center:
        ref = joints.mean(axis=1, keepdims=True)  # (T,1,3)
    else:
        ref = joints[:, list(TIP_JOINTS)]          # (T,5,3)
    dist = np.linalg.norm(ref - obj.center[:, None, :], axis=-1)
    return dist.min(axis=1)


def annotate_states(motion: np.ndarray, obj: ObjectTrack, model: HandModel,
                    cfg: AnnotatorConfig | None = None) -> StateTrack:
    """Label every frame with one of the five motion states.

    Rules (applied to the 3-frame centered rate of d and finger speed):
    no contact and d dropping beyond delta_d -> Reaching; rising -> Releasing;
    flat -> Free. In contact, mean finger speed below eps_s -> Stable
    Grasping, otherwise Manipulation.
    """
    cfg = cfg or AnnotatorConfig()
    motion = np.asarray(motion, dtype=np.float64)
    T = motion.shape[0]
    if T < 3:
        raise InputError(f"state annotation needs at least 3 frames, got {T}")
    if obj.center.shape[0] != T:
        raise InputError(f"object track has {obj.center.shape[0]} frames, motion has {T}")

    d = hand_object_distance(motion, obj, model, cfg.use_palm_center)
    contact = d < obj.contact_threshold
    rate = _centered_rate(d)

    finger = motion[:, FINGER_POSE]
    speed = np.abs(_centered_rate(finger)).mean(axis=1)  # rad/frame
    eps_s = np.deg2rad(STABLE_SPEED_DEG)

    labels = np.full(T, MotionState.FREE, dtype=np.int64)
    labels[~contact & (rate < -DISTANCE_RATE_MM)] = MotionState.REACHING
    labels[~contact & (rate > DISTANCE_RATE_MM)] = MotionState.RELEASING
    labels[contact & (speed < eps_s)] = MotionState.STABLE_GRASPING
    labels[contact & (speed >= eps_s)] = MotionState.MANIPULATION
    return StateTrack(labels=labels, contact=contact, dist=d)


# ---------------------------------------------------------------------------
# losses (autodiff tensors; accept (T,.) or batched (B,T,.) inputs)


def _labels_array(track_or_labels) -> np.ndarray:
    if isinstance(track_or_labels, StateTrack):
        return track_or_labels.labels
    return np.asarray(track_or_labels, dtype=np.int64)


def state_loss(logits, track_or_labels) -> tz.Tensor:
    """Mean per-frame cross-entropy between predicted logits and labels."""
    logits = tz.as_tensor(logits)
    labels = _labels_array(track_or_labels)
    S = logits.shape[-1]
    if labels.min() < 0 or labels.max() >= S:
        raise ContractError(f"state label outside [0, {S})")
    if labels.shape != logits.shape[:-1]:
        raise ContractError(f"labels {labels.shape} do not match logits {logits.shape}")
    onehot = np.eye(S)[labels]
    ls = tz.log_softmax(logits, axis=-1)
    per_frame = tz.tsum(tz.mul(ls, tz.Tensor(onehot)), axis=-1)
    return -tz.tmean(per_frame)


def _reach_release_windows(labels: np.ndarray) -> np.ndarray:
    """Mask of 3-frame windows lying wholly in one of Reaching/Releasing."""
    a, b, c = labels[..., :-2], labels[..., 1:-1], labels[..., 2:]
    reach = (a == MotionState.REACHING) & (b == MotionState.REACHING) & (c == MotionState.REACHING)
    release = (a == MotionState.RELEASING) & (b == MotionState.RELEASING) & (c == MotionState.RELEASING)
    return reach | release


def direction_reversal(theta_seq):
    """Per-window, per-dimension reversal score: -sign(step_t) * step_{t+1}.

    Positive values mean the trajectory turned back on itself between
    consecutive steps. Takes an array or a Tensor; on a Tensor the sign factor
    is a constant, so gradient flows only through the second step.
    """
    d1 = theta_seq[..., 1:, :] - theta_seq[..., :-1, :]
    return -np.sign(tz.value(d1)[..., :-1, :]) * d1[..., 1:, :]


def kinetics_loss(theta_seq, track_or_labels) -> tz.Tensor:
    """Hinged direction-reversal penalty over reaching/releasing windows.

    Mean of max(0, reversal) over qualifying windows and pose dimensions;
    exactly zero for per-dimension monotone trajectories, and zero when no
    window qualifies.
    """
    th = tz.as_tensor(theta_seq)
    if th.shape[-2] < 3:
        raise ContractError(f"kinetics needs T >= 3, got {th.shape[-2]}")
    labels = _labels_array(track_or_labels)
    phi = direction_reversal(th)                     # (..., T-2, D)
    win = _reach_release_windows(labels)             # (..., T-2)
    D = th.shape[-1]
    counts = win.sum(axis=-1)                        # (...,)
    denom = np.where(counts > 0, counts * D, 1).astype(np.float64)
    weights = win.astype(np.float64) / denom[..., None]
    batch = int(np.prod(win.shape[:-1], dtype=np.int64)) if win.ndim > 1 else 1
    return tz.tsum(tz.hinge(phi) * tz.Tensor(weights[..., None])) / batch


def stability_loss(theta_f_seq, track_or_labels) -> tz.Tensor:
    """Mean squared finger-pose change over consecutive stable-grasp pairs."""
    th = tz.as_tensor(theta_f_seq)
    if th.shape[-2] < 2:
        raise ContractError(f"stability needs T >= 2, got {th.shape[-2]}")
    labels = _labels_array(track_or_labels)
    diff = th[..., 1:, :] - th[..., :-1, :]
    grasp = labels == MotionState.STABLE_GRASPING
    pairs = grasp[..., :-1] & grasp[..., 1:]         # (..., T-1)
    counts = pairs.sum(axis=-1)
    denom = np.where(counts > 0, counts, 1).astype(np.float64)
    weights = pairs.astype(np.float64) / denom[..., None]
    batch = int(np.prod(pairs.shape[:-1], dtype=np.int64)) if pairs.ndim > 1 else 1
    sq = tz.tsum(diff * diff, axis=-1)               # (..., T-1)
    return tz.tsum(sq * tz.Tensor(weights)) / batch
