"""Synthetic hand-object interaction corpus.

Each sequence follows a scripted free / reach / grasp / manipulate / release
plan: the wrist travels on minimum-jerk (quintic) segments, fingers close
monotonically onto a grasp target and freeze while grasping, manipulation
wiggles the finger pose sinusoidally while the object co-moves rigidly with
the wrist. The script doubles as the label oracle for the state annotator.

Also home to the perturbation model used to fabricate noisy "frame-wise
estimates" from clean motion (``perturb``), the Gaussian preprocessing filter
(``gaussian_smooth``), and the constant-acceleration smoothness penalty the
``const-accel`` ablation trains with in place of the physics losses
(``constant_accel_penalty``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as tz
from .errors import ContractError
from .hand import BONE_COUNT, HandModel, _bone_scales, fk_transforms
from .motion import FINGER_POSE, FRAME_DIM, ROOT_ORIENT, SHAPE, TRANSLATION
from .physics import (CONTACT_THRESHOLD_MM, MotionState, ObjectTrack, StateTrack,
                      check_positive, hand_object_distance)
from .rng import RandomStream

INDEX_TIP = 8


def min_jerk_profile(n: int) -> np.ndarray:
    """Quintic ease 0..1 over n samples: s(k/(n-1)), monotone, zero end velocity."""
    if n <= 1:
        return np.ones(max(n, 0))
    tau = np.arange(n) / (n - 1)
    return 10 * tau**3 - 15 * tau**4 + 6 * tau**5


@dataclass
class ScriptSpec:
    """One scripted interaction; every field is in frames, mm or radians."""

    free_frames: int = 2
    reach_frames: int = 5
    grasp_frames: int = 3
    manipulate_frames: int = 3
    release_frames: int = 3
    object_center: np.ndarray = field(default_factory=lambda: np.array([60.0, 160.0, 40.0]))
    contact_threshold: float = CONTACT_THRESHOLD_MM
    grasp_distance: float = 3.0
    retreat_dir: np.ndarray = field(default_factory=lambda: np.array([-0.3, -0.8, 0.5]))
    retreat_len: float = 90.0
    release_dir: np.ndarray = field(default_factory=lambda: np.array([0.4, -0.7, 0.6]))
    release_len: float = 80.0
    root_orient: np.ndarray = field(default_factory=lambda: np.zeros(3))
    grasp_theta: np.ndarray = field(default_factory=lambda: np.zeros((15, 3)))
    open_delta: np.ndarray = field(default_factory=lambda: np.zeros((15, 3)))
    beta: np.ndarray = field(default_factory=lambda: np.zeros(10))
    manipulation_amplitude: np.ndarray = field(default_factory=lambda: np.full(45, 0.05))
    manipulation_phase: np.ndarray = field(default_factory=lambda: np.zeros(45))
    manipulation_lift: float = 14.0
    seed: int = 0

    @property
    def total_frames(self) -> int:
        return (self.free_frames + self.reach_frames + self.grasp_frames
                + self.manipulate_frames + self.release_frames)

    def validate(self):
        for name in ("free_frames", "reach_frames", "grasp_frames", "manipulate_frames", "release_frames"):
            if getattr(self, name) < 0:
                raise ContractError(f"{name} must be >= 0")
        if self.total_frames < 4:
            raise ContractError(f"script too short: {self.total_frames} < 4 frames")
        interacting = self.grasp_frames or self.manipulate_frames or self.release_frames
        if interacting and self.reach_frames < 2:
            raise ContractError("interaction phases need reach_frames >= 2 to arrive at the object")
        if self.release_frames == 1:
            raise ContractError("release needs >= 2 frames to depart (or 0 to stay grasping)")
        check_positive("contact_threshold_mm", self.contact_threshold)


MIN_SCRIPT_FRAMES = 14  # the shortest length every phase of a randomized script fits in


def sample_script(stream: RandomStream, total_frames: int = 16) -> ScriptSpec:
    """Randomized but feasible interaction script with the given length."""
    if total_frames < MIN_SCRIPT_FRAMES:
        raise ContractError(f"randomized scripts need >= {MIN_SCRIPT_FRAMES} frames, got {total_frames}")
    free = int(stream.integers(0, 2))
    reach = int(stream.integers(5, 6))
    grasp = int(stream.integers(2, 4))
    manip = int(stream.integers(3, 4))
    release = total_frames - free - reach - grasp - manip
    while release < 3:  # shrink the slack phases deterministically
        if grasp > 2:
            grasp -= 1
        elif manip > 3:
            manip -= 1
        elif free > 0:
            free -= 1
        else:
            reach -= 1
        release = total_frames - free - reach - grasp - manip

    curl = stream.uniform(0.45, 0.85, (5,))
    grasp_theta = np.zeros((15, 3))
    grasp_theta[:, 0] = np.repeat(curl, 3) * np.tile([1.0, 0.9, 0.7], 5)
    grasp_theta[:, 1:] = stream.uniform(-0.08, 0.08, (15, 2))
    open_delta = np.zeros((15, 3))
    open_delta[:, 0] = stream.uniform(0.06, 0.12, (15,))
    open_delta[:, 1:] = stream.uniform(-0.02, 0.02, (15, 2))

    def unit(v):
        return v / np.linalg.norm(v)

    return ScriptSpec(
        free_frames=free,
        reach_frames=reach,
        grasp_frames=grasp,
        manipulate_frames=manip,
        release_frames=release,
        object_center=stream.uniform(-60, 60, (3,)) + np.array([0.0, 170.0, 30.0]),
        retreat_dir=unit(stream.normal((3,)) + np.array([0, -2.0, 0.5])),
        retreat_len=float(stream.uniform(75, 110)),
        release_dir=unit(stream.normal((3,)) + np.array([0, -1.5, 1.0])),
        release_len=float(stream.uniform(60, 100)),
        root_orient=stream.uniform(-0.25, 0.25, (3,)),
        grasp_theta=grasp_theta,
        open_delta=open_delta,
        beta=stream.normal((10,), scale=0.5),
        manipulation_amplitude=stream.uniform(0.04, 0.08, (45,)),
        manipulation_phase=stream.uniform(0, 2 * np.pi, (45,)),
        manipulation_lift=float(stream.uniform(8, 18)),
        seed=stream.seed,
    )


def _fingertip_offsets(spec: ScriptSpec, theta: np.ndarray, model: HandModel) -> np.ndarray:
    """Index fingertip positions (n, 3) relative to the wrist for n finger poses (n, 45).

    One FK call for all n, with the bone scales of the script's shape computed
    once: the same bits as n single-frame calls.
    """
    n = theta.shape[0]
    scales = np.broadcast_to(_bone_scales(tz.plain, spec.beta, model), (n, BONE_COUNT))
    joints, _ = fk_transforms(np.broadcast_to(spec.root_orient, (n, 3)), theta.reshape(n, 15, 3),
                              np.broadcast_to(spec.beta, (n, 10)), np.zeros((n, 3)), model,
                              scales=scales)
    return joints[:, INDEX_TIP]


def generate_sequence(spec: ScriptSpec, model: HandModel):
    """Synthesize one interaction: (motion (T,61), ObjectTrack, StateTrack).

    The returned StateTrack is the script truth: phase labels, with frames
    whose planned hand-object distance is inside the contact threshold
    relabeled to the grasping family (arrival/hold frames belong to the
    grasp, not to the travel phases).
    """
    spec.validate()
    T = spec.total_frames
    nf, nr, ng, nm, nl = (spec.free_frames, spec.reach_frames, spec.grasp_frames,
                          spec.manipulate_frames, spec.release_frames)

    grasp_flat = spec.grasp_theta.reshape(45)
    start_flat = (spec.grasp_theta - spec.open_delta).reshape(45)
    tip_rel = _fingertip_offsets(spec, grasp_flat[None], model)[0]
    approach = spec.retreat_dir / np.linalg.norm(spec.retreat_dir)
    wrist_grasp = spec.object_center - tip_rel + approach * spec.grasp_distance
    wrist_start = wrist_grasp + approach * spec.retreat_len

    trans = np.zeros((T, 3))
    theta = np.zeros((T, 45))
    obj = np.tile(spec.object_center, (T, 1))
    phase = np.zeros(T, dtype=np.int64)  # 0 free, 1 reach, 2 grasp, 3 manip, 4 release
    cursor = 0

    trans[:] = wrist_start
    theta[:] = start_flat if (nr or ng or nm or nl) else 0.0
    phase[cursor : cursor + nf] = 0
    cursor += nf

    if nr:
        s = min_jerk_profile(nr)
        trans[cursor : cursor + nr] = wrist_start + s[:, None] * (wrist_grasp - wrist_start)
        # fingers close in lockstep with wrist progress, done two frames early,
        # so the approach distance shrinks monotonically despite the curl
        finish = s[nr - 3] if nr >= 3 else s[-1]
        sc = np.clip(s / max(finish, 1e-9), 0.0, 1.0)
        theta[cursor : cursor + nr] = start_flat + sc[:, None] * (grasp_flat - start_flat)
        theta[cursor + nr :] = grasp_flat
        phase[cursor : cursor + nr] = 1
        cursor += nr

    if ng:
        trans[cursor : cursor + ng] = wrist_grasp
        phase[cursor : cursor + ng] = 2
        cursor += ng

    manip_end_theta = grasp_flat
    if nm:
        k = np.arange(nm)
        wiggle = spec.manipulation_amplitude * (
            np.sin(2 * np.pi * k[:, None] / nm + spec.manipulation_phase)
            - np.sin(spec.manipulation_phase)
        )
        theta[cursor : cursor + nm] = grasp_flat + wiggle
        lift = spec.manipulation_lift * np.sin(np.pi * k / max(nm - 1, 1))
        trans[cursor : cursor + nm] = wrist_grasp + lift[:, None] * np.array([0.0, 0.0, 1.0])
        # the grasped object rides with the contacting fingertip
        ref_tip = wrist_grasp + tip_rel
        span = slice(cursor, cursor + nm)
        tips = trans[span] + _fingertip_offsets(spec, theta[span], model)
        obj[span] = spec.object_center + (tips - ref_tip)
        obj[cursor + nm :] = obj[cursor + nm - 1]
        manip_end_theta = theta[cursor + nm - 1].copy()
        phase[cursor : cursor + nm] = 3
        cursor += nm

    if nl:
        depart = spec.release_dir / np.linalg.norm(spec.release_dir)
        start = trans[cursor - 1].copy()
        s = min_jerk_profile(nl)
        trans[cursor : cursor + nl] = start + (s * spec.release_len)[:, None] * depart
        # fingers hold through the departure, open monotonically, and freeze
        # for the final frame so the distance trend stays wrist-driven
        hold = min(2, nl)
        theta[cursor : cursor + nl] = manip_end_theta
        open_n = nl - hold - 1
        if open_n > 0:
            so = min_jerk_profile(open_n + 1)[1:]  # strictly increasing steps
            open_target = manip_end_theta - spec.open_delta.reshape(45)
            theta[cursor + hold : cursor + hold + open_n] = (
                manip_end_theta + so[:, None] * (open_target - manip_end_theta)
            )
            theta[cursor + hold + open_n :] = open_target
        phase[cursor : cursor + nl] = 4
        cursor += nl

    motion = np.zeros((T, FRAME_DIM))
    motion[:, ROOT_ORIENT] = spec.root_orient
    motion[:, FINGER_POSE] = theta
    motion[:, SHAPE] = spec.beta
    motion[:, TRANSLATION] = trans

    track = ObjectTrack(center=obj, contact_threshold=spec.contact_threshold)
    d = hand_object_distance(motion, track, model)
    contact = d < spec.contact_threshold

    phase_to_state = {
        0: MotionState.FREE,
        1: MotionState.REACHING,
        2: MotionState.STABLE_GRASPING,
        3: MotionState.MANIPULATION,
        4: MotionState.RELEASING,
    }
    labels = np.array([phase_to_state[p] for p in phase], dtype=np.int64)
    # planned-contact frames belong to the grasping family regardless of phase:
    # stable only where the planned fingers are exactly flat around the frame
    # (so consecutive stable frames are bitwise-frozen), manipulating otherwise
    flat = np.ones(T, dtype=bool)
    flat[:-1] &= np.all(theta[:-1] == theta[1:], axis=1)
    flat[1:] &= np.all(theta[1:] == theta[:-1], axis=1)
    labels[contact & flat & (phase != 3)] = MotionState.STABLE_GRASPING
    labels[contact & (~flat | (phase == 3))] = MotionState.MANIPULATION
    # travel frames that lost contact keep their phase label (already set)

    return motion, track, StateTrack(labels=labels, contact=contact, dist=d)


# ---------------------------------------------------------------------------
# perturbation model


@dataclass
class PerturbSpec:
    """Noise model turning clean motion into synthetic frame-wise estimates."""

    noise_std: float | np.ndarray = 0.0   # white noise per channel
    mask_prob: float = 0.0                # chance a frame starts an occlusion burst
    burst_mean: float = 3.0               # mean burst length (geometric)
    mask_noise_std: float = 0.0           # extra noise on held frames

    def validate(self):
        if not 0.0 <= self.mask_prob <= 1.0:
            raise ContractError(f"mask_prob must be in [0,1], got {self.mask_prob}")
        if self.burst_mean < 1.0:
            raise ContractError("burst_mean must be >= 1 frame")


def perturb(x: np.ndarray, spec: PerturbSpec, stream: RandomStream,
            channel_scale: np.ndarray | None = None) -> np.ndarray:
    """Apply white noise plus held-frame occlusion bursts to a clean sequence.

    ``channel_scale`` converts the spec's noise levels into raw units
    (pass the normalizer std to express noise in normalized units).
    """
    spec.validate()
    x = np.asarray(x, dtype=np.float64)
    T, D = x.shape
    scale = np.ones(D) if channel_scale is None else np.asarray(channel_scale, dtype=np.float64)

    y = x + stream.normal((T, D)) * np.asarray(spec.noise_std) * scale

    burst_left = 0
    burst_pose = None
    last_good = 0
    for t in range(1, T):
        if burst_left <= 0:
            if spec.mask_prob > 0 and stream.uniform() < spec.mask_prob:
                burst_left = stream.geometric(1.0 / spec.burst_mean)
                # an occlusion latches one corrupted copy of the last good frame
                burst_pose = x[last_good] + stream.normal((D,)) * np.asarray(spec.mask_noise_std) * scale
            else:
                last_good = t
                continue
        y[t] = burst_pose
        burst_left -= 1
    return y


def gaussian_smooth(x: np.ndarray, sigma_frames: float) -> np.ndarray:
    """Per-channel 1-D Gaussian filter, reflect-padded, kernel cut at 4 sigma."""
    if sigma_frames < 0:
        raise ContractError("sigma must be >= 0")
    x = np.asarray(x, dtype=np.float64)
    if sigma_frames == 0:
        return x.copy()
    radius = max(int(np.ceil(4.0 * sigma_frames)), 1)
    k = np.arange(-radius, radius + 1, dtype=np.float64)
    kernel = np.exp(-0.5 * (k / sigma_frames) ** 2)
    kernel /= kernel.sum()
    padded = np.pad(x, ((radius, radius), (0, 0)), mode="reflect")
    out = np.empty_like(x)
    for c in range(x.shape[1]):
        out[:, c] = np.convolve(padded[:, c], kernel, mode="valid")
    return out


def constant_accel_penalty(seq) -> tz.Tensor:
    """Mean squared third difference: zero iff acceleration is constant.

    Drop-in substitute for the physics losses in the ablation study; works on
    tensors (training) and plain arrays (call .item() for the value).
    """
    s = tz.as_tensor(seq)
    if s.shape[-2] < 4:
        raise ContractError(f"constant-acceleration penalty needs T >= 4, got {s.shape[-2]}")
    jerk = (s[..., 3:, :] - 3.0 * s[..., 2:-1, :] + 3.0 * s[..., 1:-2, :] - s[..., :-3, :])
    return tz.tmean(jerk * jerk)
