"""Procedural parametric hand: pose/shape -> joints and mesh.

The skeleton is a 21-joint tree (wrist + 5 fingers x mcp/pip/dip/tip); the 15
non-tip finger joints carry axis-angle pose parameters. Shape coefficients
scale bone lengths through a fixed seeded basis. The mesh is a deterministic
set of capsule rings strung along the bones, rigged by linear blend skinning
with one joint per ring, which keeps the joint regressor exact under
articulation. Forward kinematics runs in plain numpy, one tree level (five
joints) at a time; when an input needs a gradient (the training loss's joint
term) the same FK runs in autodiff tensor ops, so joint positions are
differentiable w.r.t. pose and shape.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import tensor as tz
from .errors import InputError, ShapeError
from .rng import RandomStream
from .tensor import Tensor

# ---------------------------------------------------------------------------
# skeleton layout

JOINT_COUNT = 21
PARENTS = np.array([-1, 0, 1, 2, 3, 0, 5, 6, 7, 0, 9, 10, 11, 0, 13, 14, 15, 0, 17, 18, 19])
TIP_JOINTS = (4, 8, 12, 16, 20)
ARTICULATED = tuple(j for j in range(1, JOINT_COUNT) if j not in TIP_JOINTS)  # 15 joints
BONE_COUNT = JOINT_COUNT - 1  # bone b connects PARENTS[b+1] -> b+1

FINGER_NAMES = ("thumb", "index", "middle", "ring", "little")

# Rest joint positions in mm: right hand, palm facing +z, fingers along +y.
_THUMB_DIR = np.array([0.74, 0.62, 0.26])
_THUMB_DIR = _THUMB_DIR / np.linalg.norm(_THUMB_DIR)


def _chain(base, direction, lengths):
    pts = [np.asarray(base, dtype=float)]
    d = np.asarray(direction, dtype=float)
    d = d / np.linalg.norm(d)
    for ln in lengths:
        pts.append(pts[-1] + ln * d)
    return pts[1:]


def _rest_positions() -> np.ndarray:
    pos = np.zeros((JOINT_COUNT, 3))
    pos[1] = np.array([28.0, 18.0, -4.0])
    pos[2:5] = _chain(pos[1], _THUMB_DIR, [34.0, 26.0, 22.0])
    pos[5] = np.array([23.0, 84.0, 0.0])
    pos[6:9] = _chain(pos[5], [0.05, 1.0, 0.0], [40.0, 24.0, 20.0])
    pos[9] = np.array([2.0, 88.0, 0.0])
    pos[10:13] = _chain(pos[9], [0.0, 1.0, 0.0], [44.0, 27.0, 21.0])
    pos[13] = np.array([-18.0, 84.0, 0.0])
    pos[14:17] = _chain(pos[13], [-0.05, 1.0, 0.0], [40.0, 25.0, 20.0])
    pos[17] = np.array([-35.0, 74.0, 0.0])
    pos[18:21] = _chain(pos[17], [-0.12, 1.0, 0.0], [31.0, 20.0, 17.0])
    return pos


REST_POSITIONS = _rest_positions()
REST_OFFSETS = np.zeros((JOINT_COUNT, 3))
REST_OFFSETS[1:] = REST_POSITIONS[1:] - REST_POSITIONS[PARENTS[1:]]


# ---------------------------------------------------------------------------
# configuration and model container


@dataclass(frozen=True)
class HandModelConfig:
    """Deterministic recipe for the mesh, shape basis and regressor."""

    seed: int = 2024
    ring_verts: int = 2
    ring_fractions: tuple = (0.0, 0.5)
    wrist_ring_verts: int = 8
    wrist_radius: float = 16.0
    bone_radii: tuple = (9.0, 7.0, 6.0, 5.0)  # by depth: palm/proximal/middle/distal
    tip_radius: float = 2.5
    shape_entry_range: float = 0.05
    shape_scale_floor: float = 0.05

    def to_json(self) -> str:
        d = {k: (list(v) if isinstance(v, tuple) else v) for k, v in self.__dict__.items()}
        return json.dumps(d, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "HandModelConfig":
        d = json.loads(text)
        for key in ("ring_fractions", "bone_radii"):
            if key in d:
                d[key] = tuple(d[key])
        return cls(**d)


@dataclass(frozen=True)
class HandModel:
    config: HandModelConfig
    parents: np.ndarray
    rest_offsets: np.ndarray          # (21,3) mm, row 0 unused
    shape_basis: np.ndarray           # (20,10) beta -> per-bone scale deviation
    vert_parent: np.ndarray           # (V,) joint index owning the ring start
    vert_child: np.ndarray            # (V,)
    vert_frac: np.ndarray             # (V,) position along the bone
    vert_radial: np.ndarray           # (V,3) static radial offset, mm
    vert_attach: np.ndarray           # (V,) skinning joint (weight 1)
    ring_slices: list                 # list of (start, stop) vertex ranges per ring
    regressor: np.ndarray             # (21,V), rows non-negative, sum to 1
    adjacency_norm: np.ndarray        # (V,V) row-normalized (A+I) for mesh conv

    @property
    def vertex_count(self) -> int:
        return self.vert_frac.shape[0]


def _perp_basis(u):
    a = np.array([0.0, 0.0, 1.0]) if abs(u[2]) < 0.9 else np.array([1.0, 0.0, 0.0])
    e1 = np.cross(u, a)
    e1 = e1 / np.linalg.norm(e1)
    e2 = np.cross(u, e1)
    return e1, e2


def _bone_depth(child: int) -> int:
    depth = 0
    j = child
    while PARENTS[j] != 0:
        j = PARENTS[j]
        depth += 1
    return depth


def build_hand_model(config: HandModelConfig | None = None) -> HandModel:
    """Construct the full model deterministically from its config."""
    cfg = config or HandModelConfig()
    rng = RandomStream(cfg.seed, "shape-basis")
    basis = rng.uniform(-cfg.shape_entry_range, cfg.shape_entry_range, (BONE_COUNT, 10))

    rings = []  # (parent, child, frac, radius, vcount)
    for child in range(1, JOINT_COUNT):
        parent = PARENTS[child]
        radius = cfg.bone_radii[min(_bone_depth(child), len(cfg.bone_radii) - 1)]
        for f in cfg.ring_fractions:
            rings.append((parent, child, f, radius, cfg.ring_verts))
        if child in TIP_JOINTS:
            rings.append((parent, child, 1.0, cfg.tip_radius, cfg.ring_verts))
    rings.append((0, 0, 0.0, cfg.wrist_radius, cfg.wrist_ring_verts))

    vp, vc, vf, vr, va = [], [], [], [], []
    ring_slices = []
    cursor = 0
    for parent, child, f, radius, m in rings:
        if parent == child:  # wrist base ring, oriented in the palm plane
            u = np.array([0.0, 1.0, 0.0])
        else:
            u = REST_OFFSETS[child] / np.linalg.norm(REST_OFFSETS[child])
        e1, e2 = _perp_basis(u)
        for k in range(m):
            ang = 2.0 * np.pi * k / m
            vp.append(parent)
            vc.append(child)
            vf.append(f)
            vr.append(radius * (np.cos(ang) * e1 + np.sin(ang) * e2))
            va.append(parent)
        ring_slices.append((cursor, cursor + m))
        cursor += m

    vert_parent = np.array(vp)
    vert_child = np.array(vc)
    vert_frac = np.array(vf, dtype=float)
    vert_radial = np.array(vr)
    vert_attach = np.array(va)
    V = cursor

    model = HandModel(
        config=cfg,
        parents=PARENTS.copy(),
        rest_offsets=REST_OFFSETS.copy(),
        shape_basis=basis,
        vert_parent=vert_parent,
        vert_child=vert_child,
        vert_frac=vert_frac,
        vert_radial=vert_radial,
        vert_attach=vert_attach,
        ring_slices=ring_slices,
        regressor=np.zeros((JOINT_COUNT, V)),
        adjacency_norm=np.zeros((V, V)),
    )
    H = _fit_regressor(model, rings)
    A = _build_adjacency(model, rings)
    model.regressor[:] = H
    model.adjacency_norm[:] = A
    return model


def _fit_regressor(model: HandModel, rings) -> np.ndarray:
    """Least-squares fit of each joint onto co-located ring centers.

    Candidate rings for a joint are those whose center coincides with it at
    rest (bone-start rings of its child bones, tip caps, the wrist base
    ring). Fitted coefficients are clamped non-negative, renormalized to sum
    one, and spread uniformly over each ring's vertices, which keeps the
    regression exact under articulation because whole rings move rigidly.
    """
    V = model.vertex_count
    rest = rest_joints(model, np.zeros(10))
    centers = []
    for (parent, child, f, _r, _m) in rings:
        centers.append((1 - f) * rest[parent] + f * rest[child])
    centers = np.array(centers)

    H = np.zeros((JOINT_COUNT, V))
    for j in range(JOINT_COUNT):
        cand = [i for i, c in enumerate(centers) if np.linalg.norm(c - rest[j]) < 1e-9]
        if not cand:
            raise InputError(f"no ring covers joint {j}; template config is degenerate")
        A = np.vstack([centers[cand].T, np.ones(len(cand))])
        b = np.append(rest[j], 1.0)
        coef, *_ = np.linalg.lstsq(A, b, rcond=None)
        coef = np.maximum(coef, 0.0)
        coef = coef / coef.sum()
        for weight, ridx in zip(coef, cand):
            start, stop = model.ring_slices[ridx]
            H[j, start:stop] += weight / (stop - start)
    return H


def _build_adjacency(model: HandModel, rings) -> np.ndarray:
    V = model.vertex_count
    A = np.zeros((V, V))

    def link(i, k):
        A[i, k] = 1.0
        A[k, i] = 1.0

    def link_rings(r1, r2):
        s1, e1 = model.ring_slices[r1]
        s2, e2 = model.ring_slices[r2]
        m = min(e1 - s1, e2 - s2)
        for k in range(max(e1 - s1, e2 - s2)):
            link(s1 + k % (e1 - s1), s2 + k % (e2 - s2))

    by_bone: dict[tuple, list] = {}
    wrist_ring = None
    for idx, (parent, child, f, _r, _m) in enumerate(rings):
        s, e = model.ring_slices[idx]
        n = e - s
        for k in range(n):  # within-ring cycle
            if n > 1:
                link(s + k, s + (k + 1) % n)
        if parent == child:
            wrist_ring = idx
        else:
            by_bone.setdefault((parent, child), []).append((f, idx))

    for (parent, child), lst in by_bone.items():
        lst.sort()
        for (_, r1), (_, r2) in zip(lst, lst[1:]):  # consecutive rings along the bone
            link_rings(r1, r2)
        # last ring of this bone to the first ring of each child bone
        last = lst[-1][1]
        for (p2, c2), lst2 in by_bone.items():
            if p2 == child:
                link_rings(last, lst2[0][1])
        if parent == 0:
            link_rings(wrist_ring, lst[0][1])

    np.fill_diagonal(A, A.diagonal() + 1.0)
    return A / A.sum(axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# pose container


def wrap_axis_angle(v: np.ndarray) -> np.ndarray:
    """Wrap axis-angle vectors so the rotation magnitude lies in [0, pi]."""
    v = np.asarray(v, dtype=float)
    theta = np.linalg.norm(v, axis=-1, keepdims=True)
    wrapped = np.mod(theta + np.pi, 2.0 * np.pi) - np.pi
    factor = np.where(theta > 1e-12, wrapped / np.where(theta > 1e-12, theta, 1.0), 1.0)
    return v * factor


@dataclass
class HandPose:
    root_orient: np.ndarray
    theta: np.ndarray                 # (15,3)
    beta: np.ndarray                  # (10,)
    root_translation: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        self.root_orient = np.asarray(self.root_orient, dtype=float).reshape(3)
        self.theta = np.asarray(self.theta, dtype=float).reshape(15, 3)
        self.beta = np.asarray(self.beta, dtype=float).reshape(10)
        self.root_translation = np.asarray(self.root_translation, dtype=float).reshape(3)
        for arr, what in ((self.root_orient, "root_orient"), (self.theta, "theta"),
                          (self.beta, "beta"), (self.root_translation, "root_translation")):
            if not np.all(np.isfinite(arr)):
                raise InputError(f"non-finite values in {what}")

    @classmethod
    def from_vector(cls, v: np.ndarray) -> "HandPose":
        """Build from a 61-float frame; axis-angle blocks are canonicalized."""
        v = np.asarray(v, dtype=float).reshape(61)
        return cls(
            root_orient=wrap_axis_angle(v[0:3]),
            theta=wrap_axis_angle(v[3:48].reshape(15, 3)),
            beta=v[48:58],
            root_translation=v[58:61],
        )

    def to_vector(self) -> np.ndarray:
        return np.concatenate([self.root_orient, self.theta.reshape(45), self.beta, self.root_translation])


# ---------------------------------------------------------------------------
# rotations

_SMALL_ANGLE = 1e-7


def rodrigues(w: Tensor) -> Tensor:
    """Axis-angle (..., 3) -> rotation matrices (..., 3, 3), differentiable.

    Below |w| = 1e-7 the sin/cos coefficients switch to their series
    expansions so the 0/0 at the identity never appears in forward or
    backward passes.
    """
    w = tz.as_tensor(w)
    lead = w.shape[:-1]
    m = int(np.prod(lead, dtype=np.int64)) if lead else 1
    w2 = tz.reshape(w, (m, 3))

    s2 = tz.tsum(tz.mul(w2, w2), axis=-1, keepdims=True)          # (m,1)
    small = s2.data < _SMALL_ANGLE**2
    s2_safe = tz.where(small, Tensor(np.ones_like(s2.data)), s2)
    theta = tz.sqrt(s2_safe)
    sin_c = tz.where(small, 1.0 - s2 * (1.0 / 6.0), tz.div(tz.sin(theta), theta))
    cos_c = tz.where(small, 0.5 - s2 * (1.0 / 24.0), tz.div(1.0 - tz.cos(theta), s2_safe))

    wx = w2[:, 0:1]
    wy = w2[:, 1:2]
    wz = w2[:, 2:3]
    zero = Tensor(np.zeros((m, 1)))
    k_flat = tz.concatenate([zero, -wz, wy, wz, zero, -wx, -wy, wx, zero], axis=1)
    K = tz.reshape(k_flat, (m, 3, 3))
    K2 = tz.matmul(K, K)
    eye = Tensor(np.broadcast_to(np.eye(3), (m, 3, 3)).copy())
    R = eye + tz.reshape(sin_c, (m, 1, 1)) * K + tz.reshape(cos_c, (m, 1, 1)) * K2
    return tz.reshape(R, lead + (3, 3))


def so3_exp(w: np.ndarray) -> np.ndarray:
    """``rodrigues`` in plain numpy, op for op, for callers that need no gradient."""
    w = np.asarray(w, dtype=np.float64)
    lead = w.shape[:-1]
    w2 = w.reshape(-1, 3)
    m = w2.shape[0]
    s2 = np.sum(w2 * w2, axis=-1, keepdims=True)
    small = s2 < _SMALL_ANGLE**2
    s2_safe = np.where(small, 1.0, s2)
    theta = np.sqrt(s2_safe)
    sin_c = np.where(small, 1.0 - s2 * (1.0 / 6.0), np.sin(theta) / theta)
    cos_c = np.where(small, 0.5 - s2 * (1.0 / 24.0), (1.0 - np.cos(theta)) / s2_safe)
    wx, wy, wz = w2[:, 0:1], w2[:, 1:2], w2[:, 2:3]
    zero = np.zeros((m, 1))
    K = np.concatenate([zero, -wz, wy, wz, zero, -wx, -wy, wx, zero], axis=1).reshape(m, 3, 3)
    R = np.eye(3) + sin_c.reshape(m, 1, 1) * K + cos_c.reshape(m, 1, 1) * (K @ K)
    return R.reshape(lead + (3, 3))


def so3_log(R: np.ndarray) -> np.ndarray:
    """Rotation matrix -> axis-angle with |result| <= pi (numpy helper)."""
    R = np.asarray(R, dtype=float)
    cos_t = np.clip((np.trace(R) - 1.0) / 2.0, -1.0, 1.0)
    theta = np.arccos(cos_t)
    if theta < 1e-10:
        return np.zeros(3)
    if np.pi - theta < 1e-6:
        # near pi: extract the axis from the symmetric part
        M = (R + np.eye(3)) / 2.0
        axis = np.sqrt(np.maximum(np.diagonal(M), 0.0))
        axis = axis / np.linalg.norm(axis)
        col = np.argmax(np.abs(axis))
        signs = np.sign(M[:, col] / np.where(axis[col] == 0, 1, axis[col]))
        signs[signs == 0] = 1.0
        axis = axis * signs * np.sign(axis[col])
        return axis * theta
    v = np.array([R[2, 1] - R[1, 2], R[0, 2] - R[2, 0], R[1, 0] - R[0, 1]])
    return v * theta / (2.0 * np.sin(theta))


def compose_axis_angle(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return so3_log(so3_exp(a) @ so3_exp(b))


# ---------------------------------------------------------------------------
# kinematics


# Joints by depth, five per level; each level's parents are the level before
# (the wrist for the first), so FK runs as four batched steps. Last: the tips.
_LEVELS = tuple(np.arange(depth, JOINT_COUNT, 4) for depth in range(1, 5))


def bone_scales(beta, model: HandModel):
    """Per-bone length scales from shape coefficients: floor + hinge keeps >0."""
    beta_t = tz.as_tensor(beta)
    basis_t = Tensor(model.shape_basis.T)  # (10,20)
    lead = beta_t.shape[:-1]
    flat = tz.reshape(beta_t, (int(np.prod(lead, dtype=np.int64)) if lead else 1, 10))
    dev = tz.matmul(flat, basis_t)  # (m,20)
    floor = model.config.shape_scale_floor
    scale = floor + tz.hinge(1.0 + dev - floor)
    return tz.reshape(scale, lead + (BONE_COUNT,))


def _bone_scales_np(beta: np.ndarray, model: HandModel) -> np.ndarray:
    """``bone_scales`` in plain numpy, op for op: (..., 10) -> (..., 20)."""
    dev = beta.reshape(-1, 10) @ model.shape_basis.T
    floor = model.config.shape_scale_floor
    return (floor + np.maximum(1.0 + dev - floor, 0.0)).reshape(beta.shape[:-1] + (BONE_COUNT,))


def fk_transforms(root_orient, theta, beta, trans, model: HandModel, *, scales=None):
    """Batched FK: (..., 3), (..., 15, 3), (..., 10), (..., 3) -> joints and rotations.

    Returns (positions (..., 21, 3), global rotations (..., 21, 3, 3)): tensors,
    with gradient through all four inputs, if an input is a Tensor that requires
    a gradient while recording is on; otherwise arrays from a plain numpy FK,
    bitwise equal. ``scales`` (``bone_scales(beta)``) spares recomputing them.
    """
    inputs = (root_orient, theta, beta, trans)
    arrays = [np.asarray(x.data if isinstance(x, Tensor) else x, dtype=np.float64) for x in inputs]
    for a, what in zip(arrays, ("root_orient", "theta", "beta", "root_translation")):
        if not np.all(np.isfinite(a)):
            raise InputError(f"non-finite values in {what}")
    if tz.grad_enabled() and any(isinstance(x, Tensor) and x.requires_grad for x in inputs):
        return _fk_tensor(*inputs, model)

    ro, th, be, tr = arrays
    lead = ro.shape[:-1]
    m = int(np.prod(lead, dtype=np.int64))
    if scales is None:
        scales = _bone_scales_np(be, model)
    rot16 = so3_exp(np.concatenate([ro.reshape(m, 1, 3), th.reshape(m, 15, 3)], axis=1))
    offsets = model.rest_offsets[1:] * np.reshape(scales, (m, BONE_COUNT, 1))
    pos = np.empty((m, JOINT_COUNT, 3))
    rot = np.empty((m, JOINT_COUNT, 3, 3))
    pos[:, 0] = tr.reshape(m, 3)
    rot[:, 0] = rot16[:, 0]
    for depth, level in enumerate(_LEVELS):  # take(): a faster gather than fancy indexing
        parent = PARENTS[level]
        rot_p = rot.take(parent, axis=1)
        pos[:, level] = pos.take(parent, axis=1) + (rot_p @ offsets.take(level - 1, axis=1)[..., None])[..., 0]
        # rot16 is the root's, then three per finger: depth d's are 1+d, 4+d, ...; tips have none
        rot[:, level] = rot_p @ rot16[:, 1 + depth :: 3] if depth < 3 else rot_p
    bad = ~np.isfinite(pos).all(axis=(1, 2))  # finite inputs can overflow: so3_exp squares angles
    if bad.any():
        raise InputError(f"forward kinematics overflows in frame {np.flatnonzero(bad)[0]}")
    return pos.reshape(lead + (JOINT_COUNT, 3)), rot.reshape(lead + (JOINT_COUNT, 3, 3))


def _fk_tensor(root_orient, theta, beta, trans, model: HandModel):
    """``fk_transforms`` in autodiff tensor ops, joint by joint, for the training loss."""
    ro = tz.as_tensor(root_orient)
    th = tz.as_tensor(theta)
    be = tz.as_tensor(beta)
    tr = tz.as_tensor(trans)
    lead = ro.shape[:-1]
    m = int(np.prod(lead, dtype=np.int64)) if lead else 1
    ro = tz.reshape(ro, (m, 1, 3))
    th = tz.reshape(th, (m, 15, 3))
    be = tz.reshape(be, (m, 10))
    tr = tz.reshape(tr, (m, 3))

    aa = tz.concatenate([ro, th], axis=1)  # (m,16,3): root + articulated
    rot16 = rodrigues(tz.reshape(aa, (m * 16, 3)))
    rot16 = tz.reshape(rot16, (m, 16, 3, 3))
    slot = {0: 0}
    slot.update({j: i + 1 for i, j in enumerate(ARTICULATED)})

    scales = bone_scales(be, model)  # (m,20)
    offsets = Tensor(model.rest_offsets[1:]) * tz.reshape(scales, (m, BONE_COUNT, 1))  # (m,20,3)

    rot_g: list = [None] * JOINT_COUNT
    pos: list = [None] * JOINT_COUNT
    rot_g[0] = rot16[:, 0]
    pos[0] = tr
    for j in range(1, JOINT_COUNT):
        p = PARENTS[j]
        off = tz.reshape(offsets[:, j - 1], (m, 3, 1))
        pos[j] = pos[p] + tz.reshape(tz.matmul(rot_g[p], off), (m, 3))
        if j in slot:
            rot_g[j] = tz.matmul(rot_g[p], rot16[:, slot[j]])
        else:  # tips carry no pose parameters
            rot_g[j] = rot_g[p]

    joints = tz.stack([tz.reshape(p_, (m, 1, 3)) for p_ in pos], axis=1)
    joints = tz.reshape(joints, (m, JOINT_COUNT, 3))
    rots = tz.stack([tz.reshape(r_, (m, 1, 3, 3)) for r_ in rot_g], axis=1)
    rots = tz.reshape(rots, (m, JOINT_COUNT, 3, 3))
    return tz.reshape(joints, lead + (JOINT_COUNT, 3)), tz.reshape(rots, lead + (JOINT_COUNT, 3, 3))


def forward_kinematics(pose: HandPose, model: HandModel) -> np.ndarray:
    """Joint positions (21,3) in mm for a single pose."""
    joints, _ = fk_transforms(pose.root_orient, pose.theta, pose.beta, pose.root_translation, model)
    return joints


def rest_joints(model: HandModel, beta) -> np.ndarray:
    """Shaped rest skeleton (beta-scaled bone offsets, identity rotations)."""
    return _rest_skeleton(model, _bone_scales_np(np.asarray(beta, dtype=float), model))


def _rest_skeleton(model: HandModel, scales: np.ndarray) -> np.ndarray:
    """Rest joints (..., 21, 3) from bone scales (..., 20), one tree level at a time."""
    offsets = model.rest_offsets[1:] * scales[..., None]
    out = np.zeros(scales.shape[:-1] + (JOINT_COUNT, 3))
    for level in _LEVELS:
        out[..., level, :] = out[..., PARENTS[level], :] + offsets[..., level - 1, :]
    return out


def shaped_template(model: HandModel, beta) -> np.ndarray:
    """Rest-pose mesh vertices for the given shape, (..., V, 3)."""
    return _template_on(model, rest_joints(model, beta))


def _template_on(model: HandModel, rj: np.ndarray) -> np.ndarray:
    """Rest-pose mesh vertices around a shaped rest skeleton rj (..., 21, 3)."""
    f = model.vert_frac[:, None]
    verts = (1.0 - f) * rj[..., model.vert_parent, :] + f * rj[..., model.vert_child, :]
    return verts + model.vert_radial


def skin_mesh_batch(root_orient, theta, beta, trans, model: HandModel):
    """Linear blend skinning over arbitrary leading batch dims (numpy path).

    Returns (vertices (..., V, 3), joints (..., 21, 3)); the joints are the
    FK's own, so a caller that needs both runs FK once.
    """
    root_orient = np.asarray(root_orient, dtype=float)
    lead = root_orient.shape[:-1]
    beta = np.broadcast_to(np.asarray(beta, dtype=float), lead + (10,))
    scales = _bone_scales_np(beta, model)
    joints, rots = fk_transforms(root_orient, theta, beta, trans, model, scales=scales)
    flat_joints = joints.reshape((-1, JOINT_COUNT, 3))
    rots = rots.reshape((-1, JOINT_COUNT, 3, 3))
    rj = _rest_skeleton(model, scales).reshape(-1, JOINT_COUNT, 3)
    template = _template_on(model, rj)
    att = model.vert_attach
    centered = template - rj[:, att]
    rotated = np.einsum("mvij,mvj->mvi", rots[:, att], centered)
    out = rotated + flat_joints[:, att]
    return out.reshape(lead + (model.vertex_count, 3)), joints


def skin_mesh(pose: HandPose, model: HandModel) -> np.ndarray:
    """Posed mesh vertices (V,3) in mm for a single pose."""
    verts, _ = skin_mesh_batch(pose.root_orient, pose.theta, pose.beta, pose.root_translation, model)
    return verts


def regress_joints(vertices: np.ndarray, model: HandModel) -> np.ndarray:
    """Joints as the fixed linear combination H @ vertices, (..., 21, 3)."""
    vertices = np.asarray(vertices, dtype=float)
    if vertices.shape[-2] != model.vertex_count:
        raise ShapeError(
            f"regress_joints: expected {model.vertex_count} vertices, got {vertices.shape[-2]}"
        )
    return model.regressor @ vertices


def model_spec_json(model: HandModel) -> str:
    """Serialize the model recipe: joint tree, rest offsets and seeds.

    Mesh, skinning weights and the regressor are regenerated
    deterministically from this document by ``model_from_spec_json``.
    """
    doc = {
        "config": json.loads(model.config.to_json()),
        "parents": model.parents.tolist(),
        "rest_offsets_mm": model.rest_offsets.tolist(),
    }
    return json.dumps(doc, sort_keys=True)


def model_from_spec_json(text: str) -> HandModel:
    doc = json.loads(text)
    model = build_hand_model(HandModelConfig.from_json(json.dumps(doc["config"])))
    if doc["parents"] != model.parents.tolist():
        raise InputError("model spec joint tree does not match this skeleton version")
    if not np.allclose(np.asarray(doc["rest_offsets_mm"]), model.rest_offsets, atol=1e-12):
        raise InputError("model spec rest offsets do not match this skeleton version")
    return model
