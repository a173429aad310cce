"""Procedural parametric hand: pose/shape -> joints and mesh.

The skeleton is a 21-joint tree (wrist + 5 fingers x mcp/pip/dip/tip); the 15
non-tip finger joints carry axis-angle pose parameters. Shape coefficients
scale bone lengths through a fixed seeded basis. The mesh is a deterministic
set of capsule rings strung along the bones, rigged by linear blend skinning
with one joint per ring, so whole rings move rigidly: each joint stays the
center of the rings that start at it (a tip, of its cap ring). A vertex at
fraction f along its bone rides the parent joint, and FK puts the child at
J_parent + R_parent (scaled rest offset), so skinning is exactly the constant
linear map v = (1 - f) J_parent + f J_child + R_parent radial_v of FK's joints
and rotations: one GEMM with ``skin_matrix``, its vertices C-contiguous. Forward
kinematics, the Rodrigues formula and the bone scales are written once over
an op namespace, one tree level (five joints) at a time: when an input needs
a gradient (the training loss's joint term) they run on the autodiff
``tensor`` module, so joint positions are differentiable w.r.t. pose and
shape; otherwise on ``tensor.plain``, the same arithmetic on bare arrays.

A run can use only the default recipe, so ``build_hand_model`` builds that
model once per process and hands every caller the same instance; its arrays
are read-only, so no caller can change it under another.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, fields

import numpy as np

from . import tensor as tz
from .errors import InputError
from .rng import RandomStream
from .tensor import Tensor

# ---------------------------------------------------------------------------
# skeleton layout

JOINT_COUNT = 21
PARENTS = np.array([-1, 0, 1, 2, 3, 0, 5, 6, 7, 0, 9, 10, 11, 0, 13, 14, 15, 0, 17, 18, 19])
TIP_JOINTS = (4, 8, 12, 16, 20)
ARTICULATED = tuple(j for j in range(1, JOINT_COUNT) if j not in TIP_JOINTS)  # 15 joints
BONE_COUNT = JOINT_COUNT - 1  # bone b connects PARENTS[b+1] -> b+1

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
    """Deterministic recipe for the mesh and shape basis."""

    seed: int = 2024
    ring_verts: int = 2
    ring_fractions: tuple = (0.0, 0.5)
    wrist_ring_verts: int = 8
    wrist_radius: float = 16.0
    bone_radii: tuple = (9.0, 7.0, 6.0, 5.0)  # by depth: palm/proximal/middle/distal
    tip_radius: float = 2.5
    shape_entry_range: float = 0.05
    shape_scale_floor: float = 0.05


@dataclass(frozen=True)
class HandModel:
    config: HandModelConfig
    parents: np.ndarray
    rest_offsets: np.ndarray          # (21,3) mm, row 0 unused
    shape_basis: np.ndarray           # (20,10) beta -> per-bone scale deviation
    vert_parent: np.ndarray           # (V,) joint owning the ring start, and skinning it (weight 1)
    vert_child: np.ndarray            # (V,)
    vert_frac: np.ndarray             # (V,) position along the bone
    vert_radial: np.ndarray           # (V,3) static radial offset, mm
    ring_slices: tuple                # (start, stop) vertex range of each ring
    adjacency_norm: np.ndarray        # (V,V) row-normalized (A+I) for mesh conv
    skin_matrix: np.ndarray           # (252,3V) [joints (63) | rotations (189)] -> vertices

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
    """The hand model of a recipe, its arrays read-only.

    The default recipe, the only one a run can use, is built once per process
    and that instance returned to every caller; any other recipe is built anew.
    """
    if config is None or config == HandModelConfig():
        return _default_hand_model()
    return _build_hand_model(config)


@functools.cache
def _default_hand_model() -> HandModel:
    return _build_hand_model(HandModelConfig())


def _build_hand_model(cfg: HandModelConfig) -> HandModel:
    """Construct the full model deterministically from its config."""
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

    vp, vc, vf, vr = [], [], [], []
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
        ring_slices.append((cursor, cursor + m))
        cursor += m

    vp, vc, vf, vr = np.array(vp), np.array(vc), np.array(vf, dtype=float), np.array(vr)
    model = HandModel(
        config=cfg,
        parents=PARENTS.copy(),
        rest_offsets=REST_OFFSETS.copy(),
        shape_basis=basis,
        vert_parent=vp,
        vert_child=vc,
        vert_frac=vf,
        vert_radial=vr,
        ring_slices=tuple(ring_slices),
        adjacency_norm=_build_adjacency(ring_slices, rings),
        skin_matrix=_build_skin_matrix(vp, vc, vf, vr),
    )
    for f in fields(model):
        value = getattr(model, f.name)
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
    return model


def _build_skin_matrix(vert_parent, vert_child, vert_frac, vert_radial) -> np.ndarray:
    """S with vertices = [joints | rotations] @ S: row 3j+i reads joint j's coordinate i,
    row 63+9j+3i+k its rotation's entry (i, k), and column 3v+i is vertex v's coordinate i,
    (1 - f) J_parent + f J_child + R_parent radial."""
    V = len(vert_frac)
    S = np.zeros((JOINT_COUNT * 12, V, 3))
    v = np.arange(V)
    for i in range(3):
        S[3 * vert_parent + i, v, i] += 1.0 - vert_frac  # +=: the wrist ring's parent is its child
        S[3 * vert_child + i, v, i] += vert_frac
        for k in range(3):
            S[3 * JOINT_COUNT + 9 * vert_parent + 3 * i + k, v, i] = vert_radial[:, k]
    return S.reshape(JOINT_COUNT * 12, 3 * V)


def _build_adjacency(ring_slices, rings) -> np.ndarray:
    V = ring_slices[-1][1]
    A = np.zeros((V, V))

    def link(i, k):
        A[i, k] = 1.0
        A[k, i] = 1.0

    def link_rings(r1, r2):
        s1, e1 = ring_slices[r1]
        s2, e2 = ring_slices[r2]
        for k in range(max(e1 - s1, e2 - s2)):
            link(s1 + k % (e1 - s1), s2 + k % (e2 - s2))

    by_bone: dict[tuple, list] = {}
    wrist_ring = None
    for idx, (parent, child, f, _r, _m) in enumerate(rings):
        s, e = ring_slices[idx]
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
# rotations

_SMALL_ANGLE = 1e-7


def _rodrigues(ops, w):
    """Axis-angle (..., 3) -> rotation matrices (..., 3, 3) in the op namespace ``ops``.

    Below |w| = 1e-7 the sin/cos coefficients switch to their series
    expansions so the 0/0 at the identity never appears in forward or
    backward passes.
    """
    lead = w.shape[:-1]
    w2 = w.reshape(-1, 3)
    m = w2.shape[0]
    s2 = (w2 * w2).sum(axis=-1, keepdims=True)  # (m,1)
    small = ops.value(s2) < _SMALL_ANGLE**2
    s2_safe = ops.where(small, 1.0, s2)
    theta = ops.sqrt(s2_safe)
    sin_c = ops.where(small, 1.0 - s2 * (1.0 / 6.0), ops.sin(theta) / theta)
    cos_c = ops.where(small, 0.5 - s2 * (1.0 / 24.0), (1.0 - ops.cos(theta)) / s2_safe)
    wx, wy, wz = w2[:, 0:1], w2[:, 1:2], w2[:, 2:3]
    zero = np.zeros((m, 1))
    K = ops.concatenate([zero, -wz, wy, wz, zero, -wx, -wy, wx, zero], axis=1).reshape(m, 3, 3)
    R = np.eye(3) + sin_c.reshape(m, 1, 1) * K + cos_c.reshape(m, 1, 1) * ops.matmul(K, K)
    return R.reshape(lead + (3, 3))


# ---------------------------------------------------------------------------
# kinematics


def _bone_scales(ops, beta, model: HandModel):
    """Per-bone length scales (..., 20) from shape coefficients (..., 10): floor + hinge keeps >0."""
    dev = ops.matmul(beta.reshape(-1, 10), model.shape_basis.T)
    floor = model.config.shape_scale_floor
    return (floor + ops.hinge(1.0 + dev - floor)).reshape(beta.shape[:-1] + (BONE_COUNT,))


def fk_transforms(root_orient, theta, beta, trans, model: HandModel, *, scales=None):
    """Batched FK: (..., 3), (..., 15, 3), (..., 10), (..., 3) -> joints and rotations.

    Returns (positions (..., 21, 3), global rotations (..., 21, 3, 3)): tensors,
    with gradient through all four inputs, if an input is a Tensor that requires
    a gradient; otherwise C-contiguous arrays, bitwise equal. ``scales``
    (``_bone_scales`` of ``beta``) spares recomputing them.

    The body runs the tree four levels deep, five joints (one per finger) at a
    time, and stacks the levels finger-major: joint 1 + 4f + d is finger f's
    joint at depth d, so that restores index order in C layout, which the
    metrics' last bits depend on.
    """
    inputs = (root_orient, theta, beta, trans)
    arrays = [np.asarray(x.data if isinstance(x, Tensor) else x, dtype=np.float64) for x in inputs]
    for a, what in zip(arrays, ("root_orient", "theta", "beta", "root_translation")):
        if not np.all(np.isfinite(a)):
            raise InputError(f"non-finite values in {what}")
    if any(isinstance(x, Tensor) and x.requires_grad for x in inputs):
        ops, (ro, th, be, tr) = tz, [tz.as_tensor(x) for x in inputs]
    else:
        ops, (ro, th, be, tr) = tz.plain, arrays
    lead = ro.shape[:-1]
    m = int(np.prod(lead, dtype=np.int64))
    if scales is None:
        scales = _bone_scales(ops, be, model)
    rot16 = _rodrigues(ops, ops.concatenate([ro.reshape(m, 1, 3), th.reshape(m, 15, 3)], axis=1))
    offsets = model.rest_offsets[1:] * scales.reshape(m, BONE_COUNT, 1)

    pos = [tr.reshape(m, 1, 3)]
    rot = [rot16[:, 0:1]]
    for depth in range(4):  # parents: the level before, or the wrist; bones depth::4
        off = offsets[:, depth::4].reshape(m, 5, 3, 1)
        pos.append(pos[-1] + ops.matmul(rot[-1], off).reshape(m, 5, 3))
        # rot16 is the root's, then three per finger: depth d's are 1+d, 4+d, ...; tips have none
        rot.append(ops.matmul(rot[-1], rot16[:, 1 + depth :: 3]) if depth < 3 else rot[-1])
    joints = ops.concatenate([pos[0], ops.stack(pos[1:], axis=2).reshape(m, BONE_COUNT, 3)], axis=1)
    rots = ops.concatenate([rot[0], ops.stack(rot[1:], axis=2).reshape(m, BONE_COUNT, 3, 3)], axis=1)
    if ops is tz.plain:  # finite inputs can overflow: the rotation squares angles
        bad = ~np.isfinite(joints).all(axis=(1, 2))
        if bad.any():
            raise InputError(f"forward kinematics overflows in frame {np.flatnonzero(bad)[0]}")
    return joints.reshape(lead + (JOINT_COUNT, 3)), rots.reshape(lead + (JOINT_COUNT, 3, 3))


def skin_mesh_batch(root_orient, theta, beta, trans, model: HandModel):
    """Linear blend skinning over arbitrary leading batch dims (numpy path): FK, then one GEMM.

    Returns (vertices (..., V, 3), C-contiguous, and joints (..., 21, 3)); the
    joints are the FK's own, so a caller that needs both runs FK once.
    """
    root_orient = np.asarray(root_orient, dtype=float)
    lead = root_orient.shape[:-1]
    beta = np.broadcast_to(np.asarray(beta, dtype=float), lead + (10,))
    joints, rots = fk_transforms(root_orient, theta, beta, trans, model)
    x = np.concatenate([joints.reshape(-1, 3 * JOINT_COUNT), rots.reshape(-1, 9 * JOINT_COUNT)], axis=1)
    return (x @ model.skin_matrix).reshape(lead + (model.vertex_count, 3)), joints
