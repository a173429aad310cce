"""Evaluation metrics: joint/vertex errors, acceleration error, constraint
violations in degrees, and F-scores, with similarity Procrustes alignment.

All functions are pure numpy and deterministic. Joint errors default to
root-relative (wrist-subtracted) as is standard for hand benchmarks; the
absolute variant stays behind a flag.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, ShapeError
from .physics import MotionState, _reach_release_windows, direction_reversal

WRIST = 0


def _reject(bad: np.ndarray, message: str):
    """Raise InputError if any frame is flagged, naming the first one of a batch."""
    if np.any(bad):
        where = "" if bad.ndim == 0 else f" in frame {np.flatnonzero(bad)[0]}"
        raise InputError(f"procrustes: {message}{where}")


def _finite_frames(err: np.ndarray, metric: str, span: int = 1) -> np.ndarray:
    """Per-frame errors (T', ...) as given; InputError naming the first frames that overflowed.

    Row i of ``err`` depends on frames i..i+span-1. Finite poses can still
    overflow a metric, e.g. a translation of 1e200 mm in an acceleration norm.
    """
    bad = ~np.isfinite(err).reshape(err.shape[0], -1).all(axis=1)
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        where = f"frame {i}" if span == 1 else f"frames {i}-{i + span - 1}"
        raise InputError(f"{metric} overflows in {where}")
    return err


def procrustes_align(pred: np.ndarray, gt: np.ndarray) -> np.ndarray:
    """Similarity-align ``pred`` onto ``gt`` by least squares, each frame on its own.

    Takes one (N,3) point cloud per side or a batch (...,N,3) of them.
    Closed-form orthogonal Procrustes with reflection correction (det=+1)
    and a uniform scale. Raises on degenerate targets (fewer than 3
    points, or in any frame an all-equal prediction or collinear ground
    truth). The clouds are made C-contiguous first: the batched products and
    SVDs below round by memory layout, so a strided view would align to other
    last digits than its contiguous copy.
    """
    pred = np.ascontiguousarray(pred, dtype=np.float64)
    gt = np.ascontiguousarray(gt, dtype=np.float64)
    if pred.shape != gt.shape:
        raise ShapeError(f"procrustes: shapes {pred.shape} vs {gt.shape}")
    n = pred.shape[-2]
    if n < 3:
        raise InputError(f"procrustes needs >= 3 points, got {n}")
    # the means as einsums: several times faster than mean(axis=-2) on C-ordered clouds
    mu_p = np.einsum("...nc->...c", pred)[..., None, :] / n
    mu_g = np.einsum("...nc->...c", gt)[..., None, :] / n
    X = pred - mu_p
    Y = gt - mu_g
    sx = (X * X).sum(axis=(-2, -1))
    cov = X.swapaxes(-1, -2) @ Y  # finite only if Y is: a non-finite y_ik spoils column k
    _reject(~(np.isfinite(sx) & np.isfinite(cov).all(axis=(-2, -1))), "a point cloud overflows")
    _reject(sx < 1e-18, "prediction cloud is degenerate (all points equal)")
    sv_gt = np.linalg.svd(Y, compute_uv=False)
    _reject(sv_gt[..., 1] < 1e-9 * np.maximum(sv_gt[..., 0], 1e-30), "ground-truth points are collinear")
    U, S, Vt = np.linalg.svd(cov)
    V, Ut = Vt.swapaxes(-1, -2), U.swapaxes(-1, -2)
    d = np.sign(np.linalg.det(V @ Ut))
    D = np.stack([np.ones_like(d), np.ones_like(d), d], axis=-1)  # diagonal of the reflection fix
    R = (V * D[..., None, :]) @ Ut
    scale = ((S * D).sum(axis=-1) / sx)[..., None, None]
    t = mu_g - scale * (R @ mu_p.swapaxes(-1, -2)).swapaxes(-1, -2)
    return scale * (R @ pred.swapaxes(-1, -2)).swapaxes(-1, -2) + t


def mje(pred_joints: np.ndarray, gt_joints: np.ndarray, root_relative: bool = True) -> float:
    """Mean per-joint Euclidean error in mm over frames and joints."""
    pred = np.asarray(pred_joints, dtype=np.float64)
    gt = np.asarray(gt_joints, dtype=np.float64)
    if pred.shape != gt.shape:
        raise ShapeError(f"mje: shapes {pred.shape} vs {gt.shape}")
    if root_relative:
        pred = pred - pred[..., WRIST : WRIST + 1, :]
        gt = gt - gt[..., WRIST : WRIST + 1, :]
    return float(_finite_frames(np.linalg.norm(pred - gt, axis=-1), "mje").mean())


def p_mje(pred_joints: np.ndarray, gt_joints: np.ndarray) -> float:
    """MJE after per-frame similarity Procrustes alignment."""
    pred = np.asarray(pred_joints, dtype=np.float64)
    gt = np.asarray(gt_joints, dtype=np.float64)
    if pred.shape != gt.shape:
        raise ShapeError(f"p_mje: shapes {pred.shape} vs {gt.shape}")
    aligned = procrustes_align(pred, gt)
    return float(np.mean(_finite_frames(np.linalg.norm(aligned - gt, axis=-1).mean(axis=-1), "p_mje")))


def accl_error(pred_joints: np.ndarray, gt_joints: np.ndarray) -> float:
    """Mean norm of the discrete-acceleration difference, mm/frame^2."""
    pred = np.asarray(pred_joints, dtype=np.float64)
    gt = np.asarray(gt_joints, dtype=np.float64)
    if pred.shape != gt.shape:
        raise ShapeError(f"accl: shapes {pred.shape} vs {gt.shape}")
    if pred.shape[0] < 3:
        raise InputError(f"accl needs T >= 3, got {pred.shape[0]}")
    ap = pred[2:] - 2.0 * pred[1:-1] + pred[:-2]
    ag = gt[2:] - 2.0 * gt[1:-1] + gt[:-2]
    return float(_finite_frames(np.linalg.norm(ap - ag, axis=-1), "accl", span=3).mean())


def kin_metric(theta_seq: np.ndarray, labels) -> float:
    """Mean hinged direction reversal over reaching/releasing windows, degrees."""
    theta = np.asarray(theta_seq, dtype=np.float64)
    lab = labels.labels if hasattr(labels, "labels") else np.asarray(labels, dtype=np.int64)
    if theta.shape[0] < 3:
        return 0.0
    win = _reach_release_windows(lab)
    if not win.any():
        return 0.0
    phi = direction_reversal(theta)[win]
    return float(np.degrees(np.maximum(phi, 0.0).mean()))


def sta_metric(theta_f_seq: np.ndarray, labels) -> float:
    """Mean absolute finger-angle change over stable-grasp pairs, degrees."""
    theta = np.asarray(theta_f_seq, dtype=np.float64)
    lab = labels.labels if hasattr(labels, "labels") else np.asarray(labels, dtype=np.int64)
    grasp = lab == MotionState.STABLE_GRASPING
    pairs = grasp[:-1] & grasp[1:]
    if not pairs.any():
        return 0.0
    diff = np.abs(theta[1:] - theta[:-1])[pairs]
    return float(np.degrees(diff.mean()))


def f_score(pred_verts: np.ndarray, gt_verts: np.ndarray, threshold_mm: float) -> float:
    """Fraction of per-vertex errors below the threshold, averaged over frames.

    Inputs are expected to be aligned already (see ``p_mve_and_fscores``).
    """
    pred = np.asarray(pred_verts, dtype=np.float64)
    gt = np.asarray(gt_verts, dtype=np.float64)
    if pred.shape != gt.shape:
        raise ShapeError(f"f_score: shapes {pred.shape} vs {gt.shape}")
    return _fraction_below(np.linalg.norm(pred - gt, axis=-1), threshold_mm)


def _fraction_below(dist: np.ndarray, threshold_mm: float) -> float:
    """Per-frame fraction of (T,N) distances below the threshold, averaged over frames."""
    return float((dist < threshold_mm).mean(axis=-1).mean())


def p_mve_and_fscores(pred_verts: np.ndarray, gt_verts: np.ndarray):
    """Per-frame similarity Procrustes on vertices, then mean error and (F@5, F@15) mm."""
    pred = np.asarray(pred_verts, dtype=np.float64)
    gt = np.asarray(gt_verts, dtype=np.float64)
    if pred.shape != gt.shape:
        raise ShapeError(f"p_mve: shapes {pred.shape} vs {gt.shape}")
    dist = _finite_frames(np.linalg.norm(procrustes_align(pred, gt) - gt, axis=-1), "p_mve")
    return float(dist.mean()), (_fraction_below(dist, 5.0), _fraction_below(dist, 15.0))


@dataclass
class EvalReport:
    """Aggregate metrics plus the per-sequence breakdown they average."""

    mje: float
    p_mje: float
    p_mve: float
    accl: float
    kin: float
    sta: float
    f5: float
    f15: float
    sequences: list = field(default_factory=list)

    AGGREGATE_KEYS = ("mje", "p_mje", "p_mve", "accl", "kin", "sta", "f5", "f15")

    @classmethod
    def from_rows(cls, rows: list) -> "EvalReport":
        if not rows:
            raise InputError("cannot aggregate an empty evaluation")
        agg = {k: float(np.mean([r[k] for r in rows])) for k in cls.AGGREGATE_KEYS}
        return cls(sequences=list(rows), **agg)

    def to_dict(self) -> dict:
        return {
            "aggregate": {k: getattr(self, k) for k in self.AGGREGATE_KEYS},
            "sequences": self.sequences,
        }

    def table(self) -> str:
        units = {"mje": "mm", "p_mje": "mm", "p_mve": "mm", "accl": "mm/frame^2",
                 "kin": "deg", "sta": "deg", "f5": "fraction", "f15": "fraction"}
        lines = [f"{'metric':<8} {'value':>12}  unit"]
        for k in self.AGGREGATE_KEYS:
            lines.append(f"{k:<8} {getattr(self, k):>12.4f}  {units[k]}")
        return "\n".join(lines)
