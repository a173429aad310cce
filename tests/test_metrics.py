import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from handrift import hand
from handrift.datagen import generate_sequence, sample_script
from handrift.errors import InputError, ShapeError
from handrift.metrics import (EvalReport, accl_error, f_score, kin_metric, mje, p_mje,
                              p_mve_and_fscores, procrustes_align, sta_metric)
from handrift.motion import pose_parts
from handrift.physics import MotionState
from handrift.pipeline import evaluate_pair
from handrift.rng import RandomStream
from handrift.tensor import Tensor

from conftest import rodrigues

R, G, M = MotionState.REACHING, MotionState.STABLE_GRASPING, MotionState.MANIPULATION


def random_rotation(rng):
    return Rotation.from_rotvec(rng.normal(size=3)).as_matrix()


def test_procrustes_identity():
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(21, 3)) * 40
    aligned = procrustes_align(pts, pts)
    np.testing.assert_allclose(aligned, pts, atol=1e-9)


def test_procrustes_recovers_rigid_transform_exactly():
    rng = np.random.default_rng(1)
    for _ in range(20):
        gt = rng.normal(size=(21, 3)) * 50
        Rm = random_rotation(rng)
        t = rng.normal(size=3) * 100
        pred = gt @ Rm.T + t
        aligned = procrustes_align(pred, gt, with_scale=False)
        assert np.sqrt(((aligned - gt) ** 2).mean()) < 1e-9


def test_procrustes_recovers_similarity_with_scale():
    rng = np.random.default_rng(2)
    gt = rng.normal(size=(10, 3)) * 30
    pred = 2.7 * gt @ random_rotation(rng).T + np.array([5.0, -3.0, 9.0])
    aligned = procrustes_align(pred, gt, with_scale=True)
    np.testing.assert_allclose(aligned, gt, atol=1e-8)


def test_procrustes_rejects_degenerate():
    line = np.outer(np.arange(5, dtype=float), np.array([1.0, 2.0, 3.0]))
    rng = np.random.default_rng(3)
    with pytest.raises(InputError):
        procrustes_align(rng.normal(size=(5, 3)), line)
    with pytest.raises(InputError):
        procrustes_align(np.zeros((2, 3)), np.zeros((2, 3)))


def test_procrustes_aligns_strided_views_as_their_contiguous_copies():
    """Alignment does not depend on memory layout: strided skinned vertices, and a
    transposed ground truth, align bitwise as their C-order copies."""
    rng = np.random.default_rng(4)
    model = hand.build_hand_model()
    pose = rng.normal(size=(24, 61)) * 0.2
    verts = np.ascontiguousarray(hand.skin_mesh_batch(*pose_parts(pose), model)[0].transpose(1, 0, 2))
    verts = verts.transpose(1, 0, 2)
    assert not verts.flags.c_contiguous
    gt = np.ascontiguousarray((verts + rng.normal(size=verts.shape)).transpose(2, 1, 0)).transpose(2, 1, 0)
    assert not gt.flags.c_contiguous
    aligned = procrustes_align(verts, gt)
    np.testing.assert_array_equal(aligned, procrustes_align(verts.copy(), gt))
    np.testing.assert_array_equal(aligned, procrustes_align(verts, gt.copy()))


@pytest.mark.parametrize("points", [21, 98])
def test_procrustes_batch_equals_per_frame_calls(points):
    rng = np.random.default_rng(12)
    gt = rng.normal(size=(16, points, 3)) * 30
    pred = 1.2 * gt @ random_rotation(rng).T + rng.normal(size=gt.shape) * 4 + 25.0
    pred[5] = pred[5, :, ::-1]  # a frame whose best rotation needs the reflection fix
    for with_scale in (True, False):
        per_frame = np.stack([procrustes_align(pred[f], gt[f], with_scale) for f in range(16)])
        assert procrustes_align(pred, gt, with_scale).tobytes() == per_frame.tobytes()


def test_procrustes_batch_rejects_one_bad_frame():
    rng = np.random.default_rng(13)
    gt = rng.normal(size=(9, 21, 3)) * 30
    pred = gt + rng.normal(size=gt.shape)
    line = gt.copy()
    line[4] = np.outer(np.arange(21.0), [1.0, 2.0, 3.0])
    with pytest.raises(InputError, match="collinear in frame 4"):
        procrustes_align(pred, line)
    flat = pred.copy()
    flat[6] = 7.0
    with pytest.raises(InputError, match="degenerate .* in frame 6"):
        p_mve_and_fscores(flat, gt)


def test_procrustes_never_reflects():
    rng = np.random.default_rng(4)
    gt = rng.normal(size=(8, 3))
    pred = gt.copy()
    pred[:, 0] *= -1  # mirrored cloud
    aligned = procrustes_align(pred, gt)
    # a reflection would align exactly; a proper rotation cannot
    assert np.abs(aligned - gt).max() > 1e-3


def test_mje_identical_zero():
    rng = np.random.default_rng(5)
    j = rng.normal(size=(7, 21, 3))
    assert mje(j, j) == 0.0
    assert accl_error(j, j) == 0.0


def test_mje_translation_modes():
    rng = np.random.default_rng(6)
    gt = rng.normal(size=(4, 21, 3))
    pred = gt + 5.0 / np.sqrt(3)  # uniform offset of norm 5mm
    assert mje(pred, gt, root_relative=True) == pytest.approx(0.0, abs=1e-12)
    assert mje(pred, gt, root_relative=False) == pytest.approx(5.0, rel=1e-12)


def test_mje_single_displaced_joint_averaging():
    gt = np.zeros((1, 21, 3))
    pred = gt.copy()
    pred[0, 13, 1] = 3.0
    assert mje(pred, gt, root_relative=False) == pytest.approx(3.0 / 21.0)


def test_accl_linear_sequences_zero():
    t = np.arange(6, dtype=float)[:, None, None]
    vel = np.array([[[1.0, -2.0, 0.5]] * 21])
    pred = t * vel + 7.0
    gt = t * vel * 0.2 - 3.0
    assert accl_error(pred, gt) == pytest.approx(0.0, abs=1e-12)


def test_accl_single_second_difference():
    pred = np.zeros((3, 1, 3))
    pred[2, 0, 2] = 1.0
    gt = np.zeros((3, 1, 3))
    assert accl_error(pred, gt) == pytest.approx(1.0)


def test_accl_needs_three_frames():
    with pytest.raises(InputError):
        accl_error(np.zeros((2, 21, 3)), np.zeros((2, 21, 3)))


def test_kin_metric_hand_value_in_degrees():
    theta = np.array([[0.0], [0.1], [0.0]])
    labels = np.array([R, R, R])
    assert kin_metric(theta, labels) == pytest.approx(np.degrees(0.1), rel=1e-12)
    assert kin_metric(theta, labels) == pytest.approx(5.7296, abs=1e-4)


def test_kin_metric_monotone_zero():
    theta = np.linspace(0, 1, 8)[:, None] * np.ones((8, 48))
    assert kin_metric(theta, np.full(8, R)) == 0.0


def test_sta_metric_frozen_zero_and_uniform_degree_case():
    theta = np.ones((4, 45)) * 0.2
    labels = np.full(4, G)
    assert sta_metric(theta, labels) == 0.0
    theta2 = theta.copy()
    theta2[2:] += np.deg2rad(1.0)
    labels2 = np.array([M, G, G, M])
    assert sta_metric(theta2, labels2) == pytest.approx(1.0, rel=1e-12)


def test_f_score_construction():
    gt = np.zeros((2, 10, 3))
    pred = gt.copy()
    pred[:, :5, 0] = 20.0
    assert f_score(pred, gt, 15.0) == pytest.approx(0.5)
    assert f_score(gt, gt, 5.0) == 1.0


def test_f_score_threshold_monotonicity():
    rng = np.random.default_rng(7)
    pred = rng.normal(size=(3, 40, 3)) * 8
    gt = rng.normal(size=(3, 40, 3)) * 8
    assert f_score(pred, gt, 5.0) <= f_score(pred, gt, 15.0)


def test_p_mje_not_above_absolute_mje_on_misplaced_cases():
    rng = np.random.default_rng(8)
    for _ in range(200):
        gt = rng.normal(size=(2, 21, 3)) * 30
        noisy = gt + rng.normal(size=(2, 21, 3)) * rng.uniform(0.5, 10)
        Rm = random_rotation(rng)
        pred = rng.uniform(0.8, 1.25) * noisy @ Rm.T + rng.normal(size=3) * 40
        assert p_mje(pred, gt) <= mje(pred, gt, root_relative=False) + 1e-9


def test_p_mje_crossover_without_misplacement_is_small():
    # alignment minimizes squared error, so on pure-noise cases the
    # mean-of-norms can tick above the unaligned value, but only barely
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(300):
        gt = rng.normal(size=(1, 21, 3)) * 30
        pred = gt + rng.normal(size=(1, 21, 3)) * rng.uniform(0.5, 8)
        excess = p_mje(pred, gt) - mje(pred, gt, root_relative=False)
        worst = max(worst, excess / mje(pred, gt, root_relative=False))
    assert worst < 0.01


def test_p_mje_rigid_invariance():
    rng = np.random.default_rng(9)
    gt = rng.normal(size=(3, 21, 3)) * 40
    pred = gt + rng.normal(size=(3, 21, 3)) * 4
    base = p_mje(pred, gt)
    Rm = random_rotation(rng)
    moved = pred @ Rm.T + np.array([30.0, -50.0, 12.0])
    assert abs(p_mje(moved, gt) - base) < 1e-9


def test_procrustes_matches_bruteforce_descent_oracle():
    """Independent oracle: Nelder-Mead restarts over rotation parameters with
    closed-form scale/translation for each candidate rotation. The cost rotates by
    the test's own Rodrigues formula, checked against scipy at every optimum."""
    from scipy.optimize import minimize

    rng = np.random.default_rng(10)

    def brute_force_residual(pred, gt):
        X0, Y = pred - pred.mean(0), gt - gt.mean(0)  # centring commutes with the rotation

        def cost(w):
            X = X0 @ rodrigues(w).T
            s = (X * Y).sum() / (X * X).sum()
            resid = s * X - Y
            return (resid**2).sum()

        best = np.inf
        for _ in range(6):
            w0 = rng.normal(size=3) * 2.0
            res = minimize(cost, w0, method="Nelder-Mead",
                           options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 1500})
            assert np.abs(rodrigues(res.x) - Rotation.from_rotvec(res.x).as_matrix()).max() <= 1e-12
            best = min(best, res.fun)
        return np.sqrt(best / pred.shape[0])

    for _ in range(8):
        gt = rng.normal(size=(21, 3)) * 30
        pred = gt @ random_rotation(rng).T * 1.4 + rng.normal(size=(21, 3)) * 3.0
        aligned = procrustes_align(pred, gt, with_scale=True)
        closed = np.sqrt(((aligned - gt) ** 2).sum() / 21)
        assert closed == pytest.approx(brute_force_residual(pred, gt), abs=1e-6)


def test_eval_report_aggregation_and_invariants():
    rows = [
        {"mje": 2.0, "p_mje": 1.0, "p_mve": 1.5, "accl": 0.5, "kin": 0.1, "sta": 0.0, "f5": 0.4, "f15": 0.9},
        {"mje": 4.0, "p_mje": 3.0, "p_mve": 2.5, "accl": 1.5, "kin": 0.3, "sta": 0.2, "f5": 0.6, "f15": 1.0},
    ]
    rep = EvalReport.from_rows(rows)
    assert rep.mje == pytest.approx(3.0)
    assert rep.f5 <= rep.f15
    d = rep.to_dict()
    assert set(d["aggregate"]) == set(EvalReport.AGGREGATE_KEYS)
    assert len(d["sequences"]) == 2
    assert "metric" in rep.table()


def test_p_mve_and_fscores_identical_inputs():
    rng = np.random.default_rng(11)
    verts = rng.normal(size=(3, 50, 3)) * 20
    mve, (f5, f15) = p_mve_and_fscores(verts, verts)
    assert mve == pytest.approx(0.0, abs=1e-9)
    assert f5 == 1.0 and f15 == 1.0


def test_metric_shape_errors():
    with pytest.raises(ShapeError):
        mje(np.zeros((2, 21, 3)), np.zeros((3, 21, 3)))
    with pytest.raises(ShapeError):
        f_score(np.zeros((2, 9, 3)), np.zeros((2, 8, 3)), 5.0)


def graph_fk_geometry(motion, model):
    """Joints and skinned meshes of (T,61) frames through the autodiff FK.

    The skinning is ``skin_mesh_batch``'s product of FK's joints and rotations with
    the skinning matrix: Procrustes' last bits depend on the vertices' last bits.
    """
    parts = (motion[:, 0:3], motion[:, 3:48].reshape(-1, 15, 3), motion[:, 48:58], motion[:, 58:61])
    joints, rots = (t.data for t in hand.fk_transforms(*(Tensor(p, requires_grad=True) for p in parts),
                                                         model))
    frames = np.concatenate([joints.reshape(-1, 63), rots.reshape(-1, 189)], axis=1)
    return joints, (frames @ model.skin_matrix).reshape(-1, model.vertex_count, 3)


@pytest.mark.parametrize("seed", [0, 1])
def test_evaluate_pair_equals_graph_fk_oracle(seed):
    """One numpy FK per motion gives bitwise the row of four autodiff FK runs."""
    model = hand.build_hand_model()
    gt, _, track = generate_sequence(sample_script(RandomStream(seed, "eval-oracle"), 64), model)
    pred = gt + np.random.default_rng(seed).normal(size=gt.shape) * np.r_[np.full(58, 0.05),
                                                                            np.full(3, 2.0)]
    pj, pv = graph_fk_geometry(pred, model)
    gj, gv = graph_fk_geometry(gt, model)
    aligned = procrustes_align(pv, gv)
    oracle = {
        "mje": mje(pj, gj), "p_mje": p_mje(pj, gj), "accl": accl_error(pj, gj),
        "kin": kin_metric(pred[:, 0:48], track), "sta": sta_metric(pred[:, 3:48], track),
        "p_mve": float(np.linalg.norm(aligned - gv, axis=-1).mean()),
        "f5": f_score(aligned, gv, 5.0), "f15": f_score(aligned, gv, 15.0),
    }
    assert evaluate_pair(pred, gt, track, model) == oracle
