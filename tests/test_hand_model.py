import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from handrift import hand
from handrift import tensor as tz
from handrift.errors import InputError
from handrift.tensor import Tensor, backward


@pytest.fixture(scope="module")
def model():
    return hand.build_hand_model()


def random_pose(rng, scale=0.4):
    """(root_orient, theta, beta, root_translation) of one random frame."""
    return (rng.normal(scale=scale, size=3), rng.normal(scale=scale, size=(15, 3)),
            rng.normal(scale=0.5, size=10), rng.normal(scale=40.0, size=3))


ZERO_POSE = (np.zeros(3), np.zeros((15, 3)), np.zeros(10), np.zeros(3))


def test_template_defaults(model):
    assert model.vertex_count == 98
    assert model.parents.shape == (21,)
    assert len(hand.ARTICULATED) == 15


def test_zero_pose_gives_rest_skeleton(model):
    joints = hand.fk_transforms(*ZERO_POSE, model)[0]
    np.testing.assert_allclose(joints, hand.REST_POSITIONS, atol=1e-12)


def test_root_rotation_rotates_rest_skeleton(model):
    aa = np.array([0.0, 0.0, np.pi / 2])
    joints = hand.fk_transforms(aa, *ZERO_POSE[1:], model)[0]
    R = Rotation.from_rotvec(aa).as_matrix()
    np.testing.assert_allclose(joints, hand.REST_POSITIONS @ R.T, atol=1e-9)


def test_bone_lengths_scale_with_shape(model):
    rng = np.random.default_rng(0)
    for _ in range(20):
        pose = random_pose(rng)
        joints = hand.fk_transforms(*pose, model)[0]
        scales = hand._bone_scales(tz.plain, pose[2], model)
        for j in range(1, 21):
            length = np.linalg.norm(joints[j] - joints[model.parents[j]])
            expect = np.linalg.norm(model.rest_offsets[j]) * scales[j - 1]
            assert length == pytest.approx(expect, abs=1e-9)


def test_fk_equivariance_under_global_rotation(model):
    rng = np.random.default_rng(1)
    for _ in range(10):
        root_orient, theta, beta, trans = random_pose(rng)
        aa = rng.normal(scale=0.8, size=3)
        R = Rotation.from_rotvec(aa).as_matrix()
        rotated_root = (Rotation.from_rotvec(aa) * Rotation.from_rotvec(root_orient)).as_rotvec()
        j1 = hand.fk_transforms(rotated_root, theta, beta, R @ trans, model)[0]
        j2 = hand.fk_transforms(root_orient, theta, beta, trans, model)[0] @ R.T
        np.testing.assert_allclose(j1, j2, atol=1e-9)


def test_zero_pose_mesh_is_translated_template(model):
    t = np.array([5.0, -7.0, 11.0])
    verts = hand.skin_mesh_batch(*ZERO_POSE[:3], t, model)[0]
    template = hand.skin_mesh_batch(*ZERO_POSE, model)[0]
    np.testing.assert_allclose(verts, template + t, atol=1e-9)


def test_rigid_root_rotation_rotates_template(model):
    aa = np.array([0.3, -0.2, 0.9])
    verts = hand.skin_mesh_batch(aa, *ZERO_POSE[1:], model)[0]
    R = Rotation.from_rotvec(aa).as_matrix()
    template = hand.skin_mesh_batch(*ZERO_POSE, model)[0]
    np.testing.assert_allclose(verts, template @ R.T, atol=1e-9)


def test_rings_centered_on_a_joint_at_rest_stay_centered_on_its_fk_joint(model):
    """The vertex mean of the rings centered on a joint at rest (the bone-start rings
    it owns, and a tip's cap ring) is that joint's FK position under any pose."""
    start, cap = model.vert_frac == 0.0, model.vert_frac == 1.0
    rings_at = [np.flatnonzero((start & (model.vert_parent == j)) | (cap & (model.vert_child == j)))
                for j in range(21)]
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(100):
        verts, joints = hand.skin_mesh_batch(*random_pose(rng), model)
        centers = np.stack([verts[idx].mean(axis=0) for idx in rings_at])
        worst = max(worst, np.abs(centers - joints).max())
    assert worst < 1e-9  # mm


def test_fk_rejects_nonfinite(model):
    with pytest.raises(InputError):
        hand.fk_transforms(np.array([np.nan, 0, 0]), np.zeros((15, 3)), np.zeros(10), np.zeros(3), model)
    with pytest.raises(InputError):
        hand.fk_transforms(np.zeros(3), np.full((15, 3), np.inf), np.zeros(10), np.zeros(3), model)


def test_fk_gradient_matches_finite_differences(model):
    rng = np.random.default_rng(5)
    root_orient, theta, beta, trans = random_pose(rng, scale=0.3)
    th = Tensor(theta.copy(), requires_grad=True)
    ro = Tensor(root_orient.copy(), requires_grad=True)

    def build():
        joints, _ = hand.fk_transforms(ro, th, beta, trans, model)
        return tz.tsum(joints * joints) * 1e-4  # keep magnitudes FD-friendly

    loss = build()
    backward(loss)
    for tensor in (th, ro):
        g = tensor.grad.reshape(-1)
        flat = tensor.data.reshape(-1)
        for i in range(0, flat.size, 7):
            old = flat[i]
            flat[i] = old + 1e-6
            up = build().item()
            flat[i] = old - 1e-6
            down = build().item()
            flat[i] = old
            fd = (up - down) / 2e-6
            assert g[i] == pytest.approx(fd, rel=1e-4, abs=1e-9)


def fk_inputs(rng, lead):
    """Random FK inputs with rotations on both sides of the 1e-7 small-angle
    switch and betas large enough to put bones on the shape-scale floor."""
    th = rng.normal(size=lead + (15, 3))
    th /= np.linalg.norm(th, axis=-1, keepdims=True)
    th *= np.resize([3e-8, 3e-7, 0.0, 0.4, 1.5], 15)[:, None]
    return (rng.normal(scale=0.8, size=lead + (3,)), th, rng.normal(scale=40.0, size=lead + (10,)),
            rng.normal(scale=40.0, size=lead + (3,)))


@pytest.mark.parametrize("lead", [(), (16,), (3, 8)], ids=["single", "T", "WxT"])
def test_numpy_fk_bitwise_equals_autodiff_fk(model, lead):
    inputs = fk_inputs(np.random.default_rng(11), lead)
    scales = hand._bone_scales(tz.plain, inputs[2], model)
    floor = model.config.shape_scale_floor
    assert (scales == floor).any() and (scales > floor).any()  # both sides of the hinge
    joints_t, rots_t = hand.fk_transforms(*(Tensor(x, requires_grad=True) for x in inputs), model)
    assert isinstance(joints_t, Tensor) and joints_t.requires_grad
    joints, rots = hand.fk_transforms(*inputs, model)
    assert isinstance(joints, np.ndarray) and joints.shape == lead + (21, 3)
    assert joints.flags.c_contiguous and rots.flags.c_contiguous  # the metrics round by layout
    np.testing.assert_array_equal(joints, joints_t.data)
    np.testing.assert_array_equal(rots, rots_t.data)
    # tensors that need no gradient take the numpy FK too
    joints_ng, _ = hand.fk_transforms(*(Tensor(x) for x in inputs), model)
    assert isinstance(joints_ng, np.ndarray)
    np.testing.assert_array_equal(joints_ng, joints)


def per_joint_fk(root_orient, theta, beta, trans, model):
    """Autodiff FK one joint at a time down the tree: the reference for the level-wise one."""
    m = int(np.prod(root_orient.shape[:-1]))
    aa = tz.concatenate([tz.reshape(root_orient, (m, 1, 3)), tz.reshape(theta, (m, 15, 3))], axis=1)
    rot16 = tz.reshape(hand._rodrigues(tz, aa), (m, 16, 3, 3))
    slot = {0: 0, **{j: i + 1 for i, j in enumerate(hand.ARTICULATED)}}
    scales = hand._bone_scales(tz, tz.reshape(beta, (m, 10)), model)
    offsets = Tensor(model.rest_offsets[1:]) * tz.reshape(scales, (m, 20, 1))
    rot, pos = [rot16[:, 0]], [tz.reshape(trans, (m, 3))]
    for j in range(1, 21):
        p = hand.PARENTS[j]
        pos.append(pos[p] + tz.reshape(tz.matmul(rot[p], tz.reshape(offsets[:, j - 1], (m, 3, 1))), (m, 3)))
        rot.append(tz.matmul(rot[p], rot16[:, slot[j]]) if j in slot else rot[p])
    return tz.stack(pos, axis=1), tz.stack(rot, axis=1)


def test_level_wise_fk_gradients_match_per_joint_reference(model):
    """Joints and rotations bitwise equal; every input's gradient within 1e-12
    (relative to its largest entry) of the per-joint FK's."""
    rng = np.random.default_rng(17)
    inputs = fk_inputs(rng, (16,))
    weights = Tensor(rng.normal(size=(16, 21, 3))), Tensor(rng.normal(size=(16, 21, 3, 3)))

    def run(fk):
        leaves = [Tensor(x, requires_grad=True) for x in inputs]
        joints, rots = fk(*leaves, model)
        backward(tz.tsum(joints * weights[0]) + tz.tsum(rots * weights[1]))
        return joints.data, rots.data, [leaf.grad for leaf in leaves]

    joints, rots, grads = run(hand.fk_transforms)
    ref_joints, ref_rots, ref_grads = run(per_joint_fk)
    np.testing.assert_array_equal(joints, ref_joints)
    np.testing.assert_array_equal(rots, ref_rots)
    for got, ref in zip(grads, ref_grads):
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def rest_template_skin(root_orient, theta, beta, trans, model):
    """Skinning the long way round, the reference for the skinning matrix: a rest skeleton
    shaped by the bone scales, the rest template strung on it, and each vertex rotated
    about its parent joint by that joint's global rotation and carried to its FK position."""
    joints, rots = hand.fk_transforms(root_orient, theta, beta, trans, model)
    scales = hand._bone_scales(tz.plain, beta, model)
    rest = np.zeros(joints.shape)
    for j in range(1, 21):
        rest[:, j] = rest[:, hand.PARENTS[j]] + model.rest_offsets[j] * scales[:, j - 1 : j]
    f, par = model.vert_frac[:, None], model.vert_parent
    template = (1.0 - f) * rest[:, par] + f * rest[:, model.vert_child] + model.vert_radial
    return np.einsum("mvij,mvj->mvi", rots[:, par], template - rest[:, par]) + joints[:, par]


@pytest.mark.parametrize("ring_verts", [2, 3])
def test_skin_mesh_batch_matches_the_rest_template_formula(model, ring_verts):
    """Within 1e-9 mm under random poses, betas on the shape-scale floor and translations
    up to 1e3 mm, for the default mesh and a denser one."""
    mesh = model if ring_verts == 2 else hand.build_hand_model(hand.HandModelConfig(ring_verts=ring_verts))
    ro, th, be, _ = fk_inputs(np.random.default_rng(12), (64,))
    tr = np.random.default_rng(13).uniform(-1e3, 1e3, size=(64, 3))
    assert (hand._bone_scales(tz.plain, be, mesh) == mesh.config.shape_scale_floor).any()
    verts, _ = hand.skin_mesh_batch(ro, th, be, tr, mesh)
    assert verts.shape == (64, mesh.vertex_count, 3) and verts.flags.c_contiguous
    assert np.abs(verts - rest_template_skin(ro, th, be, tr, mesh)).max() < 1e-9  # mm


def test_skin_matrix_is_read_only_built_once_and_follows_the_vertex_count(model):
    assert model.skin_matrix.shape == (21 * 12, 3 * model.vertex_count)
    assert hand.build_hand_model().skin_matrix is model.skin_matrix
    with pytest.raises(ValueError, match="read-only"):
        model.skin_matrix[0, 0] = 1.0
    dense = hand.build_hand_model(hand.HandModelConfig(ring_verts=3))
    assert dense.skin_matrix.shape == (21 * 12, 3 * dense.vertex_count)
    assert not dense.skin_matrix.flags.writeable


def test_skin_mesh_batch_hands_back_its_fk_joints(model):
    from handrift.pipeline import motion_to_joints

    ro, th, be, tr = fk_inputs(np.random.default_rng(13), (2, 8))
    verts, joints = hand.skin_mesh_batch(ro, th, be, tr, model)
    assert verts.shape == (2, 8, model.vertex_count, 3)
    motion = np.concatenate([ro, th.reshape(2, 8, 45), be, tr], axis=-1).reshape(16, 61)
    np.testing.assert_array_equal(joints.reshape(16, 21, 3), motion_to_joints(motion, model))


def test_rodrigues_small_angle_series(model):
    w = Tensor(np.array([[1e-9, -2e-9, 1e-9], [0.0, 0.0, 0.0]]), requires_grad=True)
    R = hand._rodrigues(tz, w)
    np.testing.assert_allclose(R.data[1], np.eye(3), atol=1e-15)
    loss = tz.tsum(R * R)
    backward(loss)
    assert np.all(np.isfinite(w.grad))


def test_rodrigues_matches_scipy():
    """Both op namespaces, on both sides of the 1e-7 small-angle switch, against scipy."""
    rng = np.random.default_rng(5)
    axes = rng.normal(size=(400, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    # angles on both sides of the 1e-7 small-angle switch, up to 3 rad
    angles = np.concatenate([np.geomspace(1e-10, 9.9e-8, 100), np.geomspace(1.01e-7, 3.0, 300)])
    w = (axes * angles[:, None]).reshape(20, 20, 3)
    ref = Rotation.from_rotvec(w.reshape(-1, 3)).as_matrix().reshape(20, 20, 3, 3)
    R = hand._rodrigues(tz.plain, w)
    assert R.shape == (20, 20, 3, 3)
    np.testing.assert_allclose(R, ref, rtol=0, atol=1e-15)
    np.testing.assert_array_equal(hand._rodrigues(tz, Tensor(w)).data, R)
    np.testing.assert_array_equal(hand._rodrigues(tz.plain, np.zeros(3)), np.eye(3))


def test_default_hand_model_is_built_once_and_read_only(model):
    assert hand.build_hand_model() is model
    assert hand.build_hand_model(hand.HandModelConfig()) is model
    arrays = [v for v in vars(model).values() if isinstance(v, np.ndarray)]
    assert len(arrays) == 9
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a.reshape(-1)[0] = 1.0


def test_non_default_recipe_builds_a_fresh_model(model):
    cfg = hand.HandModelConfig(seed=5)
    m1, m2 = hand.build_hand_model(cfg), hand.build_hand_model(cfg)
    assert m1 is not m2 and m1 is not model
    assert m1.config == cfg
    assert not np.array_equal(m1.shape_basis, model.shape_basis)
    np.testing.assert_array_equal(m1.shape_basis, m2.shape_basis)


def test_configurable_vertex_count():
    cfg = hand.HandModelConfig(ring_verts=3)
    m = hand.build_hand_model(cfg)
    assert m.vertex_count == 20 * 2 * 3 + 5 * 3 + 8

