import numpy as np
import pytest

from handrift.config import load_config
from handrift.datagen import (INDEX_TIP, PerturbSpec, ScriptSpec, _fingertip_offsets,
                              constant_accel_penalty, gaussian_smooth, generate_sequence,
                              min_jerk_profile, perturb, sample_script)
from handrift.errors import ContractError
from handrift.hand import build_hand_model, fk_transforms
from handrift.metrics import accl_error, kin_metric, sta_metric
from handrift.motion import FRAME_DIM
from handrift.physics import MotionState, annotate_states, kinetics_loss, stability_loss
from handrift.pipeline import motion_to_joints
from handrift.rng import RandomStream


@pytest.fixture(scope="module")
def model():
    return build_hand_model()


def test_min_jerk_profile_properties():
    s = min_jerk_profile(9)
    assert s[0] == 0.0 and s[-1] == 1.0
    assert np.all(np.diff(s) >= 0)
    # quintic ease has zero end velocities: first/last steps are the smallest
    steps = np.diff(s)
    assert steps[0] == min(steps) and steps[-1] == min(steps)


def test_zero_interaction_script_is_constant_and_free(model):
    spec = ScriptSpec(free_frames=8, reach_frames=0, grasp_frames=0,
                      manipulate_frames=0, release_frames=0)
    motion, obj, track = generate_sequence(spec, model)
    assert motion.shape == (8, FRAME_DIM)
    assert np.all(track.labels == MotionState.FREE)
    np.testing.assert_array_equal(motion, np.tile(motion[0], (8, 1)))


def test_script_validation():
    with pytest.raises(ContractError):
        ScriptSpec(free_frames=2, reach_frames=0, grasp_frames=0,
                   manipulate_frames=0, release_frames=0).validate()  # too short
    with pytest.raises(ContractError):
        ScriptSpec(free_frames=0, reach_frames=0, grasp_frames=4,
                   manipulate_frames=0, release_frames=0).validate()  # grasp without reach
    with pytest.raises(ContractError):
        ScriptSpec(reach_frames=5, release_frames=1).validate()


def test_generated_sequences_have_zero_physics_losses_on_script_labels(model):
    for i in range(20):
        spec = sample_script(RandomStream(3, f"gen-{i}"), 16)
        motion, obj, track = generate_sequence(spec, model)
        assert kinetics_loss(motion[:, 0:48], track.labels).item() == 0.0
        assert stability_loss(motion[:, 3:48], track.labels).item() == 0.0
        assert kin_metric(motion[:, 0:48], track) == 0.0
        assert sta_metric(motion[:, 3:48], track) == 0.0
        joints = motion_to_joints(motion, model)
        assert accl_error(joints, joints) == 0.0


def test_generation_deterministic_per_seed(model):
    spec1 = sample_script(RandomStream(5, "s"), 16)
    spec2 = sample_script(RandomStream(5, "s"), 16)
    m1, o1, t1 = generate_sequence(spec1, model)
    m2, o2, t2 = generate_sequence(spec2, model)
    np.testing.assert_array_equal(m1, m2)
    np.testing.assert_array_equal(o1.center, o2.center)
    np.testing.assert_array_equal(t1.labels, t2.labels)


def test_fingertip_offsets_are_bitwise_the_per_frame_fk(model):
    """One FK call over a script's stacked finger poses equals one call per pose."""
    for i in range(4):
        spec = sample_script(RandomStream(7, f"script-{i}"), 16)
        theta = spec.grasp_theta.reshape(1, 45) + RandomStream(i, "wiggle").normal((3, 45)) * 0.05
        loop = [fk_transforms(spec.root_orient, t.reshape(15, 3), spec.beta, np.zeros(3), model)[0]
                for t in theta]
        np.testing.assert_array_equal(_fingertip_offsets(spec, theta, model),
                                      np.stack(loop)[:, INDEX_TIP])


def test_annotator_recovers_script_labels(model):
    """Acceptance-grade check at reduced seed count (full run in acceptance)."""
    total, hits = 0, 0
    for i in range(30):
        spec = sample_script(RandomStream(7, f"script-{i}"), 16)
        motion, obj, track = generate_sequence(spec, model)
        pred = annotate_states(motion, obj, model)
        hits += int((pred.labels == track.labels).sum())
        total += track.labels.size
    assert hits / total >= 0.95


def test_all_five_states_appear(model):
    seen = set()
    for i in range(20):
        spec = sample_script(RandomStream(11, f"script-{i}"), 16)
        _, _, track = generate_sequence(spec, model)
        seen.update(np.unique(track.labels).tolist())
    assert seen == {0, 1, 2, 3, 4}


# ---------------------------------------------------------------------------
# perturbation


def test_perturb_zero_spec_is_identity(model):
    rng = np.random.default_rng(0)
    x = rng.normal(size=(10, FRAME_DIM))
    y = perturb(x, PerturbSpec(), RandomStream(0, "p"))
    np.testing.assert_array_equal(y, x)


def test_perturb_noise_magnitude_monte_carlo():
    spec = PerturbSpec(noise_std=0.5)
    stream = RandomStream(1, "mc")
    x = np.zeros((2000, 61))
    y = perturb(x, spec, stream)
    dev = np.abs(y - x).mean()
    expect = 0.5 * np.sqrt(2 / np.pi)  # mean |N(0, 0.5)|
    n = x.size
    se = 0.5 * np.sqrt((1 - 2 / np.pi) / n)
    assert abs(dev - expect) < 3 * se


def test_perturb_mask_probability_one_holds_first_frame():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(12, FRAME_DIM))
    spec = PerturbSpec(noise_std=0.0, mask_prob=1.0, mask_noise_std=0.0)
    y = perturb(x, spec, RandomStream(3, "mask"))
    np.testing.assert_array_equal(y[0], x[0])
    for t in range(1, 12):
        np.testing.assert_array_equal(y[t], x[0])


def test_perturb_channel_scale_applies_per_channel():
    scale = np.zeros(FRAME_DIM)
    scale[5] = 1.0
    spec = PerturbSpec(noise_std=1.0)
    y = perturb(np.zeros((50, FRAME_DIM)), spec, RandomStream(4, "scale"), channel_scale=scale)
    assert np.abs(y[:, 5]).max() > 0
    untouched = np.delete(y, 5, axis=1)
    np.testing.assert_array_equal(untouched, np.zeros_like(untouched))


def test_perturb_validation():
    with pytest.raises(ContractError):
        perturb(np.zeros((5, 61)), PerturbSpec(mask_prob=1.5), RandomStream(0, "x"))


def test_perturb_increases_accl(model):
    cfg = load_config(None)
    spec = PerturbSpec(**cfg["train"]["perturb"])
    worse = 0
    for i in range(10):
        script = sample_script(RandomStream(13, f"s-{i}"), 16)
        x, _, _ = generate_sequence(script, model)
        y = perturb(x, spec, RandomStream(13, f"p-{i}"))
        xj = motion_to_joints(x, model)
        yj = motion_to_joints(y, model)
        worse += accl_error(yj, xj) > 0.5
    assert worse == 10


# ---------------------------------------------------------------------------
# smoothing + baselines


def test_gaussian_smooth_sigma_zero_identity():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(9, 4))
    np.testing.assert_array_equal(gaussian_smooth(x, 0.0), x)


def test_gaussian_smooth_preserves_constants():
    x = np.full((12, 3), 2.5)
    np.testing.assert_allclose(gaussian_smooth(x, 1.7), x, atol=1e-12)


def test_gaussian_smooth_impulse_matches_closed_form_kernel():
    sigma = 1.25
    T = 31
    x = np.zeros((T, 1))
    x[15, 0] = 1.0
    out = gaussian_smooth(x, sigma)[:, 0]
    radius = int(np.ceil(4 * sigma))
    k = np.arange(-radius, radius + 1)
    kernel = np.exp(-0.5 * (k / sigma) ** 2)
    kernel /= kernel.sum()
    np.testing.assert_allclose(out[15 - radius : 15 + radius + 1], kernel, atol=1e-12)


def test_constant_accel_penalty_quadratic_zero_cubic_positive():
    t = np.arange(10, dtype=float)[:, None]
    quadratic = 3.0 + 2.0 * t + 0.5 * t**2
    cubic = quadratic + 0.1 * t**3
    assert constant_accel_penalty(np.tile(quadratic, (1, 4))).item() == pytest.approx(0.0, abs=1e-18)
    assert constant_accel_penalty(np.tile(cubic, (1, 4))).item() > 0.0


def test_smoothfilter_reduces_accl_of_white_noise(model):
    rng = np.random.default_rng(6)
    script = sample_script(RandomStream(17, "s"), 16)
    x, _, _ = generate_sequence(script, model)
    y = x + rng.normal(size=x.shape) * np.concatenate([np.full(48, 0.03), np.full(10, 0.05), np.full(3, 2.0)])
    smoothed = gaussian_smooth(y, sigma_frames=1.0)
    xj = motion_to_joints(x, model)
    assert accl_error(motion_to_joints(smoothed, model), xj) < accl_error(motion_to_joints(y, model), xj)
