import numpy as np
import pytest

from handrift import hand
from handrift import tensor as tz
from handrift.errors import ContractError, InputError
from handrift.motion import FRAME_DIM
from handrift.physics import (MotionState, ObjectTrack, StateTrack, annotate_states,
                              direction_reversal, kinetics_loss, stability_loss, state_loss)
from handrift.tensor import Tensor, backward

R, G, M, L, F = (MotionState.REACHING, MotionState.STABLE_GRASPING, MotionState.MANIPULATION,
                 MotionState.RELEASING, MotionState.FREE)


@pytest.fixture(scope="module")
def model():
    return hand.build_hand_model()


def test_static_hand_far_from_object_is_all_free(model):
    T = 10
    motion = np.zeros((T, FRAME_DIM))
    motion[:, 58:61] = [0.0, -300.0, 0.0]
    obj = ObjectTrack(center=np.tile([0.0, 300.0, 0.0], (T, 1)))
    track = annotate_states(motion, obj, model)
    assert np.all(track.labels == F)
    assert not track.contact.any()


def test_frozen_fingers_in_contact_all_stable(model):
    T = 8
    motion = np.zeros((T, FRAME_DIM))
    joints = hand.fk_transforms(np.zeros(3), np.zeros((15, 3)), np.zeros(10), np.zeros(3), model)[0]
    tip = joints[hand.TIP_JOINTS[1]]  # park the object on a fingertip
    obj = ObjectTrack(center=np.tile(tip + [1.0, 0.0, 0.0], (T, 1)))
    track = annotate_states(motion, obj, model)
    assert np.all(track.labels == G)
    assert track.contact.all()


def test_annotator_needs_three_frames(model):
    obj = ObjectTrack(center=np.zeros((2, 3)))
    with pytest.raises(InputError):
        annotate_states(np.zeros((2, FRAME_DIM)), obj, model)


def test_annotator_reaching_releasing_from_distance_trend(model):
    T = 9
    motion = np.zeros((T, FRAME_DIM))
    # wrist closes on the object then backs away; fingers frozen
    approach = np.linspace(-260.0, -180.0, 5)
    retreat = np.linspace(-180.0, -260.0, 5)[1:]
    motion[:, 59] = np.concatenate([approach, retreat])
    obj = ObjectTrack(center=np.tile([0.0, 200.0, 0.0], (T, 1)))
    track = annotate_states(motion, obj, model)
    assert not track.contact.any()
    assert np.all(track.labels[1:4] == R)
    assert np.all(track.labels[5:8] == L)


# ---------------------------------------------------------------------------
# state loss


def test_state_loss_uniform_logits_is_log_classes():
    logits = np.zeros((6, 5))
    labels = np.array([0, 1, 2, 3, 4, 0])
    assert state_loss(logits, labels).item() == pytest.approx(np.log(5.0), rel=1e-12)


def test_state_loss_confident_correct_is_tiny():
    labels = np.array([2, 0, 4, 1])
    logits = np.full((4, 5), -20.0)
    logits[np.arange(4), labels] = 20.0
    assert state_loss(logits, labels).item() <= 1e-6


def test_state_loss_two_frame_hand_case():
    logits = np.zeros((2, 5))
    logits[0, 0] = 1.0
    logits[1, 1] = 1.0
    labels = np.array([0, 1])
    # CE per frame: -1 + log(e + 4)
    expect = -1.0 + np.log(np.e + 4.0)
    assert state_loss(logits, labels).item() == pytest.approx(expect, rel=1e-12)


def test_state_loss_rejects_out_of_range_label():
    with pytest.raises(ContractError):
        state_loss(np.zeros((2, 5)), np.array([0, 7]))


def test_state_loss_gradient_matches_fd():
    rng = np.random.default_rng(0)
    logits = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    labels = np.array([1, 0, 3, 2])
    loss = state_loss(logits, labels)
    backward(loss)
    g = logits.grad.copy()
    for i in range(20):
        flat = logits.data.reshape(-1)
        old = flat[i]
        flat[i] = old + 1e-6
        up = state_loss(logits.data, labels).item()
        flat[i] = old - 1e-6
        down = state_loss(logits.data, labels).item()
        flat[i] = old
        assert g.reshape(-1)[i] == pytest.approx((up - down) / 2e-6, rel=1e-4, abs=1e-9)


# ---------------------------------------------------------------------------
# kinetics loss


def test_kinetics_zero_on_monotone_trajectories():
    rng = np.random.default_rng(1)
    steps = np.abs(rng.normal(size=(9, 4)))
    theta = np.cumsum(steps, axis=0) * np.sign(rng.normal(size=4))
    labels = np.full(10, R)
    assert kinetics_loss(np.vstack([theta, theta[-1:]]), labels).item() == 0.0


def test_kinetics_single_reversal_hand_value():
    theta = np.array([[0.0], [1.0], [0.0]])
    labels = np.full(3, R)
    assert kinetics_loss(theta, labels).item() == pytest.approx(1.0)


def test_kinetics_empty_window_set_is_zero():
    theta = np.array([[0.0], [1.0], [0.0], [5.0]])
    labels = np.full(4, M)
    assert kinetics_loss(theta, labels).item() == 0.0


def test_kinetics_requires_homogeneous_windows():
    theta = np.array([[0.0], [1.0], [0.0]])
    labels = np.array([R, R, L])  # straddles reaching -> releasing
    assert kinetics_loss(theta, labels).item() == 0.0


def test_kinetics_ignores_frames_outside_state_set():
    rng = np.random.default_rng(2)
    theta = rng.normal(size=(10, 6))
    labels = np.array([R, R, R, R, M, M, F, L, L, L])
    base = kinetics_loss(theta, labels).item()
    theta2 = theta.copy()
    theta2[5] += 100.0  # manipulation frame; no window contains it
    assert kinetics_loss(theta2, labels).item() == pytest.approx(base)


def test_kinetics_gradient_flows_only_through_second_difference():
    rng = np.random.default_rng(3)
    theta = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
    labels = np.full(6, L)
    loss = kinetics_loss(theta, labels)
    backward(loss)
    g = theta.grad.copy()
    flat = theta.data.reshape(-1)
    for i in range(flat.size):
        old = flat[i]
        flat[i] = old + 1e-6
        up = kinetics_loss(theta.data, labels).item()
        flat[i] = old - 1e-6
        down = kinetics_loss(theta.data, labels).item()
        flat[i] = old
        assert g.reshape(-1)[i] == pytest.approx((up - down) / 2e-6, rel=1e-4, abs=1e-9)


def test_direction_reversal_array_equals_tensor():
    """One body serves arrays (the KIN metric) and Tensors (the loss): bitwise-equal
    values, zero steps included; the Tensor's gradient skips the sign factor."""
    theta = np.random.default_rng(9).normal(size=(2, 9, 4))
    theta[:, 3:6, 1] = 0.5  # zero steps: sign 0
    phi = direction_reversal(theta)
    assert isinstance(phi, np.ndarray) and phi.shape == (2, 7, 4)
    t = Tensor(theta, requires_grad=True)
    phi_t = direction_reversal(t)
    assert isinstance(phi_t, Tensor)
    np.testing.assert_array_equal(phi, phi_t.data)
    backward(tz.tsum(phi_t))
    d1 = np.diff(theta, axis=-2)
    g = np.zeros_like(theta)
    g[:, 2:] -= np.sign(d1[:, :-1])
    g[:, 1:-1] += np.sign(d1[:, :-1])
    np.testing.assert_array_equal(t.grad, g)


def test_kinetics_batched_matches_sequence_mean():
    rng = np.random.default_rng(4)
    a = rng.normal(size=(7, 5))
    b = rng.normal(size=(7, 5))
    labels = np.stack([np.full(7, R), np.full(7, L)])
    batched = kinetics_loss(np.stack([a, b]), labels).item()
    solo = 0.5 * (kinetics_loss(a, labels[0]).item() + kinetics_loss(b, labels[1]).item())
    assert batched == pytest.approx(solo, rel=1e-12)


# ---------------------------------------------------------------------------
# stability loss


def test_stability_zero_when_frozen():
    theta = np.tile(np.linspace(0, 1, 5), (8, 1)).T[:5]
    labels = np.full(5, G)
    theta = np.ones((5, 8)) * 0.3
    assert stability_loss(theta, labels).item() == 0.0


def test_stability_hand_value_single_pair():
    theta = np.zeros((2, 45))
    theta[1, 7] = 0.1
    labels = np.array([G, G])
    assert stability_loss(theta, labels).item() == pytest.approx(0.01, rel=1e-12)


def test_stability_matches_bruteforce_pair_enumeration():
    rng = np.random.default_rng(5)
    theta = rng.normal(size=(12, 45))
    labels = rng.integers(0, 5, size=12)
    labels[3:7] = G
    got = stability_loss(theta, labels).item()
    pairs = [(t, t + 1) for t in range(11) if labels[t] == G and labels[t + 1] == G]
    if pairs:
        expect = np.mean([np.sum((theta[a] - theta[b]) ** 2) for a, b in pairs])
    else:
        expect = 0.0
    assert got == pytest.approx(expect, rel=1e-12)


def test_stability_invariant_to_nongrasp_frames():
    rng = np.random.default_rng(6)
    theta = rng.normal(size=(9, 4))
    labels = np.array([F, G, G, M, M, G, G, L, F])
    base = stability_loss(theta, labels).item()
    theta2 = theta.copy()
    theta2[3:5] += 50.0
    theta2[0] -= 9.0
    assert stability_loss(theta2, labels).item() == pytest.approx(base)


def test_stability_gradient_matches_fd():
    rng = np.random.default_rng(7)
    theta = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
    labels = np.array([G, G, M, G, G])
    loss = stability_loss(theta, labels)
    backward(loss)
    g = theta.grad.copy()
    flat = theta.data.reshape(-1)
    for i in range(flat.size):
        old = flat[i]
        flat[i] = old + 1e-6
        up = stability_loss(theta.data, labels).item()
        flat[i] = old - 1e-6
        down = stability_loss(theta.data, labels).item()
        flat[i] = old
        assert g.reshape(-1)[i] == pytest.approx((up - down) / 2e-6, rel=1e-4, abs=1e-9)


def test_losses_nonnegative_random_inputs():
    rng = np.random.default_rng(8)
    for _ in range(25):
        theta = rng.normal(size=(8, 5))
        labels = rng.integers(0, 5, size=8)
        assert kinetics_loss(theta, labels).item() >= 0.0
        assert stability_loss(theta, labels).item() >= 0.0


def test_statetrack_annotator_contact_consistency(model):
    # annotator invariant: contact frames only ever carry grasping-family labels
    rng = np.random.default_rng(9)
    for _ in range(5):
        motion = np.zeros((12, FRAME_DIM))
        motion[:, 3:48] = rng.normal(scale=0.2, size=(12, 45))
        motion[:, 58:61] = rng.normal(scale=60.0, size=(12, 3))
        obj = ObjectTrack(center=rng.normal(scale=60.0, size=(12, 3)) + [0, 150, 0])
        track = annotate_states(motion, obj, model)
        for t in range(12):
            if track.contact[t]:
                assert track.labels[t] in (G, M)
