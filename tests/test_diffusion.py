import hashlib

import numpy as np
import pytest

from handrift.diffusion import (ETA_FIRST, ETA_LAST, KAPPA, DiffusionSchedule, forward_sample,
                                make_schedule, refine, reverse_transition)
from handrift.errors import ConfigError, ContractError, InferenceDivergedError, ShapeError
from handrift.rng import RandomStream


def test_schedule_single_step_is_endpoint():
    sched = make_schedule(1)
    np.testing.assert_allclose(sched.eta, [0.999])


def test_schedule_three_step_geometric_midpoint():
    # closed form: the middle value is sqrt(eta_1 * eta_N)
    sched = make_schedule(3)
    np.testing.assert_allclose(sched.eta, [0.01, np.sqrt(0.01 * 0.999), 0.999], rtol=1e-12)
    assert sched.eta[1] == pytest.approx(0.09995, abs=5e-6)


def test_schedule_monotone_and_invariants():
    for steps in (2, 5, 8, 40):
        sched = make_schedule(steps)
        assert np.all(np.diff(sched.eta) >= 0)
        assert sched.eta[0] == ETA_FIRST and sched.kappa == KAPPA == 0.3
        assert sched.eta[-1] == pytest.approx(0.999)  # fixed endpoint, kept < 1


def test_schedule_eta_is_pinned_bitwise():
    """The bytes of eta for N = 1..32, and eta_N one ulp below ETA_LAST at N = 8: a change to
    the formula or the order of its operations shows here."""
    digest = hashlib.sha256(b"".join(make_schedule(n).eta.tobytes() for n in range(1, 33)))
    assert digest.hexdigest() == "7b643dd481736a26a7c7ccfabcd66346e8bb77be052227759078fc84e82ec1c1"
    assert make_schedule(8).eta[-1] == 0.9989999999999999 == np.nextafter(ETA_LAST, 0)


def test_schedule_rejects_bad_config():
    for steps in (0, -1):
        with pytest.raises(ConfigError, match=f"schedule needs >= 1 step, got {steps}"):
            make_schedule(steps)


def test_forward_sample_endpoint_close_to_estimate():
    sched = DiffusionSchedule(make_schedule(8).eta, 0.0)
    rng = np.random.default_rng(0)
    x = rng.normal(size=(4, 6))
    y = rng.normal(size=(4, 6))
    xn = forward_sample(x, y, 8, sched, None)
    assert np.abs(xn - y).max() <= (1 - sched.eta[-1]) * np.abs(y - x).max() + 1e-12


def test_forward_sample_zero_residual_identity():
    sched = DiffusionSchedule(make_schedule(8).eta, 0.0)
    x = np.ones((3, 5))
    for n in range(1, 9):
        np.testing.assert_array_equal(forward_sample(x, x, n, sched, None), x)


def test_forward_sample_scalar_case():
    sched = DiffusionSchedule(eta=np.array([0.25, 0.999]), kappa=0.0)
    out = forward_sample(np.array([0.0]), np.array([1.0]), 1, sched, None)
    assert out[0] == pytest.approx(0.25)


def test_forward_sample_is_interpolation_when_noiseless():
    sched = DiffusionSchedule(make_schedule(6).eta, 0.0)
    rng = np.random.default_rng(1)
    x, y = rng.normal(size=(2, 7)), rng.normal(size=(2, 7))
    for n in range(1, 7):
        np.testing.assert_allclose(
            forward_sample(x, y, n, sched, None), x + sched.eta[n - 1] * (y - x), atol=1e-15
        )


def test_forward_sample_variance_law():
    sched = DiffusionSchedule(make_schedule(8).eta, 0.37)
    rng = RandomStream(3, "variance")
    x = np.zeros(100_000)
    y = np.zeros(100_000)
    for n in (2, 5, 8):
        draws = forward_sample(x, y, n, sched, rng)
        var = draws.var()
        expect = sched.kappa**2 * sched.eta[n - 1]
        se = expect * np.sqrt(2 / (draws.size - 1))
        assert abs(var - expect) < 3 * se


def test_forward_sample_step_array_matches_per_sample_calls():
    sched = make_schedule(8)
    rng = np.random.default_rng(2)
    x, y = rng.normal(size=(5, 4, 3)), rng.normal(size=(5, 4, 3))
    n = np.array([1, 8, 3, 3, 6])
    for stream in (lambda: None, lambda: RandomStream(6, "forward-array")):
        batched = forward_sample(x, y, n, sched, stream())
        one = stream()  # per-sample calls draw the same noise in the same order
        per_sample = np.stack([forward_sample(x[i], y[i], int(n[i]), sched, one) for i in range(5)])
        assert batched.tobytes() == per_sample.tobytes()
    with pytest.raises(ContractError):
        forward_sample(x, y, np.array([1, 2, 9, 3, 3]), sched, None)
    with pytest.raises(ShapeError):
        forward_sample(x, y, np.array([1, 2]), sched, None)


def test_reverse_transition_n1_returns_estimate():
    sched = make_schedule(8)
    rng = np.random.default_rng(2)
    x_hat = rng.normal(size=(3, 4))
    out = reverse_transition(rng.normal(size=(3, 4)), x_hat, 1, sched)
    np.testing.assert_array_equal(out, x_hat)


def test_reverse_transition_flat_step_degenerate():
    sched = DiffusionSchedule(eta=np.array([0.4, 0.4, 0.999]), kappa=0.5)
    rng = np.random.default_rng(3)
    x_n = rng.normal(size=5)
    stoch = reverse_transition(x_n, rng.normal(size=5), 2, sched, RandomStream(0, "s"))
    np.testing.assert_allclose(stoch, x_n, atol=1e-12)  # alpha=0: mean x_n, var 0


def test_reverse_transition_scalar_substitution():
    sched = DiffusionSchedule(eta=np.array([0.25, 0.5]), kappa=2.0)
    mean = reverse_transition(np.array([2.0]), np.array([0.0]), 2, sched)
    assert mean[0] == pytest.approx(1.0)
    # variance check via monte carlo: kappa^2 * eta_p * alpha / eta_n = 4 * 0.125
    rng = RandomStream(9, "var")
    draws = np.array([
        reverse_transition(np.array([2.0]), np.array([0.0]), 2, sched, rng)[0]
        for _ in range(20000)
    ])
    assert draws.var() == pytest.approx(4 * 0.125, rel=0.05)
    assert draws.mean() == pytest.approx(1.0, abs=0.02)


def test_reverse_transition_range_check():
    sched = make_schedule(4)
    with pytest.raises(ContractError):
        reverse_transition(np.zeros(2), np.zeros(2), 5, sched)


@pytest.mark.parametrize("stop_at", [2, 4, 8])
def test_reverse_chain_reproduces_forward_marginals(stop_at):
    """Monte-Carlo: composing reverse transitions with an oracle estimate
    matches the forward marginal mean/variance at intermediate steps."""
    sched = make_schedule(8)
    draws = 100_000
    rng = RandomStream(17, f"mc-{stop_at}")
    x = np.full(draws, 0.7)
    y = np.full(draws, -0.9)
    x_n = forward_sample(x, y, sched.steps, sched, rng)
    for n in range(sched.steps, stop_at, -1):
        x_n = reverse_transition(x_n, x, n, sched, rng)
    eta = sched.eta[stop_at - 1]
    mean_expect = 0.7 + eta * (-0.9 - 0.7)
    var_expect = sched.kappa**2 * eta
    se_mean = np.sqrt(var_expect / draws)
    se_var = var_expect * np.sqrt(2 / (draws - 1))
    assert abs(x_n.mean() - mean_expect) < 3 * se_mean
    assert abs(x_n.var() - var_expect) < 3 * se_var


def test_refine_with_oracle_denoiser_recovers_truth_exactly():
    sched = make_schedule(8)
    rng = np.random.default_rng(5)
    x = rng.normal(size=(16, 61))
    y = x + rng.normal(size=(16, 61))

    def oracle(x_n, y_in, n):
        return x, np.zeros((16, 5))

    out, states = refine(y, oracle, sched)
    np.testing.assert_array_equal(out, x)
    assert states.shape == (16, 5)


def test_refine_deterministic_keeps_its_estimate_late_in_chain():
    """A worse re-estimate late in the deterministic chain does not undo a
    good early one: the plain posterior-mean chain carries ~93% of its error
    into x^1, the blended chain ~14%."""
    sched = make_schedule(8)
    rng = np.random.default_rng(8)
    x = rng.normal(size=(16, 61))
    y = x + rng.normal(size=(16, 61))
    worse = x + 0.5 * rng.normal(size=(16, 61))

    def estimate(n):
        return x if n > 5 else worse

    def denoise(x_n, y_in, n):  # the last step passes x^1 through
        return (x_n.copy() if n == 1 else estimate(n)), None

    out, _ = refine(y, denoise, sched)
    plain = y.copy()
    for n in range(sched.steps, 1, -1):
        plain = reverse_transition(plain, estimate(n), n, sched)
    err, plain_err = np.abs(out - x).mean(), np.abs(plain - x).mean()
    assert err < 0.25 * plain_err


def test_refine_with_identity_denoiser_returns_input():
    sched = make_schedule(8)
    rng = np.random.default_rng(6)
    y = rng.normal(size=(8, 4))

    def identity(x_n, y_in, n):
        return x_n.copy(), np.zeros((8, 5))

    out, _ = refine(y, identity, sched)
    np.testing.assert_allclose(out, y, atol=1e-12)


def test_refine_deterministic_is_pure():
    sched = DiffusionSchedule(make_schedule(6).eta, 0.25)
    rng = np.random.default_rng(7)
    y = rng.normal(size=(5, 3))

    def blend(x_n, y_in, n):
        return 0.5 * x_n + 0.2 * y_in, None

    a, _ = refine(y, blend, sched)
    b, _ = refine(y, blend, sched)
    np.testing.assert_array_equal(a, b)


def test_refine_reports_divergence_step():
    sched = DiffusionSchedule(make_schedule(5).eta, 0.1)

    def exploding(x_n, y_in, n):
        return x_n * np.inf, None

    with pytest.raises(InferenceDivergedError) as err:
        refine(np.ones((4, 2)), exploding, sched)
    assert err.value.step == 5
