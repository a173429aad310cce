"""Residual-shifting diffusion between clean motion and noisy estimates.

The forward chain moves a clean sequence x toward the observed estimate y
along their residual e = y - x: at step n the marginal is
N(x + eta_n * e, kappa^2 * eta_n * I), with eta a monotone schedule running
from ~0 to ~1. Refinement runs the learned reverse chain from x^N ~ N(y,
kappa^2 I) back to x^0, re-estimating the clean sequence at every step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractError, InferenceDivergedError, ShapeError
from .rng import RandomStream

ETA_FIRST = 0.01  # eta_1: the first step's small shift toward y
ETA_LAST = 0.999  # kept strictly below 1 so eta_{n-1}/eta_n stays conditioned
KAPPA = 0.3       # noise scale in normalized pose units


@dataclass(frozen=True)
class DiffusionSchedule:
    eta: np.ndarray   # (N,), monotone increasing, eta[0] small, eta[-1] ~ 1
    kappa: float      # noise scale in normalized pose units

    @property
    def steps(self) -> int:
        return self.eta.shape[0]

    def eta_at(self, n: int) -> float:
        """eta_n with 1-based step index; eta_0 is defined as 0."""
        if n == 0:
            return 0.0
        return float(self.eta[n - 1])


def make_schedule(steps: int) -> DiffusionSchedule:
    """The method's N-step schedule: geometric eta_n = eta_1 * (eta_N/eta_1)^((n-1)/(N-1))
    from ``ETA_FIRST`` to ``ETA_LAST``, with noise scale ``KAPPA``."""
    if steps < 1:
        raise ConfigError(f"schedule needs >= 1 step, got {steps}")
    if steps == 1:
        eta = np.array([ETA_LAST])
    else:
        frac = np.arange(steps) / (steps - 1)
        eta = ETA_FIRST * (ETA_LAST / ETA_FIRST) ** frac
    return DiffusionSchedule(eta=eta, kappa=KAPPA)


def _check_pair(x: np.ndarray, y: np.ndarray, op: str):
    if x.shape != y.shape:
        raise ShapeError(f"{op}: shapes {x.shape} vs {y.shape}")


def forward_sample(x: np.ndarray, y: np.ndarray, n, sched: DiffusionSchedule,
                   rng: RandomStream | None) -> np.ndarray:
    """Draw x^n = x + eta_n (y - x) + kappa sqrt(eta_n) eps (eps omitted if rng is None).

    ``n`` is one step index, or a (B,) array of them for the samples along x's first axis.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    _check_pair(x, y, "forward_sample")
    n = np.asarray(n)
    if n.ndim > 0 and n.shape != x.shape[:1]:
        raise ShapeError(f"forward_sample: steps {n.shape} for samples {x.shape}")
    if np.any(n < 1) or np.any(n > sched.steps):
        raise ContractError(f"step {n} outside [1, {sched.steps}]")
    eta = sched.eta[n - 1].reshape(n.shape + (1,) * (x.ndim - n.ndim))
    out = x + eta * (y - x)
    if rng is not None and sched.kappa > 0:
        out = out + sched.kappa * np.sqrt(eta) * rng.normal(x.shape)
    return out


def reverse_transition(x_n: np.ndarray, x_hat: np.ndarray, n: int, sched: DiffusionSchedule,
                       rng: RandomStream | None = None) -> np.ndarray:
    """One reverse step n -> n-1 given the denoiser's clean estimate.

    With alpha_n = eta_n - eta_{n-1}: mean is (eta_{n-1}/eta_n) x^n +
    (alpha_n/eta_n) x_hat and the per-coordinate variance is
    kappa^2 eta_{n-1} alpha_n / eta_n. Without ``rng`` the step takes its
    mean; with it, a draw. Step n=1 returns x_hat exactly.
    """
    x_n = np.asarray(x_n, dtype=np.float64)
    x_hat = np.asarray(x_hat, dtype=np.float64)
    _check_pair(x_n, x_hat, "reverse_transition")
    if not 1 <= n <= sched.steps:
        raise ContractError(f"step {n} outside [1, {sched.steps}]")
    if n == 1:
        return x_hat.copy()
    eta_n = sched.eta_at(n)
    eta_p = sched.eta_at(n - 1)
    alpha = eta_n - eta_p
    mean = (eta_p / eta_n) * x_n + (alpha / eta_n) * x_hat
    if rng is None:
        return mean
    var = sched.kappa**2 * eta_p * alpha / eta_n
    return mean + np.sqrt(var) * rng.normal(x_n.shape)


def blend_estimate(x_n: np.ndarray, y: np.ndarray, x_hat: np.ndarray, eta: float) -> np.ndarray:
    """Inverse-variance blend of the denoiser's estimate with the one x^n implies.

    Given y, (x^n - eta y) / (1 - eta) estimates x with per-coordinate variance
    kappa^2 eta / (1 - eta)^2 under the forward process. Taking the denoiser's
    estimate to err by the schedule's noise scale kappa, the blend is
    ((1 - eta)(x^n - eta y) + eta x_hat) / (1 - eta + eta^2): x_hat as
    eta -> 1, the x^n estimate as eta -> 0, and free of kappa.
    """
    d = 1.0 - eta + eta * eta
    return ((1.0 - eta) / d) * (x_n - eta * y) + (eta / d) * x_hat


def refine(y: np.ndarray, denoise_fn, sched: DiffusionSchedule,
           rng: RandomStream | None = None):
    """Full reverse chain: y -> refined x, plus the final per-frame state logits.

    ``denoise_fn(x_n, y, n) -> (x_hat, state_logits)`` is the trained model
    (or a test oracle). With a stream ``rng`` the chain is sampled: x^N ~
    N(y, kappa^2 I) and every transition draws. Without one it is
    deterministic: x^N = y and every transition takes its mean, making the
    result a pure function of (y, weights, N).
    There, each mean above the last step is taken at ``blend_estimate`` of
    x_hat rather than x_hat itself: late in the chain x^n already pins x
    down far more tightly than a denoiser re-estimates it, and feeding the
    raw estimate back step after step would replace a good x^n with a worse
    re-estimate. The last step returns the denoiser's estimate as is, so a
    one-step deterministic chain is a single denoiser call on x^1 = y: the
    non-probabilistic model's inference.
    """
    y = np.asarray(y, dtype=np.float64)
    if not np.all(np.isfinite(y)):
        raise ContractError("refine: input contains non-finite values")
    if rng is None:
        x_n = y  # never written in place; a denoiser may recognise x^N as y itself
    else:
        x_n = y + sched.kappa * rng.normal(y.shape)
    states = None
    for n in range(sched.steps, 0, -1):
        x_hat, states = denoise_fn(x_n, y, n)
        x_hat = np.asarray(x_hat, dtype=np.float64)
        if rng is None and n > 1:
            x_hat = blend_estimate(x_n, y, x_hat, sched.eta_at(n))
        x_n = reverse_transition(x_n, x_hat, n, sched, rng)
        if not np.all(np.isfinite(x_n)):
            raise InferenceDivergedError(n)
    return x_n, states
