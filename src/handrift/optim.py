"""Adaptive-moment optimizer with decoupled weight decay and stepped LR decay."""

from __future__ import annotations

import numpy as np

from .errors import OptimizerError
from .tensor import Tensor


class AdamW:
    """Bias-corrected adaptive moments; weight decay applied directly to params.

    The learning rate is multiplied by ``lr_decay_factor`` every
    ``lr_decay_epochs`` epochs (call ``set_epoch`` once per epoch).
    """

    def __init__(
        self,
        params: dict[str, Tensor],
        lr: float = 1e-4,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 1e-2,
        lr_decay_factor: float = 0.8,
        lr_decay_epochs: int = 5,
    ):
        self.params = params
        self.base_lr = float(lr)
        self.lr = float(lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.lr_decay_factor = lr_decay_factor
        self.lr_decay_epochs = lr_decay_epochs
        self.step_count = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def set_epoch(self, epoch: int):
        """Apply the stepped decay schedule for a 0-indexed epoch number."""
        if self.lr_decay_epochs > 0:
            self.lr = self.base_lr * self.lr_decay_factor ** (epoch // self.lr_decay_epochs)

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None

    def step(self):
        """One update of each parameter that has a gradient:
        ``p -= (m_hat / (sqrt(v_hat) + eps) + p * weight_decay) * lr``.

        Every gradient is checked before any parameter moves: a non-finite one
        raises OptimizerError naming its parameter and leaves the parameters,
        moments and step count as they were."""
        live = [(name, p) for name, p in self.params.items() if p.grad is not None]
        for name, p in live:
            if not np.isfinite(p.grad).all():
                raise OptimizerError(f"non-finite gradient for parameter '{name}'")
        self.step_count += 1
        t = self.step_count
        b1, b2 = self.beta1, self.beta2
        for name, p in live:
            g = p.grad
            m = self.m[name] = self.m[name] * b1 + g * (1 - b1)
            v = self.v[name] = self.v[name] * b2 + g * (1 - b2) * g
            m_hat, v_hat = m / (1 - b1**t), v / (1 - b2**t)
            p.data -= (m_hat / (np.sqrt(v_hat) + self.eps) + p.data * self.weight_decay) * self.lr
