"""Bias-corrected Adam over named parameter tensors."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor
from .exceptions import InvalidConfigError, NonFiniteGradientError


@dataclass
class AdamState:
    """Running first/second moments plus the step counter."""

    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def check_hyperparameters(lr: float, beta1: float, beta2: float, eps: float) -> None:
    """Reject a learning rate or eps outside (0, inf), NaN included, or a beta outside (0, 1)."""
    if not 0.0 < lr < np.inf:
        raise InvalidConfigError(f"learning rate must be positive and finite, got {lr}")
    if not (0.0 < beta1 < 1.0 and 0.0 < beta2 < 1.0):
        raise InvalidConfigError(f"betas must lie in (0, 1), got {(beta1, beta2)}")
    if not 0.0 < eps < np.inf:
        raise InvalidConfigError(f"eps must be positive and finite, got {eps}")


class Adam:
    """Standard Adam; deterministic given parameters, gradients and state.

    A parameter whose every gradient so far was zero (or None) stays where
    it is, since both moments are still zero. After a nonzero gradient the
    first moment keeps moving it, also on steps whose gradient is zero.
    The update on the very first step is approximately ``lr * sign(g)``.
    """

    def __init__(
        self,
        params: dict[str, Tensor],
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
    ):
        check_hyperparameters(lr, *betas, eps)
        self.params = params
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.state = AdamState(
            m={k: np.zeros_like(p.data) for k, p in params.items()},
            v={k: np.zeros_like(p.data) for k, p in params.items()},
        )

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()

    def step(self) -> None:
        """Apply one update from the gradients currently on the parameters."""
        self.state.step += 1
        t = self.state.step
        bias1 = 1.0 - self.beta1**t
        bias2 = 1.0 - self.beta2**t
        for name, p in self.params.items():
            grad = p.grad
            if grad is None:
                grad = np.zeros_like(p.data)
            elif not np.isfinite(grad).all():
                raise NonFiniteGradientError(f"non-finite gradient for parameter {name!r}")
            m = self.state.m[name]
            v = self.state.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad * grad
            p.data -= self.lr * (m / bias1) / (np.sqrt(v / bias2) + self.eps)
