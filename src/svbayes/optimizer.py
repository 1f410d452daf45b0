"""Adam optimizer over a flat hyper-parameter vector.

Standard first-order Adam with bias correction.  The engine maximizes the
free energy by handing Adam the gradient of its negation.  The optimizer is
a small mutable object: its settings are checked once, at construction,
and each step advances its step count and moment estimates, one plain
float per coordinate, so a step costs a handful of float operations per
parameter.
"""

from __future__ import annotations

import math


class Adam:
    """Bias-corrected Adam state for one optimization run of `size` parameters."""

    def __init__(
        self,
        size: int,
        learning_rate: float = 0.1,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps_hat: float = 1e-8,
    ) -> None:
        if learning_rate < 0.0:
            raise ValueError("learning rate must be nonnegative")
        for name, b in (("beta1", beta1), ("beta2", beta2)):
            if not 0.0 < b < 1.0:
                raise ValueError(f"{name} must lie in (0, 1), got {b}")
        if not eps_hat > 0.0:
            raise ValueError("eps_hat must be positive")
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps_hat = eps_hat
        self.step_count = 0
        self.first_moment = [0.0] * size
        self.second_moment = [0.0] * size

    def step(self, zeta, grad) -> list[float]:
        """One bias-corrected update; returns the updated parameters.

        `grad` is the gradient of the quantity being minimized; `zeta` is
        left as it is.  Plain floats overflow to inf without a fault, and an
        infinite second moment would silently freeze its coordinate, so a
        non-finite moment or update raises OverflowError and leaves the
        state as it was.  Deterministic: identical state and inputs give
        bitwise-identical outputs.
        """
        m, v = self.first_moment, self.second_moment
        if not len(zeta) == len(grad) == len(m):
            raise ValueError(
                f"length mismatch: zeta {len(zeta)}, grad {len(grad)}, optimizer {len(m)}"
            )
        if not all(map(math.isfinite, grad)):
            raise ValueError("non-finite gradient entries")
        t = self.step_count + 1
        b1, b2, lr, eps_hat = self.beta1, self.beta2, self.learning_rate, self.eps_hat
        c1, c2 = 1.0 - b1**t, 1.0 - b2**t
        m = [b1 * mi + (1.0 - b1) * g for mi, g in zip(m, grad)]
        v = [b2 * vi + (1.0 - b2) * g * g for vi, g in zip(v, grad)]
        root_v = [math.sqrt(vi / c2) for vi in v]
        updated = [z - lr * (mi / c1) / (r + eps_hat) for z, mi, r in zip(zeta, m, root_v)]
        if not all(map(math.isfinite, [*m, *root_v, *updated])):
            raise OverflowError(f"Adam moments or update overflowed at step {t}")
        self.step_count, self.first_moment, self.second_moment = t, m, v
        return updated
