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
        if not (math.isfinite(learning_rate) and learning_rate >= 0.0):
            raise ValueError(f"learning rate must be finite and >= 0, got {learning_rate}")
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
        left as it is.  One pass computes the moments, the update and their
        checks: a non-finite gradient entry raises ValueError, a non-finite
        moment or update (plain floats overflow to inf without a fault; an
        infinite second moment would freeze its coordinate) OverflowError.
        The state is committed after the pass, so either error leaves it as
        it was.  Identical state and inputs give bitwise-identical outputs.
        """
        m, v = self.first_moment, self.second_moment
        if not len(zeta) == len(grad) == len(m):
            raise ValueError(
                f"length mismatch: zeta {len(zeta)}, grad {len(grad)}, optimizer {len(m)}"
            )
        t = self.step_count + 1
        b1, b2, lr, eps_hat = self.beta1, self.beta2, self.learning_rate, self.eps_hat
        c1, c2 = 1.0 - b1**t, 1.0 - b2**t
        a1, a2 = 1.0 - b1, 1.0 - b2
        isfinite, sqrt = math.isfinite, math.sqrt
        new_m, new_v, updated = [], [], []
        for z, g, mi, vi in zip(zeta, grad, m, v):
            if not isfinite(g):
                raise ValueError("non-finite gradient entries")
            mi, vi = b1 * mi + a1 * g, b2 * vi + a2 * g * g
            r = sqrt(vi / c2)
            z -= lr * (mi / c1) / (r + eps_hat)
            if not (isfinite(mi) and isfinite(r) and isfinite(z)):
                raise OverflowError(f"Adam moments or update overflowed at step {t}")
            new_m.append(mi)
            new_v.append(vi)
            updated.append(z)
        self.step_count, self.first_moment, self.second_moment = t, new_m, new_v
        return updated
