"""Adam optimizer over a flat hyper-parameter vector.

Standard first-order Adam with bias correction and the fixed constants of
Kingma & Ba (arXiv:1412.6980); only the learning rate is a setting.  It
ascends: the engine maximizes the free energy and hands Adam dF/dzeta as
its step computes it.  Negation is exact in IEEE arithmetic and every
operation here rounds symmetrically, so ascent on a gradient gives the bits
of descent on its negation.  The optimizer is a small mutable object: its
learning rate is checked once, at construction, and each step advances its
step count and moment estimates, one plain float per coordinate, so a step
costs a handful of float operations per parameter.
"""

from __future__ import annotations

import math

BETA1 = 0.9
BETA2 = 0.999
EPS_HAT = 1e-8


def check_learning_rate(learning_rate: float) -> float:
    """`learning_rate` if it is finite and >= 0, else ValueError: the one rule."""
    if not (math.isfinite(learning_rate) and learning_rate >= 0.0):
        raise ValueError(f"learning rate must be finite and >= 0, got {learning_rate}")
    return learning_rate


class Adam:
    """Bias-corrected Adam state for one optimization run of `size` parameters."""

    def __init__(self, size: int, learning_rate: float) -> None:
        self.learning_rate = check_learning_rate(learning_rate)
        self.step_count = 0
        self.first_moment = [0.0] * size
        self.second_moment = [0.0] * size

    def step(self, zeta, grad) -> list[float]:
        """One bias-corrected update; returns the updated parameters.

        `grad` is the gradient of the quantity being maximized, and the
        step moves along it: zeta + lr * mhat / (sqrt(vhat) + eps).  `zeta`
        is left as it is, and a length that differs from the optimizer's
        raises ValueError.  One pass over copies of the state computes the
        moments, the update and their check: a non-finite sqrt(vhat) or update
        raises OverflowError.  That covers a NaN or infinite gradient entry
        (its first moment makes the update non-finite) and a finite one whose
        square overflows (an infinite vhat would freeze its coordinate).
        The copies replace the state after the pass, so the error leaves it
        as it was.  Identical state and inputs give bitwise-identical outputs.
        """
        t = self.step_count + 1
        b1, b2, lr, eps_hat = BETA1, BETA2, self.learning_rate, EPS_HAT
        c1, c2 = 1.0 - b1**t, 1.0 - b2**t
        a1, a2 = 1.0 - b1, 1.0 - b2
        isfinite, sqrt = math.isfinite, math.sqrt
        new_m, new_v, updated = self.first_moment[:], self.second_moment[:], list(zeta)
        if not len(grad) == len(updated) == len(new_m):
            raise ValueError(f"expected {len(new_m)} parameters and gradient entries")
        for i, g in enumerate(grad):
            mi = new_m[i] = b1 * new_m[i] + a1 * g
            vi = new_v[i] = b2 * new_v[i] + a2 * g * g
            r = sqrt(vi / c2)
            z = updated[i] = updated[i] + lr * (mi / c1) / (r + eps_hat)
            if not (isfinite(r) and isfinite(z)):  # a non-finite mi makes z non-finite
                raise OverflowError("non-finite Adam moment or update")
        self.step_count, self.first_moment, self.second_moment = t, new_m, new_v
        return updated
