"""Adam over a flat hyper-parameter vector, as one function over its caller's state.

Standard first-order Adam with bias correction and the fixed constants of
Kingma & Ba (arXiv:1412.6980); only the learning rate is a setting.  It
ascends: the engine maximizes the free energy and hands Adam dF/dzeta as
its step computes it.  Negation is exact in IEEE arithmetic and every
operation here rounds symmetrically, so ascent on a gradient gives the bits
of descent on its negation.  There is no optimizer object: `engine.fit`
keeps the step count and the two moment lists, one plain float per
coordinate, and hands them to :func:`adam_step` each step, so a step costs
a handful of float operations per parameter.
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


def adam_step(zeta, grad, first: list[float], second: list[float], t: int,
              learning_rate: float) -> list[float]:
    """Bias-corrected update number `t` (1, 2, ...); returns the new zeta.

    `grad` is the gradient of the quantity being maximized, and the step
    moves along it: zeta + lr * mhat / (sqrt(vhat) + eps).  The first and
    second moment lists, as long as `zeta`, are updated in place; `zeta`
    is left as it is.  One pass computes each coordinate's moments, its
    update z and r = sqrt(vhat), and raises OverflowError unless r + z is
    finite.  r is >= 0 and, when finite, at most sqrt(max float), below half
    an ulp of any finite z near the float range, so the sum is finite
    exactly when r and z both are.  That covers a NaN or infinite gradient
    entry (its first moment makes z non-finite, NaN through 0 * inf at
    lr 0) and a finite one whose square overflows (an infinite vhat would
    freeze its coordinate).  An error leaves the moments of the coordinates
    before it updated: the caller gives up the run.  The learning rate is
    not checked here (`TrainConfig` checks it).
    """
    c1, c2 = 1.0 - BETA1**t, 1.0 - BETA2**t
    b1, b2, a1, a2, eps_hat = BETA1, BETA2, 1.0 - BETA1, 1.0 - BETA2, EPS_HAT
    isfinite, sqrt = math.isfinite, math.sqrt
    updated = list(zeta)
    for i, g in enumerate(grad):
        mi = first[i] = b1 * first[i] + a1 * g
        vi = second[i] = b2 * second[i] + a2 * g * g
        r = sqrt(vi / c2)
        z = updated[i] = updated[i] + learning_rate * (mi / c1) / (r + eps_hat)
        if not isfinite(r + z):
            raise OverflowError("non-finite Adam moment or update")
    return updated
