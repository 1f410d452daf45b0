"""Adam update rule (ascent): first-step behavior, convergence, determinism,
and the one finiteness check a coordinate."""

import math
import sys

import numpy as np
import pytest

from svbayes.optimizer import adam_step, check_learning_rate


def textbook_adam(zeta, grads, lr=0.1, beta1=0.9, beta2=0.999, eps_hat=1e-8):
    """Reference: the bias-corrected Adam of Kingma & Ba over numpy vectors,
    descending along `grads`."""
    m = np.zeros_like(zeta)
    v = np.zeros_like(zeta)
    for t, grad in enumerate(grads, start=1):
        m = beta1 * m + (1.0 - beta1) * grad
        v = beta2 * v + (1.0 - beta2) * grad * grad
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        zeta = zeta - lr * m_hat / (np.sqrt(v_hat) + eps_hat)
    return zeta


def run_adam(zeta, grads, learning_rate):
    """`adam_step` over `grads` from zero moments, as `engine.fit` runs it;
    returns the last zeta."""
    first, second = [0.0] * len(zeta), [0.0] * len(zeta)
    for t, grad in enumerate(grads, start=1):
        zeta = adam_step(zeta, grad, first, second, t, learning_rate)
    return zeta


def two_steps(learning_rate, zeta, grad):
    """A clean first step, then `grad` at step 2 from `zeta`."""
    first, second = [0.0, 0.0], [0.0, 0.0]
    adam_step([0.0, 0.0], [1.0, -1.0], first, second, 1, learning_rate)
    return adam_step(zeta, grad, first, second, 2, learning_rate)


class TestAdamStep:
    def test_zero_gradient_leaves_parameters_unchanged(self):
        zeta, first, second = [1.0, -2.0, 0.5], [0.0] * 3, [0.0] * 3
        assert adam_step(zeta, [0.0, 0.0, 0.0], first, second, 1, 0.1) == zeta
        assert zeta == [1.0, -2.0, 0.5]

    def test_first_step_magnitude_close_to_learning_rate(self):
        grad = np.array([3.0, -0.2, 10.0, -7.5])
        updated = np.array(adam_step(np.zeros(4), grad, [0.0] * 4, [0.0] * 4, 1, 0.05))
        np.testing.assert_allclose(np.abs(updated), 0.05, rtol=1e-6)
        assert np.all(np.sign(updated) == np.sign(grad))

    def test_minimizes_shifted_quadratic(self):
        """Run-to-convergence on (x - 3)^2 from x = 0, ascending its negation,
        lr = 0.1, 2000 steps."""
        x, first, second = [0.0], [0.0], [0.0]
        for t in range(1, 2001):
            x = adam_step(x, [-2.0 * (x[0] - 3.0)], first, second, t, 0.1)
        assert abs(x[0] - 3.0) < 1e-3

    def test_determinism(self):
        rng = np.random.default_rng(0)
        zeta = rng.uniform(-1, 1, size=5).tolist()
        grad = rng.uniform(-1, 1, size=5).tolist()
        first, second = rng.uniform(-1, 1, 5).tolist(), rng.uniform(0, 1, 5).tolist()
        runs = []
        for _ in range(2):
            m, v = first[:], second[:]
            runs.append((adam_step(zeta, grad, m, v, 4, 0.1), m, v))
        assert runs[0] == runs[1]

    def test_matches_textbook_vector_adam(self):
        """In-place float ascent equals the numpy vector descent on the
        negated gradients bit for bit."""
        rng = np.random.default_rng(1)
        zeta = rng.uniform(-1, 1, size=5)
        grads = rng.normal(0.0, 3.0, size=(50, 5))
        x = run_adam(zeta.tolist(), [(-grad).tolist() for grad in grads], 0.07)
        np.testing.assert_array_equal(x, textbook_adam(zeta, grads, lr=0.07))

    def test_update_magnitude_bounded_after_first_step(self):
        """Along a smooth trajectory, |step| <= lr * (1 + 1e-6) per coordinate."""
        x, first, second = np.array([0.0, 4.0]), [0.0, 0.0], [0.0, 0.0]
        for t in range(1, 501):
            prev = x
            grad = -2.0 * (prev - np.array([3.0, -1.0]))
            x = np.array(adam_step(x, grad, first, second, t, 0.05))
            if t >= 2:
                assert np.all(np.abs(x - prev) <= 0.05 * (1.0 + 1e-6))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_gradient_raises(self, bad):
        """A NaN or infinite gradient entry makes its moments non-finite; the
        post-update check raises."""
        for grad in ([1.0, bad], [bad, 0.0]):
            with pytest.raises(OverflowError):
                two_steps(0.1, [0.0, 0.0], grad)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_gradient_raises_at_zero_learning_rate(self, bad):
        """At lr 0 the update is 0 * (mhat / ...), NaN for a non-finite first
        moment, so the check still raises."""
        for grad in ([1.0, bad], [bad, 0.0]):
            with pytest.raises(OverflowError):
                two_steps(0.0, [0.5, -0.5], grad)

    def test_moment_overflow_raises(self):
        """A finite gradient whose square overflows would leave v = inf and
        the coordinate frozen; the step raises instead."""
        with pytest.raises(OverflowError):
            two_steps(0.1, [0.0, 0.0], [1e155, 1.0])

    def test_overflow_in_a_later_coordinate_raises(self):
        """The single pass raises on the last coordinate after the first ones
        were computed."""
        for bad in (1e155, np.nan):
            with pytest.raises(OverflowError):
                run_adam([0.0, 0.0, 0.0], [[1.0, -2.0, 0.5], [1.0, 1.0, bad]], 0.1)

    def test_settings_validation(self):
        with pytest.raises(ValueError):
            check_learning_rate(-0.1)
        assert check_learning_rate(0.0) == 0.0  # zero lr is allowed: no movement

    @pytest.mark.parametrize("lr", [np.nan, np.inf, -np.inf])
    def test_non_finite_learning_rate_rejected(self, lr):
        with pytest.raises(ValueError, match="finite"):
            check_learning_rate(lr)


class TestOneFinitenessCheck:
    R = [0.0, 5e-324, 1.0, 1e154, math.sqrt(sys.float_info.max), math.inf, math.nan]
    Z = [0.0, 1.0, -1.0, sys.float_info.max, -sys.float_info.max, math.inf, -math.inf, math.nan]

    @pytest.mark.parametrize("r", R)
    @pytest.mark.parametrize("z", Z)
    def test_one_check_is_both_checks(self, r, z):
        """For r = sqrt(vhat) >= 0 (or NaN) and any update z, r + z is finite
        exactly when both are: the one call is the two it replaces."""
        assert math.isfinite(r + z) == (math.isfinite(r) and math.isfinite(z))
