"""Adam update rule (ascent): first-step behavior, convergence, determinism."""

import numpy as np
import pytest

from svbayes.optimizer import Adam


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


class TestAdamStep:
    def test_zero_gradient_leaves_parameters_unchanged(self):
        opt = Adam(3, learning_rate=0.1)
        zeta = [1.0, -2.0, 0.5]
        updated = opt.step(zeta, [0.0, 0.0, 0.0])
        assert updated == zeta
        assert opt.step_count == 1

    def test_first_step_magnitude_close_to_learning_rate(self):
        opt = Adam(4, learning_rate=0.05)
        grad = np.array([3.0, -0.2, 10.0, -7.5])
        updated = np.array(opt.step(np.zeros(4), grad))
        np.testing.assert_allclose(np.abs(updated), 0.05, rtol=1e-6)
        assert np.all(np.sign(updated) == np.sign(grad))

    def test_minimizes_shifted_quadratic(self):
        """Run-to-convergence on (x - 3)^2 from x = 0, ascending its negation,
        lr = 0.1, 2000 steps."""
        opt = Adam(1, learning_rate=0.1)
        x = [0.0]
        for _ in range(2000):
            x = opt.step(x, [-2.0 * (x[0] - 3.0)])
        assert abs(x[0] - 3.0) < 1e-3

    def test_determinism(self):
        rng = np.random.default_rng(0)
        zeta = rng.uniform(-1, 1, size=5).tolist()
        grad = rng.uniform(-1, 1, size=5).tolist()
        first, second = rng.uniform(-1, 1, 5).tolist(), rng.uniform(0, 1, 5).tolist()
        runs = []
        for _ in range(2):
            opt = Adam(5, learning_rate=0.1)
            opt.step_count, opt.first_moment, opt.second_moment = 3, first[:], second[:]
            runs.append((opt.step(zeta, grad), opt.first_moment, opt.second_moment))
        assert runs[0] == runs[1]

    def test_matches_textbook_vector_adam(self):
        """In-place float ascent equals the numpy vector descent on the
        negated gradients bit for bit."""
        rng = np.random.default_rng(1)
        zeta = rng.uniform(-1, 1, size=5)
        grads = rng.normal(0.0, 3.0, size=(50, 5))
        opt = Adam(5, learning_rate=0.07)
        x = zeta.tolist()
        for grad in grads:
            x = opt.step(x, (-grad).tolist())
        np.testing.assert_array_equal(x, textbook_adam(zeta, grads, lr=0.07))

    def test_update_magnitude_bounded_after_first_step(self):
        """Along a smooth trajectory, |step| <= lr * (1 + 1e-6) per coordinate."""
        opt = Adam(2, learning_rate=0.05)
        x = np.array([0.0, 4.0])
        for step in range(500):
            prev = x
            x = np.array(opt.step(x, -2.0 * (prev - np.array([3.0, -1.0]))))
            if step >= 1:
                assert np.all(np.abs(x - prev) <= 0.05 * (1.0 + 1e-6))

    def test_step_count_increments(self):
        opt = Adam(2, learning_rate=0.1)
        zeta = [0.0, 0.0]
        for expected in (1, 2, 3):
            zeta = opt.step(zeta, [1.0, 1.0])
            assert opt.step_count == expected

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_gradient_raises_and_keeps_state(self, bad):
        """A NaN or infinite gradient entry makes its moments non-finite; the
        post-update check raises and nothing is committed."""
        opt = Adam(2, learning_rate=0.1)
        opt.step([0.0, 0.0], [1.0, 1.0])
        before = (opt.step_count, opt.first_moment[:], opt.second_moment[:])
        for grad in ([1.0, bad], [bad, 0.0]):
            with pytest.raises(OverflowError):
                opt.step([0.0, 0.0], grad)
        assert (opt.step_count, opt.first_moment, opt.second_moment) == before

    def test_moment_overflow_raises_and_keeps_state(self):
        """A finite gradient whose square overflows would leave v = inf and
        the coordinate frozen; the step raises instead and changes nothing."""
        opt = Adam(2, learning_rate=0.1)
        opt.step([0.0, 0.0], [1.0, 1.0])
        before = (opt.step_count, opt.first_moment[:], opt.second_moment[:])
        with pytest.raises(OverflowError):
            opt.step([0.0, 0.0], [1e155, 1.0])
        assert (opt.step_count, opt.first_moment, opt.second_moment) == before

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Adam(2, learning_rate=0.1).step([0.0, 0.0], [0.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            Adam(3, learning_rate=0.1).step([0.0, 0.0], [0.0, 0.0])

    def test_settings_validation(self):
        with pytest.raises(ValueError):
            Adam(2, learning_rate=-0.1)
        Adam(2, learning_rate=0.0)  # zero lr is allowed: no movement

    @pytest.mark.parametrize("lr", [np.nan, np.inf, -np.inf])
    def test_non_finite_learning_rate_rejected(self, lr):
        with pytest.raises(ValueError, match="finite"):
            Adam(2, learning_rate=lr)

    def test_overflow_in_a_later_coordinate_keeps_state(self):
        """The single pass raises on the last coordinate after the first ones
        were computed; nothing is committed."""
        opt = Adam(3, learning_rate=0.1)
        opt.step([0.0, 0.0, 0.0], [1.0, -2.0, 0.5])
        before = (opt.step_count, opt.first_moment[:], opt.second_moment[:])
        with pytest.raises(OverflowError):
            opt.step([0.0, 0.0, 0.0], [1.0, 1.0, 1e155])
        with pytest.raises(OverflowError):
            opt.step([0.0, 0.0, 0.0], [1.0, 1.0, np.nan])
        assert (opt.step_count, opt.first_moment, opt.second_moment) == before
