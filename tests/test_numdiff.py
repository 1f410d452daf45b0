"""The numerical derivatives the gradient tests take as their reference."""

import math

import numpy as np
import pytest

from numdiff import central_differences, complex_step, max_rel_error

POINTS = {
    "small": [0.3, -1.2],
    "moderate": [2.0, 5.0],
    "mixed-scale": [-40.0, 0.01],
}


def cubic(x):
    return x[0] ** 3 + 2.0 * x[0] * x[1] - x[1] ** 2


def cubic_grad(x):
    return np.array([3.0 * x[0] ** 2 + 2.0 * x[1], 2.0 * x[0] - 2.0 * x[1]])


def analytic(x):
    """A complex-safe smooth function of two variables."""
    return np.exp(0.5 * x[0]) * np.sin(x[1]) + x[0] ** 3 * x[1]


def analytic_grad(x):
    return np.array([
        0.5 * math.exp(0.5 * x[0]) * math.sin(x[1]) + 3.0 * x[0] ** 2 * x[1],
        math.exp(0.5 * x[0]) * math.cos(x[1]) + x[0] ** 3,
    ])


class TestCentralDifferences:
    @pytest.mark.parametrize("at", list(POINTS.values()), ids=list(POINTS))
    def test_cubic_within_truncation_and_rounding(self, at):
        fd = central_differences(cubic, at)
        assert max_rel_error(fd, cubic_grad(at)) <= 1e-7

    def test_approximate_not_exact(self):
        """The difference quotient of exp carries truncation and rounding
        error, which is why the gradient checks allow a tolerance."""
        fd = central_differences(lambda x: math.exp(x[0]), [1.0])
        err = max_rel_error(fd, [math.e])
        assert 0.0 < err <= 1e-8

    def test_step_is_relative_to_the_coordinate(self):
        """At x = 1e12 an absolute step of 1e-6 is below one ulp (x + h == x);
        the step 1e-6 |x| still resolves d(x^2)/dx = 2x."""
        assert 1e12 + 1e-6 == 1e12
        fd = central_differences(lambda x: x[0] ** 2, [1e12])
        assert fd[0] == pytest.approx(2e12, rel=1e-6)

    def test_leaves_the_point_unchanged(self):
        at = np.array([0.5, -0.25])
        central_differences(cubic, at)
        assert at.tolist() == [0.5, -0.25]


class TestComplexStep:
    @pytest.mark.parametrize("at", list(POINTS.values()), ids=list(POINTS))
    def test_matches_analytic_gradient_to_rounding(self, at):
        """No difference of nearby values is taken, so the result is as
        accurate as the function's own arithmetic."""
        grad = complex_step(analytic, at)
        np.testing.assert_allclose(grad, analytic_grad(at), rtol=1e-13, atol=0.0)

    def test_returns_a_real_vector(self):
        grad = complex_step(analytic, [0.1, 0.2])
        assert grad.dtype == np.float64 and grad.shape == (2,)


class TestMaxRelError:
    def test_zero_where_both_are_zero(self):
        assert max_rel_error([0.0, 2.0], [0.0, 2.0]) == 0.0

    def test_relative_to_the_larger_magnitude(self):
        assert max_rel_error([1.0, 5.0], [1.1, 5.0]) == pytest.approx(0.1 / 1.1, rel=1e-12)
        assert max_rel_error([1.1], [1.0]) == max_rel_error([1.0], [1.1])

    def test_one_sided_zero_is_total_error(self):
        assert max_rel_error([0.0], [1e-300]) == 1.0

    def test_empty_is_zero(self):
        assert max_rel_error([], []) == 0.0
