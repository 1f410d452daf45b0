"""Tape construction, backward sweep, and the finite-difference harness."""

import math

import numpy as np
import pytest

from svbayes.autodiff import DomainError, Tape, finite_diff_check


class TestLeaves:
    def test_gradient_of_variable_is_one(self):
        t = Tape()
        x = t.variable(3.0)
        assert t.grad(x)[x] == 1.0

    def test_unused_leaf_gets_zero_adjoint(self):
        t = Tape()
        x = t.variable(2.0)
        unused = t.variable(0.0)
        out = t.square(x)
        g = t.grad(out)
        assert g[unused] == 0.0
        assert g[x] == 4.0

    def test_non_finite_variable_rejected(self):
        t = Tape()
        with pytest.raises(DomainError):
            t.variable(float("nan"))
        with pytest.raises(DomainError):
            t.constant(float("inf"))


class TestPrimitives:
    def test_square_gradient(self):
        t = Tape()
        x = t.variable(3.0)
        assert t.grad(t.square(x))[x] == 6.0

    def test_log_gradient(self):
        t = Tape()
        x = t.variable(2.0)
        assert t.grad(t.log(x))[x] == 0.5

    def test_forward_values(self):
        t = Tape()
        a, b = t.variable(6.0), t.variable(2.0)
        assert t.value(t.add(a, b)) == 8.0
        assert t.value(t.sub(a, b)) == 4.0
        assert t.value(t.mul(a, b)) == 12.0
        assert t.value(t.neg(a)) == -6.0
        assert t.value(t.exp(b)) == math.exp(2.0)
        assert t.value(t.sum_many([a, b, a])) == 14.0

    def test_domain_errors(self):
        t = Tape()
        x = t.variable(-1.0)
        zero = t.variable(0.0)
        with pytest.raises(DomainError):
            t.log(x)
        with pytest.raises(DomainError):
            t.log(zero)
        big = t.variable(1000.0)
        with pytest.raises(DomainError):
            t.exp(big)

    def test_sum_many_rejects_empty(self):
        t = Tape()
        with pytest.raises(ValueError):
            t.sum_many([])

    def test_foreign_node_id_rejected(self):
        t = Tape()
        x = t.variable(1.0)
        with pytest.raises(ValueError):
            t.add(x, 99)

    @pytest.mark.parametrize(
        "name,build,lo,hi",
        [
            ("add", lambda t, x, y: t.add(x, y), -10.0, 10.0),
            ("sub", lambda t, x, y: t.sub(x, y), -10.0, 10.0),
            ("mul", lambda t, x, y: t.mul(x, y), -10.0, 10.0),
            ("neg", lambda t, x, y: t.neg(x), -10.0, 10.0),
            ("log", lambda t, x, y: t.log(x), 0.01, 10.0),
            ("exp", lambda t, x, y: t.exp(x), -5.0, 5.0),
            ("square", lambda t, x, y: t.square(x), -10.0, 10.0),
            ("sum", lambda t, x, y: t.sum_many([x, y, x]), -10.0, 10.0),
        ],
    )
    def test_primitive_matches_finite_differences(self, name, build, lo, hi):
        """Each primitive's adjoint agrees with central differences, rtol 1e-6."""
        rng = np.random.default_rng(7)
        for _ in range(100):
            at = rng.uniform(lo, hi, size=2)
            report = finite_diff_check(
                lambda t, xs: build(t, xs[0], xs[1]), at, rtol=1e-6
            )
            assert report.passed, f"{name} at {at}: {report.max_rel_error}"


class TestBackwardSweep:
    def test_hand_chain_rule(self):
        # f = x*y + x at (2, 3)
        t = Tape()
        x, y = t.variable(2.0), t.variable(3.0)
        g = t.grad(t.add(t.mul(x, y), x))
        assert g[x] == 4.0
        assert g[y] == 2.0

    def test_identity_composition(self):
        t = Tape()
        x = t.variable(5.0)
        assert t.grad(t.exp(t.log(x)))[x] == pytest.approx(1.0, rel=1e-12)

    def test_fanout_accumulates_exactly(self):
        t = Tape()
        x = t.variable(1.7)
        assert t.grad(t.add(x, x))[x] == 2.0

    def test_repeated_grad_is_bitwise_identical(self):
        t = Tape()
        x, y = t.variable(0.3), t.variable(-1.2)
        out = t.mul(t.exp(x), t.square(t.mul(x, y)))
        g1 = t.grad(out)
        g2 = t.grad(out)
        assert g1.adjoints == g2.adjoints

    def test_linearity(self):
        """grad(a*f + b*g) = a*grad(f) + b*grad(g) on shared leaves."""
        rng = np.random.default_rng(11)
        for _ in range(20):
            a, b = rng.uniform(-3, 3, size=2)
            t = Tape()
            x, y = t.variable(rng.uniform(0.5, 2)), t.variable(rng.uniform(0.5, 2))
            f = t.mul(t.log(x), y)
            g = t.add(t.square(x), t.exp(y))
            combo = t.add(
                t.mul(t.constant(a), f), t.mul(t.constant(b), g)
            )
            gf, gg, gc = t.grad(f), t.grad(g), t.grad(combo)
            for leaf in (x, y):
                assert gc[leaf] == pytest.approx(a * gf[leaf] + b * gg[leaf], abs=1e-12)


class TestFiniteDiffCheck:
    def test_cubic_passes(self):
        def cubic(t, xs):
            return t.mul(t.square(xs[0]), xs[0])

        report = finite_diff_check(cubic, [2.0], rtol=1e-5)
        assert report.passed
        assert report.ad_gradient[0] == 12.0

    def test_zero_rtol_fails_on_truncation_error(self):
        def cubic(t, xs):
            return t.mul(t.square(xs[0]), xs[0])

        report = finite_diff_check(cubic, [2.0], rtol=0.0)
        assert not report.passed
        assert report.max_rel_error > 0.0

    def test_unevaluable_perturbation_reported_not_fatal(self):
        # log's domain edge: x - h falls outside the domain
        def logf(t, xs):
            return t.log(xs[0])

        report = finite_diff_check(logf, [5e-7], rtol=1e-5)
        assert report.eval_failures
        assert not report.passed
