"""Densities, tape log-likelihoods, samplers, and the seeded generator."""

import math

import numpy as np
import pytest

from svbayes.autodiff import DomainError, Tape, finite_diff_check
from svbayes.distributions import (
    Dataset,
    ModelKind,
    NaturalParams,
    ThetaVector,
    folded_normal_log_pdf,
    folded_normal_loglik,
    gaussian_log_pdf,
    gaussian_loglik,
    log_pdf,
    loglik_and_grad,
    pdf,
    sample_data,
)
from svbayes.rng import Rng


def two_term_folded_pdf(y, mu, beta):
    """Independent oracle: the density as a sum of two reflected Gaussians."""
    c = np.sqrt(beta / (2.0 * np.pi))
    return np.where(
        y > 0,
        c * np.exp(-0.5 * beta * (y - mu) ** 2) + c * np.exp(-0.5 * beta * (y + mu) ** 2),
        0.0,
    )


def cosh_form_folded_pdf(y, mu, beta):
    """Independent oracle: hyperbolic-cosine formulation of the same density."""
    return np.where(
        y > 0,
        np.sqrt(2.0 * beta / np.pi) * np.exp(-0.5 * beta * (y**2 + mu**2)) * np.cosh(beta * mu * y),
        0.0,
    )


def tape_loglik_value(kind, theta, data, n_total, batch_size=None):
    t = Tape()
    nodes = (t.variable(theta[0]), t.variable(theta[1]))
    if kind is ModelKind.GAUSSIAN:
        out = gaussian_loglik(t, nodes, data, n_total, batch_size)
    else:
        out = folded_normal_loglik(t, nodes, data, n_total, batch_size)
    return t.value(out)


class TestParameterizations:
    def test_theta_roundtrip(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            theta = ThetaVector(rng.uniform(-3, 3), rng.uniform(-3, 3))
            back = ThetaVector.from_natural(theta.to_natural())
            assert back.theta1 == pytest.approx(theta.theta1, abs=1e-12)
            assert back.theta2 == pytest.approx(theta.theta2, abs=1e-12)

    def test_natural_params_require_positive_precision(self):
        with pytest.raises(ValueError):
            NaturalParams(mu=0.0, beta=0.0)
        with pytest.raises(ValueError):
            NaturalParams.from_mean_variance(0.0, -1.0)

    def test_dataset_validation(self):
        with pytest.raises(ValueError):
            Dataset(np.array([]))
        with pytest.raises(ValueError):
            Dataset(np.array([[1.0, 2.0]]))


class TestGaussianLoglik:
    def test_single_point_closed_form(self):
        # theta = (1, log 4), data {1.0}: quadratic term vanishes, leaving
        # 0.5 * log(0.25 / 2pi); reference computed with 40-digit arithmetic
        value = tape_loglik_value(
            ModelKind.GAUSSIAN, (1.0, math.log(4.0)), [1.0], n_total=1
        )
        assert value == pytest.approx(-1.6120857137646180512, rel=1e-14)

    def test_matches_sum_of_log_pdf(self):
        rng = np.random.default_rng(5)
        data = rng.normal(1.0, 2.0, size=40)
        theta = (0.7, 0.9)
        value = tape_loglik_value(ModelKind.GAUSSIAN, theta, data, n_total=40)
        direct = gaussian_log_pdf(data, theta[0], math.exp(-theta[1])).sum()
        assert value == pytest.approx(direct, rel=1e-10)

    def test_equal_partition_identity(self):
        """Mean of scaled batch values over a disjoint equal partition equals
        the full-data log-likelihood."""
        rng = np.random.default_rng(6)
        data = rng.normal(0.5, 1.5, size=60)
        theta = (0.2, 0.4)
        full = tape_loglik_value(ModelKind.GAUSSIAN, theta, data, n_total=60)
        for bs in (5, 10, 20, 60):
            vals = [
                tape_loglik_value(ModelKind.GAUSSIAN, theta, data[i : i + bs], 60)
                for i in range(0, 60, bs)
            ]
            assert np.mean(vals) == pytest.approx(full, rel=1e-10)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        data = rng.normal(1.0, 2.0, size=25)

        def build(t, xs):
            return gaussian_loglik(t, (xs[0], xs[1]), data, n_total=25)

        for _ in range(10):
            at = [rng.uniform(-2, 2), rng.uniform(-1, 2)]
            report = finite_diff_check(build, at, rtol=1e-5)
            assert report.passed, report.max_rel_error

    def test_batch_validation(self):
        t = Tape()
        nodes = (t.variable(0.0), t.variable(0.0))
        with pytest.raises(ValueError):
            gaussian_loglik(t, nodes, [], n_total=5)
        with pytest.raises(ValueError):
            gaussian_loglik(t, nodes, [1.0, 2.0], n_total=1)
        with pytest.raises(ValueError):
            gaussian_loglik(t, nodes, [1.0, 2.0], n_total=5, batch_size=3)


class TestFoldedNormal:
    def test_zero_mean_is_double_gaussian(self):
        ys = np.linspace(0.1, 8.0, 50)
        for beta in (0.25, 1.0, 4.0):
            folded = np.exp(folded_normal_log_pdf(ys, 0.0, beta))
            gauss = np.exp(gaussian_log_pdf(ys, 0.0, beta))
            np.testing.assert_allclose(folded, 2.0 * gauss, rtol=1e-12)

    def test_log_pdf_spot_values(self):
        # frozen from 40-digit evaluation of the two-term definition
        cases = [
            ((1.5, 1.0, 0.25), -1.2564647076497181075),
            ((0.3, -2.0, 3.0), -4.6776752958624098356),
            ((2.0, 0.0, 1.0), -2.2257913526447274324),
        ]
        for (y, mu, beta), expected in cases:
            assert float(folded_normal_log_pdf(y, mu, beta)) == pytest.approx(
                expected, rel=1e-13
            )

    def test_two_term_and_cosh_forms_agree(self):
        """The implementation matches both independent formulations on a mesh."""
        ys = np.linspace(0.05, 10.0, 40)[:, None, None]
        mus = np.linspace(-3.0, 3.0, 13)[None, :, None]
        betas = np.linspace(0.1, 10.0, 12)[None, None, :]
        ours = np.exp(folded_normal_log_pdf(ys, mus, betas))
        np.testing.assert_allclose(ours, two_term_folded_pdf(ys, mus, betas), rtol=1e-10, atol=1e-300)
        np.testing.assert_allclose(ours, cosh_form_folded_pdf(ys, mus, betas), rtol=1e-10, atol=1e-300)

    def test_matches_sum_of_log_pdf(self):
        data = np.abs(np.random.default_rng(9).normal(1.0, 2.0, size=30))
        theta = (0.8, 1.1)
        value = tape_loglik_value(ModelKind.FOLDED_NORMAL, theta, data, n_total=30)
        direct = folded_normal_log_pdf(data, theta[0], math.exp(-theta[1])).sum()
        assert value == pytest.approx(direct, rel=1e-10)

    def test_equal_partition_identity(self):
        data = np.abs(np.random.default_rng(10).normal(1.0, 2.0, size=40))
        theta = (-0.4, 0.6)
        full = tape_loglik_value(ModelKind.FOLDED_NORMAL, theta, data, n_total=40)
        vals = [
            tape_loglik_value(ModelKind.FOLDED_NORMAL, theta, data[i : i + 8], 40)
            for i in range(0, 40, 8)
        ]
        assert np.mean(vals) == pytest.approx(full, rel=1e-10)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(12)
        data = np.abs(rng.normal(1.0, 2.0, size=20))

        def build(t, xs):
            return folded_normal_loglik(t, (xs[0], xs[1]), data, n_total=20)

        for _ in range(10):
            at = [rng.uniform(-2, 2), rng.uniform(-1, 2)]
            report = finite_diff_check(build, at, rtol=1e-5)
            assert report.passed, report.max_rel_error

    def test_nonpositive_data_rejected(self):
        t = Tape()
        nodes = (t.variable(0.0), t.variable(0.0))
        with pytest.raises(DomainError):
            folded_normal_loglik(t, nodes, [1.0, -0.5], n_total=2)
        with pytest.raises(DomainError):
            folded_normal_loglik(t, nodes, [0.0], n_total=1)


class TestLoglikAndGrad:
    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_rows_match_sum_of_log_pdf(self, kind):
        """Each theta row's full-data value is the density's log sum there."""
        rng = np.random.default_rng(13)
        data = np.abs(rng.normal(1.0, 2.0, size=30))
        thetas = rng.uniform([-2.0, -1.0], [2.0, 2.0], size=(6, 2))
        values, grad = loglik_and_grad(kind, data, thetas, n_total=30)
        direct = [log_pdf(kind, data, mu, math.exp(-t2)).sum() for mu, t2 in thetas]
        np.testing.assert_allclose(values, direct, rtol=1e-12)
        assert grad.shape == (6, 2)

    def test_validation(self):
        theta = np.zeros((1, 2))
        with pytest.raises(ValueError):
            loglik_and_grad(ModelKind.GAUSSIAN, [1.0], np.zeros(2), n_total=1)
        with pytest.raises(ValueError):
            loglik_and_grad(ModelKind.GAUSSIAN, [], theta, n_total=5)
        with pytest.raises(ValueError):
            loglik_and_grad(ModelKind.GAUSSIAN, [1.0, 2.0], theta, n_total=1)
        with pytest.raises(DomainError):
            loglik_and_grad(ModelKind.FOLDED_NORMAL, [1.0, 0.0], theta, n_total=2)


class TestPdf:
    def test_gaussian_peak_value(self):
        params = NaturalParams(mu=1.0, beta=0.25)
        assert pdf(ModelKind.GAUSSIAN, 1.0, params) == pytest.approx(
            math.sqrt(0.25 / (2 * math.pi)), rel=1e-14
        )

    def test_folded_zero_outside_support(self):
        params = NaturalParams(mu=1.0, beta=1.0)
        assert pdf(ModelKind.FOLDED_NORMAL, -1.0, params) == 0.0
        assert pdf(ModelKind.FOLDED_NORMAL, 0.0, params) == 0.0

    @pytest.mark.parametrize("mu,variance", [(1.0, 4.0), (0.0, 1.0), (-2.0, 0.5), (3.0, 9.0)])
    def test_folded_integrates_to_one(self, mu, variance):
        """Trapezoid quadrature over (0, |mu| + 10 sigma] recovers unit mass.

        The left endpoint sits just inside the support: the density jumps
        from 0 at y = 0 to a positive right-limit, and a trapezoid rule
        straddling that jump would converge only at first order.
        """
        params = NaturalParams.from_mean_variance(mu, variance)
        sigma = math.sqrt(variance)
        ys = np.linspace(1e-12, abs(mu) + 10 * sigma, 200001)
        total = np.trapezoid(pdf(ModelKind.FOLDED_NORMAL, ys, params), ys)
        assert total == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("mu,variance", [(1.0, 4.0), (-1.5, 0.25)])
    def test_gaussian_integrates_to_one(self, mu, variance):
        params = NaturalParams.from_mean_variance(mu, variance)
        sigma = math.sqrt(variance)
        ys = np.linspace(mu - 10 * sigma, mu + 10 * sigma, 20001)
        vals = pdf(ModelKind.GAUSSIAN, ys, params)
        assert np.all(vals >= 0.0)
        assert np.trapezoid(vals, ys) == pytest.approx(1.0, abs=1e-6)


class TestSamplers:
    def test_sample_mean_within_statistical_bound(self):
        # 3 sigma / sqrt(n) = 3 * 2 / 10 = 0.6
        data = sample_data(ModelKind.GAUSSIAN, NaturalParams.from_mean_variance(1.0, 4.0), 100, seed=42)
        assert abs(data.values.mean() - 1.0) < 0.6

    def test_folded_samples_strictly_positive(self):
        data = sample_data(ModelKind.FOLDED_NORMAL, NaturalParams.from_mean_variance(1.0, 4.0), 500, seed=1)
        assert np.all(data.values > 0.0)

    def test_same_seed_bitwise_identical(self):
        a = sample_data(ModelKind.GAUSSIAN, NaturalParams(0.0, 1.0), 64, seed=9)
        b = sample_data(ModelKind.GAUSSIAN, NaturalParams(0.0, 1.0), 64, seed=9)
        assert np.array_equal(a.values, b.values)

    def test_n_validation(self):
        with pytest.raises(ValueError):
            sample_data(ModelKind.GAUSSIAN, NaturalParams(0.0, 1.0), 0, seed=1)

    def test_standard_normal_moments(self):
        """CLT bounds on 1e5 draws: |mean| < 4/sqrt(1e5), variance in [0.97, 1.03]."""
        draws = Rng(2024).standard_normals(100_000)
        assert abs(draws.mean()) < 0.013
        assert 0.97 < draws.var() < 1.03

    def test_standard_normal_reproducible(self):
        a = Rng(5).standard_normals(50)
        b = Rng(5).standard_normals(50)
        assert np.array_equal(a, b)

    def test_dim_validation(self):
        with pytest.raises(ValueError):
            Rng(1).standard_normals(0)

    def test_uniform_range_and_determinism(self):
        r1, r2 = Rng(123), Rng(123)
        seq1 = [r1.uniform() for _ in range(100)]
        seq2 = [r2.uniform() for _ in range(100)]
        assert seq1 == seq2
        assert all(0.0 <= u < 1.0 for u in seq1)

    def test_shuffle_is_a_permutation(self):
        values = np.arange(37.0)
        out = Rng(77).shuffle(values)
        assert sorted(out.tolist()) == sorted(values.tolist())
        assert not np.array_equal(out, values)
