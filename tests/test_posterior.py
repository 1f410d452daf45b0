"""Cholesky posterior: sampling transform, closed-form KL, extraction."""

import math

import numpy as np
import pytest

from svbayes.autodiff import Tape, finite_diff_check
from svbayes.posterior import (
    PosteriorNodes,
    PosteriorParams,
    PriorSpec,
    build_cholesky,
    cholesky_factor,
    covariance,
    extract_posterior,
    kl_to_prior,
    kl_value,
    lift,
    reparam_sample,
)


def random_params(rng, p=2, correlation=True):
    return PosteriorParams(
        m=rng.uniform(-3, 3, size=p),
        v=rng.uniform(-1.5, 1.5, size=p),
        u=rng.uniform(-2, 2, size=p * (p - 1) // 2),
        correlation_enabled=correlation,
    )


def random_prior(rng, p=2):
    a = rng.uniform(-1, 1, size=(p, p))
    c0 = a @ a.T + np.eye(p) * rng.uniform(0.5, 2.0)
    return PriorSpec(m0=rng.uniform(-2, 2, size=p), C0=c0)


def mvn_log_pdf(x, mean, cov):
    """Independent oracle MVN log density (direct inverse and determinant)."""
    diff = x - mean
    inv = np.linalg.inv(cov)
    _, logdet = np.linalg.slogdet(cov)
    quad = np.einsum("...i,ij,...j->...", diff, inv, diff)
    return -0.5 * (quad + logdet + mean.size * math.log(2 * math.pi))


class TestCholesky:
    def test_zero_params_give_identity(self):
        params = PosteriorParams(m=[0.0, 0.0], v=[0.0, 0.0], u=[0.0])
        np.testing.assert_array_equal(cholesky_factor(params), np.eye(2))

    def test_hand_computed_covariance(self):
        # S = [[1, 0], [0.5, 1]] so C = [[1, 0.5], [0.5, 1.25]]
        params = PosteriorParams(m=[0.0, 0.0], v=[0.0, 0.0], u=[0.5])
        np.testing.assert_allclose(
            covariance(params), [[1.0, 0.5], [0.5, 1.25]], rtol=1e-15
        )

    def test_disabled_correlation_zeroes_offdiagonals(self):
        params = PosteriorParams(
            m=[0.0, 0.0], v=[0.3, -0.2], u=[5.0], correlation_enabled=False
        )
        c = covariance(params)
        assert c[0, 1] == 0.0 and c[1, 0] == 0.0

    def test_tape_factor_matches_plain(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            params = random_params(rng)
            t = Tape()
            nodes = lift(t, params)
            s_nodes = build_cholesky(t, nodes)
            s_plain = cholesky_factor(params)
            for i in range(2):
                for j in range(i + 1):
                    assert t.value(s_nodes[i][j]) == s_plain[i, j]

    def test_positive_definite_for_random_params(self):
        """C = S S^T has strictly positive eigenvalues for any finite (v, u)."""
        rng = np.random.default_rng(1)
        for _ in range(1000):
            params = random_params(rng)
            assert np.all(np.linalg.eigvalsh(covariance(params)) > 0.0)

    def test_log_det_identity(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            params = random_params(rng)
            _, logdet = np.linalg.slogdet(covariance(params))
            assert 2.0 * params.v.sum() == pytest.approx(logdet, rel=1e-10)


class TestReparamSample:
    def test_zero_noise_returns_mean_exactly(self):
        params = PosteriorParams(m=[1.5, -2.0], v=[0.7, 0.1], u=[0.4])
        t = Tape()
        theta = reparam_sample(t, lift(t, params), np.zeros(2))
        assert [t.value(n) for n in theta] == [1.5, -2.0]

    def test_univariate_transform_by_hand(self):
        # m = 2, s = 3, eps = 1 -> theta = 5
        params = PosteriorParams(m=[2.0], v=[math.log(3.0)], u=None)
        t = Tape()
        theta = reparam_sample(t, lift(t, params), np.array([1.0]))
        assert t.value(theta[0]) == pytest.approx(5.0, rel=1e-15)

    def test_dimension_mismatch_rejected(self):
        params = PosteriorParams(m=[0.0, 0.0], v=[0.0, 0.0], u=[0.0])
        t = Tape()
        with pytest.raises(ValueError):
            reparam_sample(t, lift(t, params), np.zeros(3))

    def test_tape_and_plain_transforms_agree(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            params = random_params(rng, correlation=bool(rng.integers(2)))
            eps = rng.standard_normal(2)
            t = Tape()
            theta_nodes = reparam_sample(t, lift(t, params), eps)
            tape_vals = np.array([t.value(n) for n in theta_nodes])
            plain = params.m + cholesky_factor(params) @ eps
            np.testing.assert_allclose(tape_vals, plain, rtol=1e-14)

    def test_sample_moments(self):
        """1e5 samples reproduce m and S S^T within Monte Carlo bounds."""
        params = PosteriorParams(m=[1.0, -0.5], v=[math.log(0.8), math.log(1.2)], u=[0.7])
        rng = np.random.default_rng(4)
        eps = rng.standard_normal((100_000, 2))
        s = cholesky_factor(params)
        samples = params.m + eps @ s.T
        c = covariance(params)
        for i in range(2):
            bound = 4.0 * math.sqrt(c[i, i]) / math.sqrt(100_000)
            assert abs(samples[:, i].mean() - params.m[i]) < bound
        emp = np.cov(samples.T)
        np.testing.assert_allclose(emp, c, rtol=0.02)

    def test_gradient_through_transform(self):
        """With eps frozen, a smooth scalar of theta* differentiates correctly
        with respect to (m, v, u)."""
        rng = np.random.default_rng(5)
        for _ in range(10):
            eps = rng.standard_normal(2)

            def build(t, xs):
                nodes = PosteriorNodes(
                    m=(xs[0], xs[1]), v=(xs[2], xs[3]), u=(xs[4],),
                    correlation_enabled=True,
                )
                theta = reparam_sample(t, nodes, eps)
                return t.add(t.square(theta[0]), t.exp(theta[1]))

            at = rng.uniform(-1, 1, size=5)
            report = finite_diff_check(build, at, rtol=1e-5)
            assert report.passed, report.max_rel_error


class TestKl:
    def test_zero_when_equal_to_prior(self):
        prior = PriorSpec(m0=[0.3, -0.7], C0=[[2.0, 0.4], [0.4, 1.0]])
        # reproduce C0 through the factorization: S = chol(C0)
        s = np.linalg.cholesky(prior.C0)
        params = PosteriorParams(
            m=prior.m0, v=np.log(np.diag(s)), u=[s[1, 0]]
        )
        assert abs(kl_value(params, prior)) < 1e-12

    def test_mean_shift_closed_form(self):
        # m = (1, 0), m0 = 0, C = C0 = I: KL = 0.5 ||m||^2 = 0.5
        prior = PriorSpec(m0=[0.0, 0.0], C0=np.eye(2))
        params = PosteriorParams(m=[1.0, 0.0], v=[0.0, 0.0], u=[0.0])
        assert kl_value(params, prior) == pytest.approx(0.5, abs=1e-14)

    def test_sensitive_to_mean_perturbation(self):
        prior = PriorSpec(m0=[0.0, 0.0], C0=np.eye(2))
        params = PosteriorParams(m=[0.1, 0.0], v=[0.0, 0.0], u=[0.0])
        assert kl_value(params, prior) > 1e-4

    def test_nonnegative_for_random_pairs(self):
        rng = np.random.default_rng(6)
        for _ in range(1000):
            assert kl_value(random_params(rng), random_prior(rng)) >= -1e-10

    def test_tape_matches_plain(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            params, prior = random_params(rng), random_prior(rng)
            t = Tape()
            node = kl_to_prior(t, lift(t, params), prior)
            assert t.value(node) == pytest.approx(kl_value(params, prior), rel=1e-12)

    def test_against_monte_carlo_oracle(self):
        """Closed form agrees with a sampled E_q[log q - log p] within 3 SE."""
        rng = np.random.default_rng(8)
        for _ in range(5):
            params, prior = random_params(rng), random_prior(rng)
            s = cholesky_factor(params)
            c = covariance(params)
            draws = params.m + rng.standard_normal((100_000, 2)) @ s.T
            diffs = mvn_log_pdf(draws, params.m, c) - prior.log_pdf(draws)
            se = diffs.std(ddof=1) / math.sqrt(draws.shape[0])
            assert abs(kl_value(params, prior) - diffs.mean()) < 3.0 * se

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        prior = random_prior(rng)

        def build(t, xs):
            nodes = PosteriorNodes(
                m=(xs[0], xs[1]), v=(xs[2], xs[3]), u=(xs[4],),
                correlation_enabled=True,
            )
            return kl_to_prior(t, nodes, prior)

        for _ in range(10):
            at = rng.uniform(-1.5, 1.5, size=5)
            report = finite_diff_check(build, at, rtol=1e-5)
            assert report.passed, report.max_rel_error

    def test_dimension_mismatch(self):
        prior = PriorSpec(m0=[0.0], C0=[[1.0]])
        params = PosteriorParams(m=[0.0, 0.0], v=[0.0, 0.0], u=[0.0])
        t = Tape()
        with pytest.raises(ValueError):
            kl_to_prior(t, lift(t, params), prior)


class TestDiagonalVariant:
    def test_bitwise_consistency_with_zeroed_u(self):
        """Samples and KL agree bitwise between the full variant with u = 0
        and the diagonal variant."""
        rng = np.random.default_rng(10)
        prior = random_prior(rng)
        for _ in range(20):
            m, v = rng.uniform(-2, 2, size=2), rng.uniform(-1, 1, size=2)
            eps = rng.standard_normal(2)
            full = PosteriorParams(m=m, v=v, u=[0.0], correlation_enabled=True)
            diag = PosteriorParams(m=m, v=v, u=[7.7], correlation_enabled=False)
            np.testing.assert_array_equal(
                full.m + cholesky_factor(full) @ eps, diag.m + cholesky_factor(diag) @ eps
            )
            assert kl_value(full, prior) == kl_value(diag, prior)
            t1, t2 = Tape(), Tape()
            k1 = kl_to_prior(t1, lift(t1, full), prior)
            k2 = kl_to_prior(t2, lift(t2, diag), prior)
            assert t1.value(k1) == t2.value(k2)


class TestExtraction:
    def test_identity_case(self):
        params = PosteriorParams(m=[0.0, 0.0], v=[0.0, 0.0], u=[0.0])
        summary = extract_posterior(params)
        np.testing.assert_array_equal(summary.cov, np.eye(2))
        assert summary.rho == 0.0

    def test_hand_computed_correlation(self):
        # S = [[1, 0], [1, 0.5]]: C = [[1, 1], [1, 1.25]], rho = 1/sqrt(1.25)
        params = PosteriorParams(m=[0.0, 0.0], v=[0.0, math.log(0.5)], u=[1.0])
        mean, cov, rho = extract_posterior(params)
        np.testing.assert_allclose(cov, [[1.0, 1.0], [1.0, 1.25]], rtol=1e-15)
        assert rho == pytest.approx(1.0 / math.sqrt(1.25), rel=1e-12)

    def test_disabled_correlation_rho_is_zero(self):
        params = PosteriorParams(
            m=[1.0, 2.0], v=[0.5, -0.5], u=[3.0], correlation_enabled=False
        )
        assert extract_posterior(params).rho == 0.0

    def test_json_shape(self):
        params = PosteriorParams(m=[1.0, 2.0], v=[0.0, 0.0], u=[0.2])
        doc = extract_posterior(params).to_json_dict()
        assert set(doc) == {"m", "C", "rho", "correlation_enabled"}
        assert doc["m"] == [1.0, 2.0]
        assert len(doc["C"]) == 2 and len(doc["C"][0]) == 2


class TestPriorSpec:
    def test_rejects_asymmetric_covariance(self):
        with pytest.raises(ValueError):
            PriorSpec(m0=[0.0, 0.0], C0=[[1.0, 0.5], [0.1, 1.0]])

    def test_rejects_indefinite_covariance(self):
        with pytest.raises(ValueError):
            PriorSpec(m0=[0.0, 0.0], C0=[[1.0, 2.0], [2.0, 1.0]])

    def test_log_pdf_matches_oracle(self):
        rng = np.random.default_rng(11)
        prior = random_prior(rng)
        pts = rng.uniform(-3, 3, size=(40, 2))
        np.testing.assert_allclose(
            prior.log_pdf(pts), mvn_log_pdf(pts, prior.m0, prior.C0), rtol=1e-12
        )
