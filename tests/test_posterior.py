"""Cholesky posterior: sampling transform, closed-form KL, extraction."""

import math

import numpy as np
import pytest

from numdiff import central_differences, max_rel_error
from svbayes import distributions, engine
from svbayes.distributions import ModelKind, make_batches
from svbayes import posterior
from svbayes.posterior import (
    PosteriorParams,
    PriorSpec,
    cholesky_factor,
    factor,
    kl_and_grad,
    kl_value,
)


def random_params(rng, correlation=True):
    """A record of random (m, v, u), the u drawn also when it is left out."""
    m, v = rng.uniform(-3, 3, size=2), rng.uniform(-1.5, 1.5, size=2)
    u = rng.uniform(-2, 2, size=1)
    return PosteriorParams((*m, *v, *(u if correlation else ())))


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
        params = PosteriorParams((0.0, 0.0, 0.0, 0.0, 0.0))
        np.testing.assert_array_equal(cholesky_factor(params), np.eye(2))

    def test_hand_computed_covariance(self):
        # S = [[1, 0], [0.5, 1]] so C = [[1, 0.5], [0.5, 1.25]]
        params = PosteriorParams((0.0, 0.0, 0.0, 0.0, 0.5))
        np.testing.assert_allclose(
            params.cov, [[1.0, 0.5], [0.5, 1.25]], rtol=1e-15
        )

    def test_disabled_correlation_zeroes_offdiagonals(self):
        params = PosteriorParams((0.0, 0.0, 0.3, -0.2))
        c = params.cov
        assert c[0, 1] == 0.0 and c[1, 0] == 0.0

    def test_positive_definite_for_random_params(self):
        """C = S S^T has strictly positive eigenvalues for any finite (v, u)."""
        rng = np.random.default_rng(1)
        for _ in range(1000):
            params = random_params(rng)
            assert np.all(np.linalg.eigvalsh(params.cov) > 0.0)

    def test_log_det_identity(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            params = random_params(rng)
            _, logdet = np.linalg.slogdet(params.cov)
            assert 2.0 * sum(params.zeta[2:4]) == pytest.approx(logdet, rel=1e-10)

    def test_factor_entries_match_cholesky_factor(self):
        """The fit step's three plain-float entries of S are the matrix's,
        bit for bit; a zeta of four entries has S10 = 0."""
        rng = np.random.default_rng(0)
        for _ in range(20):
            params = random_params(rng, correlation=bool(rng.integers(2)))
            s00, s10, s11 = factor(params.zeta)
            s = cholesky_factor(params)
            assert (s00, s10, s11) == (s[0, 0], s[1, 0], s[1, 1])
            assert s[0, 1] == 0.0
            assert params.correlation_enabled or s10 == 0.0

    def test_factor_overflow_raises(self):
        with pytest.raises(OverflowError):
            factor((0.0, 0.0, 710.0, 0.0, 0.0))
        with pytest.raises(OverflowError):
            factor((0.0, 0.0, 0.0, 710.0))


def fit_step_samples(params, eps):
    """The theta rows the fit step evaluates the likelihood at, for noise eps."""
    seen, inner = [], distributions.loglik_terms

    def recording(batch, mu, theta2):
        seen.append(np.column_stack((mu, theta2)))
        return inner(batch, mu, theta2)

    noise = np.column_stack((np.ones(len(eps)), eps))
    (batch,) = make_batches(ModelKind.GAUSSIAN, np.array([0.5, 1.5]), 2)
    prior = PriorSpec.diagonal([0.0, 0.0], [1.0, 1.0])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(distributions, "loglik_terms", recording)
        engine.free_energy_and_grad(batch, params.zeta, noise, prior)
    return seen[0]


class TestReparamSample:
    def test_zero_noise_returns_mean_exactly(self):
        params = PosteriorParams((1.5, -2.0, 0.7, 0.1, 0.4))
        theta = fit_step_samples(params, np.zeros((1, 2)))
        assert theta.tolist() == [[1.5, -2.0]]

    def test_transform_by_hand(self):
        # m = (2, -1), S = [[3, 0], [0.5, 2]], eps = (1, 2) -> theta = (5, 3.5)
        params = PosteriorParams((2.0, -1.0, math.log(3.0), math.log(2.0), 0.5))
        theta = fit_step_samples(params, np.array([[1.0, 2.0]]))
        np.testing.assert_allclose(theta, [[5.0, 3.5]], rtol=1e-15)

    def test_noise_width_mismatch_rejected(self):
        """Noise rows must be [1 | eps], and a one-sample float noise (e0, e1),
        with one eps per parameter."""
        (batch,) = make_batches(ModelKind.GAUSSIAN, np.array([0.5, 1.5]), 2)
        prior = PriorSpec.diagonal([0.0, 0.0], [1.0, 1.0])
        for noise in (np.ones((1, 2)), np.ones((1, 4)), (1.0,), (1.0, 1.0, 1.0)):
            with pytest.raises(ValueError):
                engine.free_energy_and_grad(batch, [0.0] * 5, noise, prior)

    @pytest.mark.parametrize("correlation", [True, False], ids=["corr", "nocorr"])
    def test_gradient_through_transform(self, correlation, monkeypatch):
        """With the noise frozen and the likelihood replaced by the smooth
        f(theta) = mu^2 + exp(theta2), the fit step's gradient (pulled back
        through theta = m + S eps) matches central differences of its value."""

        def smooth(batch, mu, theta2):
            return mu * mu + np.exp(theta2), 2.0 * mu, np.exp(theta2)

        monkeypatch.setattr(distributions, "loglik_terms", smooth)
        (batch,) = make_batches(ModelKind.GAUSSIAN, np.array([0.5, 1.5]), 2)
        rng = np.random.default_rng(5)
        prior = random_prior(rng)
        for _ in range(10):
            noise = np.column_stack((np.ones(3), rng.standard_normal((3, 2))))
            at = rng.uniform(-1, 1, size=5 if correlation else 4)

            def objective(zeta):
                return engine.free_energy_and_grad(batch, list(zeta), noise, prior)

            fd = central_differences(lambda z: objective(z)[0], at)
            _, _, _, grad = objective(at)
            assert max_rel_error(grad, fd) <= 1e-5, (at, fd)

    def test_fit_step_and_plain_transforms_agree(self):
        """The fit step's [1 | eps] [m; S^T] equals m + S eps (the final free
        energy's transform) for every sample."""
        rng = np.random.default_rng(3)
        for _ in range(50):
            params = random_params(rng, correlation=bool(rng.integers(2)))
            eps = rng.standard_normal((1, 2))
            theta = fit_step_samples(params, eps)
            plain = params.mean + eps @ cholesky_factor(params).T
            np.testing.assert_allclose(theta, plain, rtol=1e-14)

    def test_sample_moments(self):
        """1e5 samples reproduce m and S S^T within Monte Carlo bounds."""
        params = PosteriorParams((1.0, -0.5, math.log(0.8), math.log(1.2), 0.7))
        rng = np.random.default_rng(4)
        eps = rng.standard_normal((100_000, 2))
        s = cholesky_factor(params)
        samples = params.mean + eps @ s.T
        c = params.cov
        for i in range(2):
            bound = 4.0 * math.sqrt(c[i, i]) / math.sqrt(100_000)
            assert abs(samples[:, i].mean() - params.zeta[i]) < bound
        emp = np.cov(samples.T)
        np.testing.assert_allclose(emp, c, rtol=0.02)


class TestKl:
    def test_zero_when_equal_to_prior(self):
        prior = PriorSpec(m0=[0.3, -0.7], C0=[[2.0, 0.4], [0.4, 1.0]])
        # reproduce C0 through the factorization: S = chol(C0)
        s = np.linalg.cholesky(prior.C0)
        params = PosteriorParams((*prior.m0, *np.log(np.diag(s)), s[1, 0]))
        assert abs(kl_value(params, prior)) < 1e-12

    def test_mean_shift_closed_form(self):
        # m = (1, 0), m0 = 0, C = C0 = I: KL = 0.5 ||m||^2 = 0.5
        prior = PriorSpec(m0=[0.0, 0.0], C0=np.eye(2))
        params = PosteriorParams((1.0, 0.0, 0.0, 0.0, 0.0))
        assert kl_value(params, prior) == pytest.approx(0.5, abs=1e-14)

    def test_sensitive_to_mean_perturbation(self):
        prior = PriorSpec(m0=[0.0, 0.0], C0=np.eye(2))
        params = PosteriorParams((0.1, 0.0, 0.0, 0.0, 0.0))
        assert kl_value(params, prior) > 1e-4

    def test_nonnegative_for_random_pairs(self):
        rng = np.random.default_rng(6)
        for _ in range(1000):
            assert kl_value(random_params(rng), random_prior(rng)) >= -1e-10

    def test_matches_full_matrix_formula(self):
        """The 2x2 float algebra against the textbook formula on C = S S^T."""
        rng = np.random.default_rng(7)
        for _ in range(50):
            params, prior = random_params(rng), random_prior(rng)
            c, inv0 = params.cov, np.linalg.inv(prior.C0)
            d = params.mean - prior.m0
            expected = 0.5 * (
                np.trace(inv0 @ c) - np.linalg.slogdet(c)[1]
                + np.linalg.slogdet(prior.C0)[1] - 2 + d @ inv0 @ d
            )
            assert kl_value(params, prior) == pytest.approx(expected, rel=1e-12)

    def test_kl_and_grad_value_is_kl_value(self):
        """The fit step's KL and the reported KL are one computation."""
        rng = np.random.default_rng(8)
        for _ in range(50):
            params, prior = random_params(rng), random_prior(rng)
            kl = kl_and_grad(params.zeta, factor(params.zeta), prior)[0]
            assert kl == kl_value(params, prior)

    def test_against_monte_carlo_oracle(self):
        """Closed form agrees with a sampled E_q[log q - log p] within 3 SE."""
        rng = np.random.default_rng(8)
        for _ in range(5):
            params, prior = random_params(rng), random_prior(rng)
            s = cholesky_factor(params)
            c = params.cov
            draws = params.mean + rng.standard_normal((100_000, 2)) @ s.T
            diffs = mvn_log_pdf(draws, params.mean, c) - mvn_log_pdf(draws, prior.m0, prior.C0)
            se = diffs.std(ddof=1) / math.sqrt(draws.shape[0])
            assert abs(kl_value(params, prior) - diffs.mean()) < 3.0 * se

    @pytest.mark.parametrize("correlation", [True, False], ids=["corr", "nocorr"])
    @pytest.mark.parametrize("diagonal_prior", [True, False], ids=["diagonal-prior", "full-prior"])
    def test_gradient_matches_finite_differences(self, correlation, diagonal_prior):
        """kl_and_grad's partials against central differences of kl_value; u
        is not a free parameter without correlation, where zeta has four
        entries and the fit reads four partials."""
        rng = np.random.default_rng(9)
        prior = random_prior(rng)
        if diagonal_prior:
            prior = PriorSpec.diagonal(prior.m0, np.diag(prior.C0))
        n_free = 5 if correlation else 4

        def kl_at(zeta):
            return kl_value(PosteriorParams(zeta), prior)

        for _ in range(20):
            at = rng.uniform(-1.5, 1.5, size=n_free)
            grad = kl_and_grad(at, factor(at), prior)[1 : 1 + n_free]
            fd = central_differences(kl_at, at)
            assert max_rel_error(grad, fd) <= 1e-5, (at, grad, fd)

    def test_dimension_mismatch(self):
        params = PosteriorParams((0.0, 0.0, 0.0, 0.0, 0.0))
        with pytest.raises(ValueError):
            prior = PriorSpec(m0=[0.0], C0=[[1.0]])
            kl_value(params, prior)


class TestExtraction:
    def test_identity_case(self):
        params = PosteriorParams((0.0, 0.0, 0.0, 0.0, 0.0))
        np.testing.assert_array_equal(params.cov, np.eye(2))
        assert params.rho == 0.0

    @pytest.mark.parametrize("k", [0.0, 230.0], ids=["unit", "variance-product-overflows"])
    def test_hand_computed_correlation(self, k):
        """S = e^k [[1, 0], [1, 0.5]]: C = e^2k [[1, 1], [1, 1.25]] and
        rho = 1/sqrt(1.25), also at k = 230, where C00 C11 passes 1e308."""
        params = PosteriorParams((0.0, 0.0, k, k + math.log(0.5), math.exp(k)))
        expected = math.exp(2 * k) * np.array([[1.0, 1.0], [1.0, 1.25]])
        np.testing.assert_allclose(params.cov, expected, rtol=1e-15)
        assert params.rho == pytest.approx(1.0 / math.sqrt(1.25), rel=1e-12)

    @pytest.mark.parametrize(
        "zeta, rho",
        [((0.0, 0.0, -400.0, 0.0, 0.5), 0.4472135954999579),
         ((0.0, 0.0, 0.0, -400.0, 1e-200), 1e-200 / math.hypot(1e-200, math.exp(-400.0))),
         ((0.0, 0.0, 0.0, -800.0), 0.0)],
        ids=["c00-underflows", "c11-underflows", "s11-underflows-without-u"],
    )
    def test_correlation_of_an_underflowing_variance(self, zeta, rho):
        """Where C00 or C11 underflows (C00 = 0 with C01 = 9.6e-175 above),
        the correlation is read from S as S10 / hypot(S10, S11): finite, with
        no warning, and in the JSON."""
        params = PosteriorParams(zeta)
        assert params.rho == rho
        assert params.to_json_dict()["rho"] == rho

    def test_disabled_correlation_rho_is_zero(self):
        params = PosteriorParams((1.0, 2.0, 0.5, -0.5))
        assert params.rho == 0.0

    def test_json_shape(self):
        params = PosteriorParams((1.0, 2.0, 0.0, 0.0, 0.2))
        doc = params.to_json_dict()
        assert set(doc) == {"m", "C", "rho", "correlation_enabled"}
        assert doc["m"] == [1.0, 2.0]
        assert len(doc["C"]) == 2 and len(doc["C"][0]) == 2


class TestRecord:
    """The record is its zeta = (m0, m1, v0, v1[, u]); every other attribute
    is a view of it."""

    @pytest.mark.parametrize(
        "zeta",
        [(2.0, 0.0), (0.1, 0.2, 0.3), (0.1,) * 6, (0.0,) * 9,
         (0.0, 0.0, math.nan, 0.0), (0.0, 0.0, 0.0, 0.0, math.inf)],
        ids=["p1", "length-3", "length-6", "p3", "nan", "inf"],
    )
    def test_refuses_other_lengths_and_non_finite_entries(self, zeta):
        """Four or five finite entries: a length that is neither is refused,
        not read as either, and so is a non-finite entry."""
        with pytest.raises(ValueError, match="4 or 5 entries|non-finite"):
            PosteriorParams(zeta)

    def test_four_entries_read_as_five_with_zero_u(self):
        """A record without correlation and its five-entry twin with u = 0
        agree bit for bit on every view, the KL and the JSON numbers."""
        rng = np.random.default_rng(10)
        prior = random_prior(rng)
        for _ in range(20):
            four = PosteriorParams(tuple(rng.uniform(-2, 2, size=4)))
            five = PosteriorParams((*four.zeta, 0.0))
            assert (four.correlation_enabled, five.correlation_enabled) == (False, True)
            assert four.mean.tobytes() == five.mean.tobytes()
            assert four.s == five.s
            assert four.cov.tobytes() == five.cov.tobytes()
            assert four.rho == five.rho
            assert kl_value(four, prior) == kl_value(five, prior)
            doc4, doc5 = four.to_json_dict(), five.to_json_dict()
            assert [doc4[k] for k in ("m", "C", "rho")] == [doc5[k] for k in ("m", "C", "rho")]

    def test_initial_tuple(self):
        """A fit starts at the prior mean, unit scales and, with correlation, u = 0."""
        prior = PriorSpec.diagonal([0.5, -1.0], [4.0, 9.0])
        for correlation, zeta in ((True, (0.5, -1.0, 0.0, 0.0, 0.0)), (False, (0.5, -1.0, 0.0, 0.0))):
            got = PosteriorParams.initial(prior, correlation).zeta
            assert got == zeta and all(type(x) is float for x in got)

    def test_views_match_the_factor(self):
        """`cov` is S S^T of `cholesky_factor`, `mean` is (m0, m1), bit for bit."""
        params = random_params(np.random.default_rng(13))
        s = cholesky_factor(params)
        assert params.cov.tobytes() == (s @ s.T).tobytes()
        assert params.mean.tolist() == list(params.zeta[:2])


class TestTwoParameters:
    """The posterior and the prior exist only for the two fitted parameters."""

    @pytest.mark.parametrize(
        "m0, c0",
        [([0.0], [[1.0]]), ([0.0, 0.0, 0.0], np.eye(3)), ([0.0, 0.0], np.eye(3))],
        ids=["p1", "p3", "mismatch"],
    )
    def test_prior_rejects_other_shapes(self, m0, c0):
        with pytest.raises(ValueError, match="2x2"):
            PriorSpec(m0=m0, C0=c0)


class TestPriorSpec:
    def test_rejects_asymmetric_covariance(self):
        with pytest.raises(ValueError):
            PriorSpec(m0=[0.0, 0.0], C0=[[1.0, 0.5], [0.1, 1.0]])

    def test_rejects_indefinite_covariance(self):
        with pytest.raises(ValueError):
            PriorSpec(m0=[0.0, 0.0], C0=[[1.0, 2.0], [2.0, 1.0]])

    @pytest.mark.parametrize(
        "variance, message",
        [
            (math.inf, "prior covariance entries must be finite"),
            (math.nan, "prior covariance entries must be finite"),
            (0.0, "prior covariance must be positive definite"),
            # positive, but 1 / 1e-320 overflows: the KL would read an inf C0^-1
            (1e-320, "prior covariance must have a finite inverse"),
        ],
        ids=["inf", "nan", "0", "1e-320"],
    )
    @pytest.mark.parametrize("axis", [0, 1])
    def test_rejects_variances_without_a_finite_inverse(self, variance, message, axis):
        variances = [100.0, 100.0]
        variances[axis] = variance
        with pytest.raises(ValueError, match=message):
            PriorSpec.diagonal([0.0, 0.0], variances)

    @pytest.mark.parametrize("means, variances", [(1.5, 4.0), ([1.5], [4.0])], ids=["scalar", "list"])
    def test_diagonal_one_value_is_shared(self, means, variances):
        prior = PriorSpec.diagonal(means, variances)
        assert prior.m0.tolist() == [1.5, 1.5]
        assert prior.C0.tolist() == [[4.0, 0.0], [0.0, 4.0]]

    def test_diagonal_two_values_are_per_dimension(self):
        prior = PriorSpec.diagonal([0.5, -1.0], [4.0, 9.0])
        assert prior.m0.tolist() == [0.5, -1.0]
        assert prior.C0.tolist() == [[4.0, 0.0], [0.0, 9.0]]

    @pytest.mark.parametrize(
        "means, variances, name",
        [([1.0, 2.0, 3.0], [1.0], "mean"), ([0.0], [1.0, 2.0, 3.0], "variance"),
         ([], [1.0], "mean"), ([0.0], [[1.0, 2.0]], "variance")],
        ids=["three-means", "three-variances", "no-mean", "2d-variances"],
    )
    def test_diagonal_refuses_other_counts(self, means, variances, name):
        with pytest.raises(ValueError, match=f"prior {name} takes one shared or two per-dimension values, got"):
            PriorSpec.diagonal(means, variances)

    def test_accepts_tiny_variances_with_a_finite_inverse(self):
        prior = PriorSpec.diagonal([0.0, 0.0], [1e-300, 1e-300])
        assert np.diag(prior.C0).tolist() == [1e-300, 1e-300]

    def test_log_pdf_matches_oracle(self):
        """The prior density the grid adds, `posterior.mvn_log_pdf` at the
        prior's mean and covariance, against the direct-inverse oracle."""
        rng = np.random.default_rng(11)
        prior = random_prior(rng)
        pts = rng.uniform(-3, 3, size=(40, 2))
        np.testing.assert_allclose(
            posterior.mvn_log_pdf(pts, prior.m0, prior.C0),
            mvn_log_pdf(pts, prior.m0, prior.C0),
            rtol=1e-12,
        )
