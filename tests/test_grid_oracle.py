"""Grid posterior evaluation, its summary moments, and the comparison report."""

import math
import tracemalloc

import numpy as np
import pytest

from svbayes import distributions, grid_oracle
from svbayes.distributions import (
    CHUNK_TERMS,
    Dataset,
    ModelKind,
    log_pdf,
    sample_data,
)
from svbayes.grid_oracle import (
    GridSpec,
    GridUnderflowError,
    compare,
    compare_moments,
    default_mu_range,
    grid_nodes,
    grid_posterior,
    normalize_log_density,
)
from svbayes.posterior import PriorSpec, correlation, mvn_log_pdf

PRIOR = PriorSpec(m0=[0.0, 0.0], C0=np.diag([100.0, 100.0]))
# each model's default mu range: the folded likelihood is even in mu
MODEL_MU_RANGES = pytest.mark.parametrize(
    "model, mu_range",
    [(ModelKind.GAUSSIAN, (-1.0, 3.0)), (ModelKind.FOLDED_NORMAL, (0.0, 3.0))],
    ids=["gaussian", "folded"],
)


class TestGridSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(mu_range=(1.0, 1.0))
        with pytest.raises(ValueError):
            GridSpec(logvar_range=(2.0, -2.0))
        # 1e400 parses as inf: linspace would fill the axis with nan
        with pytest.raises(ValueError):
            GridSpec(mu_range=(-1.0, 1e400))
        with pytest.raises(ValueError):
            GridSpec(logvar_range=(float("nan"), 1.0))
        with pytest.raises(ValueError):
            GridSpec(resolution=1)


class TestNormalization:
    def test_total_mass_is_one(self):
        data = sample_data(ModelKind.GAUSSIAN, 1.0, 4.0, 100, seed=0)
        grid = grid_posterior(ModelKind.GAUSSIAN, data, PRIOR, GridSpec(resolution=101))
        assert grid.mass.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(grid.mass >= 0.0)

    def test_shift_invariance(self):
        """Adding any constant to the log density leaves the mass unchanged."""
        rng = np.random.default_rng(1)
        log_density = rng.uniform(-50, 0, size=(40, 30))
        base = normalize_log_density(log_density)
        for shift in (-700.0, -3.2, 250.0, 690.0):
            shifted = normalize_log_density(log_density + shift)
            np.testing.assert_allclose(shifted, base, atol=1e-12)

    def test_underflow_error(self):
        with pytest.raises(GridUnderflowError):
            normalize_log_density(np.full((4, 4), -np.inf))

    def test_extreme_range_raises_with_hint(self):
        data = sample_data(ModelKind.GAUSSIAN, 0.0, 1.0, 10, seed=2)
        spec = GridSpec(logvar_range=(-800.0, -700.0), resolution=11)
        with pytest.raises(GridUnderflowError, match="widen"):
            grid_posterior(ModelKind.GAUSSIAN, data, PRIOR, spec)


    def test_all_mass_on_one_node_raises_with_hint(self):
        """10,000 points narrow the posterior in mu far below the cell width
        of a 5-node axis; a zero marginal variance is refused, not reported."""
        data = sample_data(ModelKind.GAUSSIAN, 1.0, 4.0, 10_000, seed=0)
        with pytest.raises(GridUnderflowError, match="widen the ranges or increase the resolution"):
            grid_posterior(ModelKind.GAUSSIAN, data, PRIOR, GridSpec(resolution=5))

    @pytest.mark.parametrize(
        "resolution, ranges",
        [
            *(pytest.param(r, {}, id=str(r)) for r in (7, 9, 11, 15, 21, 41)),
            pytest.param(61, {"logvar_range": (1.0, 1.8)}, id="mu-only"),
            pytest.param(101, {"mu_range": (0.5, 1.5)}, id="logvar-only"),
        ],
    )
    def test_under_resolved_marginal_raises(self, resolution, ranges):
        """At 7-41 nodes per axis the 10,000-point posterior is narrower than
        half a cell (max marginal share near 1, variances down to 1e-184).
        At 61 nodes over a narrowed log variance range only mu is that
        narrow, at 101 over a narrowed mu range only the log variance: the
        same count resolves both once the other range is narrowed too.  The
        grid refuses them instead of reporting those moments."""
        data = sample_data(ModelKind.GAUSSIAN, 1.0, 4.0, 10_000, seed=0)
        with pytest.raises(GridUnderflowError, match="half the node spacing.*widen the ranges"):
            grid_posterior(ModelKind.GAUSSIAN, data, PRIOR, GridSpec(resolution=resolution, **ranges))
        if ranges:
            narrowed = GridSpec(mu_range=(0.5, 1.5), logvar_range=(1.0, 1.8), resolution=resolution)
            grid_posterior(ModelKind.GAUSSIAN, data, PRIOR, narrowed)

    def test_default_resolution_resolves_large_data(self):
        data = sample_data(ModelKind.GAUSSIAN, 1.0, 4.0, 10_000, seed=0)
        grid = grid_posterior(ModelKind.GAUSSIAN, data, PRIOR, GridSpec(resolution=201))
        spacing = np.array([grid.mu_axis[1] - grid.mu_axis[0], grid.logvar_axis[1] - grid.logvar_axis[0]])
        assert np.all(np.sqrt(grid.variances) >= 0.5 * spacing)

    @MODEL_MU_RANGES
    def test_default_mu_range_follows_the_model(self, model, mu_range):
        """A grid without a mu range takes the model's default from here."""
        assert default_mu_range(model) == mu_range

    @MODEL_MU_RANGES
    def test_spec_without_mu_range_takes_the_models_default(self, model, mu_range):
        """`GridSpec()` grids a folded likelihood over the half-plane mu >= 0,
        not over the Gaussian range, where the mirror mode would pull the mean
        mu towards 0."""
        data = sample_data(model, 1.0, 4.0, 100, seed=201)
        default = grid_posterior(model, data, PRIOR, GridSpec())
        explicit = grid_posterior(model, data, PRIOR, GridSpec(mu_range=mu_range))
        assert GridSpec().mu_range is None
        assert default.mu_axis[[0, -1]].tolist() == list(mu_range)
        np.testing.assert_array_equal(default.mass, explicit.mass)
        assert (default.means.tolist(), default.rho) == (explicit.means.tolist(), explicit.rho)

    @MODEL_MU_RANGES
    @pytest.mark.parametrize("seed", range(5))
    def test_canonical_figure_grids_pass(self, model, mu_range, seed):
        """The figures' 201 x 201 likelihood grids at N = 100 spread their
        mass: no marginal node carries more than 5% of it."""
        data = sample_data(model, 1.0, 4.0, 100, seed=seed)
        grid = grid_posterior(model, data, None, GridSpec(mu_range=mu_range))
        assert max(grid.mass.sum(axis=1).max(), grid.mass.sum(axis=0).max()) <= 0.05


class TestChunkedEvaluation:
    """The grid sums the likelihood through the chunked evaluator the final
    free energy uses; it must reproduce the direct elementwise density sum
    over an (n_mu, n_logvar, N) array without ever forming that array."""

    @staticmethod
    def direct_mass(model, data, prior, spec):
        mu_axis = np.linspace(*spec.mu_range, spec.resolution)
        logvar_axis = np.linspace(*spec.logvar_range, spec.resolution)
        beta = np.exp(-logvar_axis)[None, :, None]
        y = data.values[None, None, :]
        log_post = log_pdf(model, y, mu_axis[:, None, None], beta).sum(axis=2)
        if prior is not None:
            log_post = log_post + mvn_log_pdf(grid_nodes(mu_axis, logvar_axis), prior.m0, prior.C0)
        return normalize_log_density(log_post)

    @pytest.mark.parametrize("model", list(ModelKind))
    @pytest.mark.parametrize("prior", [PRIOR, None], ids=["prior", "no-prior"])
    @pytest.mark.parametrize(
        "n, chunk_terms, spec",
        [
            # 655 rows per chunk: 2,601 nodes leave a remainder chunk
            (100, CHUNK_TERMS, GridSpec(mu_range=(0.0, 3.0), resolution=51)),
            # more points than chunk terms: one row per chunk.  A smaller chunk
            # keeps N where the direct sum is exact enough for atol 1e-12 on a
            # grid that resolves the posterior.
            (55, 50, GridSpec(mu_range=(0.0, 2.5), logvar_range=(0.5, 2.5), resolution=9)),
        ],
        ids=["remainder-chunk", "row-per-chunk"],
    )
    def test_mass_matches_direct_density_sum(self, model, prior, n, chunk_terms, spec, monkeypatch):
        monkeypatch.setattr(distributions, "CHUNK_TERMS", chunk_terms)
        data = sample_data(model, 1.0, 4.0, n, seed=17)
        grid = grid_posterior(model, data, prior, spec)
        np.testing.assert_allclose(
            grid.mass, self.direct_mass(model, data, prior, spec), rtol=0, atol=1e-12
        )

    def test_folded_support_is_checked_once(self, monkeypatch):
        """The grid checks the data once, whichever namespace it calls through,
        and evaluates the whole data as N of N points."""
        calls, seen = [], []
        check_support, loglik_at = distributions.check_support, distributions.loglik_at

        def counted(*args):
            calls.append(args)
            return check_support(*args)

        def recorded(batch, thetas):
            seen.append(batch)
            return loglik_at(batch, thetas)

        monkeypatch.setattr(distributions, "check_support", counted)
        monkeypatch.setattr(grid_oracle, "check_support", counted, raising=False)
        monkeypatch.setattr(grid_oracle, "loglik_at", recorded)
        data = sample_data(ModelKind.FOLDED_NORMAL, 1.0, 4.0, 40, seed=19)
        grid_posterior(ModelKind.FOLDED_NORMAL, data, PRIOR, GridSpec(resolution=21))
        assert len(calls) == 1 and calls[0][1] is data.values
        assert [(b.kind, b.count, b.n_total) for b in seen] == [(ModelKind.FOLDED_NORMAL, 40, 40)]

    @pytest.mark.parametrize("model", list(ModelKind))
    def test_peak_memory_bounded(self, model):
        """51 x 51 nodes at N = 2,000: the term array alone would take 41 MB.
        The log variance axis is narrowed to resolve the posterior at that N."""
        data = sample_data(model, 1.0, 4.0, 2_000, seed=18)
        spec = GridSpec(mu_range=(0.0, 3.0), logvar_range=(math.log(2.0), math.log(8.0)), resolution=51)
        tracemalloc.start()
        try:
            grid_posterior(model, data, PRIOR, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20, f"peak traced memory {peak / 2**20:.1f} MB"


class TestMoments:
    def test_single_point_map_symmetry(self):
        """One observation at 0 with a symmetric mu axis puts the MAP at 0."""
        data = Dataset(np.array([0.0]))
        spec = GridSpec(mu_range=(-2.0, 2.0), resolution=41)
        grid = grid_posterior(ModelKind.GAUSSIAN, data, None, spec)
        assert grid.map_point[0] == 0.0

    def test_known_variance_conjugate_mean(self):
        """Pinning the variance axis reduces to the normal-known-variance
        conjugate posterior; the grid mean of mu must match its closed form
        to within one cell width.

        The logvar nodes lie within 1e-9 of log(4), which pins the variance
        on a square grid.
        """
        data = sample_data(ModelKind.GAUSSIAN, 1.0, 4.0, 50, seed=3)
        lv = math.log(4.0)
        spec = GridSpec(
            mu_range=(-1.0, 3.0),
            logvar_range=(lv - 1e-9, lv + 1e-9),
            resolution=401,
        )
        grid = grid_posterior(ModelKind.GAUSSIAN, data, PRIOR, spec)
        # conjugate posterior mean with known variance 4 and prior N(0, 100)
        n, ybar = 50, data.values.mean()
        precision = n / 4.0 + 1.0 / 100.0
        conjugate_mean = (n / 4.0) * ybar / precision
        cell = grid.mu_axis[1] - grid.mu_axis[0]
        assert abs(grid.means[0] - conjugate_mean) < cell

    def test_refinement_convergence(self):
        """Doubling the resolution moves the marginal means by less than the
        coarse grid's cell width."""
        data = sample_data(ModelKind.GAUSSIAN, 1.0, 4.0, 100, seed=4)
        coarse = grid_posterior(ModelKind.GAUSSIAN, data, PRIOR, GridSpec(resolution=101))
        fine = grid_posterior(ModelKind.GAUSSIAN, data, PRIOR, GridSpec(resolution=201))
        cell_mu = coarse.mu_axis[1] - coarse.mu_axis[0]
        cell_lv = coarse.logvar_axis[1] - coarse.logvar_axis[0]
        assert abs(coarse.means[0] - fine.means[0]) < cell_mu
        assert abs(coarse.means[1] - fine.means[1]) < cell_lv

    def test_wide_prior_approaches_likelihood_only(self):
        """An essentially flat prior reproduces the prior-free evaluation."""
        data = sample_data(ModelKind.GAUSSIAN, 1.0, 4.0, 100, seed=5)
        flat = PriorSpec(m0=[0.0, 0.0], C0=np.diag([1e12, 1e12]))
        with_prior = grid_posterior(ModelKind.GAUSSIAN, data, flat, GridSpec(resolution=101))
        without = grid_posterior(ModelKind.GAUSSIAN, data, None, GridSpec(resolution=101))
        np.testing.assert_allclose(with_prior.mass, without.mass, atol=1e-9)
        np.testing.assert_allclose(with_prior.means, without.means, atol=1e-9)

    def test_folded_normal_correlation_sign(self):
        """On the canonical mu >= 0 halfplane the folded posterior correlates
        mean and log variance negatively."""
        data = sample_data(ModelKind.FOLDED_NORMAL, 1.0, 4.0, 100, seed=6)
        spec = GridSpec(mu_range=(0.0, 3.0), resolution=101)
        grid = grid_posterior(ModelKind.FOLDED_NORMAL, data, PRIOR, spec)
        assert grid.rho < 0.0


def cov_of(variances, rho):
    """The 2x2 covariance with these variances and correlation."""
    v0, v1 = variances
    c01 = rho * math.sqrt(v0 * v1)
    return [[v0, c01], [c01, v1]]


class TestCompare:
    def test_reflexive_comparison_is_zero(self):
        data = sample_data(ModelKind.GAUSSIAN, 1.0, 4.0, 100, seed=7)
        grid = grid_posterior(ModelKind.GAUSSIAN, data, PRIOR, GridSpec(resolution=51))
        cov = cov_of(grid.variances, grid.rho)
        report = compare_moments(
            grid.means, grid.variances, correlation(np.array(cov)), grid.means, cov
        )
        np.testing.assert_array_equal(report.mean_abs_diff, np.zeros(2))
        np.testing.assert_array_equal(report.variance_ratio, np.ones(2))
        assert report.rho_abs_diff == 0.0
        assert report.correlation_signs_agree

    def test_correlation_signs_below_the_floor_agree(self):
        """A correlation within RHO_SIGN_FLOOR of zero agrees with either
        sign (the README example's pair); two clear opposite signs do not."""
        def agree(grid_rho, fit_rho):
            report = compare_moments(
                [0.0, 0.0], [1.0, 1.0], grid_rho, [0.0, 0.0], cov_of([1.0, 1.0], fit_rho)
            )
            assert report.rho_fit == fit_rho
            return report.correlation_signs_agree

        assert agree(-0.0002, 0.0322) and agree(0.0322, -0.0002)
        assert not agree(-0.78, 0.30) and not agree(0.30, -0.78)
        assert agree(-0.78, -0.30)

    def test_parameter_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="parameter count mismatch"):
            compare_moments([0.0, 0.0], [1.0, 1.0], 0.0, [0.0], np.eye(2))
        with pytest.raises(ValueError, match="parameter count mismatch"):
            compare_moments([0.0], [1.0], 0.0, [0.0, 0.0], np.eye(2))

    @pytest.mark.parametrize(
        "cov", [[[1.0, 0.0]], [[1.0]], np.eye(3), [1.0, 1.0]], ids=["1x2", "1x1", "3x3", "flat"]
    )
    def test_covariance_not_2x2_rejected(self, cov):
        with pytest.raises(ValueError, match="the fit's C must be 2x2"):
            compare_moments([0.0, 0.0], [1.0, 1.0], 0.0, [0.0, 0.0], cov)

    @pytest.mark.parametrize(
        "variances", [(0.0, 1.0), (1.0, -1.0), (-1.0, -4.0)], ids=["zero", "negative", "both-negative"]
    )
    def test_non_positive_fit_variance_rejected(self, variances):
        """The variance check comes before the correlation: one negative
        variance is refused by name, not by a math domain error."""
        cov = [[variances[0], 0.0], [0.0, variances[1]]]
        with pytest.raises(ValueError, match="variances positive"):
            compare_moments([0.0, 0.0], [1.0, 1.0], 0.0, [0.0, 0.0], cov)

    @pytest.mark.parametrize("rho", [5.0, -3.0, 1.0 + 1e-9, -1.0 - 1e-9])
    @pytest.mark.parametrize("side", ["grid", "fit"])
    def test_correlation_outside_unit_interval_rejected(self, rho, side):
        """The grid's rho is given; the fit's is read from a C with unit
        variances and `rho` off the diagonal."""
        rhos = {"grid": 0.1, "fit": 0.1, side: rho}
        with pytest.raises(ValueError, match=r"correlations must be in \[-1, 1\]"):
            compare_moments(
                [0.0, 0.0], [1.0, 1.0], rhos["grid"], [0.0, 0.0], cov_of([1.0, 1.0], rhos["fit"])
            )

    def test_correlation_rounded_past_one_is_accepted(self):
        """A computed correlation may pass +-1 by a few ulps."""
        edge = 1.0 + 4 * np.finfo(float).eps
        report = compare_moments([0.0, 0.0], [1.0, 1.0], edge, [0.0, 0.0], cov_of([1.0, 1.0], -edge))
        assert report.rho_abs_diff == 2 * edge

    def test_compare_against_fitted_posterior(self):
        from svbayes.engine import TrainConfig, fit

        data = sample_data(ModelKind.GAUSSIAN, 1.0, 4.0, 100, seed=8)
        res = fit(ModelKind.GAUSSIAN, data, PRIOR, TrainConfig(seed=8, final_fe_samples=2))
        grid = grid_posterior(ModelKind.GAUSSIAN, data, PRIOR, GridSpec())
        report = compare(grid, res.posterior)
        assert np.all(report.mean_abs_diff < 0.2)
        assert report.rho_fit == res.posterior.rho
        np.testing.assert_array_equal(report.variance_ratio, np.diag(res.posterior.cov) / grid.variances)
        assert "parameter" in report.table()

    def test_summary_dict_shape(self):
        data = Dataset(np.array([1.0, 2.0, 0.5]))
        grid = grid_posterior(ModelKind.GAUSSIAN, data, PRIOR, GridSpec(resolution=21))
        doc = grid.summary_dict()
        assert set(doc) == {"means", "variances", "map", "rho"}
        assert len(doc["means"]) == 2
