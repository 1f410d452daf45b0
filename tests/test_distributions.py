"""Densities, batch log-likelihoods, samplers, and the seeded generator."""

import math
import threading
import tracemalloc

import numpy as np
import pytest

from numdiff import central_differences, max_rel_error
from svbayes import distributions
from svbayes.distributions import (
    CHUNK_TERMS,
    LOG_TWO_PI,
    Dataset,
    DomainError,
    ModelKind,
    check_support,
    folded_normal_log_pdf,
    gaussian_log_pdf,
    log_pdf,
    make_batches,
    pdf,
    sample_data,
)
from svbayes.engine import TrainConfig, fit
from svbayes.grid_oracle import GridSpec, grid_posterior
from svbayes.posterior import PriorSpec
from svbayes.rng import Rng


def whole(kind, data):
    """Raw values made into the whole data: N of N points."""
    (batch,) = make_batches(kind, data, len(data))
    return batch


def loglik_terms(kind, data, mu, theta2, n_total, partials=True):
    """The likelihood core on raw batch values standing for all n_total
    points, summarized here."""
    batch = distributions._summarize(kind, data, n_total, n_total)
    return distributions.loglik_terms(batch, mu, theta2, partials)


def loglik_at(kind, data, thetas):
    """The many-row evaluator on raw values, summarized here as the whole data."""
    return distributions.loglik_at(whole(kind, data), thetas)


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


def loglik_value(kind, theta, data, n_total):
    """The N/M-rescaled batch log-likelihood at one (mu, log variance) point."""
    mu, theta2 = np.array([theta[0]]), np.array([theta[1]])
    return loglik_terms(kind, data, mu, theta2, n_total, partials=False)[0][0]


def assert_partials_match_central_differences(kind, data, at):
    """loglik_terms' two partials at `at` against central differences, rtol 1e-5."""
    mu, theta2 = np.array([at[0]]), np.array([at[1]])
    _, d_mu, d_theta2 = loglik_terms(kind, data, mu, theta2, len(data))
    fd = central_differences(lambda x: loglik_value(kind, x, data, len(data)), at)
    assert max_rel_error([d_mu[0], d_theta2[0]], fd) <= 1e-5, (at, fd)


class TestParameterizations:
    @pytest.mark.parametrize("variance", [0.0, -1.0, math.inf, math.nan])
    def test_generating_variance_must_be_finite_and_positive(self, variance):
        """`sample_data` and `pdf` share one check, whose message names the variance."""
        message = f"variance must be finite and positive, got {variance}"
        with pytest.raises(ValueError, match=message):
            sample_data(ModelKind.GAUSSIAN, 0.0, variance, 10, seed=1)
        with pytest.raises(ValueError, match=message):
            pdf(ModelKind.GAUSSIAN, 1.0, 0.0, variance)

    @pytest.mark.parametrize("mu", [math.inf, -math.inf, math.nan])
    def test_generating_mean_must_be_finite(self, mu):
        """`sample_data` and `pdf` refuse a non-finite mean with a message
        that names it (not as data or densities that are non-finite)."""
        message = f"mean mu must be finite, got {mu}"
        with pytest.raises(ValueError, match=message):
            sample_data(ModelKind.GAUSSIAN, mu, 4.0, 10, seed=1)
        for kind in ModelKind:
            with pytest.raises(ValueError, match=message):
                pdf(kind, [0.0, 1.0], mu, 4.0)

    def test_dataset_validation(self):
        with pytest.raises(ValueError):
            Dataset(np.array([]))
        with pytest.raises(ValueError):
            Dataset(np.array([[1.0, 2.0]]))


class TestGaussianLoglik:
    def test_single_point_closed_form(self):
        # theta = (1, log 4), data {1.0}: quadratic term vanishes, leaving
        # 0.5 * log(0.25 / 2pi); reference computed with 40-digit arithmetic
        value = loglik_value(
            ModelKind.GAUSSIAN, (1.0, math.log(4.0)), [1.0], n_total=1
        )
        assert value == pytest.approx(-1.6120857137646180512, rel=1e-14)

    def test_matches_sum_of_log_pdf(self):
        rng = np.random.default_rng(5)
        data = rng.normal(1.0, 2.0, size=40)
        theta = (0.7, 0.9)
        value = loglik_value(ModelKind.GAUSSIAN, theta, data, n_total=40)
        direct = gaussian_log_pdf(data, theta[0], math.exp(-theta[1])).sum()
        assert value == pytest.approx(direct, rel=1e-10)

    def test_equal_partition_identity(self):
        """Mean of scaled batch values over a disjoint equal partition equals
        the full-data log-likelihood."""
        rng = np.random.default_rng(6)
        data = rng.normal(0.5, 1.5, size=60)
        theta = (0.2, 0.4)
        full = loglik_value(ModelKind.GAUSSIAN, theta, data, n_total=60)
        for bs in (5, 10, 20, 60):
            vals = [
                loglik_value(ModelKind.GAUSSIAN, theta, data[i : i + bs], 60)
                for i in range(0, 60, bs)
            ]
            assert np.mean(vals) == pytest.approx(full, rel=1e-10)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        data = rng.normal(1.0, 2.0, size=25)
        for _ in range(10):
            at = [rng.uniform(-2, 2), rng.uniform(-1, 2)]
            assert_partials_match_central_differences(ModelKind.GAUSSIAN, data, at)

    @pytest.mark.parametrize(
        "offset, mu_shift, theta2",
        [(1e4, 1.0, 0.5), (0.0, 0.7, -4.0), (0.0, 0.7, 5.0), (0.0, -50.0, 0.3)],
        ids=["data-far-from-zero", "high-precision", "low-precision", "mu-far-from-data"],
    )
    def test_partials_in_each_regime(self, offset, mu_shift, theta2):
        """The centred sums keep both partials accurate away from the unit
        scale; mu sits `mu_shift` from the batch mean."""
        data = np.random.default_rng(13).normal(offset, 2.0, size=25)
        at = [data.mean() + mu_shift, theta2]
        assert_partials_match_central_differences(ModelKind.GAUSSIAN, data, at)


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
        value = loglik_value(ModelKind.FOLDED_NORMAL, theta, data, n_total=30)
        direct = folded_normal_log_pdf(data, theta[0], math.exp(-theta[1])).sum()
        assert value == pytest.approx(direct, rel=1e-10)

    def test_equal_partition_identity(self):
        data = np.abs(np.random.default_rng(10).normal(1.0, 2.0, size=40))
        theta = (-0.4, 0.6)
        full = loglik_value(ModelKind.FOLDED_NORMAL, theta, data, n_total=40)
        vals = [
            loglik_value(ModelKind.FOLDED_NORMAL, theta, data[i : i + 8], 40)
            for i in range(0, 40, 8)
        ]
        assert np.mean(vals) == pytest.approx(full, rel=1e-10)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(12)
        data = np.abs(rng.normal(1.0, 2.0, size=20))
        for _ in range(10):
            at = [rng.uniform(-2, 2), rng.uniform(-1, 2)]
            assert_partials_match_central_differences(ModelKind.FOLDED_NORMAL, data, at)

    def test_nonpositive_data_rejected(self):
        with pytest.raises(DomainError):
            check_support(ModelKind.FOLDED_NORMAL, np.array([1.0, -0.5]))
        with pytest.raises(DomainError):
            check_support(ModelKind.FOLDED_NORMAL, np.array([0.0]))
        check_support(ModelKind.GAUSSIAN, np.array([0.0, -1.0]))

    @pytest.mark.parametrize("entry", ["fit", "grid_posterior"])
    def test_every_entry_point_rejects_nonpositive_data(self, entry):
        """Zero, negative zero and a tiny negative value are outside y > 0."""
        prior = PriorSpec.diagonal([0.0, 0.0], [100.0, 100.0])
        run = {
            "fit": lambda y: fit(ModelKind.FOLDED_NORMAL, Dataset(y), prior, TrainConfig(epochs=1)),
            "grid_posterior": lambda y: grid_posterior(
                ModelKind.FOLDED_NORMAL, Dataset(y), prior, GridSpec(resolution=5)
            ),
        }[entry]
        for y in ([0.0], [-0.0], [1.0, -0.5], [2.0, -1e-300]):
            with pytest.raises(DomainError):
                run(np.array(y))


class TestLoglikTerms:
    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_rows_match_sum_of_log_pdf(self, kind):
        """Each theta row's full-data value is the density's log sum there,
        with or without the partials."""
        rng = np.random.default_rng(13)
        data = np.abs(rng.normal(1.0, 2.0, size=30))
        thetas = rng.uniform([-2.0, -1.0], [2.0, 2.0], size=(6, 2))
        values, d_mu, d_theta2 = loglik_terms(kind, data, thetas[:, 0], thetas[:, 1], 30)
        direct = [log_pdf(kind, data, mu, math.exp(-t2)).sum() for mu, t2 in thetas]
        np.testing.assert_allclose(values, direct, rtol=1e-12)
        assert d_mu.shape == d_theta2.shape == (6,)
        bare = loglik_terms(kind, data, thetas[:, 0], thetas[:, 1], 30, partials=False)
        np.testing.assert_array_equal(bare[0], values)
        assert bare[1:] == (None, None)

    @pytest.mark.parametrize("kind", list(ModelKind))
    @pytest.mark.parametrize(
        "n, rows", [(100, 400), (CHUNK_TERMS + 3, 3)], ids=["remainder-chunk", "row-per-chunk"]
    )
    def test_loglik_at_matches_sum_of_log_pdf(self, kind, n, rows):
        """The chunked full-data evaluator equals the density's log sum at
        every row, whether the rows split into uneven chunks or one each."""
        rng = np.random.default_rng(14)
        data = np.abs(rng.normal(1.0, 2.0, size=n))
        thetas = rng.uniform([-2.0, -1.0], [2.0, 2.0], size=(rows, 2))
        direct = [log_pdf(kind, data, mu, math.exp(-t2)).sum() for mu, t2 in thetas]
        np.testing.assert_allclose(loglik_at(kind, data, thetas), direct, rtol=1e-12)

    @staticmethod
    def run_threads(monkeypatch, thetas):
        """Record, by first row, each likelihood call's row count and thread."""
        calls = {}
        inner = distributions.loglik_terms

        def recorded(batch, mu, theta2, *args):
            first_row = int(np.flatnonzero(thetas[:, 0] == mu[0])[0])
            calls[first_row] = (len(mu), threading.get_ident())
            return inner(batch, mu, theta2, *args)

        monkeypatch.setattr(distributions, "loglik_terms", recorded)
        return calls

    @pytest.mark.parametrize("cpus", [2, 3])
    @pytest.mark.parametrize(
        "n, chunk_terms, rows, chunks",
        # 655 rows per chunk, the last one short; more points than chunk terms: a row each
        [(100, CHUNK_TERMS, 6 * 655 + 17, 7), (55, 50, 9, 9)],
        ids=["remainder-chunk", "row-per-chunk"],
    )
    def test_spread_runs_equal_one_call_bitwise(
        self, cpus, n, chunk_terms, rows, chunks, monkeypatch
    ):
        """One CPU makes one folded call for every row.  Several CPUs make one
        call per run of whole chunks, at least two each, the runs tiling the
        rows in order; the calling thread makes the first (chunks // cpus
        chunks) and no other.  Every row has the bits of the one-CPU call and
        of the one-point float path."""
        monkeypatch.setattr(distributions, "CHUNK_TERMS", chunk_terms)
        per_chunk = max(1, chunk_terms // n)
        rng = np.random.default_rng(16)
        data = np.abs(rng.normal(1.0, 2.0, size=n))
        thetas = rng.uniform([-2.0, -1.0], [2.0, 2.0], size=(rows, 2))
        caller = threading.get_ident()
        calls = self.run_threads(monkeypatch, thetas)
        monkeypatch.setattr(distributions, "_usable_cpus", lambda: 1)
        serial = loglik_at(ModelKind.FOLDED_NORMAL, data, thetas)
        assert calls == {0: (rows, caller)}
        calls.clear()
        monkeypatch.setattr(distributions, "_usable_cpus", lambda: cpus)
        spread = loglik_at(ModelKind.FOLDED_NORMAL, data, thetas)
        firsts = sorted(calls)
        sizes = [calls[row][0] for row in firsts]
        owners = [calls[row][1] for row in firsts]
        assert len(firsts) == cpus and firsts == list(np.cumsum([0] + sizes[:-1]))
        assert sum(sizes) == rows and all(s % per_chunk == 0 and s >= 2 * per_chunk for s in sizes[:-1])
        assert sizes[0] == per_chunk * (chunks // cpus) and owners[0] == caller
        assert caller not in owners[1:] and 1 < len(set(owners)) <= cpus
        assert spread.tobytes() == serial.tobytes()
        monkeypatch.undo()
        batch = whole(ModelKind.FOLDED_NORMAL, data)
        for (mu, theta2), value in zip(thetas.tolist(), spread):
            point = distributions.loglik_terms(batch, mu, theta2, False)[0]
            assert np.float64(point).tobytes() == value.tobytes(), (mu, theta2)

    def test_under_two_chunks_per_cpu_is_one_call_on_the_caller(self, monkeypatch):
        """Three folded chunks (two CPUs would get less than two each), and
        the Gaussian whatever its rows, make one call in the calling thread."""
        monkeypatch.setattr(distributions, "_usable_cpus", lambda: 4)
        data = np.abs(np.random.default_rng(17).normal(1.0, 2.0, size=CHUNK_TERMS // 2))
        thetas = np.column_stack((np.linspace(0.0, 1.0, 5), np.zeros(5)))  # 3 chunks
        for kind in ModelKind:
            calls = self.run_threads(monkeypatch, thetas)
            loglik_at(kind, data, thetas)
            assert calls == {0: (5, threading.get_ident())}

    def test_folded_loglik_at_memory_is_one_chunk_buffer_per_run(self, monkeypatch):
        """1,000 rows at N = 10,000 (an 80 MB (L, N) array) on two CPUs: one
        call per run, and a traced peak within twice a 512 KB chunk buffer
        per run plus O(rows)."""
        monkeypatch.setattr(distributions, "_usable_cpus", lambda: 2)
        data = np.abs(1.0 + 2.0 * np.random.default_rng(33).standard_normal(10_000))
        thetas = np.random.default_rng(34).uniform([-2.0, -1.0], [2.0, 2.0], size=(1_000, 2))
        calls = self.run_threads(monkeypatch, thetas)
        loglik_at(ModelKind.FOLDED_NORMAL, data, thetas)  # the first spread call imports the pool
        calls.clear()
        tracemalloc.start()
        try:
            values = loglik_at(ModelKind.FOLDED_NORMAL, data, thetas)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(calls) == 2
        assert peak < 2 * 2 * CHUNK_TERMS * 8 + 32 * thetas.nbytes, peak
        for i in (0, 499, 500, 999):
            m, t = thetas[i]
            direct = log_pdf(ModelKind.FOLDED_NORMAL, data, m, math.exp(-t)).sum()
            assert values[i] == pytest.approx(direct, rel=1e-12)

    def test_value_only_rows_hold_few_row_arrays(self):
        """One value-only call at 20,000 rows: the chunk loop holds its
        512 KB buffer and three row arrays, the tail after it eight row
        arrays (the values among them) and no buffer, so the traced peak
        stays below the buffer plus six row arrays; a tail that still held
        the buffer would not."""
        data = np.abs(1.0 + 2.0 * np.random.default_rng(35).standard_normal(1_000))
        mu, theta2 = np.random.default_rng(36).uniform([-2.0, -1.0], [2.0, 2.0], (20_000, 2)).T
        batch = whole(ModelKind.FOLDED_NORMAL, data)
        tracemalloc.start()
        try:
            values = distributions.loglik_terms(batch, mu, theta2, False)[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < CHUNK_TERMS * 8 + 6 * values.nbytes, peak

    @pytest.mark.parametrize(
        "n, chunk_terms, rows, chunk",
        # 7 rows a chunk, the last of 3 short; more points than chunk terms: a row each
        [(10, 70, 24, 70), (55, 50, 9, 55)],
        ids=["remainder-chunk", "row-per-chunk"],
    )
    def test_rows_with_partials_over_chunks(self, n, chunk_terms, rows, chunk, monkeypatch):
        """Rows with partials run chunk by chunk in one aligned buffer (one
        chunk takes a plain array).  The values keep the bits of the one-chunk
        call and of the value-only call; the partials, a matrix-vector product
        per chunk, match the one-chunk call and the one-point float path to
        1e-12 of the largest partial."""
        kind = ModelKind.FOLDED_NORMAL
        rng = np.random.default_rng(37)
        data = np.abs(rng.normal(1.0, 2.0, size=n))
        mu, theta2 = rng.uniform([-2.0, -1.0], [2.0, 2.0], size=(rows, 2)).T
        batch = whole(kind, data)
        sizes, scratch = [], distributions._scratch
        monkeypatch.setattr(distributions, "_scratch", lambda k: sizes.append(k) or scratch(k))
        one_call = distributions.loglik_terms(batch, mu, theta2)
        assert sizes == []
        monkeypatch.setattr(distributions, "CHUNK_TERMS", chunk_terms)
        value, *partials = distributions.loglik_terms(batch, mu, theta2)
        bare = distributions.loglik_terms(batch, mu, theta2, False)[0]
        assert sizes == [chunk, chunk]
        assert value.tobytes() == one_call[0].tobytes() == bare.tobytes()
        at = zip(mu.tolist(), theta2.tolist())
        points = zip(*(distributions.loglik_terms(batch, m, t)[1:] for m, t in at))
        for got, one_chunk, point in zip(partials, one_call[1:], points):
            atol = 1e-12 * np.abs(one_chunk).max()
            np.testing.assert_allclose(got, one_chunk, rtol=0, atol=atol)
            np.testing.assert_allclose(got, point, rtol=0, atol=atol)

    def test_rows_with_partials_hold_few_chunk_buffers(self):
        """One call with partials at 100 rows and N = 20,000 (a 16 MB (L, N)
        array, three of them at once if built whole): the chunk loop holds its
        buffer and two chunk temporaries of the tanh product, so the traced
        peak stays below four chunk buffers plus a few row arrays."""
        data = np.abs(1.0 + 2.0 * np.random.default_rng(38).standard_normal(20_000))
        mu, theta2 = np.random.default_rng(39).uniform([-2.0, -1.0], [2.0, 2.0], (100, 2)).T
        batch = whole(ModelKind.FOLDED_NORMAL, data)
        tracemalloc.start()
        try:
            value = distributions.loglik_terms(batch, mu, theta2)[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * CHUNK_TERMS * 8 + 16 * value.nbytes, peak

    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_no_rows_give_no_values(self, kind):
        assert loglik_at(kind, [1.0, 2.0], np.zeros((0, 2))).shape == (0,)

    @pytest.mark.parametrize("size", [1, 7, 8, 9, 655, CHUNK_TERMS, CHUNK_TERMS + 3])
    def test_scratch_buffer_is_64_byte_aligned(self, size):
        """The chunk buffer starts on a 64-byte boundary whatever the size,
        over allocations that leave the heap at different offsets."""
        held = []
        for pad in range(9):
            held.append(np.empty(pad))
            buf = distributions._scratch(size)
            assert buf.dtype == np.float64 and buf.shape == (size,)
            assert buf.flags.c_contiguous and buf.flags.writeable
            assert buf.ctypes.data % 64 == 0

    @pytest.mark.parametrize("run", ["first", "last"])
    def test_spread_chunks_keep_the_callers_error_state(self, run, monkeypatch):
        """A precision of e^800 overflows.  In the last run (a worker thread)
        or the first (the calling thread) it raises under the caller's
        over="raise", after every thread has ended, and passes silently
        under the caller's ignore."""
        monkeypatch.setattr(distributions, "_usable_cpus", lambda: 2)
        data = np.abs(np.random.default_rng(18).normal(1.0, 2.0, size=100))
        thetas = np.column_stack((np.full(4 * 655, 1.0), np.zeros(4 * 655)))
        bad = 0 if run == "first" else -1
        thetas[bad, 1] = -800.0
        alive = threading.active_count()
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            loglik_at(ModelKind.FOLDED_NORMAL, data, thetas)
        assert threading.active_count() == alive
        with np.errstate(over="ignore", invalid="ignore"):
            values = loglik_at(ModelKind.FOLDED_NORMAL, data, thetas)
        assert np.isnan(values[bad]) and np.all(np.isfinite(np.delete(values, bad)))
        assert threading.active_count() == alive

    @pytest.mark.parametrize("kind", list(ModelKind))
    @pytest.mark.parametrize("partials", [True, False], ids=["partials", "value-only"])
    def test_float_point_equals_one_row_bitwise(self, kind, partials):
        """One (mu, theta2) point given as floats (the one-sample fit step)
        gives the bits of the same point as a one-row array, on batches of
        1, 10 and 100 points with data near 1, near 1e4 and down to 1e-300,
        at mu = 0, -0.0, negative and far from the data, and at precisions
        from e^-5 to e^30 (where the folded reflection term underflows).
        The floats' results are Python floats, not numpy scalars."""
        rng = np.random.default_rng(15)
        base = np.abs(rng.normal(1.0, 2.0, size=100))
        tiny = np.concatenate(([1e-300, 5e-8], base[:8]))
        batches = [base, base[:10], base[-1:], 1e4 + base[:10], tiny]
        points = [(0.0, 0.3), (-0.0, 0.3), (-1.7, -0.5), (2.3, 1.2), (50.0, 0.0),
                  (-50.0, 2.0), (1e4, -4.0), (0.4, 5.0), (3.0, -30.0), (-3.0, -30.0)]
        for data in batches:
            batch = distributions._summarize(kind, data, 100, 100)
            for mu, theta2 in points:
                at_floats = distributions.loglik_terms(batch, mu, theta2, partials)
                at_row = distributions.loglik_terms(
                    batch, np.array([mu]), np.array([theta2]), partials
                )
                for one, row in zip(at_floats, at_row):
                    if row is None:
                        assert one is None
                        continue
                    assert type(one) is float and row.shape == (1,)
                    assert np.float64(one).tobytes() == row[0].tobytes(), (mu, theta2, one, row)


class TestGaussianSufficientStatistics:
    """The Gaussian likelihood runs on (M, mean, centred sum of squares)
    alone; it must agree with the per-point density where an uncentred
    sum of y^2 would cancel."""

    GAUSSIAN = ModelKind.GAUSSIAN

    @staticmethod
    def reference(batch, mu, theta2, n_total):
        """From the per-point log density, rescaled by N/M: the value, its mu
        central difference (exact for a quadratic, up to rounding), the
        per-point sum of d/dtheta2 and its theta2 central difference."""
        scale = n_total / len(batch)

        def value(m, t):
            return scale * float(log_pdf(ModelKind.GAUSSIAN, batch, m, math.exp(-t)).sum())

        beta = math.exp(-theta2)
        d_theta2 = scale * float(np.sum(-0.5 + 0.5 * beta * (batch - mu) ** 2))
        fd_mu = (value(mu + 0.5, theta2) - value(mu - 0.5, theta2)) / 1.0
        fd_theta2 = (value(mu, theta2 + 1e-5) - value(mu, theta2 - 1e-5)) / 2e-5
        return value(mu, theta2), fd_mu, d_theta2, fd_theta2

    @pytest.mark.parametrize("n_total, size", [(100, 100), (100, 10), (15, 1)],
                             ids=["full", "batch10", "one-point-remainder"])
    def test_far_from_zero_matches_per_point_sums(self, n_total, size):
        """Data centred at 1e6 with sd 1: value and partials at rtol 1e-12
        (the theta2 central difference, which has truncation error, at 1e-7)."""
        data = 1e6 + np.random.default_rng(31).standard_normal(n_total)
        batch = data[-size:] if size == 1 else data[:size]
        ybar = float(np.mean(batch))
        mu = ybar + np.array([-2.5, -1.0, -0.3, 0.4, 1.7])
        theta2 = np.array([-1.0, 0.3, 0.0, 0.8, -0.4])
        values, d_mu, d_theta2 = loglik_terms(self.GAUSSIAN, batch, mu, theta2, n_total)
        bare = loglik_terms(self.GAUSSIAN, batch, mu, theta2, n_total, partials=False)
        np.testing.assert_array_equal(bare[0], values)
        for i, (m, t) in enumerate(zip(mu.tolist(), theta2.tolist())):
            value, fd_mu, ref_theta2, fd_theta2 = self.reference(batch, m, t, n_total)
            assert values[i] == pytest.approx(value, rel=1e-12, abs=0.0)
            assert d_mu[i] == pytest.approx(fd_mu, rel=1e-12, abs=0.0)
            assert d_theta2[i] == pytest.approx(ref_theta2, rel=1e-12, abs=0.0)
            assert d_theta2[i] == pytest.approx(fd_theta2, rel=1e-7)

    def test_one_point_batch_has_zero_spread(self):
        stats = whole(self.GAUSSIAN, np.array([1e6 + 0.37]))
        assert len(stats.y) == 1 and stats.sum_y == 1e6 + 0.37
        assert stats.ss_c == 0.0 and stats.mean_lo == 0.0

    def test_summary_carries_its_model_and_both_counts(self):
        """A batch of 3 standing for 6 of 9 points: W/M = 2 scales its data
        terms, N its normalizer, whichever model it is read under."""
        y = np.array([0.5, 1.25, 3.0])
        for kind in ModelKind:
            batch = distributions._summarize(kind, y, 6, 9)
            assert (batch.kind, batch.count, batch.n_total) == (kind, 6, 9)
            normalizer = -4.5 * (0.3 + LOG_TWO_PI)
            value = distributions.loglik_terms(batch, 0.7, 0.3, False)[0]
            data = log_pdf(kind, y, 0.7, math.exp(-0.3)).sum() + 1.5 * (0.3 + LOG_TWO_PI)
            assert value == pytest.approx(normalizer + 2.0 * data, rel=1e-12)

    def test_summary_holds_only_the_sums_its_model_reads(self):
        y = np.array([0.5, 1.25, 3.0])
        gaussian = whole(self.GAUSSIAN, y)
        assert gaussian.yy is None
        assert gaussian.ss_c == pytest.approx(float(np.sum((y - y.mean()) ** 2)), rel=1e-15)
        folded = whole(ModelKind.FOLDED_NORMAL, y)
        assert folded.mean_lo is None and folded.ss_c is None
        assert folded.sum_y == float(np.sum(y)) and folded.yy == float(y @ y)

    def test_loglik_at_is_one_call_without_a_rows_by_n_array(self, monkeypatch):
        """201^2 nodes at N = 100,000: one likelihood call, and a traced peak
        far below one chunk of an (L, N) evaluation per row block."""
        data = 1.0 + 2.0 * np.random.default_rng(32).standard_normal(100_000)
        mu, lv = np.meshgrid(np.linspace(-1, 3, 201), np.linspace(-0.7, 2.8, 201), indexing="ij")
        thetas = np.column_stack((mu.ravel(), lv.ravel()))
        calls = []
        inner = distributions.loglik_terms

        def counted(*args, **kwargs):
            calls.append(len(args[1]))
            return inner(*args, **kwargs)

        monkeypatch.setattr(distributions, "loglik_terms", counted)
        tracemalloc.start()
        try:
            values = loglik_at(self.GAUSSIAN, data, thetas)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert calls == [len(thetas)]
        # the result and a handful of (L,) temporaries, 323 KB each
        assert peak < 4 * 2**20, peak
        for i in (0, 12_345, len(thetas) - 1):
            m, t = thetas[i]
            direct = log_pdf(self.GAUSSIAN, data, m, math.exp(-t)).sum()
            assert values[i] == pytest.approx(direct, rel=1e-12)


class TestFoldedClosedForm:
    """The folded value takes sum_m |z_m| = beta |mu| sum_m y_m in closed form
    (y > 0) and evaluates only log1p(e^{-2|z|}) per point; at the edges of
    that form it must still equal the density's log sum."""

    FOLDED = ModelKind.FOLDED_NORMAL

    def evaluate(self, data, mu, theta2):
        """Values and partials at the (mu, theta2) rows, checked against the
        density's log sum on every path that computes the value."""
        mu, theta2 = np.asarray(mu, dtype=float), np.asarray(theta2, dtype=float)
        n = len(data)
        direct = [log_pdf(self.FOLDED, data, m, math.exp(-t)).sum() for m, t in zip(mu, theta2)]
        values, d_mu, d_theta2 = loglik_terms(self.FOLDED, data, mu, theta2, n)
        np.testing.assert_allclose(values, direct, rtol=1e-12)
        bare = loglik_terms(self.FOLDED, data, mu, theta2, n, partials=False)[0]
        np.testing.assert_array_equal(bare, values)
        chunked = loglik_at(self.FOLDED, data, np.column_stack((mu, theta2)))
        np.testing.assert_allclose(chunked, direct, rtol=1e-12)
        assert np.all(np.isfinite(d_mu)) and np.all(np.isfinite(d_theta2))
        return values, d_mu, d_theta2

    @staticmethod
    def data(n=40, seed=21):
        return np.abs(np.random.default_rng(seed).normal(1.0, 2.0, size=n))

    def test_negative_mu(self):
        """The value is even and d/dmu odd in mu, both exactly."""
        data = self.data()
        mu = np.array([-2.5, -0.7, -1e-3, -1e-9])
        theta2 = np.array([0.5, 1.0, -1.0, 2.0])
        values, d_mu, d_theta2 = self.evaluate(data, mu, theta2)
        mirrored = loglik_terms(self.FOLDED, data, -mu, theta2, len(data))
        np.testing.assert_array_equal(mirrored[0], values)
        np.testing.assert_array_equal(mirrored[1], -d_mu)
        np.testing.assert_array_equal(mirrored[2], d_theta2)

    @pytest.mark.parametrize("mu", [-0.7, -1e-3, 0.0])
    def test_partials_match_central_differences(self, mu):
        data, t2, h = self.data(), 0.8, 1e-6
        n = len(data)

        def value(m, t):
            return loglik_terms(self.FOLDED, data, np.array([m]), np.array([t]), n, False)[0][0]

        _, d_mu, d_theta2 = loglik_terms(self.FOLDED, data, np.array([mu]), np.array([t2]), n)
        fd_mu = (value(mu + h, t2) - value(mu - h, t2)) / (2 * h)
        fd_t2 = (value(mu, t2 + h) - value(mu, t2 - h)) / (2 * h)
        assert d_mu[0] == pytest.approx(fd_mu, rel=1e-6, abs=1e-6)
        assert d_theta2[0] == pytest.approx(fd_t2, rel=1e-6)

    def test_zero_mu_log_term_is_n_log_two(self):
        """At mu = 0 every log1p(e^{-2|z|}) term is log 2 and d/dmu is 0."""
        data = self.data()
        n = len(data)
        theta2 = np.array([-1.0, 0.0, 1.5])
        values, d_mu, _ = self.evaluate(data, np.zeros(3), theta2)
        beta = np.exp(-theta2)
        expected = 0.5 * n * (-theta2 - LOG_TWO_PI) - 0.5 * beta * (data @ data) + n * math.log(2.0)
        np.testing.assert_allclose(values, expected, rtol=1e-14)
        np.testing.assert_array_equal(d_mu, np.zeros(3))

    def test_underflowing_reflection_term(self):
        """At log variance -30, beta = e^30 and e^{-2|z|} underflows to 0 on
        every point; the value is then the single-Gaussian term."""
        data = self.data()
        mu = np.array([3.0, -3.0, 0.5])
        theta2 = np.array([-30.0, -30.0, -20.0])
        assert np.all(np.exp(-2.0 * np.exp(30.0) * 3.0 * data) == 0.0)
        self.evaluate(data, mu, theta2)

    def test_tiny_data(self):
        """y down to 1e-300: z is far below 1, so e^{-2|z|} rounds to 1 and
        y^2 underflows to 0."""
        data = np.concatenate(([1e-300, 1e-200, 1e-30, 5e-8], self.data(12)))
        mu = np.array([-1.5, 0.3, 2.0])
        theta2 = np.array([-2.0, 0.0, 3.0])
        self.evaluate(data, mu, theta2)

class TestPdf:
    def test_gaussian_peak_value(self):
        assert pdf(ModelKind.GAUSSIAN, 1.0, 1.0, 4.0) == pytest.approx(
            math.sqrt(0.25 / (2 * math.pi)), rel=1e-14
        )

    def test_folded_zero_outside_support(self):
        assert pdf(ModelKind.FOLDED_NORMAL, -1.0, 1.0, 1.0) == 0.0
        assert pdf(ModelKind.FOLDED_NORMAL, 0.0, 1.0, 1.0) == 0.0

    @pytest.mark.parametrize("mu,variance", [(1.0, 4.0), (0.0, 1.0), (-2.0, 0.5), (3.0, 9.0)])
    def test_folded_integrates_to_one(self, mu, variance):
        """Trapezoid quadrature over (0, |mu| + 10 sigma] recovers unit mass.

        The left endpoint sits just inside the support: the density jumps
        from 0 at y = 0 to a positive right-limit, and a trapezoid rule
        straddling that jump would converge only at first order.
        """
        sigma = math.sqrt(variance)
        ys = np.linspace(1e-12, abs(mu) + 10 * sigma, 200001)
        total = np.trapezoid(pdf(ModelKind.FOLDED_NORMAL, ys, mu, variance), ys)
        assert total == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("mu,variance", [(1.0, 4.0), (-1.5, 0.25)])
    def test_gaussian_integrates_to_one(self, mu, variance):
        sigma = math.sqrt(variance)
        ys = np.linspace(mu - 10 * sigma, mu + 10 * sigma, 20001)
        vals = pdf(ModelKind.GAUSSIAN, ys, mu, variance)
        assert np.all(vals >= 0.0)
        assert np.trapezoid(vals, ys) == pytest.approx(1.0, abs=1e-6)


class TestSamplers:
    def test_sample_mean_within_statistical_bound(self):
        # 3 sigma / sqrt(n) = 3 * 2 / 10 = 0.6
        data = sample_data(ModelKind.GAUSSIAN, 1.0, 4.0, 100, seed=42)
        assert abs(data.values.mean() - 1.0) < 0.6

    def test_folded_samples_strictly_positive(self):
        data = sample_data(ModelKind.FOLDED_NORMAL, 1.0, 4.0, 500, seed=1)
        assert np.all(data.values > 0.0)

    def test_same_seed_bitwise_identical(self):
        a = sample_data(ModelKind.GAUSSIAN, 0.0, 1.0, 64, seed=9)
        b = sample_data(ModelKind.GAUSSIAN, 0.0, 1.0, 64, seed=9)
        assert np.array_equal(a.values, b.values)

    def test_n_validation(self):
        with pytest.raises(ValueError):
            sample_data(ModelKind.GAUSSIAN, 0.0, 1.0, 0, seed=1)

    # the integer variances in 1-199 that do not survive 1 / (1 / v); through
    # the precision, 49, 103, 117, 123, 196 and 197 also moved sigma itself
    @pytest.mark.parametrize(
        "variance", [49, 93, 98, 99, 103, 105, 107, 117, 123, 186, 196, 197, 198]
    )
    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_draws_scale_by_the_root_of_the_variance_itself(self, kind, variance):
        assert 1.0 / (1.0 / variance) != variance
        want = 1.0 + math.sqrt(variance) * Rng(42).standard_normals(100)
        if kind is ModelKind.FOLDED_NORMAL:
            want = np.abs(want)
        assert sample_data(kind, 1.0, variance, 100, seed=42).values.tobytes() == want.tobytes()

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
        seq1 = r1._uniforms(100).tolist()
        seq2 = r2._uniforms(100).tolist()
        assert seq1 == seq2
        assert all(0.0 <= u < 1.0 for u in seq1)

    def test_shuffle_is_a_permutation(self):
        values = np.arange(37.0)
        out = Rng(77).shuffle(values)
        assert sorted(out.tolist()) == sorted(values.tolist())
        assert not np.array_equal(out, values)
