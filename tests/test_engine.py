"""Objective assembly, batching, and the training loop."""

import math

import numpy as np
import pytest

from svbayes.autodiff import Tape, finite_diff_check
from svbayes.distributions import Dataset, ModelKind, NaturalParams, loglik_value, sample_data
from svbayes.engine import (
    DivergenceError,
    TrainConfig,
    estimate_free_energy,
    fit,
    free_energy_and_grad,
    make_batches,
)
from svbayes.posterior import PosteriorNodes, PosteriorParams, PriorSpec, lift

PRIOR = PriorSpec(m0=[0.0, 0.0], C0=np.diag([100.0, 100.0]))
TRUE_PARAMS = NaturalParams.from_mean_variance(1.0, 4.0)


def model_data(model, seed=42):
    return sample_data(model, TRUE_PARAMS, 100, seed=seed)


def example1_data(seed=42):
    return model_data(ModelKind.GAUSSIAN, seed)


# the full data, one batch of 10, and the 2-point remainder batch of size 7
BATCHES = {
    "full": lambda values: values,
    "batch10": lambda values: make_batches(Dataset(values), 10)[3],
    "remainder": lambda values: make_batches(Dataset(values), 7)[-1],
}


def packed(params):
    parts = [params.m, params.v]
    if params.correlation_enabled:
        parts.append(params.u)
    return np.concatenate(parts)


def tape_objective(model, batch, params, epsilons):
    """The tape oracle's (F, mc_loglik, KL, dF/dzeta) at frozen noise."""
    t = Tape()
    nodes = lift(t, params)
    parts = estimate_free_energy(t, model, batch, 100, nodes, PRIOR, list(epsilons))
    grad = t.grad(parts.free_energy)
    values = [t.value(n) for n in parts]
    return (*values, np.array([grad[leaf] for leaf in nodes.free_leaves()]))


def assert_matches_tape(model, batch, params, epsilons):
    f, mc, kl, grad = tape_objective(model, batch, params, epsilons)
    obj = free_energy_and_grad(
        model, batch, 100, packed(params), epsilons, PRIOR, params.correlation_enabled
    )
    np.testing.assert_allclose(
        [obj.free_energy, obj.mc_loglik, obj.kl], [f, mc, kl], rtol=1e-10, atol=0.0
    )
    np.testing.assert_allclose(obj.grad, grad, rtol=1e-10, atol=0.0)


def central_differences(fn, at):
    """Central differences with the per-coordinate step of finite_diff_check."""
    out = np.empty_like(at)
    for i in range(at.size):
        h = 1e-6 * max(1.0, abs(at[i]))
        hi, lo = at.copy(), at.copy()
        hi[i] += h
        lo[i] -= h
        out[i] = (fn(hi) - fn(lo)) / (2.0 * h)
    return out


class TestClosedFormObjective:
    """`free_energy_and_grad` against the tape oracle and central differences."""

    @pytest.mark.parametrize("model", list(ModelKind))
    @pytest.mark.parametrize("batch", sorted(BATCHES))
    @pytest.mark.parametrize("n_samples", [1, 3])
    @pytest.mark.parametrize("correlation", [True, False])
    def test_matches_tape_at_random_points(self, model, batch, n_samples, correlation):
        batch_values = BATCHES[batch](model_data(model).values)
        rng = np.random.default_rng(17)
        for _ in range(10):
            params = PosteriorParams(
                m=rng.uniform(-2, 3, size=2),
                v=rng.uniform(-2, 1, size=2),
                u=rng.uniform(-1, 1, size=1),
                correlation_enabled=correlation,
            )
            epsilons = rng.standard_normal((n_samples, 2))
            assert_matches_tape(model, batch_values, params, epsilons)

    @pytest.mark.parametrize("model", list(ModelKind))
    @pytest.mark.parametrize("correlation", [True, False])
    def test_matches_tape_along_training_trajectory(self, model, correlation):
        data = model_data(model)
        rng = np.random.default_rng(18)
        for epochs in (1, 5, 40, 400):
            params = fit(
                model, data, PRIOR,
                TrainConfig(
                    epochs=epochs, seed=3, correlation_enabled=correlation,
                    final_fe_samples=2,
                ),
            ).params
            for batch in BATCHES.values():
                for n_samples in (1, 3):
                    epsilons = rng.standard_normal((n_samples, 2))
                    assert_matches_tape(model, batch(data.values), params, epsilons)

    @pytest.mark.parametrize("model", list(ModelKind))
    @pytest.mark.parametrize("correlation", [True, False])
    def test_gradient_matches_central_differences(self, model, correlation):
        """Frozen-noise FD check of the closed-form gradient, rtol 1e-4."""
        data = model_data(model)
        rng = np.random.default_rng(19)
        trajectory = [
            packed(fit(
                model, data, PRIOR,
                TrainConfig(
                    epochs=epochs, seed=5, correlation_enabled=correlation,
                    final_fe_samples=2,
                ),
            ).params)
            for epochs in (10, 400)
        ]
        random_points = [
            np.concatenate([
                rng.uniform(-2, 3, size=2), rng.uniform(-2, 1, size=2),
                rng.uniform(-1, 1, size=1 if correlation else 0),
            ])
            for _ in range(8)
        ]
        for at in trajectory + random_points:
            epsilons = rng.standard_normal((int(rng.integers(1, 4)), 2))

            def objective(zeta):
                return free_energy_and_grad(
                    model, data.values, 100, zeta, epsilons, PRIOR, correlation
                )

            grad = objective(at).grad
            fd = central_differences(lambda z: objective(z).free_energy, at)
            rel = np.abs(grad - fd) / np.maximum(np.abs(grad), np.abs(fd))
            assert rel.max() <= 1e-4, (at, grad, fd)


class TestEstimateFreeEnergy:
    def test_zero_noise_at_prior_equals_loglik(self):
        """With q = prior and eps = 0, KL vanishes and F is loglik(m0)."""
        data = example1_data()
        prior = PriorSpec(m0=[0.5, 1.2], C0=np.diag([4.0, 4.0]))
        s = np.linalg.cholesky(prior.C0)
        params = PosteriorParams(m=prior.m0, v=np.log(np.diag(s)), u=[s[1, 0]])
        t = Tape()
        parts = estimate_free_energy(
            t, ModelKind.GAUSSIAN, data.values, 100, lift(t, params), prior, [np.zeros(2)]
        )
        assert t.value(parts.kl) == pytest.approx(0.0, abs=1e-12)
        expected = loglik_value(ModelKind.GAUSSIAN, data.values, prior.m0)
        assert t.value(parts.free_energy) == pytest.approx(expected, rel=1e-12)

    def test_kl_component_independent_of_noise(self):
        data = example1_data()
        params = PosteriorParams(m=[0.4, 0.8], v=[-0.3, 0.2], u=[0.1])
        rng = np.random.default_rng(1)
        values = []
        for _ in range(2):
            t = Tape()
            parts = estimate_free_energy(
                t, ModelKind.GAUSSIAN, data.values, 100, lift(t, params), PRIOR,
                [rng.standard_normal(2)],
            )
            values.append((t.value(parts.free_energy), t.value(parts.kl)))
        assert values[0][0] != values[1][0]  # stochastic likelihood part
        assert values[0][1] == values[1][1]  # deterministic KL part

    def test_decomposition_identity(self):
        """F equals the MC likelihood term minus the KL term."""
        data = example1_data()
        params = PosteriorParams(m=[1.0, 1.0], v=[-0.5, -0.5], u=[0.3])
        rng = np.random.default_rng(2)
        t = Tape()
        parts = estimate_free_energy(
            t, ModelKind.GAUSSIAN, data.values, 100, lift(t, params), PRIOR,
            [rng.standard_normal(2) for _ in range(4)],
        )
        f, mc, kl = (t.value(n) for n in parts)
        assert f == pytest.approx(mc - kl, rel=1e-10)

    def test_frozen_noise_gradient(self):
        data = example1_data()
        rng = np.random.default_rng(3)
        eps = [rng.standard_normal(2)]

        def build(t, xs):
            nodes = PosteriorNodes(
                m=(xs[0], xs[1]), v=(xs[2], xs[3]), u=(xs[4],), correlation_enabled=True
            )
            return estimate_free_energy(
                t, ModelKind.GAUSSIAN, data.values, 100, nodes, PRIOR, eps
            ).free_energy

        at = [0.8, 1.0, -0.4, -0.2, 0.15]
        report = finite_diff_check(build, at, rtol=1e-4)
        assert report.passed, report.max_rel_error

    def test_gradient_along_training_trajectory(self):
        """Frozen-noise finite-difference check at points a real fit visits."""
        data = example1_data()
        rng = np.random.default_rng(4)
        for epochs in (1, 2, 5, 10, 20, 40, 80, 160, 280, 400):
            res = fit(
                ModelKind.GAUSSIAN, data, PRIOR,
                TrainConfig(epochs=epochs, seed=11, final_fe_samples=2),
            )
            p = res.params
            eps = [rng.standard_normal(2)]

            def build(t, xs):
                nodes = PosteriorNodes(
                    m=(xs[0], xs[1]), v=(xs[2], xs[3]), u=(xs[4],),
                    correlation_enabled=True,
                )
                return estimate_free_energy(
                    t, ModelKind.GAUSSIAN, data.values, 100, nodes, PRIOR, eps
                ).free_energy

            at = np.concatenate([p.m, p.v, p.u])
            report = finite_diff_check(build, at, rtol=1e-4)
            assert report.passed, (epochs, report.max_rel_error)

    def test_requires_noise(self):
        data = example1_data()
        params = PosteriorParams(m=[0.0, 0.0], v=[0.0, 0.0], u=[0.0])
        t = Tape()
        with pytest.raises(ValueError):
            estimate_free_energy(
                t, ModelKind.GAUSSIAN, data.values, 100, lift(t, params), PRIOR, []
            )


class TestMakeBatches:
    def test_even_split(self):
        data = Dataset(np.arange(100.0))
        batches = make_batches(data, 10)
        assert len(batches) == 10
        assert all(len(b) == 10 for b in batches)
        np.testing.assert_array_equal(np.concatenate(batches), data.values)

    def test_full_batch(self):
        data = Dataset(np.arange(7.0))
        batches = make_batches(data, 7)
        assert len(batches) == 1
        np.testing.assert_array_equal(batches[0], data.values)

    def test_remainder_batch(self):
        data = Dataset(np.arange(10.0))
        batches = make_batches(data, 3)
        assert [len(b) for b in batches] == [3, 3, 3, 1]

    def test_remainder_weighted_identity(self):
        """With per-batch M in the scale factor, the size-weighted mean of
        scaled batch log-likelihoods recovers the full-data value."""
        from svbayes.distributions import gaussian_loglik

        rng = np.random.default_rng(5)
        data = Dataset(rng.normal(1.0, 2.0, size=10))
        theta = (0.6, 0.9)

        def scaled(batch):
            t = Tape()
            nodes = (t.variable(theta[0]), t.variable(theta[1]))
            return t.value(gaussian_loglik(t, nodes, batch, n_total=10))

        t = Tape()
        nodes = (t.variable(theta[0]), t.variable(theta[1]))
        full = t.value(gaussian_loglik(t, nodes, data.values, n_total=10))
        batches = make_batches(data, 3)
        weighted = sum(len(b) / 10 * scaled(b) for b in batches)
        assert weighted == pytest.approx(full, rel=1e-10)

    def test_out_of_range_rejected(self):
        data = Dataset(np.arange(5.0))
        with pytest.raises(ValueError):
            make_batches(data, 0)
        with pytest.raises(ValueError):
            make_batches(data, 6)


class TestFit:
    def test_zero_learning_rate_keeps_initialization(self):
        data = example1_data()
        res = fit(
            ModelKind.GAUSSIAN, data, PRIOR,
            TrainConfig(epochs=1, learning_rate=0.0, final_fe_samples=2),
        )
        np.testing.assert_array_equal(res.params.m, PRIOR.m0)
        np.testing.assert_array_equal(res.params.v, np.zeros(2))
        np.testing.assert_array_equal(res.params.u, np.zeros(1))

    def test_same_seed_bitwise_identical(self):
        data = example1_data()
        config = TrainConfig(epochs=30, seed=5, final_fe_samples=50)
        r1 = fit(ModelKind.GAUSSIAN, data, PRIOR, config)
        r2 = fit(ModelKind.GAUSSIAN, data, PRIOR, config)
        np.testing.assert_array_equal(r1.params.m, r2.params.m)
        np.testing.assert_array_equal(r1.params.v, r2.params.v)
        np.testing.assert_array_equal(r1.params.u, r2.params.u)
        assert r1.trace == r2.trace
        assert r1.final_free_energy == r2.final_free_energy

    def test_example1_recovers_sample_moments(self):
        """Posterior mean lands near the dataset's sample statistics, and the
        objective trends upward over the run."""
        data = example1_data()
        res = fit(ModelKind.GAUSSIAN, data, PRIOR, TrainConfig(seed=1))
        assert abs(res.posterior.mean[0] - data.values.mean()) < 0.3
        assert abs(res.posterior.mean[1] - math.log(data.values.var())) < 0.35
        fe = [r.free_energy for r in res.trace]
        assert np.mean(fe[-100:]) > np.mean(fe[:20])

    def test_trace_shape_full_data(self):
        data = example1_data()
        res = fit(ModelKind.GAUSSIAN, data, PRIOR, TrainConfig(epochs=25, final_fe_samples=2))
        assert len(res.trace) == 25
        assert all(r.step == 0 for r in res.trace)
        assert [r.epoch for r in res.trace] == list(range(25))
        assert res.steps == 25

    def test_trace_shape_minibatch(self):
        data = example1_data()
        res = fit(
            ModelKind.GAUSSIAN, data, PRIOR,
            TrainConfig(epochs=5, batch_size=10, final_fe_samples=2),
        )
        assert len(res.trace) == 50
        assert [r.step for r in res.trace[:10]] == list(range(10))
        assert res.steps == 50

    def test_trace_decomposition_logged(self):
        data = example1_data()
        res = fit(ModelKind.GAUSSIAN, data, PRIOR, TrainConfig(epochs=10, final_fe_samples=2))
        for r in res.trace:
            assert r.free_energy == pytest.approx(r.mc_loglik - r.kl, rel=1e-10)

    def test_minibatch_and_full_data_agree(self):
        """Both strategies converge to nearby posterior means on one dataset."""
        data = example1_data(seed=104)
        full = fit(ModelKind.GAUSSIAN, data, PRIOR, TrainConfig(seed=4))
        mb = fit(ModelKind.GAUSSIAN, data, PRIOR, TrainConfig(seed=4, batch_size=10))
        assert np.all(np.abs(full.posterior.mean - mb.posterior.mean) < 0.15)

    def test_folded_rejects_nonpositive_data(self):
        from svbayes.autodiff import DomainError

        data = Dataset(np.array([1.0, -0.5, 2.0]))
        with pytest.raises(DomainError):
            fit(ModelKind.FOLDED_NORMAL, data, PRIOR, TrainConfig(epochs=1))

    def test_divergent_initialization_aborts_with_diagnostics(self):
        data = example1_data()
        bad_init = PosteriorParams(m=[0.0, 0.0], v=[700.0, 700.0], u=[0.0])
        with pytest.raises(DivergenceError) as excinfo:
            fit(ModelKind.GAUSSIAN, data, PRIOR, TrainConfig(epochs=1, init=bad_init))
        assert excinfo.value.step == 0
        assert "zeta" in str(excinfo.value)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("model", list(ModelKind))
    @pytest.mark.parametrize(
        "prior,init",
        [
            (PRIOR, PosteriorParams(m=[0.0, 0.0], v=[700.0, 700.0], u=[0.0])),
            # a finite likelihood at mu = 1e5, but (m - m0)^T C0^-1 (m - m0) overflows
            (
                PriorSpec(m0=[0.0, 0.0], C0=np.diag([1e-300, 1e-300])),
                PosteriorParams(m=[1e5, 0.0], v=[0.0, 0.0], u=[0.0]),
            ),
        ],
        ids=["scale-overflow", "kl-overflow"],
    )
    def test_divergence_raises_without_numpy_warnings(self, model, prior, init):
        """Overflow aborts at step 0 as a DivergenceError; with RuntimeWarning
        promoted to an error, no numpy warning escapes the fit."""
        with pytest.raises(DivergenceError) as excinfo:
            fit(model, model_data(model), prior, TrainConfig(epochs=1, init=init))
        assert excinfo.value.step == 0
        np.testing.assert_array_equal(excinfo.value.zeta, packed(init))

    def test_shuffle_is_reproducible_and_changes_order(self):
        data = example1_data()
        c1 = TrainConfig(epochs=8, batch_size=10, seed=3, shuffle=True, final_fe_samples=2)
        r1 = fit(ModelKind.GAUSSIAN, data, PRIOR, c1)
        r2 = fit(ModelKind.GAUSSIAN, data, PRIOR, c1)
        assert r1.trace == r2.trace
        c2 = TrainConfig(epochs=8, batch_size=10, seed=3, shuffle=False, final_fe_samples=2)
        r3 = fit(ModelKind.GAUSSIAN, data, PRIOR, c2)
        assert r1.trace != r3.trace

    def test_final_free_energy_reported_with_uncertainty(self):
        data = example1_data()
        res = fit(ModelKind.GAUSSIAN, data, PRIOR, TrainConfig(epochs=40, final_fe_samples=200))
        mean, se = res.final_free_energy
        assert math.isfinite(mean)
        assert se > 0.0

    def test_init_override_must_match_configuration(self):
        data = example1_data()
        init = PosteriorParams(m=[0.0, 0.0], v=[0.0, 0.0], u=[0.0], correlation_enabled=False)
        with pytest.raises(ValueError):
            fit(ModelKind.GAUSSIAN, data, PRIOR, TrainConfig(init=init))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(mc_samples=0)
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=-1.0)
