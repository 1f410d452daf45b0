"""Objective assembly, batching, and the training loop."""

import gc
import math

import numpy as np
import pytest

from numdiff import central_differences, complex_step, max_rel_error
from svbayes import distributions, engine
from svbayes.distributions import (
    Dataset,
    DomainError,
    ModelKind,
    log_pdf,
    loglik_terms,
    make_batches,
    sample_data,
)
from svbayes.engine import DivergenceError, TrainConfig, fit
from svbayes.posterior import PosteriorParams, PriorSpec
from svbayes.rng import Rng

PRIOR = PriorSpec(m0=[0.0, 0.0], C0=np.diag([100.0, 100.0]))
TRUE_MU, TRUE_VARIANCE = 1.0, 4.0


def free_energy_and_grad(model, values, n_total, zeta, epsilons, prior, count=None):
    """The fit step on raw batch values standing for `count` of n_total points
    (None: all of them) and (L, 2) noise eps, summarized here and passed as
    `fit` passes them: at L = 1 the float pair (e0, e1), else widened to
    [1 | eps].  The step reads correlation from zeta's length."""
    if len(epsilons) == 1:
        noise = epsilons[0].tolist()
    else:
        noise = np.column_stack((np.ones(len(epsilons)), epsilons))
    batch = distributions._summarize(model, values, n_total if count is None else count, n_total)
    return engine.free_energy_and_grad(batch, zeta, noise, prior)


def model_data(model, seed=42):
    return sample_data(model, TRUE_MU, TRUE_VARIANCE, 100, seed=seed)


def example1_data(seed=42):
    return model_data(ModelKind.GAUSSIAN, seed)


# the full data, the fourth batch of 10, and the 2-point remainder of batches of 7
BATCHES = {
    "full": lambda values: values,
    "batch10": lambda values: values[30:40],
    "remainder": lambda values: values[98:],
}


def cut(values, batch_size):
    """Contiguous batches of `batch_size` in order, a shorter remainder last."""
    return [values[i : i + batch_size] for i in range(0, len(values), batch_size)]


def start_from(monkeypatch, init):
    """Make `fit` start from `init`: its one starting point is
    `PosteriorParams.initial(prior, correlation_enabled)`."""
    monkeypatch.setattr(PosteriorParams, "initial", lambda prior, correlation_enabled: init)


def random_params(rng, correlation):
    """A record of random (m, v, u), the u drawn also when it is left out."""
    m, v, u = rng.uniform(-2, 3, size=2), rng.uniform(-2, 1, size=2), rng.uniform(-1, 1, size=1)
    return PosteriorParams((*m, *v, *(u if correlation else ())))


def reference_objective(model, values, n_total, zeta, epsilons, prior):
    """(F, mc_loglik, KL) at the packed `zeta`, written plainly and complex-safe
    for the complex step: a loop over the samples of the N/M-rescaled log
    density, the folded one as the log-sum-exp of its two reflected
    Gaussians, minus the full-matrix KL."""
    zeta = np.asarray(zeta)
    s = reference_factor(zeta)
    mc = 0.0
    for eps in epsilons:
        mu, theta2 = zeta[:2] + s @ eps
        beta = np.exp(-theta2)
        near, far = -0.5 * beta * (values - mu) ** 2, -0.5 * beta * (values + mu) ** 2
        if model is ModelKind.FOLDED_NORMAL:
            hi = np.where(near.real >= far.real, near, far)
            near = hi + np.log(1.0 + np.exp(near + far - 2.0 * hi))
        mc = mc + n_total / len(values) * np.sum(0.5 * (-theta2 - math.log(2 * math.pi)) + near)
    mc = mc / len(epsilons)
    kl = reference_kl(zeta, s, prior)
    return mc - kl, mc, kl


def reference_factor(zeta):
    """S = [[exp v0, 0], [u, exp v1]] of the packed `zeta` (u = 0 without it)."""
    u = zeta[4] if len(zeta) == 5 else 0.0
    return np.array([[np.exp(zeta[2]), 0.0], [u, np.exp(zeta[3])]])


def reference_kl(zeta, s, prior):
    """KL(q || prior) of q = N(m, S S^T) from the full matrices, complex-safe."""
    c, inv0, d = s @ s.T, np.linalg.inv(prior.C0), zeta[:2] - prior.m0
    log_det_c = np.log(c[0, 0] * c[1, 1] - c[0, 1] * c[1, 0])
    log_det_c0 = np.linalg.slogdet(prior.C0)[1]
    return 0.5 * (np.trace(inv0 @ c) - log_det_c + log_det_c0 - 2 + d @ inv0 @ d)


def assert_matches_reference(model, batch, params, epsilons):
    """The fit step against `reference_objective` and its complex-step gradient."""
    zeta = np.array(params.zeta)
    fe, mc, kl, got = free_energy_and_grad(model, batch, 100, zeta, epsilons, PRIOR)
    parts = reference_objective(model, batch, 100, zeta, epsilons, PRIOR)
    np.testing.assert_allclose([fe, mc, kl], np.real(parts), rtol=1e-10, atol=0.0)
    grad = complex_step(
        lambda z: reference_objective(model, batch, 100, z, epsilons, PRIOR)[0], zeta
    )
    np.testing.assert_allclose(got, grad, rtol=1e-10, atol=0.0)


class TestClosedFormObjective:
    """`free_energy_and_grad` against a plain numpy reference (value, and
    gradient by complex step) and against central differences."""

    @pytest.mark.parametrize("model", list(ModelKind))
    @pytest.mark.parametrize("batch", sorted(BATCHES))
    @pytest.mark.parametrize("n_samples", [1, 3])
    @pytest.mark.parametrize("correlation", [True, False])
    def test_matches_reference_at_random_points(self, model, batch, n_samples, correlation):
        batch_values = BATCHES[batch](model_data(model).values)
        rng = np.random.default_rng(17)
        for _ in range(10):
            params = random_params(rng, correlation)
            epsilons = rng.standard_normal((n_samples, 2))
            assert_matches_reference(model, batch_values, params, epsilons)

    @pytest.mark.parametrize("model", list(ModelKind))
    @pytest.mark.parametrize("correlation", [True, False])
    def test_matches_reference_along_training_trajectory(self, model, correlation):
        data = model_data(model)
        rng = np.random.default_rng(18)
        for epochs in (1, 5, 40, 400):
            params = fit(
                model, data, PRIOR,
                TrainConfig(
                    epochs=epochs, seed=3, correlation_enabled=correlation,
                    final_fe_samples=2,
                ),
            ).posterior
            for batch in BATCHES.values():
                for n_samples in (1, 3):
                    epsilons = rng.standard_normal((n_samples, 2))
                    assert_matches_reference(model, batch(data.values), params, epsilons)

    @pytest.mark.parametrize("model", list(ModelKind))
    @pytest.mark.parametrize("correlation", [True, False])
    def test_gradient_matches_central_differences(self, model, correlation):
        """Frozen-noise FD check of the closed-form gradient, rtol 1e-4."""
        data = model_data(model)
        rng = np.random.default_rng(19)
        trajectory = [
            np.array(fit(
                model, data, PRIOR,
                TrainConfig(
                    epochs=epochs, seed=5, correlation_enabled=correlation,
                    final_fe_samples=2,
                ),
            ).posterior.zeta)
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
                return free_energy_and_grad(model, data.values, 100, zeta, epsilons, PRIOR)

            _, _, _, grad = objective(at)
            fd = central_differences(lambda z: objective(z)[0], at)
            rel = np.abs(grad - fd) / np.maximum(np.abs(grad), np.abs(fd))
            assert rel.max() <= 1e-4, (at, grad, fd)


class TestOneSamplePath:
    """The step runs on floats for the float pair of one sample and on arrays
    for [1 | eps]: a one-sample float step equals the array step on its
    (1, 3) row and on a two-sample array whose rows are both its noise.  The
    paths round theta and the pull-back differently, and a gradient entry
    can cancel terms of the size of the objective, so they are compared to
    rtol 1e-14 of the largest of F, its parts and the gradient entries."""

    @pytest.mark.parametrize("model", list(ModelKind))
    @pytest.mark.parametrize("batch", sorted(BATCHES))
    @pytest.mark.parametrize("correlation", [True, False], ids=["corr", "nocorr"])
    def test_float_step_equals_doubled_array_step(self, model, batch, correlation):
        batch_values = BATCHES[batch](model_data(model).values)
        rng = np.random.default_rng(20)
        for _ in range(20):
            zeta, eps = random_params(rng, correlation).zeta, rng.standard_normal((1, 2))
            one = free_energy_and_grad(model, batch_values, 100, zeta, eps, PRIOR)
            batch = distributions._summarize(model, batch_values, 100, 100)
            row = engine.free_energy_and_grad(batch, zeta, np.column_stack(([1.0], eps)), PRIOR)
            two = free_energy_and_grad(
                model, batch_values, 100, zeta, np.repeat(eps, 2, axis=0), PRIOR
            )
            assert all(type(x) is float for x in (*one[:3], *one[3])), one
            for other in (row, two):
                want = np.array([*other[:3], *other[3]])
                np.testing.assert_allclose(
                    [*one[:3], *one[3]], want, rtol=0.0, atol=1e-14 * np.abs(want).max()
                )


class TestObjectiveParts:
    """The fit step's F, its two parts and its gradient at hand-checkable points."""

    def test_zero_noise_at_prior_equals_loglik(self):
        """With q = prior and eps = 0, KL vanishes and F is loglik(m0)."""
        data = example1_data()
        prior = PriorSpec(m0=[0.5, 1.2], C0=np.diag([4.0, 4.0]))
        s = np.linalg.cholesky(prior.C0)
        zeta = (*prior.m0, *np.log(np.diag(s)), s[1, 0])
        fe, _, kl, _ = free_energy_and_grad(
            ModelKind.GAUSSIAN, data.values, 100, zeta, np.zeros((1, 2)), prior
        )
        assert kl == pytest.approx(0.0, abs=1e-12)
        mu, theta2 = prior.m0
        expected = log_pdf(ModelKind.GAUSSIAN, data.values, mu, math.exp(-theta2)).sum()
        assert fe == pytest.approx(expected, rel=1e-12)

    def test_kl_component_independent_of_noise(self):
        data = example1_data()
        zeta = [0.4, 0.8, -0.3, 0.2, 0.1]
        rng = np.random.default_rng(1)
        values = []
        for _ in range(2):
            fe, _, kl, _ = free_energy_and_grad(
                ModelKind.GAUSSIAN, data.values, 100, zeta, rng.standard_normal((1, 2)), PRIOR
            )
            values.append((fe, kl))
        assert values[0][0] != values[1][0]  # stochastic likelihood part
        assert values[0][1] == values[1][1]  # deterministic KL part

    def test_decomposition_identity(self):
        """F equals the MC likelihood term minus the KL term."""
        data = example1_data()
        rng = np.random.default_rng(2)
        fe, mc, kl, _ = free_energy_and_grad(
            ModelKind.GAUSSIAN, data.values, 100, [1.0, 1.0, -0.5, -0.5, 0.3],
            rng.standard_normal((4, 2)), PRIOR,
        )
        assert fe == pytest.approx(mc - kl, rel=1e-10)

    @staticmethod
    def assert_gradient_matches_central_differences(data, at, eps):
        def objective(zeta):
            return free_energy_and_grad(ModelKind.GAUSSIAN, data.values, 100, zeta, eps, PRIOR)

        fd = central_differences(lambda z: objective(z)[0], at)
        _, _, _, grad = objective(at)
        assert max_rel_error(grad, fd) <= 1e-4, (at, fd)

    def test_frozen_noise_gradient(self):
        rng = np.random.default_rng(3)
        eps = rng.standard_normal((1, 2))
        self.assert_gradient_matches_central_differences(
            example1_data(), np.array([0.8, 1.0, -0.4, -0.2, 0.15]), eps
        )

    def test_gradient_along_training_trajectory(self):
        """Frozen-noise finite-difference check at points a real fit visits."""
        data = example1_data()
        rng = np.random.default_rng(4)
        for epochs in (1, 2, 5, 10, 20, 40, 80, 160, 280, 400):
            res = fit(
                ModelKind.GAUSSIAN, data, PRIOR,
                TrainConfig(epochs=epochs, seed=11, final_fe_samples=2),
            )
            eps = rng.standard_normal((1, 2))
            self.assert_gradient_matches_central_differences(data, res.posterior.zeta, eps)


class TestMakeBatches:
    GAUSSIAN = ModelKind.GAUSSIAN

    def test_even_split(self):
        data = Dataset(np.arange(100.0))
        batches = make_batches(self.GAUSSIAN, data.values, 10)
        assert len(batches) == 10
        assert all(len(b.y) == 10 for b in batches)
        np.testing.assert_array_equal(np.concatenate([b.y for b in batches]), data.values)

    def test_full_batch(self):
        data = Dataset(np.arange(7.0))
        batches = make_batches(self.GAUSSIAN, data.values, 7)
        assert len(batches) == 1
        np.testing.assert_array_equal(batches[0].y, data.values)

    def test_remainder_batch(self):
        data = Dataset(np.arange(10.0))
        batches = make_batches(self.GAUSSIAN, data.values, 3)
        assert [len(b.y) for b in batches] == [3, 3, 3, 1]
        # each of the B = 4 batches stands for B M_b of the N = 10 points
        assert [(b.count, b.n_total) for b in batches] == [(12, 10)] * 3 + [(4, 10)]

    @pytest.mark.parametrize("model", list(ModelKind))
    @pytest.mark.parametrize("batch_size", [7, 30, 99])
    def test_epoch_mean_is_the_full_data_value(self, monkeypatch, model, batch_size):
        """Every point counts once an epoch: over the batches one epoch of
        `fit` evaluates, a short remainder batch included, the plain mean of
        the batch log-likelihoods is the full-data value, partials too."""
        seen, inner = [], distributions.loglik_terms

        def recording(batch, *args):
            seen.append(batch)
            return inner(batch, *args)

        data = model_data(model)
        monkeypatch.setattr(distributions, "loglik_terms", recording)
        fit(model, data, PRIOR, TrainConfig(epochs=1, batch_size=batch_size, final_fe_samples=2))
        monkeypatch.undo()
        batches = seen[: -(-len(data) // batch_size)]  # one step a batch, then the final F
        assert np.concatenate([b.y for b in batches]).tolist() == data.values.tolist()
        (whole,) = make_batches(model, data.values, len(data))
        for mu, theta2 in ((0.4, 0.3), (-0.7, 1.9), (2.5, -0.6)):
            full = loglik_terms(whole, mu, theta2)
            mean = np.mean([loglik_terms(b, mu, theta2) for b in batches], 0)
            np.testing.assert_allclose(mean, full, rtol=1e-12, atol=0.0)

    def test_out_of_range_rejected(self):
        data = Dataset(np.arange(5.0))
        with pytest.raises(ValueError):
            make_batches(self.GAUSSIAN, data.values, 0)
        with pytest.raises(ValueError):
            make_batches(self.GAUSSIAN, data.values, 6)


def reference_fit(model, data, prior, config):
    """The fit loop written plainly: per-step noise draws, the objective with
    each of an epoch's B batches standing for B times its points, and textbook
    vector Adam, then the final free energy from the same stream; returns
    (trace rows, final zeta, final F)."""
    lr, beta1, beta2, eps_hat = config.learning_rate, 0.9, 0.999, 1e-8
    rng = Rng(config.seed)
    zeta = np.array(PosteriorParams.initial(prior, config.correlation_enabled).zeta)
    m, v = np.zeros_like(zeta), np.zeros_like(zeta)
    batch_size = config.batch_size or len(data)
    batches = cut(data.values, batch_size)
    trace, t = [], 0
    for _ in range(config.epochs):
        if config.shuffle:
            batches = cut(rng.shuffle(data.values), batch_size)
        for batch in batches:
            eps = rng.standard_normals(config.mc_samples * 2).reshape(config.mc_samples, 2)
            fe, mc, kl, grad = free_energy_and_grad(
                model, batch, len(data), zeta, eps, prior, len(batches) * len(batch)
            )
            trace.append((fe, kl, mc))
            t += 1
            grad = -np.asarray(grad)  # textbook Adam descends on -F
            m = beta1 * m + (1.0 - beta1) * grad
            v = beta2 * v + (1.0 - beta2) * grad * grad
            m_hat, v_hat = m / (1.0 - beta1**t), v / (1.0 - beta2**t)
            zeta = zeta - lr * m_hat / (np.sqrt(v_hat) + eps_hat)
    params = PosteriorParams(zeta)
    final_fe = engine._final_free_energy(model, data, params, prior, config.final_fe_samples, rng)
    return np.array(trace), zeta, final_fe


def assert_matches_reference_fit(result, model, data, config):
    """`result` against `reference_fit`: the same bits at L = 1, where both
    run the one-sample step and Adam's formulas, rtol 1e-12 at L > 1.  The
    final F matches too, so the fit's noise drew nothing past its last step."""
    trace, zeta, final_fe = reference_fit(model, data, PRIOR, config)
    got = np.array([result.trace.free_energy, result.trace.kl, result.trace.mc_loglik]).T
    assert got.shape == trace.shape
    if config.mc_samples == 1:
        assert got.tolist() == trace.tolist()
        assert list(result.posterior.zeta) == zeta.tolist()
        assert result.final_free_energy == final_fe
    else:
        np.testing.assert_allclose(got, trace, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(result.posterior.zeta, zeta, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(result.final_free_energy, final_fe, rtol=1e-12, atol=0.0)


class TestFusedLoop:
    """`fit` (the lazy noise stream, in-place Adam) against the plain reference loop."""

    @pytest.mark.parametrize("model", list(ModelKind))
    @pytest.mark.parametrize(
        "batch_size,shuffle,mc_samples",
        [(7, True, 1), (None, False, 3), (10, False, 3)],
        ids=["shuffled-remainder", "full-mc3", "batch10-mc3"],
    )
    @pytest.mark.parametrize("correlation", [True, False])
    def test_matches_reference_loop(self, model, batch_size, shuffle, mc_samples, correlation):
        data = model_data(model)
        config = TrainConfig(
            epochs=30, batch_size=batch_size, shuffle=shuffle, mc_samples=mc_samples,
            seed=9, correlation_enabled=correlation, final_fe_samples=2,
        )
        assert_matches_reference_fit(fit(model, data, PRIOR, config), model, data, config)

    @pytest.mark.parametrize("mc_samples", [1, 3])
    @pytest.mark.parametrize("shuffle", [True, False], ids=["shuffled", "in-order"])
    @pytest.mark.parametrize("batch_size", [None, 7], ids=["full", "batch7"])
    def test_noise_blocks_keep_the_stream_order(self, monkeypatch, mc_samples, shuffle, batch_size):
        """With several draw calls per fit, the last one short, blocks that
        cross epochs when nothing is shuffled and stop at each shuffle when
        something is, the fit still matches per-step draws and, bit for bit,
        a fit that draws its noise in default blocks."""
        data = example1_data()
        config = TrainConfig(
            epochs=12, batch_size=batch_size, shuffle=shuffle, mc_samples=mc_samples, seed=4,
            final_fe_samples=2,
        )
        default = fit(ModelKind.GAUSSIAN, data, PRIOR, config)
        # 8 steps a block at L = 1 and 2 at L = 3: neither divides the 15
        # batches of 7, so in-order blocks cross epoch boundaries
        monkeypatch.setattr(engine, "NOISE_BLOCK_DRAWS", 16)
        result = fit(ModelKind.GAUSSIAN, data, PRIOR, config)
        assert result.trace == default.trace
        assert result.posterior.zeta == default.posterior.zeta
        assert result.final_free_energy == default.final_free_energy
        assert_matches_reference_fit(result, ModelKind.GAUSSIAN, data, config)


class TestFinalFreeEnergy:
    """The fit's final F against the formula written out here, on noise drawn
    plainly from the seed's stream: the mean and standard error of the whole
    data's summed log density at theta = m + S eps, minus the full-matrix KL."""

    @pytest.mark.parametrize("model", list(ModelKind))
    @pytest.mark.parametrize("batch_size, n_batches", [(None, 1), (30, 4)], ids=["full", "batch30"])
    def test_final_free_energy_is_the_whole_data_estimate(self, model, batch_size, n_batches):
        data = model_data(model)
        config = TrainConfig(epochs=3, batch_size=batch_size, seed=6, final_fe_samples=50)
        result = fit(model, data, PRIOR, config)
        rng = Rng(config.seed)
        rng.standard_normals(config.epochs * n_batches * 2)  # the steps' noise, one sample each
        eps = rng.standard_normals(100).reshape(50, 2)
        zeta = np.array(result.posterior.zeta)
        s = reference_factor(zeta)
        kl = reference_kl(zeta, s, PRIOR)
        values = [
            float(log_pdf(model, data.values, mu, math.exp(-theta2)).sum()) - kl
            for mu, theta2 in (zeta[:2] + eps @ s.T).tolist()
        ]
        want = [np.mean(values), np.std(values, ddof=1) / math.sqrt(50)]
        np.testing.assert_allclose(result.final_free_energy, want, rtol=1e-10, atol=0.0)


class TestFit:
    def test_zero_learning_rate_keeps_initialization(self):
        data = example1_data()
        res = fit(
            ModelKind.GAUSSIAN, data, PRIOR,
            TrainConfig(epochs=1, learning_rate=0.0, final_fe_samples=2),
        )
        assert res.posterior.zeta == (*PRIOR.m0, 0.0, 0.0, 0.0)

    def test_same_seed_bitwise_identical(self):
        data = example1_data()
        config = TrainConfig(epochs=30, seed=5, final_fe_samples=50)
        r1 = fit(ModelKind.GAUSSIAN, data, PRIOR, config)
        r2 = fit(ModelKind.GAUSSIAN, data, PRIOR, config)
        assert r1.posterior.zeta == r2.posterior.zeta
        assert r1.trace == r2.trace
        assert r1.final_free_energy == r2.final_free_energy

    def test_example1_recovers_sample_moments(self):
        """Posterior mean lands near the dataset's sample statistics, and the
        objective trends upward over the run."""
        data = example1_data()
        res = fit(ModelKind.GAUSSIAN, data, PRIOR, TrainConfig(seed=1))
        assert abs(res.posterior.mean[0] - data.values.mean()) < 0.3
        assert abs(res.posterior.mean[1] - math.log(data.values.var())) < 0.35
        fe = res.trace.free_energy
        assert np.mean(fe[-100:]) > np.mean(fe[:20])

    def test_trace_shape_full_data(self):
        data = example1_data()
        res = fit(ModelKind.GAUSSIAN, data, PRIOR, TrainConfig(epochs=25, final_fe_samples=2))
        assert [len(column) for column in res.trace] == [25] * 5
        assert res.trace.step == (0,) * 25
        assert res.trace.epoch == tuple(range(25))
        assert res.steps == 25

    def test_trace_shape_minibatch(self):
        data = example1_data()
        res = fit(
            ModelKind.GAUSSIAN, data, PRIOR,
            TrainConfig(epochs=5, batch_size=10, final_fe_samples=2),
        )
        assert [len(column) for column in res.trace] == [50] * 5
        assert res.trace.step[:10] == tuple(range(10))
        assert res.steps == 50

    def test_fit_leaves_nothing_for_the_garbage_collector(self):
        """After a warm-up fit and a collection, a fit of 4,000 batch-10 steps
        leaves fewer than 50 new objects tracked by the garbage collector, its
        result held: no record or noise pair a step outlives the step."""
        data, config = example1_data(), TrainConfig(batch_size=10, seed=1)
        fit(ModelKind.GAUSSIAN, data, PRIOR, config)
        gc.collect()
        before = len(gc.get_objects())
        result = fit(ModelKind.GAUSSIAN, data, PRIOR, config)
        grown = len(gc.get_objects()) - before
        assert result.steps == 4000
        assert grown < 50, f"{grown} new tracked objects"

    def test_trace_decomposition_logged(self):
        data = example1_data()
        res = fit(ModelKind.GAUSSIAN, data, PRIOR, TrainConfig(epochs=10, final_fe_samples=2))
        trace = res.trace
        for fe, kl, mc in zip(trace.free_energy, trace.kl, trace.mc_loglik, strict=True):
            assert fe == pytest.approx(mc - kl, rel=1e-10)

    def test_minibatch_and_full_data_agree(self):
        """Both strategies converge to nearby posterior means on one dataset."""
        data = example1_data(seed=104)
        full = fit(ModelKind.GAUSSIAN, data, PRIOR, TrainConfig(seed=4))
        mb = fit(ModelKind.GAUSSIAN, data, PRIOR, TrainConfig(seed=4, batch_size=10))
        assert np.all(np.abs(full.posterior.mean - mb.posterior.mean) < 0.15)

    def test_folded_rejects_nonpositive_data(self):
        data = Dataset(np.array([1.0, -0.5, 2.0]))
        with pytest.raises(DomainError):
            fit(ModelKind.FOLDED_NORMAL, data, PRIOR, TrainConfig(epochs=1))

    def test_folded_support_is_checked_before_the_first_step(self, monkeypatch):
        """A zero in folded data stops the fit before any step runs on data
        the likelihood's y > 0 sums assume away."""
        step_fn, steps = engine.free_energy_and_grad, []

        def counted(*args):
            steps.append(args)
            return step_fn(*args)

        monkeypatch.setattr(engine, "free_energy_and_grad", counted)
        data = Dataset(np.array([1.0, 0.0, 2.0]))
        with pytest.raises(DomainError):
            fit(ModelKind.FOLDED_NORMAL, data, PRIOR, TrainConfig(epochs=3))
        assert steps == []

    @pytest.mark.parametrize("batch_size", [None, 30], ids=["full", "batch30"])
    def test_folded_support_is_checked_once(self, monkeypatch, batch_size):
        """The fit checks the data once; its final free energy does not again."""
        calls, inner = [], distributions.check_support
        monkeypatch.setattr(
            distributions, "check_support", lambda *args: calls.append(args) or inner(*args)
        )
        data = model_data(ModelKind.FOLDED_NORMAL)
        fit(ModelKind.FOLDED_NORMAL, data, PRIOR, TrainConfig(epochs=2, batch_size=batch_size))
        assert len(calls) == 1 and calls[0][1] is data.values

    def test_non_integer_seed_raises_before_the_first_step(self, monkeypatch):
        """A seed of 1.9 would otherwise run seed 1's fit and record 1.9."""
        steps = []
        monkeypatch.setattr(engine, "free_energy_and_grad", lambda *args: steps.append(args))
        with pytest.raises(ValueError, match="seed must be an integer"):
            fit(ModelKind.GAUSSIAN, example1_data(), PRIOR, TrainConfig(epochs=3, seed=1.9))
        assert steps == []

    def test_divergent_initialization_aborts_with_diagnostics(self, monkeypatch):
        data = example1_data()
        start_from(monkeypatch, PosteriorParams((0.0, 0.0, 700.0, 700.0, 0.0)))
        with pytest.raises(DivergenceError) as excinfo:
            fit(ModelKind.GAUSSIAN, data, PRIOR, TrainConfig(epochs=1))
        assert excinfo.value.step == 0
        assert "zeta" in str(excinfo.value)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("model", list(ModelKind))
    @pytest.mark.parametrize(
        "prior,init",
        [
            (PRIOR, PosteriorParams((0.0, 0.0, 700.0, 700.0, 0.0))),
            # a finite likelihood at mu = 1e5, but (m - m0)^T C0^-1 (m - m0) overflows
            (
                PriorSpec(m0=[0.0, 0.0], C0=np.diag([1e-300, 1e-300])),
                PosteriorParams((1e5, 0.0, 0.0, 0.0, 0.0)),
            ),
        ],
        ids=["scale-overflow", "kl-overflow"],
    )
    def test_divergence_raises_without_numpy_warnings(self, monkeypatch, model, prior, init):
        """Overflow aborts at step 0 as a DivergenceError; with RuntimeWarning
        promoted to an error, no numpy warning escapes the fit."""
        start_from(monkeypatch, init)
        with pytest.raises(DivergenceError) as excinfo:
            fit(model, model_data(model), prior, TrainConfig(epochs=1))
        assert excinfo.value.step == 0
        assert excinfo.value.zeta.tolist() == list(init.zeta)

    def test_gradient_square_overflow_raises(self, monkeypatch):
        """At log variance -360 the theta2 gradient is finite but its square
        is not; the fit must abort, not continue with a frozen coordinate."""
        init = PosteriorParams((0.0, -360.0, -10.0, -10.0, 0.0))
        start_from(monkeypatch, init)
        with pytest.raises(DivergenceError) as excinfo:
            fit(ModelKind.GAUSSIAN, example1_data(), PRIOR, TrainConfig(epochs=1))
        assert excinfo.value.step == 0
        assert excinfo.value.zeta.tolist() == list(init.zeta)

    @pytest.mark.parametrize(
        "bad, learning_rate",
        [(b, lr) for lr in (0.1, 0.0) for b in (math.nan, math.inf, -math.inf)],
        ids=["nan", "inf", "-inf", "nan-lr0", "inf-lr0", "-inf-lr0"],
    )
    def test_non_finite_gradient_with_finite_objective_aborts(self, monkeypatch, bad, learning_rate):
        """`fit` checks only F; a step with a finite F and a non-finite partial
        still aborts at that step, through Adam's check, with the pre-step zeta,
        also at learning rate 0, where the update is 0 * inf or 0 * NaN."""
        step_fn, zetas = engine.free_energy_and_grad, []

        def bad_fourth_step(batch, zeta, *rest):
            zetas.append(list(zeta))
            fe, mc, kl, grad = step_fn(batch, zeta, *rest)
            if len(zetas) == 4:
                grad = [*grad[:2], bad, *grad[3:]]
            assert math.isfinite(fe)
            return fe, mc, kl, grad

        monkeypatch.setattr(engine, "free_energy_and_grad", bad_fourth_step)
        with pytest.raises(DivergenceError) as excinfo:
            fit(ModelKind.GAUSSIAN, example1_data(), PRIOR,
                TrainConfig(epochs=10, learning_rate=learning_rate))
        assert excinfo.value.step == 3
        assert excinfo.value.zeta.tolist() == zetas[3]
        assert (zetas[3] != zetas[0]) == (learning_rate > 0.0)

    @pytest.mark.parametrize("failed_step", [3, 8])
    def test_divergence_keeps_the_last_trace_records(self, monkeypatch, failed_step):
        """A step that fails after others ran reports, as a `Trace` of tuples,
        the up to DIVERGENCE_RECENT steps before it, as a clean fit records them."""
        config = TrainConfig(epochs=10, final_fe_samples=2)
        clean = fit(ModelKind.GAUSSIAN, example1_data(), PRIOR, config)
        step_fn, steps = engine.free_energy_and_grad, []

        def nan_gradient_at_failed_step(*step_args):
            fe, mc, kl, grad = step_fn(*step_args)
            steps.append(fe)
            return fe, mc, kl, [math.nan] * len(grad) if len(steps) == failed_step + 1 else grad

        monkeypatch.setattr(engine, "free_energy_and_grad", nan_gradient_at_failed_step)
        with pytest.raises(DivergenceError) as excinfo:
            fit(ModelKind.GAUSSIAN, example1_data(), PRIOR, config)
        assert excinfo.value.step == failed_step
        start = max(0, failed_step - engine.DIVERGENCE_RECENT)
        assert excinfo.value.recent == engine.Trace(*(c[start:failed_step] for c in clean.trace))

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

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(mc_samples=0)
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=-1.0)
        for lr in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="finite"):
                TrainConfig(learning_rate=lr)

    @pytest.mark.parametrize(
        "seed, message",
        [
            (1.9, "seed must be an integer"),
            (-1, r"seed must be in \[0, 18446744073709551615\], got -1"),
            (2**64, r"seed must be in \[0, 18446744073709551615\], got 18446744073709551616"),
        ],
        ids=["float", "negative", "2**64"],
    )
    def test_config_refuses_a_seed_fit_would_refuse(self, seed, message):
        """The config checks its seed as `Rng` does, so no record reports a
        seed that no fit can run (1.9 would otherwise be written to the JSON)."""
        with pytest.raises(ValueError, match=message):
            TrainConfig(seed=seed)

    def test_config_stores_a_numpy_integer_seed_as_an_int(self):
        config = TrainConfig(seed=np.uint64(5))
        assert type(config.seed) is int and config.seed == 5
        assert type(config.to_json_dict()["seed"]) is int
