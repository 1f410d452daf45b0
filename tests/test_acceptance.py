"""Acceptance suite: every exit criterion at its pinned tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion.  Fits share a cache, so criteria that reuse the same seeds do
not repeat work.  All randomness is seeded; reruns are bitwise identical.
"""

import functools
import json
import math
import time

import numpy as np
import pytest

from numdiff import central_differences, max_rel_error
from svbayes import cli
from svbayes.distributions import (
    ModelKind,
    folded_normal_log_pdf,
    loglik_terms,
    make_batches,
    sample_data,
)
from svbayes.engine import TrainConfig, fit, free_energy_and_grad
from svbayes.grid_oracle import GridSpec, grid_posterior
from svbayes.posterior import (
    PosteriorParams,
    PriorSpec,
    cholesky_factor,
    kl_value,
    mvn_log_pdf,
)

PRIOR = PriorSpec(m0=[0.0, 0.0], C0=np.diag([100.0, 100.0]))
TRUE_MU, TRUE_VARIANCE = 1.0, 4.0
GAUSSIAN_SEEDS = (1, 2, 3, 4, 5)
MINIBATCH_SEEDS = (4, 5, 7)
FOLDED_SEEDS = (1, 2, 3, 4, 5)


def report(criterion, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {criterion:02d}] {status} {detail}", flush=True)
    assert passed, f"criterion {criterion}: {detail}"


@functools.lru_cache(maxsize=None)
def gaussian_data(seed):
    return sample_data(ModelKind.GAUSSIAN, TRUE_MU, TRUE_VARIANCE, 100, seed=100 + seed)


@functools.lru_cache(maxsize=None)
def gaussian_fit(seed, batch_size=None):
    config = TrainConfig(epochs=400, batch_size=batch_size, seed=seed)
    return fit(ModelKind.GAUSSIAN, gaussian_data(seed), PRIOR, config)


@functools.lru_cache(maxsize=None)
def gaussian_grid(seed):
    return grid_posterior(ModelKind.GAUSSIAN, gaussian_data(seed), PRIOR, GridSpec())


def per_epoch_mean(result):
    by = {}
    for epoch, fe in zip(result.trace.epoch, result.trace.free_energy, strict=True):
        by.setdefault(epoch, []).append(fe)
    return np.array([np.mean(by[e]) for e in sorted(by)])


def per_step_tail(result, n_epochs=100):
    epochs, fe = np.array(result.trace.epoch), np.array(result.trace.free_energy)
    return fe[epochs > epochs.max() - n_epochs]


def convergence_epoch(result, window=10):
    """First epoch whose forward `window`-epoch mean free energy is within
    two final-plateau noise SDs of the plateau level.

    The plateau level and noise come from the per-step values over the last
    100 epochs; windowed means damp single-step luck in the noisy per-step
    series.
    """
    series = per_epoch_mean(result)
    tail = per_step_tail(result)
    threshold = tail.mean() - 2.0 * tail.std()
    smoothed = np.convolve(series, np.ones(window) / window, mode="valid")
    hits = np.nonzero(smoothed >= threshold)[0]
    return int(hits[0]) if hits.size else len(series)


def test_criterion_1_gradient_correctness():
    """The gradient `fit` follows matches central differences of the objective."""
    (batch,) = make_batches(ModelKind.GAUSSIAN, gaussian_data(1).values, 100)
    rng = np.random.default_rng(314)
    start = time.monotonic()
    worst = 0.0
    for i in range(20):
        n_samples = 1 if i < 10 else 3
        eps = [rng.standard_normal(2) for _ in range(n_samples)]
        noise = np.column_stack((np.ones(n_samples), eps))  # [1 | eps], as `fit` passes it

        def objective(zeta):
            return free_energy_and_grad(batch, zeta, noise, PRIOR)

        at = np.concatenate([
            rng.uniform(-2, 3, size=2), rng.uniform(-2, 1, size=2),
            rng.uniform(-1, 1, size=1),
        ])
        fd = central_differences(lambda z: objective(z)[0], at)
        _, _, _, grad = objective(at)
        worst = max(worst, max_rel_error(grad, fd))
    elapsed = time.monotonic() - start
    report(1, worst < 1e-4 and elapsed < 10.0,
           f"max rel err {worst:.2e} over 20 points in {elapsed:.1f}s")


def test_criterion_2_kl_closed_form_vs_monte_carlo():
    """Closed-form KL within 3 SE of a 1e5-sample estimate, and nonnegative."""
    rng = np.random.default_rng(271)
    start = time.monotonic()
    ok = True
    detail = ""
    for i in range(20):
        m, v = rng.uniform(-3, 3, size=2), rng.uniform(-1.5, 1.5, size=2)
        params = PosteriorParams((*m, *v, *rng.uniform(-2, 2, size=1)))
        a = rng.uniform(-1, 1, size=(2, 2))
        prior = PriorSpec(
            m0=rng.uniform(-2, 2, size=2),
            C0=a @ a.T + np.eye(2) * rng.uniform(0.5, 2.0),
        )
        closed = kl_value(params, prior)
        if closed < -1e-10:
            ok, detail = False, f"negative KL {closed}"
            break
        s = cholesky_factor(params)
        c = params.cov
        draws = params.mean + rng.standard_normal((100_000, 2)) @ s.T
        diff = draws - params.mean
        inv = np.linalg.inv(c)
        logq = -0.5 * (
            np.einsum("ni,ij,nj->n", diff, inv, diff)
            + np.linalg.slogdet(c)[1] + 2 * math.log(2 * math.pi)
        )
        samples = logq - mvn_log_pdf(draws, prior.m0, prior.C0)
        se = samples.std(ddof=1) / math.sqrt(samples.size)
        if abs(closed - samples.mean()) >= 3.0 * se:
            ok, detail = False, f"pair {i}: |{closed:.4f} - {samples.mean():.4f}| >= 3*{se:.4f}"
            break
    elapsed = time.monotonic() - start
    report(2, ok and elapsed < 30.0, detail or f"20 pairs within 3 SE in {elapsed:.1f}s")


def test_criterion_3_reparameterization_moments():
    """1e5 reparameterized samples reproduce the first two moments."""
    params = PosteriorParams((1.0, -0.5, math.log(0.8), math.log(1.2), 0.7))
    eps = np.random.default_rng(2718).standard_normal((100_000, 2))
    s = cholesky_factor(params)
    draws = params.mean + eps @ s.T
    c = params.cov
    mean_ok = all(
        abs(draws[:, i].mean() - params.zeta[i]) < 4.0 * math.sqrt(c[i, i]) / math.sqrt(1e5)
        for i in range(2)
    )
    emp = np.cov(draws.T)
    cov_ok = np.all(np.abs(emp / c - 1.0) < 0.02)
    report(3, mean_ok and cov_ok,
           f"mean err {np.abs(draws.mean(axis=0) - params.mean).max():.4f}, "
           f"cov rel err {np.abs(emp / c - 1.0).max():.4f}")


def test_criterion_4_gaussian_end_to_end():
    """Full-data fits land on the grid posterior for 4 of 5 fixed seeds."""
    passes = 0
    details = []
    for seed in GAUSSIAN_SEEDS:
        start = time.monotonic()
        result = gaussian_fit(seed)
        grid = gaussian_grid(seed)
        elapsed = time.monotonic() - start
        mean_diff = np.abs(result.posterior.mean - grid.means)
        sd_ratio = math.sqrt(result.posterior.cov[0, 0] / grid.variances[0])
        ok = bool(np.all(mean_diff < 0.15) and abs(sd_ratio - 1.0) < 0.25)
        passes += ok
        details.append(f"seed {seed}: dm={mean_diff.max():.3f} sdr={sd_ratio:.2f} {elapsed:.1f}s")
        assert elapsed < 60.0, f"seed {seed} exceeded runtime budget: {elapsed:.1f}s"
    report(4, passes >= 4, f"{passes}/5 seeds ({'; '.join(details)})")


def test_criterion_5_minibatch_equivalence():
    """Batch size 10: 4000 steps, means near the full-data run, convergence
    in epochs no later than full data."""
    ok = True
    details = []
    for seed in MINIBATCH_SEEDS:
        full = gaussian_fit(seed)
        mb = gaussian_fit(seed, batch_size=10)
        steps_ok = mb.steps == 4000 and [len(column) for column in mb.trace] == [4000] * 5
        mean_diff = np.abs(full.posterior.mean - mb.posterior.mean)
        conv_full = convergence_epoch(full)
        conv_mb = convergence_epoch(mb)
        seed_ok = steps_ok and bool(np.all(mean_diff < 0.15)) and conv_mb <= conv_full
        ok = ok and seed_ok
        details.append(
            f"seed {seed}: dm={mean_diff.max():.3f} conv mb/full={conv_mb}/{conv_full}"
        )
    report(5, ok, "; ".join(details))


def test_criterion_6_convergence_window():
    """Free energy plateaus well before the end and improves over the start."""
    ok = True
    details = []
    for seed in (4, 5):
        series = per_epoch_mean(gaussian_fit(seed))
        drift = abs(series[300:400].mean() - series[200:300].mean())
        noise = series[300:400].std()
        plateau_ok = drift < 2.0 * noise
        trend_ok = series[100:].mean() > series[:20].mean()
        ok = ok and plateau_ok and trend_ok
        details.append(f"seed {seed}: drift={drift:.2f} vs 2sd={2 * noise:.2f}")
    report(6, ok, "; ".join(details))


def test_criterion_7_folded_normal_correlation():
    """Correlation sign matches the grid oracle with clear magnitude for
    4 of 5 fixed seeds.

    The folded likelihood is even in mu, so the grid runs on the canonical
    mu >= 0 halfplane and fits that land in the mirror mode are reflected
    (mu and rho change sign) before comparison.
    """
    spec = GridSpec(mu_range=(0.0, 3.0))
    passes = 0
    details = []
    for seed in FOLDED_SEEDS:
        data = sample_data(ModelKind.FOLDED_NORMAL, TRUE_MU, TRUE_VARIANCE, 100, seed=200 + seed)
        result = fit(ModelKind.FOLDED_NORMAL, data, PRIOR, TrainConfig(epochs=400, seed=seed))
        grid = grid_posterior(ModelKind.FOLDED_NORMAL, data, PRIOR, spec)
        rho = result.posterior.rho
        if result.posterior.mean[0] < 0:
            rho = -rho
        ok = np.sign(rho) == np.sign(grid.rho) and abs(rho) > 0.1
        passes += bool(ok)
        details.append(f"seed {seed}: rho={rho:.2f} grid={grid.rho:.2f}")
    report(7, passes >= 4, f"{passes}/5 seeds ({'; '.join(details)})")


def test_criterion_8_folded_formulation_equivalence():
    """Two-term and cosh-form densities agree pointwise on the mesh, and the
    density integrates to one."""
    ys = np.linspace(0.02, 10.0, 50)[:, None, None]
    mus = np.linspace(-3.0, 3.0, 25)[None, :, None]
    betas = np.linspace(0.1, 10.0, 25)[None, None, :]
    c = np.sqrt(betas / (2 * np.pi))
    two_term = c * np.exp(-0.5 * betas * (ys - mus) ** 2) + c * np.exp(
        -0.5 * betas * (ys + mus) ** 2
    )
    cosh_form = (
        np.sqrt(2 * betas / np.pi)
        * np.exp(-0.5 * betas * (ys**2 + mus**2))
        * np.cosh(betas * mus * ys)
    )
    ours = np.exp(folded_normal_log_pdf(ys, mus, betas))
    forms_ok = np.allclose(two_term, cosh_form, rtol=1e-10, atol=1e-300) and np.allclose(
        ours, two_term, rtol=1e-10, atol=1e-300
    )
    integral_ok = True
    for mu, variance in ((1.0, 4.0), (-2.0, 0.5), (0.0, 1.0)):
        grid = np.linspace(1e-12, abs(mu) + 10 * math.sqrt(variance), 200001)
        total = np.trapezoid(np.exp(folded_normal_log_pdf(grid, mu, 1.0 / variance)), grid)
        integral_ok = integral_ok and abs(total - 1.0) < 1e-6
    rel = np.abs(ours - two_term) / np.maximum(two_term, 1e-300)
    report(8, forms_ok and integral_ok, f"max form rel diff {rel.max():.2e}")


def test_criterion_9_minibatch_likelihood_identity():
    """Equal-partition mean of scaled batch log-likelihoods equals the
    full-data log-likelihood to 1e-10 relative."""
    data = gaussian_data(1)
    mu, theta2 = np.array([0.8]), np.array([1.2])

    def value(batch):
        return loglik_terms(batch, mu, theta2, partials=False)[0][0]

    full = value(make_batches(ModelKind.GAUSSIAN, data.values, 100)[0])
    ok = True
    worst = 0.0
    for bs in (5, 10, 20, 25, 50, 100):
        vals = [value(b) for b in make_batches(ModelKind.GAUSSIAN, data.values, bs)]
        rel = abs(np.mean(vals) - full) / abs(full)
        worst = max(worst, rel)
        ok = ok and rel < 1e-10
    report(9, ok, f"max rel deviation {worst:.2e}")


def test_criterion_10_final_free_energy_stability():
    """The 1000-sample final estimate is at least 5x tighter than the raw
    per-step values near convergence."""
    result = gaussian_fit(1)
    assert result.config.final_fe_samples == 1000
    _, se = result.final_free_energy
    step_sd = per_step_tail(result).std()
    report(10, 5.0 * se <= step_sd, f"5*se={5 * se:.3f} vs step sd={step_sd:.3f}")


def test_criterion_11_cli_determinism(tmp_path):
    """Repeating the same invocation reproduces every output byte for byte."""
    d = tmp_path
    commands = [
        ["generate", "--seed", "11", "--out", str(d / "data")],
        [
            "fit", "--data", str(d / "data.csv"), "--epochs", "60", "--seed", "2",
            "--out", str(d / "fit"),
        ],
        [
            "grid", "--data", str(d / "data.csv"), "--resolution", "61",
            "--out", str(d / "grid"),
        ],
        [
            "compare", str(d / "fit.json"), str(d / "grid.summary.json"),
            "--out", str(d / "cmp"),
        ],
        ["figure", "2", "--seed", "7", "--out-dir", str(d / "fig2")],
    ]
    snapshots = []
    for _ in range(2):
        for argv in commands:
            assert cli.main(argv) == 0
        snapshots.append(
            {
                str(p.relative_to(d)): p.read_bytes()
                for p in sorted(d.rglob("*"))
                if p.is_file()
            }
        )
    matched = snapshots[0] == snapshots[1]
    report(11, matched, f"{len(snapshots[0])} files bitwise identical across reruns")
