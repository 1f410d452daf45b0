"""Command-line pipeline: generate data, fit, grid-evaluate, compare, export.

Each subcommand writes its outputs plus a JSON manifest carrying the fully
resolved configuration, so any artifact can be reproduced bit for bit by
re-running with the recorded settings.  Output conventions: CSV for tabular
plot data (every CSV through `_write_rows`, a block of whole rows at a
time), JSON for structured results, `repr` floats throughout for exact
round-trips, `\\n` line endings, UTF-8.

A command parses its flags into the library's records (which own every
default and check), calls the library, writes what it returns and exits
with the `EXIT_CODES` row of the error class it meets: 0 success, 2 usage
or invalid argument, 3 unreadable or malformed input file, 4 model domain
violation, 5 divergence abort, 6 grid underflow.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from itertools import islice
from pathlib import Path
from typing import Iterator

import numpy as np

from . import __version__, engine, grid_oracle
from .distributions import Dataset, DomainError, ModelKind, pdf, sample_data
from .engine import DivergenceError, Trace, TrainConfig
from .grid_oracle import GridSpec, GridUnderflowError, compare_moments
from .posterior import DEFAULT_PRIOR_MEAN, DEFAULT_PRIOR_VAR, PriorSpec, mvn_log_pdf

# Rows per formatted write of a data or trace CSV; a grid CSV writes a mu-line at a time.
DATA_CHUNK_ROWS = 65_536


class DataFileError(RuntimeError):
    """An input file was missing or failed to parse."""


# the exit code of each error class, most specific first: a DomainError is a ValueError
EXIT_CODES = {
    GridUnderflowError: 6,
    DivergenceError: 5,
    DomainError: 4,
    DataFileError: 3,
    ValueError: 2,
}


def _write_json(path: Path, obj: dict) -> None:
    """`obj` as JSON; a non-finite number raises ValueError before the file is opened."""
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text + "\n")


def _artifact(base: Path, suffix: str) -> Path:
    """`base` with `suffix` appended to its whole name, dots included."""
    return base.with_name(base.name + suffix)


def _write_manifest(
    path: Path, *, subcommand: str, seed: int | None, configuration: dict, inputs: dict,
    outputs: dict,
) -> None:
    """The reproducibility record of one run: its resolved settings and files."""
    _write_json(path, {
        "artifact": "svbayes", "version": __version__, "subcommand": subcommand, "seed": seed,
        "configuration": configuration, "inputs": inputs, "outputs": outputs,
    })


def _prior_fields(prior: PriorSpec | None) -> dict:
    """A manifest's prior mean and variances, both None without a prior."""
    var = prior and np.diag(prior.C0).tolist()
    return {"prior_mean": prior and prior.m0.tolist(), "prior_var": var}


def _reprs(values) -> list[str]:
    """`repr` of every value as a Python float, flattened in C order."""
    return list(map(repr, np.asarray(values, dtype=float).ravel().tolist()))


def _write_rows(path: Path, header: str, blocks) -> None:
    """CSV under `header`: each of `blocks` is a list of `\\n`-ended row
    strings, joined and written in one piece (its list freed before the write)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        fh.writelines(map("".join, blocks))


def _grid_rows(mu_axis, logvar_axis, mass, variance: bool) -> Iterator[list[str]]:
    """mu, logvar[, variance], mass rows in grid order, a block per mu-line: a
    mu formatted once a line, the logvar[, variance] tails once a grid (the
    variance is `math.exp(logvar)`, not always bitwise `np.exp`)."""
    tails = _reprs(logvar_axis)
    if variance:
        tails = [f"{lv},{math.exp(x)!r}" for lv, x in zip(tails, logvar_axis.tolist())]
    for mu, line in zip(_reprs(mu_axis), mass):
        yield [f"{mu},{tail},{m}\n" for tail, m in zip(tails, _reprs(line))]


def write_data_csv(path: Path, data: Dataset) -> None:
    """The `y` column, DATA_CHUNK_ROWS values a block."""
    values, n = data.values, DATA_CHUNK_ROWS
    blocks = ([f"{y!r}\n" for y in values[i : i + n].tolist()] for i in range(0, len(values), n))
    _write_rows(path, "y", blocks)


def write_trace_csv(trace: Trace, path) -> None:
    """The per-step trace, a row a step zipped from the columns, DATA_CHUNK_ROWS a block."""
    rows = zip(*trace)
    blocks = ([f"{e},{s},{f!r},{k!r},{m!r}\n" for e, s, f, k, m in islice(rows, DATA_CHUNK_ROWS)]
              for _ in range(0, len(trace.step), DATA_CHUNK_ROWS))
    _write_rows(Path(path), "epoch,step,F,kl,mc_loglik", blocks)


def read_data_csv(path: Path) -> Dataset:
    """The `y` column of a data CSV, streamed line by line into one array."""
    try:
        with open(path, encoding="utf-8") as fh:
            if fh.readline().strip() != "y":
                raise DataFileError(f"{path}: expected a CSV with header 'y'")
            try:  # blank lines are skipped
                values = np.fromiter(map(float, filter(None, map(str.strip, fh))), float)
            except ValueError as err:
                raise DataFileError(f"{path}: malformed value ({err})") from err
    except OSError as err:
        raise DataFileError(f"cannot read data file {path}: {err}") from err
    if not values.size:
        raise DataFileError(f"{path}: no data rows")
    try:
        return Dataset(values)
    except ValueError as err:
        raise DataFileError(f"{path}: {err}") from err


# -- subcommands -------------------------------------------------------------


def cmd_generate(args) -> int:
    model = ModelKind(args.model)
    data = sample_data(model, args.mu, args.variance, args.n, args.seed)
    base = Path(args.out)
    out = _artifact(base, ".csv")
    write_data_csv(out, data)
    _write_manifest(
        _artifact(base, ".manifest.json"),
        subcommand="generate",
        seed=args.seed,
        configuration={
            "model": model.value, "mu": args.mu, "variance": args.variance, "n": args.n
        },
        inputs={},
        outputs={"data": out.name},
    )
    return 0


def cmd_fit(args) -> int:
    try:  # the flag also takes 'full', so argparse cannot convert it
        batch_size = None if args.batch_size == "full" else int(args.batch_size)
    except ValueError:
        got = args.batch_size
        raise ValueError(f"--batch-size must be a whole number or 'full', got {got!r}") from None
    data = read_data_csv(Path(args.data))
    prior = PriorSpec.diagonal(args.prior_mean, args.prior_var)
    config = TrainConfig(
        epochs=args.epochs, batch_size=batch_size, mc_samples=args.mc_samples,
        learning_rate=args.lr, seed=args.seed, correlation_enabled=not args.no_correlation,
        final_fe_samples=args.final_fe_samples, shuffle=args.shuffle,
    )
    result = engine.fit(ModelKind(args.model), data, prior, config)
    base = Path(args.out)
    out_json = _artifact(base, ".json")
    out_trace = _artifact(base, ".trace.csv")
    _write_json(out_json, result.to_json_dict())
    write_trace_csv(result.trace, out_trace)
    _write_manifest(
        _artifact(base, ".manifest.json"),
        subcommand="fit",
        seed=args.seed,
        configuration={"model": args.model, **config.to_json_dict(), **_prior_fields(prior)},
        inputs={"data": str(args.data)},
        outputs={"result": out_json.name, "trace": out_trace.name},
    )
    return 0


def cmd_grid(args) -> int:
    model = ModelKind(args.model)
    data = read_data_csv(Path(args.data))
    prior = None if args.no_prior else PriorSpec.diagonal(args.prior_mean, args.prior_var)
    spec = GridSpec(
        args.mu_range and tuple(args.mu_range), tuple(args.logvar_range), args.resolution
    )
    grid = grid_oracle.grid_posterior(model, data, prior, spec)
    base = Path(args.out)
    out_csv = _artifact(base, ".csv")
    out_json = _artifact(base, ".summary.json")
    rows = _grid_rows(grid.mu_axis, grid.logvar_axis, grid.mass, False)
    _write_rows(out_csv, "mu,logvar,mass", rows)
    _write_json(out_json, grid.summary_dict())
    _write_manifest(
        _artifact(base, ".manifest.json"),
        subcommand="grid",
        seed=None,
        configuration={
            "model": model.value,
            "mu_range": grid.mu_axis[[0, -1]].tolist(),  # linspace keeps the range's ends exactly
            "logvar_range": list(spec.logvar_range),
            "resolution": [spec.resolution] * 2,
            "include_prior": prior is not None,
            **_prior_fields(prior),
        },
        inputs={"data": str(args.data)},
        outputs={"mass": out_csv.name, "summary": out_json.name},
    )
    return 0


def cmd_compare(args) -> int:
    try:
        fit_doc = json.loads(Path(args.fit_json).read_text(encoding="utf-8"))
        grid_doc = json.loads(Path(args.grid_summary).read_text(encoding="utf-8"))
    except OSError as err:
        raise DataFileError(f"cannot read input: {err}") from err
    except json.JSONDecodeError as err:
        raise DataFileError(f"malformed JSON input: {err}") from err
    try:
        post = fit_doc["posterior"]
        report = compare_moments(
            grid_doc["means"], grid_doc["variances"], grid_doc["rho"], post["m"], post["C"]
        )
    except KeyError as err:
        raise DataFileError(f"incompatible artifacts: missing field {err}") from err
    except (TypeError, ValueError) as err:
        raise DataFileError(f"incompatible artifacts: {err}") from err
    print(report.table())
    if args.out is not None:
        base = Path(args.out)
        out_json = _artifact(base, ".json")
        _write_json(out_json, report.to_json_dict())
        _write_manifest(
            _artifact(base, ".manifest.json"),
            subcommand="compare",
            seed=None,
            configuration={},
            inputs={"fit": str(args.fit_json), "grid_summary": str(args.grid_summary)},
            outputs={"report": out_json.name},
        )
    return 0


# -- figure bundles -----------------------------------------------------------

_FIGURES = {
    1: {"model": ModelKind.GAUSSIAN, "batch_size": None, "panels": True},
    2: {"model": ModelKind.GAUSSIAN, "batch_size": None, "panels": False},
    3: {"model": ModelKind.GAUSSIAN, "batch_size": 10, "panels": True},
    4: {"model": ModelKind.GAUSSIAN, "batch_size": 10, "panels": False},
    5: {"model": ModelKind.FOLDED_NORMAL, "batch_size": None, "panels": True},
    6: {"model": ModelKind.FOLDED_NORMAL, "batch_size": 10, "panels": True},
}

_TRUE_MU = 1.0
_TRUE_VARIANCE = 4.0
_N_SAMPLES = 100


def cmd_figure(args) -> int:
    if args.figure_id not in _FIGURES:
        raise ValueError(f"figure id must be one of {sorted(_FIGURES)}")
    settings = _FIGURES[args.figure_id]
    model: ModelKind = settings["model"]
    data = sample_data(model, _TRUE_MU, _TRUE_VARIANCE, _N_SAMPLES, args.seed)
    prior = PriorSpec.diagonal(DEFAULT_PRIOR_MEAN, DEFAULT_PRIOR_VAR)

    fits = {}
    for label, corr in (("nocorr", False), ("corr", True)):
        config = TrainConfig(
            batch_size=settings["batch_size"], seed=args.seed, correlation_enabled=corr
        )
        fits[label] = engine.fit(model, data, prior, config)

    # the first write (`_write_json`) makes the directory: a refused seed or a
    # diverged fit leaves nothing behind
    out_dir, outputs = Path(args.out_dir), {}
    for label, result in fits.items():
        fit_path = out_dir / f"fit_{label}.json"
        _write_json(fit_path, result.to_json_dict())
        outputs[f"fit_{label}"] = fit_path.name
        trace_path = out_dir / f"trace_{label}.csv"
        write_trace_csv(result.trace, trace_path)
        outputs[f"trace_{label}"] = trace_path.name

    if settings["panels"]:
        data_path = out_dir / "panel_a_data.csv"
        write_data_csv(data_path, data)
        outputs["panel_a_data"] = data_path.name

        sigma = math.sqrt(_TRUE_VARIANCE)
        lo = 1e-6 if model is ModelKind.FOLDED_NORMAL else _TRUE_MU - 4 * sigma
        ys = np.linspace(lo, _TRUE_MU + 4 * sigma, 201)
        pdf_path = out_dir / "panel_a_true_pdf.csv"
        density = _reprs(pdf(model, ys, _TRUE_MU, _TRUE_VARIANCE))
        rows = [f"{y},{p}\n" for y, p in zip(_reprs(ys), density)]
        _write_rows(pdf_path, "y,pdf", [rows])
        outputs["panel_a_true_pdf"] = pdf_path.name

        # the reference grid reproduces the likelihood-only evaluation
        grid = grid_oracle.grid_posterior(model, data, None, GridSpec())
        grid_path = out_dir / "panel_b_grid.csv"
        header = "mu,logvar,variance,mass"
        _write_rows(grid_path, header, _grid_rows(grid.mu_axis, grid.logvar_axis, grid.mass, True))
        _write_json(out_dir / "panel_b_grid.summary.json", grid.summary_dict())
        outputs["panel_b_grid"] = grid_path.name
        outputs["panel_b_summary"] = "panel_b_grid.summary.json"

        nodes = grid_oracle.grid_nodes(grid.mu_axis, grid.logvar_axis)
        for panel, label in (("c", "nocorr"), ("d", "corr")):
            q = fits[label].posterior
            log_q = mvn_log_pdf(nodes, q.mean, q.cov)
            mass = grid_oracle.normalize_log_density(log_q)
            path = out_dir / f"panel_{panel}_svb_{label}.csv"
            _write_rows(path, header, _grid_rows(grid.mu_axis, grid.logvar_axis, mass, True))
            outputs[f"panel_{panel}_svb"] = path.name

    _write_manifest(
        out_dir / "manifest.json",
        subcommand="figure",
        seed=args.seed,
        configuration={
            "figure_id": args.figure_id,
            "model": model.value,
            "mu": _TRUE_MU,
            "variance": _TRUE_VARIANCE,
            "n": _N_SAMPLES,
            "batch_size": settings["batch_size"],
            "epochs": fits["corr"].config.epochs,
            "learning_rate": fits["corr"].config.learning_rate,
            "mc_samples": fits["corr"].config.mc_samples,
        },
        inputs={},
        outputs=outputs,
    )
    return 0


# -- argument parsing ---------------------------------------------------------


def _add_prior_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--prior-mean", type=float, nargs="+", default=[DEFAULT_PRIOR_MEAN],
        help="prior mean, one shared or two per-dimension values "
        f"(default {DEFAULT_PRIOR_MEAN:g})",
    )
    parser.add_argument(
        "--prior-var", type=float, nargs="+", default=[DEFAULT_PRIOR_VAR],
        help=f"prior variance per dimension (default {DEFAULT_PRIOR_VAR:g}, noninformative)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="svbayes",
        description="Stochastic variational Bayes with a grid-search reference.",
    )
    parser.add_argument("--version", action="version", version=f"svbayes {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("generate", help="sample a synthetic dataset to CSV")
    p.add_argument("--model", choices=[m.value for m in ModelKind], default="gaussian")
    p.add_argument("--mu", type=float, default=_TRUE_MU)
    p.add_argument("--variance", type=float, default=_TRUE_VARIANCE)
    p.add_argument("--n", type=int, default=_N_SAMPLES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output base path (writes <out>.csv)")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("fit", help="fit the approximate posterior to a dataset")
    p.add_argument("--data", required=True, help="input data CSV")
    p.add_argument("--model", choices=[m.value for m in ModelKind], default="gaussian")
    p.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    p.add_argument("--batch-size", default="full", help="points per step, or 'full'")
    p.add_argument("--mc-samples", type=int, default=TrainConfig.mc_samples)
    p.add_argument("--lr", type=float, default=TrainConfig.learning_rate)
    p.add_argument("--seed", type=int, default=TrainConfig.seed)
    p.add_argument("--no-correlation", action="store_true")
    p.add_argument("--final-fe-samples", type=int, default=TrainConfig.final_fe_samples)
    p.add_argument("--shuffle", action="store_true")
    _add_prior_flags(p)
    p.add_argument("--out", required=True, help="output base path")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("grid", help="brute-force grid posterior over a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--model", choices=[m.value for m in ModelKind], default="gaussian")
    p.add_argument("--mu-range", type=float, nargs=2, default=None)
    p.add_argument(
        "--logvar-range", type=float, nargs=2, default=grid_oracle.DEFAULT_LOGVAR_RANGE
    )
    p.add_argument("--resolution", type=int, default=grid_oracle.DEFAULT_RESOLUTION)
    p.add_argument("--no-prior", action="store_true")
    _add_prior_flags(p)
    p.add_argument("--out", required=True, help="output base path")
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("compare", help="compare a fit result with a grid summary")
    p.add_argument("fit_json")
    p.add_argument("grid_summary")
    p.add_argument("--out", default=None, help="optional output base path")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("figure", help="emit plot-ready data for one worked figure")
    p.add_argument("figure_id", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_figure)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(EXIT_CODES) as err:
        diverged = isinstance(err, DivergenceError)
        print(f"error: {'optimization diverged: ' if diverged else ''}{err}", file=sys.stderr)
        if diverged and err.recent.step:
            last_f = ", ".join(map(repr, err.recent.free_energy))
            print(f"F over the {len(err.recent.step)} steps before: {last_f}", file=sys.stderr)
        return next(code for cls, code in EXIT_CODES.items() if isinstance(err, cls))


if __name__ == "__main__":
    sys.exit(main())
