"""Command-line pipeline: generate data, fit, grid-evaluate, compare, export.

Each subcommand writes its outputs plus a JSON manifest carrying the fully
resolved configuration, so any artifact can be reproduced bit for bit by
re-running with the recorded settings.  Output conventions: CSV for tabular
plot data, JSON for structured results, `repr` floats throughout for exact
round-trips, `\\n` line endings, UTF-8.

Exit codes: 0 success, 2 usage or invalid argument, 3 unreadable or
malformed input file, 4 model domain violation, 5 divergence abort,
6 grid underflow.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Iterator

import numpy as np

from . import __version__, engine, grid_oracle
from .distributions import Dataset, DomainError, ModelKind, NaturalParams, pdf, sample_data
from .engine import DivergenceError, TrainConfig, write_trace_csv
from .grid_oracle import GridSpec, GridUnderflowError, compare_moments
from .posterior import PriorSpec, mvn_log_pdf

EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_DOMAIN = 4
EXIT_DIVERGENCE = 5
EXIT_GRID_UNDERFLOW = 6

# Rows per formatted write of a CSV; bounds its memory whatever the size.
DATA_CHUNK_ROWS = 65_536


class DataFileError(RuntimeError):
    """An input file was missing or failed to parse."""


def _write_json(path: Path, obj: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


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


def _reprs(values) -> list[str]:
    """`repr` of every value as a Python float, flattened in C order."""
    return list(map(repr, np.asarray(values, dtype=float).ravel().tolist()))


def _write_columns(path: Path, header: str, blocks) -> None:
    """CSV of preformatted strings under `header`, one join and write per
    block: `blocks` yields lists of equal-length columns of whole rows."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for columns in blocks:
            fh.write("\n".join(map(",".join, zip(*columns))) + "\n")


def _grid_columns(mu_axis, logvar_axis, mass, variance: bool) -> tuple[str, Iterator[list]]:
    """Header and blocks of mu, logvar[, variance], mass columns in row-major
    grid order, each as many whole mu-lines as fit in DATA_CHUNK_ROWS rows
    (one line if a line is longer).

    Each axis value is formatted once (a mu string repeats n_logvar times,
    the per-line strings are tiled once per line); the variance is
    `math.exp(logvar)`, which is not always bitwise `np.exp`.
    """
    mus, lv = _reprs(mu_axis), _reprs(logvar_axis)
    per_line = [lv, _reprs([math.exp(x) for x in logvar_axis.tolist()])] if variance else [lv]
    k = max(1, DATA_CHUNK_ROWS // len(lv))

    def block(i: int) -> list:
        lines = mus[i : i + k]
        repeated = [s for s in lines for _ in lv]
        return [repeated, *(c * len(lines) for c in per_line), _reprs(mass[i : i + k])]

    header = "mu,logvar,variance,mass" if variance else "mu,logvar,mass"
    return header, map(block, range(0, len(mus), k))


def write_data_csv(path: Path, data: Dataset) -> None:
    """The `y` column, formatted and written DATA_CHUNK_ROWS values at a time."""
    chunks = range(0, len(data), DATA_CHUNK_ROWS)
    _write_columns(path, "y", ([_reprs(data.values[i : i + DATA_CHUNK_ROWS])] for i in chunks))


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


def _prior_from_args(args) -> PriorSpec:
    means = _per_dimension(args.prior_mean, "prior-mean")
    variances = _per_dimension(args.prior_var, "prior-var")
    if not all(0.0 < v < math.inf for v in variances):
        raise ValueError("--prior-var entries must be positive and finite")
    return PriorSpec.diagonal(means, variances)


def _per_dimension(values: list[float], flag: str) -> list[float]:
    if len(values) == 1:
        return [values[0], values[0]]
    if len(values) == 2:
        return list(values)
    raise ValueError(f"--{flag} takes one shared value or two per-dimension values")


def _default_mu_range(model: ModelKind) -> tuple[float, float]:
    folded = model is ModelKind.FOLDED_NORMAL
    return grid_oracle.FOLDED_MU_RANGE if folded else grid_oracle.DEFAULT_MU_RANGE


def _grid_spec_from_args(args, model: ModelKind) -> GridSpec:
    mu_range = _default_mu_range(model) if args.mu_range is None else tuple(args.mu_range)
    logvar_range = grid_oracle.DEFAULT_LOGVAR_RANGE
    if args.logvar_range is not None:
        logvar_range = tuple(args.logvar_range)
    return GridSpec(
        mu_range=mu_range,
        logvar_range=logvar_range,
        resolution=args.resolution,
    )


# -- subcommands -------------------------------------------------------------


def cmd_generate(args) -> int:
    if args.variance <= 0:
        raise ValueError("--variance must be positive")
    if args.n < 1:
        raise ValueError("--n must be >= 1")
    model = ModelKind(args.model)
    params = NaturalParams.from_mean_variance(args.mu, args.variance)
    data = sample_data(model, params, args.n, args.seed)
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


def _train_config_from_args(args) -> TrainConfig:
    if args.batch_size == "full":
        batch_size = None
    else:
        batch_size = int(args.batch_size)
        if batch_size < 1:
            raise ValueError("--batch-size must be a positive integer or 'full'")
    return TrainConfig(
        epochs=args.epochs,
        batch_size=batch_size,
        mc_samples=args.mc_samples,
        learning_rate=args.lr,
        seed=args.seed,
        correlation_enabled=not args.no_correlation,
        final_fe_samples=args.final_fe_samples,
        shuffle=args.shuffle,
    )


def cmd_fit(args) -> int:
    data = read_data_csv(Path(args.data))
    result = engine.fit(
        ModelKind(args.model), data, _prior_from_args(args), _train_config_from_args(args)
    )
    base = Path(args.out)
    out_json = _artifact(base, ".json")
    out_trace = _artifact(base, ".trace.csv")
    _write_json(out_json, result.to_json_dict())
    write_trace_csv(result.trace, out_trace)
    _write_manifest(
        _artifact(base, ".manifest.json"),
        subcommand="fit",
        seed=args.seed,
        configuration={"model": args.model, **result.config.to_json_dict()},
        inputs={"data": str(args.data)},
        outputs={"result": out_json.name, "trace": out_trace.name},
    )
    return 0


def cmd_grid(args) -> int:
    model = ModelKind(args.model)
    data = read_data_csv(Path(args.data))
    prior = _prior_from_args(args)
    spec = _grid_spec_from_args(args, model)
    grid = grid_oracle.grid_posterior(model, data, None if args.no_prior else prior, spec)
    base = Path(args.out)
    out_csv = _artifact(base, ".csv")
    out_json = _artifact(base, ".summary.json")
    _write_columns(out_csv, *_grid_columns(grid.mu_axis, grid.logvar_axis, grid.mass, False))
    _write_json(out_json, grid.summary_dict())
    _write_manifest(
        _artifact(base, ".manifest.json"),
        subcommand="grid",
        seed=None,
        configuration={
            "model": model.value,
            "mu_range": list(spec.mu_range),
            "logvar_range": list(spec.logvar_range),
            "resolution": list(spec.axis_counts),
            "include_prior": not args.no_prior,
            "prior_mean": prior.m0.tolist(),
            "prior_var": np.diag(prior.C0).tolist(),
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
            grid_doc["means"],
            grid_doc["variances"],
            grid_doc["rho"],
            post["m"],
            np.diag(np.asarray(post["C"], dtype=float)),
            post["rho"],
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
    params = NaturalParams.from_mean_variance(_TRUE_MU, _TRUE_VARIANCE)
    data = sample_data(model, params, _N_SAMPLES, args.seed)
    prior = PriorSpec.diagonal([0.0, 0.0], [100.0, 100.0])

    fits = {}
    for label, corr in (("nocorr", False), ("corr", True)):
        config = TrainConfig(
            batch_size=settings["batch_size"],
            seed=args.seed,
            correlation_enabled=corr,
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
        _write_columns(pdf_path, "y,pdf", [[_reprs(ys), _reprs(pdf(model, ys, params))]])
        outputs["panel_a_true_pdf"] = pdf_path.name

        # the reference grid reproduces the likelihood-only evaluation
        spec = GridSpec(mu_range=_default_mu_range(model))
        grid = grid_oracle.grid_posterior(model, data, None, spec)
        grid_path = out_dir / "panel_b_grid.csv"
        _write_columns(grid_path, *_grid_columns(grid.mu_axis, grid.logvar_axis, grid.mass, True))
        _write_json(out_dir / "panel_b_grid.summary.json", grid.summary_dict())
        outputs["panel_b_grid"] = grid_path.name
        outputs["panel_b_summary"] = "panel_b_grid.summary.json"

        nodes = grid_oracle.grid_nodes(grid.mu_axis, grid.logvar_axis)
        for panel, label in (("c", "nocorr"), ("d", "corr")):
            q = fits[label].posterior
            log_q = mvn_log_pdf(nodes, q.mean, q.cov)
            mass = grid_oracle.normalize_log_density(log_q)
            path = out_dir / f"panel_{panel}_svb_{label}.csv"
            _write_columns(path, *_grid_columns(grid.mu_axis, grid.logvar_axis, mass, True))
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
        "--prior-mean", type=float, nargs="+", default=[0.0],
        help="prior mean, one shared or two per-dimension values (default 0)",
    )
    parser.add_argument(
        "--prior-var", type=float, nargs="+", default=[100.0],
        help="prior variance per dimension (default 100, noninformative)",
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
    p.add_argument("--mu", type=float, default=1.0)
    p.add_argument("--variance", type=float, default=4.0)
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output base path (writes <out>.csv)")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("fit", help="fit the approximate posterior to a dataset")
    p.add_argument("--data", required=True, help="input data CSV")
    p.add_argument("--model", choices=[m.value for m in ModelKind], default="gaussian")
    p.add_argument("--epochs", type=int, default=400)
    p.add_argument("--batch-size", default="full", help="points per step, or 'full'")
    p.add_argument("--mc-samples", type=int, default=1)
    p.add_argument("--lr", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-correlation", action="store_true")
    p.add_argument("--final-fe-samples", type=int, default=1000)
    p.add_argument("--shuffle", action="store_true")
    _add_prior_flags(p)
    p.add_argument("--out", required=True, help="output base path")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("grid", help="brute-force grid posterior over a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--model", choices=[m.value for m in ModelKind], default="gaussian")
    p.add_argument("--mu-range", type=float, nargs=2, default=None)
    p.add_argument("--logvar-range", type=float, nargs=2, default=None)
    p.add_argument("--resolution", type=int, default=201)
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GridUnderflowError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_GRID_UNDERFLOW
    except DivergenceError as err:
        print(f"error: optimization diverged: {err}", file=sys.stderr)
        if err.recent:
            last_f = ", ".join(repr(r.free_energy) for r in err.recent)
            print(f"F over the {len(err.recent)} steps before: {last_f}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except DomainError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DOMAIN
    except DataFileError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
