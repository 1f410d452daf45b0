"""The benchmark's workloads: what each runs, on which input, and why.

Each workload is one `svbayes` CLI invocation run over and over on one
input CSV that the benchmark generates from its seed.  The program sees
only that file.  `predicted_shares` are the per-layer self-time shares of
one op measured when the benchmark was defined (2-core x86 box, Python 3.11,
numpy 2.4, one BLAS thread); a key "a+b" is the summed share of several
layers.  The traced run prints them next to what it measures, so a drift in
the layer shape shows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

TRUE_MU = 1.0
TRUE_VARIANCE = 4.0
EPOCHS = 400
FINAL_FE_SAMPLES = 1000  # the CLI default, re-estimating F after the loop
GRID_NODES = 201 * 201  # the CLI default resolution


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    model: str  # CLI --model value
    n_points: int
    cli_args: tuple[str, ...]  # everything but --data/--out
    steps_per_op: int  # optimizer steps per op; 0 for the grid
    terms_per_op: int  # likelihood terms (data point x parameter point) per op
    majority: str  # layers ("a+b") whose self time should be most of an op
    calibration: str  # the calibrate.py kernel doing the same kind of work
    predicted_shares: dict = field(default_factory=dict)  # layers -> op share

    @property
    def is_fit(self) -> bool:
        return self.cli_args[0] == "fit"

    def argv(self, data_path: str, out_base: str) -> list[str]:
        head, *rest = self.cli_args
        return [head, "--data", data_path, *rest, "--out", out_base]


def _fit_terms(n_points: int) -> int:
    # every epoch passes the data once, whatever the batch size, then the
    # final free energy evaluates the full data at each of its samples
    return EPOCHS * n_points + FINAL_FE_SAMPLES * n_points


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="fit-folded-full",
            why=(
                "The per-point tape likelihood dominates: distributions and "
                "autodiff.Tape.grad are most of the op. ROADMAP item 2 "
                "(batch-vectorized likelihood) aims here."
            ),
            model="folded-normal",
            n_points=100,
            cli_args=("fit", "--model", "folded-normal", "--epochs", str(EPOCHS)),
            steps_per_op=EPOCHS,
            terms_per_op=_fit_terms(100),
            majority="distributions+autodiff",
            calibration="interpreter",
            predicted_shares={
                "distributions": 0.70,
                "autodiff": 0.13,
                "posterior": 0.06,
                "optimizer": 0.013,
                "rng": 0.008,
                "engine": 0.07,
                "cli": 0.02,
            },
        ),
        Workload(
            name="fit-gaussian-mb10",
            why=(
                "The fixed per-step cost dominates (KL tape, reparam, lift, "
                "PosteriorParams re-validation, Adam, RNG): 4,000 small steps "
                "and ~860 KB of fit JSON plus trace per op."
            ),
            model="gaussian",
            n_points=100,
            cli_args=(
                "fit", "--model", "gaussian", "--batch-size", "10",
                "--epochs", str(EPOCHS),
            ),
            steps_per_op=EPOCHS * 10,
            terms_per_op=_fit_terms(100),
            majority="posterior+engine+optimizer+rng",
            calibration="interpreter",
            predicted_shares={
                "distributions": 0.18,
                "autodiff": 0.10,
                "posterior": 0.45,
                "optimizer": 0.075,
                "rng": 0.03,
                "engine": 0.15,
                "cli": 0.04,
            },
        ),
        Workload(
            name="grid-folded-n1000",
            why=(
                "No tape, optimizer or RNG: grid_posterior evaluates 40.4 M "
                "terms through a 323 MB array (ROADMAP item 4), then writes "
                "a 1.9 MB mass CSV (the write path)."
            ),
            model="folded-normal",
            n_points=1000,
            cli_args=("grid", "--model", "folded-normal"),
            steps_per_op=0,
            terms_per_op=GRID_NODES * 1000,
            majority="grid_oracle+distributions",
            calibration="numpy",
            predicted_shares={
                "grid_oracle+distributions": 0.86,
                "autodiff+optimizer": 0.0,
                "cli": 0.135,
            },
        ),
    )
}


def write_input(workload: Workload, seed: int, path) -> None:
    """Draw the workload's data from `seed` and write it as the CLI's CSV.

    The draws come from numpy's generator, not from svbayes, so a change to
    the program cannot change its own inputs.  Folded data is the absolute
    value of the Gaussian draws.
    """
    rng = np.random.default_rng(seed)
    values = rng.normal(TRUE_MU, np.sqrt(TRUE_VARIANCE), workload.n_points)
    if workload.model == "folded-normal":
        values = np.abs(values)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("y\n")
        fh.writelines(f"{float(v)!r}\n" for v in values)
