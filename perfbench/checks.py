"""Per-op output checks: every op's artifacts are parsed and judged.

An op fails on any of: a nonzero exit code; an artifact that is missing or
does not parse; a non-finite posterior mean, covariance or final free
energy; grid mass that does not sum to 1 within 1e-9; a fit mean more than
4 grid standard deviations from the set-up reference grid on either
coordinate (a folded fit is reflected into mu >= 0 first); a grid summary
off the reference by more than 1e-9; or any artifact that differs by a
byte from the run's first op (run-to-run determinism).

The 4-sd gap is a gross-error check on purpose.  Over 12 seeds the worst
gap was 1.05 sd (gaussian mini-batch) and 1.97 sd (folded full data); the
acceptance suite's 0.15 mean-gap and rho-sign tolerances are too tight to
gate a per-op failure ratio on.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

MAX_SD_GAP = 4.0
TOLERANCE = 1e-9
USEFUL_MASS = 1e-12  # a grid cell is useful when its mass is >= this share of the peak

FIT_ARTIFACTS = {"result": ".json", "trace": ".trace.csv", "manifest": ".manifest.json"}
GRID_ARTIFACTS = {"mass": ".csv", "summary": ".summary.json", "manifest": ".manifest.json"}


def _read_csv(path: Path, header: str) -> np.ndarray:
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"{path.name}: header is not {header!r}")
    width = header.count(",") + 1
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    if not rows or any(len(r) != width for r in rows):
        raise ValueError(f"{path.name}: no rows, or rows of the wrong width")
    return np.array(rows)


def _finite(values) -> bool:
    return bool(np.all(np.isfinite(np.asarray(values, dtype=float))))


def convergence_epoch(trace: np.ndarray, window: int = 10) -> int:
    """First epoch whose forward `window`-epoch mean F is within two plateau
    noise SDs of the plateau level (the rule of the acceptance suite's
    `convergence_epoch`), from the rows (epoch, step, F, kl, mc_loglik)."""
    epochs = trace[:, 0].astype(int)
    free_energy = trace[:, 2]
    series = np.array([free_energy[epochs == e].mean() for e in np.unique(epochs)])
    tail = free_energy[epochs > epochs.max() - 100]
    threshold = tail.mean() - 2.0 * tail.std()
    smoothed = np.convolve(series, np.ones(window) / window, mode="valid")
    hits = np.nonzero(smoothed >= threshold)[0]
    return int(hits[0]) if hits.size else len(series)


class OpChecker:
    """Judges the artifacts one op wrote under `base` (the CLI's --out)."""

    def __init__(self, workload, base: Path, reference: dict) -> None:
        self.is_fit = workload.is_fit
        self.folded = workload.model == "folded-normal"
        self.base = base
        self.reference = reference  # the set-up grid's summary JSON
        self.first_hashes: dict[str, str] | None = None

    def _path(self, suffix: str) -> Path:
        return self.base.with_name(self.base.name + suffix)

    def clear(self) -> None:
        """Remove the previous op's artifacts, so a missing one shows."""
        self.base.parent.mkdir(parents=True, exist_ok=True)
        for path in self.base.parent.iterdir():
            path.unlink()

    def check(self, exit_code) -> tuple[list[str], dict]:
        """Problems found (empty when the op succeeded) and facts about it."""
        if exit_code != 0:
            return [f"exit code {exit_code}"], {}
        artifacts = FIT_ARTIFACTS if self.is_fit else GRID_ARTIFACTS
        missing = [s for s in artifacts.values() if not self._path(s).is_file()]
        if missing:
            return [f"missing artifact {self.base.name}{s}" for s in missing], {}
        try:
            problems, facts = (self._check_fit if self.is_fit else self._check_grid)()
            json.loads(self._path(artifacts["manifest"]).read_text(encoding="utf-8"))
        except (ValueError, KeyError, TypeError, IndexError) as err:
            return [f"artifact does not parse: {type(err).__name__}: {err}"], {}

        files = sorted(self.base.parent.iterdir())
        hashes = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in files}
        if self.first_hashes is None:
            self.first_hashes = hashes
        elif hashes != self.first_hashes:
            differ = sorted(
                n for n in hashes.keys() | self.first_hashes.keys()
                if hashes.get(n) != self.first_hashes.get(n)
            )
            problems.append(f"artifacts differ from the first op: {differ}")
        key = "result" if self.is_fit else "summary"
        facts["fingerprint"] = "sha256:" + hashes[self._path(artifacts[key]).name]
        facts["bytes_written"] = sum(p.stat().st_size for p in files)
        return problems, facts

    def _check_fit(self) -> tuple[list[str], dict]:
        doc = json.loads(self._path(FIT_ARTIFACTS["result"]).read_text(encoding="utf-8"))
        trace = _read_csv(self._path(FIT_ARTIFACTS["trace"]), "epoch,step,F,kl,mc_loglik")
        post = doc["posterior"]
        mean = np.asarray(post["m"], dtype=float)
        cov = np.asarray(post["C"], dtype=float)
        final_fe = doc["final_free_energy"]
        problems = []
        if mean.shape != (2,) or cov.shape != (2, 2):
            problems.append(f"posterior shapes {mean.shape}, {cov.shape}")
        elif not (_finite(mean) and _finite(cov)):
            problems.append("non-finite posterior mean or covariance")
        if not _finite([final_fe["mean"], final_fe["se"]]):
            problems.append("non-finite final free energy")
        facts = {"steps": int(doc["steps"]), "converge_epoch": convergence_epoch(trace)}
        if not problems:
            if self.folded:
                mean[0] = abs(mean[0])  # the folded likelihood is even in mu
            ref_mean = np.asarray(self.reference["means"], dtype=float)
            ref_sd = np.sqrt(np.asarray(self.reference["variances"], dtype=float))
            gap = float(np.max(np.abs(mean - ref_mean) / ref_sd))
            facts["sd_gap"] = gap
            if not gap <= MAX_SD_GAP:
                problems.append(f"fit mean {gap:.2f} grid sd from the reference")
        return problems, facts

    def _check_grid(self) -> tuple[list[str], dict]:
        summary = json.loads(self._path(GRID_ARTIFACTS["summary"]).read_text(encoding="utf-8"))
        mass = _read_csv(self._path(GRID_ARTIFACTS["mass"]), "mu,logvar,mass")[:, 2]
        problems = []
        total = math.fsum(mass)
        if not abs(total - 1.0) <= TOLERANCE:
            problems.append(f"grid mass sums to {total!r}")
        moments = [*summary["means"], *summary["variances"], summary["rho"]]
        if not _finite(moments):
            problems.append("non-finite grid summary")
        else:
            ref = self.reference
            expected = [*ref["means"], *ref["variances"], ref["rho"]]
            if not np.allclose(moments, expected, rtol=0.0, atol=TOLERANCE):
                problems.append("grid summary differs from the set-up reference")
        facts = {
            "steps": 0,
            "useful_cell_share": float(np.mean(mass >= USEFUL_MASS * mass.max())),
        }
        return problems, facts
