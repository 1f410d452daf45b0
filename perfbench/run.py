"""The svbayes benchmark: one workload, one seed, timed or traced.

Usage, from the root of a checkout (see BENCHMARK.json):

    python3 perfbench/run.py --workload fit-folded-full --seed 1 --seconds 34 --trace 0

Set-up, outside any timing: generate the workload's input CSV from
`--seed`; compute the reference grid with `python -m svbayes.cli grid` in a
process of its own; spawn fresh interpreters that import `svbayes.cli` and
parse the input, for `setup_s`.  Then one worker process (`worker.py`) runs
the workload's op in a closed loop for `--seconds` and checks every op's
outputs.  Only one of these processes runs at a time, each with BLAS and
OpenMP pinned to one thread, and the program is imported from `src/` of the
checkout.  Timed ops and spawns are scaled to a reference host speed
measured next to each of them (calibrate.py); wall times are printed too.

Every metric is printed by name with its unit; the last line of standard
output is the JSON result.  With `--trace 0` it carries the end-to-end
metrics, with `--trace 1` the per-layer metrics of the traced run.  A
fuller record (workload argv, input size, reason, predicted layer shares,
fingerprint, raw op times) goes to `.perfbench_work/results/`.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import REFERENCE_S, calibrate
from workloads import WORKLOADS, write_input

HERE = Path(__file__).resolve().parent
SETUP_SPAWNS = 9
SETUP_KERNEL = "interpreter"  # a spawn is interpreter start-up and imports
RUN_LIMIT_S = 175.0  # the whole run, set-up included, ends before this
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    env.update({name: "1" for name in THREAD_VARS})
    return env


def run_child(cmd, env, deadline: float) -> subprocess.CompletedProcess:
    """Run one child to its end; subprocess kills and reaps it on timeout."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before " + " ".join(map(str, cmd[:3])))
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, timeout=timeout, text=True)
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"timed out: {' '.join(map(str, cmd[:3]))}") from err
    if proc.returncode != 0:
        raise BenchError(f"exit code {proc.returncode}: {' '.join(map(str, cmd))}")
    return proc


def setup_seconds(data: Path, env, deadline: float) -> tuple[list[float], list[float]]:
    """Fresh-spawn set-up times: (scaled to the reference host speed, wall)."""
    scaled, wall = [], []
    cal_before = calibrate(SETUP_KERNEL)
    for _ in range(SETUP_SPAWNS):
        start = time.monotonic()
        proc = run_child([sys.executable, str(HERE / "probe.py"), str(data)], env, deadline)
        wall.append(float(proc.stdout.strip().splitlines()[-1]) - start)
        cal_after = calibrate(SETUP_KERNEL)
        scaled.append(wall[-1] * 2.0 * REFERENCE_S[SETUP_KERNEL] / (cal_before + cal_after))
        cal_before = cal_after
    return scaled, wall


def tail(times: list[float]) -> tuple[float, float]:
    """The highest percentile with at least 10 ops beyond it: (value, pct).

    With 10 ops or fewer no percentile qualifies; the maximum is reported.
    """
    ordered = sorted(times)
    rank = len(ordered) - 10 if len(ordered) > 10 else len(ordered)
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def end_to_end(workload, result, setup, setup_wall) -> tuple[dict, list[str]]:
    times = result["times"]["plain"]
    op_s = statistics.median(times)
    tail_s, pct = tail(times)
    metrics = {
        "op_s": op_s,
        "op_tail_s": tail_s,
        "terms_per_s": workload.terms_per_op / op_s,
        "peak_rss_mb": result["max_rss_kb"] / 1024.0,
        "setup_s": statistics.median(setup),
    }
    wall = result["wall"]["plain"]
    notes = [
        f"times are scaled to the reference host speed ({workload.calibration} kernel)",
        f"op_tail_s is p{pct:.1f} of {len(times)} timed ops (the warm-up op excluded)",
        f"setup_s is the median of {len(setup)} spawns",
        f"wall: op_s {statistics.median(wall)!r} s, op_tail_s {tail(wall)[0]!r} s, "
        f"setup_s {statistics.median(setup_wall)!r} s",
    ]
    if workload.steps_per_op:
        notes.append(f"steps_per_s = {workload.steps_per_op / op_s!r} 1/s (op_s basis)")
    return metrics, notes


def per_layer(workload, result) -> tuple[dict, list[str]]:
    stats = dict(result["layer_stats"])
    facts = result["facts"]
    plain = statistics.median(result["times"]["plain"])
    traced = statistics.median(result["times"]["traced"])
    traced_wall = statistics.median(result["wall"]["traced"])  # the base of self_s
    stats["engine.steps"] = facts.get("steps", 0)
    stats["engine.converge_epoch"] = facts.get("converge_epoch", 0)
    stats["grid_oracle.useful_cell_share"] = facts.get("useful_cell_share", 0.0)
    stats["cli.bytes_written"] = facts.get("bytes_written", 0)
    stats["trace.overhead_share"] = traced / plain - 1.0
    stats["trace.op_s"] = traced_wall

    notes = [
        f"{len(result['times']['traced'])} traced and {len(result['times']['plain'])} "
        f"untraced ops; overhead from times scaled by the {workload.calibration} kernel"
    ]
    shares = {
        layer: stats.get(f"{layer}.self_s", 0.0) / traced_wall for layer in result["layers"]
    }
    covered = sum(shares.values())
    notes.append(f"layer self times cover {covered:.3f} of the traced op")
    for layer in sorted(shares, key=shares.get, reverse=True):
        notes.append(f"share {layer:<14} {shares[layer]:.3f}")

    def share(group: str) -> float:
        return sum(shares.get(layer, 0.0) for layer in group.split("+"))

    notes.append(f"majority {workload.majority}: {share(workload.majority):.3f} (expected > 0.5)")
    for group, predicted in workload.predicted_shares.items():
        notes.append(f"predicted {group}: {predicted:.3f}, measured {share(group):.3f}")
    return stats, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    deadline = time.monotonic() + RUN_LIMIT_S
    root = Path.cwd()
    if not (root / "src" / "svbayes" / "cli.py").is_file():
        print(f"error: no svbayes sources under {root / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    workload = WORKLOADS[args.workload]

    work = root / ".perfbench_work" / "run"  # the last run's files, spans included
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = child_env(root)
    data = work / "input.csv"
    try:
        write_input(workload, args.seed, data)
        ref_base = work / "reference" / "grid"
        run_child(
            [sys.executable, "-m", "svbayes.cli", "grid", "--data", str(data),
             "--model", workload.model, "--out", str(ref_base)],
            env, deadline,
        )
        setup, setup_wall = setup_seconds(data, env, deadline)
        run_child(
            [sys.executable, str(HERE / "worker.py"), "--workload", workload.name,
             "--data", str(data), "--reference", str(ref_base) + ".summary.json",
             "--work", str(work), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            env, deadline,
        )
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    result = json.loads((work / "result.json").read_text(encoding="utf-8"))
    if not result["times"]["plain"] or (args.trace and not result["times"]["traced"]):
        print(f"error: no op succeeded: {result['problems']}", file=sys.stderr)
        return 1

    if args.trace:
        values, notes = per_layer(workload, result)
    else:
        values, notes = end_to_end(workload, result, setup, setup_wall)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    correct = result["failed"] == 0
    fingerprint = result["facts"].get("fingerprint")

    print(f"workload {workload.name}: {workload.why}")
    print(f"argv: svbayes {' '.join(workload.argv('<input.csv>', '<out>'))}")
    print(f"input: N={workload.n_points} {workload.model} draws (mu=1, variance=4), "
          f"seed {args.seed}; {workload.terms_per_op} likelihood terms per op")
    print(f"fingerprint: {fingerprint}")
    print(f"ops_failed_ratio = {result['failed'] / result['attempted']!r} "
          f"({result['failed']} of {result['attempted']} ops)")
    for problem in result["problems"]:
        print(f"failed {problem}")
    for note in notes:
        print(note)
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']!r} {metric['unit']}")

    record = {
        "workload": workload.name,
        "why": workload.why,
        "argv": workload.argv("<input.csv>", "<out>"),
        "n_points": workload.n_points,
        "seed": args.seed,
        "trace": args.trace,
        "predicted_shares": workload.predicted_shares,
        "fingerprint": fingerprint,
        "notes": notes,
        "raw": result,
        "correct": correct,
        "metrics": metrics,
    }
    results = root / ".perfbench_work" / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
