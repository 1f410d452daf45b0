"""One workload's closed loop of ops, in a process of its own.

Run by `run.py`; not meant to be started by hand.  The single client calls
`svbayes.cli.main(argv)` with the same argv again and again, starting the
next op when the previous one returns.  One warm-up op comes first; it is
checked like every other op and its artifacts are the ones every later op
must match byte for byte, but it is not timed.  An op's time covers the
CSV read, the compute and the artifact writes; the checks and a run of the
workload's calibration kernel (calibrate.py) follow it, outside the timing.
A failed op is counted and never timed.

With `--trace 1`, ops alternate between traced (spans installed) and
untraced, so the tracing overhead is measured in the same process.

Before measuring, the harness checks itself: an op on a missing input file
must be counted as failed and not timed, and span self times must add up on
a nested call.  A failing self-check exits 1.

Writes one JSON result file and, in a traced run, the spans as CSV.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import time
import traceback
import types
from pathlib import Path

from calibrate import REFERENCE_S, calibrate
from checks import OpChecker
from spans import Span, Tracer, discover_layers, op_layer_stats, self_times
from workloads import WORKLOADS

MEASURE_LIMIT_S = 120.0  # stop measuring here even if too few ops finished
MIN_PLAIN_OPS = 11  # so that a percentile with 10 ops beyond it exists
MIN_TRACED_OPS = 5  # of each kind, traced and untraced, in a traced run
MEMORY_LAYERS = ("grid_oracle",)


class Tally:
    """Ops attempted and failed, and the times of the ones that succeeded.

    `wall` holds wall seconds; `times` the same scaled to the reference host
    speed (see calibrate.py).
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.times: dict[str, list[float]] = {"plain": [], "traced": []}
        self.wall: dict[str, list[float]] = {"plain": [], "traced": []}
        self.problems: list[str] = []

    def record(self, seconds: float, scale: float, problems: list[str], kind: str | None) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append(f"op {self.attempted}: " + "; ".join(problems))
        elif kind is not None:
            self.wall[kind].append(seconds)
            self.times[kind].append(seconds * scale)


def run_op(cli, argv, checker: OpChecker, tracer: Tracer | None = None,
           op: int = 0) -> tuple[float, list[str], dict]:
    """One op, run, timed and checked: (seconds, problems, facts)."""
    checker.clear()
    if tracer is not None:
        tracer.install(op)
    start = time.perf_counter()
    try:
        exit_code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects a usage error by exiting
        exit_code = exc.code
    except Exception:  # noqa: BLE001 - a crashing op is a failed op, not a crashed run
        exit_code = "exception: " + traceback.format_exc(limit=-3)
    finally:
        seconds = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
    problems, facts = checker.check(exit_code)
    return seconds, problems, facts


class SelfCheckError(RuntimeError):
    """The harness miscounted a failure or a span."""


def _expect(condition: bool, detail) -> None:
    if not condition:
        raise SelfCheckError(detail)


def self_check(cli, workload, work: Path, reference: dict) -> None:
    """Raise SelfCheckError if the harness miscounts a failure or a span."""
    missing = work / "self-check" / "no-such-input.csv"
    base = work / "self-check" / "out" / "op"
    checker = OpChecker(workload, base, reference)
    tally = Tally()
    with contextlib.redirect_stderr(io.StringIO()) as err:
        seconds, problems, _ = run_op(cli, workload.argv(str(missing), str(base)), checker)
    tally.record(seconds, 1.0, problems, "plain")
    _expect(
        (tally.attempted, tally.failed, tally.times["plain"]) == (1, 1, []),
        f"a broken op was not counted as failed: {vars(tally)}",
    )
    _expect("exit code 3" in tally.problems[0], (tally.problems, err.getvalue()))

    # self time on hand-made spans: root [0, 100] holds [10, 30] and
    # [40, 90], which holds [50, 60]
    made = [
        Span(0, 3, 2, "b", "c", "leaf", False, 50, 60, 0, 0),
        Span(0, 1, 0, "a", "b", "first", False, 10, 30, 0, 0),
        Span(0, 2, 0, "a", "b", "second", False, 40, 90, 0, 0),
        Span(0, 0, None, None, "a", "root", False, 0, 100, 0, 0),
    ]
    _expect(self_times(made) == {0: 30, 1: 20, 2: 40, 3: 10}, self_times(made))

    # and on a live nested call through the real wrappers
    outer, inner = types.ModuleType("bench_outer"), types.ModuleType("bench_inner")
    exec("def leaf(x):\n    return sum(range(x))\n", inner.__dict__)
    exec("def run(inner):\n    return inner.leaf(20000) + inner.leaf(40000)\n", outer.__dict__)
    tracer = Tracer({"outer": outer, "inner": inner})
    tracer.install(0)
    try:
        outer.run(inner)
    finally:
        tracer.uninstall()
    spans = tracer.spans
    root = next(s for s in spans if s.parent is None)
    selfs = self_times(spans)
    leaves = [s for s in spans if s.parent == root.sid]
    _expect(len(spans) == 3 and len(leaves) == 2, spans)
    _expect(
        selfs[root.sid] == (root.t1 - root.t0) - sum(s.t1 - s.t0 for s in leaves)
        and sum(selfs.values()) == root.t1 - root.t0,
        ("self times do not add up", spans),
    )
    stats = op_layer_stats(spans, ["outer", "inner"], steps=0)
    _expect((stats["outer.calls"], stats["inner.calls"]) == (1, 2), stats)
    _expect(not hasattr(outer.run, "__wrapped__"), "uninstall left a wrapper in place")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--data", required=True, type=Path)
    parser.add_argument("--reference", required=True, type=Path)
    parser.add_argument("--work", required=True, type=Path)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    import svbayes
    from svbayes import cli

    src = (Path.cwd() / "src").resolve()
    if src not in Path(svbayes.__file__).resolve().parents:
        print(f"error: svbayes imported from {svbayes.__file__}, not {src}", file=sys.stderr)
        return 1

    workload = WORKLOADS[args.workload]
    reference = json.loads(args.reference.read_text(encoding="utf-8"))
    try:
        self_check(cli, workload, args.work, reference)
    except SelfCheckError as err:
        print(f"error: harness self-check failed: {err}", file=sys.stderr)
        return 1

    base = args.work / "out" / "op"
    op_argv = workload.argv(str(args.data), str(base))
    checker = OpChecker(workload, base, reference)
    tracer = None
    if args.trace:
        tracer = Tracer(
            discover_layers(svbayes), namespaces=(svbayes,), memory_layers=MEMORY_LAYERS
        )
    tally = Tally()
    seconds, problems, first_facts = run_op(cli, op_argv, checker)  # the warm-up
    tally.record(seconds, 1.0, problems, None)

    kernel = workload.calibration
    cal_before = calibrate(kernel)
    steps: dict[int, int] = {}
    start = time.perf_counter()
    op = 0
    while True:
        elapsed = time.perf_counter() - start
        enough = op >= (2 * MIN_TRACED_OPS if args.trace else MIN_PLAIN_OPS)
        if (elapsed >= args.seconds and enough) or elapsed >= MEASURE_LIMIT_S:
            break
        traced = bool(args.trace) and op % 2 == 0
        seconds, problems, facts = run_op(cli, op_argv, checker, tracer if traced else None, op)
        cal_after = calibrate(kernel)
        scale = 2.0 * REFERENCE_S[kernel] / (cal_before + cal_after)
        tally.record(seconds, scale, problems, "traced" if traced else "plain")
        cal_before = cal_after
        if not problems:
            first_facts = first_facts or facts  # when the warm-up op failed
            if traced:
                steps[op] = facts["steps"]
        op += 1

    result = {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": tally.problems,
        "times": tally.times,
        "wall": tally.wall,
        "max_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "facts": first_facts,
        "layers": sorted(tracer.layers) if tracer else [],
    }
    if tracer is not None:
        by_op: dict[int, list[Span]] = {}
        for s in tracer.spans:
            by_op.setdefault(s.op, []).append(s)
        per_op = [op_layer_stats(by_op[i], tracer.layers, n) for i, n in steps.items()]
        result["layer_stats"] = {
            key: statistics.median(stats[key] for stats in per_op) for key in per_op[0]
        } if per_op else {}
        peaks = [tracer.memory_peak.get(i, 0) / 2**20 for i in steps]
        result["layer_stats"]["grid_oracle.peak_traced_mb"] = (
            statistics.median(peaks) if peaks else 0.0
        )
        with open(args.work / "spans.csv", "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(Span._fields) + "\n")
            for s in tracer.spans:
                fh.write(",".join("" if v is None else str(v) for v in s) + "\n")
    (args.work / "result.json").write_text(json.dumps(result, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
