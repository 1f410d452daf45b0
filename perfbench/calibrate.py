"""Host-speed calibration: fixed kernels timed next to every measurement.

The benchmark shares its machine.  On the 2-core box where it was defined,
the same op took anywhere from 1.1 s to 2.8 s within minutes: the host's
speed drifts in phases of 10-30 s, in CPU time as much as in wall time, so
no statistic over one 30-s run is steady.  Each timed op (and each set-up
spawn) therefore sits between two runs of a fixed kernel that does the same
kind of work, and its time is scaled by `REFERENCE_S / kernel time`: it is
reported in seconds at the host speed at which the kernel takes
`REFERENCE_S`.  The kernels never touch `svbayes`, so a change to the
program moves the scaled times as it moves the wall times, while a change
in host speed moves both the op and the kernels.  The raw wall times are
printed beside the scaled ones.
"""

from __future__ import annotations

import math
import time
from typing import NamedTuple

import numpy as np


class _Node(NamedTuple):
    op: str
    args: tuple
    value: float


def _interpreter_kernel() -> None:
    # small-object allocation and float arithmetic, like building and sweeping
    # a scalar tape; in short tapes, so the kernel adds little to peak memory
    for _ in range(10):
        nodes = [_Node("mul", (i, i + 1), math.exp(-(i % 50) * 0.01)) for i in range(6_000)]
        acc = 0.0
        for node in reversed(nodes):
            acc += node.value * 0.5


def _numpy_kernel() -> None:
    # elementwise transcendental work on arrays larger than the caches
    a = np.linspace(0.1, 3.0, 2_000_000)
    for _ in range(3):
        np.log1p(np.exp(-2.0 * a)) + a * a


KERNELS = {"interpreter": _interpreter_kernel, "numpy": _numpy_kernel}
REFERENCE_S = {"interpreter": 0.06, "numpy": 0.06}


def calibrate(kind: str) -> float:
    """Wall seconds that the `kind` kernel takes right now."""
    start = time.perf_counter()
    KERNELS[kind]()
    return time.perf_counter() - start
