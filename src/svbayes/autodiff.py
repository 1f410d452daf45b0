"""Minimal reverse-mode automatic differentiation over scalar expressions.

Every intermediate quantity lives as a node on a :class:`Tape`: an
append-only, topologically ordered list that records the operation kind,
the operand node ids and the forward value.  A single backward sweep over
the tape (:meth:`Tape.grad`) accumulates adjoints for every registered
variable.  Tapes are cheap and meant to be rebuilt per evaluation
(define-by-run), which keeps branching on current values sound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

NodeId = int


class DomainError(ValueError):
    """An operation was evaluated outside its mathematical domain."""


@dataclass(frozen=True)
class Node:
    op: str
    args: tuple[NodeId, ...]
    value: float


@dataclass(frozen=True)
class Gradient:
    """Adjoints of one output with respect to every tape variable.

    Variables never reached by the backward sweep carry an explicit 0.0.
    """

    adjoints: dict[NodeId, float]

    def __getitem__(self, node: NodeId) -> float:
        return self.adjoints[node]


def _finite(value: float, context: str) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise DomainError(f"non-finite value in {context}: {value!r}")
    return value


class Tape:
    """Append-only computation graph of scalar operations.

    A tape is owned by a single evaluation: build variables and expressions,
    then call :meth:`grad` on the output node.  Operands must be node ids
    previously returned by this tape.
    """

    def __init__(self) -> None:
        self._nodes: list[Node] = []
        self._variables: list[NodeId] = []

    def __len__(self) -> int:
        return len(self._nodes)

    def value(self, node: NodeId) -> float:
        """Forward value of a node."""
        return self._nodes[node].value

    def variables(self) -> tuple[NodeId, ...]:
        return tuple(self._variables)

    def _push(self, op: str, args: tuple[NodeId, ...], value: float) -> NodeId:
        self._nodes.append(Node(op, args, _finite(value, op)))
        return len(self._nodes) - 1

    def _operand(self, node: NodeId) -> float:
        if not 0 <= node < len(self._nodes):
            raise ValueError(f"node id {node} is not on this tape")
        return self._nodes[node].value

    # -- leaves ---------------------------------------------------------

    def variable(self, value: float) -> NodeId:
        """Register a differentiable leaf; adjoints are reported for it."""
        node = self._push("var", (), value)
        self._variables.append(node)
        return node

    def constant(self, value: float) -> NodeId:
        """A leaf that takes part in the forward pass but gets no adjoint."""
        return self._push("const", (), value)

    # -- primitive operations -------------------------------------------

    def add(self, a: NodeId, b: NodeId) -> NodeId:
        return self._push("add", (a, b), self._operand(a) + self._operand(b))

    def sub(self, a: NodeId, b: NodeId) -> NodeId:
        return self._push("sub", (a, b), self._operand(a) - self._operand(b))

    def mul(self, a: NodeId, b: NodeId) -> NodeId:
        return self._push("mul", (a, b), self._operand(a) * self._operand(b))

    def neg(self, a: NodeId) -> NodeId:
        return self._push("neg", (a,), -self._operand(a))

    def log(self, a: NodeId) -> NodeId:
        x = self._operand(a)
        if x <= 0.0:
            raise DomainError(f"log of non-positive value {x!r}")
        return self._push("log", (a,), math.log(x))

    def exp(self, a: NodeId) -> NodeId:
        x = self._operand(a)
        try:
            value = math.exp(x)
        except OverflowError as err:
            raise DomainError(f"exp overflow at {x!r}") from err
        return self._push("exp", (a,), value)

    def square(self, a: NodeId) -> NodeId:
        x = self._operand(a)
        return self._push("square", (a,), x * x)

    def sum_many(self, terms: Sequence[NodeId]) -> NodeId:
        """Left-to-right sum of any number of nodes as a single n-ary node."""
        if not terms:
            raise ValueError("sum_many needs at least one term")
        total = 0.0
        for t in terms:
            total += self._operand(t)
        return self._push("sum", tuple(terms), total)

    # -- backward pass ---------------------------------------------------

    def grad(self, output: NodeId) -> Gradient:
        """Adjoints of `output` with respect to every variable on the tape.

        One reverse sweep in reverse topological order; fan-out contributions
        accumulate by summation.  Deterministic: repeated calls return
        bitwise-identical adjoints.
        """
        self._operand(output)
        adj = [0.0] * len(self._nodes)
        adj[output] = 1.0
        for nid in range(output, -1, -1):
            w = adj[nid]
            if w == 0.0:
                continue
            node = self._nodes[nid]
            op, args = node.op, node.args
            if op in ("var", "const"):
                continue
            if op == "add":
                adj[args[0]] += w
                adj[args[1]] += w
            elif op == "sub":
                adj[args[0]] += w
                adj[args[1]] -= w
            elif op == "mul":
                adj[args[0]] += w * self._nodes[args[1]].value
                adj[args[1]] += w * self._nodes[args[0]].value
            elif op == "neg":
                adj[args[0]] -= w
            elif op == "log":
                adj[args[0]] += w / self._nodes[args[0]].value
            elif op == "exp":
                adj[args[0]] += w * node.value
            elif op == "square":
                adj[args[0]] += w * 2.0 * self._nodes[args[0]].value
            elif op == "sum":
                for a in args:
                    adj[a] += w
            else:  # pragma: no cover - op set is closed
                raise AssertionError(f"unknown op {op!r}")
        return Gradient({v: adj[v] for v in self._variables})


TapeFunction = Callable[[Tape, list[NodeId]], NodeId]


@dataclass
class FiniteDiffReport:
    """Comparison of tape adjoints against central finite differences."""

    ad_gradient: np.ndarray
    fd_gradient: np.ndarray
    max_rel_error: float
    rtol: float
    eval_failures: list[str]

    @property
    def passed(self) -> bool:
        return not self.eval_failures and self.max_rel_error <= self.rtol

    def __bool__(self) -> bool:
        return self.passed


def _evaluate(build: TapeFunction, at: np.ndarray) -> float:
    tape = Tape()
    leaves = [tape.variable(x) for x in at]
    return tape.value(build(tape, leaves))


def finite_diff_check(
    build: TapeFunction, at: Sequence[float], rtol: float
) -> FiniteDiffReport:
    """Check the tape gradient of `build` against central differences.

    `build` constructs the scalar expression from a fresh tape and one
    variable per entry of `at`.  Central differences use a per-coordinate
    step h = 1e-6 * max(1, |x|).  Coordinates where the perturbed function
    is not evaluable are recorded in `eval_failures` instead of raising.
    """
    at = np.asarray(at, dtype=float)
    tape = Tape()
    leaves = [tape.variable(x) for x in at]
    grad = tape.grad(build(tape, leaves))
    ad = np.array([grad[leaf] for leaf in leaves])

    fd = np.full_like(ad, np.nan)
    failures: list[str] = []
    for i in range(at.size):
        h = 1e-6 * max(1.0, abs(at[i]))
        lo, hi = at.copy(), at.copy()
        lo[i] -= h
        hi[i] += h
        try:
            fd[i] = (_evaluate(build, hi) - _evaluate(build, lo)) / (2.0 * h)
        except Exception as err:  # noqa: BLE001 - reported, not fatal
            failures.append(f"coordinate {i}: {err}")

    ok = np.isfinite(fd)
    denom = np.maximum(np.abs(ad[ok]), np.abs(fd[ok]))
    err = np.abs(ad[ok] - fd[ok])
    rel = np.where(denom > 0.0, err / np.where(denom > 0.0, denom, 1.0), 0.0)
    max_rel = float(rel.max()) if rel.size else 0.0
    return FiniteDiffReport(ad, fd, max_rel, rtol, failures)
