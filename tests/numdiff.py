"""Numerical derivatives the gradient tests check the closed forms against."""

import numpy as np


def central_differences(fn, at):
    """Central differences of the scalar `fn` at `at`, step h = 1e-6 max(1, |x|)."""
    at = np.asarray(at, dtype=float)
    out = np.empty_like(at)
    for i in range(at.size):
        h = 1e-6 * max(1.0, abs(at[i]))
        hi, lo = at.copy(), at.copy()
        hi[i] += h
        lo[i] -= h
        out[i] = (fn(hi) - fn(lo)) / (2.0 * h)
    return out


def complex_step(fn, at, h=1e-30):
    """Gradient of the real-analytic scalar `fn` by complex step, Im fn(x + ih e_i) / h."""
    at = np.asarray(at, dtype=complex)
    out = np.empty(at.size)
    for i in range(at.size):
        z = at.copy()
        z[i] += 1j * h
        out[i] = fn(z).imag / h
    return out


def max_rel_error(a, b):
    """Largest |a - b| / max(|a|, |b|) over the entries, 0 where both are 0."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    denom = np.maximum(np.abs(a), np.abs(b))
    return float(np.max(np.abs(a - b) / np.where(denom > 0.0, denom, 1.0), initial=0.0))
