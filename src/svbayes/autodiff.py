"""Placeholder module with no code, kept only for the benchmark contract.

`BENCHMARK.json` names `autodiff.*` per-layer metrics, and the traced
benchmark run defines a layer's metrics only for a module of the package
that it discovers; this module keeps those metrics defined (they read 0).
Nothing in the package imports it.  It goes with the next change to the
benchmark.
"""
