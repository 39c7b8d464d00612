"""Microbenchmarks of the vector layer on one fixed 64-entry vector:
construction, projection (restrict, drop), the four norms, and t-greedy
selection and enumeration.

    PYTHONPATH=src python -m pytest bench/test_bench_coeffspace.py

Not collected by the test suite, whose ``testpaths`` is ``tests/``.
"""

import numpy as np
import pytest

import greedylab as gl
from greedylab import CoeffVector as CV

DIM = 64
# quarter-step moduli, so the vector has ties for the greedy benchmarks
VALUES = np.round(np.random.default_rng(2020).standard_normal(DIM) * 4.0) / 4.0
VALUES[VALUES == 0.0] = 0.25
X = CV.from_dense(VALUES)
A = gl.one_greedy_set(X, DIM // 4, 1.0).indices  # a greedy set, as the searches use


def test_construction(benchmark):
    idx = np.arange(1, DIM + 1)
    x = benchmark(CV, idx, VALUES)
    assert len(x) == DIM


@pytest.mark.parametrize("op", ["restrict", "drop"])
def test_projection(benchmark, op):
    part = benchmark(getattr(X, op), A)
    assert len(part) == (len(A) if op == "restrict" else DIM - len(A))


@pytest.mark.parametrize("norm", [
    gl.summing_norm,
    gl.sup_norm,
    lambda x: gl.lp_norm(x, 2.0 / 3.0),
    lambda x: gl.weighted_lp_norm(x, 1.5, np.linspace(0.5, 2.0, DIM // 2)),
], ids=["summing", "sup", "lp", "weighted_lp"])
def test_norm(benchmark, norm):
    assert benchmark(norm, X) > 0.0


def test_one_greedy_set(benchmark):
    sel = benchmark(gl.one_greedy_set, X, DIM // 4, 0.8)
    assert sel.cardinality == DIM // 4


def test_enumerate_t_greedy_sets(benchmark):
    result = benchmark(gl.enumerate_t_greedy_sets, X, DIM // 4, 1.0, 128)
    assert result.selections
