"""Microbenchmarks of the vector layer on one fixed 64-entry vector:
construction from lists and from arrays, projection (restrict, drop), entry
lookup, a full pairs() walk, addition and subtraction (shared supports, and
a tail after the support), the four norms, and the t-greedy check,
selection and enumeration, plus the enumeration of an overflowing all-tie family.
Beside the one vector, the ``lp:2/3`` norms of 1,000 sampled vectors of at
most 16 entries, the perturb-audit's shape: one ``lp_norm`` call per vector,
and one ``lp_norms`` batch.

    PYTHONPATH=src python -m pytest bench/test_bench_coeffspace.py

Not collected by the test suite, whose ``testpaths`` is ``tests/``.
"""

import numpy as np
import pytest

import greedylab as gl
from greedylab import CoeffVector as CV
from greedylab.coeffspace import random_vectors

DIM = 64
# quarter-step moduli, so the vector has ties for the greedy benchmarks
VALUES = np.round(np.random.default_rng(2020).standard_normal(DIM) * 4.0) / 4.0
VALUES[VALUES == 0.0] = 0.25
X = CV.from_dense(VALUES)
Y = CV.from_dense(VALUES[::-1])  # the same support, so every index is shared
A = gl.one_greedy_set(X, DIM // 4, 1.0).indices  # a greedy set, as the searches use
MANY = list(random_vectors(16, 1000, np.random.default_rng(2020)))


@pytest.mark.parametrize("form", ["list", "array"])
def test_construction(benchmark, form):
    # lists, as from_pairs and the perturbation bump pass; arrays, as outside numpy data
    idx, vals = list(range(1, DIM + 1)), VALUES.tolist()
    if form == "array":
        idx, vals = np.array(idx), VALUES
    x = benchmark(CV, idx, vals)
    assert len(x) == DIM


@pytest.mark.parametrize("op", ["restrict", "drop"])
def test_projection(benchmark, op):
    part = benchmark(getattr(X, op), A)
    assert len(part) == (len(A) if op == "restrict" else DIM - len(A))


def test_getitem(benchmark):
    # one lookup on the support and one off it, as is_t_greedy-style callers do
    assert benchmark(lambda: X[DIM // 2] + X[DIM + 1]) == X[DIM // 2]


def test_pairs_walk(benchmark):
    assert len(benchmark(lambda: list(X.pairs()))) == DIM


def test_add(benchmark):
    # every index shared, so every entry takes the merge's summing branch
    assert len(benchmark(X.__add__, Y)) <= DIM


def test_sub(benchmark):
    assert len(benchmark(X.__sub__, Y)) <= DIM


def test_add_tail(benchmark):
    # a support wholly after x's, as the perturbation trial's x + tail
    tail = CV(range(DIM + 1, DIM + 5), [0.5 ** j for j in range(4)])
    assert len(benchmark(X.__add__, tail)) == DIM + 4


@pytest.mark.parametrize("norm", [
    gl.summing_norm,
    gl.sup_norm,
    lambda x: gl.lp_norm(x, 2.0 / 3.0),
    lambda x: gl.weighted_lp_norm(x, 1.5, np.linspace(0.5, 2.0, DIM // 2)),
], ids=["summing", "sup", "lp", "weighted_lp"])
def test_norm(benchmark, norm):
    assert benchmark(norm, X) > 0.0


@pytest.mark.parametrize("mode", ["one_by_one", "batched"])
def test_lp_norms_of_many(benchmark, mode):
    norm = gl.lp_space(2.0 / 3.0).norm
    run = (lambda: [norm(x) for x in MANY]) if mode == "one_by_one" else (lambda: norm.many(MANY))
    assert len(benchmark(run)) == len(MANY)


def test_is_t_greedy(benchmark):
    assert benchmark(gl.is_t_greedy, X, A, 1.0)


def test_one_greedy_set(benchmark):
    sel = benchmark(gl.one_greedy_set, X, DIM // 4, 0.8)
    assert sel.cardinality == DIM // 4


def test_enumerate_t_greedy_sets(benchmark):
    result = benchmark(gl.enumerate_t_greedy_sets, X, DIM // 4, 1.0, 128)
    assert result.selections


def test_enumerate_overflowing_family(benchmark):
    # the suppression-one shape: 12 entries of modulus 1, so all C(12, 6) = 924
    # sets of size 6 are greedy and the first 128 are kept
    x = CV.from_dense([1.0 if i % 3 else -1.0 for i in range(12)])
    result = benchmark(gl.enumerate_t_greedy_sets, x, 6, 1.0, 128)
    assert result.overflow and len(result.selections) == 128
