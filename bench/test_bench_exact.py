"""Microbenchmarks of the exact polyhedral cell search in the summing space:
one constant at dimension 3 and t = 0.6 (96 cell LPs solved, the distinct
ones of 136), the 20-point weakness grid t = 0.05, 0.10, ..., 1 at dimension
3 in one search (298 cell LPs solved: the 96 at t = 0.05, then 202 whose
vertex there is not t-greedy at a larger t), one constant at dimension 5 and
t = 0.6 (2,560 distinct cell LPs of 4,128 solved), and the grid t = 1, 0.8,
0.5 at dimension 5 in one search (3,944 solved: the 2,560 at t = 0.5 and 1,384
again).  Also one ``lp:1`` constant at dimension 4 and t = 0.6 (640 distinct
cell LPs of 3,840 solved).

    PYTHONPATH=src python -m pytest bench/test_bench_exact.py

Not collected by the test suite, whose ``testpaths`` is ``tests/``.
"""

import pytest

import greedylab as gl
from greedylab import GapSequence

NAT = GapSequence.naturals()
GRID = [round(0.05 * i, 10) for i in range(1, 21)]


def test_exact_constant_summing_dim3(benchmark):
    space = gl.summing_space(3)
    est = benchmark(gl.exact_constant_polyhedral, space, NAT, 0.6, 3)
    assert est.exact and est.value == pytest.approx(8.0 / 3.0, abs=1e-9)


def test_exact_grid_summing_dim3(benchmark):
    space = gl.summing_space(3)
    estimates = benchmark(gl.exact_constant_grid, space, NAT, GRID, 3)
    assert [e.t for e in estimates] == GRID
    assert estimates[-1].value == pytest.approx(2.0, abs=1e-9)


def test_exact_constant_summing_dim5(benchmark):
    space = gl.summing_space(5)
    est = benchmark.pedantic(gl.exact_constant_polyhedral, (space, NAT, 0.6, 5),
                             rounds=5, iterations=1)
    assert est.exact and est.value == pytest.approx(13.0 / 3.0, abs=1e-9)


def test_exact_grid_summing_dim5(benchmark):
    space = gl.summing_space(5)
    estimates = benchmark.pedantic(gl.exact_constant_grid, (space, NAT, (1.0, 0.8, 0.5), 5),
                                   rounds=5, iterations=1)
    assert [e.value for e in estimates] == pytest.approx([4.0, 4.0, 5.0], abs=1e-9)


def test_exact_constant_l1_dim4(benchmark):
    space = gl.space_from_key("lp:1", 4)
    est = benchmark.pedantic(gl.exact_constant_polyhedral, (space, NAT, 0.6, 4),
                             rounds=5, iterations=1)
    assert est.exact and est.value == pytest.approx(1.0, abs=1e-9)
