"""Microbenchmark of one exact constant: the polyhedral cell search for the
summing norm at dimension 3 and t = 0.6 (136 cell LPs, one block-diagonal solve).

    PYTHONPATH=src python -m pytest bench/test_bench_exact.py

Not collected by the test suite, whose ``testpaths`` is ``tests/``.
"""

import pytest

import greedylab as gl
from greedylab import GapSequence


def test_exact_constant_summing_dim3(benchmark):
    space = gl.summing_space(3)
    est = benchmark(gl.exact_constant_polyhedral, space, GapSequence.naturals(), 0.6, 3)
    assert est.exact and est.value == pytest.approx(8.0 / 3.0, abs=1e-9)
