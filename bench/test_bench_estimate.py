"""Microbenchmarks of the sampled estimator ``estimate_quasi_greedy_constant``
in the two shapes the sampled-search benchmark runs most:

- the suppression-one precheck: ``lp:1``, gap ``powers(2, 2)``, dimension 12,
  budget 11, kind ``C_sq_t`` (``check_suppression_one_implies_qg`` at budget
  112 draws max(8, 112 // 10) = 11 precheck samples);
- one ``constants`` row: ``summing``, the naturals, t = 1, dimension 8,
  budget 40, kind ``C_q_t``.

Both are dominated by tie-rich samples (sign vectors and the structured
witnesses), whose many candidate sets share few distinct parts.

    PYTHONPATH=src python -m pytest bench/test_bench_estimate.py

Not collected by the test suite, whose ``testpaths`` is ``tests/``.
"""

import pytest

import greedylab as gl
from greedylab import GapSequence

CASES = {
    "suppression_precheck": (gl.lp_space(1.0), GapSequence.powers(2, 2), 12, 11, "C_sq_t"),
    "summing_constant": (gl.summing_space(8), GapSequence.naturals(), 8, 40, "C_q_t"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_estimate(benchmark, case):
    space, gap, dim, budget, kind = CASES[case]
    est = benchmark(gl.estimate_quasi_greedy_constant, space, gap, 1.0, dim, budget,
                    kind=kind, seed=42)
    assert est.witness_x is not None and est.revalidate(space)
