"""Microbenchmarks of the sampled estimator and of the suppression-one check
in the shapes the sampled-search benchmark runs most:

- the suppression-one precheck: ``lp:1``, gap ``powers(2, 2)``, dimension 12,
  budget 11, kind ``C_sq_t`` (``check_suppression_one_implies_qg`` at budget
  112 draws max(8, 112 // 10) = 11 precheck samples; since it takes
  ``lp:1``, ``lp:2`` and ``sup`` together, one search of those samples
  serves all three spaces);
- one ``constants`` row: ``summing``, the naturals, t = 1, dimension 8,
  budget 40, kind ``C_q_t``;
- one n1 of ``suppression-one``: ``check_suppression_one_implies_qg`` on
  ``lp:1``, ``lp:2`` and ``sup``, gap ``powers(2, 2)``, dimension 12,
  budget 112, seed 44;
- the whole ``suppression_rows(12, 112, 42)`` runner: three such calls.

Both estimator cases are dominated by tie-rich samples (sign vectors and the
structured witnesses), whose many candidate sets share few distinct parts.

    PYTHONPATH=src python -m pytest bench/test_bench_estimate.py

Not collected by the test suite, whose ``testpaths`` is ``tests/``.
"""

import pytest

import greedylab as gl
from greedylab import GapSequence
from greedylab.experiments import suppression_rows

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


def test_suppression_check(benchmark):
    spaces = [gl.lp_space(1.0), gl.lp_space(2.0), gl.sup_space()]
    reports = benchmark(gl.check_suppression_one_implies_qg, spaces,
                        GapSequence.powers(2, 2), 12, 112, seed=44)
    assert [rep["trials"] for rep in reports] == [112] * 3


def test_suppression_rows(benchmark):
    rep = benchmark(suppression_rows, 12, 112, 42)
    assert rep["violations"] == 0 and len(rep["rows"]) == 9
