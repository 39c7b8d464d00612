"""Microbenchmarks of the quasi-Banach suites at the benchmark's size: the
shared draw table ``trial_draws(1000, 42, 16)`` (one generator, one vector
and one greedy pair per trial), and each of the three suites on that prebuilt
table under ``lp:1/2``.  The table keeps every trial's |x| per space once a
suite has asked for it, so it is filled before timing: every round of every
suite then does the same work, and none pays for the 1000 norms of |x|.

The equivalence audit at the same size: its pools ``audit_draws(16, 125, 42)``
(budget max(8, 1000 // 8), drawn once for both spaces), and
``equivalence_audit`` under ``lp:1/2`` on that prebuilt table.  The audit
reads 252 vectors (e_1, the all-ones vector, 125 samples in [1, 16] and 125
with tails out to 64) and makes 3,592 norm calls per space: each vector once,
then each of its greedy prefixes below its length.

    PYTHONPATH=src python -m pytest bench/test_bench_perturb.py

Not collected by the test suite, whose ``testpaths`` is ``tests/``.
"""

import pytest

import greedylab as gl
from greedylab import GapSequence, perturb

TRIALS, SEED, DIM = 1000, 42, 16
AUDIT_BUDGET = max(8, TRIALS // 8)
DRAWS = gl.trial_draws(TRIALS, SEED, DIM)
POOLS = gl.audit_draws(DIM, AUDIT_BUDGET, SEED)
SPACE = gl.space_from_key("lp:1/2", DIM)
perturb._x_norms(SPACE, DRAWS)


def test_trial_draws(benchmark):
    draws = benchmark(gl.trial_draws, TRIALS, SEED, DIM)
    assert len(draws.trials) == TRIALS


@pytest.mark.parametrize("suite", [gl.lemma_perturbation_suite, gl.padding_suite,
                                   gl.crude_bound_suite],
                         ids=["perturbation", "padding", "crude"])
def test_suite_on_prebuilt_draws(benchmark, suite):
    rep = benchmark(suite, SPACE, DRAWS)
    assert rep["trials"] == TRIALS and rep["failures"] == 0


def test_audit_draws(benchmark):
    pools = benchmark(gl.audit_draws, DIM, AUDIT_BUDGET, SEED)
    assert len(pools.finite) + len(pools.deep) == 252


def test_equivalence_audit_on_prebuilt_pools(benchmark):
    rep = benchmark(gl.equivalence_audit, SPACE, GapSequence.naturals(), 1.0, POOLS)
    assert rep["trials"] == 2 * AUDIT_BUDGET and rep["satisfied"]
