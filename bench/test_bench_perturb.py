"""Microbenchmarks of the quasi-Banach suites at the benchmark's size: the
shared draw table ``trial_draws(1000, 42, 16)`` (one generator, one vector
and one greedy pair per trial), the dense trial table built from it, and
each of the three suites on that prebuilt table under ``lp:1/2``.  The draws
keep every trial's |x| per space, and the dense table, once a suite has
asked for them, so both are filled before timing: every round of every suite
then does the same work, and none pays for the 1000 norms of |x| or for the
table.

The perturbation and padding suites are numpy passes over the dense table,
``perturb.NORM_CHUNK`` = 512 rows at a time (two chunks here).  The
perturbation suite norms each chunk's cut tails in one batched call and its
distances |base - y| in another; the padding suite norms nothing.  The
crude-bound suite norms its projections in 2 batched calls.

The equivalence audit at the same size: its pools ``audit_draws(16, 125, 42)``
(budget max(8, 1000 // 8), drawn once for both spaces), and
``equivalence_audit`` under ``lp:1/2`` on that prebuilt table.  The audit
reads 252 vectors (e_1, the all-ones vector, 125 samples in [1, 16] and 125
with tails out to 64) and norms 3,592 vectors per space: each vector once,
then each of its greedy prefixes below its length.  It norms them in 10
batched calls (up to 30 samples with their prefixes, at most
``perturb.NORM_CHUNK`` = 512 vectors, per call).

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
DRAWS.table


def test_trial_draws(benchmark):
    draws = benchmark(gl.trial_draws, TRIALS, SEED, DIM)
    assert len(draws.trials) == TRIALS


def test_dense_trial_table(benchmark):
    table = benchmark(perturb._trial_table, DRAWS.trials)
    assert table.x.shape[0] == TRIALS and table.in_A.sum() == sum(
        len(d.A) for d in DRAWS.trials)


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
