"""Microbenchmarks of the quasi-Banach suites at the benchmark's size: the
shared draw table ``trial_draws(1000, 42, 16)`` (one generator, one vector
and one greedy pair per trial), and each of the three suites on that prebuilt
table under ``lp:1/2``.

    PYTHONPATH=src python -m pytest bench/test_bench_perturb.py

Not collected by the test suite, whose ``testpaths`` is ``tests/``.
"""

import pytest

import greedylab as gl

TRIALS, SEED, DIM = 1000, 42, 16
DRAWS = gl.trial_draws(TRIALS, SEED, DIM)
SPACE = gl.space_from_key("lp:1/2", DIM)


def test_trial_draws(benchmark):
    draws = benchmark(gl.trial_draws, TRIALS, SEED, DIM)
    assert len(draws.trials) == TRIALS


@pytest.mark.parametrize("suite", [gl.lemma_perturbation_suite, gl.padding_suite,
                                   gl.crude_bound_suite],
                         ids=["perturbation", "padding", "crude"])
def test_suite_on_prebuilt_draws(benchmark, suite):
    rep = benchmark(suite, SPACE, DRAWS)
    assert rep["trials"] == TRIALS and rep["failures"] == 0
