"""Microbenchmarks of one divergence-class evaluation on the depth-6,
t = 0.05 default-grid row with the most classes.  That is m = 111,116 with
100,001 classes, the first of the two rows of that size (m = 611,116 is the
other).  The sweep's row no longer walks those classes: almost all of them
lie in one window of block 5 and block 6, whose first minimiser the sweep
finds by bisection.  The class list and ``selection_norm`` over it are its
per-class oracles.  ``test_sweep_depth8`` times the whole depth-8,
t = 0.001 sweep, whose block windows hold up to three blocks and whose
largest row holds about 10^13 classes; block windows do not count against
the sweep's walk budget, so every row is exact.

    PYTHONPATH=src python -m pytest bench/test_bench_counterexample.py

Not collected by the test suite, whose ``testpaths`` is ``tests/``.
"""

from greedylab import counterexample as cx

EX = cx.build_example(6)
T = 0.05
M = 111_116
CLASSES = 100_001


def test_sweep_row(benchmark):
    rep = benchmark(cx.divergence_experiment, EX.depth, T, True, m_grid=[M])
    row, = rep["rows"]
    assert row["exact"] and row["min_norm"] > 0.0 and not rep["violations"]


def test_sweep_depth8(benchmark):
    rep = benchmark(cx.divergence_experiment, 8, 0.001, True)
    assert all(row["exact"] for row in rep["rows"]) and not rep["violations"]


def test_enumerate_selection_classes(benchmark):
    classes, exact = benchmark(cx.enumerate_selection_classes, EX, M, T)
    assert exact and len(classes) == CLASSES


def test_selection_norm(benchmark):
    classes, _ = cx.enumerate_selection_classes(EX, M, T)
    norms = benchmark(lambda: [cx.selection_norm(EX, sel) for sel in classes])
    assert len(norms) == CLASSES and min(norms) > 0.0
