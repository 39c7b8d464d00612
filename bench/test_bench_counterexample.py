"""Microbenchmarks of one divergence-class evaluation: the class walk and the
run-length summing norm on the depth-6, t = 0.05 default-grid row with the
most classes.  That is m = 111,116 with 100,001 classes, the first of the two
rows of that size (m = 611,116 is the other).

    PYTHONPATH=src python -m pytest bench/test_bench_counterexample.py

Not collected by the test suite, whose ``testpaths`` is ``tests/``.
"""

from greedylab import counterexample as cx

EX = cx.build_example(6)
T = 0.05
M = 111_116
CLASSES = 100_001


def test_enumerate_selection_classes(benchmark):
    classes, exact = benchmark(cx.enumerate_selection_classes, EX, M, T)
    assert exact and len(classes) == CLASSES


def test_selection_norm(benchmark):
    classes, _ = cx.enumerate_selection_classes(EX, M, T)
    norms = benchmark(lambda: [cx.selection_norm(EX, sel) for sel in classes])
    assert len(norms) == CLASSES and min(norms) > 0.0
