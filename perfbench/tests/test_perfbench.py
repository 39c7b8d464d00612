"""Self-tests of the benchmark harness, run apart from the repository's suite:

    python3 -m pytest perfbench/tests -q

Two traced passes of every workload at a seed other than the default one
(about a minute in all) back every test below.
"""

import signal
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from run import PER_LAYER_UNITS, run_pass  # noqa: E402
from speed import SpeedSampler  # noqa: E402
from tracing import SITES, Tracer, layer_values, owner_of, site_object  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, build_ops, import_program  # noqa: E402

SEED = DEFAULT_SEED + 1


def _site_objects() -> dict:
    return {(spec, attr): site_object(owner_of(spec), attr)
            for sites in SITES.values() for spec, attr in sites}


@pytest.fixture(scope="module")
def traced_runs(tmp_path_factory):
    call = import_program()
    before = _site_objects()
    runs = {}
    for workload in WORKLOADS:
        tracer = Tracer()
        traced_call = tracer.span("cli.run_experiment_set", call)
        passes = []
        for i in range(2):
            with tracer.installed():
                passes.append(run_pass(traced_call, build_ops(workload, SEED),
                                       tmp_path_factory.mktemp(f"{workload}-{i}")))
        runs[workload] = (tracer, passes)
    return before, runs


def test_every_patched_name_is_restored(traced_runs):
    before, _ = traced_runs
    after = _site_objects()
    changed = [site for site, obj in before.items() if after[site] is not obj]
    assert not changed
    assert not any(hasattr(obj, "__wrapped__") for obj in after.values())


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_layer_counts_repeat_between_traced_runs(traced_runs, workload):
    tracer, _ = traced_runs[1][workload]
    (first, raw_first), (second, raw_second) = (layer_values(tracer, 0),
                                                layer_values(tracer, 1))
    counts = [name for name, unit in PER_LAYER_UNITS.items()
              if unit != "s" and name in first]
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}
    assert raw_first == raw_second
    assert first["coeffspace.vectors_built"] + first["counterexample.classes_walked"] > 0


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_non_default_seed_runs_without_failures(traced_runs, workload):
    _, passes = traced_runs[1][workload]
    for p in passes:
        assert p.failed == 0 and not p.errors, p.errors
        assert p.attempted == len(WORKLOADS[workload])
    assert passes[0].digests and passes[0].digests == passes[1].digests


def test_speed_sampler_restores_the_signal_state():
    before = signal.getsignal(signal.SIGALRM)
    sampler = SpeedSampler()
    with sampler.running():
        mark = sampler.mark()
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.2:
            sum(range(1000))
    elapsed = time.perf_counter() - t0
    busy, scale = sampler.scale(mark)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(sampler.samples) > 5 and 0 < busy < elapsed and scale > 0
    with sampler.running():
        mark = sampler.mark()
    assert sampler.scale(mark)[1] > 0
