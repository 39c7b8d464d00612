"""Workload definitions: each pass is a fixed list of calls to
``greedylab.cli.run_experiment_set``, one call per operation.

Only the experiment seed is derived from the benchmark seed; the sizes are
the quick-profile sizes of the acceptance criteria that use each runner, plus
the adversarial divergence sweep that the acceptance suite barely touches.
"""

from __future__ import annotations

import sys
from pathlib import Path

# name -> the operations of one pass, as (experiment, params)
WORKLOADS: dict[str, list[tuple[str, dict]]] = {
    "lp-cells": [("transfer", {"space": "summing", "dims": "2..3", "step": 0.05})],
    "sampled-search": [
        ("bounded-gaps", {"trials": 1000, "dim_lo": 8, "dim_hi": 64}),
        ("suppression-one", {"budget": 112, "dim": 12}),
        ("constants", {"space": "summing", "kind": "C_q_t", "t": 1.0,
                       "dims": "2..8", "budget": 40}),
    ],
    "divergence": [("divergence", {"depth": depth, "t": t, "adversary": True})
                   for depth, ts in ((6, (1.0, 0.5, 0.1, 0.05)), (8, (1.0, 0.5, 0.1)))
                   for t in ts],
    "quasi-banach": [("perturb-audit", {"trials": 1000, "dim": 16})],
}

# Tiny instance of every runner, run once before timing so that lazy imports
# and first-call caches are settled outside the measured passes.
WARMUP: dict[str, dict] = {
    "transfer": {"space": "summing", "dims": "2", "step": 0.5},
    "bounded-gaps": {"trials": 5, "dim_lo": 8, "dim_hi": 12},
    "suppression-one": {"budget": 5, "dim": 6},
    "constants": {"space": "summing", "kind": "C_q_t", "t": 1.0,
                  "dims": "2..3", "budget": 4},
    "divergence": {"depth": 2, "t": 1.0, "adversary": True},
    "perturb-audit": {"trials": 5, "dim": 6},
}

DEFAULT_SEED = 42


def build_ops(workload: str, seed: int) -> list[tuple[str, dict, int]]:
    """The operations of one pass as (experiment, params, experiment seed)."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"choose one of {', '.join(WORKLOADS)}")
    return [(name, dict(params), int(seed)) for name, params in WORKLOADS[workload]]


def warmup_ops(workload: str) -> list[tuple[str, dict, int]]:
    names = dict.fromkeys(name for name, _ in WORKLOADS[workload])
    return [(name, dict(WARMUP[name]), 0) for name in names]


def import_program():
    """``run_experiment_set`` from the checkout's own ``src/`` tree.

    Raises ImportError when the checkout holds no program, and refuses a
    greedylab installed elsewhere, which would not be the code under test.
    """
    src = Path(__file__).resolve().parent.parent / "src"
    sys.path.insert(0, str(src))
    import greedylab
    from greedylab.cli import run_experiment_set

    if Path(greedylab.__file__).resolve().parent != (src / "greedylab").resolve():
        raise ImportError(f"greedylab imported from {greedylab.__file__}, not from {src}")
    return run_experiment_set
