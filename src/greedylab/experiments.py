"""Experiment runners shared by the command-line harness and the acceptance
suite.  Every runner is deterministic given its seed and returns plain dicts
ready for CSV/JSON emission; rows that assert an inequality carry both sides
and the margin.
"""

from __future__ import annotations

from collections import abc
from typing import Sequence

import numpy as np

from . import counterexample as cx
from .coeffspace import (GapSequence, SpaceDescriptor, random_vectors,
                         space_from_key, summing_space)
from .constants import (_check_budget, _partition_checks, _partition_evaluation,
                        check_suppression_one_implies_qg,
                        estimate_quasi_greedy_constant, exact_constant_grid,
                        transfer_bound_t_from_s)
# not called here: the benchmark's trace sites constants.exact_constant_polyhedral
# and constants.bounded_gap_projection_bound look the names up in this module
from .constants import bounded_gap_projection_bound, exact_constant_polyhedral  # noqa: F401
from .greedy import random_greedy_set
from .perturb import (audit_draws, crude_bound_suite, equivalence_audit,
                      lemma_perturbation_suite, padding_suite, trial_draws)

__all__ = [
    "divergence_rows",
    "constants_table",
    "transfer_table",
    "bounded_gap_trials",
    "suppression_rows",
    "perturb_audit",
]


def _check_trials(trials: int) -> None:
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")


# ---------------------------------------------------------------------------
# divergence
# ---------------------------------------------------------------------------


def divergence_rows(depth: int, t: float, adversary: bool = True) -> dict:
    """The sweep's rows; ``inexact`` lists the m of every row whose norm is
    not an exact minimum over the t-greedy classes."""
    report = cx.divergence_experiment(depth, t, adversary)
    header = ["m", "t", "K", "min_norm", "phi", "lower_bound", "greedy_set_family",
              "exact"]
    rows = [[r["m"], r["t"], r["depth"], r["min_norm"], r["phi"],
             r["lower_bound"], r["greedy_set_family"], r["exact"]] for r in report["rows"]]
    return {"header": header, "rows": rows, "json": report,
            "violations": len(report["violations"]),
            "inexact": [r["m"] for r in report["rows"] if not r["exact"]]}


# ---------------------------------------------------------------------------
# constants sweep
# ---------------------------------------------------------------------------


def constants_table(space_key: str, kind: str, t: float, dims: Sequence[int],
                    budget: int, seed: int) -> dict:
    _check_budget(budget)
    gap = GapSequence.naturals()
    header = ["dim", "t", "kind", "value", "exact", "upper_bound", "witness_support"]
    rows = []
    estimates = []
    violations = 0
    for dim in dims:
        space = space_from_key(space_key, dim)
        est = estimate_quasi_greedy_constant(space, gap, t, dim, budget,
                                             kind=kind, seed=seed)
        if not est.revalidate(space):
            violations += 1
        rows.append([dim, t, kind, est.value, est.exact,
                     est.upper_bound, len(est.witness_x) if est.witness_x else 0])
        estimates.append({"dim": dim, **est.to_report()})
    return {"header": header, "rows": rows,
            "json": {"space": space_key, "estimates": estimates},
            "violations": violations}


# ---------------------------------------------------------------------------
# transfer lemma grid
# ---------------------------------------------------------------------------


class _WeaknessGrid(abc.Sequence):
    """step, 2 step, ... up to 1, each rounded to 10 places and made on access,
    so that the exact search can refuse a grid by its length before building it."""

    def __init__(self, step: float):
        n = int(round(1.0 / step))
        self._step, self._len = step, n - (round(step * n, 10) > 1.0)

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, i: int) -> float:
        if not 0 <= i < self._len:
            raise IndexError(i)
        return round(self._step * (i + 1), 10)


def transfer_table(space_key: str = "summing", dims: Sequence[int] = (2, 3),
                   step: float = 0.05) -> dict:
    """Exact constants on a weakness grid, then every applicable (s, t) pair
    checked against the transfer bound.  Requires a polyhedral space."""
    if not 0.0 < step <= 1.0:
        raise ValueError(f"step must lie in (0, 1], got {step}")
    gap = GapSequence.naturals()
    grid = _WeaknessGrid(step)
    header = ["dim", "s", "t", "C_qs", "C_qt", "bound", "applicable", "ok", "margin"]
    rows = []
    violations = 0
    for dim in dims:
        space = space_from_key(space_key, dim)
        table = {est.t: est.value
                 for est in exact_constant_grid(space, gap, grid, dim, "C_q_t")}
        for s in table:
            for t in table:
                if not t < s:
                    continue
                bound = transfer_bound_t_from_s(table[s], s, t)
                if bound is None:
                    rows.append([dim, s, t, table[s], table[t], None, False, True, None])
                    continue
                ok = table[t] <= bound + 1e-9
                if not ok:
                    violations += 1
                rows.append([dim, s, t, table[s], table[t], bound, True, ok,
                             bound - table[t]])
    return {"header": header, "rows": rows,
            "json": {"space": space_key, "dims": list(dims), "step": step,
                     "pairs": len(rows), "violations": violations},
            "violations": violations}


# ---------------------------------------------------------------------------
# bounded-gap partition trials
# ---------------------------------------------------------------------------


# each trial's weakness parameter and gap bound l, drawn by index
_WEAKNESS, _GAP_BOUNDS = (1.0, 0.8, 0.5), (2, 3, 4)


def bounded_gap_trials(trials: int, seed: int,
                       dim_range: tuple[int, int] = (8, 64)) -> dict:
    """Randomized partition-bound trials in the summing space (prefix constant 1).

    Each trial's interval partition is evaluated once, right after the trial
    is drawn: its norms, n_k and branch do not depend on the constant, and
    the evaluation draws no random numbers.  The measured constant for a
    (t, n_k) pair is the maximum of the realized greedy-set ratios at the
    partition cardinality and the alternating-witness ratio n_k.  Pass two
    checks each stored evaluation against its measured constant.
    """
    _check_trials(trials)
    dim_lo, dim_hi = dim_range
    if not 1 <= dim_lo <= dim_hi:
        raise ValueError("dim_lo and dim_hi must satisfy 1 <= dim_lo <= dim_hi, "
                         f"got dim_lo = {dim_lo}, dim_hi = {dim_hi}")
    rng = np.random.default_rng(seed)
    gaps = {l: GapSequence.powers(l) for l in _GAP_BOUNDS}
    spaces: dict[int, SpaceDescriptor] = {}
    measured: dict[tuple[float, int], float] = {}
    evaluated = []  # (dim, t, evaluation): neither x nor A is kept
    for _ in range(trials):
        dim = int(rng.integers(dim_lo, dim_hi + 1))
        x = next(iter(random_vectors(dim, 1, rng)))
        t = _WEAKNESS[int(rng.integers(3))]
        l = _GAP_BOUNDS[int(rng.integers(3))]
        m = int(rng.integers(1, min(dim, len(x)) + 1))
        sel = random_greedy_set(x, m, t, rng)
        if dim not in spaces:
            spaces[dim] = summing_space(dim)
        ev = _partition_evaluation(spaces[dim], x, sel.indices, t, gaps[l])
        evaluated.append((dim, t, ev))
        if ev.n_k is not None:
            key = (t, ev.n_k)
            seen = max(ev.realized, default=0.0)
            measured[key] = max(measured.get(key, float(ev.n_k)), seen)

    header = ["trial", "dim", "t", "l", "n_k", "A_size", "branch", "C_measured",
              "lhs", "rhs", "margin", "ok"]
    rows = []
    violations = 0
    for idx, (dim, t, ev) in enumerate(evaluated):
        C = measured.get((t, ev.n_k), 1.0) if ev.n_k is not None else 1.0
        checks = _partition_checks(ev, C, 1.0)
        part = next((c for c in checks if c.name == "partition_bound"), checks[-1])
        ok = ev.in_intervals and all(c.ok for c in checks)
        if not ok:
            violations += 1
        rows.append([idx, dim, t, ev.l, ev.n_k, ev.cardinality, ev.branch, C,
                     part.lhs, part.rhs, part.margin, ok])
    return {"header": header, "rows": rows,
            "json": {"trials": len(rows), "violations": violations,
                     "measured_constants": {f"t={t}|n_k={n}": v
                                            for (t, n), v in sorted(measured.items())},
                     "seed": seed},
            "violations": violations}


# ---------------------------------------------------------------------------
# suppression-one reports
# ---------------------------------------------------------------------------


def suppression_rows(dim: int = 12, budget: int = 400, seed: int = 0) -> dict:
    _check_budget(budget)
    header = ["space", "n1", "M", "bound", "precheck_passed", "max_ratio",
              "margin", "violations", "trials"]
    keys, n1s = ("lp:1", "lp:2", "sup"), (2, 3, 5)
    spaces = [space_from_key(key, dim) for key in keys]
    # one draw per n1 for all three spaces; gaps n1 * 2^j, 2-bounded
    by_n1 = [check_suppression_one_implies_qg(spaces, GapSequence.powers(2, n1), dim,
                                              budget, seed=seed + n1) for n1 in n1s]
    rows = []
    reports = []
    violations = 0
    for k, key in enumerate(keys):
        for n1, reps in zip(n1s, by_n1):
            rep = reps[k]
            reports.append(rep)
            if rep["theorem_applicable"]:
                violations += rep["violations"]
            rows.append([key, n1, rep["M"], rep["bound"], rep["precheck_passed"],
                         rep["max_ratio"], rep["margin"], rep["violations"],
                         rep["trials"]])
    return {"header": header, "rows": rows, "json": {"reports": reports},
            "violations": violations}


# ---------------------------------------------------------------------------
# quasi-Banach audit
# ---------------------------------------------------------------------------


def perturb_audit(trials: int, seed: int, dim: int = 16) -> dict:
    _check_trials(trials)
    if dim < 1:
        raise ValueError(f"dim must be at least 1, got {dim}")
    spaces = {key: space_from_key(key, dim) for key in ("lp:1/2", "lp:2/3")}
    # one pool table for both audits, run first: the pools and the trial
    # table are never held at the same time
    pools = audit_draws(dim, max(8, trials // 8), seed)
    audits = {key: equivalence_audit(space, GapSequence.naturals(), 1.0, pools)
              for key, space in spaces.items()}
    del pools
    draws = trial_draws(trials, seed, dim)  # both spaces, all three suites
    header = ["space", "lemma", "trials", "failures", "worst_margin"]
    rows = []
    reports = []
    failures = 0
    for key, space in spaces.items():
        for suite in (lemma_perturbation_suite, padding_suite, crude_bound_suite):
            rep = suite(space, draws)
            reports.append(rep)
            failures += rep["failures"]
            rows.append([key, rep["lemma"], rep["trials"], rep["failures"],
                         rep["worst_margin"]])
        audit = audits[key]
        reports.append(audit)
        if audit.get("trials") and not audit["satisfied"]:
            failures += 1
        rows.append([key, audit["lemma"], audit.get("trials", 0),
                     0 if audit.get("satisfied", True) else 1, None])
    return {"header": header, "rows": rows, "json": {"reports": reports},
            "violations": failures}
