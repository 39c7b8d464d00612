"""Experiment runners shared by the command-line harness and the acceptance
suite.  Every runner is deterministic given its seed and returns plain dicts
ready for CSV/JSON emission; rows that assert an inequality carry both sides
and the margin.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

import numpy as np

from . import counterexample as cx
from .coeffspace import (GapSequence, SpaceDescriptor, random_vectors,
                         space_from_key, summing_space)
from .constants import (bounded_gap_projection_bound,
                        check_suppression_one_implies_qg,
                        estimate_quasi_greedy_constant,
                        exact_constant_polyhedral, transfer_bound_t_from_s)
from .greedy import random_greedy_set
from .perturb import (crude_bound_suite, equivalence_audit,
                      lemma_perturbation_suite, padding_suite)

__all__ = [
    "divergence_rows",
    "constants_table",
    "transfer_table",
    "bounded_gap_trials",
    "suppression_rows",
    "perturb_audit",
]


# ---------------------------------------------------------------------------
# divergence
# ---------------------------------------------------------------------------


def divergence_rows(depth: int, t: float, adversary: bool = True,
                    m_grid: Optional[Iterable[int]] = None) -> dict:
    report = cx.divergence_experiment(depth, t, adversary, m_grid)
    header = ["m", "t", "K", "min_norm", "phi", "lower_bound", "greedy_set_family"]
    rows = [[r["m"], r["t"], r["depth"], r["min_norm"], r["phi"],
             r["lower_bound"], r["greedy_set_family"]] for r in report["rows"]]
    return {"header": header, "rows": rows, "json": report,
            "violations": len(report["violations"])}


# ---------------------------------------------------------------------------
# constants sweep
# ---------------------------------------------------------------------------


def constants_table(space_key: str, kind: str, t: float, dims: Sequence[int],
                    budget: int, seed: int) -> dict:
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


def transfer_table(space_key: str = "summing", dims: Sequence[int] = (2, 3),
                   step: float = 0.05, seed: int = 0) -> dict:
    """Exact constants on a weakness grid, then every applicable (s, t) pair
    checked against the transfer bound.  Requires a polyhedral space."""
    gap = GapSequence.naturals()
    grid = [round(step * i, 10) for i in range(1, int(round(1.0 / step)) + 1)]
    header = ["dim", "s", "t", "C_qs", "C_qt", "bound", "applicable", "ok", "margin"]
    rows = []
    violations = 0
    for dim in dims:
        space = space_from_key(space_key, dim)
        table = {}
        for tau in grid:
            table[tau] = exact_constant_polyhedral(space, gap, tau, dim, "C_q_t").value
        for s in grid:
            for t in grid:
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


def bounded_gap_trials(trials: int, seed: int, dim_range: tuple[int, int] = (8, 64),
                       t_pool: Sequence[float] = (1.0, 0.8, 0.5),
                       l_pool: Sequence[int] = (2, 3, 4)) -> dict:
    """Randomized partition-bound trials in the summing space (prefix constant 1).

    Pass one draws the trials and harvests every realized greedy-set ratio at
    the partition cardinality; the measured constant for a (t, n_k) pair is
    the maximum of those ratios and the alternating-witness ratio n_k.  Pass
    two replays the trials with the measured constants plugged in.  The
    partition term n_k and the branch depend only on |A| and the gap
    sequence, not on the constant, so pass two reuses pass one's n_k.
    """
    rng = np.random.default_rng(seed)
    drawn = []
    for _ in range(trials):
        dim = int(rng.integers(dim_range[0], dim_range[1] + 1))
        x = next(iter(random_vectors(dim, 1, rng)))
        if not x:
            continue
        t = float(rng.choice(np.asarray(t_pool)))
        l = int(rng.choice(np.asarray(l_pool)))
        m = int(rng.integers(1, min(dim, len(x)) + 1))
        sel = random_greedy_set(x, m, t, rng)
        drawn.append((dim, x, t, l, sel.indices))

    measured: dict[tuple[float, int], float] = {}
    spaces: dict[int, SpaceDescriptor] = {}

    def space_at(dim: int) -> SpaceDescriptor:
        if dim not in spaces:
            spaces[dim] = summing_space(dim)
        return spaces[dim]

    n_ks: list[Optional[int]] = []
    for dim, x, t, l, A in drawn:
        rep = bounded_gap_projection_bound(space_at(dim), 1.0, 1.0, l, x, A, t,
                                           GapSequence.powers(l))
        n_k = rep.get("n_k")
        n_ks.append(n_k)
        if n_k is not None:
            key = (t, n_k)
            seen = max(rep["realized_ratios"], default=0.0)
            measured[key] = max(measured.get(key, float(n_k)), seen)

    header = ["trial", "dim", "t", "l", "n_k", "A_size", "branch", "C_measured",
              "lhs", "rhs", "margin", "ok"]
    rows = []
    violations = 0
    for idx, ((dim, x, t, l, A), n_k) in enumerate(zip(drawn, n_ks)):
        C = measured.get((t, n_k), 1.0) if n_k is not None else 1.0
        rep = bounded_gap_projection_bound(space_at(dim), C, 1.0, l, x, A, t,
                                           GapSequence.powers(l))
        final = next(c for c in rep["bound_checks"] if c["name"] == "global_bound")
        part = next((c for c in rep["bound_checks"] if c["name"] == "partition_bound"), final)
        ok = rep["ok"]
        if not ok:
            violations += 1
        rows.append([idx, dim, t, l, n_k, len(A), rep["branch"], C,
                     part["lhs"], part["rhs"], part["margin"], ok])
    return {"header": header, "rows": rows,
            "json": {"trials": len(rows), "violations": violations,
                     "measured_constants": {f"t={t}|n_k={n}": v
                                            for (t, n), v in sorted(measured.items())},
                     "seed": seed},
            "violations": violations}


# ---------------------------------------------------------------------------
# suppression-one reports
# ---------------------------------------------------------------------------


def suppression_rows(space_keys: Sequence[str] = ("lp:1", "lp:2", "sup"),
                     n1_values: Sequence[int] = (2, 3, 5), dim: int = 12,
                     budget: int = 400, seed: int = 0) -> dict:
    header = ["space", "n1", "M", "bound", "precheck_passed", "max_ratio",
              "margin", "violations", "trials"]
    rows = []
    reports = []
    violations = 0
    for key in space_keys:
        for n1 in n1_values:
            gap = GapSequence.explicit(
                tuple(n1 * 2 ** j for j in range(4) if n1 * 2 ** j <= dim) or (n1,),
                bound_l=2)
            space = space_from_key(key, dim)
            rep = check_suppression_one_implies_qg(space, gap, dim, budget,
                                                   seed=seed + n1)
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


def perturb_audit(trials: int, seed: int,
                  space_keys: Sequence[str] = ("lp:1/2", "lp:2/3"),
                  dim: int = 16) -> dict:
    header = ["space", "lemma", "trials", "failures", "worst_margin"]
    rows = []
    reports = []
    failures = 0
    for key in space_keys:
        space = space_from_key(key, dim)
        for suite in (lemma_perturbation_suite, padding_suite, crude_bound_suite):
            rep = suite(space, trials, seed=seed, dim=dim)
            reports.append(rep)
            failures += rep["failures"]
            rows.append([key, rep["lemma"], rep["trials"], rep["failures"],
                         rep["worst_margin"]])
        audit = equivalence_audit(space, GapSequence.naturals(), 1.0, dim,
                                  max(8, trials // 8), seed=seed)
        reports.append(audit)
        if audit.get("trials") and not audit["satisfied"]:
            failures += 1
        rows.append([key, audit["lemma"], audit.get("trials", 0),
                     0 if audit.get("satisfied", True) else 1, None])
    return {"header": header, "rows": rows, "json": {"reports": reports},
            "violations": failures}
