"""Acceptance suite: one callable per criterion, each returning a structured
pass/fail result.  The command-line ``verify`` entry point and the pytest
acceptance module both run these functions, so the gate is identical in both
places.

Expected values never come from the code under test: spike-sum targets are
recomputed by direct summation, finite-dimensional suppression maxima come
from the closed-form witness shapes (cross-checked against the LP cell
search), and every randomized suite works at a pinned seed.
"""

from __future__ import annotations

import math
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from . import counterexample as cx
from .coeffspace import GapSequence, space_from_key, summing_space
from .constants import (alternating_witness_estimate,
                        estimate_quasi_greedy_constant,
                        exact_constant_polyhedral, transfer_bound_t_from_s)
from .experiments import (bounded_gap_trials, perturb_audit,
                          suppression_rows, transfer_table)

__all__ = ["Profile", "CriterionResult", "run_all", "results_to_report", "CRITERIA"]


@dataclass(frozen=True)
class Profile:
    quick: bool = False
    seed: int = 42


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    runtime: float
    details: dict = field(default_factory=dict)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] criterion {self.number}: {self.name} ({self.runtime:.1f}s)"


def _result(number: int, name: str, fn: Callable[[dict], bool]) -> CriterionResult:
    details: dict = {}
    start = time.perf_counter()
    try:
        passed = bool(fn(details))
    except Exception as exc:  # a crash is a failure with the reason recorded
        details["error"] = f"{type(exc).__name__}: {exc}"
        passed = False
    return CriterionResult(number, name, passed, time.perf_counter() - start, details)


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def criterion_1_norm_identity(profile: Profile) -> CriterionResult:
    depths = range(1, 5 if profile.quick else 9)

    def check(details: dict) -> bool:
        start = time.perf_counter()
        worst = 0.0
        for depth in depths:
            ex = cx.build_example(depth)
            worst = max(worst, abs(cx.truncation_norm(ex) - 1.0))
        elapsed = time.perf_counter() - start
        details.update({"depths": list(depths), "worst_error": worst,
                        "tolerance": 1e-10, "runtime_cap_s": 5.0})
        return worst <= 1e-10 and elapsed < 5.0

    return _result(1, "truncation norm equals 1 at every depth", check)


def criterion_2_divergence(profile: Profile) -> CriterionResult:
    depth = 4 if profile.quick else 7

    def check(details: dict) -> bool:
        start = time.perf_counter()
        ex = cx.build_example(depth)
        worst = 0.0
        value_at_top = 0.0
        for m in range(1, depth + 1):
            target = math.fsum(1.0 / math.sqrt(k) for k in range(1, m + 1))
            got = cx.greedy_sum_norm(ex, m, 1.0)
            worst = max(worst, abs(got - target))
            value_at_top = got
        growth_ok = value_at_top > 4.0 if depth >= 7 else value_at_top > 0.0
        enum_violations = 0
        for t in (1.0, 0.5):
            rep = cx.divergence_experiment(3, t, adversary=True)
            enum_violations += len(rep["violations"])
            if any(not r["exact"] for r in rep["rows"]):
                enum_violations += 1
        elapsed = time.perf_counter() - start
        details.update({"depth": depth, "worst_spike_sum_error": worst,
                        "norm_at_top": value_at_top,
                        "enumeration_violations": enum_violations,
                        "runtime_cap_s": 60.0})
        return (worst <= 1e-9 and growth_ok and enum_violations == 0
                and elapsed < 60.0)

    return _result(2, "greedy sums over spike prefixes diverge; "
                      "enumerated minima respect the analytic floor", check)


def criterion_3_unconditional_sanity(profile: Profile) -> CriterionResult:
    dims = (2, 4, 6) if profile.quick else (2, 3, 4, 5, 6)
    budget = 30 if profile.quick else 60
    gap = GapSequence.naturals()

    def sq_maximum(key: str, d: int) -> float:
        # finite-dimensional suppression maximum, from the all-ones witness with
        # a single kept coordinate (the supremum 1 is approached, not attained,
        # except under the sup norm)
        if key == "sup":
            return 1.0
        ones = np.ones(d)
        rest = np.ones(d - 1)
        if key == "lp:1":
            return float(rest.sum() / ones.sum())
        return float(np.sqrt((rest ** 2).sum()) / np.sqrt((ones ** 2).sum()))

    def check(details: dict) -> bool:
        ok = True
        table = []
        for key in ("lp:1", "lp:2", "sup"):
            for d in dims:
                space = space_from_key(key, d)
                eq = estimate_quasi_greedy_constant(space, gap, 1.0, d, budget,
                                                    kind="C_q_t", seed=profile.seed)
                es = estimate_quasi_greedy_constant(space, gap, 1.0, d, budget,
                                                    kind="C_sq_t", seed=profile.seed)
                expect_sq = sq_maximum(key, d)
                row_ok = (eq.value == 1.0 and eq.exact and eq.upper_bound == 1.0
                          and es.value == expect_sq and es.upper_bound == 1.0
                          and eq.revalidate(space) and es.revalidate(space))
                ok &= row_ok
                table.append({"space": key, "dim": d, "C_q": eq.value,
                              "C_sq": es.value, "C_sq_expected": expect_sq,
                              "C_sq_upper": es.upper_bound, "ok": row_ok})
        # independent cross-check of the suppression maxima via the LP oracle
        lp_dim = 3
        for key in ("lp:1", "sup"):
            space = space_from_key(key, lp_dim)
            lp_val = exact_constant_polyhedral(space, gap, 1.0, lp_dim, "C_sq_t").value
            row_ok = abs(lp_val - sq_maximum(key, lp_dim)) <= 1e-9
            ok &= row_ok
            table.append({"space": key, "dim": lp_dim, "lp_C_sq": lp_val,
                          "ok": row_ok})
        details["table"] = table
        return ok

    return _result(3, "1-unconditional catalogue: greedy constant 1 exact, "
                      "suppression constant certified [finite max, 1]", check)


def criterion_4_summing_growth(profile: Profile) -> CriterionResult:
    d_range = range(2, 17)

    def check(details: dict) -> bool:
        ok = True
        values = []
        for d in d_range:
            space = summing_space(2 * d)
            est = alternating_witness_estimate(space, d)
            ok &= est.value == float(d) and est.revalidate(space)
            values.append(est.value)
        ok &= all(b > a for a, b in zip(values, values[1:]))
        details.update({"d_range": [d_range.start, d_range.stop - 1],
                        "certified_lower_bounds": values})
        return ok

    return _result(4, "summing basis not quasi-greedy: alternating witness "
                      "certifies C_q >= d at dimension 2d", check)


def criterion_5_transfer(profile: Profile) -> CriterionResult:
    dims = (2, 3) if profile.quick else (2, 3, 4)

    def check(details: dict) -> bool:
        rep = transfer_table("summing", dims, step=0.05)
        applicable = sum(1 for row in rep["rows"] if row[6])
        ok = rep["violations"] == 0 and applicable > 0
        # contractive catalogue entries: constants are exactly 1 at every
        # weakness parameter, so the bound (value 1) holds with margin ~0
        for key in ("lp:1", "sup"):
            for d in (2, 6):
                space = space_from_key(key, d)
                for t in (0.35, 0.6, 1.0):
                    est = estimate_quasi_greedy_constant(space, GapSequence.naturals(),
                                                         t, d, 20, seed=profile.seed)
                    ok &= est.value == 1.0 and est.exact
            bound = transfer_bound_t_from_s(1.0, 0.9, 0.35)
            ok &= bound is not None and abs(bound - 1.0) <= 1e-12
        details.update({"summing_dims": list(dims), "grid_step": 0.05,
                        "applicable_pairs": applicable,
                        "violations": rep["violations"]})
        return ok

    return _result(5, "transfer bound between weakness parameters holds on "
                      "every exactly solved instance", check)


def criterion_6_bounded_gaps(profile: Profile) -> CriterionResult:
    trials = 1_000 if profile.quick else 10_000

    def check(details: dict) -> bool:
        rep = bounded_gap_trials(trials, seed=profile.seed)
        details.update({"trials": rep["json"]["trials"],
                        "violations": rep["violations"]})
        return rep["violations"] == 0 and rep["json"]["trials"] > 0

    return _result(6, "partition bound 2*C*K*(l-1+K) and the global bound "
                      "hold on randomized summing-space trials", check)


def criterion_7_suppression_one(profile: Profile) -> CriterionResult:
    budget = 112 if profile.quick else 1_117

    def check(details: dict) -> bool:
        rep = suppression_rows(dim=12, budget=budget, seed=profile.seed)
        total = sum(row[8] for row in rep["rows"])
        prechecks = all(row[4] for row in rep["rows"])
        bounds_ok = all(row[5] <= row[3] + 1e-9 for row in rep["rows"])
        details.update({"total_trials": total, "violations": rep["violations"],
                        "prechecks_passed": prechecks})
        need = 1_000 if profile.quick else 10_000
        return (rep["violations"] == 0 and prechecks and bounds_ok
                and total >= need)

    return _result(7, "suppression ratios stay below n1*a1*a2 + 1 in "
                      "1-suppression-unconditional spaces", check)


def criterion_8_quasi_banach(profile: Profile) -> CriterionResult:
    trials = 200 if profile.quick else 1_000

    def check(details: dict) -> bool:
        rep = perturb_audit(trials, seed=profile.seed)
        alphas = {key: space_from_key(key).alpha for key in ("lp:1/2", "lp:2/3")}
        alpha_ok = (alphas["lp:1/2"] == 2.0
                    and abs(alphas["lp:2/3"] - math.sqrt(2.0)) <= 1e-12)
        details.update({"trials_per_suite": trials, "failures": rep["violations"],
                        "alphas": alphas})
        return rep["violations"] == 0 and alpha_ok

    return _result(8, "quasi-Banach suites: perturbation, padding and crude "
                      "bound run failure-free", check)


def criterion_9_determinism(profile: Profile) -> CriterionResult:
    def check(details: dict) -> bool:
        from .cli import run_experiment_set

        micro = {
            "divergence": {"depth": 3, "t": 1.0, "adversary": True},
            "constants": {"space": "summing", "kind": "C_q_t", "t": 1.0,
                          "dims": "2..4", "budget": 15},
            "transfer": {"space": "summing", "dims": "2", "step": 0.25},
            "bounded-gaps": {"trials": 40, "dim_lo": 8, "dim_hi": 24},
            "suppression-one": {"budget": 25, "dim": 10},
            "perturb-audit": {"trials": 25, "dim": 12},
        }
        with tempfile.TemporaryDirectory() as tmp:
            out_a, out_b = Path(tmp) / "a", Path(tmp) / "b"
            for out in (out_a, out_b):
                for name, params in micro.items():
                    run_experiment_set(name, dict(params), out, seed=profile.seed)
            mismatches = []
            files_a = sorted(p.relative_to(out_a) for p in out_a.rglob("*") if p.is_file())
            files_b = sorted(p.relative_to(out_b) for p in out_b.rglob("*") if p.is_file())
            if files_a != files_b:
                mismatches.append("file lists differ")
            for rel in files_a:
                if (out_a / rel).read_bytes() != (out_b / rel).read_bytes():
                    mismatches.append(str(rel))
            details.update({"files_compared": len(files_a), "mismatches": mismatches})
            return not mismatches and len(files_a) > 0

    return _result(9, "identical seed produces byte-identical reports", check)


CRITERIA = (
    criterion_1_norm_identity,
    criterion_2_divergence,
    criterion_3_unconditional_sanity,
    criterion_4_summing_growth,
    criterion_5_transfer,
    criterion_6_bounded_gaps,
    criterion_7_suppression_one,
    criterion_8_quasi_banach,
    criterion_9_determinism,
)


def run_all(profile: Optional[Profile] = None,
            echo: Optional[Callable[[str], None]] = None) -> list[CriterionResult]:
    profile = profile if profile is not None else Profile()
    results = []
    for criterion in CRITERIA:
        res = criterion(profile)
        results.append(res)
        if echo is not None:
            echo(res.line())
    return results


def results_to_report(results: list[CriterionResult], profile: Profile) -> dict:
    """Deterministic report payload (wall-clock times are excluded)."""
    return {
        "profile": {"quick": profile.quick, "seed": profile.seed},
        "criteria": [
            {"number": r.number, "name": r.name, "passed": r.passed,
             "details": r.details}
            for r in results
        ],
        "all_passed": all(r.passed for r in results),
    }
