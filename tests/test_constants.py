"""Constant estimation, the exact cell search, and the theorem-level bounds."""

import functools
import hashlib
import itertools
import json
import math
import os
import warnings
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

import greedylab as gl
import greedylab.constants as constants_module
from greedylab import CoeffVector as CV
from greedylab import GapSequence
from greedylab.coeffspace import random_vectors
from greedylab.cli import run_experiment_set
from greedylab.constants import (_ENUMERATION_CAP, _pad_to_cardinality, _partition_checks,
                                 _partition_evaluation, _snap_vertices)
from greedylab.estimates import KINDS, ConstantEstimate, _ratio
from greedylab.greedy import _modulus_classes, _t_greedy_index_sets
from greedylab import experiments
from greedylab.experiments import bounded_gap_trials, transfer_table

NAT = GapSequence.naturals()


def _certified_witness(x, A, t):
    """One vertex snapped with Python floats, as the search did before it
    snapped a whole batch in numpy (``_snap_vertices`` must give these bits)."""
    vals = dict(x.pairs())
    peak = max((abs(v) for v in vals.values()), default=0.0)
    if peak == 0.0:
        return x
    vals = {i: v for i, v in vals.items() if abs(v) > 1e-11 * peak}
    outside = {i: v for i, v in vals.items() if i not in A}
    if outside:
        # an A-index with a (snapped) zero coefficient forces the whole
        # complement to zero
        lo = min((abs(vals[i]) for i in A if i in vals), default=0.0)
        if any(i not in vals for i in A):
            lo = 0.0
        hi = max(abs(v) for v in outside.values())
        if t * hi > lo and hi > 0.0:
            shrink = (lo / (t * hi)) * (1.0 - 1e-14) if lo > 0.0 else 0.0
            for i in outside:
                vals[i] = vals[i] * shrink
    return CV.from_pairs((i, v) for i, v in vals.items() if v != 0.0)


def reference_cell_search(space, t, dim, kind="C_q_t"):
    """The value of the exact search made with one ``linprog`` call per
    (index set, sign cell, functional, sign), as before batching."""
    F = np.asarray(space.dual_functionals(dim), dtype=np.float64)
    ball = np.vstack([F, -F])
    b_ball = np.ones(ball.shape[0])
    var_bounds = [(-space.alpha2, space.alpha2)] * dim
    best = 0.0
    for size in NAT.members_up_to(dim):
        for A_tuple in itertools.combinations(range(1, dim + 1), size):
            A = frozenset(A_tuple)
            mask = np.zeros(dim)
            for i in A_tuple:
                mask[i - 1] = 1.0
            obj_mask = mask if kind == "C_q_t" else 1.0 - mask
            outside = [j for j in range(1, dim + 1) if j not in A]
            for signs_rest in itertools.product((1.0, -1.0), repeat=dim - 1):
                sigma = np.array((1.0,) + signs_rest)
                rows = [-np.diag(sigma)]
                if outside:
                    greedy = np.zeros((len(A_tuple) * len(outside), dim))
                    r = 0
                    for i in A_tuple:
                        for j in outside:
                            greedy[r, j - 1] = t * sigma[j - 1]
                            greedy[r, i - 1] -= sigma[i - 1]
                            r += 1
                    rows.append(greedy)
                A_ub = np.vstack([ball] + rows)
                b_ub = np.concatenate([b_ball, np.zeros(A_ub.shape[0] - ball.shape[0])])
                for f in F:
                    cvec = f * obj_mask
                    if not np.any(cvec):
                        continue
                    for sgn in (1.0, -1.0):
                        res = linprog(-sgn * cvec, A_ub=A_ub, b_ub=b_ub,
                                      bounds=var_bounds, method="highs")
                        assert res.success
                        x = _certified_witness(CV.from_dense(res.x), A, t)
                        nx = space.norm(x)
                        if nx <= 0.0:
                            continue
                        best = max(best, _ratio(space, x, A, kind, nx))
    return best


@functools.lru_cache(maxsize=None)
def reference_value(key, dim, t, kind="C_q_t"):
    return reference_cell_search(gl.space_from_key(key, dim), t, dim, kind)


class TestTransferBound:
    def test_constant_one_is_fixed_point(self):
        assert gl.transfer_bound_t_from_s(1.0, 1.0, 0.5) == pytest.approx(1.0)

    def test_displayed_arithmetic(self):
        assert gl.transfer_bound_t_from_s(2.0, 1.0, 0.6) == pytest.approx(6.0)

    def test_window_boundary_excluded(self):
        # the window is strict: t must exceed s * (1 - 1/C)
        assert gl.transfer_bound_t_from_s(2.0, 1.0, 0.5) is None
        assert gl.transfer_bound_t_from_s(2.0, 1.0, 0.5 + 1e-9) is not None

    def test_preconditions(self):
        with pytest.raises(ValueError):
            gl.transfer_bound_t_from_s(2.0, 0.5, 0.5)
        with pytest.raises(ValueError):
            gl.transfer_bound_t_from_s(0.5, 1.0, 0.5)
        with pytest.raises(ValueError):
            gl.transfer_bound_t_from_s(2.0, 1.2, 0.5)


class TestEstimator:
    def test_l2_contracts_exactly(self):
        est = gl.estimate_quasi_greedy_constant(gl.lp_space(2.0), NAT, 1.0, 6, 40)
        assert est.value == 1.0 and est.exact and est.upper_bound == 1.0

    def test_summing_dimension_one(self):
        est = gl.estimate_quasi_greedy_constant(gl.summing_space(1),
                                                NAT, 1.0, 1, 10)
        assert est.value == pytest.approx(1.0)

    def test_alternating_witness_reaches_d(self):
        for d in (2, 3, 5):
            space = gl.summing_space(2 * d)
            witness = gl.alternating_witness_estimate(space, d)
            assert witness.value == float(d)
            est = gl.estimate_quasi_greedy_constant(space, NAT, 1.0, 2 * d, 30)
            assert est.value >= d

    def test_empty_gap_window_rejected(self):
        with pytest.raises(ValueError, match="no admissible cardinality"):
            gl.estimate_quasi_greedy_constant(gl.lp_space(2.0),
                                              GapSequence.explicit([9]), 1.0, 4, 10)

    @pytest.mark.parametrize("search", [
        lambda gap: gl.estimate_quasi_greedy_constant(gl.lp_space(2.0), gap, 1.0, 4, 10),
        lambda gap: gl.check_suppression_one_implies_qg(gl.lp_space(2.0), gap, 4, 10),
        lambda gap: gl.equivalence_audit(gl.lp_space(2.0), gap, 1.0, 4, 10),
        lambda gap: gl.exact_constant_grid(gl.summing_space(4), gap, [1.0], 4, "C_q_t"),
    ], ids=["estimate", "suppression", "equivalence", "exact"])
    def test_empty_gap_window_names_dim_and_first_term(self, search):
        with pytest.raises(ValueError, match="no admissible cardinality: dim = 4 is "
                                             "below the gap sequence's first term 9"):
            search(GapSequence.explicit([9]))

    def test_witnesses_revalidate(self):
        for key in ("summing", "lp:1", "lp:2", "sup"):
            space = gl.space_from_key(key, 6)
            for kind in ("C_q_t", "C_sq_t"):
                est = gl.estimate_quasi_greedy_constant(space, NAT, 0.8, 6, 40,
                                                        kind=kind, seed=2)
                assert est.revalidate(space)
                assert gl.is_t_greedy(est.witness_x, est.witness_A, 0.8)

    def test_monotone_in_t(self):
        space = gl.summing_space(6)
        values = [gl.estimate_quasi_greedy_constant(space, NAT, t, 6, 60, seed=4).value
                  for t in (0.3, 0.6, 1.0)]
        assert values[0] >= values[1] >= values[2]


def reference_estimate(space, gap, t, dim, budget, kind, seed):
    """The estimator's search as it was before it read one greedy order per
    sample: every candidate set comes from ``enumerate_t_greedy_sets`` (plus
    the lowest and highest greedy sets on overflow) as a frozenset and is
    scored by ``_ratio``; ties go to the smallest (x, sorted A) encoding."""
    pool = list(constants_module.structured_witnesses(dim))
    if space.extreme_points is not None and dim <= 8:
        pool.extend(itertools.islice(space.extreme_points(tuple(range(1, dim + 1))), 512))
    pool.extend(random_vectors(dim, budget, np.random.default_rng(seed)))
    best, best_x, best_A = 0.0, None, None
    for x in pool:
        norm_x = space.norm(x) if x else 0.0
        if norm_x <= 0.0:
            continue
        for m in gap.members_up_to(dim):
            if m <= len(x):
                res = gl.enumerate_t_greedy_sets(x, m, t, cap=_ENUMERATION_CAP)
                sets = [sel.indices for sel in res.selections]
                if res.overflow:
                    sets += [gl.one_greedy_set(x, m, t, p).indices for p in ("lowest", "highest")]
                candidates = list(dict.fromkeys(sets))
            else:
                padded = _pad_to_cardinality(x, m, dim)
                candidates = [] if padded is None else [frozenset(padded)]
            for A in candidates:
                r = _ratio(space, x, A, kind, norm_x)
                if r > best or (r == best and best_x is not None and
                                (x.to_json(), tuple(sorted(A)))
                                < (best_x.to_json(), tuple(sorted(best_A)))):
                    best, best_x, best_A = r, x, A
    return best, best_x, best_A


class TestEstimatorMatchesReference:
    @pytest.mark.parametrize("key", ["summing", "lp:1", "sup"])
    @pytest.mark.parametrize("kind", ["C_q_t", "C_sq_t"])
    @pytest.mark.parametrize("t", [1.0, 0.8, 0.5])
    @pytest.mark.parametrize("dim,budget", [(5, 16), (12, 8)])
    def test_same_value_bits_and_witness(self, key, kind, t, dim, budget):
        space = gl.space_from_key(key, dim)
        est = gl.estimate_quasi_greedy_constant(space, NAT, t, dim, budget, kind=kind, seed=3)
        value, x, A = reference_estimate(space, NAT, t, dim, budget, kind, seed=3)
        assert _bits([est.value]) == _bits([value])
        assert (est.witness_x, est.witness_A) == (x, A)
        assert isinstance(est.witness_A, frozenset)

    @pytest.mark.parametrize("kind,signs", [
        ("C_q_t", [-1.0, 1.0] * 3 + [1.0] * 6),
        ("C_sq_t", [1.0] * 6 + [-1.0] * 5 + [1.0]),
    ])
    def test_overflow_witness_is_the_highest_set(self, monkeypatch, kind, signs):
        # all 924 sets of size 6 tie at dim 12; the first 128 in lexicographic
        # order all hold indices 1 and 2, and only the highest set {7..12}
        # reaches the ratio 1
        x = CV.from_dense(signs)
        assert gl.enumerate_t_greedy_sets(x, 6, 1.0, cap=_ENUMERATION_CAP).overflow
        monkeypatch.setattr(constants_module, "structured_witnesses", lambda dim: [x])
        space, gap = gl.summing_space(12), GapSequence.explicit([6])
        est = gl.estimate_quasi_greedy_constant(space, gap, 1.0, 12, 0, kind=kind)
        assert (est.value, est.witness_A) == (1.0, frozenset(range(7, 13)))
        assert reference_estimate(space, gap, 1.0, 12, 0, kind, seed=0) == (1.0, x, est.witness_A)


def per_candidate_estimate(space, gap, t, dim, budget, kind, seed):
    """The estimator as it was before it gathered both kinds from x's support
    and memoised norms in spreading spaces: every candidate set is scored by
    ``_ratio`` (a fresh projection or drop, and a fresh norm), with the same
    pool, candidates, tie-break and report fields."""
    rng = np.random.default_rng(seed)
    pool = list(constants_module.structured_witnesses(dim))
    if space.extreme_points is not None and dim <= 8:
        pool.extend(itertools.islice(space.extreme_points(tuple(range(1, dim + 1))), 512))
    pool.extend(random_vectors(dim, budget, rng))
    best, best_x, best_A = 0.0, None, None
    for x in pool:
        norm_x = space.norm(x)
        if norm_x <= 0.0:
            continue
        classes = _modulus_classes(x)
        for m in gap.admissible_sizes(dim):
            if m <= len(x):
                candidates = list(_t_greedy_index_sets(classes, m, t, _ENUMERATION_CAP))
                if len(candidates) > _ENUMERATION_CAP:
                    candidates[_ENUMERATION_CAP:] = [
                        tuple(sorted(gl.one_greedy_set(x, m, t, policy).indices))
                        for policy in ("lowest", "highest")]
                    candidates = list(dict.fromkeys(candidates))
            else:
                padded = _pad_to_cardinality(x, m, dim)
                candidates = [padded] if padded is not None else []
            for A in candidates:
                r = _ratio(space, x, A, kind, norm_x)
                if r > best or (r == best and best_x is not None and
                                (x.to_json(), A) < (best_x.to_json(), best_A)):
                    best, best_x, best_A = r, x, A
    upper = 1.0 if space.contractive_projections else None
    exact = bool(upper is not None and abs(best - upper) <= 1e-12)
    note = "LOWER_BOUND"
    if upper is not None:
        note = ("attains the contractive-projection bound" if exact
                else "upper bound 1 from contractive projections; "
                     "finite-dimensional maximum lies strictly below")
    return ConstantEstimate(kind=kind, value=float(best), witness_x=best_x,
                            witness_A=None if best_A is None else frozenset(best_A),
                            exact=exact, t=t, upper_bound=upper, note=note, mode="sampled")


# unequal weights, so that the weighted space is not spreading
WEIGHTS = [1.0, 3.0, 0.5, 2.0, 1.5, 0.25, 4.0, 1.0, 0.75, 2.5]
ORACLE_SPACES = {
    "summing": lambda dim: gl.summing_space(dim),
    "lp:1": lambda dim: gl.lp_space(1.0),
    "lp:2": lambda dim: gl.lp_space(2.0),
    "lp:1/2": lambda dim: gl.lp_space(0.5),
    "sup": lambda dim: gl.sup_space(),
    "weighted-lp:1": lambda dim: gl.weighted_lp_space(1.0, WEIGHTS, dim),
}
ORACLE_GAPS = {"naturals": NAT, "powers(2)": GapSequence.powers(2),
               "powers(2, 3)": GapSequence.powers(2, 3)}


def _assert_matches_per_candidate(key, gap_name, kind, t, dim, budget, seed):
    space, gap = ORACLE_SPACES[key](dim), ORACLE_GAPS[gap_name]
    est = gl.estimate_quasi_greedy_constant(space, gap, t, dim, budget, kind=kind, seed=seed)
    ref = per_candidate_estimate(space, gap, t, dim, budget, kind, seed)
    assert json.dumps(est.to_report()).encode() == json.dumps(ref.to_report()).encode()
    assert (est.witness_x, est.witness_A) == (ref.witness_x, ref.witness_A)


class TestEstimatorMatchesPerCandidateSearch:
    """Gathering both kinds from x's support, and norming each distinct part
    once in a spreading space, give the reports of scoring every candidate
    on its own."""

    @given(st.sampled_from(sorted(ORACLE_SPACES)), st.sampled_from(sorted(ORACLE_GAPS)),
           st.sampled_from(KINDS), st.sampled_from([1.0, 0.8, 0.5, 0.3]),
           st.integers(1, 10), st.integers(0, 16), st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_same_report_bytes_and_witness(self, key, gap_name, kind, t, dim, budget, seed):
        assume(dim >= ORACLE_GAPS[gap_name].first())
        _assert_matches_per_candidate(key, gap_name, kind, t, dim, budget, seed)

    @pytest.mark.parametrize("key", sorted(ORACLE_SPACES))
    @pytest.mark.parametrize("kind", KINDS)
    def test_all_tie_overflow(self, key, kind):
        # the all-ones witness and the sign samples tie at every entry, so at
        # dim 10 the 210 sets of size 4 overflow the cap of 128
        assert gl.enumerate_t_greedy_sets(CV.from_dense(np.ones(10)), 4, 1.0,
                                          cap=_ENUMERATION_CAP).overflow
        _assert_matches_per_candidate(key, "naturals", kind, 1.0, 10, 16, 5)


class TestExactCellSearch:
    def test_summing_small_dims(self):
        # frozen from the hand witnesses: (1,-2) with A={2} gives 2 at d=2;
        # (1,-2,2) with A={1,3} needs t <= 1/2 and gives 3 at d=3
        assert gl.exact_constant_polyhedral(gl.summing_space(2), NAT, 1.0, 2).value \
            == pytest.approx(2.0, abs=1e-9)
        assert gl.exact_constant_polyhedral(gl.summing_space(3), NAT, 1.0, 3).value \
            == pytest.approx(2.0, abs=1e-9)
        assert gl.exact_constant_polyhedral(gl.summing_space(3), NAT, 0.5, 3).value \
            == pytest.approx(3.0, abs=1e-9)

    def test_hand_witness_realizes_exact_value(self):
        x = CV.from_dense([1.0, -2.0, 2.0])
        assert gl.summing_norm(x) == 1.0
        assert gl.is_t_greedy(x, {1, 3}, 0.5)
        assert gl.summing_norm(gl.projection(x, {1, 3})) == 3.0

    def test_exact_dominates_sampled(self):
        space = gl.summing_space(4)
        exact = gl.exact_constant_polyhedral(space, NAT, 1.0, 4)
        sampled = gl.estimate_quasi_greedy_constant(space, NAT, 1.0, 4, 120, seed=6)
        assert exact.value >= sampled.value - 1e-9
        assert exact.exact and exact.revalidate(space)
        assert gl.is_t_greedy(exact.witness_x, exact.witness_A, 1.0)

    def test_contractive_spaces_stay_at_one(self):
        for key in ("lp:1", "sup"):
            space = gl.space_from_key(key, 3)
            assert gl.exact_constant_polyhedral(space, NAT, 1.0, 3).value \
                == pytest.approx(1.0, abs=1e-9)

    def test_suppression_kind(self):
        val = gl.exact_constant_polyhedral(gl.lp_space(1.0), NAT, 1.0, 3,
                                           "C_sq_t").value
        assert val == pytest.approx(2.0 / 3.0, abs=1e-9)

    def test_monotone_in_t_exact(self):
        space = gl.summing_space(3)
        vals = [gl.exact_constant_polyhedral(space, NAT, t, 3).value
                for t in (0.2, 0.5, 0.8, 1.0)]
        assert all(a >= b - 1e-9 for a, b in zip(vals, vals[1:]))

    def test_dimension_five_spot_value(self):
        # two same-sign coefficients of modulus 2 inside a unit-norm vector:
        # (1,-2,2,-2,2) with A = {2,4} realizes ratio 4, and the cell search
        # confirms nothing at dimension 5 beats it
        x = CV.from_dense([1.0, -2.0, 2.0, -2.0, 2.0])
        assert gl.summing_norm(x) == 1.0
        assert gl.is_t_greedy(x, {2, 4}, 1.0)
        assert gl.summing_norm(gl.projection(x, {2, 4})) == 4.0
        est = gl.exact_constant_polyhedral(gl.summing_space(5), NAT, 1.0, 5)
        assert est.value == pytest.approx(4.0, abs=1e-9)

    def test_requires_polyhedral_oracle(self):
        with pytest.raises(ValueError, match="dual-functional"):
            gl.exact_constant_polyhedral(gl.lp_space(2.0), NAT, 1.0, 3)

    def test_lp_budget_guard(self, monkeypatch):
        # dimension 9 needs 2,354,688 cell LPs; none may be solved
        monkeypatch.setattr(constants_module, "linprog", None)
        with pytest.raises(ValueError, match="2354688 linear programs, over the cap"):
            gl.exact_constant_polyhedral(gl.summing_space(9), NAT, 1.0, 9)

    def test_solver_failure_raises(self, monkeypatch):
        failed = SimpleNamespace(success=False, status=4, x=None,
                                 message="numerical difficulties")
        monkeypatch.setattr(constants_module, "linprog", lambda *a, **k: failed)
        with pytest.raises(RuntimeError, match="status 4: numerical difficulties"):
            gl.exact_constant_polyhedral(gl.summing_space(3), NAT, 1.0, 3)


def _assert_matches_reference(space, t, dim, kind):
    est = gl.exact_constant_polyhedral(space, NAT, t, dim, kind)
    assert est.value == reference_value(space.name, dim, t, kind)
    # another optimal vertex may give another witness for the same value
    assert est.revalidate(space)
    assert gl.is_t_greedy(est.witness_x, est.witness_A, t)


class TestBatchedSearchMatchesReference:
    @pytest.mark.parametrize("t", [0.05, 0.35, 0.55, 0.6, 1.0])
    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_summing(self, dim, t):
        _assert_matches_reference(gl.summing_space(dim), t, dim, "C_q_t")

    @pytest.mark.parametrize("kind", ["C_q_t", "C_sq_t"])
    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("key", ["lp:1", "sup"])
    def test_contractive_spaces(self, key, dim, kind):
        for t in (0.35, 1.0):
            _assert_matches_reference(gl.space_from_key(key, dim), t, dim, kind)


# the weakness grid of the grid tests, in search order
GRID = (0.05, 0.35, 0.55, 0.6, 1.0)


def _bits(values):
    return [float(v).hex() for v in values]


def _count_blocks(monkeypatch, dim):
    """Record the number of cell LPs in every block-diagonal solve."""
    blocks = []

    def counting(c, **kwargs):
        blocks.append(c.size // dim)
        return linprog(c, **kwargs)

    monkeypatch.setattr(constants_module, "linprog", counting)
    return blocks


def _some_solve_spans_two_ts(blocks, n_ts):
    """True when one solve holds cell LPs of two weakness parameters (every t
    of a grid has the same number of cell LPs)."""
    per_t = sum(blocks) // n_ts
    ends = list(itertools.accumulate(blocks))
    return any(start // per_t != (end - 1) // per_t
               for start, end in zip([0] + ends, ends))


def _assert_valid_witnesses(space, ts, estimates):
    for t, est in zip(ts, estimates, strict=True):
        assert est.t == t and est.exact and est.mode == "lp-cell"
        assert est.revalidate(space)
        assert gl.is_t_greedy(est.witness_x, est.witness_A, t)


def _cell_lp_count(space, dim, kind="C_q_t"):
    """Cell LPs with a nonzero objective, counted as ``reference_cell_search``
    solves them: one per (index set, sign cell, functional, sign)."""
    F = np.asarray(space.dual_functionals(dim), dtype=np.float64)
    count = 0
    for size in NAT.members_up_to(dim):
        for A_tuple in itertools.combinations(range(1, dim + 1), size):
            mask = np.isin(np.arange(1, dim + 1), A_tuple).astype(float)
            obj_mask = mask if kind == "C_q_t" else 1.0 - mask
            count += 2 ** (dim - 1) * 2 * sum(bool(np.any(f * obj_mask)) for f in F)
    return count


class TestExactGrid:
    @pytest.mark.parametrize("key,dim,kind", [
        *[("summing", dim, "C_q_t") for dim in (2, 3, 4)],
        *[(key, dim, kind) for key in ("lp:1", "sup") for dim in (2, 3)
          for kind in ("C_q_t", "C_sq_t")]])
    def test_entries_match_single_searches_and_reference(self, key, dim, kind,
                                                         monkeypatch):
        space = gl.space_from_key(key, dim)
        blocks = _count_blocks(monkeypatch, dim)
        estimates = gl.exact_constant_grid(space, NAT, GRID, dim, kind)
        assert _some_solve_spans_two_ts(blocks, len(GRID))
        assert _bits(e.value for e in estimates) == _bits(
            gl.exact_constant_polyhedral(space, NAT, t, dim, kind).value for t in GRID)
        assert _bits(e.value for e in estimates) == _bits(
            reference_value(key, dim, t, kind) for t in GRID)
        _assert_valid_witnesses(space, GRID, estimates)

    # 96 distinct cell LPs per t at dimension 3: a batch of 64 splits each t
    # across two solves, and its second solve also holds the next t's first LPs
    @pytest.mark.parametrize("batch", [1, 7, 64])
    def test_batch_size_does_not_change_values(self, batch, monkeypatch):
        space = gl.summing_space(3)
        expected = _bits(reference_value("summing", 3, t) for t in GRID)
        monkeypatch.setattr(constants_module, "_LP_BATCH", batch)
        blocks = _count_blocks(monkeypatch, 3)
        estimates = gl.exact_constant_grid(space, NAT, GRID, 3)
        assert max(blocks) == batch and sum(blocks) == 96 * len(GRID)
        assert _bits(e.value for e in estimates) == expected
        _assert_valid_witnesses(space, GRID, estimates)

    def test_cell_table_is_built_once_per_grid(self, monkeypatch):
        calls, build = [], constants_module._cell_lps

        def counting(*args):
            calls.append(args)
            return build(*args)

        monkeypatch.setattr(constants_module, "_cell_lps", counting)
        estimates = gl.exact_constant_grid(gl.summing_space(3), NAT, GRID, 3)
        assert len(calls) == 1 and len(estimates) == len(GRID)
        assert _bits(e.value for e in estimates) == _bits(
            reference_value("summing", 3, t) for t in GRID)

    def test_empty_grid(self):
        assert gl.exact_constant_grid(gl.summing_space(3), NAT, [], 3) == []

    def test_cap_counts_the_whole_grid(self, monkeypatch):
        # 4,960 cell LPs per constant at dimension 5; 404 of them pass the cap
        monkeypatch.setattr(constants_module, "linprog", None)
        with pytest.raises(ValueError, match="2003840 linear programs, over the cap"):
            gl.exact_constant_grid(gl.summing_space(5), NAT, [0.5] * 404, 5)

    @pytest.mark.parametrize("key,dim,solved,total", [
        ("summing", 5, 2560, 4128), ("lp:1", 3, 104, 448), ("lp:1", 4, 640, 3840),
        ("sup", 3, 96, 96)])
    def test_each_distinct_cell_lp_is_solved_once(self, key, dim, solved, total,
                                                   monkeypatch):
        space = gl.space_from_key(key, dim)
        blocks = _count_blocks(monkeypatch, dim)
        gl.exact_constant_polyhedral(space, NAT, 0.6, dim)
        assert sum(blocks) == solved
        assert _cell_lp_count(space, dim) == total


# entries that reach every branch of the snap: exact zeros of both signs, fuzz
# below 1e-11 of the peak, and ties
_ENTRIES = st.one_of(st.sampled_from([0.0, -0.0, 1e-13, -3e-12, 0.5, -1.0, 1.0, 2.0]),
                     st.floats(-2.0, 2.0))


@st.composite
def _vertex_batches(draw):
    dim = draw(st.integers(1, 6))
    rows = draw(st.lists(st.tuples(
        st.lists(_ENTRIES, min_size=dim, max_size=dim),
        st.sets(st.integers(1, dim), min_size=1),
        st.one_of(st.sampled_from([1.0, 0.6, 0.05]), st.floats(1e-3, 1.0))),
        min_size=1, max_size=5))
    return dim, rows


@given(_vertex_batches())
@settings(max_examples=300, deadline=None)
@example((3, [([0.0, 0.0, 0.0], {1}, 1.0)]))  # zero vertex
@example((3, [([1e-13, 1.0, -0.5], {1, 2}, 1.0)]))  # A-index snapped: lo = 0
@example((3, [([0.0, 1.0, -0.5], {1}, 0.6)]))  # A-index exactly zero
@example((3, [([0.4, 1.0, -0.5], {1}, 0.6)]))  # shrink by lo / (t * hi)
@example((2, [([1.0, -1.0], {1, 2}, 1.0), ([0.0, 2.0], {1}, 0.5)]))  # no complement
def test_array_snap_equals_scalar_snap(batch):
    dim, rows = batch
    X = np.array([vertex for vertex, _, _ in rows], dtype=np.float64)
    in_A = np.array([[i in A for i in range(1, dim + 1)] for _, A, _ in rows])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no 0 * inf or 0 / 0 on any row
        Y = _snap_vertices(X, in_A, np.array([t for _, _, t in rows]))
    for (vertex, A, t), y in zip(rows, Y, strict=True):
        scalar = _certified_witness(CV.from_dense(vertex), frozenset(A), t)
        snapped = CV.from_dense(y)
        assert snapped.support() == scalar.support()
        assert _bits(v for _, v in snapped.pairs()) == _bits(v for _, v in scalar.pairs())


class TestTransferTableInput:
    @pytest.mark.parametrize("step", [0.0, -0.5, 1.5, math.nan])
    def test_step_outside_unit_interval_rejected(self, step):
        with pytest.raises(ValueError, match="step"):
            transfer_table("summing", (2,), step)

    def test_fine_grid_refused_before_any_solve(self, monkeypatch):
        # 10^7 grid points: 24 cell LPs each at dimension 2
        monkeypatch.setattr(constants_module, "linprog", None)
        with pytest.raises(ValueError, match="240000000 linear programs, over the cap"):
            transfer_table("summing", (2, 3), 1e-7)

    def test_one_search_per_dimension(self, monkeypatch):
        blocks = _count_blocks(monkeypatch, 3)
        rep = transfer_table("summing", (3,), 0.25)
        # one search: its 4 * 96 cell LPs fill the fewest solves
        assert sum(blocks) == 4 * 96
        assert len(blocks) == math.ceil(4 * 96 / constants_module._LP_BATCH) < 4
        assert rep["json"]["pairs"] == 6


def test_import_does_not_load_scipy_optimize():
    src = str(Path(gl.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, greedylab; print('scipy.optimize' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


class TestUnconditionalSanity:
    @pytest.mark.parametrize("key", ["lp:1", "lp:2", "sup"])
    @pytest.mark.parametrize("dim", range(2, 9))
    def test_greedy_constant_exactly_one(self, key, dim):
        space = gl.space_from_key(key, dim)
        est = gl.estimate_quasi_greedy_constant(space, NAT, 1.0, dim, 30, seed=1)
        assert est.value == 1.0 and est.exact


class TestTransferSoundness:
    def test_exact_grid_small_dims(self):
        # measured (exact) constants never violate the transfer bound
        for dim in (2, 3):
            space = gl.summing_space(dim)
            grid = [0.2, 0.4, 0.5, 0.6, 0.8, 1.0]
            table = {t: gl.exact_constant_polyhedral(space, NAT, t, dim).value
                     for t in grid}
            for s in grid:
                for t in grid:
                    if not t < s:
                        continue
                    bound = gl.transfer_bound_t_from_s(table[s], s, t)
                    if bound is not None:
                        assert table[t] <= bound + 1e-9


class TestSuppressionOneTheorem:
    def test_l1_small_first_term(self):
        gap = GapSequence.explicit([2, 4, 8], bound_l=2)
        rep = gl.check_suppression_one_implies_qg(gl.lp_space(1.0), gap, 12,
                                                  300, seed=3)
        assert rep["precheck_passed"] and rep["theorem_applicable"]
        assert rep["M"] == 2.0 and rep["bound"] == 3.0
        assert rep["max_ratio"] <= 1.0 + 1e-9 and rep["violations"] == 0

    def test_sup_norm(self):
        gap = GapSequence.explicit([3, 6, 12], bound_l=2)
        rep = gl.check_suppression_one_implies_qg(gl.sup_space(), gap, 12,
                                                  300, seed=3)
        assert rep["bound"] == 4.0 and rep["max_ratio"] <= 1.0 + 1e-9
        assert rep["violations"] == 0

    def test_summing_precheck_fails_reported(self):
        rep = gl.check_suppression_one_implies_qg(gl.summing_space(9), NAT, 9,
                                                  150, seed=3)
        assert not rep["precheck_passed"] and not rep["theorem_applicable"]
        assert rep["precheck_max_suppression_ratio"] > 1.0
        assert "precheck_witness" in rep

    def test_runner_checks_the_whole_gap_sequence(self, monkeypatch):
        # suppression_rows once cut n1 * 2^j at j = 3, skipping 64 for n1 = 2
        seen = []

        def record(space, gap, dim, budget, seed):
            seen.append((space.name, gap.members_up_to(dim)))
            return {"theorem_applicable": False, "M": 1.0, "bound": 1.0,
                    "precheck_passed": True, "max_ratio": 0.0, "margin": 0.0,
                    "violations": 0, "trials": 0}

        monkeypatch.setattr(experiments, "check_suppression_one_implies_qg", record)
        experiments.suppression_rows(dim=64, budget=0, seed=0)
        members = {(2, 4, 8, 16, 32, 64), (3, 6, 12, 24, 48), (5, 10, 20, 40)}
        assert len(seen) == 9 and {gaps for _, gaps in seen} == members

    def test_handwritten_suppression_violation(self):
        # (1,-1,1) with the middle coordinate removed doubles the norm
        x = CV.from_dense([1.0, -1.0, 1.0])
        assert gl.is_t_greedy(x, {2}, 1.0)
        assert gl.summing_norm(x - gl.projection(x, {2})) == 2.0


class TestBoundedGapPartition:
    def _setup(self, dim=24, m=7, seed=9):
        rng = np.random.default_rng(seed)
        x = CV.from_dense(rng.standard_normal(dim))
        sel = gl.one_greedy_set(x, m, 1.0)
        return gl.summing_space(dim), x, sel.indices

    def test_partition_branch_with_generous_constant(self):
        space, x, A = self._setup(m=7)
        rep = gl.bounded_gap_projection_bound(space, 50.0, 1.0, x, A, 1.0,
                                              GapSequence.powers(2, 4))
        assert rep["branch"] == "partition" and rep["n_k"] == 4
        assert rep["j"] == 2 and rep["sizes"] == [3, 4]
        assert rep["blocks_t_greedy_in_intervals"]
        names = {c["name"] for c in rep["bound_checks"]}
        assert {"completion_prefix", "completion_ratio", "interval_1",
                "partition_bound", "global_bound"} <= names
        assert rep["ok"]

    def test_single_block_branch(self):
        space, x, A = self._setup(m=4)
        rep = gl.bounded_gap_projection_bound(space, 50.0, 1.0, x, A, 1.0,
                                              GapSequence.powers(2, 4))
        assert rep["branch"] == "single_block" and rep["j"] == 1

    def test_small_cardinality_branch(self):
        space, x, A = self._setup(m=2)
        rep = gl.bounded_gap_projection_bound(space, 50.0, 1.0, x, A, 1.0,
                                              GapSequence.powers(2, 4))
        assert rep["branch"] == "small_cardinality" and rep["ok"]

    def test_window_violation_raises(self):
        space, x, A = self._setup(m=9)  # 9 >= 2 * 4 with terms (4, 8): fits 8
        rep = gl.bounded_gap_projection_bound(space, 50.0, 1.0, x, A, 1.0,
                                              GapSequence.powers(2, 4))
        assert rep["n_k"] == 8  # still inside the window for n_k = 8
        with pytest.raises(ValueError, match="window"):
            gl.bounded_gap_projection_bound(space, 50.0, 1.0, x, A, 1.0,
                                            GapSequence.explicit([4], bound_l=2))

    def test_float_member_of_A_is_refused(self):
        space, x, A = self._setup(m=7)
        with pytest.raises(ValueError, match="integers"):
            gl.bounded_gap_projection_bound(space, 50.0, 1.0, x, [*A][:-1] + [2.7],
                                            1.0, GapSequence.powers(2, 4))

    def test_ok_is_false_when_one_check_fails(self):
        space, x, A = self._setup(m=7)
        rep = gl.bounded_gap_projection_bound(space, 1e-9, 1.0, x, A, 1.0,
                                              GapSequence.powers(2, 4))
        oks = [c["ok"] for c in rep["bound_checks"]]
        assert not all(oks) and any(oks) and rep["ok"] is False

    def test_gap_without_a_bound_is_refused(self):
        space, x, A = self._setup(m=7)
        with pytest.raises(ValueError, match="bound_l"):
            gl.bounded_gap_projection_bound(space, 50.0, 1.0, x, A, 1.0,
                                            GapSequence.explicit([4, 8]))

    @pytest.mark.parametrize("l", [2, 3, 4])
    def test_partition_bound_reads_l_from_the_gap(self, l):
        space, x, A = self._setup(m=7)
        rep = gl.bounded_gap_projection_bound(space, 50.0, 1.0, x, A, 1.0,
                                              GapSequence.powers(l, 4))
        bound = next(c for c in rep["bound_checks"] if c["name"] == "partition_bound")
        assert bound["rhs"] == 2.0 * 50.0 * 1.0 * (l - 1.0 + 1.0) * space.norm(x)

    def test_non_greedy_set_rejected(self):
        space, x, _ = self._setup()
        with pytest.raises(ValueError, match="not a t-greedy"):
            gl.bounded_gap_projection_bound(space, 50.0, 1.0, x,
                                            {min(x.support(), key=lambda i: abs(x[i]))},
                                            1.0, GapSequence.powers(2, 4))

    @given(st.integers(1, 24), st.sampled_from([2, 3, 4]), st.sampled_from([1.0, 0.8, 0.5]),
           st.floats(1.0, 1e3), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_n_k_and_branch_do_not_depend_on_the_constant(self, m, l, t, C, seed):
        # bounded_gap_trials finds n_k at C_qt = 1 and reuses it with the measured constant
        space, x, _ = self._setup(seed=seed)
        A = gl.one_greedy_set(x, m, t).indices
        gap = GapSequence.powers(l)
        at_one = gl.bounded_gap_projection_bound(space, 1.0, 1.0, x, A, t, gap)
        at_C = gl.bounded_gap_projection_bound(space, C, 1.0, x, A, t, gap)
        assert (at_one.get("n_k"), at_one["branch"]) == (at_C.get("n_k"), at_C["branch"])

    @given(st.integers(1, 24), st.sampled_from([2, 3, 4]), st.sampled_from([1.0, 0.8, 0.5]),
           st.floats(1e-3, 1e3), st.floats(1e-3, 1e3), st.floats(1.0, 4.0),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_bound_is_the_check_step_on_one_evaluation(self, m, l, t, C1, C2, K, seed):
        space, x, _ = self._setup(seed=seed)
        A = gl.one_greedy_set(x, m, t).indices
        gap = GapSequence.powers(l)
        ev = _partition_evaluation(space, x, A, t, gap)
        for C in (C1, C2):
            rep = gl.bounded_gap_projection_bound(space, C, K, x, A, t, gap)
            checks = _partition_checks(ev, C, K)
            assert rep["bound_checks"] == [c.to_json() for c in checks]
            assert rep["ok"] == (ev.in_intervals and all(c.ok for c in checks))
            assert (rep["branch"], rep.get("n_k"), rep["cardinality"], rep["realized_ratios"]) \
                == (ev.branch, ev.n_k, ev.cardinality, ev.realized)

    def test_randomized_trials_never_violate(self):
        rep = bounded_gap_trials(800, seed=21)
        assert rep["violations"] == 0
        assert rep["json"]["trials"] > 0


class TestGoldenReport:
    """Seed-42 reports of the sampled experiments, recorded before the
    bounded-gap trials evaluated each partition once and the estimator read
    one greedy order per sample: any drift in those paths fails here."""

    @pytest.mark.parametrize("name,params,csv_digest,json_digest", [
        ("bounded-gaps", {"trials": 200, "dim_lo": 8, "dim_hi": 64},
         "ff24347d8b2c66269bbe8a5de5b864bee69ea9f035c724cbfa4551c99e28e121",
         "b8c38135bfa88b62c51371467182d6e4715fc47597a41725c6f06793add90af8"),
        ("suppression-one", {"budget": 112, "dim": 12},
         "7465db9956636e638dd5518dfe6c99334c24ac1eb2e0f419afb474fa72203dc1",
         "05455f2b7605061b39323efea10424d819c17da581ac6a6828f82125b3d7e4f0"),
        ("constants", {"space": "summing", "kind": "C_q_t", "t": 1.0,
                       "dims": "2..8", "budget": 40},
         "ca0c85b7813cbe4d15419357bc55e6746b893391298da6007f49e7708f0f9871",
         "3faf78437a418fcc3f629a16fda3512224077ecb5e799db629ae56d0ce7b8171"),
    ])
    def test_reports_are_byte_identical(self, tmp_path, name, params, csv_digest,
                                        json_digest):
        assert run_experiment_set(name, params, tmp_path, 42) == 0
        digests = [hashlib.sha256((tmp_path / f"{name}.{ext}").read_bytes()).hexdigest()
                   for ext in ("csv", "json")]
        assert digests == [csv_digest, json_digest]
