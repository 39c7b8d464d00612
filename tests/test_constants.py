"""Constant estimation, the exact cell search, and the theorem-level bounds."""

import itertools
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

import greedylab as gl
import greedylab.constants as constants_module
from greedylab import CoeffVector as CV
from greedylab import GapSequence
from greedylab.constants import _certified_witness, _ratio
from greedylab.experiments import bounded_gap_trials

NAT = GapSequence.naturals()


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
        est = gl.estimate_quasi_greedy_constant(gl.lp_space(2.0, 6), NAT, 1.0, 6, 40)
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
            gl.estimate_quasi_greedy_constant(gl.lp_space(2.0, 4),
                                              GapSequence.explicit([9]), 1.0, 4, 10)

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
        val = gl.exact_constant_polyhedral(gl.lp_space(1.0, 3), NAT, 1.0, 3,
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
            gl.exact_constant_polyhedral(gl.lp_space(2.0, 3), NAT, 1.0, 3)

    def test_lp_budget_guard(self):
        with pytest.raises(ValueError, match="cap"):
            gl.exact_constant_polyhedral(gl.summing_space(8), NAT, 1.0, 8,
                                         lp_cap=10)

    def test_solver_failure_raises(self, monkeypatch):
        failed = SimpleNamespace(success=False, status=4, x=None,
                                 message="numerical difficulties")
        monkeypatch.setattr(constants_module, "linprog", lambda *a, **k: failed)
        with pytest.raises(RuntimeError, match="status 4: numerical difficulties"):
            gl.exact_constant_polyhedral(gl.summing_space(3), NAT, 1.0, 3)


def _assert_matches_reference(space, t, dim, kind):
    est = gl.exact_constant_polyhedral(space, NAT, t, dim, kind)
    assert est.value == reference_cell_search(space, t, dim, kind)
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
        rep = gl.check_suppression_one_implies_qg(gl.lp_space(1.0, 12), gap, 12,
                                                  300, seed=3)
        assert rep["precheck_passed"] and rep["theorem_applicable"]
        assert rep["M"] == 2.0 and rep["bound"] == 3.0
        assert rep["max_ratio"] <= 1.0 + 1e-9 and rep["violations"] == 0

    def test_sup_norm(self):
        gap = GapSequence.explicit([3, 6, 12], bound_l=2)
        rep = gl.check_suppression_one_implies_qg(gl.sup_space(12), gap, 12,
                                                  300, seed=3)
        assert rep["bound"] == 4.0 and rep["max_ratio"] <= 1.0 + 1e-9
        assert rep["violations"] == 0

    def test_summing_precheck_fails_reported(self):
        rep = gl.check_suppression_one_implies_qg(gl.summing_space(9), NAT, 9,
                                                  150, seed=3)
        assert not rep["precheck_passed"] and not rep["theorem_applicable"]
        assert rep["precheck_max_suppression_ratio"] > 1.0
        assert "precheck_witness" in rep

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
        rep = gl.bounded_gap_projection_bound(space, 50.0, 1.0, 2, x, A, 1.0,
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
        rep = gl.bounded_gap_projection_bound(space, 50.0, 1.0, 2, x, A, 1.0,
                                              GapSequence.powers(2, 4))
        assert rep["branch"] == "single_block" and rep["j"] == 1

    def test_small_cardinality_branch(self):
        space, x, A = self._setup(m=2)
        rep = gl.bounded_gap_projection_bound(space, 50.0, 1.0, 2, x, A, 1.0,
                                              GapSequence.powers(2, 4))
        assert rep["branch"] == "small_cardinality" and rep["ok"]

    def test_window_violation_raises(self):
        space, x, A = self._setup(m=9)  # 9 >= 2 * 4 with terms (4, 8): fits 8
        rep = gl.bounded_gap_projection_bound(space, 50.0, 1.0, 2, x, A, 1.0,
                                              GapSequence.powers(2, 4))
        assert rep["n_k"] == 8  # still inside the window for n_k = 8
        with pytest.raises(ValueError, match="window"):
            gl.bounded_gap_projection_bound(space, 50.0, 1.0, 2, x, A, 1.0,
                                            GapSequence.explicit([4]))

    def test_non_greedy_set_rejected(self):
        space, x, _ = self._setup()
        with pytest.raises(ValueError, match="not a t-greedy"):
            gl.bounded_gap_projection_bound(space, 50.0, 1.0, 2, x,
                                            {x.support()[np.argmin(np.abs(x.values))]},
                                            1.0, GapSequence.powers(2, 4))

    @given(st.integers(1, 24), st.sampled_from([2, 3, 4]), st.sampled_from([1.0, 0.8, 0.5]),
           st.floats(1.0, 1e3), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_n_k_and_branch_do_not_depend_on_the_constant(self, m, l, t, C, seed):
        # bounded_gap_trials finds n_k at C_qt = 1 and reuses it with the measured constant
        space, x, _ = self._setup(seed=seed)
        A = gl.one_greedy_set(x, m, t).indices
        gap = GapSequence.powers(l)
        at_one = gl.bounded_gap_projection_bound(space, 1.0, 1.0, l, x, A, t, gap)
        at_C = gl.bounded_gap_projection_bound(space, C, 1.0, l, x, A, t, gap)
        assert (at_one.get("n_k"), at_one["branch"]) == (at_C.get("n_k"), at_C["branch"])

    def test_randomized_trials_never_violate(self):
        rep = bounded_gap_trials(800, seed=21)
        assert rep["violations"] == 0
        assert rep["json"]["trials"] > 0
