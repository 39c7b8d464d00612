"""Quasi-Banach toolkit: crude bound, perturbation, padding, amplification."""

import hashlib

import numpy as np
import pytest

import greedylab as gl
from greedylab import CoeffVector as CV
from greedylab import GapSequence, perturb
from greedylab.cli import run_experiment_set
from greedylab.perturb import PerturbationError

L_HALF = gl.lp_space(0.5)
L_TWO_THIRDS = gl.lp_space(2.0 / 3.0)


class TestCrudeBound:
    def test_singleton(self):
        assert gl.projection_crude_bound(gl.lp_space(1.0), [7]) == 4.0

    def test_three_elements_quasi(self):
        assert gl.projection_crude_bound(L_HALF, [1, 2, 3]) == 48.0

    def test_empty_convention(self):
        assert gl.projection_crude_bound(L_HALF, []) == 0.0

    def test_float_member_is_refused(self):
        with pytest.raises(ValueError, match="integers"):
            gl.projection_crude_bound(L_HALF, [1, 2.5])

    def test_never_violated_in_l_half(self):
        rng = np.random.default_rng(0)
        bound = gl.projection_crude_bound(L_HALF, [1, 2, 3])
        for _ in range(1000):
            x = CV.from_dense(rng.standard_normal(12))
            lhs = L_HALF.norm(gl.projection(x, {1, 2, 3}))
            assert lhs <= bound * L_HALF.norm(x) * (1 + 1e-12)

    def test_suite_over_catalogue(self):
        for space in (L_HALF, L_TWO_THIRDS, gl.lp_space(1.0),
                      gl.summing_space(16)):
            rep = gl.crude_bound_suite(space, 400, seed=5)
            assert rep["failures"] == 0
            assert rep["worst_margin"] >= 0.0


class TestPerturbation:
    def test_l2_example(self):
        space = gl.lp_space(2.0)
        x = CV.from_dense([1.0, 0.5, 0.25, 0.125])
        y = gl.perturb_to_finite_support(space, x, {1}, 1.0, 0.1)
        assert space.norm(x - y) <= 0.1
        assert gl.is_t_greedy(y, {1}, 1.0)

    def test_kept_coefficient_grows(self):
        space = gl.lp_space(2.0)
        x = CV.from_dense([1.0, 0.5])
        eps = 0.2
        y = gl.perturb_to_finite_support(space, x, {1}, 1.0, eps)
        c = space.c_param
        delta = eps / (4.0 * c * c * 1)
        beta = 1.0
        assert abs(y[1]) >= beta + c * delta

    def test_empty_set_returns_picker_output(self):
        space = gl.lp_space(2.0)
        x = CV.from_dense([1.0, 0.5])
        z = gl.perturb_to_finite_support(space, x, set(), 1.0, 0.1)
        assert z == x

    def test_picker_budget_enforced(self):
        space = gl.lp_space(2.0)
        x = CV.from_dense([1.0, 0.5])
        bad = lambda vec, d: vec + CV.basis_vector(5, 10.0)
        with pytest.raises(PerturbationError, match="picker"):
            gl.perturb_to_finite_support(space, x, {1}, 1.0, 0.1, bad)

    def test_float_member_is_refused_not_truncated(self):
        x = CV([1, 2, 3], [0.5, 3.0, 1.0])
        with pytest.raises(ValueError, match="integers"):
            gl.perturb_to_finite_support(L_HALF, x, [2.7], 1.0, 0.1)

    def test_non_greedy_input_rejected(self):
        space = gl.lp_space(2.0)
        x = CV.from_dense([1.0, 2.0])
        with pytest.raises(ValueError, match="not a t-greedy"):
            gl.perturb_to_finite_support(space, x, {1}, 1.0, 0.1)

    def test_banach_case_reduces_to_simple_delta(self):
        # with alpha = 1 the radius formula loses the alpha^|A| factor
        space = gl.lp_space(2.0)
        x = CV.from_dense([1.0, 0.5])
        eps = 0.08
        c = space.c_param
        y = gl.perturb_to_finite_support(space, x, {1}, 1.0, eps)
        delta_banach = eps / (4.0 * c * c * 1)
        assert y[1] == x[1] + 2.0 * c * delta_banach
        assert y[2] == x[2]

    @pytest.mark.parametrize("space", [L_HALF, L_TWO_THIRDS, gl.lp_space(1.0)])
    def test_randomized_suite(self, space):
        rep = gl.lemma_perturbation_suite(space, 1000, seed=23)
        assert rep["failures"] == 0
        assert rep["trials"] == 1000


class TestPaddingConstruction:
    def test_disjoint_segment_branch(self):
        x = CV.from_pairs([(3, 1.0), (5, 2.0)])
        y, D = gl.padding_set_construction(L_HALF, x, {5}, 1.0, 2)
        assert D == frozenset()
        assert y == x  # nothing of x lives in the segment
        assert gl.is_t_greedy(y, {5}, 1.0)

    def test_overlap_produces_padding(self):
        x = CV.from_pairs([(2, 3.0), (3, 0.5), (4, 0.1), (5, 2.0)])
        y, D = gl.padding_set_construction(L_HALF, x, {2, 5}, 1.0, 2)
        assert len(D) == 1 and min(D) > 5
        moved = (frozenset({2, 5}) - {1, 2}) | D
        assert len(moved) == 2
        assert gl.is_t_greedy(y, moved, 1.0)
        assert y[2] == 0.0
        spike = 2.0 * L_HALF.c_param * L_HALF.norm(x)
        assert y[min(D)] == spike

    def test_uncleared_segment_raises_when_A_lies_in_it(self, monkeypatch):
        # A within B retains no coefficient, and the segment check must not
        # depend on one: a projection that leaves the segment in place is caught
        monkeypatch.setattr(perturb, "projection", lambda x, A: CV.zero())
        x = CV.from_dense([3.0, 2.0, 0.5, 0.25])
        with pytest.raises(PerturbationError, match="segment coefficient not cleared"):
            gl.padding_set_construction(gl.lp_space(0.5), x, {1, 2}, 1.0, 3)

    def test_uncleared_segment_raises_when_A_misses_it(self, monkeypatch):
        # the disjoint branch returns y without padding; its segment is checked too
        monkeypatch.setattr(perturb, "projection", lambda x, A: CV.zero())
        x = CV.from_pairs([(1, 0.5), (3, 1.0), (5, 2.0)])
        with pytest.raises(PerturbationError, match="segment coefficient not cleared at j=1"):
            gl.padding_set_construction(gl.lp_space(0.5), x, {5}, 1.0, 2)

    def test_float_member_is_refused_not_truncated(self):
        x = CV([1, 2, 3], [0.5, 3.0, 1.0])
        with pytest.raises(ValueError, match="integers"):
            gl.padding_set_construction(L_HALF, x, {2.7}, 1.0, 1)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            gl.padding_set_construction(L_HALF, CV.zero(), set(), 1.0, 2)

    def test_cardinality_preserved(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            n = int(rng.integers(1, 10))
            x = CV.from_dense(rng.standard_normal(n))
            if not x:
                continue
            m = int(rng.integers(0, 12))
            size = int(rng.integers(1, len(x) + 1))
            A = gl.one_greedy_set(x, size, 1.0).indices
            y, D = gl.padding_set_construction(L_TWO_THIRDS, x, A, 1.0, m)
            assert len((A - frozenset(range(1, m + 1))) | D) == len(A)

    @pytest.mark.parametrize("space", [L_HALF, L_TWO_THIRDS])
    def test_randomized_suite(self, space):
        rep = gl.padding_suite(space, 300, seed=37)
        assert rep["failures"] == 0


class TestEquivalenceAudit:
    def test_banach_entries(self):
        for key in ("lp:1", "lp:2", "sup"):
            space = gl.space_from_key(key, 8)
            rep = gl.equivalence_audit(space, GapSequence.naturals(), 1.0, 8, 40,
                                       seed=41)
            assert rep["satisfied"]
            assert rep["ratio_all"] <= rep["ratio_finite"] + 1e-6

    def test_quasi_norm_amplification(self):
        rep = gl.equivalence_audit(L_TWO_THIRDS, GapSequence.naturals(), 1.0, 8,
                                   40, seed=43)
        assert rep["amplification"] == pytest.approx(2.0, rel=1e-12)
        assert rep["satisfied"]

    def test_zero_budget_empty_report(self):
        rep = gl.equivalence_audit(L_HALF, GapSequence.naturals(), 1.0, 8, 0)
        assert rep["trials"] == 0 and "ratio_all" not in rep

    @pytest.mark.parametrize("t", [1.0, 0.5, 0.1])
    def test_prefix_sets_are_the_lowest_greedy_sets(self, monkeypatch, t):
        # every set the audit projects on is one_greedy_set's "lowest" set of
        # that size, and every admissible size of every sample is visited
        seen = []

        def recording_projection(x, A):
            seen.append((x, list(A)))
            return gl.projection(x, A)

        monkeypatch.setattr(perturb, "projection", recording_projection)
        gap = GapSequence.explicit([1, 2, 3, 5, 8, 13])
        gl.equivalence_audit(L_HALF, gap, t, 16, 30, seed=7)
        sizes_by_sample = {}
        for x, A in seen:
            assert frozenset(A) == gl.one_greedy_set(x, len(A), t, "lowest").indices
            sizes_by_sample.setdefault(x, []).append(len(A))
        assert len(sizes_by_sample) >= 40
        for x, sizes in sizes_by_sample.items():
            assert sizes == [m for m in (1, 2, 3, 5, 8, 13) if m <= len(x)]


class TestGoldenReport:
    def test_perturb_audit_reports_are_byte_identical(self, tmp_path):
        # recorded with the whole-array numpy norms and the class-loop greedy
        # selection: any bit drift in the vector, norm or greedy kernels fails here
        assert run_experiment_set("perturb-audit", {"trials": 80, "dim": 16},
                                  tmp_path, 42) == 0
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                   for name in ("perturb-audit.csv", "perturb-audit.json")}
        assert digests == {
            "perturb-audit.csv":
                "c8cd05d4b8acec2eba586baf5076606988b47534e458a2586ca0d05ae447e35b",
            "perturb-audit.json":
                "75feb25d7ede6ee2d24ce6e6670cfefe91a3164825d3ba7bf758b8f826e2c470",
        }


class TestThreeStageInstance:
    """Finite inequality steps of the pointwise-to-uniform argument, on a
    hand-built three-stage instance with disjoint supports and the required
    coefficient decay."""

    def _build(self):
        space = gl.lp_space(0.5)
        alpha, c = space.alpha, space.c_param

        s1 = 0.004
        x1 = CV.from_pairs([(1, 0.5 * s1), (2, 1.0 * s1)])
        A1 = frozenset({2})
        m1 = 3

        s2 = 1e-9
        vals2 = [1.0, 0.9, 0.8, 0.7, 0.6, 0.5]
        x2 = CV.from_pairs([(4 + j, s2 * v) for j, v in enumerate(vals2)])
        A2 = frozenset({4, 5, 6, 7})
        m2 = 10

        s3 = 1e-20
        vals3 = [1.0 - 0.05 * j for j in range(12)]
        x3 = CV.from_pairs([(11 + j, s3 * v) for j, v in enumerate(vals3)])
        A3 = frozenset(range(11, 22))  # the 11 largest of 12
        return space, (x1, x2, x3), (A1, A2, A3), (m1, m2)

    def test_scaling_conditions(self):
        space, xs, As, ms = self._build()
        alpha, c = space.alpha, space.c_param
        assert space.norm(xs[0]) <= 1.0 / (10.0 * alpha * c)
        mins = [min(abs(v) for _, v in x.pairs()) for x in xs]
        for i, m_i in enumerate(ms):
            lhs = space.norm(xs[i + 1])
            rhs = min(mins[: i + 1]) / (10 ** (i + 2) * m_i * alpha ** (m_i + 1) * c)
            assert lhs <= rhs

    def test_cardinality_chain(self):
        space, xs, As, ms = self._build()
        supports = [set(x.support()) for x in xs]
        B = [supports[0], supports[0] | supports[1]]
        for i, m_i in enumerate(ms):
            assert len(As[i + 1]) > m_i > len(B[i])

    def test_coefficient_hierarchy(self):
        _, xs, _, _ = self._build()
        for earlier, later in ((xs[0], xs[1]), (xs[1], xs[2]), (xs[0], xs[2])):
            assert max(abs(v) for _, v in later.pairs()) < \
                min(abs(v) for _, v in earlier.pairs())

    def test_moved_sets_stay_greedy_and_bounded(self):
        space, xs, As, ms = self._build()
        alpha, c = space.alpha, space.c_param
        y = xs[0] + xs[1] + xs[2]
        supports = [set(x.support()) for x in xs]
        B = [supports[0], supports[0] | supports[1]]
        for i in (0, 1):
            A_next = As[i + 1]
            x_next = xs[i + 1]
            # the |B_i| smallest coefficients of the next greedy set move out
            by_modulus = sorted(A_next, key=lambda j: abs(x_next[j]))
            C_next = frozenset(by_modulus[: len(B[i])])
            D_next = frozenset(B[i]) | (A_next - C_next)
            assert len(D_next) == len(A_next)
            assert gl.is_t_greedy(y, D_next, 1.0)
            # projection of the moved-out piece stays small
            lhs = space.norm(gl.projection(y, C_next))
            assert lhs == pytest.approx(space.norm(gl.projection(x_next, C_next)),
                                        rel=1e-12)
            assert lhs <= ms[i] * alpha ** ms[i] * c * space.norm(x_next)
            assert lhs <= 1.0
            # accumulated initial segments stay bounded by the geometric decay
            assert space.norm(gl.projection(y, B[i])) <= 1.0
