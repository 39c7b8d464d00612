"""Vectors, norms, projections, operator-norm estimation."""

import json
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import greedylab as gl
from greedylab import CoeffVector as CV
from greedylab import GapSequence


def summing_norm_quadratic_oracle(x: CV) -> float:
    """Recompute every prefix sum from scratch; O(n^2) reference."""
    support = x.support()
    if not support:
        return 0.0
    best = 0.0
    for n in range(1, max(support) + 1):
        prefix = sum(v for i, v in x.pairs() if i <= n)
        best = max(best, abs(prefix))
    return best


class TestCoeffVector:
    def test_canonical_form(self):
        v = CV([3, 1, 1, 2], [1.0, 2.0, -2.0, 0.0])
        assert v.support() == (3,)
        assert v[3] == 1.0 and v[1] == 0.0 and v[2] == 0.0

    def test_rejects_nonpositive_indices(self):
        with pytest.raises(ValueError):
            CV([0], [1.0])

    def test_iteration_strictly_increasing(self):
        v = CV([5, 2, 9], [1.0, 1.0, 1.0])
        idx = [i for i, _ in v.pairs()]
        assert idx == sorted(idx) and len(set(idx)) == len(idx)

    def test_algebra_roundtrip(self):
        a = CV.from_dense([1.0, 2.0, 3.0])
        b = CV.from_dense([0.0, -2.0, 1.0])
        assert (a + b).support() == (1, 3)
        assert (a - a) == CV.zero()
        assert (2.0 * a)[2] == 4.0

    def test_json_pairs_roundtrip(self):
        v = CV.from_pairs([(2, -0.5), (7, 1.25)])
        again = CV.from_json(v.to_json())
        assert again == v
        assert json.loads(v.to_json()) == [[2, -0.5], [7, 1.25]]


class TestProjection:
    def test_empty_set_convention(self):
        x = CV.from_dense([1.0, 2.0, 3.0])
        assert gl.projection(x, []) == CV.zero()

    def test_restriction(self):
        x = CV.from_dense([1.0, 2.0, 3.0])
        assert gl.projection(x, {1, 3}).to_json_pairs() == [[1, 1.0], [3, 3.0]]

    def test_disjoint_support(self):
        x = CV.from_dense([1.0, 2.0, 3.0])
        assert gl.projection(x, {5}) == CV.zero()

    @given(st.lists(st.floats(-10, 10), min_size=1, max_size=12),
           st.sets(st.integers(1, 12)))
    @settings(max_examples=200)
    def test_idempotent(self, dense, A):
        x = CV.from_dense(dense)
        once = gl.projection(x, A)
        assert gl.projection(once, A) == once


def _read_only(v: CV) -> bool:
    return not v.indices.flags.writeable and not v.values.flags.writeable


def _bits(v: CV) -> tuple:
    """Dtypes and raw bytes of both arrays, so that == is bit-for-bit."""
    return v.indices.dtype.str, v.indices.tobytes(), v.values.dtype.str, v.values.tobytes()


# vectors with gaps in their support, and index sets in every form callers pass,
# reaching past the support
sparse_vectors = st.lists(st.sampled_from([0.0, 1.0, -1.0, 0.5, -2.25, 1e-300, 3.0]) |
                          st.floats(-10, 10), max_size=16).map(CV.from_dense)
index_sets = st.one_of(
    st.frozensets(st.integers(1, 24)),
    st.lists(st.integers(1, 24)).map(tuple),
    st.tuples(st.integers(1, 24), st.integers(1, 24)).map(lambda ab: range(min(ab), max(ab))),
    st.lists(st.integers(1, 24)).map(lambda ids: [np.int64(i) for i in ids]),
)


class TestFastPathsMatchCheckedConstructor:
    """restrict, drop and scale skip re-canonicalisation; the checked
    constructor is the oracle."""

    @given(sparse_vectors, index_sets)
    @settings(max_examples=300)
    def test_restrict_and_drop(self, x, A):
        members = {int(i) for i in A}
        inside = np.array([int(i) in members for i in x.indices], dtype=bool)
        for got, mask in ((x.restrict(A), inside), (x.drop(A), ~inside)):
            assert _bits(got) == _bits(CV(x.indices[mask], x.values[mask]))
            assert _read_only(got)

    @given(sparse_vectors, index_sets)
    @settings(max_examples=300)
    def test_drop_is_the_difference_bit_for_bit(self, x, A):
        assert _bits(x.drop(A)) == _bits(x - gl.projection(x, A))

    @given(sparse_vectors, st.sampled_from([0.0, -0.0, 1e-300, -1.0, 2.5, 1e300]) |
           st.floats(allow_nan=False))
    @settings(max_examples=300)
    def test_scale(self, x, c):
        with np.errstate(over="ignore"):  # an overflow to inf is kept, like any nonzero
            got, want = x.scale(c), CV(x.indices, x.values * c)
        assert _bits(got) == _bits(want)
        assert _read_only(got)

    def test_scale_by_zero_is_the_canonical_zero(self):
        x = CV.from_dense([1.0, -2.0, 3.0])
        for c in (0.0, -0.0):
            assert _bits(x.scale(c)) == _bits(CV.zero())
        # underflow drops the entry instead of storing a zero
        assert CV([1, 2], [1e-300, 1.0]).scale(1e-300) == CV([2], [1e-300])


class TestSummingNorm:
    def test_cancelling_pair(self):
        assert gl.summing_norm(CV.from_dense([1.0, -1.0])) == 1.0

    def test_zero_vector(self):
        assert gl.summing_norm(CV.zero()) == 0.0

    def test_truncated_divergence_element(self):
        ex = gl.build_example(3)
        from greedylab.counterexample import dense_vector
        assert gl.summing_norm(dense_vector(ex)) == pytest.approx(1.0, abs=1e-10)

    def test_against_quadratic_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(60):
            n = int(rng.integers(1, 30))
            x = CV.from_dense(rng.standard_normal(n))
            assert gl.summing_norm(x) == pytest.approx(
                summing_norm_quadratic_oracle(x), rel=1e-12)

    def test_monotone_basis(self):
        # prefix partial sums never increase the norm
        rng = np.random.default_rng(1)
        for _ in range(1000):
            n = int(rng.integers(1, 24))
            x = CV.from_dense(rng.standard_normal(n))
            nx = gl.summing_norm(x)
            m = int(rng.integers(1, n + 1))
            assert gl.summing_norm(gl.projection(x, range(1, m + 1))) <= nx + 1e-12


class TestLpNorms:
    def test_pythagorean(self):
        assert gl.lp_norm(CV.from_dense([3.0, 4.0]), 2) == 5.0

    def test_quasi_norm_half(self):
        assert gl.lp_norm(CV.from_dense([1.0, 1.0]), 0.5) == pytest.approx(4.0)

    @pytest.mark.parametrize("p", [0.5, 1.0, 2.0, 7.3])
    def test_singleton(self, p):
        assert gl.lp_norm(CV.basis_vector(4), p) == pytest.approx(1.0)

    def test_rejects_nonpositive_exponent(self):
        with pytest.raises(ValueError):
            gl.lp_norm(CV.basis_vector(1), 0.0)
        with pytest.raises(ValueError):
            gl.lp_norm(CV.basis_vector(1), -1.0)

    def test_weighted_defaults_to_one(self):
        x = CV.from_pairs([(1, 1.0), (10, 1.0)])
        assert gl.weighted_lp_norm(x, 2, [4.0]) == pytest.approx(math.sqrt(5.0))
        assert gl.weighted_lp_norm(x, 2, []) == pytest.approx(math.sqrt(2.0))
        assert gl.weighted_lp_space(1.0, []).norm(x) == 2.0


CATALOGUE = [
    ("summing", 1.0),
    ("lp:1", 1.0),
    ("lp:2", 1.0),
    ("sup", 1.0),
    ("lp:1/2", 2.0),
    ("lp:2/3", 2.0 ** 0.5),
]


class TestNormAxioms:
    @pytest.mark.parametrize("key,alpha", CATALOGUE)
    def test_homogeneity_and_quasi_triangle(self, key, alpha):
        space = gl.space_from_key(key, 16)
        assert space.alpha == pytest.approx(alpha, rel=1e-12)
        rng = np.random.default_rng(hash(key) % 2 ** 32)
        for _ in range(1700):  # about 1e4 pairs across the catalogue
            n = int(rng.integers(1, 16))
            x = CV.from_dense(rng.standard_normal(n))
            y = CV.from_dense(rng.standard_normal(int(rng.integers(1, 16))))
            lam = float(rng.standard_normal())
            nx, ny = space.norm(x), space.norm(y)
            assert space.norm(x.scale(lam)) == pytest.approx(abs(lam) * nx, rel=1e-9)
            assert space.norm(x + y) <= space.alpha * (nx + ny) * (1 + 1e-9)
        assert space.norm(CV.zero()) == 0.0

    def test_c_param_exceeds_two(self):
        for key, _ in CATALOGUE:
            assert gl.space_from_key(key, 8).c_param > 2.0


class TestSpaceCatalogue:
    def test_unknown_key(self):
        with pytest.raises(ValueError):
            gl.space_from_key("banana")

    def test_weighted_lp_key(self, tmp_path):
        wfile = tmp_path / "w.json"
        wfile.write_text(json.dumps([4.0, 1.0]))
        space = gl.space_from_key(f"weighted-lp:2:{wfile}", 8)
        assert space.norm(CV.basis_vector(1)) == pytest.approx(2.0)
        assert space.norm(CV.basis_vector(2)) == pytest.approx(1.0)

    def test_summing_parameters(self):
        space = gl.summing_space(8)
        assert space.alpha1 == 1.0 and space.alpha2 == 2.0
        assert space.schauder_constant == 1.0
        assert space.c_param == 6.0

    def test_fraction_exponent(self):
        assert gl.space_from_key("lp:1/2").alpha == 2.0


class TestExtremePoints:
    def test_summing_dim2_vertices(self):
        space = gl.summing_space(2)
        pts = list(space.extreme_points((1, 2)))
        assert len(pts) == 4
        for p in pts:
            assert gl.summing_norm(p) == pytest.approx(1.0)

    def test_vertex_prefix_patterns(self):
        space = gl.summing_space(3)
        for p in space.extreme_points((1, 2, 3)):
            prefixes = np.cumsum(p.to_dense(3))
            assert np.all(np.isin(prefixes, (-1.0, 1.0)))


class TestGapSequence:
    def test_naturals(self):
        nat = GapSequence.naturals()
        assert nat.members_up_to(5) == (1, 2, 3, 4, 5)
        assert nat.first() == 1

    def test_powers(self):
        g = GapSequence.powers(2)
        assert g.members_up_to(20) == (1, 2, 4, 8, 16)
        assert g.bound_l == 2

    def test_strictly_increasing_enforced(self):
        with pytest.raises(ValueError):
            GapSequence.explicit([3, 3, 5])

    def test_bounded_gap_violation(self):
        with pytest.raises(ValueError):
            GapSequence.explicit([1, 5], bound_l=2)
        assert GapSequence.explicit([2, 4, 8], bound_l=2).values == (2, 4, 8)

    def test_first_with_prefix_and_rule_is_immediate(self):
        # with a prefix, first() must not walk the members of the rule
        gap = GapSequence((1, 2), rule=lambda k: k + 2)
        start = time.perf_counter()
        assert gap.first() == 1
        assert GapSequence((), rule=lambda k: 3 * k).first() == 3
        assert time.perf_counter() - start < 1.0
