"""Vectors, norms, projections, operator-norm estimation."""

import itertools
import json
import math
import operator
import re
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import greedylab as gl
from greedylab import CoeffVector as CV
from greedylab import GapSequence
from greedylab.coeffspace import _summed


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

    def test_rejects_malformed_input(self):
        for bad in (lambda: CV([1, 2], [1.0]), lambda: CV([[1, 2]], [[1.0, 2.0]]),
                    lambda: CV.from_dense([[1.0, 2.0]])):
            with pytest.raises(ValueError):
                bad()
        assert CV.from_dense([]) == CV.zero()
        assert CV.from_dense([0.0, 2.0]) == CV([2], [2.0])

    def test_rejects_non_finite_coefficients(self):
        # NaN once put a vector's moduli out of order for the greedy selection
        for bad in (lambda: CV([1, 2], [math.inf, 1.0]), lambda: CV([3], [math.nan]),
                    lambda: CV([1, 1], [1e308, 1e308]),  # the sum overflows
                    lambda: CV.from_pairs([(2, -math.inf)]),
                    lambda: CV.from_dense([1.0, math.nan, 3.0, 2.0]),
                    lambda: CV.from_dense(np.array([0.0, -math.inf]))):
            with pytest.raises(ValueError, match="coefficients must be finite"):
                bad()
        # finite coefficients whose sum overflows are kept
        assert len(CV([1, 2], [1e308, 1e308])) == 2 and len(CV.from_dense([1e308, 1e308])) == 2

    def test_algebra_refuses_non_finite_results(self):
        ones, big = CV([1, 2], [1.0, 1.0]), CV([1], [1e308])
        nans = CV._canonical((1, 2), (math.nan, math.nan))  # unchecked, as no path makes it
        for bad in (lambda: ones.scale(math.nan), lambda: ones.scale(math.inf),
                    lambda: CV.zero().scale(-math.inf),  # a non-finite factor, even on zero
                    lambda: big.scale(10.0), lambda: nans.scale(0.0),
                    lambda: big + big, lambda: big - big.scale(-1.0),
                    lambda: nans + CV.zero(), lambda: CV.zero() - nans,
                    lambda: nans + CV([5], [1.0])):  # the concatenated supports
            with pytest.raises(ValueError, match="coefficients must be finite"):
                bad()
        assert big - big == CV.zero() and (big + CV([1], [-1e308])) == CV.zero()

    @pytest.mark.parametrize("a,b", [
        ((1, 2), (5, 9)), ((5, 9), (1, 2)),  # disjoint, in both orders
        ((3, 4), (5,)), ((5,), (3, 4)),  # adjacent, in both orders
        ((1, 4, 6, 10), (2, 4, 7, 8, 12)),  # interleaved, one index shared
        ((2, 3, 5), (1, 3, 5, 6)), ((1, 2, 3), (1, 2, 3)),  # shared supports
        ((), (1, 3)), ((1, 3), ()), ((), ()),  # empty operands
    ])
    def test_add_and_sub_merge_the_supports(self, a, b):
        x = CV(a, [0.1 * i + 0.3 for i in a])
        y = CV(b, [-0.7 * i + 0.2 for i in b])
        idx = list(a) + list(b)
        for got, vals in ((x + y, x._val + y._val),
                          (x - y, x._val + tuple([-v for v in y._val]))):
            assert _bits(got) == _bits(CV(idx, vals))
        # shared entries that cancel are dropped; a full cancellation is the zero vector
        cut = CV(b, [-x[i] if x[i] else 1.0 for i in b])
        assert _bits(x + cut) == _bits(CV(idx, x._val + cut._val))
        assert _bits(x - x) == _bits(CV.zero()) and x + x.scale(-1.0) == CV.zero()

    def test_rejects_non_integral_indices(self):
        # a float or string index raises instead of being truncated
        for bad in (lambda: CV([2.7], [1.0]), lambda: CV(["3"], [1.0]),
                    lambda: CV([np.float64(2.0)], [1.0])):
            with pytest.raises(ValueError):
                bad()
        assert CV(np.array([3, 1]), np.array([1.0, 2.0])) == CV([1, 3], [2.0, 1.0])
        assert CV([np.int32(2), True], [1.0, 1.0]).support() == (1, 2)

    def test_iteration_strictly_increasing(self):
        v = CV([5, 2, 9], [1.0, 1.0, 1.0])
        idx = [i for i, _ in v.pairs()]
        assert idx == sorted(idx) and len(set(idx)) == len(idx)

    def test_algebra_roundtrip(self):
        a = CV.from_dense([1.0, 2.0, 3.0])
        b = CV.from_dense([0.0, -2.0, 1.0])
        assert (a + b).support() == (1, 3)
        assert (a - a) == CV.zero()
        assert a.scale(2.0)[2] == 4.0

    def test_json_pairs_roundtrip(self):
        v = CV.from_pairs([(2, -0.5), (7, 1.25)])
        again = CV.from_pairs(json.loads(v.to_json()))
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


def _arrays(v: CV) -> tuple[np.ndarray, np.ndarray]:
    """v's indices and values as int64 and float64 arrays, for numpy oracles."""
    pairs = list(v.pairs())
    return (np.array([i for i, _ in pairs], dtype=np.int64),
            np.array([a for _, a in pairs], dtype=np.float64))


def _bits(v: CV) -> tuple:
    """Raw bytes of both arrays, so that == is bit-for-bit."""
    idx, val = _arrays(v)
    return idx.tobytes(), val.tobytes()


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
        idx, val = _arrays(x)
        inside = np.array([int(i) in members for i in idx], dtype=bool)
        for got, mask in ((x.restrict(A), inside), (x.drop(A), ~inside)):
            assert _bits(got) == _bits(CV(idx[mask], val[mask]))

    @given(sparse_vectors, index_sets)
    @settings(max_examples=300)
    def test_drop_is_the_difference_bit_for_bit(self, x, A):
        assert _bits(x.drop(A)) == _bits(x - gl.projection(x, A))

    @given(sparse_vectors, st.sampled_from([0.0, -0.0, 1e-300, -1.0, 2.5, 1e300]) |
           st.floats(allow_nan=False))
    @settings(max_examples=300)
    @example(CV([1], [3.0]), 1e308)  # the product overflows
    @example(CV(), math.inf)  # a non-finite factor, on the zero vector
    def test_scale(self, x, c):
        idx, val = _arrays(x)
        with np.errstate(over="ignore", invalid="ignore"):
            want = _numpy_canonical(idx, val * c)
        if not (math.isfinite(c) and _finite(want)):
            with pytest.raises(ValueError, match="coefficients must be finite"):
                x.scale(c)
            return
        assert _bits(x.scale(c)) == _bits(want)

    def test_scale_by_zero_is_the_canonical_zero(self):
        x = CV.from_dense([1.0, -2.0, 3.0])
        for c in (0.0, -0.0):
            assert _bits(x.scale(c)) == _bits(CV.zero())
        # underflow drops the entry instead of storing a zero
        assert CV([1, 2], [1e-300, 1.0]).scale(1e-300) == CV([2], [1e-300])


# ranges of every shape: empty, reversed, starting below 1, reaching past the
# support, and steps other than 1 (which take the membership path)
ranges = st.builds(range, st.integers(-4, 28), st.integers(-4, 28),
                   st.sampled_from([1, 1, 1, 2, -1]))


class TestRangeSelection:
    """A ``range`` of step 1 is cut out of the support with bisect; the set
    of the range's members is the oracle."""

    @given(sparse_vectors, ranges)
    @settings(max_examples=400)
    def test_keep_and_drop_match_a_set(self, x, r):
        members = set(r)
        for got, keep in ((x.restrict(r), True), (x.drop(r), False)):
            want = [(i, v) for i, v in x.pairs() if (i in members) == keep]
            assert _bits(got) == _bits(CV._canonical(tuple([i for i, _ in want]),
                                                     tuple([v for _, v in want])))
            assert got == (x.restrict(members) if keep else x.drop(members))
            if len(want) == len(x):
                assert got is x

    @pytest.mark.parametrize("r,kept", [
        (range(3, 3), []), (range(6, 2), []), (range(20, 30), []),
        (range(-5, 2), [1]), (range(2, 5), [2, 4]), (range(4, 100), [4, 5]),
        (range(0, 6), [1, 2, 4, 5]),
    ])
    def test_hand_cases(self, r, kept):
        x = CV([1, 2, 4, 5], [1.0, -2.0, 3.0, 0.5])
        assert list(x.restrict(r).support()) == kept
        assert list(x.drop(r).support()) == [i for i in x.support() if i not in kept]
        assert (x.restrict(r) is x) == (len(kept) == 4)
        assert (x.drop(r) is x) == (not kept)


def _same_float(a, b) -> bool:
    """Bit-for-bit equality of two floats, NaN counted as equal to NaN."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return struct.pack("<d", a) == struct.pack("<d", b)


def _same_vector(a: CV, b: CV) -> bool:
    return (a.support() == b.support()
            and all(_same_float(u, v) for (_, u), (_, v) in zip(a.pairs(), b.pairs())))


# values that include NaN, +-inf, -0.0 and tiny magnitudes, with repeated
# indices; the vectors are summed as the checked constructor sums them but
# skip its finiteness check, so that NaN, inf and overflowed sums, which no
# public path makes, still reach the kernels
edge_floats = st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 1e-300,
                               -1e-300, 1.0, -1.0, 2.5]) | st.floats()
edge_pairs = st.lists(st.tuples(st.integers(1, 12), edge_floats), max_size=16)
edge_vectors = edge_pairs.map(lambda pairs: CV._canonical(*_summed(pairs)))


def _finite(x: CV) -> bool:
    return all(math.isfinite(v) for _, v in x.pairs())


def _numpy_canonical(idx: np.ndarray, val: np.ndarray) -> CV:
    """Canonical form the numpy way: stable sort, repeated indices summed by
    np.add.at on zeros, zeros dropped."""
    order = np.argsort(idx, kind="stable")
    idx, val = idx[order], val[order]
    if idx.size and np.any(np.diff(idx) == 0):
        uniq, inverse = np.unique(idx, return_inverse=True)
        acc = np.zeros(uniq.size)
        np.add.at(acc, inverse, val)
        idx, val = uniq, acc
    keep = val != 0.0
    return CV._canonical(tuple(idx[keep].tolist()), tuple(val[keep].tolist()))


class TestTupleKernelsMatchNumpy:
    """The plain-Python kernels against the numpy expressions they replace,
    on arrays built from ``pairs()``."""

    @given(edge_vectors)
    @settings(max_examples=300)
    def test_summing_and_sup_norm(self, x):
        _, val = _arrays(x)
        with np.errstate(invalid="ignore", over="ignore"):
            want_summing = float(np.max(np.abs(np.cumsum(val)))) if x else 0.0
            want_sup = float(np.max(np.abs(val))) if x else 0.0
        got_summing, got_sup = gl.summing_norm(x), gl.sup_norm(x)
        assert type(got_summing) is float and type(got_sup) is float
        assert _same_float(got_summing, want_summing)
        assert _same_float(got_sup, want_sup)

    def test_nan_propagates(self):
        # every public path refuses NaN and inf, so the vectors are wrapped unchecked
        nans = CV._canonical((1, 2), (math.nan, math.nan))
        assert math.isnan(gl.summing_norm(nans))
        assert math.isnan(gl.sup_norm(nans))
        assert math.isnan(gl.summing_norm(CV._canonical((1, 2), (math.inf, -math.inf))))

    @given(edge_pairs)
    @settings(max_examples=300)
    def test_checked_constructor(self, pairs):
        idx = np.array([i for i, _ in pairs], dtype=np.int64)
        val = np.array([v for _, v in pairs], dtype=np.float64)
        with np.errstate(invalid="ignore", over="ignore"):
            want = _numpy_canonical(idx, val)
        if _finite(want):
            assert _same_vector(CV(idx, val), want)
            assert _same_vector(CV.from_pairs(pairs), want)
            return
        # a NaN or inf value, or a sum that overflows, is refused
        for build in (lambda: CV(idx, val), lambda: CV.from_pairs(pairs)):
            with pytest.raises(ValueError, match="coefficients must be finite"):
                build()

    @given(sparse_vectors, st.sampled_from([0.5, 2.0 / 3.0, 1.0, 1.5, 2.0, 7.3]),
           st.lists(st.floats(0.1, 10.0), max_size=20))
    @settings(max_examples=300)
    def test_lp_norms_keep_the_numpy_bits(self, x, p, weights):
        # both norms as whole-array numpy expressions: reports depend on their bits
        idx, val = _arrays(x)
        a = np.abs(val)
        w = np.asarray(weights, dtype=np.float64)
        wi = np.ones(idx.size)
        inside = idx <= w.size
        wi[inside] = w[idx[inside] - 1]
        want, want_w = 0.0, 0.0
        if x:
            peak = float(a.max())
            want = peak * float(np.sum((a / peak) ** p)) ** (1.0 / p)
            want_w = peak * float(np.sum(wi * (a / peak) ** p)) ** (1.0 / p)
        assert _same_float(gl.lp_norm(x, p), want)
        assert _same_float(gl.weighted_lp_norm(x, p, weights), want_w)
        assert _same_float(gl.weighted_lp_norm(x, p, w), want_w)

    def test_weighted_norm_factors_out_the_peak(self):
        assert gl.weighted_lp_norm(CV([1], [1e200]), 2.0, []) == 1e200
        assert gl.weighted_lp_norm(CV([1], [1e-200]), 2.0, []) == 1e-200
        # 598 ** (1 / 0.3) * 1e299 exceeds the largest float
        assert gl.weighted_lp_norm(CV([1], [1e299]), 0.3, [598.0]) == math.inf

    @given(st.lists(st.builds(lambda mant, exp, sign: sign * mant * 10.0 ** exp,
                              st.floats(1.0, 9.99), st.integers(-300, 299),
                              st.sampled_from([1.0, -1.0])), min_size=1, max_size=40),
           st.sampled_from([0.3, 0.5, 2.0 / 3.0, 1.0, 1.5, 2.0, 3.0]),
           st.lists(st.floats(1e-3, 1e3), max_size=40))
    @settings(max_examples=400)
    # norms that are ordinary floats (or overflow to inf) whose unscaled
    # powers overflow, underflow, or overflow Python's final ** (1/p)
    @example([1e200], 2.0, [])
    @example([1e-200], 2.0, [])
    @example([1e299], 0.3, [598.0])
    def test_lp_norms_keep_the_numpy_bits_across_magnitudes(self, vals, p, weights):
        # from 1e-300 to 1e300, single entries included: the whole-array
        # expressions with the peak factored out are the oracle
        x = CV(range(1, len(vals) + 1), vals)
        a = np.abs(np.array(vals))
        peak = float(a.max())
        w = np.ones(len(vals))
        w[:len(weights)] = weights[:len(vals)]
        with np.errstate(over="ignore", under="ignore"):
            want = peak * float(np.sum((a / peak) ** p)) ** (1.0 / p)
            want_w = peak * float(np.sum(w * (a / peak) ** p)) ** (1.0 / p)
            got, got_w = gl.lp_norm(x, p), gl.weighted_lp_norm(x, p, weights)
        assert type(got) is float and _same_float(got, want)
        assert type(got_w) is float and _same_float(got_w, want_w)

    @given(edge_vectors, edge_vectors)
    @settings(max_examples=300)
    def test_add_and_sub(self, x, y):
        (xi, xv), (yi, yv) = _arrays(x), _arrays(y)
        idx = np.concatenate([xi, yi])
        with np.errstate(invalid="ignore", over="ignore"):
            plus = np.concatenate([xv, yv])
            minus = np.concatenate([xv, -yv])
            plus_ref, minus_ref = _numpy_canonical(idx, plus), _numpy_canonical(idx, minus)
        for op, ref, vals in ((operator.add, plus_ref, plus), (operator.sub, minus_ref, minus)):
            if not _finite(ref):  # a NaN or inf value, or a sum that overflows
                with pytest.raises(ValueError, match="coefficients must be finite"):
                    op(x, y)
                continue
            # the checked constructor builds the same vector
            got = op(x, y)
            assert _same_vector(got, ref) and _same_vector(got, CV(idx, vals))

    @given(edge_vectors)
    @settings(max_examples=200)
    def test_getitem_on_and_off_the_support(self, x):
        table = dict(x.pairs())
        for i in range(0, 15):
            for key in (i, np.int64(i), np.int32(i)):
                got = x[key]
                assert type(got) is float
                assert _same_float(got, table.get(i, 0.0))

    @given(edge_vectors, index_sets, st.floats(-4, 4))
    @settings(max_examples=200)
    def test_only_builtin_numbers_reach_json(self, x, A, c):
        made = [x, x.restrict(A), x.drop(A)]
        for op in (lambda: x.scale(c), lambda: x + x, lambda: x - x.restrict(A)):
            try:
                made.append(op())
            except ValueError:  # a non-finite result, as test_scale and test_add_and_sub pin
                pass
        if _finite(x):  # the checked constructors refuse the others
            made += [CV.from_dense([x[i] for i in range(1, x.max_index() + 1)]),
                     CV(*_arrays(x)),
                     CV.from_pairs([(np.int64(i), np.float64(v)) for i, v in x.pairs()])]
        for v in made:
            assert all(type(i) is int for i in v.support())
            assert all(type(i) is int and type(a) is float for i, a in v.pairs())
            idx, val = _arrays(v)
            want = [[int(i), float(a)] for i, a in zip(idx.tolist(), val.tolist())]
            assert v.to_json() == json.dumps(want)


class TestSummingNorm:
    def test_cancelling_pair(self):
        assert gl.summing_norm(CV.from_dense([1.0, -1.0])) == 1.0

    def test_zero_vector(self):
        assert gl.summing_norm(CV.zero()) == 0.0

    def test_truncated_divergence_element(self):
        ex = gl.build_example(3)
        from divergence_oracles import dense_vector
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
        # NaN fails "p > 0" too; accepted, it made every norm of two or more entries NaN
        for p in (0.0, -1.0, math.nan):
            for bad in (lambda: gl.lp_norm(CV.basis_vector(1), p),
                        lambda: gl.weighted_lp_norm(CV.basis_vector(1), p, []),
                        lambda: gl.lp_space(p), lambda: gl.weighted_lp_space(p, [])):
                with pytest.raises(ValueError, match="requires p > 0"):
                    bad()

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

    @pytest.mark.parametrize("weights,message", [
        ([1.0, math.nan, math.inf], "weight 2 is nan"),
        ([1.0, 2.0, math.inf], "weight 3 is inf"),
        ([0.0], "weight 1 is 0.0"),
        ([3.0, -1.5], "weight 2 is -1.5"),
    ])
    def test_weighted_lp_rejects_bad_weights(self, tmp_path, weights, message):
        # NaN and inf once built a space with alpha1 = c_param = inf and NaN norms
        with pytest.raises(ValueError, match=f"finite and positive: {message}"):
            gl.weighted_lp_space(2.0, weights, 8)
        # the norm checks the weights it reads, and only those
        with pytest.raises(ValueError, match=f"finite and positive: {message}"):
            gl.weighted_lp_norm(CV.from_dense([1.0] * len(weights)), 2.0, weights)
        assert gl.weighted_lp_norm(CV.basis_vector(len(weights) + 1), 2.0, weights) == 1.0
        wfile = tmp_path / "w.json"
        wfile.write_text(json.dumps(weights))  # NaN and Infinity as JSON literals
        with pytest.raises(ValueError, match=f"finite and positive: {message}"):
            gl.space_from_key(f"weighted-lp:2:{wfile}", 8)

    def test_summing_parameters(self):
        space = gl.summing_space(8)
        assert space.alpha1 == 1.0 and space.alpha2 == 2.0
        assert space.c_param == 6.0

    def test_fraction_exponent(self):
        assert gl.space_from_key("lp:1/2").alpha == 2.0

    @pytest.mark.parametrize("key,message", [
        ("lp:nan", "requires p > 0"), ("lp:1/0", "divides by zero"),
        ("lp:0/0", "divides by zero"),
    ])
    def test_bad_exponent_key(self, key, message):
        with pytest.raises(ValueError, match=message):
            gl.space_from_key(key)

    @pytest.mark.parametrize("key,text", [("lp:abc", "abc"), ("lp:1/x", "1/x"),
                                          ("weighted-lp:x:w.json", "x")])
    def test_exponent_that_is_not_a_number_names_the_key(self, key, text):
        # the exponent is read before any weight file is opened
        with pytest.raises(ValueError, match=re.escape(
                f"space {key!r}: exponent {text!r} is not a number")):
            gl.space_from_key(key)

    def test_infinite_exponent_is_the_sup_norm(self):
        x = CV([1, 3, 4], [0.5, -2.0, 1.5])
        assert gl.space_from_key("lp:inf").norm(x) == gl.sup_norm(x) == 2.0


# every catalogue factory, with whether its norm is spreading
UNEQUAL_WEIGHTS = [1.0, 3.0, 0.5, 2.0, 1.5, 0.25, 4.0]
FACTORIES = [
    ("summing", lambda: gl.summing_space(16), True),
    ("summing dim 1", lambda: gl.summing_space(1), True),
    *[(f"lp:{p:g}", lambda p=p: gl.lp_space(p), True) for p in (0.5, 2.0 / 3.0, 1.0, 2.0, 3.0)],
    ("lp:inf", lambda: gl.space_from_key("lp:inf"), True),
    ("sup", gl.sup_space, True),
    *[(f"weighted-lp:{p:g}", lambda p=p: gl.weighted_lp_space(p, UNEQUAL_WEIGHTS, 16), False)
      for p in (0.5, 1.0, 2.0)],
]


class TestSpreadingFlag:
    """A factory sets ``spreading`` exactly when its norm reads only the
    values in index order; the sampled estimator memoises norms on that."""

    @pytest.mark.parametrize("name,factory,spreading", FACTORIES,
                             ids=[f[0] for f in FACTORIES])
    def test_factories_set_the_flag(self, name, factory, spreading):
        assert factory().spreading is spreading

    @given(st.sampled_from([f for f in FACTORIES if f[2]]),
           st.lists(st.sampled_from([1.0, -1.0, 0.5, -2.25, 1e-300, 1e300]) |
                    st.floats(-10, 10).filter(bool), max_size=16),
           st.data())
    @settings(max_examples=300)
    def test_norm_ignores_an_increasing_relabelling(self, entry, vals, data):
        space = entry[1]()
        idx = sorted(data.draw(st.sets(st.integers(1, 200), min_size=len(vals),
                                       max_size=len(vals))))
        x = CV(range(1, len(vals) + 1), vals)
        y = CV(idx, vals)
        assert struct.pack("<d", space.norm(x)) == struct.pack("<d", space.norm(y))

    @pytest.mark.parametrize("p", [0.5, 1.0, 2.0])
    def test_unequal_weights_change_under_a_shift(self, p):
        space = gl.weighted_lp_space(p, UNEQUAL_WEIGHTS, 16)
        x = CV([1, 2, 4], [1.0, -2.0, 0.5])
        shifted = CV([2, 3, 5], [1.0, -2.0, 0.5])
        assert space.norm(x) != space.norm(shifted)

    def test_hand_built_descriptor_is_not_spreading(self):
        space = gl.SpaceDescriptor(name="hand", norm=gl.sup_norm, alpha=1.0, alpha1=1.0,
                                   alpha2=1.0, c_param=4.0)
        assert space.spreading is False


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
            prefixes = np.cumsum([p[i] for i in (1, 2, 3)])
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

    @pytest.mark.parametrize("rule", [lambda k: 5, lambda k: k % 3 + 1],
                             ids=["constant", "periodic"])
    def test_rule_that_does_not_increase_fails_fast(self, rule):
        calls = itertools.count()

        def counted(k):  # fails the test, instead of hanging it, if the loop never ends
            if next(calls) > 10_000:
                raise RuntimeError("members_up_to kept calling the rule")
            return rule(k)

        with pytest.raises(ValueError, match="must increase"):
            GapSequence(rule=counted).members_up_to(100)

    def test_rule_that_outgrows_its_bound_fails(self):
        # stored prefixes are checked against bound_l at construction; rule
        # terms are checked as they are generated
        with pytest.raises(ValueError, match=r"rule\(1\) = 3 -> rule\(2\) = 9"):
            GapSequence(rule=lambda k: 3 ** k, bound_l=2).members_up_to(100)
        assert GapSequence(rule=lambda k: 3 ** k, bound_l=3).members_up_to(100) == (3, 9, 27, 81)

    def test_prefix_or_rule_not_both(self):
        # a prefix that disagrees with its rule has no single meaning
        for prefix, rule in (((1, 5), lambda k: k), ((1, 2), lambda k: k + 2)):
            with pytest.raises(ValueError, match="not both"):
                GapSequence(prefix, rule=rule)
        with pytest.raises(ValueError, match="not both"):
            GapSequence()

    def test_first_of_a_rule_is_immediate(self):
        # first() must not walk the members of the rule
        calls = []
        gap = GapSequence(rule=lambda k: calls.append(k) or 3 * k)
        calls.clear()
        assert gap.first() == 3
        assert calls == [1]

    @pytest.mark.parametrize("rule", [lambda k: k - 1, lambda k: 2 * k - 5])
    def test_rule_terms_must_be_positive(self, rule):
        with pytest.raises(ValueError, match="positive"):
            GapSequence(rule=rule)
