"""Selection, enumeration and greedy sums."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import greedylab as gl
from greedylab import CoeffVector as CV
from greedylab.greedy import (StaleSelectionError, greedy_class_counts,
                              random_greedy_set)


def brute_force_greedy_sets(x: CV, m: int, t: float) -> list[tuple]:
    """Filter of the full powerset of the support; oracle for enumeration."""
    support = x.support()
    return sorted(s for s in itertools.combinations(support, m)
                  if gl.is_t_greedy(x, s, t))


# tie-rich vectors keep the enumeration honest
def _tie_rich_vector(rng, n):
    vals = np.round(rng.standard_normal(n) * 2) / 2
    if not np.any(vals):
        vals[0] = 1.0
    return CV.from_dense(vals)


class TestIsTGreedy:
    def test_top_two(self):
        x = CV.from_dense([3.0, 1.0, 2.0])
        assert gl.is_t_greedy(x, {1, 3}, 1.0)

    def test_weakness_parameter_opens_sets(self):
        x = CV.from_dense([3.0, 1.0, 2.0])
        assert not gl.is_t_greedy(x, {1, 2}, 1.0)
        assert gl.is_t_greedy(x, {1, 2}, 0.5)

    def test_all_ties(self):
        x = CV.from_dense([1.0, 1.0, 1.0])
        for A in ({1}, {2}, {1, 3}, {1, 2, 3}):
            assert gl.is_t_greedy(x, A, 1.0)

    @pytest.mark.parametrize("t", [0.0, -0.5, 1.1])
    def test_rejects_bad_t(self, t):
        with pytest.raises(ValueError):
            gl.is_t_greedy(CV.basis_vector(1), {1}, t)


class TestOneGreedySet:
    def test_two_largest(self):
        sel = gl.one_greedy_set(CV.from_dense([3.0, 1.0, 2.0]), 2, 1.0)
        assert sel.indices == {1, 3} and sel.cardinality == 2

    def test_tie_policies(self):
        x = CV.from_dense([1.0, 1.0])
        assert gl.one_greedy_set(x, 1, 1.0, "lowest").indices == {1}
        assert gl.one_greedy_set(x, 1, 1.0, "highest").indices == {2}
        cb = lambda group, slots: group[-slots:]
        assert gl.one_greedy_set(x, 1, 1.0, cb).indices == {2}

    def test_tie_trace_recorded(self):
        sel = gl.one_greedy_set(CV.from_dense([1.0, 1.0, 0.5]), 1, 1.0)
        assert (1, 2) in sel.tie_trace

    def test_tie_tolerance_merges_near_moduli(self):
        x = CV.from_dense([1.0, 1.0 + 1e-12])
        # exact comparison keeps the moduli distinct
        assert gl.one_greedy_set(x, 1, 1.0, "lowest").indices == {2}
        res = gl.enumerate_t_greedy_sets(x, 1, 1.0)
        assert [sorted(s.indices) for s in res.selections] == [[2]]
        # a positive tolerance makes them a tie class
        assert gl.one_greedy_set(x, 1, 1.0, "lowest", tie_tol=1e-9).indices == {1}
        res = gl.enumerate_t_greedy_sets(x, 1, 1.0, tie_tol=1e-9)
        assert [sorted(s.indices) for s in res.selections] == [[1], [2]]

    def test_negative_cardinality(self):
        with pytest.raises(ValueError):
            gl.one_greedy_set(CV.basis_vector(1), -1, 1.0)

    def test_short_selection_beyond_support(self):
        sel = gl.one_greedy_set(CV.from_dense([2.0, 1.0]), 5, 1.0)
        assert sel.short and sel.indices == {1, 2}

    def test_divergence_truncation_spikes(self):
        # the three spikes dominate every block coefficient of the truncation
        from greedylab.counterexample import build_example, dense_vector
        y = dense_vector(build_example(3))
        sel = gl.one_greedy_set(y, 3, 1.0)
        assert sel.indices == {1, 12, 113}
        mods = sorted((abs(v) for _, v in y.pairs()), reverse=True)
        assert mods[:3] == sorted((abs(y[i]) for i in (1, 12, 113)), reverse=True)

    def test_result_always_t_greedy_for_smaller_t(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            x = _tie_rich_vector(rng, int(rng.integers(1, 10)))
            m = int(rng.integers(0, len(x) + 1))
            sel = gl.one_greedy_set(x, m, 1.0)
            for t in (1.0, 0.6, 0.2):
                assert gl.is_t_greedy(x, sel.indices, t)


class TestEnumeration:
    def test_single_maximum(self):
        res = gl.enumerate_t_greedy_sets(CV.from_dense([2.0, 1.0]), 1, 1.0)
        assert [sorted(s.indices) for s in res.selections] == [[1]]

    def test_weakness_opens_second_set(self):
        res = gl.enumerate_t_greedy_sets(CV.from_dense([2.0, 1.0]), 1, 0.5)
        assert [sorted(s.indices) for s in res.selections] == [[1], [2]]
        assert not res.overflow

    def test_tie_triple(self):
        res = gl.enumerate_t_greedy_sets(CV.from_dense([1.0, 1.0, 1.0]), 2, 1.0)
        assert [sorted(s.indices) for s in res.selections] == [[1, 2], [1, 3], [2, 3]]

    def test_cap_and_overflow_flag(self):
        res = gl.enumerate_t_greedy_sets(CV.from_dense([1.0] * 8), 4, 1.0, cap=5)
        assert res.overflow and len(res.selections) == 5

    def test_cardinality_beyond_support_rejected(self):
        with pytest.raises(ValueError):
            gl.enumerate_t_greedy_sets(CV.from_dense([1.0]), 2, 1.0)

    def test_matches_powerset_filter(self):
        rng = np.random.default_rng(11)
        for trial in range(25):
            # exhaustive oracle is feasible through support size 12
            hi = 13 if trial % 5 == 0 else 9
            x = _tie_rich_vector(rng, int(rng.integers(2, hi)))
            t = float(rng.choice([1.0, 0.75, 0.5, 0.25]))
            for m in range(0, len(x) + 1):
                res = gl.enumerate_t_greedy_sets(x, m, t)
                got = [tuple(sorted(s.indices)) for s in res.selections]
                assert got == brute_force_greedy_sets(x, m, t)
                assert all(gl.is_t_greedy(x, s.indices, t) for s in res.selections)

    def test_lexicographic_order(self):
        res = gl.enumerate_t_greedy_sets(CV.from_dense([1.0] * 5), 2, 1.0)
        keys = [tuple(sorted(s.indices)) for s in res.selections]
        assert keys == sorted(keys)

    @given(st.integers(0, 2 ** 20))
    @settings(max_examples=60, deadline=None)
    def test_s_greedy_implies_t_greedy(self, seed):
        rng = np.random.default_rng(seed)
        x = _tie_rich_vector(rng, int(rng.integers(1, 8)))
        m = int(rng.integers(0, len(x) + 1))
        s, t = sorted((float(rng.uniform(0.05, 1.0)), float(rng.uniform(0.05, 1.0))))
        for sel in gl.enumerate_t_greedy_sets(x, m, t).selections:
            # t here is the larger parameter: every t-greedy set is s-greedy
            assert gl.is_t_greedy(x, sel.indices, s)


def brute_force_class_counts(sizes, moduli, m, t) -> list[tuple]:
    """Count vectors of sum m whose smallest selected modulus is at least t
    times the largest modulus of a class not taken whole."""
    out = []
    for counts in itertools.product(*(range(size + 1) for size in sizes)):
        if sum(counts) != m:
            continue
        selected = [mod for mod, a in zip(moduli, counts) if a]
        unsaturated = [mod for mod, a, size in zip(moduli, counts, sizes) if a < size]
        if not selected or not unsaturated or min(selected) >= t * max(unsaturated):
            out.append(counts)
    return out


class TestClassWalk:
    # moduli on a grid of eighths so that mod >= t * mod' often holds with equality
    @given(st.lists(st.tuples(st.integers(1, 4), st.integers(1, 16)), max_size=6,
                    unique_by=lambda c: c[1]),
           st.one_of(st.sampled_from([1.0, 0.75, 0.5, 0.25, 0.125]),
                     st.floats(0.01, 1.0)),
           st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_count_vector_filter(self, classes, t, data):
        classes.sort(key=lambda c: -c[1])
        sizes = [size for size, _ in classes]
        moduli = [eighths / 8 for _, eighths in classes]
        m = data.draw(st.integers(0, sum(sizes)))
        walk = list(greedy_class_counts(sizes, moduli, m, t))
        assert len(walk) == len(set(walk))
        assert set(walk) == set(brute_force_class_counts(sizes, moduli, m, t))

        # documented order: first unsaturated class ascending, then lexicographic
        def first_unsaturated(counts):
            return next((i for i, (a, size) in enumerate(zip(counts, sizes))
                         if a < size), len(sizes))

        assert walk == sorted(walk, key=lambda c: (first_unsaturated(c), c))


class TestNesting:
    @given(st.integers(0, 2 ** 20))
    @settings(max_examples=80, deadline=None)
    def test_greedy_sets_nest(self, seed):
        rng = np.random.default_rng(seed)
        x = _tie_rich_vector(rng, int(rng.integers(2, 12)))
        for m in range(len(x) - 1):
            small = gl.one_greedy_set(x, m, 1.0, "lowest").indices
            large = gl.one_greedy_set(x, m + 1, 1.0, "lowest").indices
            assert small <= large


class TestGreedySum:
    def test_projection_value(self):
        x = CV.from_dense([3.0, 1.0, 2.0])
        sel = gl.one_greedy_set(x, 2, 1.0)
        assert gl.greedy_sum(x, sel).to_json_pairs() == [[1, 3.0], [3, 2.0]]

    def test_full_support_identity(self):
        x = CV.from_dense([3.0, 1.0, 2.0])
        sel = gl.one_greedy_set(x, 3, 1.0)
        assert gl.greedy_sum(x, sel) == x

    def test_empty_selection(self):
        x = CV.from_dense([3.0, 1.0, 2.0])
        sel = gl.one_greedy_set(x, 0, 1.0)
        assert gl.greedy_sum(x, sel) == CV.zero()

    def test_stale_selection_rejected(self):
        x = CV.from_dense([3.0, 1.0, 2.0])
        sel = gl.one_greedy_set(x, 1, 1.0)
        other = CV.from_dense([0.0, 5.0, 0.0])
        with pytest.raises(StaleSelectionError, match="invalid selection"):
            gl.greedy_sum(other, sel)

    def test_complement_identity_exact(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            x = _tie_rich_vector(rng, int(rng.integers(1, 12)))
            sel = random_greedy_set(x, int(rng.integers(0, len(x) + 1)), 1.0, rng)
            part = gl.greedy_sum(x, sel)
            rest = x - part
            assert part + rest == x
            assert all(i not in sel.indices for i, _ in rest.pairs())

    def test_selection_serialization(self):
        sel = gl.one_greedy_set(CV.from_dense([3.0, 1.0]), 1, 0.5)
        assert sel.to_json() == {"indices": [1], "t": 0.5, "cardinality": 1}
