"""Selection, enumeration and greedy sums."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import greedylab as gl
from greedylab import CoeffVector as CV
from greedylab.greedy import (StaleSelectionError, _modulus_classes, _t_greedy_index_sets,
                              greedy_class_counts, random_greedy_set)


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

    def test_float_member_is_refused_not_truncated(self):
        # int(2.7) would read A as {2}, the largest coefficient
        x = CV([1, 2, 3], [0.5, 3.0, 1.0])
        with pytest.raises(ValueError, match="integers"):
            gl.is_t_greedy(x, {2.7}, 1.0)
        assert gl.is_t_greedy(x, {np.int64(2)}, 1.0)


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

    def test_near_moduli_stay_distinct(self):
        # ties are exact: moduli 1e-12 apart form two classes
        x = CV.from_dense([1.0, 1.0 + 1e-12])
        assert gl.one_greedy_set(x, 1, 1.0, "lowest").indices == {2}
        res = gl.enumerate_t_greedy_sets(x, 1, 1.0)
        assert [sorted(s.indices) for s in res.selections] == [[2]]

    def test_negative_cardinality(self):
        with pytest.raises(ValueError):
            gl.one_greedy_set(CV.basis_vector(1), -1, 1.0)

    def test_short_selection_beyond_support(self):
        sel = gl.one_greedy_set(CV.from_dense([2.0, 1.0]), 5, 1.0)
        assert sel.indices == {1, 2}

    def test_divergence_truncation_spikes(self):
        # the three spikes dominate every block coefficient of the truncation
        from divergence_oracles import dense_vector
        y = dense_vector(gl.build_example(3))
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


def class_loop_one_greedy_set(x: CV, m: int, t: float, policy="lowest"):
    """``one_greedy_set`` as a walk over modulus classes, each grouped by its
    own sort, with the policy asked inside the class that straddles m."""
    t = gl.greedy._check_t(t)
    if m < 0:
        raise ValueError(f"cardinality must be nonnegative, got {m}")
    classes = []
    for neg, idx in sorted([(-abs(v), i) for i, v in x.pairs()]):
        if classes and classes[-1][0] == neg:
            classes[-1][1].append(idx)
        else:
            classes.append((neg, [idx]))
    if m >= len(x):
        return gl.GreedySelection(frozenset(x.support()), t, len(x))
    chosen, remaining = [], m
    for _, idxs in classes:
        idxs = tuple(idxs)
        if remaining <= 0:
            break
        if len(idxs) <= remaining:
            chosen.extend(idxs)
            remaining -= len(idxs)
            continue
        if policy == "lowest":
            part = idxs[:remaining]
        elif policy == "highest":
            part = idxs[-remaining:]
        elif callable(policy):
            part = tuple(int(i) for i in policy(idxs, remaining))
            if len(set(part)) != remaining or not set(part) <= set(idxs):
                raise ValueError("tie policy returned an invalid choice")
        else:
            raise ValueError(f"unknown tie policy {policy!r}")
        chosen.extend(part)
        remaining = 0
    return gl.GreedySelection(frozenset(chosen), t, m)


def _outcome(call):
    try:
        return call()
    except ValueError as exc:
        return ("raised", str(exc))


def _recording_policy(log):
    """A tie policy that logs its calls and picks neither end of the group."""
    def policy(group, slots):
        log.append((group, slots))
        return sorted(group, key=lambda i: (i * 7919) % 13)[:slots]
    return policy


def unchecked_vector(entries: dict) -> CV:
    """The vector of {index: value} without the constructor's finiteness
    check, so that inf and NaN, which no public path makes, still reach the
    kernels."""
    keep = sorted(i for i, v in entries.items() if v != 0.0)
    return CV._canonical(tuple(keep), tuple(entries[i] for i in keep))


# few distinct moduli in both signs, so that tied classes straddle most m
tie_rich_entries = st.dictionaries(
    st.integers(1, 40),
    st.sampled_from([0.25, -0.25, 1.0, -1.0, 3.0, -3.0, 5e-324, math.inf]) |
    st.floats(-4, 4, allow_nan=False).filter(bool),
    max_size=20)


class TestOneGreedySetMatchesClassLoop:
    @given(tie_rich_entries, st.sampled_from([1.0, 0.5, 0.1]))
    @settings(max_examples=300, deadline=None)
    def test_every_policy_and_cardinality(self, entries, t):
        x = unchecked_vector(entries)
        for m in range(len(x) + 2):
            for policy in ("lowest", "highest", "no-such-policy"):
                assert _outcome(lambda: gl.one_greedy_set(x, m, t, policy)) == \
                    _outcome(lambda: class_loop_one_greedy_set(x, m, t, policy))
            fast_calls, oracle_calls = [], []
            got = gl.one_greedy_set(x, m, t, _recording_policy(fast_calls))
            want = class_loop_one_greedy_set(x, m, t, _recording_policy(oracle_calls))
            assert got == want
            assert fast_calls == oracle_calls and len(fast_calls) <= 1

    @given(tie_rich_entries, st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_random_tie_breaks_draw_the_same_numbers(self, entries, seed):
        x = unchecked_vector(entries)
        fast, oracle = np.random.default_rng(seed), np.random.default_rng(seed)
        for m in range(len(x) + 1):
            got = random_greedy_set(x, m, 1.0, fast)
            style = int(oracle.integers(3))
            policy = ("lowest", "highest",
                      lambda g, k: oracle.choice(g, size=k, replace=False))[style]
            assert got == class_loop_one_greedy_set(x, m, 1.0, policy)
        assert fast.integers(2 ** 62) == oracle.integers(2 ** 62)

    def test_invalid_policy_choice_still_rejected(self):
        x = CV.from_dense([1.0, 1.0, 1.0])
        with pytest.raises(ValueError, match="invalid choice"):
            gl.one_greedy_set(x, 2, 1.0, lambda group, slots: group[:1])


def zero_tolerance_modulus_classes(x: CV):
    """``_modulus_classes`` as it was with a tie tolerance, at tolerance 0: a
    modulus joins a class when its distance to the class's first is <= 0, and
    each class is sorted."""
    classes = []
    for neg, idx in sorted([(-abs(v), i) for i, v in x.pairs()]):
        if classes and abs(classes[-1][0] + neg) <= 0.0:
            classes[-1][1].append(idx)
        else:
            classes.append((-neg, [idx]))
    return [(mod, tuple(sorted(idxs))) for mod, idxs in classes]


def _bits(classes):
    # repr tells NaN, -0.0 and every float apart; NaN != NaN defeats ==
    return [(repr(mod), idxs) for mod, idxs in classes]


class TestModulusClasses:
    # a few moduli in both signs, so that classes repeat, plus NaN and any finite float
    @given(st.dictionaries(
        st.integers(1, 64),
        st.one_of(st.sampled_from([0.25, -0.25, 1.0, -1.0, 3.0, -3.0, 5e-324, -5e-324,
                                   math.nan, -math.nan]),
                  st.floats(allow_infinity=False)),
        max_size=24))
    @settings(max_examples=300, deadline=None)
    def test_matches_zero_tolerance_grouping(self, entries):
        x = unchecked_vector(entries)
        assert _bits(_modulus_classes(x)) == _bits(zero_tolerance_modulus_classes(x))

    def test_infinite_moduli_tie(self):
        # at tolerance 0 the old grouping split them, as inf - inf is NaN
        x = unchecked_vector({1: math.inf, 2: 1.0, 3: -math.inf})
        assert _modulus_classes(x) == [(math.inf, (1, 3)), (1.0, (2,))]
        assert zero_tolerance_modulus_classes(x) == [(math.inf, (1,)), (math.inf, (3,)),
                                                     (1.0, (2,))]


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

    def test_lexicographic_past_a_large_family(self):
        # 11 of 22 at t = 0.5 admits C(22, 11) sets; the first is the greedy
        # set itself, the 11 entries of modulus 2
        x = CV.from_dense([2.0] * 11 + [1.0] * 11)
        res = gl.enumerate_t_greedy_sets(x, 11, 0.5, cap=5)
        got = [tuple(sorted(s.indices)) for s in res.selections]
        assert res.overflow
        assert got == [tuple(range(1, 11)) + (j,) for j in range(11, 16)]

    def test_capped_prefix_matches_powerset_filter(self):
        rng = np.random.default_rng(15)
        for _ in range(40):
            x = _tie_rich_vector(rng, int(rng.integers(2, 10)))
            classes = _modulus_classes(x)
            t = float(rng.choice([1.0, 0.75, 0.5, 0.25, 0.1]))
            for m in range(0, len(x) + 1):
                family = brute_force_greedy_sets(x, m, t)
                for cap in range(1, 6):
                    # the first cap sets, then the (cap + 1)-th when there is one
                    assert list(_t_greedy_index_sets(classes, m, t, cap)) == family[:cap + 1]

    @pytest.mark.parametrize("values,t", [
        ([1.0] * 40, 1.0),
        # 40 distinct moduli within a factor 2, smallest last: every set is
        # 0.5-greedy, and most lack the smallest modulus
        ([1.5 - i / 100 for i in range(40)], 0.5)])
    def test_family_of_every_subset_stops_at_cap(self, values, t):
        # C(40, 20) ~ 1.4e11 sets: only the first cap + 1 may be built
        classes = _modulus_classes(CV.from_dense(values))
        got = list(_t_greedy_index_sets(classes, 20, t, 128))
        assert got == list(itertools.islice(itertools.combinations(range(1, 41), 20), 129))

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


def _t_checked_calls():
    """Every public entry point that takes a weakness parameter t, as t -> call.

    Left out: ``transfer_bound_t_from_s``, whose t is checked together with s
    (0 < t < s <= 1), and ``greedy_class_counts``, the unchecked walk behind
    the checked enumerations."""
    from greedylab import counterexample as cx
    from greedylab import experiments
    from greedylab.perturb import audit_draws, equivalence_audit

    x = CV.from_dense([2.0, 1.0])
    nat = gl.GapSequence.naturals()
    ex = cx.build_example(2)
    return {
        "is_t_greedy": lambda t: gl.is_t_greedy(x, {1}, t),
        "one_greedy_set": lambda t: gl.one_greedy_set(x, 1, t),
        "enumerate_t_greedy_sets": lambda t: gl.enumerate_t_greedy_sets(x, 1, t),
        "random_greedy_set": lambda t: random_greedy_set(x, 1, t, np.random.default_rng(0)),
        "estimate_quasi_greedy_constant": lambda t: gl.estimate_quasi_greedy_constant(
            gl.summing_space(2), nat, t, 2, 1),
        "exact_constant_polyhedral": lambda t: gl.exact_constant_polyhedral(
            gl.summing_space(2), nat, t, 2),
        "exact_constant_grid": lambda t: gl.exact_constant_grid(
            gl.summing_space(2), nat, [1.0, t], 2),
        "bounded_gap_projection_bound": lambda t: gl.bounded_gap_projection_bound(
            gl.summing_space(2), 1.0, 1.0, x, {1}, t, nat),
        "equivalence_audit": lambda t: equivalence_audit(gl.summing_space(2), nat, t,
                                                         audit_draws(2, 1, 0)),
        "enumerate_selection_classes": lambda t: cx.enumerate_selection_classes(ex, 1, t),
        "greedy_sum_norm": lambda t: cx.greedy_sum_norm(ex, 1, t),
        "phi_lower_bound": lambda t: cx.phi_lower_bound(1, t),
        "divergence_experiment": lambda t: cx.divergence_experiment(2, t),
        # every spike selected: no row reaches phi_lower_bound
        "divergence_experiment_canonical": lambda t: cx.divergence_experiment(
            2, t, False, m_grid=[2]),
        "divergence_rows": lambda t: experiments.divergence_rows(2, t),
        "constants_table": lambda t: experiments.constants_table(
            "summing", "C_q_t", t, [2], 1, 0),
    }


@pytest.mark.parametrize("name", list(_t_checked_calls()))
@pytest.mark.parametrize("t", [0.0, -0.1, 1.5, math.nan])
def test_weakness_parameter_rejected_everywhere(name, t):
    with pytest.raises(ValueError, match="weakness parameter"):
        _t_checked_calls()[name](t)
