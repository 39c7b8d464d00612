"""Divergence engine: run-length evaluation, greedy-set classes, the floor."""

import itertools
import math

import numpy as np
import pytest

import greedylab as gl
from greedylab import counterexample as cx


def sqrt_partial_sum(n: int) -> float:
    return math.fsum(1.0 / math.sqrt(k) for k in range(1, n + 1))


class TestConstruction:
    def test_spike_positions(self):
        ex = cx.build_example(3)
        assert ex.spikes == (1, 12, 113, 1114)
        assert ex.block_range(1) == (2, 11) and ex.block_size(1) == 10
        assert ex.block_range(2) == (13, 112) and ex.block_size(2) == 100

    def test_depth_one_coefficients(self):
        ex = cx.build_example(1)
        y = cx.dense_vector(ex)
        assert y.support() == tuple(range(1, 12))
        assert y[1] == 1.0
        assert all(y[i] == -0.1 for i in range(2, 12))

    def test_blocks_sit_between_spikes(self):
        ex = cx.build_example(4)
        for k in range(1, 5):
            lo, hi = ex.block_range(k)
            assert ex.spikes[k - 1] < lo <= hi < ex.spikes[k]

    @pytest.mark.parametrize("depth", [0, 9, -3])
    def test_depth_guard(self, depth):
        with pytest.raises(ValueError):
            cx.build_example(depth)


class TestTelescoping:
    @pytest.mark.parametrize("depth", range(1, 9))
    def test_prefix_sum_at_spikes(self, depth):
        ex = cx.build_example(depth)
        for k, value in enumerate(cx.spike_prefix_sums(ex), start=1):
            assert abs(value - 1.0 / math.sqrt(k)) <= 1e-10

    def test_prefix_strictly_below_inside_blocks(self):
        ex = cx.build_example(3)
        dense = cx.dense_vector(ex).to_dense()
        prefixes = np.cumsum(dense)
        for k in range(1, 4):
            lo, hi = ex.block_range(k)
            inside = np.abs(prefixes[lo - 1: hi])
            assert np.all(inside < 1.0 / math.sqrt(k))

    @pytest.mark.parametrize("depth", range(1, 9))
    def test_unit_norm(self, depth):
        assert abs(cx.truncation_norm(cx.build_example(depth)) - 1.0) <= 1e-10


class TestRunLengthAgainstDense:
    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    def test_truncation_norm_matches_dense(self, depth):
        ex = cx.build_example(depth)
        dense = cx.dense_vector(ex)
        assert cx.truncation_norm(ex) == pytest.approx(gl.summing_norm(dense), abs=1e-12)

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_class_norm_matches_dense_projection(self, depth):
        ex = cx.build_example(depth)
        dense = cx.dense_vector(ex)
        rng = np.random.default_rng(depth)
        for _ in range(50):
            spikes = frozenset(int(k) for k in range(1, depth + 1)
                               if rng.random() < 0.5)
            counts = tuple(int(rng.integers(0, ex.block_size(k) + 1))
                           for k in range(1, depth + 1))
            sel = cx.SpikeBlockSelection(spikes, counts)
            A = cx.materialize_selection(ex, sel, "first")
            assert cx.selection_norm(ex, sel) == pytest.approx(
                gl.summing_norm(gl.projection(dense, A)), abs=1e-12)


class TestGreedyClasses:
    def test_unique_class_below_depth(self):
        # for t = 1 and m <= K the only greedy set is the first m spikes
        ex = cx.build_example(5)
        for m in range(1, 6):
            classes, exact = cx.enumerate_selection_classes(ex, m, 1.0)
            assert exact and len(classes) == 1
            sel = classes[0]
            assert sel.spike_ks == frozenset(range(1, m + 1))
            assert all(c == 0 for c in sel.block_counts)

    def test_cap_keeps_a_prefix_of_the_walk(self):
        ex = cx.build_example(3)
        full, exact = cx.enumerate_selection_classes(ex, 8, 0.1)
        assert exact and len(full) == 8
        for cap in (1, 2, 7):
            classes, exact = cx.enumerate_selection_classes(ex, 8, 0.1, cap=cap)
            assert classes == full[:cap] and not exact
        assert cx.enumerate_selection_classes(ex, 8, 0.1, cap=8) == (full, True)

    def test_spike_prefix_norms(self):
        ex = cx.build_example(7)
        for m in range(1, 8):
            assert cx.greedy_sum_norm(ex, m, 1.0) == pytest.approx(
                sqrt_partial_sum(m), abs=1e-9)

    def test_reported_values(self):
        assert cx.greedy_sum_norm(cx.build_example(4), 3, 1.0) == pytest.approx(
            2.284457050376173, abs=1e-9)
        top = cx.greedy_sum_norm(cx.build_example(7), 7, 1.0)
        assert top == pytest.approx(4.0178834093492215, abs=1e-9)
        assert top > 4.0

    def test_full_support_recovers_unit_norm(self):
        ex = cx.build_example(4)
        assert cx.greedy_sum_norm(ex, ex.support_size, 1.0) == pytest.approx(1.0,
                                                                             abs=1e-10)

    def test_zero_cardinality(self):
        assert cx.greedy_sum_norm(cx.build_example(3), 0, 1.0) == 0.0

    def test_chooser_validation(self):
        ex = cx.build_example(3)
        bad = lambda e, m, t: cx.SpikeBlockSelection(frozenset({2}), (0, 0, 0))
        with pytest.raises(ValueError, match="not t-greedy"):
            cx.greedy_sum_norm(ex, 1, 1.0, bad)
        wrong_size = lambda e, m, t: cx.canonical_selection(e, m + 1, t)
        with pytest.raises(ValueError, match="cardinality"):
            cx.greedy_sum_norm(ex, 1, 1.0, wrong_size)

    def test_selection_phi(self):
        ex = cx.build_example(4)
        sel = cx.SpikeBlockSelection(frozenset({1, 2, 4}), (0, 0, 0, 0))
        assert cx.selection_phi(ex, sel) == 3
        full = cx.canonical_selection(ex, 4, 1.0)
        assert cx.selection_phi(ex, full) == 5


class TestPositionIrrelevance:
    """The summing norm of a projected class does not depend on which block
    positions carry the count; the class enumeration relies on this."""

    def test_exhaustive_depth_one(self):
        ex = cx.build_example(1)
        dense = cx.dense_vector(ex)
        support = dense.support()
        for t in (1.0, 0.5):
            seen: dict = {}
            for r in range(len(support) + 1):
                for A in itertools.combinations(support, r):
                    if not gl.is_t_greedy(dense, A, t):
                        continue
                    key = (1 in A, len([i for i in A if i >= 2]))
                    norm = gl.summing_norm(gl.projection(dense, A))
                    seen.setdefault(key, set()).add(round(norm, 14))
                    sel = cx.SpikeBlockSelection(
                        frozenset({1} if 1 in A else set()), (key[1],))
                    assert norm == pytest.approx(cx.selection_norm(ex, sel), abs=1e-12)
            assert all(len(norms) == 1 for norms in seen.values())
            # the class walk finds exactly the classes the powerset filter saw
            for m in range(len(support) + 1):
                classes, exact = cx.enumerate_selection_classes(ex, m, t)
                assert exact
                got = {(1 in c.spike_ks, c.block_counts[0]) for c in classes}
                want = {k for k in seen if (1 if k[0] else 0) + k[1] == m}
                assert got == want

    @pytest.mark.parametrize("depth", [2, 3])
    def test_sampled_representatives(self, depth):
        ex = cx.build_example(depth)
        dense = cx.dense_vector(ex)
        rng = np.random.default_rng(depth)
        for _ in range(40):
            m = int(rng.integers(0, min(ex.support_size, 150) + 1))
            classes, _ = cx.enumerate_selection_classes(ex, m, 1.0)
            for sel in classes:
                norms = set()
                for placement in ("first", "last"):
                    A = cx.materialize_selection(ex, sel, placement)
                    norms.add(gl.summing_norm(gl.projection(dense, A)))
                assert len(norms) == 1


class TestLowerBound:
    def test_empty_cases(self):
        assert cx.phi_lower_bound(1, 1.0) == 0.0

    def test_hundred_spikes(self):
        expected = sqrt_partial_sum(100) - sqrt_partial_sum(1)
        assert cx.phi_lower_bound(101, 1.0) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(17.589603824784152, abs=1e-9)

    def test_integral_comparison(self):
        # the floor dominates 2*(sqrt(phi-1) - sqrt(cutoff+1)) for every phi, t
        for t in (1.0, 0.5, 0.17, 0.03):
            for phi in (1, 2, 3, 10, 101, 1_000, 55_001, 1_000_000):
                cutoff = math.floor(math.log10(math.sqrt(phi) / t))
                rhs = 2.0 * (math.sqrt(phi - 1) - math.sqrt(cutoff + 1))
                assert cx.phi_lower_bound(phi, t) >= rhs - 1e-9

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            cx.phi_lower_bound(0, 1.0)
        with pytest.raises(ValueError):
            cx.phi_lower_bound(5, 0.0)


class TestDivergenceExperiment:
    def test_depth_three_exhaustive(self):
        for t in (1.0, 0.5):
            rep = cx.divergence_experiment(3, t, adversary=True)
            assert rep["violations"] == []
            assert all(r["exact"] for r in rep["rows"])

    def test_minimum_against_set_level_enumeration(self):
        # depth 1: the class minimum agrees with brute force over index sets
        ex = cx.build_example(1)
        dense = cx.dense_vector(ex)
        for t in (1.0, 0.5):
            for m in range(0, 12):
                best = math.inf
                for sel in gl.enumerate_t_greedy_sets(dense, m, t, cap=4096).selections:
                    best = min(best, gl.summing_norm(gl.projection(dense, sel.indices)))
                row, = cx.divergence_experiment(1, t, True, m_grid=[m])["rows"]
                assert row["exact"] and row["min_norm"] == pytest.approx(best, abs=1e-12)

    def test_spike_prefix_rows_increase(self):
        rep = cx.divergence_experiment(6, 1.0, adversary=True,
                                       m_grid=range(1, 7))
        norms = [r["min_norm"] for r in rep["rows"]]
        assert norms == sorted(norms) and len(set(norms)) == len(norms)

    def test_zero_row(self):
        rep = cx.divergence_experiment(2, 1.0, m_grid=[0])
        assert rep["rows"][0]["min_norm"] == 0.0

    def test_floor_attached_only_when_spike_missing(self):
        rep = cx.divergence_experiment(3, 1.0, adversary=True)
        for row in rep["rows"]:
            if row["phi"] <= 3:
                assert row["lower_bound"] is not None
                assert row["min_norm"] >= row["lower_bound"] - 1e-9
            else:
                assert row["lower_bound"] is None
