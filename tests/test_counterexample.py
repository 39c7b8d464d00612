"""Divergence engine: run-length evaluation, greedy-set classes, the floor."""

import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import greedylab as gl
from greedylab import counterexample as cx
from greedylab import greedy

from divergence_oracles import dense_vector, materialize_selection, spike_prefix_sums


def sqrt_partial_sum(n: int) -> float:
    return math.fsum(1.0 / math.sqrt(k) for k in range(1, n + 1))


def reference_sweep(depth: int, t: float, m_grid=None) -> dict:
    """The adversarial sweep as a per-class loop over the whole class list:
    the oracle for ``divergence_experiment``, which solves block windows
    instead of walking them.

    The list is cut at SWEEP_WALK_CAP classes.  No default-grid row at
    depth <= 6 and t >= 0.0095, or at depth <= 4 and t >= 0.001, reaches the
    default, so there this is the uncapped sweep.  The sweep counts only
    spike-window classes, so a smaller budget cuts both at the same class
    only on rows whose walk holds no block window."""
    ex = cx.build_example(depth)
    rows, violations = [], []
    for m in (m_grid if m_grid is not None else cx.default_m_grid(ex)):
        classes, exact = cx.enumerate_selection_classes(ex, m, t, cx.SWEEP_WALK_CAP)
        norm = sel = None
        for cand in classes:
            val = cx.selection_norm(ex, cand)
            phi_c = cx.selection_phi(ex, cand)
            if phi_c <= ex.depth:
                floor_c = cx.phi_lower_bound(phi_c, t)
                if val < floor_c - 1e-9:
                    violations.append({"m": m, "family": cx.family_label(cand),
                                       "norm": val, "phi": phi_c, "lower_bound": floor_c})
            if norm is None or val < norm:
                norm, sel = val, cand
        phi = cx.selection_phi(ex, sel)
        rows.append({"m": m, "t": t, "depth": depth, "min_norm": norm, "phi": phi,
                     "lower_bound": cx.phi_lower_bound(phi, t) if phi <= depth else None,
                     "greedy_set_family": cx.family_label(sel), "exact": exact})
    return {"depth": depth, "t": t, "adversary": True, "rows": rows,
            "violations": violations}


def assert_sweep_equals(got, want):
    assert got == want
    # the same bytes in a report: no numpy scalar stands in for a float or int
    assert json.dumps(got) == json.dumps(want)


def assert_sweep_matches_reference(depth, t, m_grid=None):
    got = cx.divergence_experiment(depth, t, True, m_grid=m_grid)
    assert_sweep_equals(got, reference_sweep(depth, t, m_grid))
    return got


def sorted_classes(ex) -> list:
    """(modulus, size, kind, k) of the 2 * depth modulus classes, sorted by
    descending modulus: an oracle for ``_class_table``'s fixed order."""
    classes = [(cx.spike_value(k), 1, "spike", k) for k in range(1, ex.depth + 1)]
    classes += [(-cx.block_value(k), ex.block_size(k), "block", k)
                for k in range(1, ex.depth + 1)]
    return sorted(classes, key=lambda c: -c[0])


def fill_selection(ex, m: int) -> tuple:
    """The class made by filling the modulus classes in descending order, one
    after another: ``canonical_selection``'s own loop before it read the walk."""
    spikes = [0] * ex.depth
    counts = [0] * ex.depth
    left = m
    for _, mult, kind, k in sorted_classes(ex):
        if left <= 0:
            break
        take = min(mult, left)
        if kind == "spike":
            spikes[k - 1] = 1
        else:
            counts[k - 1] = take
        left -= take
    return tuple(spikes + counts)


class TestConstruction:
    def test_spike_positions(self):
        ex = cx.build_example(3)
        assert ex.spikes == (1, 12, 113, 1114)
        assert ex.block_range(1) == (2, 11) and ex.block_size(1) == 10
        assert ex.block_range(2) == (13, 112) and ex.block_size(2) == 100

    def test_depth_one_coefficients(self):
        ex = cx.build_example(1)
        y = dense_vector(ex)
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
        for k, value in enumerate(spike_prefix_sums(ex), start=1):
            assert abs(value - 1.0 / math.sqrt(k)) <= 1e-10

    def test_prefix_strictly_below_inside_blocks(self):
        ex = cx.build_example(3)
        vec = dense_vector(ex)
        dense = [vec[i] for i in range(1, vec.max_index() + 1)]
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
        dense = dense_vector(ex)
        assert cx.truncation_norm(ex) == pytest.approx(gl.summing_norm(dense), abs=1e-12)

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_class_norm_matches_dense_projection(self, depth):
        ex = cx.build_example(depth)
        dense = dense_vector(ex)
        rng = np.random.default_rng(depth)
        for _ in range(50):
            spikes = frozenset(int(k) for k in range(1, depth + 1)
                               if rng.random() < 0.5)
            counts = tuple(int(rng.integers(0, ex.block_size(k) + 1))
                           for k in range(1, depth + 1))
            sel = tuple(int(k in spikes) for k in range(1, depth + 1)) + counts
            A = materialize_selection(ex, sel, "first")
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
            assert [k for k in range(1, 6) if sel[k - 1]] == list(range(1, m + 1))
            assert all(c == 0 for c in sel[ex.depth:])

    def test_cap_keeps_a_prefix_of_the_walk(self):
        ex = cx.build_example(3)
        full, exact = cx.enumerate_selection_classes(ex, 8, 0.1)
        assert exact and len(full) == 8
        for cap in (1, 2, 7):
            classes, exact = cx.enumerate_selection_classes(ex, 8, 0.1, cap=cap)
            assert classes == full[:cap] and not exact
        assert cx.enumerate_selection_classes(ex, 8, 0.1, cap=8) == (full, True)

    @pytest.mark.parametrize("cap", [0, -5])
    def test_cap_below_one_is_rejected(self, cap):
        ex = cx.build_example(3)
        with pytest.raises(ValueError, match="cap must be at least 1"):
            cx.enumerate_selection_classes(ex, 3, 1.0, cap=cap)

    @pytest.mark.parametrize("m", [2.5, 2.0, True, "2"])
    def test_non_integral_cardinality_is_rejected(self, m):
        ex = cx.build_example(2)
        for call in (lambda: cx.enumerate_selection_classes(ex, m, 1.0),
                     lambda: cx.canonical_selection(ex, m),
                     lambda: cx.divergence_experiment(2, 1.0, True, m_grid=[m]),
                     lambda: cx.divergence_experiment(2, 1.0, False, m_grid=[m])):
            with pytest.raises(ValueError, match="cardinality"):
                call()

    def test_numpy_integer_cardinality(self):
        rows = cx.divergence_experiment(2, 1.0, True, m_grid=[np.int64(3)])["rows"]
        assert rows == cx.divergence_experiment(2, 1.0, True, m_grid=[3])["rows"]

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

    @pytest.mark.parametrize("depth", range(1, cx.MAX_DEPTH + 1))
    def test_class_table_is_the_sorted_order(self, depth):
        # the fixed layout (spikes 1..depth, then blocks 1..depth) is the
        # descending modulus order, strictly, as greedy_class_counts needs
        ex = cx.build_example(depth)
        sizes, moduli = cx._class_table(ex, 0, 1.0)
        classes = sorted_classes(ex)
        assert sizes == [size for _, size, _, _ in classes]
        assert moduli == [mod for mod, _, _, _ in classes]
        assert [(kind, k) for _, _, kind, k in classes] == [
            *(("spike", k) for k in range(1, depth + 1)),
            *(("block", k) for k in range(1, depth + 1))]
        assert all(a > b for a, b in zip(moduli, moduli[1:]))

    @pytest.mark.parametrize("depth", range(1, cx.MAX_DEPTH + 1))
    def test_canonical_selection_matches_fill(self, depth):
        ex = cx.build_example(depth)
        rng = np.random.default_rng(depth)
        for m in (*cx.default_m_grid(ex), ex.support_size,
                  *rng.integers(0, ex.support_size + 1, 20).tolist()):
            sel = cx.canonical_selection(ex, m)
            assert sel == fill_selection(ex, m) and sum(sel) == m

    def test_selection_phi(self):
        ex = cx.build_example(4)
        sel = (1, 1, 0, 1, 0, 0, 0, 0)  # spikes 1, 2 and 4, no block entries
        assert cx.selection_phi(ex, sel) == 3
        full = cx.canonical_selection(ex, 4)
        assert cx.selection_phi(ex, full) == 5


class TestPositionIrrelevance:
    """The summing norm of a projected class does not depend on which block
    positions carry the count; the class enumeration relies on this."""

    def test_exhaustive_depth_one(self):
        ex = cx.build_example(1)
        dense = dense_vector(ex)
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
                    sel = (int(key[0]), key[1])
                    assert norm == pytest.approx(cx.selection_norm(ex, sel), abs=1e-12)
            assert all(len(norms) == 1 for norms in seen.values())
            # the class walk finds exactly the classes the powerset filter saw
            for m in range(len(support) + 1):
                classes, exact = cx.enumerate_selection_classes(ex, m, t)
                assert exact
                got = {(bool(c[0]), c[1]) for c in classes}
                want = {k for k in seen if (1 if k[0] else 0) + k[1] == m}
                assert got == want

    @pytest.mark.parametrize("depth", [2, 3])
    def test_sampled_representatives(self, depth):
        ex = cx.build_example(depth)
        dense = dense_vector(ex)
        rng = np.random.default_rng(depth)
        for _ in range(40):
            m = int(rng.integers(0, min(ex.support_size, 150) + 1))
            classes, _ = cx.enumerate_selection_classes(ex, m, 1.0)
            for sel in classes:
                norms = set()
                for placement in ("first", "last"):
                    A = materialize_selection(ex, sel, placement)
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
        dense = dense_vector(ex)
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




def window_spans(ex, m, t):
    """(i_max, end, first walk position, class count) of every window of the
    row's walk, counted by walking it."""
    sizes, moduli = cx._class_table(ex, m, t)
    spans, start = [], 0
    for i_max, end, rest, caps in greedy._class_windows(sizes, moduli, m, t):
        count = sum(1 for _ in greedy._compositions(rest, caps))
        spans.append((i_max, end, start, count))
        start += count
    return spans


def is_block_window(ex, i_max):
    """Whether a window lies wholly in the blocks: every spike is in its head."""
    return i_max >= ex.depth


def walked_count(ex, spans):
    """Classes the sweep walks: those of the spike windows."""
    return sum(count for i_max, _, _, count in spans if not is_block_window(ex, i_max))


def holds_block_window(ex, spans):
    return any(is_block_window(ex, i_max) and count for i_max, _, _, count in spans)


class TestSweepMatchesReference:
    """``divergence_experiment`` walks the spike windows class by class and
    solves each block window; every field must equal the per-class loop's."""

    @pytest.mark.parametrize("depth", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("t", [1.0, 0.5, 0.1, 0.05, 0.01])
    def test_default_grid(self, depth, t):
        assert_sweep_matches_reference(depth, t)

    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    @pytest.mark.parametrize("t", [0.007, 0.0065, 0.005, 0.001])
    def test_default_grid_below_three_block_threshold(self, depth, t):
        # below t ~ 0.0088 block windows hold three or more blocks
        assert_sweep_matches_reference(depth, t)

    @given(st.integers(1, 5), st.floats(0.01, 1.0))
    @settings(max_examples=30, deadline=None)
    def test_any_t(self, depth, t):
        assert_sweep_matches_reference(depth, t)

    @pytest.mark.parametrize("depth, t", [(3, 1.0), (3, 0.05), (4, 0.1), (4, 0.05),
                                          (5, 0.01)])
    def test_forced_violations_in_walk_order(self, monkeypatch, depth, t):
        floor = cx.phi_lower_bound
        monkeypatch.setattr(cx, "phi_lower_bound", lambda phi, t: floor(phi, t) + 1.2)
        got = assert_sweep_matches_reference(depth, t)
        assert got["violations"]
        assert len(got["violations"]) < sum(
            len(cx.enumerate_selection_classes(cx.build_example(depth), r["m"], t)[0])
            for r in got["rows"])

    def test_norm_within_the_margin_of_its_floor_is_no_violation(self, monkeypatch):
        # depth-3 classes at t = 0.01 that omit a spike and have norm exactly
        # 1.0 sit 5e-10 under this floor, inside the 1e-9 margin
        monkeypatch.setattr(cx, "phi_lower_bound", lambda phi, t: 1.0 + 5e-10)
        ex = cx.build_example(3)
        on_floor = {cx.family_label(c) for m in cx.default_m_grid(ex)
                    for c in cx.enumerate_selection_classes(ex, m, 0.01)[0]
                    if cx.selection_norm(ex, c) == 1.0 and cx.selection_phi(ex, c) <= 3}
        got = assert_sweep_matches_reference(3, 0.01)
        assert on_floor and got["violations"]
        assert not on_floor & {v["family"] for v in got["violations"]}

    @pytest.mark.parametrize("budget", [1, 2, 3, 7, 62])
    def test_small_budgets_with_violations(self, monkeypatch, budget):
        # a budget far below the rows' walks, with every minimum, tie and
        # violation inside the walked part
        floor = cx.phi_lower_bound
        monkeypatch.setattr(cx, "phi_lower_bound", lambda phi, t: floor(phi, t) + 1.2)
        monkeypatch.setattr(cx, "SWEEP_WALK_CAP", budget)
        cut = False
        for depth in (4, 6):
            ex = cx.build_example(depth)
            for m in cx.default_m_grid(ex):
                # the reference cuts the whole class list, the sweep only the
                # spike windows: they cut alike on rows with no block window
                if holds_block_window(ex, window_spans(ex, m, 0.1)):
                    continue
                row, = assert_sweep_matches_reference(depth, 0.1, [m])["rows"]
                cut |= not row["exact"]
        assert cut

    @pytest.mark.parametrize("budget", [1, 32, 62])
    def test_cap_cuts_the_spike_windows(self, monkeypatch, budget):
        # depth 6, t = 0.1, m = 6: 63 classes in the spike windows, then the
        # all-spike class in block 1's window, which the cut never reaches
        ex = cx.build_example(6)
        spans = window_spans(ex, 6, 0.1)
        assert walked_count(ex, spans) == 63 and holds_block_window(ex, spans)
        monkeypatch.setattr(cx, "SWEEP_WALK_CAP", budget)
        row, = assert_sweep_matches_reference(6, 0.1, [6])["rows"]
        assert not row["exact"]

    def test_minimum_tied_keeps_the_first(self):
        # depth 5, t = 0.05, m = 11,115: 10,001 classes, every one of norm 1.0
        ex = cx.build_example(5)
        classes, exact = cx.enumerate_selection_classes(ex, 11_115, 0.05)
        assert exact and len(classes) == 10_001
        assert {cx.selection_norm(ex, c) for c in classes} == {1.0}
        row, = assert_sweep_matches_reference(5, 0.05, [11_115])["rows"]
        assert row["exact"] and row["greedy_set_family"] == cx.family_label(classes[0])


def class_count(rest, caps):
    """Vectors of counts at most ``caps`` summing to ``rest``, by
    inclusion-exclusion over the counts that exceed their cap."""
    r = len(caps)
    if not r:
        return int(rest == 0)
    total = 0
    for over in itertools.product((0, 1), repeat=r):
        left = rest - sum(c + 1 for c, o in zip(caps, over) if o)
        if left >= 0:
            total += (-1) ** sum(over) * math.comb(left + r - 1, r - 1)
    return total


def window_count_blocks(rest, caps):
    """A window's classes in walk order, as blocks of count rows: one block
    per choice of all counts but the last two, of at most 10^5 rows."""
    if len(caps) < 2:  # one class: the take-everything one, or one block's count
        yield np.full((1, len(caps)), rest, dtype=np.int64)
        return
    for lead in leading_counts(rest, caps):
        left = rest - sum(lead)
        c = np.arange(max(0, left - caps[-1]), min(caps[-2], left) + 1)
        for part in np.array_split(c, len(c) // 10**5 + 1):
            block = np.empty((len(part), len(caps)), dtype=np.int64)
            block[:, :-2], block[:, -2], block[:, -1] = lead, part, left - part
            yield block


def leading_counts(rest, caps):
    """All counts but the last two, in lexicographic order, that leave the
    last two a remainder they can hold."""
    if len(caps) == 2:
        yield ()
        return
    room = sum(caps[1:])
    for c in range(max(0, rest - room), min(caps[0], rest) + 1):
        for tail in leading_counts(rest - c, caps[1:]):
            yield (c, *tail)


class TestBlockWindowsMatchReference:
    """Every window in the blocks, of one, two or more block columns, is
    solved by ``_block_window_minimiser``, not walked; every field must still
    equal the per-class loop's, and none of its classes counts against
    SWEEP_WALK_CAP."""

    @pytest.mark.parametrize("t", [1.0, 0.5, 0.1, 0.05])
    def test_depth_six_default_grid(self, t):
        assert_sweep_matches_reference(6, t)

    # block k's window holds block k alone above t = 0.1 * sqrt(k / (k + 1)),
    # and blocks k and k + 1 down to 0.01 * sqrt(k / (k + 2)): the shapes
    # switch inside this range, at a different t for every k
    @given(st.integers(1, 5), st.floats(0.0087, 0.0935), st.data())
    @settings(max_examples=40, deadline=None)
    def test_t_where_block_windows_change_shape(self, depth, t, data):
        ex = cx.build_example(depth)
        grid = data.draw(st.lists(st.integers(0, ex.support_size), min_size=1, max_size=3))
        assert_sweep_matches_reference(depth, t, grid)

    @pytest.mark.parametrize("depth", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("t", [1.0, 0.5, 0.1, 0.05, 0.01])
    def test_caps_around_the_class_count(self, monkeypatch, depth, t):
        # a row is exact exactly when the budget covers its walked classes
        ex = cx.build_example(depth)
        for m in cx.default_m_grid(ex):
            full = reference_sweep(depth, t, [m])
            spans = window_spans(ex, m, t)
            n = walked_count(ex, spans)
            for budget in (n - 1, n, n + 1):
                if budget < 1:
                    continue
                with monkeypatch.context() as patch:
                    patch.setattr(cx, "SWEEP_WALK_CAP", budget)
                    if not holds_block_window(ex, spans):
                        got = assert_sweep_matches_reference(depth, t, [m])
                    else:
                        got = cx.divergence_experiment(depth, t, True, [m])
                        if budget >= n:
                            assert_sweep_equals(got, full)
                assert got["rows"][0]["exact"] == (budget >= n)

    @pytest.mark.parametrize("depth, t", [(4, 0.05), (5, 0.05), (5, 0.02)])
    def test_walk_budget_skips_block_windows(self, monkeypatch, depth, t):
        # a budget of just the walked classes, none at all on some rows, keeps
        # exact the rows whose block windows hold up to 10,000 classes
        ex = cx.build_example(depth)
        checked = 0
        for m in cx.default_m_grid(ex):
            spans = window_spans(ex, m, t)
            if not any(is_block_window(ex, i_max) and count >= 3
                       for i_max, _, _, count in spans):
                continue
            full = reference_sweep(depth, t, [m])
            n = walked_count(ex, spans)
            with monkeypatch.context() as patch:
                patch.setattr(cx, "SWEEP_WALK_CAP", n)
                got = cx.divergence_experiment(depth, t, True, [m])
                assert_sweep_equals(got, full)
                assert got["rows"][0]["exact"]
                if n:
                    patch.setattr(cx, "SWEEP_WALK_CAP", n - 1)
                    row, = cx.divergence_experiment(depth, t, True, [m])["rows"]
                    assert not row["exact"]
            checked += 1
        assert checked

    @pytest.mark.parametrize("depth", [7, 8])
    @pytest.mark.parametrize("t", [0.05, 0.01, 0.007, 0.001])
    def test_candidates_hold_every_first_minimiser(self, depth, t):
        # beyond the per-class loop's reach: every class of each block window
        # of up to 10^6 classes, of one, two or more block columns, evaluated
        # as count rows whose cumsum in run-endpoint order, scaled by the
        # step values, is selection_norm's running sum to the bit
        ex = cx.build_example(depth)
        runs = [pos for k in range(depth) for pos in (k, depth + k)]
        steps = np.array([v for k in range(1, depth + 1)
                          for v in (cx.spike_value(k), cx.block_value(k))])
        checked, three = 0, 0
        for m in cx.default_m_grid(ex):
            sizes, moduli = cx._class_table(ex, m, t)
            for i_max, end, rest, caps in greedy._class_windows(sizes, moduli, m, t):
                if not is_block_window(ex, i_max) or not 0 < class_count(rest, caps) <= 10**6:
                    continue
                head, tail = tuple(sizes[:i_max]), (0,) * (len(sizes) - end)
                best, first = math.inf, None
                for window in window_count_blocks(rest, caps):
                    counts = np.zeros((len(window), len(sizes)), dtype=np.int64)
                    counts[:, :i_max], counts[:, i_max:end] = head, window
                    norms = np.abs(np.cumsum(counts[:, runs] * steps, axis=1)).max(axis=1)
                    i = int(np.argmin(norms))
                    if norms[i] < best:
                        best, first = norms[i], head + tuple(window[i].tolist()) + tail
                got, norm = cx._block_window_minimiser(ex, head, rest, caps, tail)
                assert got == first and norm == cx.selection_norm(ex, got) == best
                checked += 1
                three += end - i_max >= 3
        # windows of three or more blocks appear below t ~ 0.0088
        assert checked and (three > 0) == (t < 0.0088)

    def test_three_block_windows_are_solved(self, monkeypatch):
        # at t = 0.007 block 2 over block 4 is 0.01 * sqrt(2 / 4) > t, so
        # depth 4 has block windows of three classes: they are solved, and a
        # budget of just the spike-window classes keeps their rows exact
        ex = cx.build_example(4)
        rows = []
        for m in cx.default_m_grid(ex):
            spans = window_spans(ex, m, 0.007)
            if any(is_block_window(ex, i_max) and end - i_max == 3 and count > 1
                   for i_max, end, _, count in spans):
                rows.append((m, walked_count(ex, spans)))
        assert rows
        for m, n in rows:
            full = reference_sweep(4, 0.007, [m])
            with monkeypatch.context() as patch:
                patch.setattr(cx, "SWEEP_WALK_CAP", n)
                got = cx.divergence_experiment(4, 0.007, True, [m])
            assert_sweep_equals(got, full)
            assert got["rows"][0]["exact"]


@pytest.mark.parametrize("depth", range(1, cx.MAX_DEPTH + 1))
@pytest.mark.parametrize("t", [1.0, 0.5, 0.1, 0.05, 0.01, 0.005, 0.001])
def test_every_default_grid_row_is_exact(depth, t):
    rep = cx.divergence_experiment(depth, t, True)
    assert all(row["exact"] for row in rep["rows"]) and not rep["violations"]
