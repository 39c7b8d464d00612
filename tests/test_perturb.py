"""Quasi-Banach toolkit: crude bound, perturbation, padding, amplification."""

import dataclasses
import hashlib
import re
import struct

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import greedylab as gl
from greedylab import CoeffVector as CV
from greedylab import GapSequence, coeffspace, experiments, perturb
from greedylab.cli import run_experiment_set
from greedylab.coeffspace import random_vectors
from greedylab.experiments import perturb_audit
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
            rep = gl.crude_bound_suite(space, gl.trial_draws(400, 5, 16))
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
        rep = gl.lemma_perturbation_suite(space, gl.trial_draws(1000, 23, 16))
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

    @staticmethod
    def _old_dominance_failures(y, A, m, moved, t):
        """The retained-dominance check as a nested loop over (i, j): every
        failing pair."""
        B = frozenset(range(1, m + 1))
        return [(i, j) for i in frozenset(A) - B for j, v in y.pairs()
                if j not in moved and j not in B
                and abs(v) > abs(y[i]) / t + 1e-12 * max(1.0, abs(y[i]) / t)]

    def test_dominance_check_matches_the_pairwise_loop(self, monkeypatch):
        # with the greedy checks switched off, arbitrary sets reach the
        # dominance check; it must raise exactly when some pair fails
        monkeypatch.setattr(perturb, "is_t_greedy", lambda x, A, t: True)
        rng = np.random.default_rng(53)
        raised = passed = 0
        for _ in range(600):
            n = int(rng.integers(2, 12))
            vals = np.round(rng.standard_normal(n) * 4.0) / 4.0
            if not vals.any():
                continue
            m = int(rng.integers(1, n + 1))
            B = frozenset(range(1, m + 1))
            support = [i for i in range(1, n + 1) if vals[i - 1]]
            A = frozenset(rng.choice(support, size=int(rng.integers(1, len(support) + 1)),
                                     replace=False).tolist())
            if not A & B:
                continue  # no padding, so no dominance check
            t = float(rng.choice((1.0, 0.7, 0.3)))
            others = [j for j in range(1, n + 1) if j not in A | B]
            if A - B and others and rng.integers(2):
                # one untouched entry just above or below the tolerance line
                a = min(abs(vals[i - 1]) for i in A - B) / t
                vals[int(rng.choice(others)) - 1] = a + float(rng.choice(
                    (-1e-3, -1e-13, 1e-13, 2e-12, 1e-3))) * max(1.0, a)
            x = CV.from_dense(vals)
            space = L_HALF if rng.integers(2) else L_TWO_THIRDS
            top = max(x.max_index(), max(A), m)
            D = frozenset(range(top + 1, top + 1 + len(A & B)))
            y = x - gl.projection(x, B) + CV.indicator(D, 2.0 * space.c_param * space.norm(x))
            failing = self._old_dominance_failures(y, A, m, (A - B) | D, t)
            try:
                gl.padding_set_construction(space, x, A, t, m)
            except PerturbationError as exc:
                assert "lost dominance" in str(exc) and failing, str(exc)
                i, j = (int(v) for v in re.findall(r"=(\d+)", str(exc)))
                assert (i, j) in failing
                raised += 1
            else:
                assert not failing
                passed += 1
        assert raised >= 20 and passed >= 20

    @pytest.mark.parametrize("space", [L_HALF, L_TWO_THIRDS])
    def test_randomized_suite(self, space):
        rep = gl.padding_suite(space, gl.trial_draws(300, 37, 16))
        assert rep["failures"] == 0


def _old_greedy_pair(dim, rng, style):
    x = next(iter(random_vectors(dim, 1, rng, style_offset=style)))
    t = float(rng.choice((1.0, 0.9, 0.7, 0.5, 0.3)))
    m = int(rng.integers(1, len(x) + 1))
    policy = "lowest" if rng.integers(2) == 0 else "highest"
    return x, gl.one_greedy_set(x, m, t, policy).indices, t


def _old_lemma_trial(space, seed, idx, dim):
    rng = np.random.default_rng([seed, idx])
    x, A, t = _old_greedy_pair(dim, rng, idx)
    eps = float(rng.uniform(0.01, 1.0)) * max(space.norm(x), 1e-6)
    tail_len = int(rng.integers(0, 5))
    base, picker = x, (lambda vec, d: vec)
    if tail_len:
        start = x.max_index() + 1
        delta = perturb._delta(space, eps, len(A)) if A else eps
        beta = min((abs(x[i]) for i in A), default=1.0)
        tail_scale = 0.25 * min(delta / (space.alpha ** tail_len * tail_len + 1), t * beta)
        base = x + CV(range(start, start + tail_len),
                      [tail_scale * 0.5 ** j for j in range(tail_len)])
        picker = lambda vec, d, _cut=start: vec.restrict(range(1, _cut))
    if not gl.is_t_greedy(base, A, t):
        return True, None
    try:
        y = gl.perturb_to_finite_support(space, base, A, t, eps, picker)
    except PerturbationError:
        return False, None
    return True, eps - space.norm(base - y)


def _old_padding_trial(space, seed, idx, dim):
    rng = np.random.default_rng([seed, idx])
    x, A, t = _old_greedy_pair(dim, rng, idx)
    m = int(rng.integers(0, dim + 1))
    try:
        y, D = gl.padding_set_construction(space, x, A, t, m)
    except PerturbationError:
        return False, None
    moved = (A - frozenset(range(1, m + 1))) | D
    return True, min((abs(y[i]) for i in moved), default=0.0) - \
        t * max((abs(v) for i, v in y.pairs() if i not in moved), default=0.0)


def _old_crude_trial(space, seed, idx, dim):
    rng = np.random.default_rng([seed, idx])
    x = next(iter(random_vectors(dim, 1, rng, style_offset=idx)))
    size = int(rng.integers(1, 9))
    A = frozenset(rng.choice(np.arange(1, dim + 1), size=min(size, dim),
                             replace=False).tolist())
    lhs = space.norm(gl.projection(x, A))
    rhs = gl.projection_crude_bound(space, A) * space.norm(x)
    return lhs <= rhs * (1.0 + 1e-9), rhs - lhs


def _bits(value):
    """value with every float spelled by its bits and every other scalar by its
    type, through vectors and tuples (a TrialDraw too): equal means bit for bit."""
    if isinstance(value, CV):
        return value.support(), tuple([v.hex() for _, v in value.pairs()])
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, tuple):
        return tuple([_bits(v) for v in value])
    return type(value).__name__, value


def _index_array_trial_draws(trials, seed, dim):
    """A copy of trial_draws as it drew crude_A from an index array and t by
    rng.choice over the weakness tuple: the oracle of its rows."""
    rows = []
    for idx in range(trials):
        rng = np.random.default_rng([seed, idx])
        x = next(iter(random_vectors(dim, 1, rng, style_offset=idx)))
        after_x = rng.bit_generator.state
        size = int(rng.integers(1, 9))
        crude_A = rng.choice(np.arange(1, dim + 1), size=min(size, dim), replace=False)
        rng.bit_generator.state = after_x
        t = float(rng.choice((1.0, 0.9, 0.7, 0.5, 0.3)))
        m = int(rng.integers(1, len(x) + 1))
        policy = "lowest" if rng.integers(2) == 0 else "highest"
        A = tuple(sorted(gl.one_greedy_set(x, m, t, policy).indices))
        after_pair = rng.bit_generator.state
        eps_scale = float(rng.uniform(0.01, 1.0))
        tail_len = int(rng.integers(0, 5))
        rng.bit_generator.state = after_pair
        segment = int(rng.integers(0, dim + 1))
        rows.append(perturb.TrialDraw(x, A, t, eps_scale, tail_len, segment,
                                      tuple(sorted(crude_A.tolist()))))
    return rows


class TestTrialDraws:
    """The shared draw table against a reference copy of the per-suite
    drawing, where every suite built its own generator per trial."""

    OLD = {"finite-support perturbation": (gl.lemma_perturbation_suite, _old_lemma_trial),
           "padding-set construction": (gl.padding_suite, _old_padding_trial),
           "crude projection bound": (gl.crude_bound_suite, _old_crude_trial)}

    @pytest.mark.parametrize("dim", [1, 2, 3, 12, 16])
    @pytest.mark.parametrize("seed", [0, 42, 1234])
    def test_suites_equal_the_per_suite_drawing(self, dim, seed):
        draws = gl.trial_draws(60, seed, dim)
        for space in (L_HALF, L_TWO_THIRDS, gl.lp_space(1.0)):
            for lemma, (suite, old_trial) in self.OLD.items():
                old = perturb._suite_report(
                    lemma, space, [old_trial(space, seed, idx, dim) for idx in range(60)],
                    seed)
                assert suite(space, draws) == old, (lemma, space.name)

    @pytest.mark.parametrize("dim", [1, 2, 3, 12, 16, 64])
    @pytest.mark.parametrize("seed", [0, 42, 1234])
    def test_rows_equal_the_index_array_drawing(self, dim, seed):
        rows = gl.trial_draws(60, seed, dim).trials
        assert [_bits(row) for row in rows] == [
            _bits(row) for row in _index_array_trial_draws(60, seed, dim)]

    def test_index_sets_are_sorted_tuples(self):
        for draw in gl.trial_draws(50, 3, 16).trials:
            assert draw.A == tuple(sorted(set(draw.A)))
            assert draw.crude_A == tuple(sorted(set(draw.crude_A)))
            assert gl.is_t_greedy(draw.x, draw.A, draw.t)

    def test_one_generator_per_trial(self, monkeypatch):
        # one per trial for the table, one for the pools both spaces' audits read
        made = []
        original = np.random.default_rng

        def counting(*args, **kwargs):
            made.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(np.random, "default_rng", counting)
        perturb_audit(25, 42, dim=8)
        assert len(made) == 25 + 1


class TestNormReuse:
    """Each trial's |x| is computed once per space and draw table, and the
    constructions hand back the distances they have already computed."""

    def test_each_x_is_normed_once_per_space(self, monkeypatch):
        calls, tables = [], []
        original_norm, original_draws = coeffspace.lp_norm, experiments.trial_draws

        def counting_norm(x, p):
            calls.append((x, p))
            return original_norm(x, p)

        def keeping_draws(*args):
            tables.append(original_draws(*args))
            return tables[-1]

        monkeypatch.setattr(coeffspace, "lp_norm", counting_norm)
        monkeypatch.setattr(experiments, "trial_draws", keeping_draws)
        perturb_audit(25, 42, dim=8)
        # 616 before |x| was shared by the suites and each distance computed once
        assert len(calls) == 440
        xs = {id(d.x): k for k, d in enumerate(tables[0].trials)}
        normed = [(xs[id(x)], p) for x, p in calls if id(x) in xs]
        assert sorted(normed) == sorted((k, p) for p in (0.5, 2.0 / 3.0) for k in range(25))

    @pytest.mark.parametrize("suite", [gl.lemma_perturbation_suite, gl.padding_suite,
                                       gl.crude_bound_suite])
    def test_stored_norms_are_keyed_by_norm_not_name(self, suite):
        # both spaces are named lp:0.666667, but their norms differ in the last bits
        spaces = (gl.lp_space(0.6666666), gl.lp_space(0.66666666))
        assert spaces[0].name == spaces[1].name
        shared = gl.trial_draws(60, 42, 16)
        reports = [suite(space, shared) for space in spaces]
        assert reports == [suite(space, gl.trial_draws(60, 42, 16)) for space in spaces]
        assert len(shared.x_norms) == 2
        assert shared.x_norms[spaces[0].norm] != shared.x_norms[spaces[1].norm]

    @given(st.lists(st.floats(-8.0, 8.0), min_size=1, max_size=10),
           st.integers(1, 10), st.sampled_from([1.0, 0.7, 0.3]),
           st.floats(0.01, 1.0), st.integers(0, 4),
           st.sampled_from([0.5, 2.0 / 3.0, 1.0, 2.0]))
    @settings(max_examples=300, deadline=None)
    def test_perturbed_distance_is_the_norm_bit_for_bit(self, dense, m, t, scale,
                                                        tail_len, p):
        x = CV.from_dense(dense)
        assume(x)
        space = gl.lp_space(p)
        A = gl.one_greedy_set(x, min(m, len(x)) if m < 10 else 0, t).indices
        eps = scale * space.norm(x)
        base, picker = x, (lambda vec, d: vec)
        if tail_len:
            start = x.max_index() + 1
            base = x + CV(range(start, start + tail_len),
                          [1e-4 * eps * 0.5 ** j for j in range(tail_len)])
            picker = lambda vec, d: vec.restrict(range(1, start))
        assume(gl.is_t_greedy(base, A, t))
        try:
            y, dist = perturb._perturbed(space, base, A, t, eps, picker)
        except PerturbationError:
            return
        assert struct.pack("<d", dist) == struct.pack("<d", space.norm(base - y))


class TestEquivalenceAudit:
    def test_banach_entries(self):
        for key in ("lp:1", "lp:2", "sup"):
            space = gl.space_from_key(key, 8)
            rep = gl.equivalence_audit(space, GapSequence.naturals(), 1.0,
                                       gl.audit_draws(8, 40, 41))
            assert rep["satisfied"]
            assert rep["ratio_all"] <= rep["ratio_finite"] + 1e-6

    def test_quasi_norm_amplification(self):
        rep = gl.equivalence_audit(L_TWO_THIRDS, GapSequence.naturals(), 1.0,
                                   gl.audit_draws(8, 40, 43))
        assert rep["amplification"] == pytest.approx(2.0, rel=1e-12)
        assert rep["satisfied"]

    def test_zero_budget_empty_report(self):
        rep = gl.equivalence_audit(L_HALF, GapSequence.naturals(), 1.0,
                                   gl.audit_draws(8, 0, 0))
        assert rep["trials"] == 0 and "ratio_all" not in rep

    @pytest.mark.parametrize("t", [1.0, 0.5, 0.1])
    def test_prefix_sets_are_the_lowest_greedy_sets(self, t):
        # every part the audit norms after a sample x is x projected on
        # one_greedy_set's "lowest" set of that size, bit for bit, and every
        # admissible size of every sample is visited: each size below len(x)
        # as a normed part, len(x) itself as x, whose norm was taken first
        normed = []
        space = dataclasses.replace(
            L_HALF, norm=lambda v: normed.append(v) or L_HALF.norm(v))
        draws = gl.audit_draws(16, 30, 7)
        samples = draws.finite + draws.deep
        gap_terms = (1, 2, 3, 5, 8, 13)
        gl.equivalence_audit(space, GapSequence.explicit(gap_terms), t, draws)
        sample_ids = {id(x) for x in samples}
        parts_by_sample = []
        for v in normed:
            if id(v) in sample_ids:
                parts_by_sample.append((v, []))
            else:
                parts_by_sample[-1][1].append(v)
        assert [x for x, _ in parts_by_sample] == samples
        assert len(parts_by_sample) >= 40
        for x, parts in parts_by_sample:
            for part in parts:
                lowest = gl.one_greedy_set(x, len(part), t, "lowest").indices
                assert _bits(part) == _bits(gl.projection(x, lowest))
            sizes = [len(part) for part in parts] + [len(x)] * (len(x) in gap_terms)
            assert sizes == [m for m in gap_terms if m <= len(x)]


class TestGoldenReport:
    def test_benchmark_size_reports_are_byte_identical(self, tmp_path):
        # the quasi-banach workload's size, recorded before the audit pools were
        # shared by both spaces and the greedy prefixes built in one walk
        assert run_experiment_set("perturb-audit", {"trials": 1000, "dim": 16},
                                  tmp_path, 42) == 0
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                   for name in ("perturb-audit.csv", "perturb-audit.json")}
        assert digests == {
            "perturb-audit.csv":
                "b30137265573fa0fa97d3f7db485db78336ae149b3ff8b48b20b8227986892e9",
            "perturb-audit.json":
                "4308161865125567a84349b6c8af0ae0ee39690f8fb5930d2403f3b391d1f5d5",
        }

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
