"""Quasi-Banach toolkit: finite-support perturbation of greedy sets, the
amplification factor alpha^2 between finite-support and general bounds, and
the padding-set construction that moves a greedy set away from an initial
segment.

Everything here works for any quasi-triangle constant alpha >= 1 and
degrades to the Banach statements when alpha = 1.
"""

from __future__ import annotations

import itertools
import math
import numbers
from bisect import bisect_left, insort
from typing import Callable, Iterable, NamedTuple, Optional

import numpy as np

from .coeffspace import (CoeffVector, GapSequence, SpaceDescriptor, norms, projection,
                         random_vectors)
from .greedy import _check_t, _greedy_order, _index_set, is_t_greedy, one_greedy_set
from .reporting import parallel_map

__all__ = [
    "PerturbationError",
    "projection_crude_bound",
    "perturb_to_finite_support",
    "padding_set_construction",
    "equivalence_audit",
    "lemma_perturbation_suite",
    "padding_suite",
    "crude_bound_suite",
    "trial_draws",
    "audit_draws",
]

NORM_CHUNK = 512  # at most this many vectors are built and normed in one call


def _sign(v: float) -> float:
    # sign(0) := 1 keeps the construction total
    return -1.0 if v < 0.0 else 1.0


class PerturbationError(ValueError):
    """A revalidation inequality failed; the message carries which one."""


def projection_crude_bound(space: SpaceDescriptor, A: Iterable[int]) -> float:
    """alpha^(|A|-1) * |A| * c: valid for every projection in the space."""
    size = len(_index_set(A))  # the empty set gives 0.0, as alpha >= 1
    return space.alpha ** (size - 1) * size * space.c_param


def _delta(space: SpaceDescriptor, eps: float, size: int) -> float:
    """eps / (4 c^2 alpha^size size): the picker budget for a set of that size."""
    c = space.c_param
    return eps / (4.0 * c * c * space.alpha ** size * size)


def perturb_to_finite_support(space: SpaceDescriptor, x: CoeffVector,
                              A: Iterable[int], t: float, eps: float,
                              z_picker: Optional[Callable[[CoeffVector, float],
                                                          CoeffVector]] = None
                              ) -> CoeffVector:
    """Replace x by a finitely supported y with |x - y| <= eps while keeping
    A a t-greedy set.

    With delta = eps / (4 c^2 alpha^|A| |A|), the picker supplies a finite
    z within delta of x and y adds 2 c delta in the sign direction of every
    A-coefficient.  The two coefficient estimates behind the construction
    (A-coefficients >= beta + c delta, others <= (beta + c delta)/t) are
    revalidated together with the distance and greediness, and any failure
    raises with the violated inequality.
    """
    A_set = _index_set(A)
    if not 0.0 < eps < math.inf:
        raise ValueError(f"eps must be positive and finite, got {eps}")
    if not is_t_greedy(x, A_set, t):
        raise ValueError("A is not a t-greedy set for x")
    picker = z_picker if z_picker is not None else (lambda vec, d: vec)
    return _perturbed(space, x, A_set, t, eps, picker)[0]


def _perturbed(space: SpaceDescriptor, x: CoeffVector, A_set: frozenset, t: float,
               eps: float, picker: Callable[[CoeffVector, float], CoeffVector]
               ) -> tuple[CoeffVector, float]:
    """perturb_to_finite_support's construction and checks, for valid input
    (eps > 0, A_set t-greedy for x): the perturbed y and its distance |x - y|."""
    if not A_set:
        # degenerate branch: nothing to protect, any close finite z works
        z = picker(x, eps)
        dist = 0.0 if z is x else space.norm(x - z)
        if dist > eps + 1e-12:
            raise PerturbationError("picker violated |x - z| <= eps")
        return z, dist

    c = space.c_param
    delta = _delta(space, eps, len(A_set))
    z = picker(x, delta)
    dist_z = 0.0 if z is x else space.norm(x - z)
    if dist_z > delta * (1.0 + 1e-9):
        raise PerturbationError(f"picker violated |x - z| <= delta: {dist_z} > {delta}")

    kept = sorted(A_set)
    x_at = dict(x.pairs())
    x_kept = [x_at.get(i, 0.0) for i in kept]
    y = z + CoeffVector(kept, [2.0 * c * delta * _sign(v) for v in x_kept])

    beta = min(map(abs, x_kept))
    floor = beta + c * delta
    ceiling = (beta + c * delta) / t
    scale = max(1.0, abs(floor))
    y_at = dict(y.pairs())
    for i in A_set:
        v = y_at.get(i, 0.0)
        if abs(v) < floor - 1e-12 * scale:
            raise PerturbationError(
                f"kept coefficient dropped below beta + c*delta at index {i}: "
                f"|{v}| < {floor}")
    for i, v in y_at.items():
        if i not in A_set and abs(v) > ceiling + 1e-12 * max(1.0, ceiling):
            raise PerturbationError(
                f"discarded coefficient exceeded (beta + c*delta)/t at index {i}: "
                f"|{v}| > {ceiling}")
    dist = space.norm(x - y)
    if dist > eps * (1.0 + 1e-9):
        raise PerturbationError(f"|x - y| = {dist} exceeds eps = {eps}")
    if not is_t_greedy(y, A_set, t):
        raise PerturbationError("A is not a t-greedy set for the perturbed vector")
    return y, dist


def padding_set_construction(space: SpaceDescriptor, x: CoeffVector,
                             A: Iterable[int], t: float, m: int
                             ) -> tuple[CoeffVector, frozenset]:
    """Move a t-greedy set off the initial segment B = {1..m}.

    Zeroes the first m coordinates and plants |A intersect B| fresh spikes of
    height 2 c |x| beyond everything; (A minus B) union D is then a t-greedy
    set for the result, of the same cardinality as A.  The three inequality
    families behind that claim are checked numerically, and a failure raises
    with the offending index pair.
    """
    if not x:
        raise ValueError("x must be nonzero")
    # bool is an int subclass, but True is no segment length
    if isinstance(m, bool) or not isinstance(m, numbers.Integral):
        raise ValueError(f"segment length m must be an integer, got {m!r}")
    if m < 0:
        raise ValueError(f"segment length m must be nonnegative, got {m}")
    return _padded(space, x, space.norm(x), _index_set(A), t, m)


def _padded(space: SpaceDescriptor, x: CoeffVector, norm_x: float, A_set: frozenset,
            t: float, m: int) -> tuple[CoeffVector, frozenset]:
    """padding_set_construction for a nonzero x, given its norm, and m >= 0."""
    if not is_t_greedy(x, A_set, t):
        raise ValueError("A is not a t-greedy set for x")
    B = frozenset(range(1, m + 1))
    y = x - projection(x, range(1, m + 1))  # a range takes two bisections
    if y and y.support()[0] <= m:
        raise PerturbationError(f"segment coefficient not cleared at j={y.support()[0]}")
    overlap = A_set & B

    if not overlap:
        if not is_t_greedy(y, A_set, t):
            raise PerturbationError("A lost t-greediness after removing the segment")
        return y, frozenset()

    top = max((x.max_index(), max(A_set), m))
    D = frozenset(range(top + 1, top + 1 + len(overlap)))
    height = 2.0 * space.c_param * norm_x
    y = y + CoeffVector.indicator(D, height)
    moved = (A_set - B) | D

    # D dominates everything left in y
    outside_max = max((abs(v) for i, v in y.pairs() if i not in D), default=0.0)
    if outside_max > height + 1e-12 * height:
        bad = max((i for i, v in y.pairs() if i not in D), key=lambda i: abs(y[i]))
        raise PerturbationError(
            f"padded spikes fail to dominate: |y_{bad}| = {outside_max} > {height}")
    # retained A-coefficients still dominate untouched ones at level t; the
    # bound a/t + 1e-12 max(1, a/t) grows with a, so the smallest one decides
    retained = A_set - B
    if retained:
        y_at = dict(y.pairs())
        i = min(retained, key=lambda k: abs(y_at.get(k, 0.0)))
        lim = abs(y_at.get(i, 0.0)) / t
        lim += 1e-12 * max(1.0, lim)
        for j, v in y.pairs():
            if abs(v) > lim and j not in moved and j not in B:
                raise PerturbationError(
                    f"retained coefficient lost dominance: pair (i={i}, j={j})")

    if len(moved) != len(A_set):
        raise PerturbationError(
            f"cardinality drift: |(A-B) u D| = {len(moved)} != |A| = {len(A_set)}")
    if not is_t_greedy(y, moved, t):
        raise PerturbationError("(A - B) union D is not t-greedy for y")
    return y, D


# ---------------------------------------------------------------------------
# Randomized suites
# ---------------------------------------------------------------------------


class TrialDraw(NamedTuple):
    """One trial's random inputs; the suites read them, under every space."""
    x: CoeffVector
    A: tuple[int, ...]  # sorted t-greedy set of x
    t: float
    eps_scale: float  # perturbation: eps = eps_scale * max(|x|, 1e-6)
    tail_len: int  # perturbation: length of the truncated tail
    segment: int  # padding: length m of the initial segment
    crude_A: tuple[int, ...]  # crude bound: sorted projection set


class TrialTable(NamedTuple):
    """The trials as dense rows, column k holding index k + 1: wide enough for
    every x, its perturbation tail and its set A."""
    x: np.ndarray  # x's coefficients
    in_A: np.ndarray  # bool: the set A
    size: np.ndarray  # |A|
    top: np.ndarray  # x's largest index; a perturbation tail starts after it
    t: np.ndarray
    eps_scale: np.ndarray
    tail_len: np.ndarray
    segment: np.ndarray


def _trial_table(trials: list[TrialDraw]) -> TrialTable:
    """The dense table of the trials, scattered from flat lists in one call per array."""
    n, flat = len(trials), itertools.chain.from_iterable
    top = [d.x.max_index() for d in trials]
    tail_len = [d.tail_len for d in trials]
    width = max([0] + [k + max(L, 0) for k, L in zip(top, tail_len)]
                + [max(d.A) for d in trials if d.A])
    x, in_A = np.zeros((n, width)), np.zeros((n, width), dtype=bool)
    rows = np.arange(n)
    x[np.repeat(rows, [len(d.x) for d in trials]),
      np.fromiter(flat(d.x.support() for d in trials), np.intp) - 1] = np.fromiter(
        flat(d.x.values() for d in trials), np.float64)
    size = np.array([len(d.A) for d in trials], dtype=np.intp)
    in_A[np.repeat(rows, size), np.fromiter(flat(d.A for d in trials), np.intp) - 1] = True
    return TrialTable(x, in_A, size, np.array(top, dtype=np.intp),
                      np.array([d.t for d in trials], dtype=np.float64),
                      np.array([d.eps_scale for d in trials], dtype=np.float64),
                      np.array(tail_len, dtype=np.intp),
                      np.array([d.segment for d in trials], dtype=np.intp))


class TrialDraws:
    """The trials of every suite, with what the suites compute from them once."""

    def __init__(self, seed: int, trials: list[TrialDraw]):
        self.seed, self.trials = seed, trials
        # |x| of every trial under a space's norm, keyed by that norm callable
        # (two lp spaces can share a name), filled by the first suite to ask
        self.x_norms: dict[Callable[[CoeffVector], float], list[float]] = {}
        self._table: Optional[TrialTable] = None

    @property
    def table(self) -> TrialTable:
        """The trials as one dense table, built by the first suite to ask."""
        if self._table is None:
            self._table = _trial_table(self.trials)
        return self._table


def _x_norms(space: SpaceDescriptor, draws: TrialDraws) -> list[float]:
    """Every trial's |x| under the space, computed once per draw table."""
    values = draws.x_norms.get(space.norm)
    if values is None:
        values = draws.x_norms[space.norm] = norms(space, [d.x for d in draws.trials])
    return values


_WEAKNESS = (1.0, 0.9, 0.7, 0.5, 0.3)  # a trial's t, drawn uniformly


def trial_draws(trials: int, seed: int, dim: int) -> TrialDraws:
    """The random inputs of every suite trial, drawn once per trial.

    Trial idx uses one generator, ``default_rng([seed, idx])``, so an outcome
    does not depend on the order trials run in.  After x, the crude-bound
    suite's draws continue the stream; after x and its greedy pair (t, A),
    the perturbation suite's draws continue it, and so do the padding
    suite's: the generator state is saved and restored between them.
    """
    rows = []
    for idx in range(trials):
        rng = np.random.default_rng([seed, idx])
        x = next(iter(random_vectors(dim, 1, rng, style_offset=idx)))
        after_x = rng.bit_generator.state
        size = int(rng.integers(1, 9))
        crude_A = rng.choice(dim, size=min(size, dim), replace=False) + 1
        rng.bit_generator.state = after_x
        t = _WEAKNESS[int(rng.integers(5))]
        m = int(rng.integers(1, len(x) + 1))
        policy = "lowest" if rng.integers(2) == 0 else "highest"
        A = tuple(sorted(one_greedy_set(x, m, t, policy).indices))
        after_pair = rng.bit_generator.state
        eps_scale = float(rng.uniform(0.01, 1.0))
        tail_len = int(rng.integers(0, 5))
        rng.bit_generator.state = after_pair
        segment = int(rng.integers(0, dim + 1))
        rows.append(TrialDraw(x, A, t, eps_scale, tail_len, segment,
                              tuple(sorted(crude_A.tolist()))))
    return TrialDraws(seed, rows)


def _suite_report(lemma: str, space: SpaceDescriptor, outcomes, seed: int) -> dict:
    failures = sum(1 for ok, _ in outcomes if not ok)
    margins = [m for _, m in outcomes if m is not None]
    return {"lemma": lemma, "space": space.name, "trials": len(outcomes),
            "failures": failures,
            "worst_margin": float(min(margins)) if margins else None,
            "seed": seed}


# Array passes over a chunk of table rows.  Each evaluates, row by row, the
# inequalities that _perturbed or _padded check, with the same float
# operations in the same order, so outcomes and margins are theirs bit for bit.


def _row_min(a: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Each row's smallest a over the mask; inf where the mask is empty."""
    return np.min(a, axis=1, where=mask, initial=np.inf)


def _row_max(a: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Each row's largest a (a modulus) over the mask; 0.0 where the mask is empty."""
    return np.max(a, axis=1, where=mask, initial=0.0)


def _greedy(inside_min: np.ndarray, outside_max: np.ndarray, t: np.ndarray) -> np.ndarray:
    """is_t_greedy's test, given the inside minimum (0.0 for a member off the
    support) and the outside maximum of each row."""
    return (outside_max == 0.0) | (inside_min >= t * outside_max)


def _powers(base: float, exponents: np.ndarray) -> np.ndarray:
    """base ** k for each k, taken from Python floats as the per-row code does."""
    ks, at = np.unique(exponents, return_inverse=True)
    return np.array([base ** k for k in ks.tolist()])[at]


def _row_vectors(rows: np.ndarray) -> list[CoeffVector]:
    """Each row's nonzero entries, in index order, as a canonical vector."""
    nonzero = rows != 0.0
    at, col = np.nonzero(nonzero)
    idx, val = (col + 1).tolist(), rows[at, col].tolist()
    out, lo = [], 0
    for hi in np.cumsum(nonzero.sum(axis=1)).tolist():
        out.append(CoeffVector._canonical(tuple(idx[lo:hi]), tuple(val[lo:hi])))
        lo = hi
    return out


_NOT_GREEDY, _NOT_FINITE = "A is not a t-greedy set for x", "coefficients must be finite"


def _t_in_range(t: np.ndarray) -> np.ndarray:
    return (0.0 < t) & (t <= 1.0)


def _raise_first(t: np.ndarray, errors: list[tuple[np.ndarray, str]]) -> None:
    """Raise the ValueError of the first row that a per-row run would stop
    at: a t outside (0, 1], or the first of the errors (mask, message) to
    hold there."""
    wrong = np.flatnonzero(~_t_in_range(t) | np.logical_or.reduce([m for m, _ in errors]))
    if wrong.size:
        k = wrong[0]
        _check_t(float(t[k]))
        raise ValueError(next(message for mask, message in errors if mask[k]))


def _perturbation_rows(space: SpaceDescriptor, tab: TrialTable, rows: slice,
                       norm_x: np.ndarray) -> list[tuple[bool, Optional[float]]]:
    """lemma_perturbation_suite's trials over table rows: the tail truncated by
    the picker, then _perturbed's checks, distances normed in two batches."""
    c, alpha = space.c_param, space.alpha
    x, in_A, size, t = tab.x[rows], tab.in_A[rows], tab.size[rows], tab.t[rows]
    tail_len, top = tab.tail_len[rows], tab.top[rows]
    has_A = size > 0
    eps = tab.eps_scale[rows] * np.maximum(norm_x, 1e-6)
    delta = eps.copy()  # _delta's budget, or eps where A is empty
    np.divide(eps, 4.0 * c * c * _powers(alpha, size) * size, out=delta, where=has_A)

    # the tail: tail_scale * 0.5^j at top + 1 + j, after x's last index
    beta_x = np.where(has_A, _row_min(np.abs(x), in_A), 1.0)
    tail_scale = 0.25 * np.minimum(delta / (_powers(alpha, tail_len) * tail_len + 1),
                                   t * beta_x)
    at, j = np.nonzero(np.arange(max(tail_len.max(initial=0), 0)) < tail_len[:, None])
    tail = np.zeros_like(x)
    tail[at, top[at] + j] = tail_scale[at] * 0.5 ** j
    base = x + tail
    a_base = np.abs(base)
    beta = _row_min(a_base, in_A)  # the smallest |base_i| on A
    active = _t_in_range(t) & _greedy(beta, _row_max(a_base, ~in_A), t)
    del a_base  # temporaries are freed as soon as they are read: a chunk holds few

    # |base - z|: the picker keeps base up to x's last index, so the tail is cut
    cut = active & (tail != 0.0).any(axis=1)
    dist_z = np.zeros(len(t))
    dist_z[cut] = norms(space, _row_vectors(tail[cut]))
    del tail
    picked = ~(dist_z > np.where(has_A, delta * (1.0 + 1e-9), eps + 1e-12))

    # y = z + 2 c delta sign(base_i) on A, where z is x, built in place: a
    # product and a sum of two floats do not depend on their order
    live = active & has_A & picked
    y = np.where(base < 0.0, -1.0, 1.0)
    y *= (2.0 * c * delta)[:, None]
    y[~in_A] = 0.0
    y += x
    not_finite = live & ~np.isfinite(y).all(axis=1)
    _raise_first(t, [(not_finite, _NOT_FINITE)])
    floor = beta + c * delta
    ceiling = (beta + c * delta) / t
    scale = np.maximum(1.0, np.abs(floor))
    gap = np.subtract(base, y, out=base)  # base - y; base is not read again
    a_y = np.abs(y, out=y)
    y_in, y_out = _row_min(a_y, in_A), _row_max(a_y, ~in_A)
    live &= ~(y_in < floor - 1e-12 * scale)
    live &= ~(y_out > ceiling + 1e-12 * np.maximum(1.0, ceiling))
    dist = dist_z.copy()
    dist[live] = norms(space, _row_vectors(gap[live]))
    live &= ~(dist > eps * (1.0 + 1e-9)) & _greedy(y_in, y_out, t)

    ok = np.where(has_A, live, active & picked)
    return [(True, None) if not on else (True, m) if good else (False, None)
            for on, good, m in zip(active.tolist(), ok.tolist(), (eps - dist).tolist())]


def _padding_rows(space: SpaceDescriptor, tab: TrialTable, rows: slice,
                  norm_x: np.ndarray) -> list[tuple[bool, Optional[float]]]:
    """padding_suite's trials over table rows: _padded's checks, with the
    |A n B| spikes of height 2 c |x| kept as one number per row."""
    x, in_A, size, t, m = (tab.x[rows], tab.in_A[rows], tab.size[rows], tab.t[rows],
                           tab.segment[rows])
    a_x = np.abs(x)
    greedy_x = _greedy(_row_min(a_x, in_A), _row_max(a_x, ~in_A), t)
    del a_x
    in_B = np.arange(x.shape[1]) < m[:, None]
    y = x - np.where(in_B, x, 0.0)
    cleared = ~(in_B & (y != 0.0)).any(axis=1)
    a_y = np.abs(y, out=y)
    spikes = (in_A & in_B).sum(axis=1)
    height = 2.0 * space.c_param * norm_x
    padded = greedy_x & cleared & (spikes > 0)
    _raise_first(t, [(~greedy_x, _NOT_GREEDY), (padded & ~np.isfinite(height), _NOT_FINITE)])

    moved = in_A & ~in_B  # with the spikes: (A - B) u D
    retained_min, outside_max = _row_min(a_y, moved), _row_max(a_y, ~moved)
    dominated = ~(a_y.max(axis=1, initial=0.0) > height + 1e-12 * height)
    lim = retained_min / t
    lim += 1e-12 * np.maximum(1.0, lim)
    dominant = ~(moved.any(axis=1) & (_row_max(a_y, ~in_A & ~in_B) > lim))
    same_size = moved.sum(axis=1) + spikes == size
    inside_min = np.where(padded, np.minimum(retained_min, height), retained_min)
    ok = cleared & (~padded | (dominated & dominant & same_size)) \
        & _greedy(inside_min, outside_max, t)
    margin = np.where(inside_min < np.inf, inside_min, 0.0) - t * outside_max
    return [(True, v) if good else (False, None)
            for good, v in zip(ok.tolist(), margin.tolist())]


def _suite_rows(pass_rows, space: SpaceDescriptor, draws: TrialDraws) -> list:
    """A row pass over the draw table in chunks of NORM_CHUNK trials."""
    table, norm_x = draws.table, np.array(_x_norms(space, draws))
    outcomes = []
    with np.errstate(all="ignore"):  # rows with a non-finite entry raise or fail
        for lo in range(0, len(norm_x), NORM_CHUNK):
            outcomes += pass_rows(space, table, slice(lo, lo + NORM_CHUNK),
                                  norm_x[lo:lo + NORM_CHUNK])
    return outcomes


def lemma_perturbation_suite(space: SpaceDescriptor, draws: TrialDraws) -> dict:
    """Randomized perturbation trials with a tail-truncating picker: each
    trial's x carries extra decaying mass, the stand-in for an infinite
    tail, that the picker truncates back off.  An array pass over the draw
    table; its outcomes are _perturbed's, trial by trial."""
    outcomes = _suite_rows(_perturbation_rows, space, draws)
    return _suite_report("finite-support perturbation", space, outcomes, draws.seed)


def padding_suite(space: SpaceDescriptor, draws: TrialDraws) -> dict:
    """Randomized padding-set trials: an array pass over the draw table whose
    outcomes are _padded's, trial by trial."""
    outcomes = _suite_rows(_padding_rows, space, draws)
    return _suite_report("padding-set construction", space, outcomes, draws.seed)


def crude_bound_suite(space: SpaceDescriptor, draws: TrialDraws) -> dict:
    norm_xs = _x_norms(space, draws)
    lhs = []  # |P_A x|: the projections of NORM_CHUNK trials normed in one call
    for lo in range(0, len(norm_xs), NORM_CHUNK):
        chunk = draws.trials[lo:lo + NORM_CHUNK]
        parts = [projection(d.x, d.crude_A) for d in chunk]
        fresh = iter(norms(space, [part for part, d in zip(parts, chunk) if part is not d.x]))
        lhs += [nx if part is d.x else next(fresh)
                for part, d, nx in zip(parts, chunk, norm_xs[lo:])]

    def trial(item):
        draw, norm_x, norm_part = item
        rhs = projection_crude_bound(space, draw.crude_A) * norm_x
        return norm_part <= rhs * (1.0 + 1e-9), rhs - norm_part

    outcomes = parallel_map(trial, zip(draws.trials, norm_xs, lhs))
    return _suite_report("crude projection bound", space, outcomes, draws.seed)


class AuditDraws(NamedTuple):
    """The equivalence audit's samples; only their norms depend on the space."""
    dim: int
    seed: int
    finite: list[CoeffVector]  # supported in [1, dim]
    deep: list[CoeffVector]  # with geometric tails out to 4*dim


def audit_draws(dim: int, budget: int, seed: int) -> AuditDraws:
    """The audit's pools from one ``default_rng(seed)``: e_1, the all-ones vector and
    budget samples, then budget samples given tails; a budget below 1 draws none."""
    if budget <= 0:
        return AuditDraws(dim, seed, [], [])
    rng = np.random.default_rng(seed)
    finite = [CoeffVector.basis_vector(1), CoeffVector.from_dense([1.0] * dim)]
    finite += random_vectors(dim, budget, rng)
    deep = []
    for x in random_vectors(dim, budget, rng):
        level = float(rng.uniform(0.1, 1.0))
        deep.append(x + CoeffVector(range(dim + 1, 4 * dim + 1),
                                    [0.5 ** k * level for k in range(1, 3 * dim + 1)]))
    return AuditDraws(dim, seed, finite, deep)


def equivalence_audit(space: SpaceDescriptor, gap: GapSequence, t: float,
                      draws: AuditDraws) -> dict:
    """Compare the best projection ratio over vectors supported in [1, dim]
    against samples with geometric tails out to 4*dim (the desk-scale stand-in
    for unrestricted support), and check the alpha^2 amplification bound.
    """
    _check_t(t)
    if not draws.deep:
        return {"lemma": "finite-support amplification", "space": space.name,
                "trials": 0, "seed": draws.seed}
    sizes = gap.admissible_sizes(draws.dim)

    def with_prefixes(x: CoeffVector) -> list[CoeffVector]:
        # x, then one walk over its greedy order: the first m indices, kept sorted,
        # are the "lowest" greedy set of size m for any t; the whole support is x
        group, at, order, kept = [x], dict(x.pairs()), _greedy_order(x), []
        for m in sizes[:bisect_left(sizes, len(x))]:
            for _, i in order[len(kept):m]:
                insort(kept, i)
            group.append(CoeffVector._canonical(tuple(kept), tuple([at[i] for i in kept])))
        return group

    def best_ratio(samples) -> float:
        best, step = 0.0, max(1, NORM_CHUNK // (len(sizes) + 1))  # samples per call
        for lo in range(0, len(samples), step):
            chunk = [with_prefixes(x) for x in samples[lo:lo + step]]
            values = iter(norms(space, [v for group in chunk for v in group]))
            for x, *parts in chunk:
                nx, part_norms = next(values), [next(values) for _ in parts]
                if nx > 0.0:  # x itself, at an admissible size, has ratio 1
                    best = max([best, *[n / nx for n in part_norms]]
                               + [1.0] * (len(x) in sizes))
        return best

    ratio_finite = best_ratio(draws.finite)
    ratio_all = best_ratio(draws.deep)
    bound = space.alpha ** 2 * ratio_finite + 1e-6
    return {"lemma": "finite-support amplification", "space": space.name,
            "trials": 2 * len(draws.deep), "ratio_finite": float(ratio_finite),
            "ratio_all": float(ratio_all), "amplification": float(space.alpha ** 2),
            "satisfied": bool(ratio_all <= bound),
            "tail_depth": 4 * draws.dim, "seed": draws.seed}
