"""Quasi-Banach toolkit: finite-support perturbation of greedy sets, the
amplification factor alpha^2 between finite-support and general bounds, and
the padding-set construction that moves a greedy set away from an initial
segment.

Everything here works for any quasi-triangle constant alpha >= 1 and
degrades to the Banach statements when alpha = 1.
"""

from __future__ import annotations

from typing import Callable, Iterable, NamedTuple, Optional

import numpy as np

from .coeffspace import (CoeffVector, GapSequence, SpaceDescriptor, projection,
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
]


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
    if eps <= 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
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
    if m < 0:
        raise ValueError(f"segment length must be nonnegative, got {m}")
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


class TrialDraws(NamedTuple):
    seed: int
    trials: list[TrialDraw]
    # |x| of every trial under a space's norm, keyed by that norm callable
    # (two lp spaces can share a name), filled by the first suite to ask
    x_norms: dict[Callable[[CoeffVector], float], list[float]]


def _x_norms(space: SpaceDescriptor, draws: TrialDraws) -> list[float]:
    """Every trial's |x| under the space, computed once per draw table."""
    norms = draws.x_norms.get(space.norm)
    if norms is None:
        norms = draws.x_norms[space.norm] = [space.norm(d.x) for d in draws.trials]
    return norms


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
        crude_A = rng.choice(np.arange(1, dim + 1), size=min(size, dim), replace=False)
        rng.bit_generator.state = after_x
        t = float(rng.choice((1.0, 0.9, 0.7, 0.5, 0.3)))
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
    return TrialDraws(seed, rows, {})


def _suite_report(lemma: str, space: SpaceDescriptor, outcomes, seed: int) -> dict:
    failures = sum(1 for ok, _ in outcomes if not ok)
    margins = [m for _, m in outcomes if m is not None]
    return {"lemma": lemma, "space": space.name, "trials": len(outcomes),
            "failures": failures,
            "worst_margin": float(min(margins)) if margins else None,
            "seed": seed}


def lemma_perturbation_suite(space: SpaceDescriptor, draws: TrialDraws) -> dict:
    """Randomized perturbation trials with a tail-truncating picker."""

    def trial(item):
        draw, norm_x = item
        x, A, t, tail_len = draw.x, draw.A, draw.t, draw.tail_len
        eps = draw.eps_scale * max(norm_x, 1e-6)
        # stand-in for an infinite tail: x carries extra decaying mass that the
        # picker truncates back off
        base = x
        picker = lambda vec, d: vec
        if tail_len:
            start = x.max_index() + 1
            delta = _delta(space, eps, len(A)) if A else eps
            beta = min((abs(x[i]) for i in A), default=1.0)
            # keep the tail below both the picker budget and the greedy slack
            tail_scale = 0.25 * min(delta / (space.alpha ** tail_len * tail_len + 1),
                                    t * beta)
            tail = CoeffVector(range(start, start + tail_len),
                               [tail_scale * 0.5 ** j for j in range(tail_len)])
            base = x + tail
            picker = lambda vec, d, _cut=start: vec.restrict(range(1, _cut))
        A_set = frozenset(A)
        if not is_t_greedy(base, A_set, t):
            return True, None
        try:
            _, dist = _perturbed(space, base, A_set, t, eps, picker)
        except PerturbationError:
            return False, None
        return True, eps - dist

    outcomes = parallel_map(trial, zip(draws.trials, _x_norms(space, draws)))
    return _suite_report("finite-support perturbation", space, outcomes, draws.seed)


def padding_suite(space: SpaceDescriptor, draws: TrialDraws) -> dict:
    def trial(item):
        draw, norm_x = item
        x, A, t, m = draw.x, draw.A, draw.t, draw.segment
        try:
            y, D = _padded(space, x, norm_x, frozenset(A), t, m)
        except PerturbationError:
            return False, None
        moved = frozenset([i for i in A if i > m]) | D
        margin = min((abs(y[i]) for i in moved), default=0.0) - \
            t * max((abs(v) for i, v in y.pairs() if i not in moved), default=0.0)
        return True, margin

    outcomes = parallel_map(trial, zip(draws.trials, _x_norms(space, draws)))
    return _suite_report("padding-set construction", space, outcomes, draws.seed)


def crude_bound_suite(space: SpaceDescriptor, draws: TrialDraws) -> dict:
    def trial(item):
        draw, norm_x = item
        x, A = draw.x, draw.crude_A
        part = projection(x, A)
        lhs = norm_x if part is x else space.norm(part)
        rhs = projection_crude_bound(space, A) * norm_x
        return lhs <= rhs * (1.0 + 1e-9), rhs - lhs

    outcomes = parallel_map(trial, zip(draws.trials, _x_norms(space, draws)))
    return _suite_report("crude projection bound", space, outcomes, draws.seed)


def equivalence_audit(space: SpaceDescriptor, gap: GapSequence, t: float,
                      dim: int, budget: int, seed: int = 0) -> dict:
    """Compare the best projection ratio over vectors supported in [1, dim]
    against samples with geometric tails out to 4*dim (the desk-scale stand-in
    for unrestricted support), and check the alpha^2 amplification bound.
    """
    _check_t(t)
    if budget <= 0:
        return {"lemma": "finite-support amplification", "space": space.name,
                "trials": 0, "seed": seed}
    rng = np.random.default_rng(seed)
    sizes = gap.admissible_sizes(dim)

    def best_ratio(samples) -> float:
        best = 0.0
        for x in samples:
            nx = space.norm(x)
            if nx <= 0.0:
                continue
            # one sort per vector: its "lowest" greedy sets, for any t, are prefixes;
            # the whole support projects to x itself, whose norm is nx
            order = [i for _, i in _greedy_order(x)]
            parts = [projection(x, order[:m]) for m in sizes if m <= len(x)]
            best = max([best] + [(nx if p is x else space.norm(p)) / nx for p in parts])
        return best

    finite_pool = [CoeffVector.basis_vector(1), CoeffVector.from_dense([1.0] * dim)]
    finite_pool += list(random_vectors(dim, budget, rng))
    deep_pool = []
    for x in random_vectors(dim, budget, rng):
        level = float(rng.uniform(0.1, 1.0))
        tail = CoeffVector(range(dim + 1, 4 * dim + 1),
                           [0.5 ** k * level for k in range(1, 3 * dim + 1)])
        deep_pool.append(x + tail)

    ratio_finite = best_ratio(finite_pool)
    ratio_all = best_ratio(deep_pool)
    bound = space.alpha ** 2 * ratio_finite + 1e-6
    return {"lemma": "finite-support amplification", "space": space.name,
            "trials": 2 * budget, "ratio_finite": float(ratio_finite),
            "ratio_all": float(ratio_all), "amplification": float(space.alpha ** 2),
            "satisfied": bool(ratio_all <= bound),
            "tail_depth": 4 * dim, "seed": seed}
