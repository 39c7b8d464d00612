"""Quasi-Banach toolkit: finite-support perturbation of greedy sets, the
amplification factor alpha^2 between finite-support and general bounds, and
the padding-set construction that moves a greedy set away from an initial
segment.

Everything here works for any quasi-triangle constant alpha >= 1 and
degrades to the Banach statements when alpha = 1.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

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

    if not A_set:
        # degenerate branch: nothing to protect, any close finite z works
        z = picker(x, eps)
        if space.norm(x - z) > eps + 1e-12:
            raise PerturbationError("picker violated |x - z| <= eps")
        return z

    c = space.c_param
    delta = _delta(space, eps, len(A_set))
    z = picker(x, delta)
    dist_z = space.norm(x - z)
    if dist_z > delta * (1.0 + 1e-9):
        raise PerturbationError(f"picker violated |x - z| <= delta: {dist_z} > {delta}")

    bump = CoeffVector(sorted(A_set), [2.0 * c * delta * _sign(x[i]) for i in sorted(A_set)])
    y = z + bump

    beta = min(abs(x[i]) for i in A_set)
    floor = beta + c * delta
    ceiling = (beta + c * delta) / t
    scale = max(1.0, abs(floor))
    for i in A_set:
        if abs(y[i]) < floor - 1e-12 * scale:
            raise PerturbationError(
                f"kept coefficient dropped below beta + c*delta at index {i}: "
                f"|{y[i]}| < {floor}")
    for i, v in y.pairs():
        if i not in A_set and abs(v) > ceiling + 1e-12 * max(1.0, ceiling):
            raise PerturbationError(
                f"discarded coefficient exceeded (beta + c*delta)/t at index {i}: "
                f"|{v}| > {ceiling}")
    dist = space.norm(x - y)
    if dist > eps * (1.0 + 1e-9):
        raise PerturbationError(f"|x - y| = {dist} exceeds eps = {eps}")
    if not is_t_greedy(y, A_set, t):
        raise PerturbationError("A is not a t-greedy set for the perturbed vector")
    return y


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
    A_set = _index_set(A)
    if not is_t_greedy(x, A_set, t):
        raise ValueError("A is not a t-greedy set for x")
    B = frozenset(range(1, m + 1))
    y = x - projection(x, B)
    if y and y.support()[0] <= m:
        raise PerturbationError(f"segment coefficient not cleared at j={y.support()[0]}")
    overlap = A_set & B

    if not overlap:
        if not is_t_greedy(y, A_set, t):
            raise PerturbationError("A lost t-greediness after removing the segment")
        return y, frozenset()

    top = max((x.max_index(), max(A_set), m))
    D = frozenset(range(top + 1, top + 1 + len(overlap)))
    height = 2.0 * space.c_param * space.norm(x)
    y = y + CoeffVector.indicator(D, height)
    moved = (A_set - B) | D

    # D dominates everything left in y
    outside_max = max((abs(v) for i, v in y.pairs() if i not in D), default=0.0)
    if outside_max > height + 1e-12 * height:
        bad = max((i for i, v in y.pairs() if i not in D), key=lambda i: abs(y[i]))
        raise PerturbationError(
            f"padded spikes fail to dominate: |y_{bad}| = {outside_max} > {height}")
    # retained A-coefficients still dominate untouched ones at level t
    for i in A_set - B:
        for j, v in y.pairs():
            if j in moved or j in B:
                continue
            if abs(v) > abs(y[i]) / t + 1e-12 * max(1.0, abs(y[i]) / t):
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


def _random_greedy_pair(dim: int, rng: np.random.Generator,
                        style: int) -> tuple[CoeffVector, frozenset, float]:
    x = next(iter(random_vectors(dim, 1, rng, style_offset=style)))
    t = float(rng.choice((1.0, 0.9, 0.7, 0.5, 0.3)))
    m = int(rng.integers(1, len(x) + 1))
    policy = "lowest" if rng.integers(2) == 0 else "highest"
    sel = one_greedy_set(x, m, t, policy)
    return x, sel.indices, t


def _suite_report(lemma: str, space: SpaceDescriptor, outcomes, seed: int) -> dict:
    failures = sum(1 for ok, _ in outcomes if not ok)
    margins = [m for _, m in outcomes if m is not None]
    return {"lemma": lemma, "space": space.name, "trials": len(outcomes),
            "failures": failures,
            "worst_margin": float(min(margins)) if margins else None,
            "seed": seed}


def lemma_perturbation_suite(space: SpaceDescriptor, trials: int, seed: int = 0,
                             dim: int = 16) -> dict:
    """Randomized perturbation trials with a tail-truncating picker.

    Each trial derives its own generator from the master seed and its index,
    so the outcome does not depend on the order trials run in.
    """

    def trial(idx: int):
        rng = np.random.default_rng([seed, idx])
        x, A, t = _random_greedy_pair(dim, rng, style=idx)
        eps = float(rng.uniform(0.01, 1.0)) * max(space.norm(x), 1e-6)
        # stand-in for an infinite tail: x carries extra decaying mass that the
        # picker truncates back off
        tail_len = int(rng.integers(0, 5))
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
        if not is_t_greedy(base, A, t):
            return True, None
        try:
            y = perturb_to_finite_support(space, base, A, t, eps, picker)
        except PerturbationError:
            return False, None
        return True, eps - space.norm(base - y)

    outcomes = parallel_map(trial, range(trials))
    return _suite_report("finite-support perturbation", space, outcomes, seed)


def padding_suite(space: SpaceDescriptor, trials: int, seed: int = 0,
                  dim: int = 16) -> dict:
    def trial(idx: int):
        rng = np.random.default_rng([seed, idx])
        x, A, t = _random_greedy_pair(dim, rng, style=idx)
        m = int(rng.integers(0, dim + 1))
        try:
            y, D = padding_set_construction(space, x, A, t, m)
        except PerturbationError:
            return False, None
        moved = (A - frozenset(range(1, m + 1))) | D
        margin = min((abs(y[i]) for i in moved), default=0.0) - \
            t * max((abs(v) for i, v in y.pairs() if i not in moved), default=0.0)
        return True, margin

    outcomes = parallel_map(trial, range(trials))
    return _suite_report("padding-set construction", space, outcomes, seed)


def crude_bound_suite(space: SpaceDescriptor, trials: int, seed: int = 0,
                      dim: int = 16) -> dict:
    def trial(idx: int):
        rng = np.random.default_rng([seed, idx])
        x = next(iter(random_vectors(dim, 1, rng, style_offset=idx)))
        size = int(rng.integers(1, 9))
        A = frozenset(rng.choice(np.arange(1, dim + 1), size=min(size, dim),
                                 replace=False).tolist())
        lhs = space.norm(projection(x, A))
        rhs = projection_crude_bound(space, A) * space.norm(x)
        return lhs <= rhs * (1.0 + 1e-9), rhs - lhs

    outcomes = parallel_map(trial, range(trials))
    return _suite_report("crude projection bound", space, outcomes, seed)


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
    sizes = gap.members_up_to(dim)
    if not sizes:
        raise ValueError("no admissible cardinality: gap sequence has no member <= dim")

    def best_ratio(samples) -> float:
        best = 0.0
        for x in samples:
            nx = space.norm(x)
            if nx <= 0.0:
                continue
            # one sort per vector: its "lowest" greedy sets, for any t, are prefixes
            order = [i for _, i in _greedy_order(x)]
            best = max([best] + [space.norm(projection(x, order[:m])) / nx
                                 for m in sizes if m <= len(x)])
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
