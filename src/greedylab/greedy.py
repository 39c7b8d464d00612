"""t-greedy set selection, enumeration of all t-greedy sets, and greedy sums.

A set A is t-greedy for x when every kept coefficient has modulus at least
t times every discarded one.  The weak algorithm is set-valued, so besides a
single policy-driven selection this module enumerates every admissible set.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence, Union

import numpy as np

from .coeffspace import CoeffVector, projection

__all__ = [
    "GreedySelection",
    "EnumerationResult",
    "is_t_greedy",
    "one_greedy_set",
    "enumerate_t_greedy_sets",
    "greedy_class_counts",
    "greedy_sum",
    "random_greedy_set",
]

# a tie policy is "lowest", "highest", or a callback choosing `slots` indices
# out of a tied group (adversarial search hooks in here)
TiePolicy = Union[str, Callable[[tuple[int, ...], int], Iterable[int]]]


class StaleSelectionError(ValueError):
    """Raised when a selection no longer satisfies its t-greedy condition."""


def _check_t(t: float) -> float:
    if not (0.0 < t <= 1.0):
        raise ValueError(f"weakness parameter t must lie in (0, 1], got {t}")
    return float(t)


@dataclass(frozen=True)
class GreedySelection:
    """An index set A together with the weakness parameter certifying it.

    ``tie_trace`` lists the groups of indices whose coefficient moduli tied
    during selection; ``short`` flags requests beyond the support, where the
    selection degenerates to the whole support.
    """

    indices: frozenset
    t: float
    cardinality: int
    tie_trace: tuple[tuple[int, ...], ...] = ()
    short: bool = False

    def revalidate(self, x: CoeffVector) -> bool:
        return is_t_greedy(x, self.indices, self.t)

    def sorted_indices(self) -> tuple[int, ...]:
        return tuple(sorted(self.indices))

    def to_json(self) -> dict:
        return {"indices": sorted(self.indices), "t": float(self.t),
                "cardinality": self.cardinality}


def is_t_greedy(x: CoeffVector, A: Iterable[int], t: float) -> bool:
    """min over A of |coefficient| >= t * max over the rest of the support.

    The empty set is vacuously greedy (min over nothing is +inf); an index
    set covering the whole support is greedy because the outside max is 0.
    """
    t = _check_t(t)
    A_set = frozenset(int(i) for i in A)
    if not A_set:
        return True
    outside = [abs(v) for i, v in x.pairs() if i not in A_set]
    if not outside:
        return True
    inside_min = min(abs(x[i]) for i in A_set)
    return inside_min >= t * max(outside)


def _modulus_classes(x: CoeffVector, tie_tol: float = 0.0):
    """Support indices grouped by coefficient modulus, descending.

    Returns a list of (modulus, sorted index tuple).  Exact float comparison
    by default; a positive tie_tol merges moduli within that distance.
    """
    items = sorted(((abs(v), i) for i, v in x.pairs()), key=lambda p: (-p[0], p[1]))
    classes: list[tuple[float, list[int]]] = []
    for mod, idx in items:
        if classes and abs(classes[-1][0] - mod) <= tie_tol:
            classes[-1][1].append(idx)
        else:
            classes.append((mod, [idx]))
    return [(mod, tuple(sorted(idxs))) for mod, idxs in classes]


def one_greedy_set(x: CoeffVector, m: int, t: float, policy: TiePolicy = "lowest",
                   tie_tol: float = 0.0) -> GreedySelection:
    """A t-greedy set of cardinality m.

    For t = 1 this is the m largest-modulus coefficients, ties broken by the
    policy; the same set is t-greedy for every smaller t.  Requests beyond
    the support return the whole support, flagged short.
    """
    t = _check_t(t)
    if m < 0:
        raise ValueError(f"cardinality must be nonnegative, got {m}")
    classes = _modulus_classes(x, tie_tol)
    total = sum(len(idxs) for _, idxs in classes)
    if m >= total:
        trace = tuple(idxs for _, idxs in classes if len(idxs) > 1)
        return GreedySelection(frozenset(x.support()), t, total, trace, short=m > total)

    chosen: list[int] = []
    trace: list[tuple[int, ...]] = []
    remaining = m
    for _, idxs in classes:
        if len(idxs) > 1:
            trace.append(idxs)
        if remaining <= 0:
            break
        if len(idxs) <= remaining:
            chosen.extend(idxs)
            remaining -= len(idxs)
        else:
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
    return GreedySelection(frozenset(chosen), t, m, tuple(trace))


def _compositions(total: int, caps: list[int]) -> Iterator[tuple[int, ...]]:
    """Vectors c with 0 <= c[i] <= caps[i] summing to total, lexicographically."""
    k = len(caps)
    room = [0] * (k + 1)  # room[i]: the most positions i.. can take together
    for i in range(k - 1, -1, -1):
        room[i] = room[i + 1] + caps[i]
    if total > room[0]:
        return
    c = [0] * k
    left = total
    start = 0
    while True:
        # positions start.. take the smallest counts that still reach the total
        for j in range(start, k):
            c[j] = max(0, left - room[j + 1])
            left -= c[j]
        yield tuple(c)
        # raise the rightmost position that can take one from those after it
        left = c[-1]
        for i in range(k - 2, -1, -1):
            if left and c[i] < caps[i]:
                c[i] += 1
                left -= 1
                start = i + 1
                break
            left += c[i]
        else:
            return


def greedy_class_counts(sizes: Sequence[int], moduli: Sequence[float], m: int,
                        t: float) -> Iterator[tuple[int, ...]]:
    """Per-class take counts of every t-greedy set of cardinality m.

    Class i holds ``sizes[i]`` tied coefficients of modulus ``moduli[i]``,
    moduli strictly descending.  A count vector is t-greedy when its smallest
    selected modulus is at least t times the largest modulus of a class it
    does not take whole.  So every class above the first unsaturated one,
    i_max, is taken whole, and the rest of m is spread over the window of
    classes whose modulus stays >= t * moduli[i_max].  Vectors come with
    i_max ascending, then window counts in lexicographic order; the vector
    taking every class, when it sums to m, comes last.
    """
    n = len(sizes)
    fixed = 0
    for i_max in range(n):
        if fixed > m:
            return
        end = i_max + 1
        while end < n and moduli[end] >= t * moduli[i_max]:
            end += 1
        head = tuple(sizes[:i_max])
        tail = (0,) * (n - end)
        caps = [sizes[i_max] - 1, *sizes[i_max + 1:end]]
        for window in _compositions(m - fixed, caps):
            yield head + window + tail
        fixed += sizes[i_max]
    if fixed == m:
        yield tuple(sizes)


class EnumerationResult(NamedTuple):
    selections: tuple[GreedySelection, ...]
    overflow: bool


def enumerate_t_greedy_sets(x: CoeffVector, m: int, t: float,
                            cap: int = 10_000, tie_tol: float = 0.0) -> EnumerationResult:
    """All index sets A with |A| = m that are t-greedy for x, in lexicographic
    order over sorted index tuples, truncated at ``cap`` with an overflow flag.

    Enumeration runs over modulus classes: a valid set takes full classes
    above its smallest excluded class and arbitrary picks from classes whose
    modulus stays >= t times the excluded maximum.
    """
    t = _check_t(t)
    if m < 0:
        raise ValueError(f"cardinality must be nonnegative, got {m}")
    if m > len(x):
        raise ValueError(f"cardinality {m} exceeds support size {len(x)}")
    classes = _modulus_classes(x, tie_tol)
    groups = [idxs for _, idxs in classes]

    # generation guard: past this many sets the overflow flag is raised and the
    # returned prefix is only a sorted sample of the full family
    hard_cap = max(cap * 8, 1 << 16)
    index_sets: list[tuple[int, ...]] = []
    truncated = False
    for counts in greedy_class_counts([len(g) for g in groups],
                                      [mod for mod, _ in classes], m, t):
        pools = [list(itertools.combinations(idxs, a))
                 for a, idxs in zip(counts, groups) if a]
        for combo in itertools.product(*pools):
            if len(index_sets) >= hard_cap:
                truncated = True
                break
            index_sets.append(tuple(sorted(itertools.chain.from_iterable(combo))))
        if truncated:
            break

    index_sets.sort()
    overflow = truncated or len(index_sets) > cap
    trace = tuple(idxs for idxs in groups if len(idxs) > 1)
    selections = tuple(
        GreedySelection(frozenset(s), t, m, trace) for s in index_sets[:cap])
    return EnumerationResult(selections, overflow)


def greedy_sum(x: CoeffVector, sel: GreedySelection) -> CoeffVector:
    """The projection of x onto the selection's index set."""
    if not sel.revalidate(x):
        raise StaleSelectionError("invalid selection: index set is no longer "
                                  f"{sel.t}-greedy for this vector")
    return projection(x, sel.indices)


def random_greedy_set(x: CoeffVector, m: int, t: float,
                      rng: np.random.Generator) -> GreedySelection:
    """A t-greedy set of size m with randomized tie handling."""
    style = int(rng.integers(3))
    if style == 0:
        policy: TiePolicy = "lowest"
    elif style == 1:
        policy = "highest"
    else:
        policy = lambda group, slots: rng.choice(group, size=slots, replace=False)
    return one_greedy_set(x, m, t, policy)
