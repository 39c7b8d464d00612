"""t-greedy set selection, enumeration of all t-greedy sets, and greedy sums.

A set A is t-greedy for x when every kept coefficient has modulus at least
t times every discarded one.  The weak algorithm is set-valued, so besides a
single policy-driven selection this module enumerates every admissible set.
"""

from __future__ import annotations

import heapq
import itertools
import operator
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
# out of a tied group (``random_greedy_set`` passes a random choice)
TiePolicy = Union[str, Callable[[tuple[int, ...], int], Iterable[int]]]


class StaleSelectionError(ValueError):
    """Raised when a selection no longer satisfies its t-greedy condition."""


def _check_t(t: float) -> float:
    if not (0.0 < t <= 1.0):
        raise ValueError(f"weakness parameter t must lie in (0, 1], got {t}")
    return float(t)


@dataclass(frozen=True)
class GreedySelection:
    """An index set A together with the weakness parameter certifying it."""

    indices: frozenset
    t: float
    cardinality: int

    def revalidate(self, x: CoeffVector) -> bool:
        return is_t_greedy(x, self.indices, self.t)

    def to_json(self) -> dict:
        return {"indices": sorted(self.indices), "t": float(self.t),
                "cardinality": self.cardinality}


def _index_set(A: Iterable[int]) -> frozenset:
    """A as a set of ints; a float or string member raises, as in CoeffVector."""
    try:
        return frozenset([operator.index(i) for i in A])
    except TypeError as exc:
        raise ValueError("index set members must be integers") from exc


def is_t_greedy(x: CoeffVector, A: Iterable[int], t: float) -> bool:
    """min over A of |coefficient| >= t * max over the rest of the support.

    The empty set is vacuously greedy (min over nothing is +inf); an index
    set covering the whole support is greedy because the outside max is 0.
    """
    t = _check_t(t)
    A_set = _index_set(A)
    if not A_set:
        return True
    outside = [abs(v) for i, v in x.pairs() if i not in A_set]
    if not outside:
        return True
    inside = [abs(v) for i, v in x.pairs() if i in A_set]
    # a member of A off the support has coefficient 0
    inside_min = min(inside) if len(inside) == len(A_set) else 0.0
    return inside_min >= t * max(outside)


def _greedy_order(x: CoeffVector) -> list[tuple[float, int]]:
    """(-modulus, index) pairs sorted: the order every selection reads.  Its
    first m indices are the "lowest" greedy set of size m, for every t."""
    return sorted([(-abs(v), i) for i, v in x.pairs()])


def _modulus_classes(x: CoeffVector):
    """(modulus, index tuple) per run of exactly equal moduli in the greedy
    order: moduli descending, each group in ascending index order."""
    return [(-neg, tuple([i for _, i in run]))
            for neg, run in itertools.groupby(_greedy_order(x), key=operator.itemgetter(0))]


def one_greedy_set(x: CoeffVector, m: int, t: float,
                   policy: TiePolicy = "lowest") -> GreedySelection:
    """A t-greedy set of cardinality m.

    For t = 1 this is the m largest-modulus coefficients, ties broken by the
    policy; the same set is t-greedy for every smaller t.  Requests beyond
    the support return the whole support.
    """
    t = _check_t(t)
    if m < 0:
        raise ValueError(f"cardinality must be nonnegative, got {m}")
    order = _greedy_order(x)
    total = len(order)
    m = min(m, total)
    if m in (0, total) or order[m - 1][0] != order[m][0] or policy == "lowest":
        return GreedySelection(frozenset([i for _, i in order[:m]]), t, m)

    # the tied class order[lo:hi] straddles position m: the policy picks m - lo
    key = order[m][0]
    lo, hi = m - 1, m + 1
    while lo and order[lo - 1][0] == key:
        lo -= 1
    while hi < total and order[hi][0] == key:
        hi += 1
    idxs = tuple([i for _, i in order[lo:hi]])
    remaining = m - lo
    if policy == "highest":
        part = idxs[-remaining:]
    elif callable(policy):
        part = tuple(int(i) for i in policy(idxs, remaining))
        if len(set(part)) != remaining or not set(part) <= set(idxs):
            raise ValueError("tie policy returned an invalid choice")
    else:
        raise ValueError(f"unknown tie policy {policy!r}")
    return GreedySelection(frozenset([i for _, i in order[:lo]] + list(part)), t, m)


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
        left = 0
        for i in range(k - 1, -1, -1):
            if left and c[i] < caps[i]:
                c[i] += 1
                left -= 1
                start = i + 1
                break
            left += c[i]
        else:
            return


def _class_windows(sizes: Sequence[int], moduli: Sequence[float], m: int,
                   t: float) -> Iterator[tuple[int, int, int, list[int]]]:
    """The windows of ``greedy_class_counts``' walk, in walk order, as
    (i_max, end, remainder, caps): classes before i_max are taken whole, and
    the remainder of m is spread over classes i_max..end - 1 with at most
    ``caps`` from each.  The take-everything vector, when it sums to m, comes
    last as the window (n, n, 0, [])."""
    n = len(sizes)
    fixed = 0
    for i_max in range(n):
        if fixed > m:
            return
        end = i_max + 1
        while end < n and moduli[end] >= t * moduli[i_max]:
            end += 1
        yield i_max, end, m - fixed, [sizes[i_max] - 1, *sizes[i_max + 1:end]]
        fixed += sizes[i_max]
    if fixed == m:
        yield n, n, 0, []


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
    for i_max, end, rest, caps in _class_windows(sizes, moduli, m, t):
        head = tuple(sizes[:i_max])
        tail = (0,) * (len(sizes) - end)
        for window in _compositions(rest, caps):
            yield head + window + tail


class EnumerationResult(NamedTuple):
    selections: tuple[GreedySelection, ...]
    overflow: bool


def _t_greedy_index_sets(classes, m: int, t: float, cap: int) -> Iterator[tuple[int, ...]]:
    """The t-greedy sets of cardinality m over ``_modulus_classes`` output, as
    sorted index tuples in lexicographic order: the first ``cap`` of them,
    then one more when the family overflows ``cap``; no later set is built.

    At a class modulus mu, every j with t|x_j| > mu plus picks among the
    others with |x_j| >= mu make a t-greedy set, and each t-greedy set arises
    so at its smallest modulus.  Over one forced part, picks of one size sort
    as their sets do, so the streams of all mu merge into one sorted stream,
    in which a set arising at several mu repeats in a run.
    """
    streams = [] if m else [[()]]  # the empty set, the one set of size 0
    for n, (mu, _) in enumerate(classes):
        forced, pool = [], []
        for mod, idxs in classes[:n + 1]:
            (forced if t * mod > mu else pool).extend(idxs)
        k = m - len(forced)
        if 0 < k <= len(pool):
            streams.append(map(lambda pick, head=tuple(forced): tuple(sorted(head + pick)),
                               itertools.combinations(sorted(pool), k)))
    unique = (index_set for index_set, _ in itertools.groupby(heapq.merge(*streams)))
    yield from itertools.islice(unique, cap + 1)


def enumerate_t_greedy_sets(x: CoeffVector, m: int, t: float,
                            cap: int = 10_000) -> EnumerationResult:
    """All index sets A with |A| = m that are t-greedy for x, in lexicographic
    order over sorted index tuples, truncated at ``cap`` with an overflow flag.
    """
    t = _check_t(t)
    if m < 0:
        raise ValueError(f"cardinality must be nonnegative, got {m}")
    if m > len(x):
        raise ValueError(f"cardinality {m} exceeds support size {len(x)}")
    index_sets = list(_t_greedy_index_sets(_modulus_classes(x), m, t, cap))
    selections = tuple([GreedySelection(frozenset(s), t, m) for s in index_sets[:cap]])
    return EnumerationResult(selections, len(index_sets) > cap)


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
