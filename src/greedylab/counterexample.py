"""Divergence engine for the summing-norm space.

Builds the element with spike coefficients 1/sqrt(k) at positions n_k
(n_1 = 1, n_{k+1} = n_k + 10^k + 1) and cancelling plateaus of value
-1/(10^k sqrt(k)) on the blocks between consecutive spikes.  Every greedy
sum of it grows without bound, which rules out rescuing convergence by
passing to any cardinality subsequence.

Blocks are stored as (start, length, value) runs; within a block the prefix
sum is monotone, so summing norms of projections only need the run
endpoints.  Greedy sets are therefore handled as equivalence classes, each
one a count vector: a 0 or 1 per spike, then the count taken from each
block.  Positions inside a block never change the norm, a fact the test
suite checks by exhaustive enumeration at small depth.  The adversarial
sweep is one per-class loop over the class walk, read window by window.  A
window wholly in the blocks takes every spike, so its first minimiser is
found count by count by bisection (``_block_window_minimiser``), however
many classes and block columns it holds.  The windows holding spikes are
walked, up to SWEEP_WALK_CAP classes per row; a row whose spike windows hold
more is marked inexact, its minimum taken only over the classes before the
budget ran out.  ``enumerate_selection_classes`` is the sweep's per-class
oracle.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .greedy import _check_t, _class_windows, _compositions, greedy_class_counts

__all__ = [
    "ExampleSequence",
    "build_example",
    "spike_value",
    "block_value",
    "truncation_norm",
    "canonical_selection",
    "family_label",
    "enumerate_selection_classes",
    "selection_norm",
    "selection_phi",
    "greedy_sum_norm",
    "phi_lower_bound",
    "divergence_experiment",
]

# In a block window one count moves a prefix by at least b_7 - b_8 ~ 3.4e-8, far
# above the rounding of the running sum, so the float norms keep the order that
# _block_window_minimiser relies on; at depth 14-15 that step (~2.4e-15) is the rounding.
MAX_DEPTH = 8
SWEEP_WALK_CAP = 200_000  # walked spike-window classes per sweep row before it is inexact


def spike_value(k: int) -> float:
    return 1.0 / math.sqrt(k)


def block_value(k: int) -> float:
    """Coefficient on block k (negative plateau cancelling spike k)."""
    return -1.0 / (10 ** k * math.sqrt(k))


_SPIKES = tuple(spike_value(k) for k in range(1, MAX_DEPTH + 1))
_BLOCKS = tuple(block_value(k) for k in range(1, MAX_DEPTH + 1))


@dataclass(frozen=True)
class ExampleSequence:
    """Truncation at depth K: spikes n_1..n_K plus the complete blocks
    between them, supported on [1, n_{K+1} - 1]."""

    depth: int
    spikes: tuple[int, ...]  # n_1 .. n_{K+1}

    @property
    def support_size(self) -> int:
        return self.spikes[-1] - 1

    def block_range(self, k: int) -> tuple[int, int]:
        """Inclusive index range of block k."""
        return (self.spikes[k - 1] + 1, self.spikes[k - 1] + 10 ** k)

    def block_size(self, k: int) -> int:
        return 10 ** k


def build_example(depth: int) -> ExampleSequence:
    if not 1 <= depth <= MAX_DEPTH:
        raise ValueError(f"depth must lie in [1, {MAX_DEPTH}], got {depth}")
    n = [1]
    for k in range(1, depth + 1):
        n.append(n[-1] + 10 ** k + 1)
    return ExampleSequence(depth, tuple(n))


# ---------------------------------------------------------------------------
# Run-length evaluation
# ---------------------------------------------------------------------------


def truncation_norm(ex: ExampleSequence) -> float:
    """Summing norm of the full truncation, from run endpoints; equals 1."""
    full = (1,) * ex.depth + tuple(ex.block_size(k) for k in range(1, ex.depth + 1))
    return selection_norm(ex, full)


# ---------------------------------------------------------------------------
# Greedy-set classes
# ---------------------------------------------------------------------------


def family_label(counts: Sequence[int]) -> str:
    """Report label of a class: its selected spikes, then its block counts."""
    depth = len(counts) // 2
    spikes = ",".join(str(k) for k in range(1, depth + 1) if counts[k - 1])
    blocks = ",".join(str(c) for c in counts[depth:])
    return f"spikes[{spikes}]+blocks[{blocks}]"


def selection_norm(ex: ExampleSequence, counts: Sequence[int]) -> float:
    """Summing norm of the class's projection, walking the run endpoints of
    spike k, then block k, for k = 1..depth, once.  A spike raises the sum and
    a block lowers it, so only a spike sets a new high and only a block a new low."""
    v = high = low = 0.0
    for spike, block, taken, c in zip(_SPIKES, _BLOCKS, counts[:ex.depth], counts[ex.depth:]):
        if taken:
            v += spike
            high = v if v > high else high
        if c:
            v += c * block
            low = v if v < low else low
    return max(high, -low)


def selection_phi(ex: ExampleSequence, counts: Sequence[int]) -> int:
    """Least k whose spike the class omits; depth + 1 when none is."""
    return [*counts[:ex.depth], 0].index(0) + 1


def _check_cardinality(ex: ExampleSequence, m: int) -> None:
    # bool is an int subclass, but True is no cardinality
    if isinstance(m, bool) or not isinstance(m, numbers.Integral):
        raise ValueError(f"cardinality must be an integer, got {m!r}")
    if not 0 <= m <= ex.support_size:
        raise ValueError(f"cardinality must lie in [0, {ex.support_size}], got {m}")


def _class_table(ex: ExampleSequence, m: int, t: float
                 ) -> tuple[list[int], list[float]]:
    """Checked arguments of a class sweep, and the sizes and moduli of the
    modulus classes it walks, in descending order: spikes 1..depth, then
    blocks 1..depth, as the smallest spike 1/sqrt(MAX_DEPTH) exceeds block
    1's 0.1.  So a count vector holds spike k in column k - 1 and block k in
    column depth + k - 1."""
    _check_t(t)
    _check_cardinality(ex, m)
    ks = range(1, ex.depth + 1)
    return ([1] * ex.depth + [ex.block_size(k) for k in ks],
            [spike_value(k) for k in ks] + [-block_value(k) for k in ks])


def canonical_selection(ex: ExampleSequence, m: int) -> tuple[int, ...]:
    """The class filling modulus classes in descending order: the one 1-greedy
    class of cardinality m, hence t-greedy for every t in (0, 1]."""
    sizes, moduli = _class_table(ex, m, 1.0)
    return next(greedy_class_counts(sizes, moduli, m, 1.0))


def enumerate_selection_classes(ex: ExampleSequence, m: int, t: float,
                                cap: int = 200_000) -> tuple[list[tuple[int, ...]], bool]:
    """Every t-greedy class of cardinality m; (classes, exact) with exact False
    only when the walk has more than ``cap`` classes, of which the first ``cap``
    are returned.

    Valid classes take every modulus class above the largest unsaturated one,
    and spread the remainder over classes whose modulus stays >= t times it;
    ``greedy.greedy_class_counts`` walks them.  The divergence sweep reads
    the same walk, solving its block windows instead of walking them; this
    list is its oracle.
    """
    sizes, moduli = _class_table(ex, m, t)
    if cap < 1:
        raise ValueError(f"cap must be at least 1, got {cap}")
    out = list(itertools.islice(greedy_class_counts(sizes, moduli, m, t), cap + 1))
    if len(out) > cap:
        return out[:cap], False
    return out, True


def _block_window_minimiser(ex: ExampleSequence, head: tuple[int, ...], rest: int,
                            caps: list[int], tail: tuple[int, ...]
                            ) -> tuple[tuple[int, ...], float]:
    """(first minimiser in walk order, its norm) of a window wholly in the
    blocks: the head, counts of at most ``caps`` summing to ``rest``, the tail.

    The head takes every spike, and no block gives more than its size, so no
    run-endpoint prefix is negative.  Moving one count to an earlier block
    lowers every later prefix, as b_k > b_{k+1}, so the descending fill is a
    minimiser.  With the leading counts fixed, the norm of the descending fill
    of the rest does not rise as the next count rises, so each count of the
    first minimiser is the least one whose completion still reaches the
    minimum, and bisection finds it.  The floats keep this order (MAX_DEPTH).
    """
    def filled(lead: list[int]) -> tuple[int, ...]:
        # the leading counts, then the rest of the remainder in descending fill
        out, left = list(lead), rest - sum(lead)
        for cap in caps[len(lead):]:
            out.append(min(cap, left))
            left -= out[-1]
        return head + tuple(out) + tail

    least = selection_norm(ex, filled([]))
    lead: list[int] = []
    for i, cap in enumerate(caps):
        left = rest - sum(lead)
        lo, hi = max(0, left - sum(caps[i + 1:])), min(cap, left)
        while lo < hi:
            mid = (lo + hi) // 2
            if selection_norm(ex, filled(lead + [mid])) > least:
                lo = mid + 1
            else:
                hi = mid
        lead.append(lo)
    return filled(lead), least


def _adversarial_minimum(ex: ExampleSequence, m: int, t: float
                         ) -> tuple[tuple[int, ...], float, bool, list[dict]]:
    """(first minimiser, its norm, exact, floor violations) over the t-greedy
    classes of cardinality m, in walk order.

    The walk is read window by window (``greedy._class_windows``).  The spike
    windows come first and are walked class by class, up to SWEEP_WALK_CAP
    classes: past it the sweep stops, with exact False and the minimum and
    violations of the classes before.  Every later window lies wholly in the
    blocks and is solved by ``_block_window_minimiser``; every spike sits in
    its head, so phi is depth + 1 there and no floor can be broken.
    """
    sizes, moduli = _class_table(ex, m, t)
    # floors[phi]; phi = depth + 1 omits no spike and has no floor to break
    floors = [-math.inf, *(phi_lower_bound(phi, t) for phi in range(1, ex.depth + 1)),
              -math.inf]
    # window i has i_max = i: the first depth of them hold spikes
    windows = [(tuple(sizes[:i_max]), rest, caps, (0,) * (len(sizes) - end))
               for i_max, end, rest, caps in _class_windows(sizes, moduli, m, t)]
    walked = (head + window + tail for head, rest, caps, tail in windows[:ex.depth]
              for window in _compositions(rest, caps))
    best_norm, best_counts, violations = math.inf, (), []
    for counts in itertools.islice(walked, SWEEP_WALK_CAP):
        norm, phi = selection_norm(ex, counts), selection_phi(ex, counts)
        if norm < floors[phi] - 1e-9:
            violations.append({"m": m, "family": family_label(counts), "norm": norm,
                               "phi": phi, "lower_bound": floors[phi]})
        if norm < best_norm:
            best_norm, best_counts = norm, counts
    if next(walked, None) is not None:
        return best_counts, best_norm, False, violations
    for head, rest, caps, tail in windows[ex.depth:]:
        if rest <= sum(caps):  # else the window holds no class
            counts, norm = _block_window_minimiser(ex, head, rest, caps, tail)
            if norm < best_norm:
                best_norm, best_counts = norm, counts
    return best_counts, best_norm, True, violations


# ---------------------------------------------------------------------------
# Greedy sums and the divergence lower bound
# ---------------------------------------------------------------------------


def greedy_sum_norm(ex: ExampleSequence, m: int, t: float) -> float:
    """Summing norm of the greedy sum for the canonical class of size m."""
    _check_t(t)
    return selection_norm(ex, canonical_selection(ex, m))


def phi_lower_bound(phi: int, t: float) -> float:
    """Divergence floor for a greedy set whose first omitted spike is phi:
    sum_{k < phi} 1/sqrt(k) minus the same sum up to floor(log10(sqrt(phi)/t)).
    """
    if phi < 1:
        raise ValueError(f"phi must be a positive integer, got {phi}")
    _check_t(t)
    cutoff = math.floor(math.log10(math.sqrt(phi) / t))

    def sqrt_sum(n: int) -> float:
        return math.fsum(1.0 / math.sqrt(k) for k in range(1, n + 1)) if n > 0 else 0.0

    return sqrt_sum(phi - 1) - sqrt_sum(cutoff)


def default_m_grid(ex: ExampleSequence) -> tuple[int, ...]:
    """Spike prefixes, half-block and full-block checkpoints."""
    grid = set(range(0, ex.depth + 1))
    m = ex.depth
    for k in range(1, ex.depth + 1):
        grid.add(m + ex.block_size(k) // 2)
        m += ex.block_size(k)
        grid.add(m)
    return tuple(sorted(v for v in grid if v <= ex.support_size))


def divergence_experiment(depth: int, t: float, adversary: bool = True,
                          m_grid: Optional[Iterable[int]] = None) -> dict:
    """Sweep greedy-sum norms over a cardinality grid.

    With ``adversary`` the minimum over the t-greedy classes is taken (exact
    unless the spike windows of a row hold more than SWEEP_WALK_CAP classes);
    otherwise the canonical class, exact only when it is the row's one class.
    Each row records the first omitted spike phi and the analytic floor for
    it, and any row where a spike inside the truncation is omitted is checked
    against that floor.
    """
    _check_t(t)
    ex = build_example(depth)
    rows: list[dict] = []
    violations: list[dict] = []
    for m in (m_grid if m_grid is not None else default_m_grid(ex)):
        if adversary:
            counts, norm, exact, row_violations = _adversarial_minimum(ex, m, t)
            violations += row_violations
        else:
            counts = canonical_selection(ex, m)
            norm = selection_norm(ex, counts)
            exact = enumerate_selection_classes(ex, m, t, cap=1)[1]
        phi = selection_phi(ex, counts)
        floor = phi_lower_bound(phi, t) if phi <= ex.depth else None
        rows.append({
            "m": int(m),
            "t": float(t),
            "depth": int(depth),
            "min_norm": float(norm),
            "phi": int(phi),
            "lower_bound": float(floor) if floor is not None else None,
            "greedy_set_family": family_label(counts),
            "exact": bool(exact),
        })
    return {"depth": int(depth), "t": float(t), "adversary": bool(adversary),
            "rows": rows, "violations": violations}
