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
sweep, one plain loop over the cardinality grid, reads the class walk
window by window.  A window in the blocks that holds two classes, block k and
block k + 1, is a one-parameter family whose norm is piecewise affine in the
count taken from block k, so only the counts next to its breakpoints and
ends are evaluated, however many classes it holds.  The other windows are
walked, up to SWEEP_WALK_CAP classes per row; a row whose walked windows hold
more is marked inexact, its minimum taken only over the classes before the
budget ran out.  Both are evaluated as blocks of count vectors with numpy;
``selection_norm`` and ``enumerate_selection_classes`` stay as its per-class
oracles.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

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

MAX_DEPTH = 8  # _two_block_candidates quotes its crossing slopes for depth <= 8 only
SWEEP_CHUNK = 8192  # count vectors per numpy block in the adversarial sweep
SWEEP_WALK_CAP = 200_000  # walked classes per sweep row before it is inexact


def spike_value(k: int) -> float:
    return 1.0 / math.sqrt(k)


def block_value(k: int) -> float:
    """Coefficient on block k (negative plateau cancelling spike k)."""
    return -1.0 / (10 ** k * math.sqrt(k))


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
    """Summing norm of the class's projection, walking run endpoints once."""
    v = 0.0
    best = 0.0
    for k in range(1, ex.depth + 1):
        if counts[k - 1]:
            v += spike_value(k)
            best = max(best, abs(v))
        c = counts[ex.depth + k - 1]
        if c:
            v += c * block_value(k)
            best = max(best, abs(v))
    return best


def selection_phi(ex: ExampleSequence, counts: Sequence[int]) -> int:
    """Least k whose spike the class omits; depth + 1 when none is."""
    for k in range(1, ex.depth + 1):
        if not counts[k - 1]:
            return k
    return ex.depth + 1


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
    ``greedy.greedy_class_counts`` walks them.  The divergence sweep evaluates
    the same walk in count-matrix blocks instead; this list is its oracle.
    """
    sizes, moduli = _class_table(ex, m, t)
    if cap < 1:
        raise ValueError(f"cap must be at least 1, got {cap}")
    out = list(itertools.islice(greedy_class_counts(sizes, moduli, m, t), cap + 1))
    if len(out) > cap:
        return out[:cap], False
    return out, True


def _two_block_candidates(head: tuple[int, ...], rest: int, tail: tuple[int, ...],
                          lo: int, hi: int, runs: list[int], steps: np.ndarray
                          ) -> list[int]:
    """Counts c in [lo, hi], ascending, among which the window taking c from
    block k and rest - c from block k + 1 has its first minimiser in walk
    order, under the sweep's own float evaluation.

    Every run-endpoint prefix is affine in c: constant before block k, slope
    b_k up to spike k + 1 and b_k - b_{k+1} after it.  In exact arithmetic the
    norm is the largest of the pieces +prefix and -prefix, so between two
    crossings of pieces it follows one piece: strictly monotone, or constant.
    Non-zero slopes are at least |b_k - b_{k+1}|, about 3.4e-8 per unit of c at
    depth <= 8, and two pieces of different slope part by at least |b_{k+1}|,
    about 3.5e-9, per unit of distance from their crossing.  Rounding moves a
    prefix by a few ulps of values below 5, under 1e-13, so it can reorder
    pieces or neighbouring integers only within 1 of a crossing, and a
    constant piece is the same float at every c.  Hence an integer more than
    2 from every crossing, other than lo and hi, has a neighbour with a lower
    norm or the same norm one step earlier, and is never the first
    minimiser: the candidates are lo, hi and the integers floor(x) - 2 ..
    floor(x) + 3 around every crossing x, clipped to [lo, hi].
    """
    at_zero = np.cumsum(np.array([*head, 0, rest, *tail])[runs] * steps)
    slope = np.cumsum(np.array([*(0,) * len(head), 1, -1, *tail])[runs] * steps)
    a = np.concatenate([at_zero, -at_zero])
    s = np.concatenate([slope, -slope])
    with np.errstate(divide="ignore", invalid="ignore"):
        crossings = (a[None, :] - a[:, None]) / (s[:, None] - s[None, :])
    # pieces of equal slope never cross
    near = np.floor(crossings[np.isfinite(crossings)])[:, None] + np.arange(-2, 4)
    near = near[(near >= lo) & (near <= hi)]
    return np.unique(np.concatenate([near, [lo, hi]])).astype(np.int64).tolist()


def _adversarial_minimum(ex: ExampleSequence, m: int, t: float
                         ) -> tuple[tuple[int, ...], float, bool, list[dict]]:
    """(first minimiser, its norm, exact, floor violations) over the t-greedy
    classes of cardinality m, in walk order.

    The walk is read window by window (``greedy._class_windows``).  A window
    wholly in the blocks that holds two classes, block k and block k + 1, is
    solved in closed form: its classes take c from block k for c from lo to
    hi, and only ``_two_block_candidates`` of them are evaluated.  Every
    spike sits in such a window's head, so phi is depth + 1 there and no
    floor can be broken.  Every other window is walked, and only walked
    classes count against SWEEP_WALK_CAP: the sweep stops at the first walked
    class past it, with exact False and the minimum and violations of the
    classes before it.  The count vectors are evaluated SWEEP_CHUNK at a
    time.  With the columns in run-endpoint order (spike 1, block 1, spike 2,
    ...) and scaled by the step values, a row's cumsum is ``selection_norm``'s
    running sum to the bit: both add left to right, an unselected run adds a
    zero, and count times value is exact at these counts.
    """
    sizes, moduli = _class_table(ex, m, t)
    runs = [pos for k in range(ex.depth) for pos in (k, ex.depth + k)]
    steps = np.array([v for k in range(1, ex.depth + 1)
                      for v in (spike_value(k), block_value(k))])
    # floors[phi]; phi = depth + 1 omits no spike and has no floor to break
    floors = np.array([-math.inf,
                       *(phi_lower_bound(phi, t) for phi in range(1, ex.depth + 1)),
                       -math.inf])
    left = SWEEP_WALK_CAP
    exact = True

    def rows() -> Iterator[tuple[int, ...]]:
        # the count vectors to evaluate, in walk order, until the walked
        # windows use up SWEEP_WALK_CAP
        nonlocal left, exact
        for i_max, end, rest, caps in _class_windows(sizes, moduli, m, t):
            if rest > sum(caps):
                continue  # the window holds no class
            head, tail = tuple(sizes[:i_max]), (0,) * (len(sizes) - end)
            if i_max >= ex.depth and end == i_max + 2:  # two block columns
                lo, hi = max(0, rest - caps[1]), min(caps[0], rest)
                for c in _two_block_candidates(head, rest, tail, lo, hi, runs, steps):
                    yield head + (c, rest - c) + tail
            else:
                for window in _compositions(rest, caps):
                    if not left:
                        exact = False
                        return
                    left -= 1
                    yield head + window + tail

    stream = rows()
    best_norm = math.inf
    best_counts: tuple[int, ...] = ()
    violations: list[dict] = []
    while True:
        counts = np.fromiter(
            itertools.chain.from_iterable(itertools.islice(stream, SWEEP_CHUNK)),
            dtype=np.int64).reshape(-1, len(runs))
        if not len(counts):
            break
        norms = np.abs(np.cumsum(counts[:, runs] * steps, axis=1)).max(axis=1)
        omitted = counts[:, :ex.depth] == 0
        phis = np.where(omitted.any(axis=1), omitted.argmax(axis=1) + 1, ex.depth + 1)
        for i in np.flatnonzero(norms < floors[phis] - 1e-9):
            violations.append({"m": m, "family": family_label(counts[i].tolist()),
                               "norm": float(norms[i]),
                               "phi": int(phis[i]), "lower_bound": float(floors[phis[i]])})
        i = int(np.argmin(norms))  # first minimiser in the block; strict < across
        if norms[i] < best_norm:
            best_norm, best_counts = float(norms[i]), tuple(counts[i].tolist())
    return best_counts, best_norm, exact, violations


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
    unless the walked windows of a row hold more than SWEEP_WALK_CAP
    classes); otherwise the canonical class.
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
            norm, exact = selection_norm(ex, counts), False
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
