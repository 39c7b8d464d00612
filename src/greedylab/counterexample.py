"""Divergence engine for the summing-norm space.

Builds the element with spike coefficients 1/sqrt(k) at positions n_k
(n_1 = 1, n_{k+1} = n_k + 10^k + 1) and cancelling plateaus of value
-1/(10^k sqrt(k)) on the blocks between consecutive spikes.  Every greedy
sum of it grows without bound, which rules out rescuing convergence by
passing to any cardinality subsequence.

Blocks are stored as (start, length, value) runs; within a block the prefix
sum is monotone, so summing norms of projections only need the run
endpoints.  Greedy sets are therefore handled as equivalence classes
(selected spikes, per-block selection counts): positions inside a block
never change the norm, a fact the test suite checks by exhaustive
enumeration at small depth.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from .coeffspace import CoeffVector
from .greedy import greedy_class_counts

__all__ = [
    "ExampleSequence",
    "SpikeBlockSelection",
    "build_example",
    "spike_value",
    "block_value",
    "truncation_norm",
    "spike_prefix_sums",
    "dense_vector",
    "canonical_selection",
    "enumerate_selection_classes",
    "selection_norm",
    "selection_phi",
    "selection_is_t_greedy",
    "materialize_selection",
    "greedy_sum_norm",
    "phi_lower_bound",
    "divergence_experiment",
]

MAX_DEPTH = 8  # n_9 - 1 is about 1.1e8; deeper truncations have no desk-scale use


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


def spike_prefix_sums(ex: ExampleSequence) -> list[float]:
    """Prefix sums through each spike index n_k (telescopes to 1/sqrt(k))."""
    out = []
    v = 0.0
    for k in range(1, ex.depth + 1):
        v += spike_value(k)
        out.append(v)
        v += ex.block_size(k) * block_value(k)
    return out


def truncation_norm(ex: ExampleSequence) -> float:
    """Summing norm of the full truncation, from run endpoints; equals 1."""
    full = SpikeBlockSelection(frozenset(range(1, ex.depth + 1)),
                               tuple(ex.block_size(k) for k in range(1, ex.depth + 1)))
    return selection_norm(ex, full)


def dense_vector(ex: ExampleSequence) -> CoeffVector:
    """Entrywise materialization; oracle use only, guarded to small depth."""
    if ex.depth > 5:
        raise ValueError("dense materialization guarded to depth <= 5")
    vals = []
    for k in range(1, ex.depth + 1):
        vals.append(spike_value(k))
        vals.extend([block_value(k)] * ex.block_size(k))
    return CoeffVector.from_dense(vals)


# ---------------------------------------------------------------------------
# Greedy-set classes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpikeBlockSelection:
    """A family of greedy sets: chosen spikes plus a selection count per block.

    All coefficients within a block tie, and the summing norm of a projection
    is insensitive to which block positions carry the count, so one class
    stands for every concrete index set realizing it.
    """

    spike_ks: frozenset
    block_counts: tuple[int, ...]

    @property
    def cardinality(self) -> int:
        return len(self.spike_ks) + sum(self.block_counts)

    def family_label(self) -> str:
        spikes = ",".join(str(k) for k in sorted(self.spike_ks))
        counts = ",".join(str(c) for c in self.block_counts)
        return f"spikes[{spikes}]+blocks[{counts}]"


def _value_classes(ex: ExampleSequence) -> list[tuple[float, int, str, int]]:
    """(modulus, multiplicity, kind, k), strictly descending modulus."""
    classes = [(spike_value(k), 1, "spike", k) for k in range(1, ex.depth + 1)]
    classes += [(-block_value(k), ex.block_size(k), "block", k)
                for k in range(1, ex.depth + 1)]
    classes.sort(key=lambda c: -c[0])
    return classes


def selection_norm(ex: ExampleSequence, sel: SpikeBlockSelection) -> float:
    """Summing norm of the projection, walking run endpoints once."""
    v = 0.0
    best = 0.0
    for k in range(1, ex.depth + 1):
        if k in sel.spike_ks:
            v += spike_value(k)
            best = max(best, abs(v))
        c = sel.block_counts[k - 1]
        if c:
            v += c * block_value(k)
            best = max(best, abs(v))
    return best


def selection_phi(ex: ExampleSequence, sel: SpikeBlockSelection) -> int:
    """Least k whose spike the selection omits; depth + 1 when none is."""
    for k in range(1, ex.depth + 1):
        if k not in sel.spike_ks:
            return k
    return ex.depth + 1


def selection_is_t_greedy(ex: ExampleSequence, sel: SpikeBlockSelection, t: float) -> bool:
    if not (0.0 < t <= 1.0):
        raise ValueError(f"weakness parameter t must lie in (0, 1], got {t}")
    selected_min = math.inf
    excluded_max = 0.0
    for k in range(1, ex.depth + 1):
        sv, bv = spike_value(k), -block_value(k)
        if k in sel.spike_ks:
            selected_min = min(selected_min, sv)
        else:
            excluded_max = max(excluded_max, sv)
        c = sel.block_counts[k - 1]
        if c > 0:
            selected_min = min(selected_min, bv)
        if c < ex.block_size(k):
            excluded_max = max(excluded_max, bv)
    if selected_min is math.inf:
        return True  # empty selection is vacuously greedy
    return selected_min >= t * excluded_max


def materialize_selection(ex: ExampleSequence, sel: SpikeBlockSelection,
                          placement: str = "first") -> frozenset:
    """A concrete index set in the class; block positions per ``placement``."""
    indices = [ex.spikes[k - 1] for k in sorted(sel.spike_ks)]
    for k in range(1, ex.depth + 1):
        c = sel.block_counts[k - 1]
        if not c:
            continue
        lo, hi = ex.block_range(k)
        if placement == "first":
            indices.extend(range(lo, lo + c))
        elif placement == "last":
            indices.extend(range(hi - c + 1, hi + 1))
        else:
            raise ValueError(f"unknown placement {placement!r}")
    return frozenset(indices)


def canonical_selection(ex: ExampleSequence, m: int, t: float = 1.0) -> SpikeBlockSelection:
    """Fill classes in descending modulus order: spikes, then blocks in order."""
    if not 0 <= m <= ex.support_size:
        raise ValueError(f"cardinality must lie in [0, {ex.support_size}], got {m}")
    spike_ks = set()
    counts = [0] * ex.depth
    left = m
    for _, mult, kind, k in _value_classes(ex):
        if left <= 0:
            break
        take = min(mult, left)
        if kind == "spike":
            spike_ks.add(k)
        else:
            counts[k - 1] = take
        left -= take
    return SpikeBlockSelection(frozenset(spike_ks), tuple(counts))


def enumerate_selection_classes(ex: ExampleSequence, m: int, t: float,
                                cap: int = 200_000) -> tuple[list[SpikeBlockSelection], bool]:
    """Every t-greedy class of cardinality m; (classes, exact) with exact False
    only when the walk has more than ``cap`` classes, of which the first ``cap``
    are returned.

    Valid classes take every modulus class above the largest unsaturated one,
    and spread the remainder over classes whose modulus stays >= t times it;
    ``greedy.greedy_class_counts`` walks them.
    """
    if not (0.0 < t <= 1.0):
        raise ValueError(f"weakness parameter t must lie in (0, 1], got {t}")
    if not 0 <= m <= ex.support_size:
        raise ValueError(f"cardinality must lie in [0, {ex.support_size}], got {m}")
    classes = _value_classes(ex)
    pos_of = {(kind, k): pos for pos, (_, _, kind, k) in enumerate(classes)}
    spike_at = [(pos_of["spike", k], k) for k in range(1, ex.depth + 1)]
    block_at = [pos_of["block", k] for k in range(1, ex.depth + 1)]
    walk = greedy_class_counts([mult for _, mult, _, _ in classes],
                               [mod for mod, _, _, _ in classes], m, t)
    # spikes go through a set: a frozenset copied from a set is sized to fit,
    # one filled from a list can take over half again as much memory
    out = [SpikeBlockSelection(frozenset({k for pos, k in spike_at if counts[pos]}),
                               tuple([counts[pos] for pos in block_at]))
           for counts in itertools.islice(walk, cap + 1)]
    if len(out) > cap:
        return out[:cap], False
    return out, True


# ---------------------------------------------------------------------------
# Greedy sums and the divergence lower bound
# ---------------------------------------------------------------------------


def greedy_sum_norm(ex: ExampleSequence, m: int, t: float,
                    chooser: Optional[Callable[[ExampleSequence, int, float],
                                               SpikeBlockSelection]] = None) -> float:
    """Summing norm of the greedy sum for the chosen t-greedy class of size m."""
    if not 0 <= m <= ex.support_size:
        raise ValueError(f"cardinality must lie in [0, {ex.support_size}], got {m}")
    sel = canonical_selection(ex, m, t) if chooser is None else chooser(ex, m, t)
    if sel.cardinality != m:
        raise ValueError(f"chooser produced cardinality {sel.cardinality}, wanted {m}")
    if not selection_is_t_greedy(ex, sel, t):
        raise ValueError("chooser output rejected: class is not t-greedy")
    return selection_norm(ex, sel)


def phi_lower_bound(phi: int, t: float) -> float:
    """Divergence floor for a greedy set whose first omitted spike is phi:
    sum_{k < phi} 1/sqrt(k) minus the same sum up to floor(log10(sqrt(phi)/t)).
    """
    if phi < 1:
        raise ValueError(f"phi must be a positive integer, got {phi}")
    if not (0.0 < t <= 1.0):
        raise ValueError(f"weakness parameter t must lie in (0, 1], got {t}")
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
                          m_grid: Optional[Iterable[int]] = None,
                          cap: int = 200_000) -> dict:
    """Sweep greedy-sum norms over a cardinality grid.

    With ``adversary`` the minimum over enumerated t-greedy classes is taken
    (exact whenever the class walk completes); otherwise the canonical class.
    Each row records the first omitted spike phi and the analytic floor for
    it, and any row where a spike inside the truncation is omitted is checked
    against that floor.
    """
    from .reporting import parallel_map

    ex = build_example(depth)
    grid = tuple(m_grid) if m_grid is not None else default_m_grid(ex)

    def sweep_row(m: int) -> tuple[dict, list[dict]]:
        row_violations: list[dict] = []
        if adversary:
            classes, exact = enumerate_selection_classes(ex, m, t, cap)
            norm = None
            sel = None
            for cand in classes:
                val = selection_norm(ex, cand)
                phi_c = selection_phi(ex, cand)
                if phi_c <= ex.depth:
                    floor_c = phi_lower_bound(phi_c, t)
                    if val < floor_c - 1e-9:
                        row_violations.append({"m": m, "family": cand.family_label(),
                                               "norm": val, "phi": phi_c,
                                               "lower_bound": floor_c})
                if norm is None or val < norm:
                    norm, sel = val, cand
        else:
            sel = canonical_selection(ex, m, t)
            norm = selection_norm(ex, sel)
            exact = False
        phi = selection_phi(ex, sel)
        floor = phi_lower_bound(phi, t) if phi <= ex.depth else None
        row = {
            "m": int(m),
            "t": float(t),
            "depth": int(depth),
            "min_norm": float(norm),
            "phi": int(phi),
            "lower_bound": float(floor) if floor is not None else None,
            "greedy_set_family": sel.family_label(),
            "exact": bool(exact),
        }
        return row, row_violations

    swept = parallel_map(sweep_row, grid)  # rows come back in m-order
    rows = [row for row, _ in swept]
    violations = [v for _, vs in swept for v in vs]
    return {"depth": int(depth), "t": float(t), "adversary": bool(adversary),
            "rows": rows, "violations": violations}
