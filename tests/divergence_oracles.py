"""Entrywise oracles for the summing-norm divergence example: the truncation
as a dense vector, a concrete index set per selection class, and the prefix
sums through each spike.  The engine in ``greedylab.counterexample`` works on
run endpoints and never materializes either; the tests check it against these.
"""

from greedylab import CoeffVector
from greedylab.counterexample import ExampleSequence, block_value, spike_value


def spike_prefix_sums(ex: ExampleSequence) -> list[float]:
    """Prefix sums through each spike index n_k (telescopes to 1/sqrt(k))."""
    out = []
    v = 0.0
    for k in range(1, ex.depth + 1):
        v += spike_value(k)
        out.append(v)
        v += ex.block_size(k) * block_value(k)
    return out


def dense_vector(ex: ExampleSequence) -> CoeffVector:
    """Entrywise materialization, guarded to small depth."""
    if ex.depth > 5:
        raise ValueError("dense materialization guarded to depth <= 5")
    vals = []
    for k in range(1, ex.depth + 1):
        vals.append(spike_value(k))
        vals.extend([block_value(k)] * ex.block_size(k))
    return CoeffVector.from_dense(vals)


def materialize_selection(ex: ExampleSequence, sel: tuple,
                          placement: str = "first") -> frozenset:
    """A concrete index set in the class (a count vector: spikes, then block
    counts); block positions per ``placement``."""
    indices = [ex.spikes[k - 1] for k in range(1, ex.depth + 1) if sel[k - 1]]
    for k in range(1, ex.depth + 1):
        c = sel[ex.depth + k - 1]
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
