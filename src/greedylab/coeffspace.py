"""Coefficient vectors and the catalogue of (quasi-)norms the experiments run in.

A vector is a finitely supported real sequence indexed by positive integers.
Norms are plain callables on such vectors; a ``SpaceDescriptor`` bundles a
norm with the structural constants the estimators need (quasi-triangle
constant, basis bounds, optional extreme-point / dual-functional oracles).
"""

from __future__ import annotations

import itertools
import json
import math
import operator
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

__all__ = [
    "CoeffVector",
    "SpaceDescriptor",
    "GapSequence",
    "summing_norm",
    "lp_norm",
    "sup_norm",
    "weighted_lp_norm",
    "projection",
    "summing_space",
    "lp_space",
    "sup_space",
    "weighted_lp_space",
    "space_from_key",
]


def _summed(pairs: Iterable[tuple[int, float]]) -> tuple[tuple, tuple]:
    """Canonical (indices, values) tuples of the pairs: indices sorted, repeated
    ones summed in the order given as np.add.at does, zero sums dropped."""
    acc: dict[int, float] = {}
    for i, v in pairs:
        acc[i] = acc[i] + v if i in acc else v
    keep = sorted([i for i, v in acc.items() if v != 0.0])
    return tuple(keep), tuple([acc[i] for i in keep])


def _all_finite(vals: Sequence[float]) -> bool:
    # a NaN or inf value makes the sum NaN or inf, so a finite sum settles it
    # in one C loop; only a sum that overflowed is checked value by value
    return math.isfinite(sum(vals)) or all(map(math.isfinite, vals))


def _merged(ai: tuple, av: tuple, bi: tuple, bv: tuple) -> "CoeffVector":
    """The canonical vectors (ai, av) and (bi, bv) added in one pass over both
    sorted supports: a shared index sums a + b in that order, as ``_summed``
    would, and a zero sum is dropped.  A support wholly after the other is
    concatenated.  A non-finite result raises, as the constructors do."""
    if not bi or (ai and ai[-1] < bi[0]):
        idx, val = ai + bi, av + bv
    elif not ai or bi[-1] < ai[0]:
        idx, val = bi + ai, bv + av
    else:
        idx, val = [], []
        j, nb, b = 0, len(bi), bi[0]  # b: the next index of bi, inf past its end
        for i, a in zip(ai, av):
            while b < i:
                idx.append(b)
                val.append(bv[j])
                j += 1
                b = bi[j] if j < nb else math.inf
            if b == i:
                a += bv[j]
                j += 1
                b = bi[j] if j < nb else math.inf
                if a == 0.0:
                    continue
            idx.append(i)
            val.append(a)
        idx, val = tuple(idx + list(bi[j:])), tuple(val + list(bv[j:]))
    if not _all_finite(val):  # NaN, +-inf, or a sum overflowed
        raise ValueError("coefficients must be finite")
    return CoeffVector._canonical(idx, val)


class CoeffVector:
    """Finitely supported coefficient sequence, canonical form.

    Canonical means: indices are strictly increasing positive integers and no
    stored coefficient is zero.  Both are stored as tuples of builtin ``int``
    and ``float``: vectors here hold tens of entries, where numpy's per-call
    overhead costs more than the arithmetic.  Indices go through
    ``operator.index``, so a float or string index raises instead of being
    truncated, and a NaN or infinite coefficient raises too, whether given to
    a constructor or made by ``scale``, ``+`` or ``-``.  Instances are
    immutable; every operation returns a new vector.
    """

    __slots__ = ("_idx", "_val")

    def __init__(self, indices: Iterable[int] = (), values: Iterable[float] = ()):
        try:
            idx = [operator.index(i) for i in indices]
            val = [float(v) for v in values]
        except TypeError as exc:  # a float or str index, or a nested sequence
            raise ValueError("indices must be integers and values real numbers, "
                             "in two 1-d sequences") from exc
        if len(idx) != len(val):
            raise ValueError("indices and values must be of equal length")
        if idx and min(idx) < 1:
            raise ValueError("indices must be positive integers")
        self._idx, self._val = _summed(zip(idx, val))
        if not _all_finite(self._val):  # NaN, +-inf, or a sum overflowed
            raise ValueError("coefficients must be finite")

    @classmethod
    def _canonical(cls, idx: tuple, val: tuple) -> "CoeffVector":
        """Wrap tuples that are already canonical: builtin int indices strictly
        increasing and positive, builtin float values nonzero, of equal length.
        Nothing is checked.
        """
        v = object.__new__(cls)
        v._idx = idx
        v._val = val
        return v

    # -- constructors -------------------------------------------------

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, float]]) -> "CoeffVector":
        pairs = list(pairs)
        return cls([p[0] for p in pairs], [p[1] for p in pairs])

    @classmethod
    def from_dense(cls, values: Sequence[float]) -> "CoeffVector":
        vals = np.asarray(values, dtype=np.float64)
        if vals.ndim != 1:
            raise ValueError("dense values must be 1-d")
        dense = vals.tolist()
        if not _all_finite(dense):
            raise ValueError("coefficients must be finite")
        pairs = [(i, v) for i, v in enumerate(dense, 1) if v != 0.0]
        return cls._canonical(tuple([i for i, _ in pairs]), tuple([v for _, v in pairs]))

    @classmethod
    def zero(cls) -> "CoeffVector":
        return cls()

    @classmethod
    def basis_vector(cls, i: int, coeff: float = 1.0) -> "CoeffVector":
        return cls([i], [coeff])

    @classmethod
    def indicator(cls, indices: Iterable[int], coeff: float = 1.0) -> "CoeffVector":
        idx = sorted(set(indices))
        return cls(idx, [coeff] * len(idx))

    # -- inspection ---------------------------------------------------

    def support(self) -> tuple[int, ...]:
        return self._idx

    def __len__(self) -> int:
        return len(self._idx)

    def __bool__(self) -> bool:
        return bool(self._idx)

    def max_index(self) -> int:
        return self._idx[-1] if self._idx else 0

    def __getitem__(self, i: int) -> float:
        pos = bisect_left(self._idx, i)
        return self._val[pos] if pos < len(self._idx) and self._idx[pos] == i else 0.0

    def pairs(self) -> Iterator[tuple[int, float]]:
        return zip(self._idx, self._val)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CoeffVector):
            return NotImplemented
        return self._idx == other._idx and self._val == other._val

    def __hash__(self):
        return hash((self._idx, self._val))

    def __repr__(self) -> str:
        inner = ", ".join(f"{i}: {v:g}" for i, v in itertools.islice(self.pairs(), 8))
        more = ", ..." if len(self) > 8 else ""
        return f"CoeffVector({{{inner}{more}}})"

    # -- algebra ------------------------------------------------------

    def _select(self, A: Iterable[int], keep: bool) -> "CoeffVector":
        """The entries whose index is in A (keep=True) or not in A (keep=False);
        a ``range`` of step 1 is cut out of the support with two bisections."""
        idx, val = self._idx, self._val
        if isinstance(A, range) and A.step == 1:
            lo = bisect_left(idx, A.start)
            hi = bisect_left(idx, A.stop, lo)
            if keep:
                idx, val = idx[lo:hi], val[lo:hi]
            else:
                idx, val = idx[:lo] + idx[hi:], val[:lo] + val[hi:]
        else:
            A_set = A if isinstance(A, (set, frozenset)) else set(A)
            if keep:
                pos = [k for k, i in enumerate(idx) if i in A_set]
            else:
                pos = [k for k, i in enumerate(idx) if i not in A_set]
            if len(pos) == len(idx):
                return self
            idx, val = tuple([idx[k] for k in pos]), tuple([val[k] for k in pos])
        return self if len(idx) == len(self._idx) else CoeffVector._canonical(idx, val)

    def restrict(self, A: Iterable[int]) -> "CoeffVector":
        """Projection onto the index set A (empty set gives the zero vector)."""
        return self._select(A, True)

    def drop(self, A: Iterable[int]) -> "CoeffVector":
        """The entries outside the index set A: x - P_A(x)."""
        return self._select(A, False)

    def __add__(self, other: "CoeffVector") -> "CoeffVector":
        return _merged(self._idx, self._val, other._idx, other._val)

    def __sub__(self, other: "CoeffVector") -> "CoeffVector":
        # a + (-b) has a - b's bits
        return _merged(self._idx, self._val, other._idx, tuple([-v for v in other._val]))

    def __neg__(self) -> "CoeffVector":
        return self.scale(-1.0)

    def scale(self, c: float) -> "CoeffVector":
        c = float(c)
        val = [v * c for v in self._val]
        if not (math.isfinite(c) and _all_finite(val)):  # or a product overflowed
            raise ValueError("coefficients must be finite")
        if not all(val):  # c == 0, or an underflow, left zeros to drop
            return CoeffVector._canonical(*_summed(zip(self._idx, val)))
        return CoeffVector._canonical(self._idx, tuple(val))

    # -- serialization ------------------------------------------------

    def to_json_pairs(self) -> list[list[float]]:
        return [[i, v] for i, v in self.pairs()]

    def to_json(self) -> str:
        return json.dumps(self.to_json_pairs())


# ---------------------------------------------------------------------------
# Norms
# ---------------------------------------------------------------------------


def _abs_max(values: Sequence[float]) -> float:
    """np.max(np.abs(values)) in plain Python: 0.0 when empty, NaN if any value is."""
    peak = max(map(abs, values), default=0.0)
    return math.nan if any(map(math.isnan, values)) else peak


def summing_norm(x: CoeffVector) -> float:
    """sup over n of |partial sum of the first n coefficients|.

    The partial sum only changes at support points, so one running sum over
    the stored values is exact, and equal to ``np.cumsum`` bit for bit.
    """
    return _abs_max(list(itertools.accumulate(x._val)))


def _peak_factored(a: list[float], p: float, w=None) -> float:
    """(sum w_i a_i^p)^(1/p) for moduli a_i, the peak factored out so that
    neither huge nor tiny moduli overflow or underflow the powers.

    The peak and a_i / peak are plain Python: IEEE division is correctly
    rounded, so the bits are numpy's.  One ``ndarray ** p`` and the pairwise
    ``np.add.reduce`` (``np.sum`` without its wrapper) fix the rest, where
    Python's ``**`` and a running sum can differ in the last bit.
    """
    peak = max(a)
    powers = np.array([v / peak for v in a]) ** p
    return peak * float(np.add.reduce(powers if w is None else w * powers)) ** (1.0 / p)


def lp_norm(x: CoeffVector, p: float) -> float:
    """(sum |a_i|^p)^(1/p); a quasi-norm for 0 < p < 1."""
    if not p > 0:
        raise ValueError(f"lp_norm requires p > 0, got {p}")
    if not x:
        return 0.0
    return _peak_factored([abs(v) for v in x._val], p)


def sup_norm(x: CoeffVector) -> float:
    return _abs_max(x._val)


def weighted_lp_norm(x: CoeffVector, p: float, weights: Sequence[float]) -> float:
    """(sum w_i |a_i|^p)^(1/p); weights beyond the configured table default to 1."""
    if not p > 0:
        raise ValueError(f"weighted_lp_norm requires p > 0, got {p}")
    if not x:
        return 0.0
    n = len(weights)
    wi = [weights[i - 1] if i <= n else 1.0 for i in x._idx]
    _check_weights(wi, x._idx)
    return _peak_factored([abs(v) for v in x._val], p, np.array(wi, dtype=np.float64))


def _check_weights(w: list, numbers: Sequence[int]) -> None:
    """Refuse a weight that is not finite and positive; numbers[j] is the
    place of w[j] in the weight table, counted from 1.  Two passes of C
    builtins, so a norm call pays well under a microsecond for it."""
    if all(map(math.isfinite, w)) and min(w, default=1.0) > 0.0:
        return
    # NaN fails every comparison, so test for the good weights, not the bad
    j = next(j for j, v in enumerate(w) if not 0.0 < v < math.inf)
    raise ValueError(f"weights must be finite and positive: weight {numbers[j]} "
                     f"is {float(w[j])!r}")


def projection(x: CoeffVector, A: Iterable[int]) -> CoeffVector:
    """P_A(x): restriction of x to the finite index set A (empty sum is zero)."""
    return x.restrict(A)


# ---------------------------------------------------------------------------
# Space descriptors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpaceDescriptor:
    """A (quasi-)norm together with the structural constants used by estimators.

    Fields:
        norm: the (quasi-)norm evaluator.
        alpha: quasi-triangle constant (1 for genuine norms).
        alpha1: sup over i of the norm of the i-th basis vector.
        alpha2: sup over i of the norm of the i-th coordinate functional.
        c_param: sup over i of (1 + |e_i|)(1 + |e_i*|); always > 2.
        extreme_points: optional generator of unit-ball extreme points for a
            given finite support tuple (exact search is only available where
            this exists and the ball is polyhedral).
        dual_functionals: optional dense matrix F(d) of functionals with
            norm(z) = max over rows f of |f . z| on vectors supported in
            [1, d]; presence of this oracle marks the norm as polyhedral.
        contractive_projections: True when every coordinate projection
            satisfies |P_A x| <= |x| (1-suppression-unconditional catalogue
            entries).
        spreading: True when the norm of sum a_k e_{n_k} is the same for
            every increasing n_1 < n_2 < ..., so the norm reads only the
            values in index order (set by the catalogue factories).
    """

    name: str
    norm: Callable[[CoeffVector], float]
    alpha: float
    alpha1: float
    alpha2: float
    c_param: float
    extreme_points: Optional[Callable[[tuple[int, ...]], Iterator[CoeffVector]]] = None
    dual_functionals: Optional[Callable[[int], np.ndarray]] = None
    contractive_projections: bool = False
    spreading: bool = False

    def __post_init__(self):
        if self.alpha < 1.0:
            raise ValueError("quasi-triangle constant must satisfy alpha >= 1")
        if not self.c_param > 2.0:
            raise ValueError("c parameter must exceed 2")


def _summing_extreme_points(support: tuple[int, ...]) -> Iterator[CoeffVector]:
    """Extreme points of the summing-norm unit ball restricted to a support set.

    In prefix coordinates the ball is the cube |u_j| <= 1, so its vertices are
    the sign patterns; mapping back gives difference vectors.
    """
    k = len(support)
    if k > 24:
        raise ValueError("extreme-point enumeration capped at 24 support points")
    for pattern in itertools.product((1.0, -1.0), repeat=k):
        vals = [pattern[0]] + [pattern[j] - pattern[j - 1] for j in range(1, k)]
        yield CoeffVector(support, vals)


def _l1_extreme_points(support: tuple[int, ...]) -> Iterator[CoeffVector]:
    for i in support:
        yield CoeffVector.basis_vector(i, 1.0)
        yield CoeffVector.basis_vector(i, -1.0)


def _sup_extreme_points(support: tuple[int, ...]) -> Iterator[CoeffVector]:
    k = len(support)
    if k > 24:
        raise ValueError("extreme-point enumeration capped at 24 support points")
    for pattern in itertools.product((1.0, -1.0), repeat=k):
        yield CoeffVector(support, pattern)


def _summing_dual_functionals(dim: int) -> np.ndarray:
    # rows: prefix indicators 1_{[1..n]}; norm(z) = max_n |row_n . z|
    return np.tril(np.ones((dim, dim)))


def _l1_dual_functionals(dim: int) -> np.ndarray:
    if dim > 14:
        raise ValueError("l1 dual-functional enumeration capped at dimension 14")
    return np.array(list(itertools.product((1.0, -1.0), repeat=dim)))


def _sup_dual_functionals(dim: int) -> np.ndarray:
    return np.eye(dim)


def summing_space(dim: int = 64) -> SpaceDescriptor:
    """The completion of finitely supported sequences under the summing norm.

    The canonical basis is a monotone normalized Schauder basis.  Coordinate
    functionals have norm 2 from the second coordinate on (difference of two
    prefix sums), hence alpha2 = 2 once dim >= 2.
    """
    alpha2 = 2.0 if dim >= 2 else 1.0
    return SpaceDescriptor(
        name="summing",
        norm=summing_norm,
        alpha=1.0,
        alpha1=1.0,
        alpha2=alpha2,
        c_param=(1.0 + 1.0) * (1.0 + alpha2),
        extreme_points=_summing_extreme_points,
        dual_functionals=_summing_dual_functionals,
        contractive_projections=False,
        spreading=True,
    )


def lp_space(p: float) -> SpaceDescriptor:
    """l_p with the canonical basis; a quasi-norm with alpha = 2^(1/p-1) for p < 1."""
    if not p > 0:
        raise ValueError(f"lp_space requires p > 0, got {p}")
    alpha = 1.0 if p >= 1.0 else 2.0 ** (1.0 / p - 1.0)
    extreme = _l1_extreme_points if p == 1.0 else None
    duals = _l1_dual_functionals if p == 1.0 else None
    return SpaceDescriptor(
        name=f"lp:{p:g}",
        norm=lambda x, _p=p: lp_norm(x, _p),
        alpha=alpha,
        alpha1=1.0,
        alpha2=1.0,
        c_param=4.0,
        extreme_points=extreme,
        dual_functionals=duals,
        contractive_projections=True,
        spreading=True,
    )


def sup_space() -> SpaceDescriptor:
    return SpaceDescriptor(
        name="sup",
        norm=sup_norm,
        alpha=1.0,
        alpha1=1.0,
        alpha2=1.0,
        c_param=4.0,
        extreme_points=_sup_extreme_points,
        dual_functionals=_sup_dual_functionals,
        contractive_projections=True,
        spreading=True,
    )


def weighted_lp_space(p: float, weights: Sequence[float], dim: int = 64) -> SpaceDescriptor:
    if not p > 0:
        raise ValueError(f"weighted_lp_space requires p > 0, got {p}")
    w = np.asarray(weights, dtype=np.float64)
    _check_weights(w.tolist(), range(1, w.size + 1))
    alpha = 1.0 if p >= 1.0 else 2.0 ** (1.0 / p - 1.0)
    w_at = lambda i: float(w[i - 1]) if i <= w.size else 1.0
    span = range(1, max(dim, 1) + 1)
    alpha1 = max(w_at(i) ** (1.0 / p) for i in span)
    alpha2 = max(w_at(i) ** (-1.0 / p) for i in span)
    c = max((1.0 + w_at(i) ** (1.0 / p)) * (1.0 + w_at(i) ** (-1.0 / p)) for i in span)
    return SpaceDescriptor(
        name=f"weighted-lp:{p:g}",
        norm=lambda x, _p=p, _w=w.tolist(): weighted_lp_norm(x, _p, _w),
        alpha=alpha,
        alpha1=alpha1,
        alpha2=alpha2,
        c_param=c,
        contractive_projections=True,
    )


def _parse_exponent(text: str) -> float:
    """Exponent literal, accepting fractions like "2/3"."""
    if "/" in text:
        num, den = text.split("/", 1)
        if float(den) == 0.0:
            raise ValueError(f"exponent {text!r} divides by zero")
        return float(num) / float(den)
    return float(text)


def space_from_key(key: str, dim: int = 64) -> SpaceDescriptor:
    """Resolve a catalogue key: "summing", "lp:<p>", "sup", "weighted-lp:<p>:<weight-file>"."""
    if key == "summing":
        return summing_space(dim)
    if key == "sup":
        return sup_space()
    if key.startswith("lp:"):
        return lp_space(_parse_exponent(key.split(":", 1)[1]))
    if key.startswith("weighted-lp:"):
        parts = key.split(":", 2)
        if len(parts) != 3:
            raise ValueError(f"malformed weighted-lp key: {key!r}")
        p = _parse_exponent(parts[1])
        with open(parts[2], "r", encoding="utf-8") as fh:
            weights = json.load(fh)
        return weighted_lp_space(p, weights, dim)
    raise ValueError(f"unknown space key: {key!r}")


# ---------------------------------------------------------------------------
# Gap sequences
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GapSequence:
    """Strictly increasing positive integers, explicit prefix or closed-form rule."""

    values: tuple[int, ...] = ()
    rule: Optional[Callable[[int], int]] = None  # 1-based term formula
    bound_l: Optional[int] = None

    def __post_init__(self):
        vals = tuple(int(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        if vals:
            if vals[0] < 1:
                raise ValueError("gap sequence terms must be positive")
            if any(b <= a for a, b in zip(vals, vals[1:])):
                raise ValueError("gap sequence must be strictly increasing")
        if self.bound_l is not None:
            if self.bound_l <= 1:
                raise ValueError("gap bound l must exceed 1")
            for a, b in zip(vals, vals[1:]):
                if b > self.bound_l * a:
                    raise ValueError(
                        f"stored terms violate {self.bound_l}-bounded gaps: {a} -> {b}")
        if bool(vals) == (self.rule is not None):
            raise ValueError("gap sequence needs an explicit prefix or a rule, not both")
        if self.rule is not None and int(self.rule(1)) < 1:
            raise ValueError("gap sequence terms must be positive")

    @classmethod
    def explicit(cls, values: Iterable[int], bound_l: Optional[int] = None) -> "GapSequence":
        return cls(tuple(values), None, bound_l)

    @classmethod
    def naturals(cls) -> "GapSequence":
        # ratios (k+1)/k are at most 2, so the naturals have 2-bounded gaps
        return cls((), lambda k: k, 2)

    @classmethod
    def powers(cls, base: int, first: int = 1) -> "GapSequence":
        if base <= 1:
            raise ValueError("base must exceed 1")
        return cls((), lambda k, b=base, f=first: f * b ** (k - 1), base)

    def members_up_to(self, n: int) -> tuple[int, ...]:
        if self.rule is None:
            return tuple(v for v in self.values if v <= n)
        out, k, v = [], 1, int(self.rule(1))
        while v <= n:
            out.append(v)
            k, last, v = k + 1, v, int(self.rule(k + 1))
            if v <= last:
                raise ValueError(f"gap rule must increase: rule({k}) = {v} "
                                 f"after rule({k - 1}) = {last}")
            if self.bound_l is not None and v > self.bound_l * last:
                raise ValueError(f"gap rule violates {self.bound_l}-bounded gaps: "
                                 f"rule({k - 1}) = {last} -> rule({k}) = {v}")
        return tuple(out)

    def first(self) -> int:
        return self.values[0] if self.values else int(self.rule(1))

    def admissible_sizes(self, dim: int) -> tuple[int, ...]:
        """The members up to dim, the cardinalities a search in dimension dim
        visits; a dim below the first term raises, naming both."""
        sizes = self.members_up_to(dim)
        if not sizes:
            raise ValueError(f"no admissible cardinality: dim = {dim} is below "
                             f"the gap sequence's first term {self.first()}")
        return sizes


# ---------------------------------------------------------------------------
# Random samples
# ---------------------------------------------------------------------------


def random_vectors(dim: int, count: int, rng: np.random.Generator,
                   style_offset: int = 0) -> Iterator[CoeffVector]:
    """Mixture of dense normal, sparse and tie-rich sign/quantized samples, none zero."""
    for j in range(count):
        style = (j + style_offset) % 4
        if style == 0:
            vals = rng.standard_normal(dim)
        elif style == 1:
            vals = rng.standard_cauchy(dim)
        elif style == 2:
            vals = rng.choice([-1.0, 1.0], size=dim)
        else:
            vals = np.round(rng.standard_normal(dim) * 4.0) / 4.0
        if style != 2:
            mask = rng.random(dim) < rng.uniform(0.3, 1.0)
            vals = np.where(mask, vals, 0.0)
        if not vals.any():
            vals[int(rng.integers(dim))] = 1.0
        yield CoeffVector.from_dense(vals)
